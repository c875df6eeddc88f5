"""The base of the package's immutable record classes.

A record names its fields in ``__slots__`` and sets them once, in its own
``__init__``, through ``set_field``.  After that, assigning or deleting an
attribute raises ``dataclasses.FrozenInstanceError``, as on a frozen
dataclass.  Records compare and hash by their fields in order (``_fields``,
``__slots__`` unless the class names them) and show them as a dataclass
does, ``Name(field=value, ...)`` over ``_shown`` (``_fields`` unless the
class names them).  These methods are written here once, where
``dataclasses`` would generate and compile them for each class in every
interpreter that imports the package.
"""

from dataclasses import FrozenInstanceError

# sets a field of a record in its __init__, past Record.__setattr__
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _shown: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._shown = cls.__dict__.get("_shown", cls._fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle hand a slotted object's state over as (None, slots)
        for name, value in state[1].items():
            set_field(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"
