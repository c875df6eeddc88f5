"""Numerical verification laboratory for averages of central modular
L-values against split/inert Satake measures at an auxiliary prime.

``newforms``, the generator of the shipped eigenform data, is not imported
here: no command uses it, so an interpreter that needs it imports it
itself.  ``modforms``, the benchmark's trace shim, is: it binds
``arith.load_eigenforms`` when imported, so a first import inside the
benchmark's traced run would count its seed-file loads as that layer's."""

from . import (  # noqa: F401
    arch_local,
    arith,
    harness,
    lvalues,
    measures,
    modforms,
    numerics,
    padic_local,
    reg_tail,
)

__version__ = "0.1.0"
