"""Numerical verification laboratory for averages of central modular
L-values against split/inert Satake measures at an auxiliary prime."""

from . import (  # noqa: F401
    arch_local,
    arith,
    harness,
    lvalues,
    measures,
    modforms,
    newforms,
    numerics,
    padic_local,
    reg_tail,
)

__version__ = "0.1.0"
