"""Hecke traces from the seed eigenform file ``data/eigenforms_k4.jsonl``,
unchanged since the initial commit, whose records came from exact
quadratic-field arithmetic: the sum of c_m over its forms of level N is
Tr T_m on S_4(Gamma0(N)), independently of the trace formula.  This module
exists only because ``perfbench/child.py::trace_oracle_values`` imports
``CuspSpace``; the next benchmark change deletes it."""

import math

from .arith import HECKE_REL_TOL, _divisor_counts, dim_cusp_forms, load_eigenforms
from .errors import DomainError, InvariantViolation
from .harness import default_data_path

__all__ = ["CuspSpace"]

SEED_WEIGHT = 4


class CuspSpace:
    """S_4(Gamma0(N)) as the seed file's forms of level N."""

    def __init__(self, N: int, k: int, length: int = 400):
        if k != SEED_WEIGHT:
            raise DomainError(f"the seed file holds weight {SEED_WEIGHT} only")
        self.forms = [f for f in load_eigenforms(default_data_path()) if f.level == N]
        if not self.forms or len(self.forms) != dim_cusp_forms(N, k):
            raise DomainError(f"the seed file does not fill S_{k}(Gamma0({N}))")
        self.N, self.k, self.L = N, k, min(length, self.forms[0].n_max + 1)

    def trace_hecke(self, m: int) -> int:
        """Tr T_m for 1 <= m < length prime to N: the sum of c_m, rounded
        once it is within HECKE_REL_TOL dim d(m) m^((k-1)/2) of an integer."""
        if math.gcd(m, self.N) != 1 or not 1 <= m < self.L:
            raise DomainError(f"T_{m} is past the series of length {self.L} "
                              f"or not prime to N = {self.N}")
        total = sum(f.c(m) for f in self.forms)
        bound = len(self.forms) * _divisor_counts(m)[m] * m ** ((self.k - 1) / 2.0)
        if not abs(total - round(total)) <= HECKE_REL_TOL * bound:
            raise InvariantViolation(f"Tr T_{m} = {total!r} at N = {self.N} is not an integer")
        return round(total)
