"""Newforms of prime level from the Eichler-Selberg trace formula.

At prime level N and even weight 4 <= k < 12 the cusp space is entirely
new, and the trace form t = sum_n Tr(T_n) q^n is the sum of its normalized
newforms.  The Hecke translates T_m t (m prime to N) therefore span the
space, and their coefficients at n prime to N are integers given by the
trace formula alone,

    (T_m t)_n = Tr(T_m T_n) = sum_{d | (m, n)} d^(k-1) Tr T_(mn/d^2),

``hecke_coefficient`` on the traces.  A basis of translates, the exact
matrix of T_2 on it and its eigenvectors give each newform's prime
coefficients; ``hecke_extend`` fills in the rest.
Rational forms come out as exact integers; the Atkin-Lehner sign w is the
one of the two candidates c_N = -w N^(k/2-1) that ``fricke_sign`` accepts,
and every form must pass ``modularity_residual`` (the Gamma0(N) rows), so
the stored coefficients must reach height about 1/N.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .arith import (
    Eigenform,
    _kernel,
    _primes_up_to,
    _rref,
    dim_cusp_forms,
    eichler_selberg_trace,
    hecke_coefficient,
    hecke_extend,
)
from .errors import DomainError, InsufficientCoefficients, InvariantViolation
from .lvalues import _modularity_ratios, _rows_count, fricke_sign

__all__ = ["newforms"]


def newforms(N: int, k: int, n_max: int) -> list:
    """The weight-k newforms of prime level N with n_max coefficients,
    labelled N.k.a, N.k.b, ... by descending T_2 eigenvalue.  A form whose
    modularity residual exceeds its budget is refused (InvariantViolation);
    an n_max below what the Fricke and modularity rows need is refused
    before any trace is computed (InsufficientCoefficients)."""
    if k >= 12:
        raise DomainError("level-1 cusp forms enter the traces from weight 12 on")
    dim = dim_cusp_forms(N, k)
    if dim == 0:
        return []
    need, height = _rows_count(N, k)
    if n_max < need:
        raise InsufficientCoefficients(
            f"N = {N}, k = {k}: the Fricke and modularity rows need {need} coefficients "
            f"(certified tail at Im z = {height:.4f}), n_max = {n_max}")
    trace = lru_cache(maxsize=None)(lambda m: eichler_selberg_trace(N, k, m))
    translate = partial(hecke_coefficient, trace, k=k, N=N)  # (T_m t)_n

    cols = list(itertools.islice((n for n in itertools.count(1) if n % N),
                                 4 * dim + 20))
    basis, rows = [], []
    for m in cols:
        row = [translate(m, n) for n in cols]
        if len(_rref(rows + [row])[1]) > len(rows):
            basis.append(m)
            rows.append(row)
        if len(basis) == dim:
            break
    else:
        raise InvariantViolation(
            f"trace-form translates span {len(basis)} of {dim} dimensions at N = {N}")

    # T_ell applied to each translate T_m t, solved in the basis: column i
    # of M holds the coordinates of T_ell on basis[i]
    ell = 3 if N == 2 else 2
    images = [[hecke_coefficient(partial(translate, m), ell, n, k, N) for m in basis]
              for n in cols]
    red, pivots = _rref([[row[j] for row in rows] + img
                         for j, img in enumerate(images)])
    if pivots != list(range(dim)):
        raise InvariantViolation(f"T_{ell} leaves the span of the translates at N = {N}")
    M = [r[dim:] for r in red[:dim]]

    # t has coordinate e_1 and meets every eigenline, so its T_ell-orbit
    # spans one dimension per distinct eigenvalue
    krylov = [[Fraction(int(i == 0)) for i in range(dim)]]
    while len(krylov) < dim:
        krylov.append([sum(M[i][j] * krylov[-1][j] for j in range(dim))
                       for i in range(dim)])
    if len(_rref(krylov)[1]) < dim:
        raise InvariantViolation(f"repeated T_{ell} eigenvalue at N = {N}")

    # rational eigenvalues are integers; each has an exact eigenvector
    lams, vecs = np.linalg.eig(np.array(M, dtype=float))
    exact = {}
    for r in {round(x) for x in lams.real}:
        shifted = [[M[i][j] - r * (i == j) for j in range(dim)] for i in range(dim)]
        kernel = _kernel(shifted)
        if kernel:
            exact[int(np.argmin(abs(lams - r)))] = kernel[0]

    out = []
    for rank, i in enumerate(np.argsort(-lams.real)):
        v = exact.get(int(i), vecs[:, i].real)
        lead = sum(v[j] * trace(m) for j, m in enumerate(basis))
        primes = {}
        for p in _primes_up_to(n_max):
            if p != N:
                c = sum(v[j] * translate(m, p) for j, m in enumerate(basis)) / lead
                if not isinstance(c, Fraction):
                    primes[p] = float(c)
                elif c.denominator == 1:
                    primes[p] = int(c)
                else:
                    raise InvariantViolation(f"non-integral c_{p} = {c} at N = {N}")
        form = _with_fricke_sign(N, k, f"{N}.{k}.{_tag(rank)}", primes, n_max)
        mats, ratios = _modularity_ratios(form)
        worst = int(np.argmax(ratios))  # the first NaN, if any
        if not ratios[worst] <= 1.0:
            raise InvariantViolation(f"{form.label}: modularity residual {ratios[worst]:.3g} "
                                     f"of its budget at (a, b, c, d) = {mats[worst]}")
        out.append(form)
    return out


def _tag(i: int) -> str:
    """a, b, ..., z, ba, bb, ...: i in base 26 with digits a-z."""
    return (_tag(i // 26) if i >= 26 else "") + chr(ord("a") + i % 26)


def _with_fricke_sign(N: int, k: int, label: str, primes: dict, n_max: int) -> Eigenform:
    """The form with c_N = -w N^(k/2-1) for the one sign w that
    ``fricke_sign`` measures; the other sign must be refused."""
    passed = []
    for w in (+1, -1):
        coeffs = hecke_extend({**primes, N: -w * N ** (k // 2 - 1)}, N, k, n_max)
        form = Eigenform(level=N, weight=k, label=label, coeffs=coeffs, atkin_lehner=w)
        try:
            fricke_sign(form)
        except InvariantViolation:
            continue
        passed.append(form)
    if len(passed) != 1:
        raise InvariantViolation(
            f"{label}: {len(passed)} Atkin-Lehner signs pass the Fricke check")
    return passed[0]

