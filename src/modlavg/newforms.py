"""Newforms of prime level from the Eichler-Selberg trace formula.

At prime level N and even weight 4 <= k < 12 the cusp space is entirely
new, and the trace form t = sum_n Tr(T_n) q^n is the sum of its normalized
newforms.  The Hecke translates T_m t (m prime to N) therefore span the
space, and their coefficients at n prime to N are integers given by the
trace formula alone,

    (T_m t)_n = Tr(T_m T_n) = sum_{d | (m, n)} d^(k-1) Tr T_(mn/d^2),

``hecke_coefficient`` on the traces.  On a basis of translates the matrix
of T_ell (ell = 2, or 3 at N = 2) is exact, and so are the Krylov vectors
v_j = T_ell^j t, j <= dim, and the characteristic polynomial chi of T_ell
that v_dim gives.  Every root lam has the one eigenvector

    u = (chi(T_ell)/(T_ell - lam)) t = sum_j b_j(lam) v_j,

b_j from synthetic division, and c_p = sum_i u_i (T_(m_i) t)_p / sum_i u_i
Tr T_(m_i); ``hecke_extend`` fills in the other c_n (Stein, Modular Forms:
A Computational Approach, 2007, on newforms from characteristic
polynomials).  A root that lies on an integer where chi vanishes runs in
Fractions, so its form comes out as exact integers; every other root is
Newton-refined from a float root of chi and evaluated in ``decimal``, at a
precision derived from the magnitudes of the sums, and a recomputation at
twice the digits must give the same floats.  The c_p of the forms must sum
to Tr T_p up to those floats.  The Atkin-Lehner sign w is the one of the
two candidates c_N = -w N^(k/2-1) that ``fricke_sign`` accepts, and every
form must pass ``modularity_residual`` (the Gamma0(N) rows), so the stored
coefficients must reach height about 1/N.
"""

from __future__ import annotations

import itertools
import math
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .arith import (
    Eigenform,
    _as_int,
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
    labelled N.k.a, N.k.b, ... by descending T_ell eigenvalue.  A form whose
    modularity residual exceeds its budget, or whose decimal coefficients
    move under the doubled-precision witness, is refused, and so are forms
    whose c_p do not sum to Tr T_p (InvariantViolation); an n_max that is
    not an int (DomainError) or is below what the Fricke and modularity rows
    need (InsufficientCoefficients) is refused before any trace is
    computed."""
    n_max = _as_int(n_max, "n_max")
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
    # each candidate is reduced against the rows already in echelon form
    basis, rows, red = [], [], []
    for m in cols:
        row = [translate(m, n) for n in cols]
        grown, pivots = _rref(red + [row])
        if len(pivots) > len(basis):
            basis.append(m)
            rows.append(row)
            red = grown
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
    # v_j = T_ell^j t spans one dimension per distinct eigenvalue, and v_dim
    # on v_0 .. v_(dim-1) gives the characteristic polynomial chi of T_ell
    krylov = [[int(i == 0) for i in range(dim)]]
    while len(krylov) <= dim:
        krylov.append([sum(M[i][j] * krylov[-1][j] for j in range(dim))
                       for i in range(dim)])
    red, pivots = _rref([list(row) for row in zip(*krylov)])
    if pivots != list(range(dim)):
        raise InvariantViolation(f"repeated T_{ell} eigenvalue at N = {N}")
    chi = [-r[dim] for r in red] + [1]  # chi[j] multiplies x^j
    if any(a.denominator != 1 for a in chi):
        raise InvariantViolation(f"T_{ell} has a non-integral characteristic "
                                 f"polynomial at N = {N}")
    chi = [int(a) for a in chi]
    # u is an eigenvector up to scale, so integer Krylov vectors serve
    scale = math.lcm(*(x.denominator for v in krylov for x in v))
    krylov = [[int(x * scale) for x in v] for v in krylov[:dim]]
    table = {n: [translate(m, n) for m in basis]
             for n in [1] + [p for p in _primes_up_to(n_max) if p != N]}

    # labels follow the roots downwards; a root that Newton's method reaches
    # twice, or out of order, means a seed was too far from its own root
    seeds = sorted(np.roots(np.array(chi[::-1], dtype=float)).real.tolist(), reverse=True)
    if len(set(seeds)) < dim:
        raise InvariantViolation(f"the float roots of T_{ell}'s characteristic "
                                 f"polynomial are not distinct at N = {N}")
    out, found, above = [], [], math.inf
    for rank, seed in enumerate(seeds):
        label = f"{N}.{k}.{_tag(rank)}"
        digits = _digits(chi, krylov, table, seeds, rank, scale, k)
        with localcontext(Context(prec=digits)):
            lam = _newton(chi, Decimal(seed))
            nearest = int(lam.to_integral_value())
            # chi also vanishes at the integer nearest an irrational root when
            # that integer is a neighbouring root, so lam must lie on it,
            # within half the digits Newton's method works in
            integral = (_horner(chi, nearest)[0] == 0
                        and abs(lam - nearest) <= Decimal(10) ** -(digits // 2))
            if not integral:
                primes = _float_coefficients(chi, krylov, table, lam)
        if not float(lam) < above:
            raise InvariantViolation(f"{label}: Newton's method from {seed!r} reaches "
                                     f"{float(lam)!r}, not below the T_{ell} eigenvalue "
                                     f"{above!r} before it")
        above = float(lam)
        if integral:
            # a rational root of the monic integral chi is an integer
            primes = _coefficients(_eigenvector(chi, krylov, Fraction(nearest)), table)
            for p, c in primes.items():
                if c.denominator != 1:
                    raise InvariantViolation(f"{label}: non-integral c_{p} = {c}")
                primes[p] = int(c)
        else:
            with localcontext(Context(prec=2 * digits)):
                witness = _float_coefficients(chi, krylov, table, _newton(chi, lam))
            for p, c in primes.items():
                if witness[p] != c:
                    raise InvariantViolation(
                        f"{label}: c_{p} = {c!r} at {digits} digits but "
                        f"{witness[p]!r} at {2 * digits}")
        form = _with_fricke_sign(N, k, label, primes, n_max)
        mats, ratios = _modularity_ratios(form)
        worst = int(np.argmax(ratios))  # the first NaN, if any
        if not ratios[worst] <= 1.0:
            raise InvariantViolation(f"{form.label}: modularity residual {ratios[worst]:.3g} "
                                     f"of its budget at (a, b, c, d) = {mats[worst]}")
        out.append(form)
        found.append(primes)

    # t is the sum of the newforms, so a lost or doubled form moves Tr T_p
    # by more than the d float conversions, each within one ulp of a c_p
    # below its Deligne bound 2 p^((k-1)/2)
    for p in sorted(table.keys() - {1}):
        total = sum(Fraction(primes[p]) for primes in found)
        if abs(total - trace(p)) > dim * 2.0 ** -51 * p ** ((k - 1) / 2):
            raise InvariantViolation(f"N = {N}: the c_{p} of the {dim} forms sum to "
                                     f"{float(total)!r}, not Tr T_{p} = {trace(p)}")
    return out


# digits beyond those that hold a coefficient's rounding 2^-52 below its
# Deligne bound: room for a coefficient far below the bound, and for the
# error of the root itself
_GUARD_DIGITS = 10
_NEWTON_STEPS = 100


def _horner(chi: list, x):
    """chi(x) and chi'(x), chi[j] the coefficient of x^j."""
    f = df = 0
    for a in reversed(chi):
        df = df * x + f
        f = f * x + a
    return f, df


def _newton(chi: list, x: Decimal) -> Decimal:
    """The root of chi that Newton's method reaches from x in the current
    decimal context: the first iterate at which chi is below the rounding of
    its own Horner sum; InvariantViolation if _NEWTON_STEPS do not reach it."""
    eps = len(chi) * Decimal(10) ** (1 - getcontext().prec)
    magnitudes = [abs(a) for a in chi]
    for _ in range(_NEWTON_STEPS):
        f, df = _horner(chi, x)
        if abs(f) <= eps * _horner(magnitudes, abs(x))[0]:  # chi(x) is rounding
            return x
        x -= f / df
    raise InvariantViolation(f"Newton's method does not settle at the root near {x:.6e}")


def _eigenvector(chi: list, krylov: list, lam) -> list:
    """u = sum_j b_j(lam) v_j with chi(x) = (x - lam) sum_j b_j x^j: the
    eigenvector (chi(T)/(T - lam)) t for the root lam, in the arithmetic of
    lam.  Synthetic division gives b_(d-1) = 1, b_(j-1) = chi_j + lam b_j."""
    b, acc = [], 0
    for a in chi[:0:-1]:
        acc = acc * lam + a
        b.append(acc)
    return [sum(bj * v[i] for bj, v in zip(reversed(b), krylov))
            for i in range(len(krylov[0]))]


def _coefficients(u: list, table: dict) -> dict:
    """c_p = sum_i u_i (T_(m_i) t)_p / sum_i u_i Tr T_(m_i) for each prime p
    of table, whose column n holds (T_(m_i) t)_n (n = 1: the traces)."""
    sums = {n: sum(x * y for x, y in zip(u, col)) for n, col in table.items()}
    lead = sums.pop(1)
    return {p: s / lead for p, s in sums.items()}


def _float_coefficients(chi: list, krylov: list, table: dict, lam: Decimal) -> dict:
    """The coefficients of the form whose T_ell eigenvalue is the root lam of
    chi, evaluated in the current decimal context and rounded to floats."""
    return {p: float(c) for p, c in
            _coefficients(_eigenvector(chi, krylov, lam), table).items()}


def _digits(chi: list, krylov: list, table: dict, seeds: list, i: int, scale: int,
            k: int) -> int:
    """Significant digits for the sums of _coefficients at the root lam near
    seeds[i], from their magnitudes at 8 digits.  Each sum is rounded by a
    few units of 10^-digits times the same sum over |terms|, and the sum at
    n = 1 is scale chi'(lam) = scale prod (lam - mu) over the other roots mu.
    The digits hold c_n = sum_n / sum_1 within 2^-52 (16 digits) of its
    Deligne bound 2 n^((k-1)/2), after the condition number of the root has
    multiplied the rounding, and add _GUARD_DIGITS."""
    with localcontext(Context(prec=8)):
        lam = Decimal(seeds[i])
        magnitudes = [abs(a) for a in chi]
        u = _eigenvector(magnitudes, [[abs(x) for x in v] for v in krylov], abs(lam))
        lead = scale * math.prod(abs(lam - Decimal(mu)) for j, mu in enumerate(seeds)
                                 if j != i)
        worst = max(sum(x * abs(y) for x, y in zip(u, col))
                    / (2 * Decimal(n) ** (Decimal(k - 1) / 2)) for n, col in table.items())
        # the root is off by 10^-digits of the |terms| of chi(lam) over chi'(lam)
        cond = 1 + _horner(magnitudes, abs(lam))[0] * scale / lead / max(abs(lam), 1)
        return 16 + _GUARD_DIGITS + math.ceil((worst / lead * cond).log10())


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

