"""Exact q-expansion models of the cusp spaces at prime level: the oracle
for Hecke traces.

Spaces are built from Eisenstein series, the weight-2 level series
E2(z) - N E2(Nz), and (at level 11) the weight-2 eta-product cusp form.
Everything is exact integer/rational arithmetic on truncated q-series, so
the Hecke traces computed here check the Eichler-Selberg trace formula
(levels 5, 7 and 11) from an independent construction; the newforms
themselves come from the trace formula (see ``newforms``).  The cusp basis
is kept in reduced row echelon form (``arith._rref``), so the coordinates
of a cusp series are its coefficients at the pivot q-powers.

Only prime level and even weight 4 <= k < 12 are supported (such spaces are
entirely new).
"""

from __future__ import annotations

from fractions import Fraction

from .arith import _kernel, _rref, dim_cusp_forms, hecke_coefficient
from .errors import DomainError, InvariantViolation

__all__ = ["CuspSpace"]


# ---------------------------------------------------------------------------
# exact truncated power series (lists of ints / Fractions, index = q-power)
# ---------------------------------------------------------------------------

def mul_series(a, b, L):
    out = [0] * L
    for i, ai in enumerate(a):
        if ai == 0 or i >= L:
            continue
        top = min(L - i, len(b))
        for j in range(top):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def sigma_list(r, L):
    out = [0] * L
    for d in range(1, L):
        dr = d ** r
        for n in range(d, L, d):
            out[n] += dr
    return out


def eisenstein(w, L):
    if w == 4:
        c, r = 240, 3
    elif w == 6:
        c, r = -504, 5
    else:
        raise DomainError("only weights 4 and 6")
    s = sigma_list(r, L)
    return [1] + [c * s[n] for n in range(1, L)]


def scale_level(series, N, L):
    out = [0] * L
    for n, an in enumerate(series):
        if n * N < L:
            out[n * N] = an
    return out


def e2_prime(N, L):
    """E2(z) - N E2(Nz), a holomorphic weight-2 form of level N."""
    s1 = sigma_list(1, L)
    out = [1 - N] + [0] * (L - 1)
    for n in range(1, L):
        v = -24 * s1[n]
        if n % N == 0:
            v += 24 * N * s1[n // N]
        out[n] = v
    return out


def euler_product(L):
    """Coefficients of prod (1 - q^n) by the pentagonal number theorem."""
    out = [0] * L
    k = 0
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 >= L and k > 0:
            break
        sign = -1 if k % 2 else 1
        if g1 < L:
            out[g1] += sign
        if k > 0:
            g2 = k * (3 * k + 1) // 2
            if g2 < L:
                out[g2] += sign
        k += 1
    return out


def eta_product_11(L):
    """q prod (1-q^n)^2 (1-q^(11n))^2, the weight-2 newform at level 11."""
    p = euler_product(L)
    p2 = mul_series(p, p, L)
    p11 = scale_level(p, 11, L)
    p11_2 = mul_series(p11, p11, L)
    base = mul_series(p2, p11_2, L - 1)
    return [0] + base[: L - 1]


# ---------------------------------------------------------------------------
# the cusp space
# ---------------------------------------------------------------------------

class CuspSpace:
    """Weight-k cusp forms of prime level N as exact q-expansions."""

    def __init__(self, N: int, k: int, length: int = 400):
        if k % 2 or not 4 <= k < 12:
            raise DomainError("supported weights are even, 4 <= k < 12")
        self.N, self.k, self.L = N, k, length
        self.dim = dim_cusp_forms(N, k)
        # generators: (series, weight, constant term of the Fricke image)
        gens = {
            "E4": (eisenstein(4, length), 4, Fraction(N ** 2)),
            "E4N": (scale_level(eisenstein(4, length), N, length), 4,
                    Fraction(1, N ** 2)),
            "E6": (eisenstein(6, length), 6, Fraction(N ** 3)),
            "E6N": (scale_level(eisenstein(6, length), N, length), 6,
                    Fraction(1, N ** 3)),
            "G2": (e2_prime(N, length), 2, Fraction(N - 1)),
        }
        if N == 11:
            gens["F2"] = (eta_product_11(length), 2, Fraction(0))
        candidates = self._monomials(gens, k)
        self._build_space(candidates)

    def _monomials(self, gens, k):
        names = sorted(gens)
        out = []

        def rec(idx, weight, series, wconst):
            if weight == k:
                out.append((series, wconst))
                return
            if idx == len(names) or weight > k:
                return
            name = names[idx]
            g_series, g_w, g_wc = gens[name]
            rec(idx + 1, weight, series, wconst)
            s, wc, w = series, wconst, weight
            while w + g_w <= k:
                s = mul_series(s, g_series, self.L)
                wc = wc * g_wc
                w += g_w
                rec(idx + 1, w, s, wc)

        one = [1] + [0] * (self.L - 1)
        rec(0, 0, one, Fraction(1))
        return out

    def _build_space(self, candidates):
        dim_m = self.dim + 2
        sturm = self.k * (self.N + 1) // 12 + 3
        ncols = min(sturm + dim_m + 4, self.L)

        # select an independent spanning subset of the modular space
        rows, picked = [], []
        for series, wconst in candidates:
            trial = rows + [[Fraction(c) for c in series[:ncols]]]
            if len(_rref(trial)[1]) > len(rows):
                rows = trial
                picked.append((series, wconst))
            if len(picked) == dim_m:
                break
        if len(picked) != dim_m:
            raise InvariantViolation(
                f"generators span only {len(picked)} of {dim_m} dimensions "
                f"at (N, k) = ({self.N}, {self.k})"
            )

        # cusp subspace: kill the constant term at both cusps
        sys_rows = [
            [Fraction(series[0]) for series, _ in picked],
            [wconst for _, wconst in picked],
        ]
        kernel = _kernel(sys_rows)
        if len(kernel) != self.dim:
            raise InvariantViolation(
                f"cusp cut gave dimension {len(kernel)}, expected {self.dim}"
            )
        basis = []
        for combo in kernel:
            vec = [Fraction(0)] * self.L
            for coef, (series, _) in zip(combo, picked):
                if coef:
                    for n, an in enumerate(series):
                        vec[n] += coef * an
            basis.append(vec)
        # reduced echelon form: coordinates are read off at the pivots
        self.basis, self.pivots = _rref(basis)
        if any(v[0] != 0 for v in self.basis):
            raise InvariantViolation(
                f"a cusp basis series of level {self.N} has a constant term")

    # -- linear algebra over the q-expansion model --------------------------

    def coordinates(self, series):
        """Coordinates of a cusp q-series in the echelon basis, and the rest."""
        work = list(series)
        coords = []
        for vec, piv in zip(self.basis, self.pivots):
            c = Fraction(series[piv])
            coords.append(c)
            if c:
                for n in range(min(len(work), self.L)):
                    work[n] -= c * vec[n]
        return coords, work

    def hecke_image(self, series, m, out_len):
        """T_m on a level-N weight-k q-series (gcd(m, N) = 1), or U_N."""
        return [0] + [hecke_coefficient(series.__getitem__, m, n, self.k, self.N)
                      for n in range(1, out_len)]

    def hecke_matrix(self, m):
        rows_needed = max(self.pivots) + 1
        if m * rows_needed > self.L:
            raise DomainError(f"series too short for T_{m}")
        cols = []
        for vec in self.basis:
            img = self.hecke_image(vec, m, rows_needed)
            coords, rem = self.coordinates(img)
            if any(rem[: rows_needed]):
                raise InvariantViolation(f"T_{m} image left the cusp space")
            cols.append(coords)
        # cols[j] = coordinates of T_m(basis_j)
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def trace_hecke(self, m):
        mat = self.hecke_matrix(m)
        tr = sum(mat[i][i] for i in range(self.dim))
        if tr.denominator != 1:
            raise InvariantViolation(f"non-integral Hecke trace {tr}")
        return int(tr)

