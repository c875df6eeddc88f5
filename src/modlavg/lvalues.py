"""Completed L-functions, central values and Petersson norms of newforms.

Conventions: for a weight-k level-N newform with arithmetic coefficients
c_n, the completed function is

    Lambda(s) = C^{s/2} (2 pi)^{-s} Gamma(s) sum c_n n^{-s}

in the arithmetic variable s (center k/2, conductor C); the analytic
normalization used by callers is s_an = s - (k-1)/2, so the central point
is s_an = 1/2.  Twists by a quadratic character of fundamental discriminant
D coprime to N have conductor N D^2.

Every value of a form in the upper half plane is a Horner sum truncated at
the fewest stored coefficients whose certified tail is within QEXP_TAIL_TOL
(_certified_count), refusing when the stored coefficients cannot reach it.
The Fricke sign, the modularity rule, the Mellin route and the Petersson
norm take the values from one evaluator, q_expansion_eval, except the
norm's N cusp images, whose squared moduli it sums in one pass over the
residue classes mod N.  The Fricke sign and the modularity rule are rows of
one automorphy residual |f(gamma z) - J f(z)|, each held to an error budget
propagated from the evaluation (_side_budget), with no fitted constant.

L(1/2, f) and L(1/2, f x chi_D) take one path, with the trivial character
and C = N in the first case.  Each is computed along two routes: a smoothed
approximate functional equation with incomplete-Gamma weights, and Mellin
quadrature of the q-expansion of f x chi_D over [1/sqrt(C), oo), the rest
carried there by the Fricke involution of level C.  The Fricke sign w of f
is measured numerically, never assumed, once per form by the caller; it
predicts the sign w (-1)^(k/2) chi_D(-N) that the smoothed sum measures
(Atkin-Li 1978), and the Mellin route uses that sign.  The two routes split
the same integral at the same point, so their gap witnesses the numerics;
the spread of the smoothed sum over split points witnesses the functional
equation.  Both must be within CENTRAL_WITNESS_TOL.

The Petersson norm takes the cusps at infinity and 0 exactly above heights
1 and 1/N, by Parseval, and meshes only the band between the unit arc and
height 1 and its N images, checking that mesh against itself with every
panel count doubled.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._record import Record, set_field
from .arith import (
    HECKE_REL_TOL,
    Eigenform,
    _as_int,
    _divisor_counts,
    is_fundamental_discriminant,
    kronecker,
)
from .errors import (
    AccuracyError,
    DomainError,
    InsufficientCoefficients,
    InvariantViolation,
)
from .numerics import QuadratureSpec, gamma_upper, half_line, integrate

__all__ = [
    "q_expansion_eval",
    "fricke_sign",
    "modularity_residual",
    "CompletedL",
    "central_value",
    "CentralValue",
    "petersson_norm",
]


# ---------------------------------------------------------------------------
# q-expansion evaluation with certified tails
# ---------------------------------------------------------------------------

# absolute tail every q-expansion value is certified to
QEXP_TAIL_TOL = 1e-17


def _tail_bound(k: int, y: float, start: int) -> float:
    """Upper bound for sum_{n >= start} n^{(k+1)/2} e^{-2 pi n y}.

    Uses |c_n| <= d(n) n^{(k-1)/2} <= n^{(k+1)/2} and a geometric majorant:
    the ratio of consecutive summands, (1 + 1/n)^{(k+1)/2} e^{-2 pi y},
    decreases in n, so its value at ``start`` bounds every later one and
    the majorant holds whenever that value is below 1.
    """
    a = (k + 1) / 2.0
    t = math.exp(-2.0 * math.pi * y)
    ratio = (1.0 + 1.0 / start) ** a * t
    if ratio >= 1.0:
        return math.inf
    first = start ** a * t ** start
    return first / (1.0 - ratio)


def _tail_count(k: int, y: float) -> int:
    """The fewest leading coefficients of a weight-k form whose certified
    tail at height y > 0 is within QEXP_TAIL_TOL."""
    if not y > 0:
        raise DomainError(f"need a height y > 0, not {y}")
    # the tail bound does not increase with its start and is finite from
    # some start on, so double up to a count that suffices, then bisect
    hi = 1
    while _tail_bound(k, y, hi + 1) > QEXP_TAIL_TOL:
        hi *= 2
    n = 0
    while n < hi:
        mid = (n + hi) // 2
        if _tail_bound(k, y, mid + 1) <= QEXP_TAIL_TOL:
            hi = mid
        else:
            n = mid + 1
    return n


def _certified_count(form: Eigenform, y: float) -> int:
    """_tail_count at height y; InsufficientCoefficients when the stored
    coefficients cannot reach it."""
    n = _tail_count(form.weight, y)
    if n > form.n_max:
        raise InsufficientCoefficients(
            f"{form.label}: tail at Im z = {y:.4f} exceeds {QEXP_TAIL_TOL:.0e} "
            f"with {form.n_max} coefficients"
        )
    return n


def q_expansion_eval(form: Eigenform, z):
    """Value of the form at finite z (Im z > 0), a point or an array of
    points, from its stored coefficients.

    Sums the first n coefficients, n the fewest whose certified tail at the
    lowest point is within QEXP_TAIL_TOL; raises InsufficientCoefficients
    when the stored coefficients cannot reach that bound.
    """
    zs = np.asarray(z, dtype=complex)
    if zs.size == 0 or not np.all(np.isfinite(zs) & (zs.imag > 0)):
        raise DomainError("need a finite z with Im z > 0")
    n = _certified_count(form, float(zs.imag.min()))
    # a point goes through the same array arithmetic as a batch, so both
    # give the same bits
    q = np.exp(2j * np.pi * np.atleast_1d(zs))
    # Horner in two buffers, with no array made per step: an in-place
    # product (acc *= q) of one-element arrays takes numpy's scalar complex
    # product, whose bits differ from the array product's
    acc, prod = np.zeros_like(q), np.empty_like(q)
    for c in reversed(form.coeffs[:n]):
        np.multiply(acc, q, out=prod)
        np.add(prod, c, out=acc)
    values = np.multiply(acc, q, out=prod)
    return complex(values[0]) if zs.ndim == 0 else values


# ---------------------------------------------------------------------------
# automorphy: the Fricke sign and the modularity rule
# ---------------------------------------------------------------------------

# x + i y of the rows: z = (x + i y)/sqrt(N) under W_N, and z = (-d + x +
# i y)/N under [[a, b], [N, d]], whose image a/N - 1/(N (x + i y)) also lies
# at height about 1/N
FRICKE_POINTS = (0.17 + 1.21j, -0.33 + 0.94j, 0.05 + 1.48j, 0.41 + 1.05j, -0.11 + 0.87j)
MODULARITY_POINTS = (-0.13 + 1.0j, -0.04 + 0.98j, 0.06 + 1.01j, 0.15 + 0.99j)


def _side_budget(form: Eigenform, w: np.ndarray) -> np.ndarray:
    """Error budget of q_expansion_eval at the points w, from sums over m <=
    n, the count the evaluator takes at the lowest point, of |c_m| |q|^m (S),
    2 pi m |c_m| |q|^m (V) and d(m) m^((k-1)/2) |q|^m (D):

        4 (n + 1) u S + u (3 |w| + 1) V + HECKE_REL_TOL D + QEXP_TAIL_TOL.

    Term m of the Horner sum meets m complex products, each within
    2 sqrt(2) u (Higham, Accuracy and Stability, Lemma 3.5), and m sums,
    each within u: (2 sqrt(2) + 1) n u S in all; the rest of 4 (n + 1) u S
    covers a factor J rounded once, its product with the sum and the final
    difference.  q = e^(2 pi i w) is within 2 pi u (3 |w| + 1) relative (w
    rounded once, 2 pi u |w|; its product with 2 pi, 4 pi u |w|; exp, cos
    and sin, 5 u), and a relative change eta of q moves the sum by eta V /
    (2 pi).  A table that Eigenform.validate accepts may leave the Hecke
    extension of its primes by HECKE_REL_TOL d(m) m^((k-1)/2) at each m,
    which moves the sum by HECKE_REL_TOL D.  The evaluator's certificate
    bounds its tail by QEXP_TAIL_TOL."""
    n = _certified_count(form, float(w.imag.min()))
    m = np.arange(1, n + 1)
    c = np.abs(np.asarray(form.coeffs[:n], dtype=float))
    u = 2.0 ** -53  # the unit roundoff
    deligne = _divisor_counts(n)[1:] * m ** ((form.weight - 1) / 2.0)
    terms = np.stack([4.0 * (n + 1) * u * c, 2.0 * np.pi * u * m * c, HECKE_REL_TOL * deligne])
    powers = np.exp(-2.0 * np.pi * np.multiply.outer(w.imag, m))
    horner, point, data = (np.sum(powers * t, axis=-1) for t in terms)
    return horner + (3.0 * np.abs(w) + 1.0) * point + data + QEXP_TAIL_TOL


def _automorphy_rows(form: Eigenform, z: np.ndarray, gz: np.ndarray, J) -> tuple:
    """|f(gz) - J f(z)| and its budget, _side_budget at gz plus |J| times
    _side_budget at z, at each point (J broadcast against z), in one
    evaluator call per side; gz and J are exact values rounded once."""
    residual = np.abs(q_expansion_eval(form, gz) - J * q_expansion_eval(form, z))
    return residual, _side_budget(form, gz) + np.abs(J) * _side_budget(form, z)


def _exact_images(z: np.ndarray, mats: list, k: int) -> tuple:
    """gamma z = a/c - det/(c (c z + d)) and J = (c z + d)^k / det^(k/2),
    k even, for each integer matrix gamma = (a, b, c, d), c != 0, at the
    float points of its row of z: computed in rationals, rounded once."""
    gz, J = np.empty(z.shape, complex), np.empty(z.shape, complex)
    for i, (a, b, c, d) in enumerate(mats):
        det = a * d - b * c
        for j, p in enumerate(z[i]):
            r, s = c * Fraction(p.real) + d, c * Fraction(p.imag)
            scale = c * (r * r + s * s)
            gz[i, j] = complex(Fraction(a, c) - det * r / scale, det * s / scale)
            jr, ji = Fraction(1), Fraction(0)
            for _ in range(k):
                jr, ji = jr * r - ji * s, jr * s + ji * r
            J[i, j] = complex(jr / det ** (k // 2), ji / det ** (k // 2))
    return gz, J


@lru_cache(maxsize=None)
def _fricke_rows(N: int, k: int) -> tuple:
    """The points FRICKE_POINTS / sqrt(N), their images under W_N = [[0,
    -1], [N, 0]] and the factors J of both signs, a row each, once per (N,
    k) for every form of that space."""
    z = np.array([FRICKE_POINTS]) / math.sqrt(N)
    gz, J = _exact_images(z, [(0, -1, N, 0)], k)
    arrays = (z[0], gz[0], np.array([[1.0], [-1.0]]) * J)
    for a in arrays:
        a.flags.writeable = False  # cached: every caller shares them
    return arrays


def fricke_sign(form: Eigenform) -> int:
    """Sign w in phi(-1/(N z)) = w N^{k/2} z^k phi(z), measured numerically:
    the rows of W_N = [[0, -1], [N, 0]] at FRICKE_POINTS / sqrt(N)
    (_fricke_rows) go through _automorphy_rows once, with J for both signs.
    The sign whose rows are all within budget while the other sign's are
    not is the measured one; anything else, or a stored sign it
    contradicts, is InvariantViolation."""
    residual, budget = _automorphy_rows(form, *_fricke_rows(form.level, form.weight))
    ratios = np.max(residual / budget, axis=1)
    passed = [w for w, ratio in zip((+1, -1), ratios) if ratio <= 1.0]
    if len(passed) != 1:
        raise InvariantViolation(f"{form.label}: Fricke rows within budget for "
                                 f"{len(passed)} signs (worst ratios {ratios} at +1, -1)")
    if form.atkin_lehner not in (None, passed[0]):
        raise InvariantViolation(f"{form.label}: measured Fricke sign {passed[0]} "
                                 f"contradicts stored {form.atkin_lehner}")
    return passed[0]


@lru_cache(maxsize=None)
def _gamma0_rows(N: int, k: int) -> tuple:
    """The matrices [[a, b], [N, d]], d = 1..N-1, a = d^-1 mod N, as (a, b,
    N, d); per matrix a row of points (-d + MODULARITY_POINTS)/N; and their
    images and factors (N z + d)^k."""
    mats = [(a, (a * d - 1) // N, N, d) for d in range(1, N) for a in [pow(d, -1, N)]]
    z = (np.arange(-1, -N, -1)[:, None] + np.array(MODULARITY_POINTS)) / N
    arrays = (z,) + _exact_images(z, mats, k)
    for a in arrays:
        a.flags.writeable = False  # cached: every caller shares them
    return (tuple(mats),) + arrays


def _modularity_ratios(form: Eigenform) -> tuple:
    """The matrices of _gamma0_rows and the worst residual-to-budget ratio
    of f(gamma z) = (N z + d)^k f(z) at each."""
    mats, z, gz, J = _gamma0_rows(form.level, form.weight)
    residual, budget = _automorphy_rows(form, z, gz, J)
    return mats, np.max(residual / budget, axis=1)


def modularity_residual(form: Eigenform) -> float:
    """The worst ratio of |f(gamma z) - (N z + d)^k f(z)| to its budget over
    gamma = [[a, b], [N, d]], d = 1..N-1, at (-d + MODULARITY_POINTS)/N, in
    one evaluator call per side; at most 1 for a form of level N.  The
    points lie at height about 1/N, so they see the first few N
    coefficients, past the Sturm bound k (N + 1)/12."""
    return float(np.max(_modularity_ratios(form)[1]))


def _rows_count(N: int, k: int) -> tuple:
    """The coefficients a form of level N and weight k needs for its Fricke
    and Gamma0(N) rows (_tail_count at their lowest point), and that height;
    the Gamma0(N) rows are the lower ones except at N = 2.  The heights
    follow from the points w = x + i y alone: y/sqrt(N) and y/(sqrt(N)
    |w|^2) for the Fricke rows and their images, y/N and y/(N |w|^2) for
    the Gamma0(N) rows and theirs, so no row is built."""
    def lowest(points):
        return min(min(w.imag, w.imag / (w.real ** 2 + w.imag ** 2)) for w in points)

    y = min(lowest(FRICKE_POINTS) / math.sqrt(N), lowest(MODULARITY_POINTS) / N)
    return _tail_count(k, y), y


# ---------------------------------------------------------------------------
# completed L-functions
# ---------------------------------------------------------------------------

# split points t of the smoothed sum.  With the right sign the completed
# value does not depend on t, and Lambda(k - s, t) = eps Lambda(s, 1/t) holds
# term by term, so the spread over these points also witnesses s -> k - s
SPLIT_POINTS = (0.75, 1.0, 1.3)
# relative error stated for every central value: its AFE-vs-Mellin gap and
# its split-point spread must each be within it
CENTRAL_WITNESS_TOL = 1e-13


def _twisted_coeffs(coeffs: list, D: int) -> list:
    """chi_D(n) c_n for n >= 1: the coefficients themselves at D = 1.  For
    fundamental D chi_D is a character mod |D|, so it takes one Kronecker
    symbol per residue."""
    if D == 1:
        return coeffs
    chi = [kronecker(D, r) for r in range(abs(D))]
    return [chi[n % abs(D)] * c for n, c in enumerate(coeffs, start=1)]


class CompletedL(Record):
    """Completed L-function of a form, optionally twisted by chi_D: twist is
    a fundamental discriminant D of either sign, prime to N, or None.  The
    functional-equation sign eps (arithmetic center) is measured at
    construction."""

    __slots__ = ("form", "twist", "eps", "series", "_chi_minus_level", "_sums", "_scale")
    _fields = ("form", "twist", "eps")

    def __init__(self, form: Eigenform, twist: int | None = None):
        set_field(self, "form", form)
        set_field(self, "twist", twist)
        if twist is None:
            D, label = 1, form.label  # the trivial character
        else:
            D = _as_int(twist, "twist")  # a float or a bool is refused
            label = f"{form.label} twisted by {D}"
            if not is_fundamental_discriminant(D):
                raise DomainError(f"twist {D} is not a fundamental discriminant")
            if math.gcd(form.level, D) != 1:
                raise DomainError(f"twist {D} is not prime to the level {form.level}")
        set_field(self, "_chi_minus_level", kronecker(D, -form.level))
        # f x chi_D, a newform of level N D^2 (Atkin-Li 1978)
        set_field(self, "series", Eigenform(level=form.level * D * D, weight=form.weight,
                                            label=label, coeffs=_twisted_coeffs(form.coeffs, D)))
        set_field(self, "_sums", {})  # (s, t) -> the two sums; eps does not enter
        eps, scale = self._determine_eps()
        set_field(self, "eps", eps)
        set_field(self, "_scale", scale)

    @property
    def conductor(self) -> int:
        return self.series.level

    def predicted_eps(self, w: int) -> int:
        """The sign w (-1)^(k/2) chi_D(-N) that the Fricke sign w of the form
        predicts: chi_D(-N) w is the Fricke sign of f x chi_D at level N D^2
        (Atkin-Li 1978), and chi is trivial when untwisted."""
        return w * (-1) ** (self.form.weight // 2) * self._chi_minus_level

    # -- smoothed approximate functional equation ---------------------------

    def _afe_sums(self, s: float, t_split: float) -> tuple:
        """The two incomplete-Gamma sums at arithmetic s, split point t,
        computed once for each pair.  A point of SPLIT_POINTS brings in the
        other two: the sums at all three, for both exponents s and k - s,
        take one gamma_upper call."""
        if (s, t_split) not in self._sums:
            splits = SPLIT_POINTS if t_split in SPLIT_POINTS else (t_split,)
            self._sums.update(zip(((s, t) for t in splits), self._sums_at(s, splits)))
        return self._sums[s, t_split]

    def _sums_at(self, s: float, splits: tuple) -> list:
        """The two sums at arithmetic s for each split point of splits."""
        k = self.form.weight
        q_root = math.sqrt(self.conductor)
        coeffs = self.series.coeffs
        x_cut = 50.0
        stops = [int(x_cut * q_root / (2.0 * math.pi * min(t, 1.0 / t))) + 2
                 for t in splits]
        if max(stops) > len(coeffs):
            raise InsufficientCoefficients(
                f"{self.series.label}: need {max(stops)} coefficients for the "
                f"functional-equation sums, have {len(coeffs)}"
            )
        n = [np.arange(1, n_stop + 1, dtype=float) for n_stop in stops]
        x1 = [2.0 * math.pi * nt * t / q_root for nt, t in zip(n, splits)]
        x2 = [2.0 * math.pi * nt / (t * q_root) for nt, t in zip(n, splits)]
        # the exponent s at the points of x1, k - s at those of x2
        a = np.repeat((s, k - s), sum(stops))
        g = np.split(gamma_upper(a, np.concatenate(x1 + x2)), np.cumsum(stops * 2)[:-1])
        g1, g2 = g[:len(splits)], g[len(splits):]
        sums = []
        for nt, n_stop, a, b in zip(n, stops, g1, g2):
            c = np.asarray(coeffs[:n_stop], dtype=float)
            sums.append((float(np.sum(c * (2.0 * math.pi * nt) ** (-s) * a)),
                         float(np.sum(c * (2.0 * math.pi * nt) ** (s - k) * b))))
        return sums

    def _split_value(self, s: float, t_split: float, eps: int) -> float:
        """Completed value at arithmetic s by the smoothed sum split at t,
        with sign eps."""
        cond = self.conductor
        sum1, sum2 = self._afe_sums(s, t_split)
        return cond ** (s / 2.0) * sum1 + eps * cond ** ((self.form.weight - s) / 2.0) * sum2

    def lambda_afe(self, s: float) -> float:
        """Completed value at arithmetic s via the smoothed sum split at 1."""
        return self._split_value(s, 1.0, self.eps)

    def _spread(self, s: float, eps: int) -> tuple:
        """Range and largest modulus of the completed value at arithmetic s
        over SPLIT_POINTS, with sign eps."""
        vals = [self._split_value(s, t, eps) for t in SPLIT_POINTS]
        return max(vals) - min(vals), max(abs(v) for v in vals)

    def _determine_eps(self) -> tuple:
        """The sign making the completed value split-point independent, and
        that value's size: the natural scale of the function, for residuals
        where the value itself vanishes, e.g. odd-sign centers."""
        # right of the center, where an odd sign does not force the value to 0
        s_test = self.form.weight / 2.0 + 0.35
        spread = {eps: self._spread(s_test, eps) for eps in (+1, -1)}
        best = +1 if spread[+1][0] < spread[-1][0] else -1
        width, scale = spread[best]
        if spread[-best][0] < 1e3 * (width + 1e-16 * scale):
            raise InvariantViolation(
                f"{self.series.label}: functional-equation sign ambiguous "
                f"(spreads {spread[+1][0]:.2e} at +1, {spread[-1][0]:.2e} at -1)"
            )
        return best, scale + 1e-300

    def fe_residual(self, s: float) -> float:
        """Split-point variation of the completed value at arithmetic s,
        relative to the larger of the local and natural scales; small iff
        the functional equation holds with the measured sign."""
        spread, size = self._spread(s, self.eps)
        return spread / max(size, self._scale)

    # -- direct Mellin quadrature -------------------------------------------

    def lambda_mellin(self, s: float, w: int) -> float:
        """Completed value by quadrature of the q-expansion of f x chi_D over
        [1/sqrt(C), oo); the Fricke involution of level C = N D^2 carries the
        rest there, with the sign that the form's Fricke sign ``w`` predicts."""
        series, cond, k = self.series, self.conductor, self.form.weight
        spec = QuadratureSpec(domain=half_line(1.0 / math.sqrt(cond)),
                              rel_tol=1e-12, abs_tol=1e-14)

        def j_integral(sv):
            # one evaluator call per integral: the lowest node, 1/sqrt(C),
            # sets the coefficient count for every node
            def f(y):
                return (q_expansion_eval(series, 1j * y) * y ** (sv - 1.0)).real
            res = integrate(f, spec)
            if not res.converged:
                raise AccuracyError(f"{series.label}: Mellin quadrature error {res.error:.2e}")
            return res.real

        # at the center k - s = s, and the two integrals are one
        low = j_integral(s)
        high = low if k - s == s else j_integral(k - s)
        return cond ** (s / 2.0) * low + self.predicted_eps(w) * cond ** ((k - s) / 2.0) * high


class CentralValue(Record):
    """value is the AFE value, or 0 when eps = -1; spread is the split-point
    spread at the center."""

    __slots__ = ("value", "eps", "afe", "mellin", "spread")

    def __init__(self, value: float, eps: int, afe: float, mellin: float, spread: float):
        set_field(self, "value", value)
        set_field(self, "eps", eps)
        set_field(self, "afe", afe)
        set_field(self, "mellin", mellin)
        set_field(self, "spread", spread)


def central_value(form: Eigenform, w: int, twist: int | None = None) -> CentralValue:
    """Central value of L(s, f), or of L(s, f x chi_D), in the analytic
    normalization (s_an = 1/2); ``w`` is the form's measured Fricke sign.

    The sign the smoothed sum measures must be the one w predicts
    (InvariantViolation).  The smoothed sum at t = 1 and the Mellin route
    must agree, and the split-point spread must be small, each within
    CENTRAL_WITNESS_TOL relative (AccuracyError).  Both routes split one
    integral at the same point, so their gap witnesses the numerics and
    cannot see the functional equation or its sign; the spread witnesses
    those.  A sign eps = -1 forces the value 0.
    """
    comp = CompletedL(form, twist=twist)
    name, k = comp.series.label, form.weight
    predicted = comp.predicted_eps(w)
    if comp.eps != predicted:
        raise InvariantViolation(
            f"{name}: measured functional-equation sign {comp.eps:+d}, but the "
            f"Fricke sign {w:+d} predicts {predicted:+d}")
    s_c = k / 2.0
    gamma_factor = (comp.conductor ** (s_c / 2.0)
                    * (2.0 * math.pi) ** (-s_c) * math.gamma(s_c))
    afe = comp.lambda_afe(s_c) / gamma_factor
    mellin = comp.lambda_mellin(s_c, w) / gamma_factor
    scale = max(abs(afe), abs(mellin), 1e-12)
    if not abs(afe - mellin) / scale <= CENTRAL_WITNESS_TOL:
        raise AccuracyError(
            f"{name}: central-value paths disagree "
            f"(afe {afe:.12e}, mellin {mellin:.12e})"
        )
    spread = comp.fe_residual(s_c)
    if not spread <= CENTRAL_WITNESS_TOL:
        raise AccuracyError(f"{name}: split-point spread {spread:.2e} "
                            f"exceeds {CENTRAL_WITNESS_TOL:.0e}")
    return CentralValue(value=0.0 if comp.eps == -1 else afe, eps=comp.eps,
                        afe=afe, mellin=mellin, spread=spread)


# ---------------------------------------------------------------------------
# Petersson norm
# ---------------------------------------------------------------------------

def _gl_panels(a: float, b: float, panels: int, rule: tuple):
    """Composite Gauss-Legendre mesh on [a, b] from ``rule``, the (nodes,
    weights) of one Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = rule
    edges = np.linspace(a, b, panels + 1)[:, None]
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    return (mid + half * nodes).ravel(), (half * weights).ravel()


# the 12-point Gauss-Legendre rule on [-1, 1], nodes ascending: the values
# numpy.polynomial.legendre.leggauss(12) returns, bit for bit, written out
# so that no call builds it (the nodes are odd in x, the weights even)
_GL12_NODES = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                        0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL12_WEIGHTS = np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                          0.16007832854334642, 0.10693932599531907, 0.04717533638651141])
NORM_RULE = (np.concatenate((-_GL12_NODES[::-1], _GL12_NODES)),
             np.concatenate((_GL12_WEIGHTS[::-1], _GL12_WEIGHTS)))

# Gauss-Legendre mesh of the band below height 1: panels across the strip,
# panels up the band, and nodes per panel
NORM_X_PANELS = 6
NORM_Y_PANELS = 2
NORM_ORDER = len(NORM_RULE[0])
# largest relative change of the norm allowed when every panel count doubles
NORM_TOL = 1e-13


def _cusp_strip(form: Eigenform, Y: float) -> float:
    """Integral of y^(k-2) |phi|^2 over one period above height Y, by
    Parseval: sum |c_n|^2 Gamma(k-1, 4 pi n Y) / (4 pi n)^(k-1).  Past the
    stored coefficients |c_n|^2 <= n^(k+1) and Gamma(a, x) <= x^(a-1) e^-x
    / (1 - (a-1)/x) bound the sum by Y^(k-2) / (4 pi (1 - (k-2)/x)) times
    _tail_bound; that must fall below the last bit of the stored sum."""
    k, m = form.weight, form.n_max + 1
    n = np.arange(1, m, dtype=float)
    c = np.asarray(form.coeffs, dtype=float)
    total = float(np.sum(c * c * gamma_upper(k - 1, 4.0 * math.pi * n * Y)
                         / (4.0 * math.pi * n) ** (k - 1)))
    x = 4.0 * math.pi * m * Y
    tail = (Y ** (k - 2) / (4.0 * math.pi * (1.0 - (k - 2) / x))
            * _tail_bound(2 * k - 1, 2.0 * Y, m)) if x > k - 2 else math.inf
    if not tail <= 2.0 ** -53 * total:
        raise InsufficientCoefficients(f"{form.label}: cusp strip above height "
                                       f"{Y:.4f} has a tail of {tail:.2e}")
    return total


def _cusp_images(form: Eigenform, z: np.ndarray) -> np.ndarray:
    """sum_(j mod N) |phi((z + j)/N)|^2 at each point of the array z, in one
    pass over the coefficients: with n = m N + r, orthogonality of the
    characters mod N gives

        N sum_(r = 1..N) e^(-4 pi r y/N) |sum_(m >= 0) c_(m N + r) q^m|^2,

    q = e^(2 pi i z), one short Horner sum per residue class.  The images
    take the coefficients q_expansion_eval would take at their lowest point,
    so they are certified, and refused, exactly as it would."""
    N = form.level
    ys = z.imag
    n = _certified_count(form, float(ys.min()) / N)
    q = np.exp(2j * np.pi * z)
    total = np.zeros(z.shape)
    # one class at a time on mesh-sized arrays, in place in one buffer: an
    # (N, mesh) batch costs memory and is no faster
    acc = np.empty_like(q)
    for r in range(1, N + 1):
        acc.fill(0.0)
        for c in reversed(form.coeffs[r - 1:n:N]):
            acc *= q
            acc += c
        total += np.exp(-4.0 * np.pi * r / N * ys) * np.abs(acc) ** 2
    return N * total


def petersson_norm(form: Eigenform) -> float:
    """Petersson norm: the integral of y^(k-2) |phi|^2 dx dy over a
    fundamental domain of the level group, the standard triangle F and the
    N pieces -1/(F + j) at the cusp 0, which the Fricke involution (keeping
    y^k |phi|^2) carries to (F + j)/N.  F above height 1 and the (F + j)/N
    above height 1/N each fill one period strip, given exactly by Parseval.
    The band |x| <= 1/2, sqrt(1 - x^2) <= y <= 1 and its N images are
    meshed (NORM_X_PANELS x NORM_Y_PANELS panels of the NORM_ORDER = 12
    nodes of NORM_RULE, the pinned 12-point Gauss-Legendre rule): one
    evaluator call for the band and one pass over the residue classes mod N
    of the coefficients for all its images (_cusp_images); the same mesh
    with every panel count doubled gives the value, and a change beyond
    NORM_TOL of the norm raises AccuracyError.
    """
    N, k = form.level, form.weight
    bands = []
    for m in (1, 2):
        xs, wxs = _gl_panels(-0.5, 0.5, m * NORM_X_PANELS, NORM_RULE)
        ts, wts = _gl_panels(0.0, 1.0, m * NORM_Y_PANELS, NORM_RULE)
        y_low = np.sqrt(1.0 - xs * xs)[:, None]
        ys = y_low + (1.0 - y_low) * ts
        z = xs[:, None] + 1j * ys
        vals = np.abs(q_expansion_eval(form, z)) ** 2 + _cusp_images(form, z) / N ** k
        weights = wxs[:, None] * (1.0 - y_low) * wts * ys ** (k - 2.0)
        bands.append(float(np.sum(weights * vals)))
    coarse, fine = bands
    norm = _cusp_strip(form, 1.0) + _cusp_strip(form, 1.0 / N) + fine
    if not abs(fine - coarse) <= NORM_TOL * norm:
        raise AccuracyError(
            f"{form.label}: Petersson norm moves by {abs(fine - coarse) / norm:.2e} "
            f"relative when the mesh doubles, above {NORM_TOL:.0e}")
    return norm
