"""Newforms of prime level from the Eichler-Selberg trace formula.

At prime level N and even weight 4 <= k < 12 the cusp space is entirely
new, and the trace form t = sum_n Tr(T_n) q^n is the sum of its normalized
newforms.  The Hecke translates T_m t (m prime to N) therefore span the
space, and their coefficients at n prime to N are integers given by the
trace formula alone,

    (T_m t)_n = Tr(T_m T_n) = sum_{d | (m, n)} d^(k-1) Tr T_(mn/d^2),

``hecke_coefficient`` on the traces.  ``_krylov_traces`` gives T_ell's
(ell = 2, or 3 at N = 2) characteristic polynomial chi and the Krylov
vectors v_j = T_ell^j t exactly, from residues modulo primes lifted within
Deligne's bound (ch. 7 below).  Every root lam has the one eigenvector
sum_j b_j(lam) v_j, chi(x) = (x - lam) sum_j b_j(lam) x^j, so c_n =
A_n(lam)/A_1(lam) for integer polynomials A_n (Stein, Modular Forms: A
Computational Approach, 2007, ch. 7, on newforms from characteristic
polynomials); ``hecke_extend`` fills in the c_n at composite n.  Sturm
sequences isolate the roots in dyadic intervals, each is halved until the
exact bounds of A_p/A_1 on it round to one float, and that float is c_p,
correctly rounded.  An integer root falls on a dyadic point, where c_p is
exact and must be an integer.  The c_p of the forms must sum to Tr T_p up
to those floats.  The Atkin-Lehner sign w is the one of the two candidates
c_N = -w N^(k/2-1) that ``fricke_sign`` accepts, and every form must pass
``modularity_residual`` (the Gamma0(N) rows), so the stored coefficients
must reach height about 1/N.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .arith import (
    Eigenform,
    _as_int,
    _crt_primes,
    _divisors,
    _lift,
    _primes_up_to,
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
    labelled N.k.a, N.k.b, ... by descending T_ell eigenvalue.  Each c_p is
    the float nearest its exact value, and an exact integer for a rational
    form.  A non-int trace, ``_krylov_traces``' refusals, a characteristic
    polynomial without dim distinct real roots, a non-integral c_p at an
    integer root, a form whose modularity residual exceeds its budget and
    forms whose c_p do not sum to Tr T_p are refused (InvariantViolation);
    an n_max that is not an int (DomainError) or below what the Fricke and
    modularity rows need (InsufficientCoefficients) before any trace."""
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

    def trace(m):  # exact ints alone: the eliminations take residues
        if type(value := eichler_selberg_trace(N, k, m)) is not int:
            raise InvariantViolation(f"Tr T_{m} = {value!r} at N = {N} is not an exact int")
        return value
    ell = 3 if N == 2 else 2
    ns = [1] + [p for p in _primes_up_to(n_max) if p != N]
    chi, K = _krylov_traces(trace, N, k, ell, dim, ns)

    # x = B y with B a power of 2 above the Deligne bound 2 ell^((k-1)/2)
    # puts every root of P(y) = chi(B y) in (-1, 1), integers on dyadic points
    bound = 1 << math.isqrt(4 * ell ** (k - 1)).bit_length()
    P = [a * bound ** j for j, a in enumerate(chi)]
    roots = _isolate(P, bound.bit_length() - 1)
    if len(roots) != dim:
        raise InvariantViolation(f"Sturm's theorem counts {len(roots)} real roots of "
                                 f"T_{ell}'s characteristic polynomial, not {dim}, at N = {N}")
    # the eigenvector sum_j b_j(x) v_j, chi(X) = (X - x) sum_j b_j(x) X^j, has
    # coefficient n A_n(x) = sum_e a_e x^e, a_e = sum_j K_(j,n) chi_(j+e+1);
    # polys holds A_n(B y)
    polys = {n: [bound ** e * sum(w[j] * chi[j + e + 1] for j in range(dim - e))
                 for e in range(dim)]
             for n, w in zip(ns, zip(*K))}
    norms = {n: (sum(map(abs, a)), sum(e * abs(x) for e, x in enumerate(a)))
             for n, a in polys.items()}

    out, found = [], []
    for rank, root in enumerate(roots):
        label = f"{N}.{k}.{_tag(rank)}"
        primes = _rounded(P, polys, norms, root, label)
        if not root[2]:  # an integer root, where the coefficients are exact
            for p, c in primes.items():
                if c.denominator != 1:
                    raise InvariantViolation(f"{label}: non-integral c_{p} = {c}")
                primes[p] = int(c)
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
    for p in sorted(polys.keys() - {1}):
        total = sum(Fraction(primes[p]) for primes in found)
        if abs(total - trace(p)) > dim * 2.0 ** -51 * p ** ((k - 1) / 2):
            raise InvariantViolation(f"N = {N}: the c_{p} of the {dim} forms sum to "
                                     f"{float(total)!r}, not Tr T_{p} = {trace(p)}")
    return out


def _krylov_traces(trace, N: int, k: int, ell: int, dim: int, ns: list) -> tuple:
    """chi (chi[j] multiplies x^j) and K[j][i] = Tr(T_ell^j T_n) = (T_ell^j t)_n,
    j <= dim, n = ns[i].  Modulo each prime q of ``_crt_primes``, Gauss-Jordan
    elimination takes the rows [T_m t | T_m t | T_ell T_m t] at (cols, ns,
    cols), m in cols, until dim are independent on cols: they span.  A reduced
    row is [u | u | T_ell u], 1 at u's pivot and 0 at the others', so a
    form's values there are its coordinates.  With B = 2 ell^((k-1)/2),
    K_(j,n)^2 <= (d sigma_0(n))^2 B^(2j) n^(k-1) by Deligne; all primes but
    the first pin K, so one wrong residue lifts outside the bound.  Newton's
    identities on the power sums K_(j,1) give chi."""
    translate = partial(hecke_coefficient, trace, k=k, N=N)  # (T_m t)_n
    cols = list(itertools.islice((n for n in itertools.count(1) if n % N), 4 * dim + 20))
    L = len(cols)
    row = lru_cache(maxsize=None)(lambda m: np.array([translate(m, n) for n in cols + ns] + [
        hecke_coefficient(partial(translate, m), ell, n, k, N) for n in cols], dtype=object))
    limit = np.array([[math.isqrt((dim * len(_divisors(n))) ** 2 * (4 * ell ** (k - 1)) ** j
                       * n ** (k - 1)) for n in ns] for j in range(dim + 1)], dtype=object)
    moduli = next(_crt_primes(c) for c in itertools.count(2)
                  if math.prod(_crt_primes(c)[1:]) > 2 * limit.max())
    basis, residues = cols, []
    for q in moduli:
        kept, pivots, E = [], [], np.zeros((0, 2 * L + len(ns)), dtype=np.int64)
        for m in basis:
            if len(kept) == dim:
                break
            r = (row(m) % q).astype(np.int64)
            r = (r - _mul(r[pivots][None], E, q)[0]) % q
            if r[:L].any():
                p = int(np.flatnonzero(r[:L])[0])
                r = r * pow(int(r[p]), -1, q) % q
                E = np.vstack([(E - np.outer(E[:, p], r)) % q, r])
                kept, pivots = kept + [m], pivots + [p]
        if len(kept) < dim:
            raise InvariantViolation(f"trace-form translates span {len(kept)} of {dim} "
                                     f"dimensions modulo {q} at N = {N}")
        basis = kept
        M = E[:, -L:][:, pivots]  # M[i, i'] = coordinate i' of T_ell u_i
        if np.any(_mul(M, E[:, :L], q) != E[:, -L:]):
            raise InvariantViolation(f"T_{ell} leaves the span of the translates modulo {q}")
        krylov = [(row(1)[pivots] % q).astype(np.int64)]  # t's coordinates
        while len(krylov) <= dim:
            krylov.append(_mul(krylov[-1][None], M, q)[0])
        residues.append(_mul(np.array(krylov), E[:, L:-L], q).astype(np.uint64))
    K = _lift(residues, moduli)
    for j, i in np.argwhere(abs(K) > limit):
        raise InvariantViolation(f"N = {N}: Tr(T_{ell}^{j} T_{ns[i]}) lifts to {K[j, i]}, "
                                 f"outside +-{limit[j, i]}")
    chi = [1]  # chi[j] multiplies x^(dim-j) here: j chi[j] = -sum_i chi[j-i] K_(i,1)
    for j in range(1, dim + 1):
        chi.append(-sum(chi[j - i] * K[i, 0] for i in range(1, j + 1)) // j)
    return chi[::-1], K.tolist()


def _mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a b modulo a prime q < 2^31: int64 products, each below 2^62, reduced first."""
    return (a[:, :, None] * b[None] % q).sum(axis=1) % q


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _value(poly: list, c: int, t: int) -> int:
    """2^(t deg) poly(c / 2^t), deg = len(poly) - 1, by Horner's rule in
    integers; poly[e] multiplies y^e."""
    acc = 0
    for i, a in enumerate(reversed(poly)):
        acc = acc * c + a * (1 << t * i)
    return acc


def _sturm(P: list) -> list:
    """The Sturm sequence P, P', -rem(P, P'), ... of an integer polynomial,
    each remainder scaled by a positive factor to coprime integers."""
    seq = [P, [e * a for e, a in enumerate(P)][1:]]
    while len(seq[-1]) > 1:
        f, g = seq[-2], seq[-1]
        while len(f) >= len(g):  # |lead g| f - q x^shift g, leading term cancelled
            q, shift = f[-1] * _sign(g[-1]), len(f) - len(g)
            f = [abs(g[-1]) * a - (q * g[i - shift] if i >= shift else 0)
                 for i, a in enumerate(f)]
            while f and not f[-1]:
                f.pop()
        if not f:
            break
        div = math.gcd(*f)
        seq.append([-a // div for a in f])
    return seq


def _isolate(P: list, s0: int) -> list:
    """One interval per real root of P in (-1, 1], in descending order.
    Sturm's theorem counts the roots in each dyadic (a, a+1]/2^s, which is
    halved until it holds one root and s >= s0, so that a root on the grid
    2^-s0 (an integer x = 2^s0 y) is its upper end.  The root is then
    (c, t, 0) when it is the upper end c/2^t, else (c, t, sigma): it lies
    in (c-1, c+1]/2^t, and P has the sign sigma at the upper end."""
    sturm = _sturm(P)

    def variations(a, s):
        signs = [v for v in (_sign(_value(q, a, s)) for q in sturm) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    out, pending = [], [(-1, 0), (0, 0)]
    while pending:  # depth first, upper half first: the roots come out descending
        a, s = pending.pop()
        count = variations(a, s) - variations(a + 1, s)
        if count > 1 or (count and s < s0):
            pending += [(2 * a, s + 1), (2 * a + 1, s + 1)]
        elif count:
            sigma = _sign(_value(P, a + 1, s))
            out.append((2 * a + 1, s + 1, sigma) if sigma else (a + 1, s, 0))
    return out


def _rounded(P: list, polys: dict, norms: dict, root: tuple, label: str) -> dict:
    """c_n = A_n(y)/A_1(y) for every n of polys but 1, at the root y of P in
    root's interval (see _isolate): a Fraction at a dyadic root, else the
    float nearest c_n.  norms[n] holds sum_e |a_e| and sum_e e |a_e| of
    polys[n].  The interval is halved until _quotient decides, and refused
    (InvariantViolation) once it is narrower than _halving_cap proves
    enough.  A_1's value is taken once per interval, for every n."""
    c, t, sigma = root
    d = len(polys[1])
    w = _value(polys[1], c, t)
    out = {}
    for n in polys.keys() - {1}:
        cap = 0
        # P never vanishes at the midpoint: a dyadic point is no irrational root
        while (value := _quotient(v := _value(polys[n], c, t), w, t, sigma, d,
                                  norms[n], norms[1])) is None:
            if t >= cap and t >= (cap := _halving_cap(v, w, t, d, norms[n], norms[1])):
                raise InvariantViolation(f"{label}: c_{n} undecided on the root's "
                                         f"interval of width 2^-{t}, past the proved "
                                         f"bound 2^-{cap}")
            c, t = 2 * c + (1 if _sign(_value(P, c, t)) != sigma else -1), t + 1
            w = _value(polys[1], c, t)
        out[n] = value
    return out


def _halving_cap(v: int, w: int, t: int, d: int, norm_n: tuple, norm_1: tuple) -> int:
    """A width 2^-cap of the root's interval (c, t) at which _quotient must
    have decided num(y)/den(y), in the notation of _quotient: v and w are
    the values of num and den at (c, t), norm_n = (H_n, L_n) and norm_1 =
    (H_1, L_1).  With H and L = sum_e e |a_e| of each polynomial, |A(y)| <=
    H, and a nonzero |A(y)| is at least H^(1-d), the norm bound of
    _quotient's zero proof.  So from 2^t > 2 L_n H_n^(d-1) on a zero num(y)
    is proved, and 53 bits later r 2^52 < |v| and q 2^52 < |w|: the first
    cap.  Past it, |c_n| lies in (2^(E-2), 2^(E+2)), E the bit length of v
    less that of w, so the rounding boundaries on either side of c_n are
    midpoints m = M/2^j, j = max(56 - E, 0), |M| < 2^(j+E+3).  G = 2^j num
    - M den has integer coefficients summing to at most S = 2^j H_n +
    2^(j+E+3) H_1, so |c_n - m| = |G(y)|/(2^j |den(y)|) >= S^(1-d)/(2^j
    |den(y)|), while the corners lie within 2^(1-t) (L_n + |c_n| L_1)/(|den(y)|
    - 2^(1-t) L_1) of c_n.  They round to one float once 2^t > 2^(j+2) (L_n
    + 2^(E+2) L_1) S^(d-1): the second cap."""
    (h_n, l_n), (h_1, l_1) = norm_n, norm_1
    cap = 53 + max((2 * l * h ** (d - 1)).bit_length() for h, l in (norm_n, norm_1))
    v, w = abs(v), abs(w)
    if t < cap or not v or not w:
        return cap
    E = v.bit_length() - w.bit_length()
    j = max(56 - E, 0)
    S = (h_n << j) + (h_1 << j + E + 3)
    return max(cap, j + 2 + (l_n + (l_1 << max(E + 2, 0))).bit_length()
               + (d - 1) * S.bit_length())


def _quotient(v: int, w: int, t: int, sigma: int, d: int, norm_n: tuple, norm_1: tuple):
    """num(y)/den(y) at the root y in the interval (c, t, sigma) of
    _isolate, from v = _value(num, c, t), w = _value(den, c, t), the degree
    bound d = len(num) and the norms (sum_e |a_e|, sum_e e |a_e|) of num and
    den: exact at a dyadic root, else the float nearest it, or None while
    the interval is too wide to tell.  For a polynomial A of degree below d,
    2^(t d) A(y) lies within r = 2^(t d) 2^-t sum_e e |a_e| of 2^t times its
    value, since |y| < 1.  With w +- q of one sign the quotient lies between
    the four corners (v +- r)/(w +- q), so when they round to one float, so
    does the quotient."""
    if not sigma:
        return Fraction(v, w)
    v, w = v << t, w << t
    r, q = (norm[1] << t * (d - 1) for norm in (norm_n, norm_1))
    if r << 52 < abs(v) and q << 52 < abs(w):  # every corner near v/w: no overflow
        corners = {(v + i) / (w + j) for i in (-r, r) for j in (-q, q)}
        return corners.pop() if len(corners) == 1 else None
    # num(y) = A_n(x) is an algebraic integer; unless 0, its norm, a product
    # over conjugate roots, is at least 1, and each of at most d - 1 other
    # factors is at most sum_e |a_e|
    if (abs(v) + r) * norm_n[0] ** (d - 1) < 1 << t * d:
        return 0.0
    return None


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

