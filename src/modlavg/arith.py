"""Quadratic characters, Dirichlet L-values, trace formula, eigenforms.

No quadrature enters: L(0, chi_D) and L(1, chi_D) come from the exact
weighted class number by the class number formula (``dirichlet_l``), with
the character sum ``l_zero_finite_sum`` as their independent oracle.
The eigenform data shipped with the package is the primary source of Hecke
eigenvalues; the Eichler-Selberg trace formula implemented here serves as an
independent cross-check and as the dimension/trace oracle for small spaces.
It is written with Hurwitz class numbers H(n), the count of all reduced
forms of discriminant -n with x^2 + y^2 and x^2 + xy + y^2 (and multiples)
weighted 1/2 and 1/3, and H(0) = -1/12; one sieve over reduced forms gives
the table of 12 H(n) up to a bound, and ``_root_counts`` the table of root
counts 1 + (-n | N) for one level and bound (proving N prime once).
``_trace_table`` sums the formula for every m <= X/4 at once, one table
per (N, k, X), X a power of 2 from 2^11, each a prefix of the next: numpy
integer arrays, a loop over t alone, the sums taken modulo 2^64 and,
where the bound (2T + 1)(k - 1) m^((k-2)/2) max|g| on them reaches 2^63,
modulo primes below 2^31 as well, and lifted back to integers by the
Chinese remainder theorem (the multimodular method of Stein, Modular
Forms: A Computational Approach, 2007, ch. 7); a lift outside the bound
is refused.  The divisor term of the formula does not depend on N: one
read-only table per (k, X) serves every level, and the primes below 2^31
come from one trial-division sieve per process.  A trace at m <= 512 is
one read of the first table.  Each Hecke rule has one home:
``hecke_extend`` (recursion and multiplicativity; ``Eigenform.validate``
checks stored tables against it), ``hecke_coefficient`` (T_m and U_N on
coefficients) and ``admissible_levels``.  The newform generator reuses
the primes and the lift for its linear algebra; trial-division
factorization and one smallest-prime-factor sieve serve the Hecke
extension and the local and regular-tail modules.
"""

from __future__ import annotations

import io
import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, InsufficientCoefficients, InvariantViolation

__all__ = [
    "kronecker",
    "is_fundamental_discriminant",
    "dirichlet_l",
    "l_zero_finite_sum",
    "class_number_weighted",
    "eichler_selberg_trace",
    "dim_cusp_forms",
    "Eigenform",
    "load_eigenforms",
    "dump_eigenforms",
    "hecke_extend",
    "hecke_coefficient",
    "admissible_levels",
]


# ---------------------------------------------------------------------------
# Kronecker symbol and quadratic characters
# ---------------------------------------------------------------------------

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out twos from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol by quadratic reciprocity (flip before reducing)
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def is_fundamental_discriminant(D: int) -> bool:
    if D == 1 or D == 0:
        return False
    if D % 4 == 1:
        return _squarefree(abs(D))
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(abs(m))
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in _factorize(n).values())


def _factorize(n: int) -> dict:
    """Prime factorization {p: e} of n >= 1 by trial division, primes in
    increasing order; {} for n = 1."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Dirichlet L-values at s = 0 and s = 1
# ---------------------------------------------------------------------------

def _check_negative_fundamental(D: int) -> int:
    """D as an int when it is a negative fundamental discriminant; a float
    or a bool (_as_int) or any other D is DomainError."""
    D = _as_int(D, "discriminant D")
    if not (D < 0 and is_fundamental_discriminant(D)):
        raise DomainError(f"D = {D} is not a negative fundamental discriminant")
    return D


def dirichlet_l(D: int, s: float) -> float:
    """L(s, chi_D) for s in {0, 1} (fundamental D < 0), by the class number
    formula: L(0, chi_D) = h_w(D) and L(1, chi_D) = pi h_w(D) / sqrt|D|,
    with h_w = h(D) / u_D the exact ``class_number_weighted`` (u_D = 3 at
    D = -3, 2 at D = -4, else 1; Davenport, Multiplicative Number Theory,
    ch. 6).  s = 0 is float(h_w), correctly rounded.  s = 1 rounds at most
    five times (h_w, pi, the square root, the product, the quotient), so it
    is within 2.5 u of the true value (u = 2^-53), and at D = -4 it is pi/4
    bit for bit.  ``l_zero_finite_sum``, the character sum, is the
    independent oracle of both.
    """
    D = _check_negative_fundamental(D)
    if s not in (0, 1):
        raise DomainError("only s = 0 and s = 1 are supported")
    h = float(class_number_weighted(D))
    return h if s == 0 else math.pi * h / math.sqrt(-D)


def l_zero_finite_sum(D: int) -> float:
    """L(0, chi_D) = -(1/|D|) sum_{a=1}^{|D|} chi_D(a) a, exact rational;
    D must be a negative fundamental discriminant."""
    D = _check_negative_fundamental(D)
    mod = abs(D)
    total = sum(kronecker(D, a) * a for a in range(1, mod + 1))
    return -total / mod


# ---------------------------------------------------------------------------
# class numbers and the trace formula
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def class_number_weighted(disc: int) -> Fraction:
    """Weighted class number h_w of a discriminant disc < 0 (0 or 1 mod 4):
    reduced primitive forms counted one discriminant at a time, discs -3
    and -4 weighted 1/3 and 1/2: the L-values of ``dirichlet_l`` and the
    tests' oracle for the Hurwitz sieve."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise DomainError(f"invalid discriminant {disc}")
    n = -disc
    count = 0
    b = n & 1
    while b * b <= n // 3:
        m = (b * b + n) // 4
        a = max(b, 1)
        while a * a <= m:
            if a and m % a == 0:
                c = m // a
                if math.gcd(math.gcd(a, b), c) == 1:  # primitive forms only
                    if b == 0 or a == b or a == c:
                        count += 1
                    else:
                        count += 2
            a += 1
        b += 2
    if disc == -3:
        return Fraction(1, 3)
    if disc == -4:
        return Fraction(1, 2)
    return Fraction(count)


def _as_int(x, what: str) -> int:
    """x as an int; a bool, or anything operator.index refuses (a float, a
    string), is DomainError naming ``what``.  An exact int (the common
    case) returns at once."""
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DomainError(f"{what} = {x!r} is not an integer")


def _check_prime(N: int) -> int:
    N = _as_int(N, "N")
    if N < 2 or any(N % d == 0 for d in range(2, int(math.isqrt(N)) + 1)):
        raise DomainError(f"N = {N} is not prime")
    return N


def _check_weight(k: int) -> int:
    if type(k) is not int:
        k = _as_int(k, "weight k")
    if k % 2 != 0 or k < 4:
        raise DomainError(f"weight k = {k} must be an even integer >= 4")
    return k


@lru_cache(maxsize=None)
def _hurwitz12(X: int) -> np.ndarray:
    """12 H(n) for 0 <= n <= X, H the Hurwitz class number; 12 H(0) = -1,
    as one read-only int64 array (the cache hands it to every caller).

    One sieve over the reduced forms (a, b, c), |b| <= a <= c, primitive or
    not, with 4ac - b^2 <= X: each adds 12 at n = 4ac - b^2, except the
    multiples a(x^2 + y^2) and a(x^2 + xy + y^2), which add 6 and 4.
    """
    h = np.zeros(X + 1)
    for a in range(1, math.isqrt(X // 3) + 1):
        b = np.arange(a + 1)[:, None]
        c = np.arange(a, (X + a * a) // (4 * a) + 1)
        n = 4 * a * c - b * b
        # (a, b, c) and (a, -b, c) are distinct reduced forms iff 0 < b < a < c
        w = np.where((b == 0) | (b == a) | (c == a), 12, 24)
        w[0, 0], w[a, 0] = 6, 4
        keep = n <= X
        h += np.bincount(n[keep], weights=w[keep], minlength=X + 1)
    h[0] = -1
    h = h.astype(np.int64)
    h.flags.writeable = False
    return h


@lru_cache(maxsize=None)
def _root_counts(N: int, X: int) -> bytes:
    """The bytes 1 + (-n | N), N prime, for n below min(M, X + 1), M the
    period of the Kronecker symbol (-n | N) in n: N at odd N, 8 at N = 2.

    Tiled to length X + 1 (``np.resize``) it holds r(n) at index n for
    0 <= n <= X, and it is never longer than the 12 H table up to X.  At
    odd N it is Euler's criterion: (-n)^((N-1)/2) is 0, 1 or N - 1 mod N,
    and one more than that, mod N, is 1 + (-n | N).  N is proved prime
    here, once per (N, X).
    """
    N = _check_prime(N)
    if N == 2:
        return bytes(1 + kronecker(-n, 2) for n in range(min(8, X + 1)))
    e = (N - 1) // 2
    return bytes((pow(-n, e, N) + 1) % N for n in range(min(N, X + 1)))


# the first modulus of the trace sums: uint64 arithmetic wraps modulo it
_WORD = 1 << 64
# the bound X of the smallest trace table of each (N, k), which holds every
# m <= X/4 = 512: below it a table costs about one pass of the t-loop
# whatever its width, so one table is cheaper than one per smaller bound
_FIRST_BOUND = 1 << 11


@lru_cache(maxsize=None)
def _trial_primes() -> np.ndarray:
    """The primes up to isqrt(2^31 - 1) = 46340, sieved once per process."""
    return np.array(_primes_up_to(46340))


@lru_cache(maxsize=None)
def _crt_primes(count: int) -> tuple:
    """The ``count`` largest primes below 2^31, descending:
    ``_crt_primes(count - 1)`` and the next prime below it, by trial
    division by ``_trial_primes``.  Count 0 builds no sieve."""
    if count == 0:
        return ()
    out = _crt_primes(count - 1)
    c = out[-1] - 2 if out else (1 << 31) - 1
    small = _trial_primes()
    while not np.all(c % small):
        c -= 2
    return out + (c,)


def _moment_residues(g: np.ndarray, k: int, X: int, q: int) -> np.ndarray:
    """sum_t P_k(t, m) g[4m - t^2] mod q, as uint64, for 1 <= m <= X/4 at
    index m - 1.

    With J = (k - 2)/2 and P_k(t, m) = sum_i (-1)^i C(2J - i, i)
    t^(2J - 2i) m^i, the sum is sum_i (-1)^i C(2J - i, i) m^i S_(J-i)(m)
    in the moments S_j(m) = sum_(t >= 0) w_t t^(2j) g[4m - t^2], w_0 = 1
    and w_t = 2 (P_k is even in t).  The loop runs over t alone: each t
    adds its J + 1 terms to every m with t^2 <= 4m through one slice of
    g[4m - t^2], m ascending, which is contiguous in the table of g over
    n = 0 mod 4 (t even) or n = 3 mod 4 (t odd).  At q = 2^64 the uint64
    products wrap, which is reduction mod q.  At a prime q < 2^31 the
    factors are residues below q, so a product is below 2^62, and the
    sums are reduced after every third t (a residue and three products
    stay below 2^64) and once at the end.
    """
    hi, J = X // 4, (k - 2) // 2
    wrap = q == _WORD

    def red(a):
        return a if wrap else a % q

    gq = g.view(np.uint64) if wrap else (g % q).astype(np.uint64)
    T = math.isqrt(X)
    tt = red(np.arange(T + 1, dtype=np.uint64) ** 2)
    coeff = np.empty((T + 1, J + 1), dtype=np.uint64)  # w_t t^(2j) mod q
    coeff[:, 0] = 2
    coeff[0, 0] = 1
    for j in range(1, J + 1):
        coeff[:, j] = red(coeff[:, j - 1] * tt)
    # n = 4m - t^2 is 0 mod 4 at even t and 3 mod 4 at odd t, so g[n] is
    # quarter[t % 2][m - s] with s = ceil(t^2 / 4), read contiguously
    quarter = (gq[0::4].copy(), gq[3::4].copy())
    S = np.zeros((J + 1, hi), dtype=np.uint64)
    for t in range(T + 1):
        s = (t * t + 3) // 4
        m0 = max(1, s)
        part = S[:, m0 - 1:]
        part += coeff[t, :, None] * quarter[t % 2][m0 - s:hi - s + 1]
        if not wrap and t % 3 == 2:
            part %= q
    S = red(S)
    ms = red(np.arange(1, hi + 1, dtype=np.uint64))
    acc = np.zeros(hi, dtype=np.uint64)
    for i in range(J, -1, -1):  # Horner in m
        c = (-1) ** i * math.comb(2 * J - i, i) % q
        acc = red(red(acc * ms) + red(c * S[J - i]))
    return acc


def _lift(residues: list, moduli: tuple) -> np.ndarray:
    """The integers x with -Q/2 <= x < Q/2 and x = residues[i] mod moduli[i],
    Q the product of the moduli: 2^64 or a prime below 2^31, then such primes.

    A lone modulus 2^64 is the int64 view of the uint64 residues.  Any other
    takes Garner's mixed-radix digits d_i < moduli[i] in uint64 arithmetic
    (no product reaches 2^62), sums d_0 + q_0 (d_1 + q_1 (d_2 + ...)) in
    Python ints, as an object array, and subtracts Q where 2x >= Q; a lone
    prime q is its one digit, centred.
    """
    if moduli == (_WORD,):
        return residues[0].view(np.int64)
    digits = [residues[0]]
    for i in range(1, len(moduli)):
        q = moduli[i]
        acc = np.zeros_like(residues[i])  # the digits so far, mod q
        for d, r in zip(reversed(digits), reversed(moduli[:i])):
            acc = (acc * (r % q) + d % q) % q
        inv = pow(math.prod(moduli[:i]) % q, -1, q)
        digits.append((residues[i] + (q - acc)) % q * inv % q)
    x = digits[-1].astype(object)
    for d, r in zip(reversed(digits[:-1]), reversed(moduli[:-1])):
        x = x * r + d.astype(object)
    Q = math.prod(moduli)
    return np.where(2 * x >= Q, x - Q, x)


@lru_cache(maxsize=None)
def _divisor_term(k: int, hi: int) -> np.ndarray:
    """sum_(d | m) min(d, m/d)^(k-1) for 1 <= m <= hi at index m - 1: each
    d <= sqrt(m) stands for d and m/d, so 2 d^(k-1) lands on its multiples
    m >= d^2, less d^(k-1) at m = d^2.  The sum is at most 2 m^(k/2); int64
    when that stays below 2^62 at hi, else Python ints.  It does not depend
    on the level, so one read-only table per (k, hi) serves every N."""
    out = np.zeros(hi, dtype=np.int64 if 2 * hi ** (k // 2) < 1 << 62 else object)
    for d in range(1, math.isqrt(hi) + 1):
        power = d ** (k - 1)
        out[d * d - 1::d] += 2 * power
        out[d * d - 1] -= power
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _trace_table(N: int, k: int, X: int) -> tuple:
    """Tr T_m on weight-k cusp forms of prime level N for 1 <= m <= X/4,
    at index m - 1; None where N | m.  X is ``_FIRST_BOUND`` (every
    m <= 512) or a larger power of 2, so each table is a prefix of the
    next.

    The two class-number terms of the formula fuse into one integer table
    g[n] = r(n) 12H(n) + N 12H(n/N^2) [N^2 | n] for n <= X: where N^2 | n,
    N | n and r = 1, so r (12H(n) - 12H(n/N^2)) + (N + 1) 12H(n/N^2) is
    that.  Then

        24 Tr T_m = -sum_(t^2 <= 4m) P_k(t, m) g[4m - t^2]
                    - 24 sum_(d | m) min(d, m/d)^(k-1).

    Exactness comes from a bound, not from Python ints in the loop:
    |P_k(t, m)| <= (k - 1) m^((k-2)/2) for t^2 <= 4m (a Chebyshev
    polynomial of the second kind, scaled), so the sum is at most
    B(m) = (2T + 1) (k - 1) m^((k-2)/2) max|g|, T = isqrt(X).  It runs
    modulo 2^64 (``_moment_residues``), and also modulo as many primes
    below 2^31 (``_crt_primes``) as make the product of the moduli exceed
    2 B(X/4); ``_lift`` recovers it.  A lifted sum outside +-B(m) is
    refused (InvariantViolation), and so is one that 24 does not divide
    at m prime to N (AccuracyError).  The divisor term runs over d alone
    (``_divisor_term``).  ``_root_counts`` gives r and proves N prime,
    once per (N, X).
    """
    h = _hurwitz12(X)
    g = np.resize(np.frombuffer(_root_counts(N, X), dtype=np.uint8), X + 1) * h
    g[::N * N] += N * h[:X // (N * N) + 1]
    hi, J = X // 4, (k - 2) // 2
    base = (2 * math.isqrt(X) + 1) * (k - 1) * int(np.abs(g).max())
    count = 0
    while _WORD * math.prod(_crt_primes(count)) <= 2 * base * hi ** J:
        count += 1
    moduli = (_WORD,) + _crt_primes(count)
    x = _lift([_moment_residues(g, k, X, q) for q in moduli], moduli)
    ms = np.arange(1, hi + 1)
    limit = base * (ms if count == 0 else ms.astype(object)) ** J
    bad = np.flatnonzero((x > limit) | (x < -limit))
    if bad.size:
        i = bad[0]
        raise InvariantViolation(
            f"trace sum at N = {N}, k = {k}, m = {i + 1} lifts to {x[i]}, "
            f"outside the bound +-{limit[i]}")
    coprime = ms % N != 0
    bad = np.flatnonzero((x % 24 != 0) & coprime)
    if bad.size:
        i = bad[0]
        raise AccuracyError(f"trace formula returned non-integer "
                            f"{Fraction(-int(x[i]), 24)} at N = {N}, k = {k}, m = {i + 1}")
    out = (-x // 24 - _divisor_term(k, hi)).astype(object)
    out[~coprime] = None
    return tuple(out.tolist())


def eichler_selberg_trace(N: int, k: int, m: int) -> int:
    """Trace of the m-th Hecke operator on weight-k cusp forms of prime
    level N, trivial character, for gcd(m, N) = 1 and even k >= 4.

    In Hurwitz form, with n = 4m - t^2 and P_k(t, m) the coefficient of
    x^(k-2) in 1 / (1 - t x + m x^2),

        Tr T_m = -1/2 sum_{t^2 <= 4m} P_k(t, m) [r (H(n) - H(n/N^2))
                 + (N + 1) H(n/N^2)] - sum_{d | m} min(d, m/d)^(k-1),

    where r = 1 + ((t^2 - 4m) / N) counts the roots of x^2 - t x + m mod N
    (orders maximal at N), H(n/N^2) is 0 unless N^2 | n (orders whose
    conductor N divides embed N + 1 times), and H(0) = -1/12 makes the
    t^2 = 4m term the identity's index term.  The result is an exact int.

    After the input checks (an exact int passes each at once) this is one
    lookup at index m - 1 of ``_trace_table(N, k, X)``, which holds Tr T_m
    for every m <= X/4: X = 2^11 for every m <= 512, read directly, and
    X = 2^bit_length(4m - 1) (the bound of the 12 H table the sum reads)
    above that.  It is built once per (N, k, X) from vectorized sums exact
    by a modular lift, with the divisor term of (k, X) shared by every
    level (see there).
    """
    # an int before the cached table, so that 7.0 never finds 7's entry
    if type(N) is not int:
        N = _as_int(N, "N")
    k = _check_weight(k)
    if type(m) is not int:
        m = _as_int(m, "m")
    if m < 1 or math.gcd(m, N) != 1:
        raise DomainError("need m >= 1 with gcd(m, N) = 1")
    if m <= _FIRST_BOUND // 4:  # the first table, with no bound to compute
        return _trace_table(N, k, _FIRST_BOUND)[m - 1]
    return _trace_table(N, k, 1 << (4 * m - 1).bit_length())[m - 1]


def _divisors(m: int) -> list:
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return sorted(out)


def dim_cusp_forms(N: int, k: int) -> int:
    """Dimension of the weight-k cusp space at prime level N by the
    genus/elliptic-point formula (independent of the trace formula)."""
    N, k = _check_prime(N), _check_weight(k)
    if N == 2:
        eps2, eps3 = 1, 0
    elif N == 3:
        eps2, eps3 = 0, 1
    else:
        eps2 = 1 + kronecker(-4, N)
        eps3 = 1 + kronecker(-3, N)
    eps_inf = 2
    genus = 1 + Fraction(N + 1, 12) - Fraction(eps2, 4) - Fraction(eps3, 3) - 1
    dim = (
        Fraction(k - 1) * (genus - 1)
        + (k // 4) * eps2
        + (k // 3) * eps3
        + Fraction(k // 2 - 1) * eps_inf
    )
    if dim.denominator != 1:
        raise AccuracyError(f"dimension formula returned non-integer {dim}")
    return int(dim)


# ---------------------------------------------------------------------------
# eigenforms
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1
# largest gap of a stored c_n to the Hecke extension of the stored primes,
# relative to d(n) n^((k-1)/2); the shipped forms need 4.3 eps n^((k-1)/2)
HECKE_REL_TOL = 1e-12


@dataclass
class Eigenform:
    """A Hecke newform of prime level and even weight > 2.

    ``coeffs[n-1]`` is the arithmetic coefficient c_n (c_1 = 1); normalized
    eigenvalues are a_n = c_n / n^((k-1)/2).
    """

    level: int
    weight: int
    label: str
    coeffs: list
    atkin_lehner: int | None = None

    @property
    def n_max(self) -> int:
        return len(self.coeffs)

    def c(self, n: int) -> float:
        """c_n; InsufficientCoefficients past n_max, DomainError below 1."""
        if not 1 <= n <= self.n_max:
            if n < 1:
                raise DomainError(f"{self.label}: no coefficient c_{n} (n < 1)")
            raise InsufficientCoefficients(
                f"{self.label}: c_{n} is past the stored coefficients "
                f"(n = {n}, n_max = {self.n_max})")
        return self.coeffs[n - 1]

    def a(self, n: int) -> float:
        return self.c(n) / n ** ((self.weight - 1) / 2.0)

    def is_rational(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def validate(self) -> None:
        """c_1 = 1, c_N = -w N^(k/2-1) for a sign w (the stored Atkin-Lehner
        sign, if any), the eigenvalue bound at each prime p != N, and every
        c_n equal to ``hecke_extend`` of the stored primes (HECKE_REL_TOL)."""
        k, N, n_max = self.weight, self.level, self.n_max
        if self.c(1) != 1:
            raise InvariantViolation(f"{self.label}: c_1 = {self.c(1)} != 1")
        w, root = self.atkin_lehner, N ** (k // 2 - 1)
        signs = (1, -1) if w is None else (w,)
        if N <= n_max and not any(abs(self.c(N) + s * root) <= HECKE_REL_TOL * root
                                  for s in signs):
            raise InvariantViolation(
                f"{self.label}: c_{N} = {self.c(N)!r} is not -w {N}^{k // 2 - 1} for "
                f"w = {'+1 or -1' if w is None else w} (n = {N}, relation = atkin-lehner)")
        _, primes, divisors = _sieve_tables(n_max)
        coeffs = np.array(self.coeffs, dtype=float)
        # the bound at every prime in one comparison; the message takes the
        # first prime past it through a(p)
        over = (primes != N) & (np.abs(coeffs[primes - 1]) / primes ** ((k - 1) / 2.0)
                                > 2.0 + 1e-9)
        if over.any():
            p = int(primes[over.argmax()])
            raise InvariantViolation(
                f"{self.label}: |a_{p}| = {abs(self.a(p)):.6f} violates the "
                f"eigenvalue bound (n = {p}, relation = deligne)")
        extended = hecke_extend({p: self.coeffs[p - 1] for p in primes.tolist()}, N, k, n_max)
        gap = np.abs(coeffs - np.array(extended, dtype=float))
        bound = divisors[1:] * np.arange(1, n_max + 1) ** ((k - 1) / 2.0)
        bad = np.flatnonzero(~(gap <= HECKE_REL_TOL * bound))  # NaN gaps fail too
        if bad.size:
            n = int(bad[0]) + 1
            raise InvariantViolation(
                f"{self.label}: c_{n} = {self.c(n)!r} is not the Hecke extension "
                f"{extended[n - 1]!r} of the form's primes (n = {n}, relation = hecke)")


def _divisor_counts(n: int) -> np.ndarray:
    """d(m) for m <= n: j <= sqrt(n) adds 1 at j^2 and 2 (j, m/j) at m > j^2."""
    d = np.zeros(n + 1, dtype=np.int64)
    for j in range(1, math.isqrt(n) + 1):
        d[j * j] += 1
        d[j * (j + 1)::j] += 2
    return d


def _smallest_prime_factors(n: int) -> np.ndarray:
    """spf[m] = the smallest prime factor of m for 2 <= m <= n (spf[0] = 0,
    spf[1] = 1): the one sieve behind range factorization."""
    spf = np.arange(n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            # primes come in increasing order, so a set entry is never larger
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)
    return spf


@lru_cache(maxsize=4)
def _sieve_tables(n: int) -> tuple:
    """The smallest-prime-factor sieve up to n as a tuple, the primes up to
    n and d(m) for m <= n as read-only arrays: one of each for every n_max
    that Eigenform.validate and hecke_extend meet, which a data file's
    forms share."""
    spf = _smallest_prime_factors(n)
    primes = np.flatnonzero(spf == np.arange(n + 1))[2:]
    divisors = _divisor_counts(n)
    for a in (primes, divisors):
        a.flags.writeable = False  # cached: every caller shares them
    return tuple(spf.tolist()), primes, divisors


def _primes_up_to(n: int) -> list:
    if n < 2:
        return []  # no primes, and the sieve takes no negative bound
    # spf[m] == m at m = 0, 1 and at the primes
    return np.flatnonzero(_smallest_prime_factors(n) == np.arange(n + 1))[2:].tolist()


_FLOAT_MAX = sys.float_info.max


def _parse_record(rec, where: str) -> Eigenform:
    """The Eigenform of one record; a malformed one is refused naming ``where``."""
    if not isinstance(rec, dict):
        raise InvariantViolation(f"{where}: record is not a JSON object")
    if type(rec.get("schema")) is not int or rec["schema"] != SCHEMA_VERSION:
        raise InvariantViolation(f"{where}: missing or unsupported schema version")
    missing = [key for key in ("level", "weight", "label", "coeffs") if key not in rec]
    if missing:
        raise InvariantViolation(f"{where}: record lacks {', '.join(missing)}")
    if not all(type(rec[key]) is int for key in ("level", "weight")):
        raise InvariantViolation(f"{where}: level and weight must be integers")
    if type(rec["label"]) is not str:
        raise InvariantViolation(f"{where}: label must be a string")
    sign = rec.get("atkin_lehner")
    if sign is not None and (type(sign) is not int or sign not in (1, -1)):
        raise InvariantViolation(f"{where}: atkin_lehner must be 1 or -1")
    raw = rec["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise InvariantViolation(f"{where}: coeffs must be a non-empty list")
    return Eigenform(level=rec["level"], weight=rec["weight"], label=rec["label"],
                     coeffs=_coefficients(raw, where), atkin_lehner=rec.get("atkin_lehner"))


def _coefficients(raw: list, where: str) -> list:
    """The coefficients of a record's list: ints and finite floats in the
    float range, and decimal strings of them read as floats.  One typing
    pass and one array comparison accept a whole list; a list they do not
    accept goes through the entries one at a time, which refuses the first
    bad one naming ``where``."""
    kinds = set(map(type, raw))
    if kinds <= {int, float, str}:
        try:
            coeffs = ([float(e) if type(e) is str else e for e in raw] if str in kinds
                      else list(raw))
            # an int past the float range raises or rounds to the largest
            # float, which fails the test with NaN and the infinities: the
            # loop decides those lists
            if (np.abs(np.array(coeffs, dtype=float)) < _FLOAT_MAX).all():
                return coeffs
        except (ValueError, OverflowError):
            pass
    coeffs = []
    for n, entry in enumerate(raw, 1):
        try:
            c = float(entry) if isinstance(entry, str) else entry
        except ValueError:
            c = None
        if not (type(c) is int and -_FLOAT_MAX <= c <= _FLOAT_MAX
                or isinstance(c, float) and math.isfinite(c)):
            raise InvariantViolation(f"{where}: bad coefficient c_{n} = {entry!r}")
        coeffs.append(c)
    return coeffs


def load_eigenforms(path) -> list:
    """Read newform records from a JSON-lines file and validate them.

    Each line holds a flat object {schema, level, weight, label,
    atkin_lehner (optional), coeffs}; coefficients are exact integers for
    rational forms and decimal strings otherwise; a file that is not UTF-8,
    a malformed record, or one whose label repeats an earlier one, is
    refused naming path:line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InvariantViolation(f"{path}:{lineno}: not UTF-8: {exc}") from exc
    forms, seen = [], {}
    # the lines of a text-mode file: \n, \r and \r\n all end one
    for lineno, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise InvariantViolation(f"{path}:{lineno}: parse error: {exc}") from exc
        form = _parse_record(rec, f"{path}:{lineno}")
        if form.label in seen:
            raise InvariantViolation(f"{path}:{lineno}: label {form.label!r} repeats "
                                     f"line {seen[form.label]}")
        seen[form.label] = lineno
        form.validate()
        forms.append(form)
    return forms


def dump_eigenforms(forms, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in forms:
            coeffs = [
                c if isinstance(c, int) else format(float(c), ".17g")
                for c in f.coeffs
            ]
            rec = {
                "schema": SCHEMA_VERSION,
                "level": f.level,
                "weight": f.weight,
                "label": f.label,
                "coeffs": coeffs,
            }
            if f.atkin_lehner is not None:
                rec["atkin_lehner"] = f.atkin_lehner
            fh.write(json.dumps(rec) + "\n")


def hecke_extend(prime_coeffs: dict, N: int, k: int, n_max: int) -> list:
    """Extend prime coefficients (including c_N) to all c_n, n <= n_max,
    in one ascending pass over the smallest-prime-factor sieve: prime
    powers by the weight-k Hecke recursion (c(N^(r+1)) = c(N) c(N^r) at
    the level), the rest by multiplicativity c(p^e m) = c(p^e) c(m)."""
    spf = _sieve_tables(n_max)[0]
    c = [None, 1] + [None] * (n_max - 1)
    power = [1] * (n_max + 1)  # power[n] = p^e, the part of n at p = spf[n]
    for n in range(2, n_max + 1):
        p = spf[n]
        m = n // p
        power[n] = p * power[m] if spf[m] == p else p
        if m == 1:
            if p not in prime_coeffs:
                raise InvariantViolation(f"missing prime coefficient c_{p}")
            c[n] = prime_coeffs[p]
        elif power[n] == n:  # n = p^(r+1), m = p^r
            c[n] = c[p] * c[m] if p == N else c[p] * c[m] - p ** (k - 1) * c[m // p]
        else:
            c[n] = c[power[n]] * c[n // power[n]]
    return c[1:]


def hecke_coefficient(coeff, m: int, n: int, k: int, N: int):
    """Coefficient n of T_m g (U_N g at m = N), g of weight k and prime level
    N with coefficients coeff(j): the sum over d | gcd(m, n), N not dividing
    d, of d^(k-1) coeff(mn / d^2) (Diamond-Shurman, Prop. 5.3.1)."""
    return sum(d ** (k - 1) * coeff(m * n // (d * d))
               for d in _divisors(math.gcd(m, n)) if d % N)


def admissible_levels(D: int, p: int, bound: int) -> list:
    """Prime levels N <= bound with chi_D(-N) = 1 and N not dividing p*D."""
    return [N for N in _primes_up_to(bound)
            if p % N and D % N and kronecker(D, -N) == 1]
