"""Quadratic characters, Dirichlet L-values, trace formula, eigenforms.

The eigenform data shipped with the package is the primary source of Hecke
eigenvalues; the Eichler-Selberg trace formula implemented here serves as an
independent cross-check and as the dimension/trace oracle for small spaces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import AccuracyError, InvariantViolation
from .numerics import IntegralResult, QuadratureSpec, integrate, interval

__all__ = [
    "kronecker",
    "is_fundamental_discriminant",
    "dirichlet_l",
    "dirichlet_l_one",
    "l_zero_finite_sum",
    "l_zero_via_l_one",
    "class_number_weighted",
    "gegenbauer_coefficient",
    "psi_index",
    "eichler_selberg_trace",
    "dim_cusp_forms",
    "Eigenform",
    "load_eigenforms",
    "dump_eigenforms",
    "hecke_extend",
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
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Dirichlet L-values at s = 1 and s = 0
# ---------------------------------------------------------------------------

def _check_negative_fundamental(D: int) -> None:
    if not (D < 0 and is_fundamental_discriminant(D)):
        raise ValueError(f"D = {D} is not a negative fundamental discriminant")


def dirichlet_l(D: int, s: float) -> float:
    """L(s, chi_D) for s in {0, 1} (fundamental D < 0).

    s = 1 is the value of ``dirichlet_l_one``; s = 0 uses the finite
    character sum.
    """
    _check_negative_fundamental(D)
    if s == 0:
        return l_zero_finite_sum(D)
    if s != 1:
        raise ValueError("only s = 0 and s = 1 are supported")
    return dirichlet_l_one(D).require().real


def dirichlet_l_one(D: int) -> IntegralResult:
    """L(1, chi_D) with the error estimate of the quadrature that gives it.

    L(1, chi_D) is the Abel sum of the character series, i.e. the integral
    of P(t) / (1 - t^|D|) over [0, 1] with P the character polynomial; the
    integrand is smooth since the character has mean zero.
    """
    _check_negative_fundamental(D)
    mod = abs(D)
    chi = [kronecker(D, a) for a in range(mod)]
    # the Abel integrand is P(t)/(1 - t^mod) with P(t) = sum chi(a) t^(a-1);
    # both factors vanish at t = 1, so divide the common (1 - t) out exactly:
    # P = (1 - t) R with r_j the character partial sums, 1 - t^mod = (1 - t) Q
    r = []
    acc = 0
    for a in range(1, mod - 1):
        acc += chi[a]
        r.append(acc)

    def f(t):
        num = 0.0
        for cj in reversed(r):
            num = num * t + cj
        den = 0.0
        for _ in range(mod):
            den = den * t + 1.0
        return num / den

    spec = QuadratureSpec(domain=interval(0.0, 1.0), rel_tol=1e-13, abs_tol=1e-14)
    return integrate(f, spec)


def l_zero_finite_sum(D: int) -> float:
    """L(0, chi_D) = -(1/|D|) sum_{a=1}^{|D|} chi_D(a) a, exact rational."""
    mod = abs(D)
    total = sum(kronecker(D, a) * a for a in range(1, mod + 1))
    return -total / mod


def l_zero_via_l_one(D: int) -> float:
    """L(0, chi) from L(1, chi) through the odd functional equation:
    L(0, chi) = sqrt(|D|) / pi * L(1, chi)."""
    return math.sqrt(abs(D)) / math.pi * dirichlet_l(D, 1)


# ---------------------------------------------------------------------------
# class numbers and the trace formula
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def class_number_weighted(disc: int) -> Fraction:
    """Weighted class number h_w of a discriminant disc < 0 (0 or 1 mod 4):
    the count of reduced binary quadratic forms, with discs -3 and -4
    weighted by 1/3 and 1/2."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"invalid discriminant {disc}")
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


def gegenbauer_coefficient(k: int, t: int, m: int) -> int:
    """Coefficient of x^(k-2) in 1 / (1 - t x + m x^2), exact."""
    prev, cur = 1, t
    if k == 2:
        return prev
    for _ in range(k - 3):
        prev, cur = cur, t * cur - m * prev
    return cur


def psi_index(N: int) -> int:
    """Index of the level subgroup: N + 1 for prime N."""
    return N + 1


def _roots_mod(t: int, m: int, mod: int) -> int:
    return sum(1 for x in range(mod) if (x * x - t * x + m) % mod == 0)


def _check_prime(N: int) -> None:
    if N < 2 or any(N % d == 0 for d in range(2, int(math.isqrt(N)) + 1)):
        raise ValueError(f"N = {N} is not prime")


def eichler_selberg_trace(N: int, k: int, m: int) -> int:
    """Trace of the m-th Hecke operator on weight-k cusp forms of prime
    level N, trivial character, for gcd(m, N) = 1 and even k >= 4.

    Elliptic orbits are weighted by class numbers times local solution
    counts; the square-trace boundary carries the index, and the split
    (divisor) orbits carry the mod-N solution count of (x-d)(x-d').
    """
    _check_prime(N)
    if k % 2 or k < 4:
        raise ValueError("k must be even and >= 4")
    if m < 1 or math.gcd(m, N) != 1:
        raise ValueError("need m >= 1 with gcd(m, N) = 1")

    psi = psi_index(N)
    total = Fraction(0)

    # elliptic and identity-boundary terms: t^2 <= 4m
    tmax = math.isqrt(4 * m)
    for t in range(-tmax, tmax + 1):
        d = t * t - 4 * m
        pk = gegenbauer_coefficient(k, t, m)
        if d == 0:
            total -= Fraction(pk) * Fraction(-psi, 12) * Fraction(1, 2)
            continue
        # sum over square divisors f^2 | d with d/f^2 a discriminant
        h_term = Fraction(0)
        f = 1
        while f * f <= -d:
            if d % (f * f) == 0:
                df = d // (f * f)
                if df % 4 in (0, 1):
                    h_term += class_number_weighted(df) * _embedding_count(t, m, f, d, N)
            f += 1
        total -= Fraction(pk) * h_term * Fraction(1, 2)

    # split (divisor) terms; each of the two cusps of a prime level
    # contributes weight phi(gcd(c, N/c)) = 1, independent of the pair
    for dd in _divisors(m):
        d2 = m // dd
        w = min(dd, d2) ** (k - 1)
        total -= Fraction(w * 2, 2)

    if total.denominator != 1:
        raise AccuracyError(f"trace formula returned non-integer {total}")
    return int(total)


def _embedding_count(t: int, m: int, f: int, d: int, N: int) -> int:
    """Local weight at N of the order of discriminant d / f^2.

    For orders maximal at N this is the number of roots of x^2 - t x + m
    modulo N; when N divides the conductor f the order embeds with
    multiplicity N + 1 (validated against the exact q-expansion traces).
    """
    if f % N != 0:
        return _roots_mod(t, m, N)
    return N + 1


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
    _check_prime(N)
    if k % 2 or k < 4:
        raise ValueError("k must be even and >= 4")
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
        if not 1 <= n <= self.n_max:
            raise IndexError(f"coefficient c_{n} not available (n_max = {self.n_max})")
        return self.coeffs[n - 1]

    def a(self, n: int) -> float:
        return self.c(n) / n ** ((self.weight - 1) / 2.0)

    def is_rational(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def validate(self, tol: float = 1e-8) -> None:
        k, N = self.weight, self.level
        if self.c(1) != 1:
            raise InvariantViolation(f"{self.label}: c_1 = {self.c(1)} != 1")
        nmax = self.n_max
        scale = max(abs(float(c)) for c in self.coeffs) + 1.0

        def close(x, y):
            return abs(x - y) <= tol * scale

        for p in _primes_up_to(nmax):
            if p != N and abs(self.a(p)) > 2.0 + 1e-9:
                raise InvariantViolation(
                    f"{self.label}: |a_{p}| = {abs(self.a(p)):.6f} violates the "
                    f"eigenvalue bound (n = {p}, relation = deligne)"
                )
            r = 1
            while p ** (r + 1) <= nmax:
                lhs = self.c(p ** (r + 1))
                if p == N:
                    rhs = self.c(p) * self.c(p ** r)
                else:
                    rhs = self.c(p) * self.c(p ** r) - p ** (k - 1) * self.c(p ** (r - 1))
                if not close(lhs, rhs):
                    raise InvariantViolation(
                        f"{self.label}: Hecke recursion fails "
                        f"(n = {p ** (r + 1)}, relation = recursion)"
                    )
                r += 1
        for a in range(2, nmax + 1):
            for b in range(a, nmax // a + 1):
                if math.gcd(a, b) == 1:
                    if not close(self.c(a * b), self.c(a) * self.c(b)):
                        raise InvariantViolation(
                            f"{self.label}: multiplicativity fails "
                            f"(n = {a * b}, relation = c_{a}*c_{b})"
                        )


def _primes_up_to(n: int) -> list:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(math.isqrt(n)) + 1):
        if sieve[i]:
            sieve[i * i:: i] = b"\x00" * len(range(i * i, n + 1, i))
    return [i for i in range(2, n + 1) if sieve[i]]


def _parse_coeff(x):
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return float(x)
    if isinstance(x, float):
        return x
    raise InvariantViolation(f"bad coefficient entry {x!r}")


def load_eigenforms(path, validate: bool = True) -> list:
    """Read newform records from a JSON-lines file and validate them.

    Each line holds a flat object {schema, level, weight, label,
    atkin_lehner (optional), coeffs}; coefficients are exact integers for
    rational forms and decimal strings otherwise.
    """
    forms = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvariantViolation(f"{path}:{lineno}: parse error: {exc}") from exc
            if rec.get("schema") != SCHEMA_VERSION:
                raise InvariantViolation(
                    f"{path}:{lineno}: missing or unsupported schema version"
                )
            form = Eigenform(
                level=int(rec["level"]),
                weight=int(rec["weight"]),
                label=str(rec["label"]),
                coeffs=[_parse_coeff(c) for c in rec["coeffs"]],
                atkin_lehner=rec.get("atkin_lehner"),
            )
            if validate:
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
    by the weight-k Hecke recursion and multiplicativity."""
    needed = [p for p in _primes_up_to(n_max)]
    for p in needed:
        if p not in prime_coeffs:
            raise InvariantViolation(f"missing prime coefficient c_{p}")
    c = [None] * (n_max + 1)
    c[1] = 1
    for p in needed:
        c[p] = prime_coeffs[p]
        r = 1
        while p ** (r + 1) <= n_max:
            if p == N:
                c[p ** (r + 1)] = c[p] * c[p ** r]
            else:
                c[p ** (r + 1)] = c[p] * c[p ** r] - p ** (k - 1) * c[p ** (r - 1)]
            r += 1
    for n in range(2, n_max + 1):
        if c[n] is None:
            # factor out the largest prime power
            p = _smallest_prime_factor(n)
            pe = p
            while n % (pe * p) == 0:
                pe *= p
            c[n] = c[pe] * c[n // pe]
    return c[1:]


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def admissible_levels(D: int, p: int, bound: int, max_dim: int | None = None,
                      k: int | None = None) -> list:
    """Prime levels N <= bound with chi_D(-N) = 1 and N not dividing p*D,
    optionally filtered by the cusp-space dimension at weight k."""
    out = []
    for N in _primes_up_to(bound):
        if p % N == 0 or D % N == 0:
            continue
        if kronecker(D, -N) != 1:
            continue
        if max_dim is not None and k is not None:
            if dim_cusp_forms(N, k) > max_dim:
                continue
        out.append(N)
    return out
