"""Bounds for the sum of regular orbital terms over rational orbits.

After clearing denominators the regular orbits that survive all local
support conditions are indexed by integers n with n - M divisible by the
level, where M is a fixed modulus built from the twist conductor and the
auxiliary prime.  Their sizes are controlled by a subpolynomial divisor
function g and the archimedean decay (1 - x)^{k/2} at x = (n - M)/n; this
module provides the pieces and empirical envelope checks.  Factorizations
come from ``arith._factorize`` and, over a range, from its sieve
``arith._smallest_prime_factors``.  Ranges of n are handled as integer
arrays (the table of g, the valuations behind each orbit's prime product);
only the float terms and their running sum are formed one orbit at a time.
Every integer argument is checked by ``arith._as_int`` before any
arithmetic, and a level or orbit modulus below 1 is refused.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import (
    _as_int,
    _check_weight,
    _factorize,
    _primes_up_to,
    _smallest_prime_factors,
)
from .errors import DomainError

__all__ = [
    "g_of_n",
    "subpolynomial_check",
    "tail_sum",
    "regular_term_bound",
    "tail_envelope",
]


def g_of_n(n: int) -> int:
    """Product of the exponents in the factorization of n; 1 on squarefree
    numbers and on n = 1 (empty product)."""
    n = _as_int(n, "n")
    if n < 1:
        raise DomainError("n must be positive")
    out = 1
    for e in _factorize(n).values():
        out *= e
    return out


def _g_table(n_max: int) -> np.ndarray:
    """g(n) for 0 <= n <= n_max as exact integers (g(0) = 0 is a filler).

    g is 1 off the multiples of squares, so one pass over the multiples of
    p^j, j >= 2, for each prime p <= sqrt(n_max) builds the whole table.
    """
    g = np.ones(n_max + 1, dtype=np.int64)
    g[0] = 0
    for p in _primes_up_to(math.isqrt(n_max)):
        # on the multiples i p^2 of p^2: v_p(i p^2) = 2 + v_p(i)
        v_p = np.full(n_max // (p * p) + 1, 2, dtype=np.int64)
        pj = p
        while p * p * pj <= n_max:
            v_p[::pj] += 1
            pj *= p
        g[::p * p] *= v_p
    return g


def subpolynomial_check(epsilon: float, n_max: int) -> dict:
    """Scan g(n) / n^epsilon up to n_max; returns the maximum and argmax
    (the first n attaining it).  epsilon must be positive and finite."""
    n_max = _as_int(n_max, "n_max")
    if not 0 < epsilon < math.inf:  # false at NaN too
        raise DomainError(f"epsilon = {epsilon!r} must be positive and finite")
    if n_max < 1:
        raise DomainError("n_max must be positive")
    g = _g_table(n_max)
    # n^epsilon grows with n, so each value of g peaks at its first n: only
    # those n can hold the maximum, and they are scanned in increasing order
    first = np.full(int(g.max()) + 1, n_max + 1)
    np.minimum.at(first, g[1:], np.arange(1, n_max + 1))
    best, arg = 1.0, 1
    for n in sorted(first[first <= n_max].tolist()):
        val = int(g[n]) / n ** epsilon
        if val > best:
            best, arg = val, n
    return {"max": best, "argmax": arg}


def _check_at_least_one(x: int, what: str) -> None:
    """Refuse a level or orbit modulus below 1: at a level N < 1 the orbits
    n = mN + M would not advance, and the surviving orbits need M >= 1."""
    if x < 1:
        raise DomainError(f"{what} must be >= 1, got {x!r}")


def tail_sum(N: int, M: int, u: float, n_max: int) -> dict:
    """sum over m >= 1, mN + M <= n_max of (mN + M)^(-u), plus an
    integral-test bound for the truncated remainder, and the ratio of the
    total against N^(-u).  DomainError, before any arithmetic, for a
    non-integer N, M or n_max, a level or modulus below 1 or an exponent u
    that is not a finite number > 1."""
    N, M, n_max = _as_int(N, "level N"), _as_int(M, "M"), _as_int(n_max, "n_max")
    _check_at_least_one(N, "level N")
    _check_at_least_one(M, "orbit modulus M")
    if not 1 < u < math.inf:  # false at NaN too
        raise DomainError(f"need a finite u > 1, got {u!r}")
    total = 0.0
    m = 1
    while m * N + M <= n_max:
        total += (m * N + M) ** (-u)
        m += 1
    last = (m - 1) * N + M
    remainder = (last + N) ** (1.0 - u) / (N * (u - 1.0))
    bound = total + remainder
    return {"sum": total, "remainder_bound": remainder,
            "total_bound": bound, "ratio_vs_level": bound * N ** u}


def _divide_out(rest: np.ndarray, p) -> np.ndarray:
    """Divide every power of p (a prime, or one prime per entry) out of the
    entries of rest above 1, in place; returns the exponents removed."""
    p = np.broadcast_to(p, rest.shape)
    e = np.zeros_like(rest)
    div = (rest > 1) & (rest % p == 0)
    while div.any():
        rest[div] //= p[div]
        e[div] += 1
        div &= rest % p == 0
    return e


def _term_bounds(n: np.ndarray, M: int, k: int) -> list:
    """regular_term_bound at every entry of the integer array n (all > M).

    The primes of M are divided out of n and n - M directly; what is left of
    n and of n - M is coprime, so each other prime divides one side only and
    is peeled off with the smallest-prime-factor sieve.  Each prime's factor
    is an integer, so the float product is exact below 2^53 in any order.
    The terms follow one orbit at a time in Python floats.
    """
    n = n.astype(np.int64)
    size = n.size
    rest = np.concatenate([n, n - M])
    prod = np.ones(size)
    for q in _factorize(abs(M)):
        e = _divide_out(rest, q)
        delta = e[size:] - e[:size]
        prod *= np.maximum(1, M * delta * delta)
    spf = _smallest_prime_factors(int(rest.max(initial=1)))
    while np.any(rest > 1):
        factor = np.maximum(1, M * _divide_out(rest, spf[rest]) ** 2)
        prod *= factor[:size] * factor[size:]
    return [c * (M / m) ** (k / 2.0) for c, m in zip(prod.tolist(), n.tolist())]


def regular_term_bound(n: int, M: int, k: int) -> float:
    """Crude per-orbit bound: archimedean decay (M/n)^(k/2) times the
    product over primes of M * v_q((n-M)/n)^2 (at least 1 per prime).

    The one-orbit case of tail_envelope's rule; it sieves up to n, so its
    memory grows as 8 bytes per integer up to n.  DomainError, before any
    arithmetic, for a non-integer n or M, a modulus M below 1 or a weight
    that arith._check_weight refuses."""
    n, M, k = _as_int(n, "n"), _as_int(M, "M"), _check_weight(k)
    _check_at_least_one(M, "orbit modulus M")
    if n <= M:
        raise DomainError("need n > M")
    return _term_bounds(np.array([n]), M, k)[0]


def tail_envelope(N: int, M: int, k: int, n_max: int) -> dict:
    """Sum of the per-orbit bounds over n = mN + M <= n_max, compared with
    the level-decay envelope N^(-k/2 + 0.1).

    DomainError, before any arithmetic, for a non-integer N, M or n_max, a
    level or modulus below 1 or a weight that arith._check_weight refuses."""
    N, M = _as_int(N, "level N"), _as_int(M, "M")
    n_max, k = _as_int(n_max, "n_max"), _check_weight(k)
    _check_at_least_one(N, "level N")
    _check_at_least_one(M, "orbit modulus M")
    total = 0.0
    for term in _term_bounds(np.arange(N + M, n_max + 1, N), M, k):
        total += term
    env = N ** (-k / 2.0 + 0.1)
    return {"sum": total, "envelope": env, "ratio": total / env}
