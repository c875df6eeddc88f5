"""Bounds for the sum of regular orbital terms over rational orbits.

After clearing denominators the regular orbits that survive all local
support conditions are indexed by integers n with n - M divisible by the
level, where M is a fixed modulus built from the twist conductor and the
auxiliary prime.  Their sizes are controlled by a subpolynomial divisor
function g and the archimedean decay (1 - x)^{k/2} at x = (n - M)/n; this
module provides the pieces and empirical envelope checks.  Factorizations
come from ``arith._factorize`` and, over a range, from its sieve
``arith._smallest_prime_factors``.
"""

from __future__ import annotations

from .arith import _factorize, _smallest_prime_factors

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
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    for e in _factorize(n).values():
        out *= e
    return out


def subpolynomial_check(epsilon: float, n_max: int) -> dict:
    """Scan g(n) / n^epsilon up to n_max; returns the maximum and argmax.

    g(n) is g(m) e for n = p^e m with p the smallest prime factor of n, read
    off ``arith._smallest_prime_factors``, so the scan is linear-ish.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    spf = _smallest_prime_factors(n_max).tolist()
    g = [0, 1] + [0] * (n_max - 1)
    best, arg = 1.0, 1
    for n in range(2, n_max + 1):
        p = spf[n]
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        g[n] = g[m] * e
        val = g[n] / n ** epsilon
        if val > best:
            best, arg = val, n
    return {"max": best, "argmax": arg}


def tail_sum(N: int, M: int, u: float, n_max: int) -> dict:
    """sum over m >= 1, mN + M <= n_max of (mN + M)^(-u), plus an
    integral-test bound for the truncated remainder, and the ratio of the
    total against N^(-u)."""
    if u <= 1:
        raise ValueError("need u > 1")
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


def regular_term_bound(n: int, M: int, k: int) -> float:
    """Crude per-orbit bound: archimedean decay (M/n)^(k/2) times the
    product over primes of M * v_q((n-M)/n)^2 (at least 1 per prime)."""
    if n <= M:
        raise ValueError("need n > M")
    fac_n = _factorize(n)
    fac_nm = _factorize(n - M)
    primes = set(fac_n) | set(fac_nm)
    prod = 1.0
    for q in primes:
        delta = fac_nm.get(q, 0) - fac_n.get(q, 0)
        prod *= max(1.0, M * delta * delta)
    return prod * (M / n) ** (k / 2.0)


def tail_envelope(N: int, M: int, k: int, n_max: int) -> dict:
    """Sum of the per-orbit bounds over n = mN + M <= n_max, compared with
    the level-decay envelope N^(-k/2 + 0.1)."""
    total = 0.0
    m = 1
    while m * N + M <= n_max:
        total += regular_term_bound(m * N + M, M, k)
        m += 1
    env = N ** (-k / 2.0 + 0.1)
    return {"sum": total, "envelope": env, "ratio": total / env}
