import math
import random

import pytest

from modlavg import reg_tail as rt
from modlavg.errors import DomainError


def trial_factor(n):
    """{p: e} of n >= 1 by trial division."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def reference_term(n, M, k):
    """regular_term_bound by its definition, one prime at a time."""
    fac_n, fac_nm = trial_factor(n), trial_factor(n - M)
    prod = 1.0
    for q in sorted(set(fac_n) | set(fac_nm)):
        delta = fac_nm.get(q, 0) - fac_n.get(q, 0)
        prod *= max(1.0, M * delta * delta)
    return prod * (M / n) ** (k / 2.0)


class TestG:
    def test_twelve(self):
        assert rt.g_of_n(12) == 2  # exponents 2 and 1

    def test_one(self):
        assert rt.g_of_n(1) == 1

    def test_squarefree(self):
        for n in (2, 3, 5, 6, 7, 10, 15, 30, 105, 2310):
            assert rt.g_of_n(n) == 1

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(424242)
        checked = 0
        while checked < 500:
            a = rng.randint(2, 5000)
            b = rng.randint(2, 5000)
            if math.gcd(a, b) != 1:
                continue
            assert rt.g_of_n(a * b) == rt.g_of_n(a) * rt.g_of_n(b)
            checked += 1

    def test_prime_powers(self):
        assert rt.g_of_n(2 ** 10) == 10
        assert rt.g_of_n(3 ** 4 * 2 ** 2) == 8


class TestSubpolynomial:
    def test_scan_reports_small_argmax(self):
        out = rt.subpolynomial_check(0.5, 10 ** 6)
        assert out["max"] < 3.0
        assert out["argmax"] < 10 ** 5

    def test_prime_power_decay(self):
        # g(2^a) / 2^(0.1 a) = a / 2^(0.1 a) eventually decreasing to 0
        vals = [a / 2 ** (0.1 * a) for a in range(1, 61)]
        assert vals[59] < vals[30] < max(vals)
        assert vals[59] < 1.0

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            rt.subpolynomial_check(-0.1, 100)

    def test_n_max_validation(self):
        with pytest.raises(DomainError):
            rt.subpolynomial_check(0.5, 0)

    @pytest.mark.parametrize("n_max", [1, 8, 9, 1024, 2187, 3000])
    def test_table_is_g_of_n(self, n_max):
        # prime powers end the table on the last multiple of p^j
        table = rt._g_table(n_max).tolist()
        assert table[1:] == [rt.g_of_n(n) for n in range(1, n_max + 1)]

    @pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.1])
    def test_scan_matches_loop(self, epsilon):
        # the first n with the largest g(n) / n^epsilon, scanned one n at a time
        best, arg = 1.0, 1
        for n in range(2, 5001):
            val = rt.g_of_n(n) / n ** epsilon
            if val > best:
                best, arg = val, n
        assert rt.subpolynomial_check(epsilon, 5000) == {"max": best, "argmax": arg}


class TestTailSum:
    def test_zeta_envelope(self):
        out = rt.tail_sum(101, 4, 2.0, 10 ** 6)
        zeta2 = math.pi ** 2 / 6.0
        assert out["total_bound"] <= zeta2 * 101 ** (-2.0) * 1.2
        assert out["sum"] > 0

    def test_level_scaling(self):
        prev = None
        for N in (101, 211, 401, 809):
            out = rt.tail_sum(N, 4, 2.0, 10 ** 6)
            if prev is not None:
                # roughly quadratic decay in the level
                ratio = out["total_bound"] / prev["total_bound"]
                expected = (prev["N"] / N) ** 2.0
                assert 0.5 * expected <= ratio <= 2.0 * expected
            prev = {"total_bound": out["total_bound"], "N": N}

    def test_loglog_slope(self):
        # u = k/2 - eps with k = 4, eps = 0.1: observed decay exponent near 1.9
        u = 1.9
        levels = [101, 211, 401, 809]
        sums = [rt.tail_sum(N, 4, u, 10 ** 6)["total_bound"] for N in levels]
        xs = [math.log(N) for N in levels]
        ys = [math.log(s) for s in sums]
        n = len(xs)
        slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
            n * sum(x * x for x in xs) - sum(xs) ** 2
        )
        assert abs(slope + u) < 0.1

    def test_u_validation(self):
        with pytest.raises(DomainError):
            rt.tail_sum(101, 4, 1.0, 10 ** 4)


class TestEnvelope:
    def test_bounded_ratio_over_levels(self):
        ratios = []
        for N in (101, 211, 401):
            out = rt.tail_envelope(N, 4, 4, n_max=200 * N)
            ratios.append(out["ratio"])
        assert max(ratios) <= 20.0 * min(ratios)
        assert all(r > 0 for r in ratios)

    @pytest.mark.parametrize("M", [3, 4, 7, 8, 15, 20, 24])
    def test_bit_identical_to_trial_division(self, M):
        # n and n - M share the primes of M that divide m N
        for N in (3, 7, 11, 19, 59, 101):
            for k in (4, 6, 12):
                total = 0.0
                for n in range(N + M, 200 * N + 1, N):
                    total += reference_term(n, M, k)
                env = N ** (-k / 2.0 + 0.1)
                out = rt.tail_envelope(N, M, k, n_max=200 * N)
                assert out == {"sum": total, "envelope": env, "ratio": total / env}

    def test_term_bound_is_one_orbit(self):
        for M in (4, 24):
            for n in range(M + 1, 2000, 13):
                assert rt.regular_term_bound(n, M, 6) == reference_term(n, M, 6)

    def test_term_bound_validation(self):
        with pytest.raises(DomainError):
            rt.regular_term_bound(4, 4, 4)


def test_bad_input_refused_before_any_arithmetic(monkeypatch):
    # a float level was truncated to int64 orbits: 7.5 gave a sum of 31.99
    def no_terms(*args):
        raise AssertionError("orbit terms built before the refusal")
    monkeypatch.setattr(rt, "_term_bounds", no_terms)
    for args in [(7.5, 4, 4, 1400), (True, 4, 4, 1400), (7, 4, 4.5, 1400),
                 (7, 4, 6.0, 1400), (7, 4, 4, 1400.0), (7, 4.0, 4, 1400)]:
        with pytest.raises(DomainError):
            rt.tail_envelope(*args)
    for args in [(9.0, 4, 4), (9, 4, 3), (9, 4, True)]:
        with pytest.raises(DomainError):
            rt.regular_term_bound(*args)


@pytest.mark.parametrize("M", [0, -4])
def test_modulus_below_one_refused_before_any_arithmetic(M, monkeypatch):
    # tail_envelope(7, 0, 4, 100) gave a sum of 0.0 and (7, -4, 4, 100) 2.08
    def no_terms(*args):
        raise AssertionError("orbit terms built before the refusal")
    monkeypatch.setattr(rt, "_term_bounds", no_terms)
    with pytest.raises(DomainError, match="orbit modulus M"):
        rt.tail_envelope(7, M, 4, 100)
    with pytest.raises(DomainError, match="orbit modulus M"):
        rt.regular_term_bound(9, M, 4)


@pytest.mark.parametrize("N", [0, -3])
def test_level_below_one_refused(N):
    # at N = 0 the orbits mN + M never pass n_max (tail_sum looped forever)
    # and the envelope divided by zero; both refuse before any work
    with pytest.raises(DomainError, match="level N"):
        rt.tail_sum(N, 1, 2.0, 10)
    with pytest.raises(DomainError, match="level N"):
        rt.tail_envelope(N, 4, 4, 100)
