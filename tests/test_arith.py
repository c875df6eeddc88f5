import dataclasses
import functools
import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from modlavg import arith as ar
from modlavg import cli
from modlavg import modforms as mf
from modlavg import numerics as nm
from modlavg.errors import DomainError, InsufficientCoefficients, InvariantViolation
from modlavg.harness import default_data_path


@pytest.fixture(scope="module")
def shipped():
    return {f.label: f for f in ar.load_eigenforms(default_data_path())}


class TestKronecker:
    def test_examples(self):
        assert ar.kronecker(-4, 3) == -1
        assert ar.kronecker(-4, 2) == 0
        # oddness: chi(-7) = chi(-1) chi(7) = (-1)(-1) = 1
        assert ar.kronecker(-4, -7) == 1

    def test_matches_euler_criterion(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            for a in range(-40, 41):
                e = pow(a % p, (p - 1) // 2, p)
                expected = 0 if a % p == 0 else (1 if e == 1 else -1)
                assert ar.kronecker(a, p) == expected, (a, p)

    def test_multiplicative_and_periodic(self):
        rng = random.Random(5)
        for D in (-3, -4, -7, -8, -11, -15, -20):
            mod = abs(D)
            for _ in range(40):
                a, b = rng.randint(1, 500), rng.randint(1, 500)
                assert ar.kronecker(D, a * b) == ar.kronecker(D, a) * ar.kronecker(D, b)
                assert ar.kronecker(D, a + mod) == ar.kronecker(D, a)

    def test_odd_character(self):
        for D in (-3, -4, -7, -8, -11):
            assert ar.kronecker(D, -1) == -1

    def test_admissibility_relation(self):
        # chi(-N) = 1 iff chi(N) = -1, since chi(-1) = -1
        for D in (-4, -3, -7):
            for N in (3, 5, 7, 11, 13, 17, 19):
                if D % N == 0:
                    continue
                assert (ar.kronecker(D, -N) == 1) == (ar.kronecker(D, N) == -1)


def abel_l_one(D):
    """L(1, chi_D) as the integral over [0, 1] of P(t) / (1 - t^|D|), P the
    character polynomial sum chi(a) t^(a-1): both vanish at t = 1, and the
    common factor 1 - t divides out exactly, leaving R(t) / Q(t) with R the
    character's partial sums and Q = 1 + t + ... + t^(|D|-1)."""
    mod = abs(D)
    partial = np.cumsum([ar.kronecker(D, a) for a in range(1, mod - 1)])

    def f(t):
        num = 0.0
        for r in partial[::-1]:
            num = num * t + float(r)
        den = 0.0
        for _ in range(mod):
            den = den * t + 1.0
        return num / den

    return nm.integrate(f, nm.QuadratureSpec(domain=nm.interval(0.0, 1.0),
                                             rel_tol=1e-13, abs_tol=1e-14))


class TestDirichlet:
    def test_classical_values(self):
        assert abs(ar.dirichlet_l(-4, 1) - math.pi / 4.0) <= 1e-10
        assert abs(ar.dirichlet_l(-3, 1) - math.pi / (3.0 * math.sqrt(3.0))) <= 1e-10

    def test_zero_value_relation(self):
        for D in (-3, -4, -7, -8, -11, -19):
            direct = ar.l_zero_finite_sum(D)
            via = ar.dirichlet_l(D, 0)
            assert abs(direct - via) <= 1e-10

    def test_l_zero_minus_four(self):
        assert ar.l_zero_finite_sum(-4) == pytest.approx(0.5)

    def test_class_number_formula_at_zero(self):
        # L(0, chi_D) = h_w(D), both correctly rounded from the same rational
        discs = [D for D in range(-3, -1001, -1) if ar.is_fundamental_discriminant(D)]
        assert len(discs) == 305
        for D in discs:
            assert ar.l_zero_finite_sum(D) == ar.dirichlet_l(D, 0), D

    def test_l_one_within_the_abel_integral(self):
        # the numerical oracle: L(1, chi_D) as the Abel integral of the
        # character series, within its error estimate and 8 ulps
        for D in range(-3, -201, -1):
            if ar.is_fundamental_discriminant(D):
                res = abel_l_one(D)
                value = ar.dirichlet_l(D, 1)
                assert abs(value - res.value) <= res.error + 8 * math.ulp(value), D

    def test_l_one_minus_four_is_pi_over_four(self):
        assert ar.dirichlet_l(-4, 1) == math.pi / 4.0

    def test_unsupported_s(self):
        with pytest.raises(ValueError):
            ar.dirichlet_l(-4, 0.5)
        with pytest.raises(DomainError, match="fundamental"):
            ar.dirichlet_l(5, 1)


class TestClassNumbers:
    def test_weighted_table(self):
        from fractions import Fraction
        known = {-3: Fraction(1, 3), -4: Fraction(1, 2), -7: 1, -8: 1,
                 -11: 1, -12: 1, -15: 2, -16: 1, -19: 1, -20: 2, -23: 3,
                 -24: 2, -43: 1, -47: 5, -67: 1, -71: 7, -163: 1}
        for d, h in known.items():
            assert ar.class_number_weighted(d) == h, d

    def test_invalid(self):
        with pytest.raises(ValueError):
            ar.class_number_weighted(-5)


class TestHurwitzSieve:
    def test_sieve_matches_reduced_form_counts(self):
        # 12 H(n) = 12 sum over f^2 | n of h_w(-n / f^2), class numbers
        # counted one discriminant at a time
        h12 = ar._hurwitz12(4096)
        assert h12[0] == -1
        for n in range(1, 3000):
            expected = sum(12 * ar.class_number_weighted(-n // (f * f))
                           for f in range(1, math.isqrt(n) + 1)
                           if n % (f * f) == 0 and (n // (f * f)) % 4 in (0, 3))
            assert h12[n] == expected, n
            if n % 4 in (1, 2):
                assert h12[n] == 0, n

    def test_hurwitz_kronecker_relation(self):
        # sum_t H(4n - t^2) = 2 sigma(n) - sum_{d | n} min(d, n/d), H(0) = -1/12
        h12 = ar._hurwitz12(8192)
        for n in range(1, 2000):
            tmax = math.isqrt(4 * n)
            lhs = sum(h12[4 * n - t * t] for t in range(-tmax, tmax + 1))
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            rhs = 24 * sum(divisors) - 12 * sum(min(d, n // d) for d in divisors)
            assert lhs == rhs, n

    def test_table_is_cached_per_bound(self):
        assert ar._hurwitz12(64) is ar._hurwitz12(64)
        assert np.array_equal(ar._hurwitz12(64), ar._hurwitz12(128)[:65])

    def test_cached_table_is_read_only(self):
        # every caller gets the one cached array, so none may write into it
        h12 = ar._hurwitz12(64)
        with pytest.raises(ValueError, match="read-only"):
            h12[5] = 0
        assert h12[0] == -1 and h12[3] == 4


class TestFactorize:
    def test_products_of_primes(self):
        for n in range(1, 5000):
            fac = ar._factorize(n)
            assert math.prod(q ** e for q, e in fac.items()) == n, n
            assert list(fac) == sorted(fac) and all(e >= 1 for e in fac.values())
            for q in fac:
                ar._check_prime(q)

    def test_sieve_agrees_with_trial_division(self):
        spf = ar._smallest_prime_factors(5000)
        assert all(spf[n] == min(ar._factorize(n)) for n in range(2, 5001))
        assert ar._primes_up_to(5000) == [n for n in range(2, 5001) if ar._factorize(n) == {n: 1}]
        assert ar._primes_up_to(1) == [] and ar._primes_up_to(2) == [2]
        assert ar._primes_up_to(-3) == []


@functools.lru_cache(maxsize=None)
def hurwitz12(n):
    """12 H(n), an integer, as the sum of h_w(-n/f^2) over f^2 | n."""
    if n == 0:
        return -1
    h = sum((ar.class_number_weighted(-n // (f * f))
             for f in range(1, math.isqrt(n) + 1)
             if n % (f * f) == 0 and (-n // (f * f)) % 4 in (0, 1)), Fraction(0))
    assert (12 * h).denominator == 1
    return int(12 * h)


def literal_trace(N, k, m):
    """The docstring's formula at one (N, k, m), term by term, t of both
    signs: the symbol by kronecker, P_k by its recursion, every divisor."""
    total = 0
    for t in range(-math.isqrt(4 * m), math.isqrt(4 * m) + 1):
        n = 4 * m - t * t
        r = 1 + ar.kronecker(t * t - 4 * m, N)
        h_nN = hurwitz12(n // (N * N)) if n % (N * N) == 0 else 0
        prev, p = 1, t  # P_2, P_3
        for _ in range(k - 3):
            prev, p = p, t * p - m * prev
        total += p * (r * (hurwitz12(n) - h_nN) + (N + 1) * h_nN)
    return (Fraction(-total, 24)
            - sum(min(d, m // d) ** (k - 1) for d in range(1, m + 1) if m % d == 0))


class TestEichlerSelberg:
    def test_t1_equals_dimension(self):
        for N in (3, 5, 7, 11, 13, 19, 23, 31, 41):
            for k in (4, 6, 8, 10):
                assert ar.eichler_selberg_trace(N, k, 1) == ar.dim_cusp_forms(N, k)

    def test_against_the_literal_sum(self):
        # the formula of the docstring written out term by term, t of both
        # signs: the symbol by kronecker, P_k by its own recursion, H(n) as
        # the sum of h_w(-n/f^2) over f^2 | n, every divisor of m
        ks, bound = (4, 6, 10, 40), 300
        gegenbauer = {}  # (t, m) -> {k: P_k(t, m)}
        divisors = {m: [d for d in range(1, m + 1) if m % d == 0] for m in range(1, bound)}
        for m in range(1, bound):
            for t in range(-math.isqrt(4 * m), math.isqrt(4 * m) + 1):
                seq = [1, t]  # P_2, P_3, ...
                for _ in range(max(ks) - 3):
                    seq.append(t * seq[-1] - m * seq[-2])
                gegenbauer[t, m] = {k: seq[k - 2] for k in ks}

        cases = [(N, bound, ks) for N in (2, 3, 13, 59, 61)]
        # a level far above every bound: its root table is indexed by n itself
        cases.append((99991, 60, (4, 6)))
        nonmaximal = set()
        for N, m_bound, ks_N in cases:
            for m in (m for m in range(1, m_bound) if m % N):
                weights = {}  # t -> 12 [r (H(n) - H(n/N^2)) + (N + 1) H(n/N^2)]
                for t in range(-math.isqrt(4 * m), math.isqrt(4 * m) + 1):
                    n = 4 * m - t * t
                    r = 1 + ar.kronecker(t * t - 4 * m, N)
                    h_nN = hurwitz12(n // (N * N)) if n % (N * N) == 0 else 0
                    if n and n % (N * N) == 0:
                        nonmaximal.add((N, m, t))
                    weights[t] = r * (hurwitz12(n) - h_nN) + (N + 1) * h_nN
                for k in ks_N:
                    trace = (Fraction(-sum(gegenbauer[t, m][k] * w for t, w in weights.items()), 24)
                             - sum(min(d, m // d) ** (k - 1) for d in divisors[m]))
                    assert ar.eichler_selberg_trace(N, k, m) == trace, (N, k, m)
        assert {(2, 1, 0), (3, 7, 1), (13, 127, 1)} <= nonmaximal

    @pytest.mark.parametrize("N, k, X, moduli", [(2, 10, 1 << 13, 2), (19, 14, 1 << 14, 3)])
    def test_multimodular_table_against_the_literal_sum(self, monkeypatch, N, k, X, moduli):
        # a table m <= X/4 whose bound needs 2^64 and one or two primes:
        # sampled traces equal the docstring's sum, those at m <= X/8 read
        # from the table directly, the rest through eichler_selberg_trace
        counts = []
        lift = ar._lift
        monkeypatch.setattr(ar, "_lift", lambda res, mods: counts.append(len(mods))
                            or lift(res, mods))
        ar._trace_table.cache_clear()
        table = ar._trace_table(N, k, X)
        for m in (1, 3, X // 16 + 1, X // 8 - 1):
            assert table[m - 1] == literal_trace(N, k, m), (N, k, m)
        for m in (X // 8 + 1, X // 8 + 3, 3 * X // 16 + 1, X // 4 - 1):
            assert ar.eichler_selberg_trace(N, k, m) == literal_trace(N, k, m), (N, k, m)
        assert counts == [moduli]

    @pytest.mark.parametrize("N, k", [(3, 4), (59, 6), (19, 10)])
    @pytest.mark.parametrize("X", [1 << 11, 1 << 12, 1 << 13])
    def test_every_trace_table_is_a_prefix_of_the_next(self, N, k, X):
        # one table shape: the table of bound 2X holds the table of bound X
        # at its start, and so does its divisor term
        assert ar._trace_table(N, k, 2 * X)[:X // 4] == ar._trace_table(N, k, X)
        assert (ar._divisor_term(k, X // 2)[:X // 4].tolist()
                == ar._divisor_term(k, X // 4).tolist())

    def test_corrupted_residue_refused_by_the_lift(self, monkeypatch):
        # one residue off by one moves the lift far outside the bound
        N, k, m = 19, 10, 1500  # X = 2^13: 2^64 and one prime
        lift = ar._lift

        def corrupted(residues, moduli):
            assert len(moduli) == 2
            residues[1][m - 1] = (residues[1][m - 1] + 1) % moduli[1]
            return lift(residues, moduli)

        monkeypatch.setattr(ar, "_lift", corrupted)
        ar._trace_table.cache_clear()
        with pytest.raises(InvariantViolation, match=rf"N = 19, k = 10, m = {m}\b.*bound"):
            ar.eichler_selberg_trace(N, k, m)

    def test_lone_modulus_lift_is_centred(self):
        # a lone prime q lifts into [-q/2, q/2) like a product of moduli;
        # a lone 2^64 is the int64 view
        q = (1 << 31) - 1
        residues = np.array([(-5) % q, 5, q // 2, q // 2 + 1], dtype=np.uint64)
        assert ar._lift([residues], (q,)).tolist() == [-5, 5, q // 2, -(q // 2)]
        word = np.array([-5, 5], dtype=np.int64).view(np.uint64)
        assert ar._lift([word], (ar._WORD,)).tolist() == [-5, 5]

    def test_root_tables(self):
        # r(n) = 1 + (-n | N) at table[n % M] for every n <= X, in at most
        # min(M, X + 1) bytes: never more than the 12 H table up to X
        for N in (2, 3, 5, 7, 11, 13, 59, 97, 101, 99991, 10 ** 9 + 7):
            for X in (4, 5, 8, 64, 100, 2048, 4096):
                M, table = (8 if N == 2 else N), ar._root_counts(N, X)
                assert len(table) == min(M, X + 1), (N, X)
                assert [table[n % M] for n in range(X + 1)] == [
                    1 + ar.kronecker(-n, N) for n in range(X + 1)], (N, X)

    def test_exact_ints_pass_the_checks_at_once(self, monkeypatch):
        expected = ar.eichler_selberg_trace(7, 4, 600)
        converted = []
        as_int = ar._as_int
        monkeypatch.setattr(ar, "_as_int",
                            lambda x, what: converted.append(what) or as_int(x, what))
        assert ar.eichler_selberg_trace(7, 4, 600) == expected
        assert converted == []
        assert ar.eichler_selberg_trace(np.int64(7), 4, np.int64(600)) == expected
        assert converted == ["N", "m"]

    def test_primality_proved_once_per_table(self, monkeypatch):
        proofs = []
        check_prime = ar._check_prime
        monkeypatch.setattr(ar, "_check_prime",
                            lambda N: proofs.append(N) or check_prime(N))
        ar._root_counts.cache_clear()
        ar.eichler_selberg_trace(101, 4, 600)   # X = 2^12
        ar.eichler_selberg_trace(101, 6, 590)   # X = 2^12 again
        assert proofs == [101]
        ar.eichler_selberg_trace(101, 4, 1100)  # X = 2^13
        assert proofs == [101, 101]

    @pytest.mark.parametrize("N", [3, 59, 61])
    @pytest.mark.parametrize("k", [4, 6])
    def test_first_table_holds_every_m_to_512(self, N, k):
        # one table for every m <= 512; 513 (514 at N = 3) opens the next
        # table, m <= 1024
        ar._trace_table.cache_clear()
        for m in range(1, 513):
            if m % N:
                ar.eichler_selberg_trace(N, k, m)
        assert ar._trace_table.cache_info().misses == 1
        first_above = 513 if 513 % N else 514
        for m in (1, 511, 512, first_above):
            assert ar.eichler_selberg_trace(N, k, m) == literal_trace(N, k, m), (N, k, m)
        assert ar._trace_table.cache_info().misses == 2

    def test_no_prime_sieve_when_the_word_suffices(self, monkeypatch):
        # a k = 4 table at m <= 512 needs 2^64 alone: no CRT prime, no sieve
        def no_sieve(n):
            raise RuntimeError(f"prime sieve up to {n} built")

        monkeypatch.setattr(ar, "_primes_up_to", no_sieve)
        ar._crt_primes.cache_clear()
        ar._trace_table.cache_clear()
        assert ar.eichler_selberg_trace(59, 4, 500) == literal_trace(59, 4, 500)

    def test_one_prime_sieve_per_process(self, monkeypatch):
        # the first k = 40 table needs 2^64 and five primes below 2^31: each
        # count extends the one before from one list of trial primes
        sieves = []
        primes_up_to = ar._primes_up_to
        monkeypatch.setattr(ar, "_primes_up_to",
                            lambda n: sieves.append(n) or primes_up_to(n))
        for cached in (ar._trial_primes, ar._crt_primes, ar._trace_table):
            cached.cache_clear()
        assert ar.eichler_selberg_trace(3, 40, 100) == literal_trace(3, 40, 100)
        assert sieves == [46340]
        assert ar._crt_primes.cache_info().currsize == 6  # counts 0 .. 5

    def test_crt_primes_are_the_largest_below_2_31(self):
        def is_prime(n):  # Miller-Rabin, deterministic below 3.2e9 at these bases
            d, s = n - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            for a in (2, 3, 5, 7):
                x = pow(a, d, n)
                if x not in (1, n - 1) and all(
                        pow(x, 2 ** r, n) != n - 1 for r in range(1, s)):
                    return False
            return True

        primes = [c for c in range((1 << 31) - 1, (1 << 31) - 200, -1) if is_prime(c)]
        ar._crt_primes.cache_clear()
        assert ar._crt_primes(6) == tuple(primes[:6])
        assert ar._crt_primes(3) == tuple(primes[:3])

    @pytest.mark.parametrize("value", [True, 4.0, "4"], ids=repr)
    @pytest.mark.parametrize("position, what", [(0, "N"), (1, "weight k"), (2, "m")])
    def test_non_int_arguments_refused(self, position, what, value):
        # the exact-int fast path leaves every other type on the checked path
        args = [7, 4, 5]
        args[position] = value
        with pytest.raises(DomainError,
                           match=re.escape(f"{what} = {value!r} is not an integer")):
            ar.eichler_selberg_trace(*args)

    def test_numpy_ints_accepted(self):
        trace = ar.eichler_selberg_trace(np.int64(7), np.int64(4), np.int64(5))
        assert type(trace) is int and trace == ar.eichler_selberg_trace(7, 4, 5)

    @pytest.mark.parametrize("N", [3, 59])
    def test_either_side_of_the_first_table(self, N):
        # 511 and 512 read the first table directly; 513 and 1024 the
        # table of m <= 1024, and 1025 the one of m <= 2048
        for m in (511, 512, 513, 1024, 1025):
            if m % N:
                assert ar.eichler_selberg_trace(N, 4, m) == literal_trace(N, 4, m), (N, m)
            else:
                with pytest.raises(DomainError, match="gcd"):
                    ar.eichler_selberg_trace(N, 4, m)

    def test_divisor_table_shared_by_every_level(self):
        ar._divisor_term.cache_clear()
        ar._trace_table.cache_clear()
        ar.eichler_selberg_trace(3, 6, 1)
        ar.eichler_selberg_trace(59, 6, 1)
        info = ar._divisor_term.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for k, hi in ((6, 512), (40, 512), (4, 1024)):
            table = ar._divisor_term(k, hi)
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
            assert table.tolist() == [
                sum(min(d, m // d) ** (k - 1) for d in range(1, m + 1) if m % d == 0)
                for m in range(1, hi + 1)], (k, hi)

    @pytest.mark.parametrize("N", [9, 91])
    def test_composite_level_refused_on_every_call(self, N):
        # lru_cache keeps no exception, so no call finds a table for N
        for _ in range(3):
            with pytest.raises(DomainError, match=f"N = {N} is not prime"):
                ar.eichler_selberg_trace(N, 4, 2)

    def test_against_qexp_oracle(self):
        # the seed file's q-expansions: the coefficient sums are the traces,
        # exact for the integer forms at 5 and 7 and rounded to them at 11
        # from within HECKE_REL_TOL of dim d(m) m^(3/2)
        forms = ar.load_eigenforms(default_data_path())
        divisors = ar._divisor_counts(2000)
        for N in (5, 7, 11):
            batch = [f for f in forms if f.level == N]
            assert len(batch) == ar.dim_cusp_forms(N, 4)
            for m in (m for m in range(1, 2001) if m % N):
                total = sum(f.c(m) for f in batch)
                tr = ar.eichler_selberg_trace(N, 4, m)
                assert abs(total - tr) <= ar.HECKE_REL_TOL * len(batch) * divisors[m] * m ** 1.5
                assert round(total) == tr and (N == 11 or total == tr), (N, m)

    def test_seed_file_is_the_initial_commit(self):
        # the trace oracle above must never be regenerated from the trace formula
        with open(default_data_path(), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "e15b3441c1dd6f8b89356bf678daa4ea763482906c6ebb67fa5579046b1bb935"

    def test_exact_beyond_int64(self):
        # at k = 40 the traces pass 2^63; they stay exact Python ints within
        # the Deligne bound dim * 2 p^((k-1)/2)
        dim = ar.dim_cusp_forms(13, 40)
        assert ar.eichler_selberg_trace(13, 40, 1) == dim
        for p in (389, 397):
            tr = ar.eichler_selberg_trace(13, 40, p)
            assert type(tr) is int and abs(tr) > 2 ** 63
            assert abs(tr) <= 2 * dim * p ** 19.5

    def test_conductor_corner_cases(self):
        # discriminants divisible by N^2 exercise the nonmaximal embedding;
        # through modforms, the trace shim that the benchmark imports
        sp5 = mf.CuspSpace(5, 4, length=160)
        assert sp5.trace_hecke(31) == ar.eichler_selberg_trace(5, 4, 31)
        sp7 = mf.CuspSpace(7, 4, length=200)
        assert sp7.trace_hecke(43) == ar.eichler_selberg_trace(7, 4, 43)

    def test_gcd_rejected(self):
        with pytest.raises(ValueError):
            ar.eichler_selberg_trace(5, 4, 10)

    @pytest.mark.parametrize("k", [2, 5])
    def test_weight_refused(self, k):
        # one weight rule for the trace formula, the dimension formula and arch_local
        for call in (lambda: ar.eichler_selberg_trace(5, k, 2),
                     lambda: ar.dim_cusp_forms(5, k)):
            with pytest.raises(DomainError, match="even integer >= 4"):
                call()


class TestEigenforms:
    def test_load_and_validate(self):
        forms = ar.load_eigenforms(default_data_path())
        assert [f.label for f in forms] == ["5.4.a", "7.4.a", "11.4.a", "11.4.b"]
        for f in forms:
            assert f.c(1) == 1
            assert f.n_max == 2000

    def test_coefficient_past_n_max_or_below_one_is_refused(self, shipped):
        f = shipped["7.4.a"]
        assert f.c(2000) == f.coeffs[-1]
        with pytest.raises(InsufficientCoefficients,
                           match=r"^7\.4\.a: c_2001 .* \(n = 2001, n_max = 2000\)$"):
            f.c(2001)
        with pytest.raises(InsufficientCoefficients, match="n = 2003"):
            f.a(2003)
        for n in (0, -1):
            with pytest.raises(DomainError, match=f"7.4.a: no coefficient c_{n}"):
                f.c(n)

    def test_not_utf8_refused_naming_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b"\n\n" + '{"label": "f\u00e9"}\n'.encode("latin-1"))
        with pytest.raises(InvariantViolation, match=f"^{re.escape(str(path))}:3: not UTF-8"):
            ar.load_eigenforms(path)
        assert cli.main(["lvalues", "--forms", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:3: not UTF-8" in err, err

    def test_deligne_bound_loaded(self):
        forms = ar.load_eigenforms(default_data_path())
        for f in forms:
            for p in ar._primes_up_to(f.n_max):
                if p != f.level:
                    assert abs(f.a(p)) <= 2.0 + 1e-9

    def test_bad_multiplicativity_rejected(self, tmp_path):
        rec = {"schema": 1, "level": 5, "weight": 4, "label": "bad",
               "coeffs": [1, -4, 2, 8, -5, 0]}  # c_6 != c_2 c_3
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(InvariantViolation, match="n = 6"):
            ar.load_eigenforms(path)

    def test_deligne_violation_rejected(self, tmp_path):
        # c_2 = 7 gives |a_2| = 7 / 2^1.5 > 2
        rec = {"schema": 1, "level": 5, "weight": 4, "label": "bad",
               "coeffs": [1, 7, 2]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(InvariantViolation, match="deligne"):
            ar.load_eigenforms(path)

    @pytest.mark.parametrize("label, n, delta", [
        ("5.4.a", 4, 1),  # prime-power recursion
        ("5.4.a", 25, 1),  # recursion at p = N
        ("5.4.a", 6, 1),  # multiplicativity
        ("7.4.a", 49, 7),
        ("11.4.b", 1000, 1),
        ("11.4.a", 121, 1e-3),  # 2.5e-7 of the bound d(121) 121^(3/2)
    ])
    def test_corrupted_coefficient_refused(self, shipped, label, n, delta):
        form = shipped[label]
        coeffs = list(form.coeffs)
        coeffs[n - 1] += delta
        bad = dataclasses.replace(form, coeffs=coeffs)
        with pytest.raises(InvariantViolation,
                           match=rf"^{label}: .*\(n = {n}, relation = hecke\)$"):
            bad.validate()

    @pytest.mark.parametrize("w, c_level", [(-1, -5), (None, -4)])
    def test_level_coefficient_refused(self, tmp_path, w, c_level):
        # c_N = -w N^(k/2-1): 5.4.a has c_5 = -5, so w = +1
        with open(default_data_path(), encoding="utf-8") as fh:
            rec = json.loads(fh.readline())
        rec["atkin_lehner"] = w
        rec["coeffs"][4] = c_level
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(InvariantViolation,
                           match=r"^5\.4\.a: c_5 = .*\(n = 5, relation = atkin-lehner\)$"):
            ar.load_eigenforms(path)

    def test_divisor_counts(self):
        d = ar._divisor_counts(3000)
        assert d[0] == 0
        for n in range(1, 3001):
            assert d[n] == sum(1 for j in range(1, n + 1) if n % j == 0), n

    def test_schema_required(self, tmp_path):
        rec = {"level": 5, "weight": 4, "label": "x", "coeffs": [1]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(InvariantViolation, match="schema"):
            ar.load_eigenforms(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(InvariantViolation, match="parse error"):
            ar.load_eigenforms(path)


class TestMalformedRecords:
    GOOD = json.dumps({"schema": 1, "level": 5, "weight": 4, "label": "ok",
                       "coeffs": [1, -4, 2, 8, -5, -8]})

    @pytest.mark.parametrize("record, match", [
        ([1, 2], "record is not a JSON object"),
        ("5.4.a", "record is not a JSON object"),
        ({"schema": 1, "level": 5, "weight": 4, "coeffs": [1]}, "record lacks label"),
        ({"schema": 1, "label": "x", "coeffs": [1]}, "record lacks level, weight"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x"}, "record lacks coeffs"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x", "coeffs": []},
         "coeffs must be a non-empty list"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x", "coeffs": 1},
         "coeffs must be a non-empty list"),
        ({"schema": 1, "level": "5", "weight": 4, "label": "x", "coeffs": [1]},
         "level and weight must be integers"),
        ({"schema": 1, "level": 5, "weight": True, "label": "x", "coeffs": [1]},
         "level and weight must be integers"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x", "coeffs": [True]},
         "bad coefficient c_1 = True"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x", "coeffs": [1, "-4x"]},
         "bad coefficient c_2 = '-4x'"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x", "coeffs": [1, "nan"]},
         "bad coefficient c_2 = 'nan'"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x", "coeffs": [1, None]},
         "bad coefficient c_2 = None"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x", "atkin_lehner": "+",
          "coeffs": [1]}, "atkin_lehner must be 1 or -1"),
        ({"schema": 1, "level": 5, "weight": 4, "label": "x", "atkin_lehner": True,
          "coeffs": [1]}, "atkin_lehner must be 1 or -1"),
        # a form given twice passes a count of forms per level
        (json.loads(GOOD), "label 'ok' repeats line 1"),
        # a bool, a float or a number where the first record has an int or a string
        ({**json.loads(GOOD), "schema": True}, "missing or unsupported schema version"),
        ({**json.loads(GOOD), "schema": 1.0}, "missing or unsupported schema version"),
        ({**json.loads(GOOD), "atkin_lehner": 1.0}, "atkin_lehner must be 1 or -1"),
        ({**json.loads(GOOD), "label": 7}, "label must be a string"),
    ], ids=lambda x: x if isinstance(x, str) else None)
    def test_refused_naming_path_and_line(self, tmp_path, capsys, record, match):
        path = tmp_path / "bad.jsonl"
        path.write_text(self.GOOD + "\n" + json.dumps(record) + "\n")
        with pytest.raises(InvariantViolation, match=f"^{path}:2: {re.escape(match)}$"):
            ar.load_eigenforms(path)
        # the CLI reports it as bad input: exit 2, one line, no traceback
        assert cli.main(["lvalues", "--forms", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:2: " in err, err

    @pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400), int(sys.float_info.max) + 1],
                             ids=["10^400", "-10^400", "float max + 1"])
    def test_integer_coefficient_past_the_float_range(self, tmp_path, capsys, big):
        # np.array(coeffs, dtype=float) in validate raised OverflowError
        record = {**json.loads(self.GOOD), "label": "x", "coeffs": [1, big]}
        path = tmp_path / "bad.jsonl"
        path.write_text(self.GOOD + "\n" + json.dumps(record) + "\n")
        with pytest.raises(InvariantViolation,
                           match=f"^{re.escape(str(path))}:2: bad coefficient c_2 = -?1"):
            ar.load_eigenforms(path)
        assert cli.main(["lvalues", "--forms", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad coefficient c_2" in err, err

    def test_largest_float_integer_is_parsed(self, tmp_path):
        # in the float range, so the record is refused by the eigenvalue bound
        record = {**json.loads(self.GOOD), "coeffs": [1, int(sys.float_info.max)]}
        path = tmp_path / "big.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(InvariantViolation, match="relation = deligne"):
            ar.load_eigenforms(path)

    def test_integer_past_the_digit_limit(self, tmp_path):
        # json.loads raises a plain ValueError past the int digit limit
        # (sys.get_int_max_str_digits, 4300 by default): a parse error; an
        # interpreter without the limit parses it, past the float range
        record = self.GOOD.replace("-4", "1" * 5000)
        path = tmp_path / "digits.jsonl"
        path.write_text(record + "\n")
        with pytest.raises(InvariantViolation,
                           match=f"^{re.escape(str(path))}:1: (parse error|bad coefficient)"):
            ar.load_eigenforms(path)


class TestHeckeCoefficient:
    @pytest.mark.parametrize("label", ["5.4.a", "7.4.a"])
    def test_eigenform_is_an_eigenvector(self, shipped, label):
        # T_m f = c_m f for m prime to N, and U_N f = c_N f, in integers
        f = shipped[label]
        N = f.level
        for m in [m for m in range(1, f.n_max + 1) if m % N] + [N]:
            for n in range(1, f.n_max // m + 1):
                assert ar.hecke_coefficient(f.c, m, n, 4, N) == f.c(m) * f.c(n), (m, n)

    def test_skips_divisors_divisible_by_the_level(self):
        # gcd(10, 10) has divisors 1, 2, 5, 10: at N = 5 only 1 and 2 count,
        # at N = 3 all four
        coeff = {100: 7, 25: 3, 4: 11, 1: 13}.__getitem__
        assert ar.hecke_coefficient(coeff, 10, 10, 4, 5) == 7 + 2 ** 3 * 3
        assert ar.hecke_coefficient(coeff, 10, 10, 4, 3) == 7 + 8 * 3 + 125 * 11 + 1000 * 13

    def test_index_past_the_series_raises(self):
        with pytest.raises(IndexError):
            ar.hecke_coefficient([0, 1, 2].__getitem__, 2, 2, 4, 5)


class TestHeckeExtend:
    def test_prime_power_recursion(self):
        k = 4
        primes = {p: 0 for p in ar._primes_up_to(50)}
        primes[2] = -4
        primes[3] = 2
        primes[5] = -5
        table = ar.hecke_extend(primes, 5, k, 50)
        assert table[0] == 1
        assert table[3] == (-4) ** 2 - 2 ** (k - 1)  # c_4 = c_2^2 - 2^(k-1)

    def test_matches_reference_tables(self, shipped):
        # integer forms exactly; the decimal pair within 5 eps n^(3/2)
        for f in shipped.values():
            primes = {p: f.c(p) for p in ar._primes_up_to(f.n_max)}
            table = ar.hecke_extend(primes, f.level, f.weight, f.n_max)
            if f.is_rational():
                assert table == f.coeffs
            for n, (c, e) in enumerate(zip(f.coeffs, table), start=1):
                assert abs(c - e) <= 5 * 2.0 ** -52 * n ** 1.5, (f.label, n)

    def test_missing_prime(self):
        with pytest.raises(InvariantViolation, match="c_3"):
            ar.hecke_extend({2: 1}, 5, 4, 10)


class TestDim2Extraction:
    def test_pair_power_sums_match_traces(self):
        # the conjugate pair at level 11 satisfies Newton's identities
        # against traces of T_p and T_(p^2)
        forms = [f for f in ar.load_eigenforms(default_data_path())
                 if f.level == 11]
        assert len(forms) == 2
        for p in (2, 3, 5, 7, 13):
            e1 = ar.eichler_selberg_trace(11, 4, p)
            tr_p2 = ar.eichler_selberg_trace(11, 4, p * p)
            power2 = tr_p2 + p ** 3 * 2  # trace of T_p^2 on the 2-dim space
            c = [f.c(p) for f in forms]
            assert abs(sum(c) - e1) <= 1e-8 * max(abs(e1), 1.0)
            assert abs(c[0] ** 2 + c[1] ** 2 - power2) <= 1e-6 * max(abs(power2), 1.0)


class TestAdmissibleLevels:
    def test_without_dim_filter(self):
        levels = ar.admissible_levels(-4, 13, 30)
        assert levels == [3, 7, 11, 19, 23]
        assert ar.admissible_levels(-4, 13, -5) == []
