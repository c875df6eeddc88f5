import json
import math
import random

import pytest

from modlavg import arith as ar
from modlavg import modforms as mf
from modlavg.errors import InvariantViolation
from modlavg.harness import default_data_path


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


class TestDirichlet:
    def test_classical_values(self):
        assert abs(ar.dirichlet_l(-4, 1) - math.pi / 4.0) <= 1e-10
        assert abs(ar.dirichlet_l(-3, 1) - math.pi / (3.0 * math.sqrt(3.0))) <= 1e-10

    def test_zero_value_relation(self):
        for D in (-3, -4, -7, -8, -11, -19):
            direct = ar.l_zero_finite_sum(D)
            via = ar.l_zero_via_l_one(D)
            assert abs(direct - via) <= 1e-10

    def test_l_zero_minus_four(self):
        assert ar.l_zero_finite_sum(-4) == pytest.approx(0.5)

    def test_unsupported_s(self):
        with pytest.raises(ValueError):
            ar.dirichlet_l(-4, 0.5)
        with pytest.raises(ValueError):
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


class TestEichlerSelberg:
    def test_t1_equals_dimension(self):
        for N in (3, 5, 7, 11, 13, 19, 23, 31, 41):
            for k in (4, 6, 8, 10):
                assert ar.eichler_selberg_trace(N, k, 1) == ar.dim_cusp_forms(N, k)

    def test_against_qexp_oracle(self):
        sp = mf.CuspSpace(5, 4, length=200)
        for m in [m for m in range(1, 25) if m % 5]:
            assert sp.trace_hecke(m) == ar.eichler_selberg_trace(5, 4, m)

    def test_conductor_corner_cases(self):
        # discriminants divisible by N^2 exercise the nonmaximal embedding
        sp5 = mf.CuspSpace(5, 4, length=160)
        assert sp5.trace_hecke(31) == ar.eichler_selberg_trace(5, 4, 31)
        sp7 = mf.CuspSpace(7, 4, length=200)
        assert sp7.trace_hecke(43) == ar.eichler_selberg_trace(7, 4, 43)

    def test_reference_data_sums(self):
        forms = ar.load_eigenforms(default_data_path())
        primes = [p for p in ar._primes_up_to(50)]
        for N in (5, 7, 11):
            batch = [f for f in forms if f.level == N]
            for p in primes:
                if p == N:
                    continue
                total = sum(f.c(p) for f in batch)
                tr = ar.eichler_selberg_trace(N, 4, p)
                assert abs(total - tr) <= 1e-6 * max(abs(tr), 1.0), (N, p)
                if all(f.is_rational() for f in batch):
                    assert round(total) == tr

    def test_gcd_rejected(self):
        with pytest.raises(ValueError):
            ar.eichler_selberg_trace(5, 4, 10)


class TestEigenforms:
    def test_load_and_validate(self):
        forms = ar.load_eigenforms(default_data_path())
        assert [f.label for f in forms] == ["5.4.a", "7.4.a", "11.4.a", "11.4.b"]
        for f in forms:
            assert f.c(1) == 1
            assert f.n_max == 2000

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

    def test_matches_reference_tables(self):
        forms = ar.load_eigenforms(default_data_path())
        for f in forms:
            if f.level not in (5, 7):
                continue
            primes = {p: f.c(p) for p in ar._primes_up_to(500)}
            table = ar.hecke_extend(primes, f.level, f.weight, 500)
            assert table == f.coeffs[:500]

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
    def test_headline_configuration(self):
        levels = ar.admissible_levels(-4, 13, 60, max_dim=2, k=4)
        assert levels == [3, 7, 11]

    def test_without_dim_filter(self):
        levels = ar.admissible_levels(-4, 13, 30)
        assert levels == [3, 7, 11, 19, 23]
