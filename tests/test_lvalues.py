import dataclasses
import math
import re

import numpy as np
import pytest

from modlavg import lvalues as lv
from modlavg.arith import Eigenform, _primes_up_to, hecke_extend, kronecker, load_eigenforms
from modlavg.errors import (
    AccuracyError,
    DomainError,
    InsufficientCoefficients,
    InvariantViolation,
)
from modlavg.harness import default_data_path
from modlavg.newforms import newforms


@pytest.fixture(scope="module")
def forms():
    return {f.label: f for f in load_eigenforms(default_data_path())}


class TestQExpansion:
    def test_decay_at_infinity(self, forms):
        f = forms["5.4.a"]
        hi = lv.q_expansion_eval(f, 0.3 + 6.0j)
        lo = lv.q_expansion_eval(f, 0.3 + 2.0j)
        assert abs(hi) < 1e-14
        assert abs(hi) < abs(lo)

    def test_linearity(self, forms):
        f = forms["7.4.a"]
        z = 0.21 + 0.6j
        doubled = Eigenform(level=7, weight=4, label="x",
                            coeffs=[2 * c for c in f.coeffs])
        assert lv.q_expansion_eval(doubled, z) == pytest.approx(
            2.0 * lv.q_expansion_eval(f, z), rel=1e-13)

    def test_array_equals_points(self, forms):
        for f in forms.values():
            for y in (0.08, 0.3, 2.0):
                zs = np.linspace(-0.5, 0.5, 9) + 1j * y
                values = lv.q_expansion_eval(f, zs)
                assert values.shape == zs.shape
                for z, v in zip(zs, values):
                    assert lv.q_expansion_eval(f, z) == v

    def test_truncated_tail_within_tolerance(self, forms):
        # the full Horner sum over all stored coefficients is the reference;
        # sqrt(3)/118 is the norm's lowest height at level 59
        for f in forms.values():
            for y in (0.08, 0.3, 2.0, math.sqrt(3.0) / 118.0):
                zs = np.linspace(-0.5, 0.5, 9) + 1j * y
                q = np.exp(2j * np.pi * zs)
                full = np.zeros_like(q)
                for c in reversed(f.coeffs):
                    full = full * q + c
                full *= q
                gap = np.max(np.abs(lv.q_expansion_eval(f, zs) - full))
                assert gap <= lv.QEXP_TAIL_TOL

    def test_tail_bound_at_lowest_norm_height(self):
        # sqrt(3)/(2N) at N = 59: e^(-2 pi y) = 0.912, so the majorant's
        # ratio lies between 0.9 and 1 at every start
        y = math.sqrt(3.0) / 118.0
        t = math.exp(-2.0 * math.pi * y)
        for start in (40, 100, 600, 1500):
            bound = lv._tail_bound(4, y, start)
            brute = math.fsum(n ** 2.5 * t ** n for n in range(start, start + 5000))
            assert math.isfinite(bound) and bound >= brute, start

    def test_insufficient_coefficients(self, forms):
        f = forms["5.4.a"]
        with pytest.raises(InsufficientCoefficients):
            lv.q_expansion_eval(f, 1e-5j)

    def test_domain(self, forms):
        with pytest.raises(DomainError):
            lv.q_expansion_eval(forms["5.4.a"], 0.3 - 1j)
        with pytest.raises(DomainError):
            lv.q_expansion_eval(forms["5.4.a"], np.array([0.3 + 1j, 0.1]))


class TestFrickeSign:
    def test_matches_stored_signs(self, forms):
        for f in forms.values():
            assert lv.fricke_sign(f) == f.atkin_lehner

    def test_identity_holds_at_random_points(self, forms):
        f = forms["5.4.a"]
        w = lv.fricke_sign(f)
        N, k = f.level, f.weight
        for z in (0.11 + 0.52j, -0.2 + 0.47j, 0.05 + 0.61j,
                  0.31 + 0.44j, -0.08 + 0.39j):
            lhs = lv.q_expansion_eval(f, -1.0 / (N * z))
            rhs = w * N ** (k / 2.0) * z ** k * lv.q_expansion_eval(f, z)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_contradiction_detected(self, forms):
        f = forms["5.4.a"]
        flipped = Eigenform(level=5, weight=4, label="flip",
                            coeffs=list(f.coeffs), atkin_lehner=-1)
        with pytest.raises(InvariantViolation, match="contradicts"):
            lv.fricke_sign(flipped)

    def test_one_evaluator_call_per_side(self, forms, monkeypatch):
        calls = []

        def counted(form, z):
            calls.append(np.shape(z))
            return clean(form, z)

        clean = lv.q_expansion_eval
        monkeypatch.setattr(lv, "q_expansion_eval", counted)
        lv.fricke_sign(forms["11.4.b"])
        assert calls == [(5,), (5,)]
        calls.clear()
        lv.modularity_residual(forms["11.4.b"])
        assert calls == [(10, 4), (10, 4)]


class TestModularity:
    def test_shipped_forms_within_budget(self, forms):
        for f in forms.values():
            assert lv.modularity_residual(f) <= 1.0, f.label

    def test_gamma0_rows(self):
        # ad - bN = 1, and the rows sit at height about 1/N on both sides
        mats, z, gz, J = lv._gamma0_rows(11, 4)
        assert [d for *_, d in mats] == list(range(1, 11))
        for (a, b, c, d), zs, gs, js in zip(mats, z, gz, J):
            assert c == 11 and a * d - b * c == 1 and 0 < a < 11
            assert np.allclose((a * zs + b) / (c * zs + d), gs, rtol=1e-12)
            assert np.allclose((c * zs + d) ** 4, js, rtol=1e-12)
            assert np.all(0.95 / 11 < gs.imag) and np.all(0.95 / 11 < zs.imag)

    def test_rows_count_from_the_points(self):
        # the reference builds the rows, as _rows_count once did, and takes
        # the lowest of the rounded heights of the points and their exact
        # images (weight 0 skips the factors J); the closed-form heights
        # are within an ulp of those
        for N in _primes_up_to(100):
            z = np.array([lv.FRICKE_POINTS]) / math.sqrt(N)
            _, z0, gz0, _ = lv._gamma0_rows.__wrapped__(N, 0)
            rows = (z, lv._exact_images(z, [(0, -1, N, 0)], 0)[0], z0, gz0)
            y = min(float(h.imag.min()) for h in rows)
            for k in (4, 6, 8, 10):
                need, height = lv._rows_count(N, k)
                assert need == lv._tail_count(k, y), (N, k)
                assert height == pytest.approx(y, rel=1e-15), (N, k)

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_rows_count_immune_to_rounding_of_the_height(self, k):
        # at every prime N < 1000 the count does not move when the height
        # moves by far more than the ulp between the closed form and the
        # rows' own rounded heights
        for N in _primes_up_to(1000):
            need, y = lv._rows_count(N, k)
            assert lv._tail_count(k, y * (1.0 - 1e-12)) == need == lv._tail_count(k, y * (1.0 + 1e-12)), N

    def test_rows_count_builds_no_rows(self):
        before = lv._gamma0_rows.cache_info().currsize
        lv._rows_count(1009, 4)
        assert lv._gamma0_rows.cache_info().currsize == before

    def test_corrupted_c2_exceeds_budget(self, forms):
        f = forms["7.4.a"]
        primes = {p: f.c(p) for p in _primes_up_to(f.n_max)}
        primes[2] += 1
        bad = dataclasses.replace(f, coeffs=hecke_extend(primes, 7, 4, f.n_max))
        bad.validate()  # still a Hecke-multiplicative table
        assert lv.modularity_residual(bad) > 1e6
        with pytest.raises(InvariantViolation, match="within budget for 0 signs"):
            lv.fricke_sign(bad)

    def test_rounding_terms_alone_cover_the_shipped_forms(self, forms, monkeypatch):
        # the data term HECKE_REL_TOL D dominates the budget; the exact
        # shipped tables stay within it without that term too
        monkeypatch.setattr(lv, "HECKE_REL_TOL", 0.0)
        for f in forms.values():
            assert lv.modularity_residual(f) <= 1.0, f.label
            assert lv.fricke_sign(f) == f.atkin_lehner


SHIPPED = ("5.4.a", "7.4.a", "11.4.a", "11.4.b")
SWEEP_TWISTS = (-3, -4, -7, -8, -11)


class TestFunctionalEquation:
    def test_residuals_untwisted(self, forms):
        for label in SHIPPED:
            comp = lv.CompletedL(forms[label])
            k = comp.form.weight
            for s_an in (0.3, 0.5, 0.7):
                s = s_an + (k - 1) / 2.0
                assert comp.fe_residual(s) <= 1e-7

    def test_residuals_twisted(self, forms):
        for label in SHIPPED:
            for twist in (-3, -4):
                comp = lv.CompletedL(forms[label], twist=twist)
                k = comp.form.weight
                for s_an in (0.3, 0.5, 0.7):
                    s = s_an + (k - 1) / 2.0
                    assert comp.fe_residual(s) <= 1e-7

    @pytest.mark.parametrize("twist", [None, -3, -4])
    def test_reflection_is_a_split_point_change(self, forms, twist):
        # Lambda(k - s, t) = eps Lambda(s, 1/t) term by term, so comparing s
        # with k - s at two split points is one more split-point spread
        for label in SHIPPED:
            comp = lv.CompletedL(forms[label], twist=twist)
            k = comp.form.weight
            for s_an in (0.3, 0.5, 0.7):
                s = s_an + (k - 1) / 2.0
                for t in (0.85, 1.2):
                    lhs = comp._split_value(k - s, t, comp.eps)
                    rhs = comp.eps * comp._split_value(s, 1.0 / t, comp.eps)
                    assert abs(lhs - rhs) <= 1e-14 * comp._scale

    def test_split_points_share_one_gamma_call_per_exponent(self, forms, monkeypatch):
        # the sums at all three SPLIT_POINTS take one gamma_upper call for
        # each exponent s and k - s; another split point takes its own
        calls = []
        gamma_upper = lv.gamma_upper

        def counted(a, x):
            calls.append(a)
            return gamma_upper(a, x)

        monkeypatch.setattr(lv, "gamma_upper", counted)
        comp = lv.CompletedL(forms["7.4.a"], twist=-4)
        assert calls == [2.35, 4 - 2.35]  # the sign is measured at k/2 + 0.35
        comp.fe_residual(2.0)
        comp.lambda_afe(2.0)
        assert calls[2:] == [2.0, 2.0]
        comp._split_value(2.0, 0.85, comp.eps)
        assert len(calls) == 6

    def test_twisted_conductor(self, forms):
        comp = lv.CompletedL(forms["7.4.a"], twist=-4)
        assert comp.conductor == 7 * 16

    def test_twist_must_be_coprime(self, forms):
        with pytest.raises(DomainError, match="not prime to the level 5"):
            lv.CompletedL(forms["5.4.a"], twist=-20)

    @pytest.mark.parametrize("D", [1, 0, -12, -16])
    def test_twist_must_be_fundamental(self, forms, D):
        with pytest.raises(DomainError, match="fundamental discriminant"):
            lv.CompletedL(forms["7.4.a"], twist=D)

    def test_sign_is_measured_not_set(self, forms):
        with pytest.raises(TypeError):
            lv.CompletedL(forms["7.4.a"], eps=+1)
        assert lv.CompletedL(forms["7.4.a"]).eps in (+1, -1)


def _twists(level: int) -> list:
    return [None] + [D for D in SWEEP_TWISTS if math.gcd(level, D) == 1]


class TestCentralValues:
    def test_dual_paths_agree(self, forms):
        for label in ("5.4.a", "7.4.a"):
            f = forms[label]
            cv = lv.central_value(f, f.atkin_lehner)
            assert abs(cv.afe - cv.mellin) <= 1e-8 * max(abs(cv.afe), 1e-12)

    def test_forced_zero_for_odd_sign(self, forms):
        # chi_{-4}(-5) = -1: the twisted sign at level 5 is odd
        cv = lv.central_value(forms["5.4.a"], +1, twist=-4)
        assert cv.value == 0.0 and cv.eps == -1

    def test_products_nonnegative_at_admissible_levels(self, forms):
        for label in ("7.4.a", "11.4.a", "11.4.b"):
            f = forms[label]
            w = lv.fricke_sign(f)
            prod = (lv.central_value(f, w).value
                    * lv.central_value(f, w, twist=-4).value)
            assert prod >= 0.0
            assert prod > 0.0  # observed nonvanishing, reported

    @staticmethod
    def _sweep(forms):
        for f in forms:
            w = lv.fricke_sign(f)
            for twist in _twists(f.level):
                cv = lv.central_value(f, w, twist=twist)
                chi = 1 if twist is None else kronecker(twist, -f.level)
                assert cv.eps == w * (-1) ** (f.weight // 2) * chi
                gap = abs(cv.afe - cv.mellin) / max(abs(cv.afe), abs(cv.mellin), 1e-12)
                assert gap <= lv.CENTRAL_WITNESS_TOL, (f.label, twist)
                assert cv.spread <= lv.CENTRAL_WITNESS_TOL, (f.label, twist)

    def test_both_witnesses_and_predicted_sign_on_shipped_forms(self, forms):
        self._sweep(forms[label] for label in SHIPPED)

    def test_both_witnesses_and_predicted_sign_at_level_19(self):
        self._sweep(newforms(19, 4, 800))

    @pytest.mark.parametrize("label, twist", [("5.4.a", None), ("5.4.a", -4),
                                              ("7.4.a", -8), ("11.4.b", -3)])
    def test_wrong_fricke_sign_refused(self, forms, label, twist):
        # at 5.4.a, D = -4 the prediction holds only with chi_D(-5) = -1
        f = forms[label]
        name = label if twist is None else f"{label} twisted by {twist}"
        with pytest.raises(InvariantViolation, match=re.escape(name) + ": measured"):
            lv.central_value(f, -f.atkin_lehner, twist=twist)

    def test_twisted_mellin_converges(self, forms):
        # on the interval [1/sqrt(C), 40] the error estimate was 5.1e-14 here,
        # above the 1e-14 absolute tolerance; the half line gives 2.4e-17
        comp = lv.CompletedL(forms["7.4.a"], twist=-8)
        mellin = comp.lambda_mellin(2.0, w=+1)
        assert mellin == pytest.approx(comp.lambda_afe(2.0), rel=1e-13)

    @pytest.mark.parametrize("D", [-3, -4, -7, -8, -11, -163])
    def test_twisted_coefficients(self, forms, D):
        # one Kronecker symbol per residue mod |D| against one per n
        for f in forms.values():
            assert lv._twisted_coeffs(f.coeffs, D) == [
                kronecker(D, n) * f.c(n) for n in range(1, f.n_max + 1)]

    def test_trivial_character_keeps_the_coefficients(self, forms):
        for f in forms.values():
            assert lv._twisted_coeffs(f.coeffs, 1) is f.coeffs

    def test_mellin_refuses_noisy_integrand(self, forms, monkeypatch):
        # relative noise of 1e-6 on every evaluation keeps the Fricke sign
        # clear but leaves the Mellin quadrature far outside its tolerance
        clean = lv.q_expansion_eval
        rng = np.random.default_rng(1)

        def noisy(form, z):
            v = clean(form, z)
            return v * (1.0 + 1e-6 * rng.standard_normal(np.shape(v)))

        monkeypatch.setattr(lv, "q_expansion_eval", noisy)
        with pytest.raises(AccuracyError, match=r"7\.4\.a: Mellin quadrature"):
            lv.central_value(forms["7.4.a"], +1)

    def test_spot_value_positive(self, forms):
        cv = lv.central_value(forms["5.4.a"], +1)
        assert cv.value > 0.3  # frozen location; exact digits tracked below
        assert cv.value == pytest.approx(0.41186132838619915, rel=1e-9)


class TestPeterssonNorm:
    def test_positive(self, forms):
        for label in ("5.4.a", "7.4.a"):
            assert lv.petersson_norm(forms[label]) > 0.0

    def test_mesh_refinement(self, forms, monkeypatch):
        f = forms["7.4.a"]
        monkeypatch.setattr(lv, "NORM_ORDER", 8)
        monkeypatch.setattr(lv, "NORM_X_PANELS", 4)
        monkeypatch.setattr(lv, "NORM_Y_PANELS", 7)
        coarse = lv.petersson_norm(f)
        monkeypatch.setattr(lv, "NORM_X_PANELS", 8)
        monkeypatch.setattr(lv, "NORM_Y_PANELS", 14)
        fine = lv.petersson_norm(f)
        assert abs(coarse - fine) <= 1e-5 * abs(fine)

    def test_insufficient_coefficients(self, forms):
        f = forms["11.4.a"]
        cut = Eigenform(level=11, weight=4, label="cut",
                        coeffs=list(f.coeffs[:50]))
        with pytest.raises(InsufficientCoefficients, match="cut: tail at Im z"):
            lv.petersson_norm(cut)

    def test_class_sum_equals_image_sum(self, forms):
        # the oracle: one evaluator call for each image (z + j)/N
        xs = np.linspace(-0.5, 0.5, 7)
        z = xs[:, None] + 1j * np.linspace(0.9, 1.0, 3)
        for f in list(forms.values()) + newforms(19, 4, 800):
            N = f.level
            images = sum(np.abs(lv.q_expansion_eval(f, (z + j) / N)) ** 2
                         for j in range(N))
            classes = lv._cusp_images(f, z)
            assert np.max(np.abs(classes - images) / images) <= 1e-14, f.label

    def test_one_pass_for_all_images(self, forms, monkeypatch):
        # each mesh takes one evaluator call for the band and one pass over
        # the full coefficient count for its N images, not one call for each
        f = forms["11.4.a"]
        evaluated, counted = [], []
        evaluate, count = lv.q_expansion_eval, lv._certified_count
        monkeypatch.setattr(lv, "q_expansion_eval",
                            lambda form, z: evaluated.append(z) or evaluate(form, z))
        monkeypatch.setattr(lv, "_certified_count",
                            lambda form, y: counted.append(y) or count(form, y))
        lv.petersson_norm(f)
        assert len(evaluated) <= 2
        assert len([y for y in counted if y < 1.0 / f.level]) <= 2

    def test_deterministic(self, forms):
        f = forms["5.4.a"]
        assert lv.petersson_norm(f) == lv.petersson_norm(f)

    def test_cusp_strips_match_brute_quadrature(self, forms):
        # Parseval against a 40 x 80 Gauss-Legendre rule over 2 <= y <= 6,
        # for the cusp at infinity and for the N images (z + j)/N, which
        # together tile one period between heights 2/N and 6/N
        f = forms["11.4.a"]
        N, k = f.level, f.weight
        rule = np.polynomial.legendre.leggauss(20)
        xs, wxs = lv._gl_panels(-0.5, 0.5, 2, rule)
        ys, wys = lv._gl_panels(2.0, 6.0, 4, rule)
        z = xs[:, None] + 1j * ys
        w = wxs[:, None] * wys * ys ** (k - 2)
        top = np.sum(w * np.abs(lv.q_expansion_eval(f, z)) ** 2)
        images = sum(np.sum(w * np.abs(lv.q_expansion_eval(f, (z + j) / N)) ** 2)
                     for j in range(N)) / N ** k
        assert top == pytest.approx(
            lv._cusp_strip(f, 2.0) - lv._cusp_strip(f, 6.0), rel=1e-12)
        assert images == pytest.approx(
            lv._cusp_strip(f, 2.0 / N) - lv._cusp_strip(f, 6.0 / N), rel=1e-12)
        # the images' band is not negligible: about 0.31 of the norm
        assert images > 0.1 * lv.petersson_norm(f)

    def test_strip_tail_refused(self, forms):
        f = forms["11.4.a"]
        cut = Eigenform(level=11, weight=4, label="cut",
                        coeffs=list(f.coeffs[:10]))
        with pytest.raises(InsufficientCoefficients, match="cusp strip"):
            lv._cusp_strip(cut, 1.0 / 11)

    def test_coarse_mesh_refused(self, forms, monkeypatch):
        monkeypatch.setattr(lv, "NORM_X_PANELS", 2)
        monkeypatch.setattr(lv, "NORM_Y_PANELS", 1)
        monkeypatch.setattr(lv, "NORM_ORDER", 4)
        with pytest.raises(AccuracyError, match="7.4.a: Petersson norm moves"):
            lv.petersson_norm(forms["7.4.a"])
