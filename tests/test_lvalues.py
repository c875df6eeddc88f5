import numpy as np
import pytest

from modlavg import lvalues as lv
from modlavg.arith import Eigenform, load_eigenforms
from modlavg.errors import (
    DomainError,
    InsufficientCoefficients,
    InvariantViolation,
)
from modlavg.harness import default_data_path


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
        # the full Horner sum over all stored coefficients is the reference
        for f in forms.values():
            for y in (0.08, 0.3, 2.0):
                zs = np.linspace(-0.5, 0.5, 9) + 1j * y
                q = np.exp(2j * np.pi * zs)
                full = np.zeros_like(q)
                for c in reversed(f.coeffs):
                    full = full * q + c
                full *= q
                gap = np.max(np.abs(lv.q_expansion_eval(f, zs) - full))
                assert gap <= lv.QEXP_TAIL_TOL

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


class TestFunctionalEquation:
    def test_residuals_untwisted(self, forms):
        for label in ("5.4.a", "7.4.a", "11.4.a", "11.4.b"):
            comp = lv.CompletedL(forms[label])
            k = comp.form.weight
            for s_an in (0.3, 0.5, 0.7):
                s = s_an + (k - 1) / 2.0
                assert comp.fe_residual(s) <= 1e-7
                assert comp.fe_symmetry_residual(s) <= 1e-7

    def test_residuals_twisted(self, forms):
        for label in ("7.4.a", "11.4.a"):
            comp = lv.CompletedL(forms[label], twist=-4)
            k = comp.form.weight
            for s_an in (0.3, 0.5, 0.7):
                s = s_an + (k - 1) / 2.0
                assert comp.fe_residual(s) <= 1e-7

    def test_twisted_conductor(self, forms):
        comp = lv.CompletedL(forms["7.4.a"], twist=-4)
        assert comp.conductor == 7 * 16

    def test_twist_must_be_coprime(self, forms):
        with pytest.raises(InvariantViolation):
            lv.CompletedL(forms["5.4.a"], twist=-20)


class TestCentralValues:
    def test_dual_paths_agree(self, forms):
        for label in ("5.4.a", "7.4.a"):
            cv = lv.central_value(forms[label])
            assert cv.mellin is not None
            assert abs(cv.afe - cv.mellin) <= 1e-8 * max(abs(cv.afe), 1e-12)

    def test_forced_zero_for_odd_sign(self, forms):
        # chi_{-4}(-5) = -1: the twisted sign at level 5 is odd
        cv = lv.central_value(forms["5.4.a"], twist=-4)
        assert cv.forced_zero and cv.value == 0.0 and cv.eps == -1

    def test_products_nonnegative_at_admissible_levels(self, forms):
        for label in ("7.4.a", "11.4.a", "11.4.b"):
            f = forms[label]
            prod = (lv.central_value(f).value
                    * lv.central_value(f, twist=-4).value)
            assert prod >= 0.0
            assert prod > 0.0  # observed nonvanishing, reported

    def test_spot_value_positive(self, forms):
        cv = lv.central_value(forms["5.4.a"])
        assert cv.value > 0.3  # frozen location; exact digits tracked below
        assert cv.value == pytest.approx(0.41186132838619915, rel=1e-9)


class TestPeterssonNorm:
    def test_positive(self, forms):
        for label in ("5.4.a", "7.4.a"):
            assert lv.petersson_norm(forms[label]) > 0.0

    def test_mesh_refinement(self, forms):
        f = forms["7.4.a"]
        coarse = lv.petersson_norm(f, x_panels=4, y_panels=7, order=8)
        fine = lv.petersson_norm(f, x_panels=8, y_panels=14, order=8)
        assert abs(coarse - fine) <= 1e-5 * abs(fine)

    def test_insufficient_coefficients(self, forms):
        f = forms["11.4.a"]
        cut = Eigenform(level=11, weight=4, label="cut",
                        coeffs=list(f.coeffs[:50]))
        with pytest.raises(InsufficientCoefficients):
            lv.petersson_norm(cut)

    def test_deterministic(self, forms):
        f = forms["5.4.a"]
        assert lv.petersson_norm(f) == lv.petersson_norm(f)


class TestOldformShift:
    def test_mellin_ratio(self):
        coeffs = [1, -4, 2, 8, -5, -8, 6, 0, -23, 20] * 30
        for s in (0.5, 1.0 + 0.3j, 1.3):
            ratio = lv.oldform_mellin_ratio(coeffs, 7, s, n_terms=280)
            assert ratio == pytest.approx(7 ** (1 - complex(s)), rel=1e-12)
