import pytest

from modlavg import arith as ar
from modlavg import newforms as nf
from modlavg.errors import DomainError, InsufficientCoefficients, InvariantViolation
from modlavg.harness import default_data_path
from modlavg.lvalues import CompletedL, fricke_sign, modularity_residual


@pytest.fixture(scope="module")
def shipped():
    return {f.label: f for f in ar.load_eigenforms(default_data_path())}


@pytest.fixture(scope="module")
def beyond_dim2():
    # dimensions 3 and 4, past the old generator sets
    return {N: nf.newforms(N, 4, 400) for N in (13, 19)}


class TestShippedLevels:
    @pytest.mark.parametrize("N", [5, 7])
    def test_rational_forms_equal_shipped(self, shipped, N):
        (form,) = nf.newforms(N, 4, 2000)
        ref = shipped[f"{N}.4.a"]
        assert form.label == ref.label
        assert form.is_rational()
        assert form.coeffs == ref.coeffs
        assert form.atkin_lehner == ref.atkin_lehner

    def test_level_11_pair_within_1e12(self, shipped):
        forms = nf.newforms(11, 4, 2000)
        assert [f.label for f in forms] == ["11.4.a", "11.4.b"]
        for f in forms:
            ref = shipped[f.label]
            assert f.atkin_lehner == ref.atkin_lehner
            assert len(f.coeffs) == len(ref.coeffs) == 2000
            for n, (c, r) in enumerate(zip(f.coeffs, ref.coeffs), start=1):
                assert abs(c - r) <= 1e-12 * max(1.0, abs(r)), (f.label, n)


class TestBeyondDimensionTwo:
    @pytest.mark.parametrize("N", [13, 19])
    def test_valid_forms_with_measured_signs(self, beyond_dim2, N):
        forms = beyond_dim2[N]
        assert len(forms) == ar.dim_cusp_forms(N, 4)
        c2 = [f.c(2) for f in forms]
        assert c2 == sorted(c2, reverse=True)
        for f in forms:
            f.validate()
            assert f.n_max == 400
            assert fricke_sign(f) == f.atkin_lehner
            assert modularity_residual(f) <= 1.0
            # the root number of a weight-4 form is its Atkin-Lehner sign
            assert CompletedL(f).eps == f.atkin_lehner

    @pytest.mark.parametrize("N", [13, 19])
    def test_coefficient_sums_are_traces(self, beyond_dim2, N):
        # relative to d p^(3/2), the scale of the sum by the eigenvalue
        # bound (a trace can cancel far below it)
        dim = len(beyond_dim2[N])
        for p in ar._primes_up_to(400):
            if p != N:
                tr = ar.eichler_selberg_trace(N, 4, p)
                total = sum(f.c(p) for f in beyond_dim2[N])
                assert abs(total - tr) <= 1e-12 * dim * p ** 1.5, p

    def test_rational_form_at_19_is_exact(self, beyond_dim2):
        rational = [f for f in beyond_dim2[19] if f.is_rational()]
        assert [(f.c(2), f.atkin_lehner) for f in rational] == [(-3, -1)]
        assert [f.c(3) for f in rational] == [-5]


def test_level_above_50():
    # the Gamma0(53) rows sit at height about 1/53 and need about 490
    # coefficients
    forms = nf.newforms(53, 4, 560)
    assert len(forms) == ar.dim_cusp_forms(53, 4)
    for f in forms:
        f.validate()
        assert fricke_sign(f) == f.atkin_lehner
        assert modularity_residual(f) <= 1.0


class TestRefusals:
    def test_dimension_zero(self):
        assert nf.newforms(3, 4, 100) == []

    def test_oldforms_refused(self):
        with pytest.raises(DomainError):
            nf.newforms(11, 12, 100)

    def test_repeated_eigenvalue_refused(self, monkeypatch):
        # the traces of two eigen-systems that agree at 2 but not at 3
        base = {p: 0 for p in ar._primes_up_to(4000)}
        base.update({2: -4, 3: 2, 5: -5})
        f = ar.hecke_extend(base, 5, 4, 4000)
        g = ar.hecke_extend({**base, 3: 8}, 5, 4, 4000)
        monkeypatch.setattr(nf, "dim_cusp_forms", lambda N, k: 2)
        monkeypatch.setattr(nf, "eichler_selberg_trace",
                            lambda N, k, m: f[m - 1] + g[m - 1])
        with pytest.raises(InvariantViolation, match="repeated T_2 eigenvalue"):
            nf.newforms(5, 4, 100)

    def test_too_few_coefficients_for_the_modularity_rows(self):
        with pytest.raises(InsufficientCoefficients, match=(
                r"^N = 13, k = 4: the Fricke and modularity rows need 109 coefficients "
                r"\(certified tail at Im z = 0\.0754\), n_max = 100$")):
            nf.newforms(13, 4, 100)

    def test_too_few_coefficients_refused_before_any_trace(self, monkeypatch):
        # the rows at height about 1/N need about 9N coefficients, a count
        # known from N and k alone
        def no_trace(N, k, m):
            raise AssertionError(f"Tr T_{m} computed before the count was checked")
        monkeypatch.setattr(nf, "eichler_selberg_trace", no_trace)
        with pytest.raises(InsufficientCoefficients,
                           match=r"^N = 61, k = 4: .* need 568 coefficients .*, n_max = 560$"):
            nf.newforms(61, 4, 560)

    @pytest.mark.parametrize("N, p, match", [
        # the Fricke rows, at height about 1/sqrt(N), see c_2 ...
        pytest.param(7, 2, r"7\.4\.a: 0 Atkin-Lehner signs pass", id="c_2 at 7"),
        # ... but not c_29 at 13, which the Gamma0(13) rows see
        pytest.param(13, 29, r"13\.4\.a: modularity residual .* at "
                     r"\(a, b, c, d\) = \(2, 1, 13, 7\)$", id="c_29 at 13"),
    ])
    def test_corrupted_coefficient_refused(self, monkeypatch, N, p, match):
        real = ar.hecke_extend
        monkeypatch.setattr(nf, "hecke_extend", lambda primes, *rest: real(
            {**primes, p: primes[p] + 1}, *rest))
        with pytest.raises(InvariantViolation, match=match):
            nf.newforms(N, 4, 400)


def test_labels_continue_past_z():
    assert [nf._tag(i) for i in (0, 25, 26, 27, 52)] == ["a", "z", "ba", "bb", "ca"]
