import math
import random
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from modlavg import measures as ms
from modlavg.errors import DomainError, PoleError


_PI_40 = Decimal("3.141592653589793238462643383279502884197")


class TestDensity:
    def test_endpoint_zero(self):
        m = ms.SatakeMeasure(p=2, sign=+1)
        assert ms.density(m, 2.0) == 0.0

    def test_inert_at_zero(self):
        m = ms.SatakeMeasure(p=2, sign=-1)
        assert ms.density(m, 0.0) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)

    def test_domain_error(self):
        m = ms.SatakeMeasure(p=2, sign=+1)
        with pytest.raises(DomainError):
            ms.density(m, 2.5)
        with pytest.raises(DomainError, match="2.5"):
            ms.density(m, np.array([0.0, 2.5, 1.0]))
        with pytest.raises(DomainError):
            ms.sato_tate_density(np.array([-2.0, np.nan]))

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_batch_equals_points(self, sign):
        # density.csv evaluates a column in one call; each entry must have
        # the bits of the point value
        m = ms.SatakeMeasure(p=13, sign=sign)
        xs = -2.0 + 4.0 * np.arange(401) / 400
        assert ms.density(m, xs).tolist() == [ms.density(m, x) for x in xs.tolist()]
        assert ms.sato_tate_density(xs).tolist() == [ms.sato_tate_density(x)
                                                     for x in xs.tolist()]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_probability(self, p, sign):
        m = ms.SatakeMeasure(p=p, sign=sign)
        assert abs(ms.mass(m) - 1.0) <= 1e-10

    @pytest.mark.parametrize("p", [2, 3, 13, 10007])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_density_against_a_40_digit_reference(self, p, sign):
        # near x = +-2 both c - x and sqrt(4 - x^2) cancel; unfactored, the
        # split density at p = 2 was 6.5e-15 off at density.csv's grid
        m = ms.SatakeMeasure(p=p, sign=sign)
        xs = (-2.0 + 4.0 * np.arange(401) / 400)[1:-1]
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 40
            root_p = Decimal(p).sqrt()
            c = root_p + 1 / root_p
            for x, value in zip(xs.tolist(), ms.density(m, xs).tolist()):
                x = Decimal(x)  # exact
                factor = (p - 1) / (c - x) ** 2 if sign == +1 else (p + 1) / (c * c - x * x)
                ref = factor * (4 - x * x).sqrt() / (2 * _PI_40)
                worst = max(worst, abs(Decimal(value) - ref) / ref)
        assert worst <= Decimal("2e-15"), worst

    def test_inert_density_is_plancherel_formula(self):
        # transcription equality against an independently typed formula
        for p in (2, 3, 7):
            m = ms.SatakeMeasure(p=p, sign=-1)
            c = math.sqrt(p) + 1.0 / math.sqrt(p)
            for i in range(101):
                x = -2.0 + 4.0 * i / 100
                ref = (p + 1) / (2 * math.pi) * math.sqrt(4 - x * x) / (c * c - x * x)
                assert ms.density(m, x) == pytest.approx(ref, abs=1e-15)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            ms.SatakeMeasure(p=6, sign=+1)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_csv_grid_must_be_positive(self, grid):
        with pytest.raises(DomainError, match="grid"):
            ms.density_csv(2, grid)
        assert ms.density_csv(2, 1).count("\n") == 3  # header and x = -2, 2


# the primes of the closed-form mass checks, 2 to past 10^9
CLOSED_FORM_PRIMES = [2, 3, 5, 13, 101, 10007, 10**6 + 3, 10**9 + 7]


class TestMass:
    @pytest.mark.parametrize("p,sign", [(2, +1), (3, -1), (13, +1), (13, -1)])
    def test_additive_across_split_points(self, p, sign):
        m = ms.SatakeMeasure(p=p, sign=sign)
        for lo, mid, hi in [(-2.0, 0.0, 2.0), (-1.5, 0.3, 1.9), (-2.0, 1.99, 2.0)]:
            whole = ms.mass(m, lo, hi)
            assert abs(ms.mass(m, lo, mid) + ms.mass(m, mid, hi) - whole) <= 1e-13

    def test_clamped_to_support(self):
        m = ms.SatakeMeasure(p=3, sign=-1)
        assert ms.mass(m, -5.0, 7.0) == ms.mass(m)
        assert ms.mass(m, -3.0, 0.5) == ms.mass(m, -2.0, 0.5)
        assert ms.mass(m, 2.5, 3.0) == 0.0
        assert ms.mass(m, -math.inf, math.inf) == ms.mass(m)

    def test_real_bounds_of_other_types(self):
        # ints and numpy reals are real numbers; bools are refused
        m = ms.SatakeMeasure(p=13, sign=+1)
        assert ms.mass(m, -1, 1) == ms.mass(m, -1.0, 1.0)
        assert ms.mass(m, np.float64(-1.0), np.int64(1)) == ms.mass(m, -1.0, 1.0)
        with pytest.raises(DomainError, match=r"mass bound lo = True"):
            ms.mass(m, True, 2.0)

    def test_empty_range(self):
        m = ms.SatakeMeasure(p=5, sign=+1)
        assert ms.mass(m, 0.3, 0.3) == 0.0
        assert ms.mass(m, 1.0, -1.0) == 0.0

    @pytest.mark.parametrize("p", CLOSED_FORM_PRIMES)
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_closed_form_against_quadrature(self, p, sign):
        # two oracles: the angle-coordinate DE rule of the moments and
        # scipy's Gauss-Kronrod in x, with the square-root ends as weights
        m = ms.SatakeMeasure(p=p, sign=sign)
        for lo, hi in _mass_intervals(p):
            closed = ms.mass(m, lo, hi)
            assert abs(closed - _quadrature_mass(m, lo, hi)) <= 1e-14, (lo, hi)
            assert abs(closed - _scipy_mass(m, lo, hi)) <= 1e-14, (lo, hi)

    def test_textbook_form_misses_the_tolerance(self):
        # -theta + c I_1 - 2 sin/(c - 2 cos) is right at small p but loses
        # about p ulps, so the 1e-14 above would catch a return to it
        def worst(p):
            m = ms.SatakeMeasure(p=p, sign=+1)
            return max(abs(_textbook_split_mass(p, lo, hi) - _quadrature_mass(m, lo, hi))
                       for lo, hi in _mass_intervals(p))

        assert worst(13) <= 1e-14
        assert worst(10**6 + 3) > 1e-12

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_unit_mass_is_exact(self, sign):
        for p in CLOSED_FORM_PRIMES:
            m = ms.SatakeMeasure(p=p, sign=sign)
            assert ms.mass(m) == ms.mass(m, -math.inf, math.inf) == 1.0

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_bin_tables_sum_to_one(self, sign):
        for p in CLOSED_FORM_PRIMES:
            m = ms.SatakeMeasure(p=p, sign=sign)
            for bins in range(1, 9):
                edges = [-2.0 + 4.0 * i / bins for i in range(bins + 1)]
                total = math.fsum(ms.mass(m, lo, hi) for lo, hi in zip(edges, edges[1:]))
                assert abs(total - 1.0) <= 2 * math.ulp(1.0), (p, bins)

    @pytest.mark.parametrize("p", CLOSED_FORM_PRIMES)
    def test_inert_measure_is_even(self, p):
        m = ms.SatakeMeasure(p=p, sign=-1)
        for lo, hi in _mass_intervals(p):
            assert abs(ms.mass(m, -hi, -lo) - ms.mass(m, lo, hi)) <= 1e-15

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_large_prime_is_the_semicircle(self, sign):
        p = 10**9 + 7
        m = ms.SatakeMeasure(p=p, sign=sign)
        for lo, hi in _mass_intervals(p):
            semicircle = ms._integrate_against(ms.sato_tate_density, lambda x: 1.0, lo, hi)
            assert abs(ms.mass(m, lo, hi) - semicircle) <= 1e-4


def _mass_intervals(seed):
    """Fixed intervals (ends at -2 and 2, across 0, width below 1e-9) and
    seeded ones of every width."""
    rng = random.Random(seed)
    out = [(-2.0, 2.0), (-2.0, -1.3), (0.4, 2.0), (-0.7, 0.9), (-1e-10, 3e-10),
           (2.0 - 4e-10, 2.0), (-2.0, -2.0 + 7e-10), (1.234, 1.234 + 5e-10)]
    for _ in range(12):
        out.append(tuple(sorted(rng.uniform(-2.0, 2.0) for _ in range(2))))
    for _ in range(4):
        lo = rng.uniform(-2.0, 2.0 - 1e-9)
        out.append((lo, lo + rng.uniform(0.0, 1e-9)))
    return out


def _quadrature_mass(m, lo, hi):
    return ms._integrate_against(lambda x: ms.density(m, x), lambda x: 1.0, lo, hi)


def _scipy_mass(m, lo, hi):
    """The mass by scipy's quad in x; an end at -2 or 2 goes into the
    algebraic weight (x - lo)^(1/2) (hi - x)^(1/2)."""
    p = m.p
    c = math.sqrt(p) + 1.0 / math.sqrt(p)
    scale = (p - 1 if m.sign == +1 else p + 1) / (2.0 * math.pi)
    alpha = 0.5 if lo == -2.0 else 0.0
    beta = 0.5 if hi == 2.0 else 0.0

    def f(x):
        root = (1.0 if alpha else math.sqrt(2.0 + x)) * (1.0 if beta else math.sqrt(2.0 - x))
        return scale * root / ((c - x) ** 2 if m.sign == +1 else c * c - x * x)

    with warnings.catch_warnings():
        # tolerances at the float floor: quad warns of roundoff, and the
        # comparison above holds its values to 1e-14
        warnings.simplefilter("ignore")
        return quad(f, lo, hi, weight="alg", wvar=(alpha, beta),
                    epsabs=1e-15, epsrel=1e-14, limit=200)[0]


def _textbook_split_mass(p, lo, hi):
    """(p - 1)/(2 pi) (-theta + c I_1 - 2 sin(theta)/(c - 2 cos(theta)))
    between the angles of hi and lo, I_1 = int_0^theta dt/(c - 2 cos t)."""
    c = math.sqrt(p) + 1.0 / math.sqrt(p)
    k = math.sqrt((c + 2.0) / (c - 2.0))

    def upper(x):
        th = math.acos(x / 2.0)
        i1 = 2.0 / (math.sqrt(p) - 1.0 / math.sqrt(p)) * math.atan(k * math.tan(th / 2.0))
        return (p - 1) / (2.0 * math.pi) * (-th + c * i1 - 2.0 * math.sin(th) / (c - 2.0 * math.cos(th)))

    return upper(lo) - upper(hi)


class TestSatakePolynomials:
    def test_constant(self):
        assert ms.satake_poly(0, 3).evaluate(0.77) == 1.0

    def test_linear(self):
        psi = ms.satake_poly(1, 5)
        for x in (-1.5, 0.0, 0.3, 2.0):
            assert psi.evaluate(x) == pytest.approx(x, abs=1e-15)

    def test_degree_two_value(self):
        assert ms.satake_poly(2, 3).evaluate(2.0) == pytest.approx(8.0 / 3.0,
                                                                   rel=1e-15)

    def test_structure(self):
        psi = ms.satake_poly(5, 7)
        d = dict(psi.coeffs)
        assert d[5] == 1.0
        assert set(d) == {5, 3, 1}
        assert d[3] == d[1] == 1.0 - 1.0 / 7.0


class TestCosetOracle:
    def test_identity_coset(self):
        assert ms.satake_coset_oracle(0, 7, 0.31j) == pytest.approx(1.0)

    def test_coset_count_sigma(self):
        # n = 1: p + 1 single cosets
        assert sum(mult for _, _, mult in ms.coset_list(1, 2)) == 3
        assert sum(mult for _, _, mult in ms.coset_list(1, 5)) == 6

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_transfer_polynomial(self, p):
        rng = random.Random(1000 + p)
        for n in range(7):
            psi = ms.satake_poly(n, p)
            for _ in range(20):
                theta = rng.uniform(0.0, math.pi)
                s = 1j * theta / math.log(p)
                lhs = ms.satake_coset_oracle(n, p, s)
                x = p ** s + p ** (-s)
                rhs = p ** (n / 2.0) * psi.evaluate(x)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


class TestMoments:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_moment_table(self, p):
        split = ms.SatakeMeasure(p=p, sign=+1)
        inert = ms.SatakeMeasure(p=p, sign=-1)
        assert abs(ms.moment(split, 0) - 1.0) <= 1e-8
        assert abs(ms.moment(inert, 0) - 1.0) <= 1e-8
        for n in range(1, 11):
            assert abs(ms.moment(split, n) - 2.0) <= 1e-8
            assert abs(ms.moment(inert, n) - 0.0) <= 1e-8

    def test_spec_examples(self):
        assert ms.moment(ms.SatakeMeasure(p=5, sign=+1), 3) == pytest.approx(2.0, abs=1e-9)
        assert ms.moment(ms.SatakeMeasure(p=5, sign=-1), 2) == pytest.approx(0.0, abs=1e-9)
        assert ms.moment(ms.SatakeMeasure(p=7, sign=+1), 0) == pytest.approx(1.0, abs=1e-9)
        assert ms.moment(ms.SatakeMeasure(p=7, sign=-1), 0) == pytest.approx(1.0, abs=1e-9)

    def test_split_bias(self):
        # first moment of the split measure is 2/sqrt(p) > 0 (closed form by
        # expansion in Chebyshev series); the inert measure is even, so its
        # first moment vanishes
        for p in (2, 3, 5, 11):
            split = ms.basis_moment(ms.SatakeMeasure(p=p, sign=+1), 1)
            assert split == pytest.approx(2.0 / math.sqrt(p), abs=1e-10)
            assert split > 1e-3
            inert = ms.basis_moment(ms.SatakeMeasure(p=p, sign=-1), 1)
            assert abs(inert) <= 1e-12


class TestSpectralDensity:
    def test_zero_at_origin(self):
        assert ms.spectral_density(2, 1.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("delta", [1.0, -1.0])
    def test_series_matches_closed_form(self, p, delta):
        rng = random.Random(31 * p + int(delta))
        period = 2.0 * math.pi / math.log(p)
        for _ in range(20):
            s = 1j * rng.uniform(0.0, period)
            closed = ms.spectral_density(p, delta, s)
            series = ms.spectral_density_series(p, delta, s)
            assert abs(closed - series) <= 1e-10

    def test_real_part_display(self):
        for p in (2, 3):
            rng = random.Random(p)
            for _ in range(10):
                s = 1j * rng.uniform(0.01, 1.0)
                lhs = 0.5 * (ms.spectral_density(p, 1.0, s)
                             + ms.spectral_density(p, 1.0, -s))
                rhs = ms.real_part_density(p, s)
                assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)

    def test_pole_flagged(self):
        with pytest.raises(PoleError):
            ms.spectral_density(2, 1.0, 0.5)  # T = 1 hits delta

    def test_coefficient_limits(self):
        # the polynomial evaluation of the quotient at delta = 1 gives n - 1
        for n in range(2, 8):
            c = ms.series_coefficient(n, 3, 1.0)
            assert c == pytest.approx(2.0 - 2.0 * (n - 1), abs=1e-12)


class TestChangeOfVariables:
    @pytest.mark.parametrize("p", [2, 3])
    def test_pointwise(self, p):
        assert ms.density_change_of_variables_check(p) <= 1e-12

    def test_endpoints(self):
        m = ms.SatakeMeasure(p=2, sign=+1)
        assert ms.density(m, 2.0) == 0.0
        assert ms.density(m, -2.0) == 0.0


class TestSatoTateLimit:
    def test_second_raw_moment(self):
        # int x^2 dST = 1 via x^2 = X_2 + X_0 and basis moments (2, 0, -1, 0, ...)
        raw = ms.sato_tate_basis_moment(2) + ms.sato_tate_basis_moment(0)
        assert raw == pytest.approx(1.0, abs=1e-10)

    def test_moments_approach_semicircle(self):
        out = ms.sato_tate_limit_check(+1, 1, [2, 5, 11, 29, 101])
        gaps = [abs(v - out["limit"]) for v in out["moments"]]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        out = ms.sato_tate_limit_check(-1, 2, [2, 5, 11, 29, 101])
        gaps = [abs(v - out["limit"]) for v in out["moments"]]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_increasing_required(self):
        with pytest.raises(ValueError):
            ms.sato_tate_limit_check(+1, 1, [5, 3])
