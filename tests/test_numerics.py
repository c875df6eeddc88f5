import cmath
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gamma, gammaincc, hyp2f1, k1, loggamma

from modlavg import arch_local as al
from modlavg import numerics as nm
from modlavg.errors import AccuracyError, DomainError, PoleError


def euler_beta_quadrature(z, w):
    """Independent oracle: the half-line integral representation."""
    spec = nm.QuadratureSpec(domain=nm.half_line(0.0), rel_tol=1e-13, abs_tol=1e-14)
    res = nm.integrate(lambda t: t ** (z - 1.0) / (1.0 + t) ** (z + w), spec)
    return res.require()


def euler_2f1_quadrature(a, b, c, z):
    """Independent oracle: the Euler integral on [0, 1] (Re c > Re b > 0)."""
    spec = nm.QuadratureSpec(domain=nm.interval(0.0, 1.0), rel_tol=1e-13,
                             abs_tol=1e-14)
    res = nm.integrate(
        lambda t: t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0) * (1.0 - t * z) ** (-a),
        spec,
    )
    pref = nm.gamma(c) / (nm.gamma(b) * nm.gamma(c - b))
    return pref * res.require()


class TestLogGamma:
    def test_half(self):
        assert nm.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                                  rel=1e-14)

    def test_four(self):
        assert nm.log_gamma(4.0) == pytest.approx(math.log(6.0), rel=1e-14)

    def test_five_halves_by_recurrence(self):
        # Gamma(5/2) = (3/2)(1/2) Gamma(1/2)
        expected = 1.5 * 0.5 * math.sqrt(math.pi)
        assert cmath.exp(nm.log_gamma(2.5)) == pytest.approx(expected, rel=1e-14)

    def test_pole(self):
        with pytest.raises(PoleError):
            nm.log_gamma(0.0)
        with pytest.raises(PoleError):
            nm.log_gamma(-3.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf,
                                   complex(1.0, math.nan), complex(-0.5, math.inf)])
    def test_nonfinite_refused(self, z):
        with pytest.raises(DomainError, match="finite"):
            nm.log_gamma(z)

    def test_recurrence_random_box(self):
        rng = random.Random(20240811)
        for _ in range(100):
            z = complex(rng.uniform(0.25, 6.0), rng.uniform(-3.0, 3.0))
            lhs = cmath.exp(nm.log_gamma(z + 1))
            rhs = z * cmath.exp(nm.log_gamma(z))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("re", [n / 10.0 for n in range(-97, 154, 10)])
    def test_against_scipy(self, re):
        # the log itself, not exp(log Gamma), so a branch 2 pi i off shows;
        # Re z < 1/2 goes through the reflection, and the small imaginary
        # parts approach the cut on the negative axis from both sides
        for im in (-12.0, -3.5, -0.7, -0.05, -1e-6, -0.0,
                   0.0, 1e-6, 0.05, 0.7, 3.5, 12.0):
            z = complex(re, im)
            assert abs(nm.log_gamma(z) - complex(loggamma(z))) <= 1e-13, z

    def test_reflection_branch(self):
        # a reflection whose log of the sine is 2 pi i off shows at -2.5 + 0.3j
        for z in (-2.5 + 0.3j, -2.5 - 0.3j, -0.5 + 0j, -1.5 + 0j,
                  -7.2 + 1e-9j, 0.3 - 2j):
            assert abs(nm.log_gamma(z) - complex(loggamma(z))) <= 1e-13, z


class TestGammaUpper:
    X = np.logspace(-3.0, math.log10(300.0), 200)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.65, 2.0, 2.35, 3.0, 5.5, 7.0])
    def test_against_scipy(self, a):
        oracle = gammaincc(a, self.X) * gamma(a)
        rel = np.abs(nm.gamma_upper(a, self.X) - oracle) / oracle
        assert rel.max() <= 1e-13

    def test_integer_sum(self):
        # Gamma(3, x) = 2 e^-x (1 + x + x^2/2) and Gamma(1, x) = e^-x
        x = np.array([1e-3, 0.7, 4.0, 35.0])
        exact = 2.0 * np.exp(-x) * (1.0 + x + x * x / 2.0)
        assert np.allclose(nm.gamma_upper(3, x), exact, rtol=1e-15, atol=0.0)
        assert np.allclose(nm.gamma_upper(1.0, x), np.exp(-x), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("a", [0.5, 1.65, 2.35, 5.5])
    def test_both_sides_of_the_switch(self, a):
        # the series serves x < a + 1 and the continued fraction the rest
        x = a + 1.0 + np.array([-1e-9, 0.0, 1e-9])
        oracle = gammaincc(a, x) * gamma(a)
        assert np.all(np.abs(nm.gamma_upper(a, x) - oracle) <= 1e-13 * oracle)

    def test_largest_a(self):
        # _GAMMA_MAX_A is the last float whose Gamma is finite: it is
        # served, and the next float up is refused
        a = nm._GAMMA_MAX_A
        assert math.isfinite(math.gamma(a))
        assert np.all(np.isfinite(nm.gamma_upper(a, [1.0, 100.0, 1000.0])))
        assert math.isfinite(nm.gamma_upper(171, [1.0])[0])
        above = float(np.nextafter(a, math.inf))
        with pytest.raises(OverflowError):
            math.gamma(above)
        with pytest.raises(DomainError, match="gamma_upper needs 0 < a <= "):
            nm.gamma_upper(above, [1.0])

    @pytest.mark.parametrize("a", [171.5, 171.62])
    def test_near_largest_a(self, a):
        # x^a e^-x passes the float range near x = a + 1 here, on both sides
        # of the switch, while Gamma(a, x) is a finite float
        x = a + np.array([-1.0, 0.5, 1.0 - 1e-9, 1.0, 1.5, 3.0])
        oracle = gammaincc(a, x) * gamma(a)
        assert np.all(np.isfinite(oracle))
        assert np.all(np.abs(nm.gamma_upper(a, x) - oracle) <= 1e-12 * oracle)

    @pytest.mark.parametrize("a", [0.5, 1.65, 2.35, 5.5])
    def test_value_independent_of_the_batch(self, a):
        # each x takes its own number of terms or factors, so its value is
        # the one it gets alone, on both sides of the switch at a + 1
        batch = nm.gamma_upper(a, self.X)
        alone = [nm.gamma_upper(a, self.X[i:i + 1])[0] for i in range(self.X.size)]
        assert batch.tolist() == alone

    @pytest.mark.parametrize("a", [0.0, -1.5, math.nan])
    def test_a_refused(self, a):
        with pytest.raises(DomainError):
            nm.gamma_upper(a, np.array([1.0]))

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_x_refused(self, x):
        with pytest.raises(DomainError):
            nm.gamma_upper(2.35, np.array([1.0, x]))
        with pytest.raises(DomainError):
            nm.gamma_upper(2.0, np.array([1.0, x]))


class TestBeta:
    def test_ones(self):
        assert nm.beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_two_two(self):
        assert nm.beta(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_against_quadrature(self):
        val = nm.beta(1.5, 2.5)
        oracle = euler_beta_quadrature(1.5, 2.5)
        assert abs(val - oracle) <= 1e-10 * abs(oracle)

    def test_symmetry_exact(self):
        for z, w in [(1.7, 2.9), (0.3, 4.4), (2.25, 2.25)]:
            assert nm.beta(z, w) == nm.beta(w, z)

    def test_pole(self):
        with pytest.raises(PoleError):
            nm.beta(0.0, 2.0)


class TestHyp2f1:
    def test_at_zero(self):
        assert nm.hyp2f1(1.3, 0.7, 2.1, 0.0) == 1.0

    def test_log_closed_form(self):
        # F(1,1;2;z) = -log(1-z)/z
        assert nm.hyp2f1(1, 1, 2, 0.5) == pytest.approx(2.0 * math.log(2.0),
                                                        rel=1e-13)

    def test_against_euler_integral(self):
        val = nm.hyp2f1(2.5, 2.0, 4.0, 0.3)
        oracle = euler_2f1_quadrature(2.5, 2.0, 4.0, 0.3)
        assert abs(val - oracle) <= 1e-9 * abs(oracle)

    def test_argument_symmetry_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            a = complex(rng.uniform(0.2, 3.0), rng.uniform(-0.5, 0.5))
            b = complex(rng.uniform(0.2, 3.0), rng.uniform(-0.5, 0.5))
            c = complex(rng.uniform(3.5, 6.0), 0.0)
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.2, 0.2))
            assert nm.hyp2f1(a, b, c, z) == nm.hyp2f1(b, a, c, z)

    def test_euler_transform(self):
        # F(a,b;c;z) = (1-z)^(c-a-b) F(c-a, c-b; c; z)
        rng = random.Random(11)
        for _ in range(20):
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.3, 2.0)
            c = rng.uniform(4.0, 6.0) + rng.uniform(0.01, 0.4)
            z = rng.uniform(-0.8, 0.45)
            lhs = nm.hyp2f1(a, b, c, z)
            rhs = (1.0 - z) ** (c - a - b) * nm.hyp2f1(c - a, c - b, c, z)
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_cut_rejected(self):
        with pytest.raises(DomainError):
            nm.hyp2f1(1.0, 1.0, 3.0, 1.5)

    def test_pfaff_region(self):
        # |z| > 1 off the cut goes through the Pfaff map
        val = nm.hyp2f1(2.0, 1.5, 4.25, -1.8)
        oracle = euler_2f1_quadrature(2.0, 1.5, 4.25, -1.8)
        assert abs(val - oracle) <= 1e-9 * abs(oracle)

    def test_c_pole(self):
        with pytest.raises(PoleError):
            nm.hyp2f1(1.0, 1.0, -2.0, 0.3)


class TestIntegrate:
    def test_unit(self):
        spec = nm.QuadratureSpec(domain=nm.interval(0.0, 1.0))
        assert nm.integrate(lambda t: 1.0, spec).require().real == pytest.approx(1.0)

    def test_half_line_beta(self):
        spec = nm.QuadratureSpec(domain=nm.half_line(0.0), rel_tol=1e-12)
        res = nm.integrate(lambda t: t ** 0.5 / (1.0 + t) ** 3, spec)
        assert res.require().real == pytest.approx(math.pi / 8.0, rel=1e-11)

    def test_semicircle_mass(self):
        spec = nm.QuadratureSpec(domain=nm.interval(-2.0, 2.0), rel_tol=1e-12)
        res = nm.integrate(
            lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * math.pi), spec
        )
        assert res.require().real == pytest.approx(1.0, rel=1e-10)

    def test_deterministic(self):
        spec = nm.QuadratureSpec(domain=nm.interval(0.0, 3.0), rel_tol=1e-11)
        r1 = nm.integrate(lambda t: np.exp(-t) * np.sin(3 * t), spec)
        r2 = nm.integrate(lambda t: np.exp(-t) * np.sin(3 * t), spec)
        assert r1.value == r2.value and r1.error == r2.error

    def test_nan_flagged(self):
        spec = nm.QuadratureSpec(domain=nm.interval(0.0, 1.0))
        with pytest.raises(DomainError):
            nm.integrate(lambda t: float("nan"), spec)

    def test_2d_quadrant(self):
        # int over the quadrant of e^(-x-y) = 1
        spec = nm.QuadratureSpec(domain=nm.quadrant(), rel_tol=1e-10)
        res = nm.integrate(lambda x, y: np.exp(-x - y), spec)
        assert res.require().real == pytest.approx(1.0, rel=1e-9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            nm.QuadratureSpec(rel_tol=-1.0)


class TestLineRule:
    """The exp-sinh rule on half lines through x = a + s and on finite
    intervals through x = a + (b - a) s/(1 + s)."""

    KNOWN = [
        # the Abel integral of L(1, chi_-4): (1 - t^2) / (1 - t^4)
        ("L(1, chi_-4)", (nm.interval(0.0, 1.0), lambda t: 1.0 / (1.0 + t * t)),
         math.pi / 4.0),
        ("B(1.5, 2.5)", (nm.half_line(0.0), lambda t: t ** 0.5 / (1.0 + t) ** 4),
         math.gamma(1.5) * math.gamma(2.5) / math.gamma(4.0)),
        ("2 K_1(2)", (nm.half_line(0.0), lambda t: np.exp(-t - 1.0 / t)), 2.0 * k1(2.0)),
        ("Gamma(2.5, 1.5)", (nm.half_line(1.5), lambda t: t ** 1.5 * np.exp(-t)),
         gammaincc(2.5, 1.5) * gamma(2.5)),
        ("Euler 2F1(2.5, 2; 4; 0.3)",
         (nm.interval(0.0, 1.0), lambda t: t * (1.0 - t) * (1.0 - 0.3 * t) ** -2.5),
         hyp2f1(2.5, 2.0, 4.0, 0.3) * math.gamma(2.0) * math.gamma(2.0) / math.gamma(4.0)),
        ("Euler 2F1(2, 1.5; 4.25; -1.8)",
         (nm.interval(0.0, 1.0),
          lambda t: t ** 0.5 * (1.0 - t) ** 1.75 * (1.0 + 1.8 * t) ** -2.0),
         hyp2f1(2.0, 1.5, 4.25, -1.8) * math.gamma(1.5) * math.gamma(2.75)
         / math.gamma(4.25)),
    ]

    @pytest.mark.parametrize("name, integral, known", KNOWN, ids=[k[0] for k in KNOWN])
    def test_error_covers_gap_to_known_value(self, name, integral, known):
        domain, f = integral
        res = nm.integrate(f, nm.QuadratureSpec(domain=domain, rel_tol=1e-13,
                                                abs_tol=1e-14))
        assert res.converged
        # the known values are themselves rounded: scipy's 2F1 at z = -1.8 is
        # 6 ulps off, so they get 8 ulps of their own
        assert abs(res.value - known) <= res.error + 8 * np.finfo(float).eps * abs(known), name

    @pytest.mark.parametrize("domain, f", [
        (nm.interval(0.0, 1.0), lambda t: t ** -0.9999),
        (nm.half_line(0.0), lambda t: 1.0 / (1.0 + t)),
        # the nodes next to t = 1 round onto it, where the integrand is infinite
        (nm.interval(0.0, 1.0), lambda t: (1.0 - t) ** -0.5),
        (nm.quadrant(), lambda a, b: np.where(a > 1e29, np.inf, np.exp(-a - b))),
    ], ids=["interval", "half_line", "infinite at b", "infinite on the quadrant"])
    def test_refused(self, domain, f):
        # the weight past the outermost nodes is not negligible, or infinite
        with pytest.raises(AccuracyError):
            nm.integrate(f, nm.QuadratureSpec(domain=domain)).require()

    @pytest.mark.parametrize("domain", [nm.interval(0.0, 1.0), nm.half_line(0.0)],
                             ids=["interval", "half_line"])
    def test_nan_flagged(self, domain):
        # one NaN among the nodes is enough
        with pytest.raises(DomainError):
            nm.integrate(lambda t: np.where(t > 0.5, np.nan, np.exp(-t)),
                         nm.QuadratureSpec(domain=domain))

    @pytest.mark.parametrize("domain", [nm.interval(0.0, 1.0), nm.half_line(0.0)],
                             ids=["interval", "half_line"])
    def test_inf_minus_inf_not_converged(self, domain):
        # +inf at one node and -inf at another: the sum is NaN though no
        # term is, so not converged rather than DomainError
        x = nm._DE_NODES[100:102]
        x = domain[1] + (x if domain[0] == "half_line" else x / (1.0 + x))
        res = nm.integrate(lambda t: np.where(t == x[0], np.inf, np.where(
            t == x[1], -np.inf, np.exp(-t))), nm.QuadratureSpec(domain=domain))
        assert not res.converged and res.error == math.inf

    def test_no_runtime_warning_escapes(self):
        # exp(t) overflows and exp(-1/t) underflows at the extreme nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = nm.integrate(lambda t: np.exp(-1.0 / t) / (1.0 + np.exp(t)),
                               nm.QuadratureSpec(domain=nm.half_line(0.0)))
            nm.integrate(lambda t: 1.0 / t, nm.QuadratureSpec(domain=nm.interval(0.0, 1.0)))
        assert res.converged

    def test_complex_integrand(self):
        # int_0^oo e^(-t) (1 + i t) dt = 1 + i
        res = nm.integrate(lambda t: np.exp(-t) * (1.0 + 1.0j * t),
                           nm.QuadratureSpec(domain=nm.half_line(0.0), rel_tol=1e-13))
        assert abs(res.require() - (1.0 + 1.0j)) <= res.error

    def test_import_leaves_out_scipy(self):
        # scipy is a test oracle only; the package runs on numpy alone
        code = ("import sys, modlavg, modlavg.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "[]"


def _criterion_points():
    """(name, closed form, quadrature call, prefactor of its integrals) at
    the points of acceptance criteria 05 and 07.  A singular integral is
    multiplied by the bracket's 2 and d 2^k; at real (s1, s2) a regular
    orbit takes one quadrant integral and its conjugate, so that one
    integral's error counts twice."""
    points = []
    for k in (4, 6, 8):
        d = al.default_formal_degree(k)
        for s in ((0.0, 0.0), (0.1, -0.05), (-0.07, 0.02)):
            points.append((f"upper k={k} s={s}", al.singular_upper_closed(k, *s),
                           lambda k=k, s=s: al.singular_upper_quadrature(k, *s),
                           2.0 * d * 2.0 ** k))
    points.append(("lower k=4 s=(0.07, 0.02)", -al.singular_upper_closed(4, -0.02, -0.07),
                   lambda: al.singular_lower_quadrature(4, 0.07, 0.02), 2.0 * 1.5 * 2.0 ** 4))
    rng = random.Random(7)
    for _ in range(10):
        k = rng.choice([4, 6])
        x = rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1.1, 2.9)])
        s1, s2 = rng.uniform(0.02, 0.09), rng.uniform(0.02, 0.09)
        points.append((f"regular k={k} x={x:.4f}", al.regular_integral_closed(k, x, s1, s2),
                       lambda k=k, x=x, s1=s1, s2=s2: al.regular_integral_quadrature(k, x, s1, s2),
                       2.0 * abs(1.0 - x) ** (k / 2.0)))
    return points


CRITERION_POINTS = _criterion_points()


class TestQuadrantRule:
    """The tensor exp-sinh rule on (0, oo)^2 and its error witness."""

    SPEC = nm.QuadratureSpec(domain=nm.quadrant(), rel_tol=1e-10)

    def test_gamma_product(self):
        # Gamma(1/2) Gamma(3/2) = pi/2
        res = nm.integrate(lambda a, b: a ** -0.5 * b ** 0.5 * np.exp(-a - b), self.SPEC)
        assert abs(res.require() - math.pi / 2.0) <= 1e-13

    def test_truncation_refused(self):
        # a^(-0.9999) keeps its weight far past the outermost nodes
        res = nm.integrate(lambda a, b: a ** -0.9999 * np.exp(-a - b), self.SPEC)
        with pytest.raises(AccuracyError):
            res.require()

    def test_nan_flagged(self):
        with pytest.raises(DomainError):
            nm.integrate(lambda a, b: np.where(a > 2.0, np.nan, np.exp(-a - b)), self.SPEC)

    def test_one_nan_node_flagged(self):
        # a NaN term makes its block's sum NaN, and only then are the terms
        # searched: one node is enough
        a0, b0 = nm._DE_NODES[150], nm._DE_NODES[40]
        with pytest.raises(DomainError, match="NaN"):
            nm.integrate(lambda a, b: np.where((a == a0) & (b == b0), np.nan,
                                               np.exp(-a - b)), self.SPEC)

    def test_inf_minus_inf_not_converged(self):
        # a column of +inf and one of -inf, no NaN: each block's sum is
        # inf - inf = NaN with no NaN term, so the integral comes back not
        # converged, with an infinite error, and no DomainError
        plus, minus = nm._DE_NODES[40], nm._DE_NODES[41]
        res = nm.integrate(lambda a, b: np.where(b == plus, np.inf, np.where(
            b == minus, -np.inf, np.exp(-a - b))), self.SPEC)
        assert not res.converged and res.error == math.inf

    def test_no_runtime_warning_escapes(self):
        # exp(a) overflows and exp(-1/b) underflows at the extreme nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = nm.integrate(
                lambda a, b: np.exp(-1.0 / b - b) / (1.0 + np.exp(a)), self.SPEC)
            al.singular_upper_quadrature(8, 0.1, -0.05)
            al.singular_lower_quadrature(4, 0.07, 0.02)
            al.regular_integral_quadrature(6, 1.8342, 0.0461, 0.0624)
        # int_0^oo e^(-1/b - b) db = 2 K_1(2), int_0^oo da / (1 + e^a) = log 2
        assert res.require().real == pytest.approx(2.0 * k1(2.0) * math.log(2.0),
                                                   rel=1e-12)

    @pytest.mark.parametrize("name, closed, quadrature, scale", CRITERION_POINTS,
                             ids=[p[0] for p in CRITERION_POINTS])
    def test_error_covers_gap_to_closed_form(self, monkeypatch, name, closed,
                                             quadrature, scale):
        results = []

        def recording(f, spec):
            res = nm.integrate(f, spec)
            results.append(res)
            return res

        monkeypatch.setattr(al, "integrate", recording)
        value = quadrature()
        assert len(results) == 1, name
        error = scale * math.fsum(r.error for r in results)
        assert abs(value - closed) <= error, name
