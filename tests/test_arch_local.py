import math
import random
import re

import numpy as np
import pytest

from modlavg import arch_local as al
from modlavg import numerics as nm
from modlavg.errors import AccuracyError, DomainError


class TestMatrixCoefficient:
    def test_identity_value(self):
        g = ((1.0, 0.0), (0.0, 1.0))
        assert al.matrix_coefficient(g, 4) == pytest.approx(1.5)

    def test_negative_determinant(self):
        g = ((1.0, 0.0), (0.0, -1.0))
        assert al.matrix_coefficient(g, 4) == 0.0

    def test_diagonal_formula(self):
        b, k, d = 2.7, 6, 2.5
        g = ((b, 0.0), (0.0, 1.0))
        expected = d * (2.0 * math.sqrt(b)) ** k / (b + 1.0) ** k
        assert al.matrix_coefficient(g, k) == pytest.approx(expected, rel=1e-14)


class TestConstants:
    def test_h4(self):
        assert al.alternating_weight_sum(4) == 5

    def test_h_term_by_term_oracle(self):
        # independent evaluation of the finite sum
        for k in (4, 6, 8, 10, 12):
            m = k // 2
            expected = 1
            for n in range(m - 1):
                expected += (math.comb(k, 2 * n + 1) * (-1) ** (m - n)
                             * math.factorial(m + n - 1) * math.factorial(m - n - 2))
            got = al.alternating_weight_sum(k)
            assert got == expected
            assert isinstance(got, int)

    def test_c4_value(self):
        assert al.leading_constant(4) == pytest.approx(80.0 * math.pi,
                                                            rel=1e-12)

    def test_positivity(self):
        for k in (4, 6, 8, 10, 12):
            assert al.leading_constant(k) > 0
            assert al.alternating_weight_sum(k) > 0

    def test_overflow_refused(self):
        # c_168 ~ 9.6e304 is the last weight whose c_k is a float
        assert math.isfinite(al.leading_constant(168))
        for k in (170, 400):
            with pytest.raises(DomainError, match="overflows"):
                al.leading_constant(k)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            al.alternating_weight_sum(5)
        with pytest.raises(ValueError):
            al.leading_constant(2)


class TestUpperSingular:
    def test_origin_value(self):
        # i sqrt(pi) d 2^k Gamma(2)^2 Gamma(1/2) / Gamma(4) = 4 pi i at k = 4
        val = al.singular_upper_closed(4, 0.0, 0.0)
        assert val.real == 0.0
        assert abs(val.imag - 4.0 * math.pi) <= 2 * math.ulp(4.0 * math.pi)

    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize("s", [(0.0, 0.0), (0.1, -0.05), (-0.07, 0.02)])
    def test_assembly_vs_quadrature(self, k, s):
        closed = al.singular_upper_closed(k, *s)
        quad = al.singular_upper_quadrature(k, *s)
        assert abs(closed - quad) <= 1e-10 * abs(closed)

    @pytest.mark.parametrize("k", [100, 120, 200])
    def test_high_weight_vs_quadrature(self, k):
        # a sum of k/2 binomial terms lost 4.6e-7, 3.9e-5 and 1.02 here
        closed = al.singular_upper_closed(k, 0.0, 0.0)
        quad = al.singular_upper_quadrature(k, 0.0, 0.0)
        assert abs(closed - quad) <= 1e-12 * abs(closed)

    def test_complex_exponents_vs_quadrature(self):
        closed = al.singular_upper_closed(6, 0.1 + 0.2j, -0.3j)
        quad = al.singular_upper_quadrature(6, 0.1 + 0.2j, -0.3j)
        assert abs(closed - quad) <= 1e-10 * abs(closed)

    @pytest.mark.parametrize("s", [(0.0, 0.0), (0.1, -0.05)])
    def test_high_weights_accepted_and_refused(self, s):
        # the bracket's -2i multiplies the finished integral and abs_tol is
        # halved with it, so the rule keeps its decisions: it accepts up to
        # k = 220 and refuses from 230 on
        accepted = []
        for k in range(200, 241, 10):
            try:
                al.singular_upper_quadrature(k, *s)
            except AccuracyError:
                continue
            accepted.append(k)
        assert accepted == [200, 210, 220]

    @pytest.mark.parametrize("s", [(0.6, 0.5), (-2.5, 0.1), (0.1, -2.05)])
    def test_divergent_points_refused(self, s):
        # Re s < 1 and Re(k/2 + s_i) > 0 is where the double integral converges
        with pytest.raises(DomainError, match="diverges"):
            al.singular_upper_closed(4, *s)

    def test_zero_at_gamma_pole(self):
        # 1 + s/2 = 0: the a-integral's sin(pi s/2) vanishes
        assert al.singular_upper_closed(4, -1.5, -0.5) == 0j

    @pytest.mark.parametrize("quadrature", [al.singular_upper_quadrature,
                                            al.singular_lower_quadrature])
    def test_quadrature_overflow_refused(self, quadrature):
        # d 2^k overflows a float from k = 1016 on; the closed form needs no 2^k
        with pytest.raises(DomainError, match="overflows"):
            quadrature(1100, 0.0, 0.0)
        assert math.isfinite(abs(al.singular_upper_closed(1100, 0.0, 0.0)))

    @pytest.mark.parametrize("quadrature, sign", [(al.singular_upper_quadrature, 1),
                                                  (al.singular_lower_quadrature, -1)])
    def test_high_weight_converges_or_refuses(self, quadrature, sign):
        # at k = 1000 the integral before d 2^k is about 1e-300, so an
        # absolute tolerance on it would accept any estimate; at the origin
        # lower = -upper
        closed = sign * al.singular_upper_closed(1000, 0.0, 0.0)
        try:
            quad = quadrature(1000, 0.0, 0.0)
        except AccuracyError:
            return
        assert abs(quad - closed) <= 1e-6 * abs(closed)

    @pytest.mark.parametrize("quadrature", [al.singular_upper_quadrature,
                                            al.singular_lower_quadrature])
    def test_refusal_states_the_callers_error_and_tolerance(self, quadrature):
        # the error and the tolerance in the message are those of the value
        # the caller would get, after the factor 2 d 2^k: about 12 against
        # 1e-7 |I_upper(0, 0)|, not the 1e-303 of the integral before it
        closed = abs(al.singular_upper_closed(1000, 0.0, 0.0))
        with pytest.raises(AccuracyError) as info:
            quadrature(1000, 0.0, 0.0)
        message = str(info.value)
        assert message.startswith(
            "singular orbital integral at k = 1000, (s1, s2) = (0.0, 0.0): ")
        err, tol = map(float, re.fullmatch(
            r".*error estimate (\S+) exceeds tolerance (\S+)", message).groups())
        assert tol == pytest.approx(1e-12 + 1e-7 * closed, rel=1e-3)
        assert 1.0 < err < closed

    def test_purely_imaginary_at_origin(self):
        for k in (4, 6, 8):
            val = al.singular_upper_closed(k, 0.0, 0.0)
            assert abs(val.real) <= 1e-9 * abs(val)

    def test_printed_display_magnitude_is_ck(self):
        # the two printed formula paths agree exactly by construction
        for k in (4, 6, 8, 10):
            disp = al.singular_upper_display(k)
            assert abs(disp) == pytest.approx(al.leading_constant(k),
                                              rel=1e-15)
            assert disp.real == 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "the printed closed form rests on a wrong half-integer Gamma "
        "reduction; the Gamma closed form (which quadrature confirms) "
        "gives a different value, e.g. +i(8/3)pi d against -80 pi i at k=4"))
    def test_printed_display_equals_assembly(self):
        disp = al.singular_upper_display(4)
        asm = al.singular_upper_closed(4, 0.0, 0.0)
        assert abs(disp - asm) <= 1e-9 * abs(asm)


class TestLowerSingular:
    def test_negative_of_upper_at_origin(self):
        up = al.singular_upper_closed(4, 0.0, 0.0)
        lo = al.singular_lower_quadrature(4, 0.0, 0.0)
        assert abs(lo + up) <= 1e-8 * abs(up)

    def test_reflection_relation(self):
        lo = al.singular_lower_quadrature(4, 0.07, 0.02)
        refl = -al.singular_upper_closed(4, -0.02, -0.07)
        assert abs(lo - refl) <= 1e-10 * abs(refl)

    def test_reflection_relation_complex(self):
        lo = al.singular_lower_quadrature(6, 0.07 + 0.1j, 0.02 - 0.2j)
        refl = -al.singular_upper_closed(6, -(0.02 - 0.2j), -(0.07 + 0.1j))
        assert abs(lo - refl) <= 1e-10 * abs(refl)

    def test_support_positive_axis(self):
        # the lower-orbit test function vanishes for negative first variable
        g = ((-0.5, 0.0), (0.8, 1.0))
        assert al.matrix_coefficient(g, 4) == 0.0


class TestRegularIntegrals:
    def test_negative_axis_zero(self):
        assert al.regular_integral_quadrature(4, -0.5, 0.03, 0.02) == 0.0j
        assert al.regular_integral_closed(4, -0.5, 0.03, 0.02) == 0.0j

    def test_spot_agreement(self):
        qd = al.regular_integral_quadrature(4, 0.5, 0.02, 0.015)
        cl = al.regular_integral_closed(4, 0.5, 0.02, 0.015)
        assert abs(qd - cl) <= 1e-10 * abs(cl)

    def test_random_agreement(self):
        rng = random.Random(99)
        for _ in range(10):
            k = rng.choice([4, 6])
            x = rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1.1, 2.9)])
            s1 = rng.uniform(0.02, 0.08)
            s2 = rng.uniform(0.02, 0.08)
            qd = al.regular_integral_quadrature(k, x, s1, s2)
            cl = al.regular_integral_closed(k, x, s1, s2)
            assert abs(qd - cl) <= 1e-10 * abs(cl), (k, x, s1, s2)

    @pytest.mark.parametrize("k, x, s1, s2", [(4, 0.5, 0.03 + 0.1j, 0.02 - 0.05j),
                                              (6, 2.0, 0.03 + 0.1j, 0.02 - 0.05j),
                                              (4, 0.93, -0.02j, 0.04 + 0.03j)])
    def test_complex_exponents_agreement(self, k, x, s1, s2):
        qd = al.regular_integral_quadrature(k, x, s1, s2)
        cl = al.regular_integral_closed(k, x, s1, s2)
        assert abs(qd - cl) <= 1e-10 * abs(cl)

    @pytest.mark.parametrize("k, x, s1, s2", [(4, 0.4127, 0.0513, 0.0378),
                                              (6, 1.8342, 0.03 + 0.1j, 0.02 - 0.05j)])
    def test_second_quadrant_is_the_conjugate_route(self, k, x, s1, s2):
        # the quadrant over a x + eps b - i (1 - eps a b), integrated on its
        # own, against the conjugate of _quadrant_integral at the conjugate
        # exponents, which regular_integral_quadrature takes in its place
        eps = 1 if x > 1.0 else -1
        rho, sigma = k / 2.0 - s1, k / 2.0 + s2

        def f(a, b):
            re, im = a * x + eps * b, -(1.0 - eps * a * b)
            log_den = 0.5 * np.log(re * re + im * im) + 1j * np.arctan2(im, re)
            return np.exp((rho - 1.0) * np.log(a) + (sigma - 1.0) * np.log(b) - k * log_den)

        spec = nm.QuadratureSpec(domain=nm.quadrant(), rel_tol=al.REGULAR_REL_TOL,
                                 abs_tol=al.REGULAR_ABS_TOL)
        direct = nm.integrate(f, spec)
        route = al._quadrant_integral(k, x, s1.conjugate(), s2.conjugate())
        assert direct.converged and route.converged
        assert abs(direct.value - route.value.conjugate()) <= 1e-15 * abs(direct.value)
        assert direct.error == pytest.approx(route.error, rel=1e-12)

    def test_prefactor_overflow_refused_before_quadrature(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the refusal")
        monkeypatch.setattr(al, "integrate", no_quadrature)
        for regular in (al.regular_integral_quadrature, al.regular_integral_closed):
            with pytest.raises(DomainError, match=r"k = 40, x = 1e\+77"):
                regular(40, 1e77, 0.05, 0.03)

    @pytest.mark.parametrize("x", [1e70, 1e100, 1e150])
    def test_x_past_the_node_range_refused_before_quadrature(self, x, monkeypatch):
        # 1/x lies below the smallest exp-sinh node: the integrands underflow
        # on every node, and the rule returned -1.6e-56j at 1e70 and 0j at 1e100
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the refusal")
        monkeypatch.setattr(al, "integrate", no_quadrature)
        with pytest.raises(AccuracyError, match="smallest quadrature node"):
            al.regular_integral_quadrature(4, x, 0.05, 0.03)

    def test_excluded_points(self):
        with pytest.raises(DomainError):
            al.regular_integral_closed(4, 1.0, 0.05, 0.05)

    def test_combined_error_held_after_the_prefactor(self):
        # up to x = 100 the rule meets the closed form; at x = 300 and 999
        # each quadrant converges on its own, but |x - 1|^(k/2) (err_1 +
        # err_2) is 3.4e-10 and 1.2e-8 against tolerances near 5e-11 and 7e-11
        for x in (10.0, 50.0, 100.0):
            qd = al.regular_integral_quadrature(4, x, 0.05, 0.03)
            cl = al.regular_integral_closed(4, x, 0.05, 0.03)
            assert abs(qd - cl) <= 2e-14 * abs(cl)
        for x in (300.0, 999.0, 1e6, 1e20):
            with pytest.raises(AccuracyError, match="error estimate"):
                al.regular_integral_quadrature(4, x, 0.05, 0.03)

    def test_acceptance_boundary_in_x(self):
        # the combined error crosses the tolerance near x = 195.1
        al.regular_integral_quadrature(4, 151.0, 0.05, 0.03)
        with pytest.raises(AccuracyError, match="error estimate"):
            al.regular_integral_quadrature(4, 200.0, 0.05, 0.03)

    def test_decay_in_orbit_parameter(self):
        # |I((n - M)/n)| <= c / n^(k/2) along the surviving orbit family
        k, M, s1, s2 = 4, 3, 0.05, 0.04
        ns = [10, 30, 100, 300, 1000]
        vals = [abs(al.regular_integral_closed(k, (n - M) / n, s1, s2))
                for n in ns]
        bounds = [v * n ** (k / 2.0) for v, n in zip(vals, ns)]
        assert max(bounds) <= 10.0 * min(b for b in bounds if b > 0)
        assert vals[-1] < vals[0] * 1e-3


@pytest.mark.parametrize("quadrature, args", [
    (al.singular_upper_quadrature, (6, 0.1, -0.05)),
    (al.singular_lower_quadrature, (4, 0.07, 0.02)),
    (al.regular_integral_quadrature, (4, 0.4127, 0.0513, 0.0378)),
    (al.regular_integral_quadrature, (6, 1.8342, 0.0461, 0.0624)),
])
def test_real_exponents_as_floats_or_complex(quadrature, args):
    # one integrand whose dtype follows (s1, s2): real exponents passed as
    # complex numbers with zero imaginary part give the same integral
    *head, s1, s2 = args
    as_float = quadrature(*head, s1, s2)
    as_complex = quadrature(*head, complex(s1), complex(s2))
    assert abs(as_float - as_complex) <= 1e-14 * abs(as_float)


# ---------------------------------------------------------------------------
# the power-form quadrant integrands against the log-space ones they replace
# ---------------------------------------------------------------------------

LD = np.longdouble
NODES = nm._DE_NODES
# the exponents of a and b in each integrand: FOLDS k/2 plus the small
# parts, as functions of (s1, s2)
FOLDS = {"upper": (0, 1), "lower": (1, 0), "regular": (1, 1)}
SMALL_EXPONENTS = {"upper": lambda s1, s2: (-(s1 + s2) - 1.0, s2 - 1.0),
                   "lower": lambda s1, s2: (-s1 - 1.0, s1 + s2 - 1.0),
                   "regular": lambda s1, s2: (-s1 - 1.0, s2 - 1.0)}


def _log_space_parts(kind, x):
    """The node tables of the log-space integrand of each quadrature, as it
    was computed before the power form (log, atan2, sin and exp per node),
    in long double: log a, log b, log |D|^2 and the angle of D."""
    a, b = LD(1) * NODES[:, None], LD(1) * NODES[None, :]
    if kind == "upper":
        re, im = b + 1, -a
    elif kind == "lower":
        re, im = a + 1, b
    else:
        eps = 1 if x > 1.0 else -1
        re, im = a * LD(x) + eps * b, 1 - eps * a * b
    return np.log(a), np.log(b), np.log(re * re + im * im), np.arctan2(im, re)


def _log_space(kind, k, s1, s2, parts):
    """The log-space integrand at (k, s1, s2) from its node tables: (value,
    modulus exp(Re exponent), sum of the moduli of the exponent's terms,
    whose rounding bounds the oracle's own error).  The singular brackets
    are sin(k angle) r^(-k); the regular one is D^(-k)."""
    log_a, log_b, log_d2, angle = parts
    k2 = LD(k) / 2
    t_a, t_b = ((k2 * fold + np.clongdouble(e)) * log for fold, e, log in
                zip(FOLDS[kind], SMALL_EXPONENTS[kind](s1, s2), (log_a, log_b)))
    modulus = np.exp(t_a.real + t_b.real - k2 * log_d2)
    size = np.abs(t_a) + np.abs(t_b) + k2 * np.abs(log_d2) + k * np.abs(angle)
    phase = t_a.imag + t_b.imag - (k * angle if kind == "regular" else 0)
    value = modulus if kind == "regular" else np.sin(k * angle) * modulus
    if phase.any():
        value = value * (np.cos(phase) + 1j * np.sin(phase))
    return value, modulus, size


def _integrand(monkeypatch, kind, k, x, s1, s2):
    """The integrand the quadrature of kind hands to the rule."""
    kernels = []

    def capture(f, spec):
        kernels.append(f)
        return nm.IntegralResult(value=1.0, error=0.0, converged=True)

    with monkeypatch.context() as m:
        m.setattr(al, "integrate", capture)
        if kind == "regular":
            al._quadrant_integral(k, x, s1, s2)
        else:
            {"upper": al.singular_upper_quadrature,
             "lower": al.singular_lower_quadrature}[kind](k, s1, s2)
    return kernels[0]


def _worst_gap(f, kind, k, s1, s2, parts):
    """f on the rule's blocks of nodes against the long-double log-space
    integrand: the largest |f - oracle| over its bound.  Where the oracle's
    modulus M is a normal float the bound is (8k + 2F) ulps of M, F =
    |Re e_a ln a| + |Re e_b ln b| for the small exponents e: one ulp of v
    costs k of v^k, and the rounding of e/k costs up to F/2.  The oracle's
    own rounding, 8 long-double ulps of M per unit of the exponent's terms,
    is added.  Below the normal range the bound is the smallest normal
    float.  No node may be NaN, and M must be finite."""
    rows = nm._DE_BLOCK_ROWS
    with np.errstate(all="ignore"):
        got = np.vstack([np.broadcast_to(f(NODES[lo:lo + rows, None], NODES[None, :]),
                                         (min(rows, NODES.size - lo), NODES.size))
                         for lo in range(0, NODES.size, rows)])
        value, modulus, size = _log_space(kind, k, s1, s2, parts)
    assert not np.isnan(got).any()
    modulus = modulus.astype(float)
    assert np.isfinite(modulus).all()
    e_a, e_b = (abs(complex(e).real) for e in SMALL_EXPONENTS[kind](s1, s2))
    logs = np.abs(np.log(NODES))
    ulps = 8 * k + 2 * (e_a * logs[:, None] + e_b * logs[None, :])
    bound = (ulps * np.finfo(float).eps + 8 * size.astype(float) * np.finfo(LD).eps) * modulus
    tiny = np.finfo(float).tiny
    bound = np.where(modulus >= tiny, bound, tiny)
    return float(np.max(np.abs(got - value.astype(complex)) / bound))


KERNEL_CASES = [("upper", None, [(0.1, -0.05), (0.1 + 0.2j, -0.3j)]),
                ("lower", None, [(0.07, 0.02), (0.07 + 0.1j, 0.02 - 0.2j)])] + [
    ("regular", x, [(0.0513, 0.0378), (0.03 + 0.1j, 0.02 - 0.05j)])
    for x in (1e-20, 0.4127, 1.8342, 150.0, 1e100)]


class TestPowerFormIntegrands:
    @pytest.mark.parametrize("kind, x, points", KERNEL_CASES,
                             ids=[f"{kind}-{x}" for kind, x, _ in KERNEL_CASES])
    def test_node_by_node_against_the_log_space_form(self, monkeypatch, kind, x, points):
        parts = _log_space_parts(kind, x)
        for k in (4, 6, 8, 40, 200, 1000):
            for s1, s2 in points:
                f = _integrand(monkeypatch, kind, k, x, s1, s2)
                assert _worst_gap(f, kind, k, s1, s2, parts) <= 1.0, (k, s1, s2)
                if kind != "regular" and not isinstance(s1, complex):
                    # a real (s1, s2) gives a real singular integrand
                    assert not np.iscomplexobj(f(NODES[:2, None], NODES[None, :]))

    @pytest.mark.parametrize("k", [4, 40])
    def test_a_kernel_without_the_sqrt_b_fold_fails(self, k):
        # the upper integrand with b^(k/2) left out of v, as if sqrt b were
        # not folded into B: the comparison must see it
        s1, s2 = 0.1, -0.05
        mutant = al._power_integrand(k, (False, -(s1 + s2) - 1.0), (False, s2 - 1.0),
                                     lambda a, b: (b + 1.0, a), imag=True)
        assert _worst_gap(mutant, "upper", k, s1, s2, _log_space_parts("upper", None)) > 1e3

    @pytest.mark.parametrize("quadrature, args", [
        (al.singular_lower_quadrature, (100, -49.0, -49.0)),
        (al.singular_upper_quadrature, (16, 0.0, 40.0))])
    def test_overflowing_powers_refused_not_nan(self, quadrature, args):
        # |v|^k passes the float range at the outermost nodes, where the
        # squares meet inf - inf; those nodes read inf, as the log-space
        # form's exp did, so the rule refuses the integral with an
        # infinite error rather than as a NaN integrand (DomainError)
        with pytest.raises(AccuracyError, match="error estimate"):
            quadrature(*args)
