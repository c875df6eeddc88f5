"""Every refusal of bad input is a typed error under ModlavgError."""

import functools
import math

import numpy as np
import pytest

from modlavg import (arch_local, arith, harness, lvalues, measures, modforms, newforms,
                     numerics, padic_local, reg_tail)
from modlavg.errors import DomainError, InvariantViolation, ModlavgError

SPLIT_13 = measures.SatakeMeasure(p=13, sign=1)
NAN, INF = math.nan, math.inf


@functools.lru_cache(maxsize=None)
def form_5():
    """The seed file's form 5.4.a, loaded on first use."""
    return arith.load_eigenforms(harness.default_data_path())[0]


REFUSALS = {
    "dirichlet_l at s = 2": lambda: arith.dirichlet_l(-4, 2),
    # a float discriminant died in range() with an untyped TypeError
    "dirichlet_l at D = -4.0, s = 0": lambda: arith.dirichlet_l(-4.0, 0),
    "dirichlet_l at D = -4.0, s = 1": lambda: arith.dirichlet_l(-4.0, 1),
    "dirichlet_l at D = True, s = 1": lambda: arith.dirichlet_l(True, 1),
    # l_zero_finite_sum died in range() at -4.0 and gave 0.0, 0.667 and -1.0
    # at D = 5 (positive), -12 (not fundamental) and True
    "l_zero_finite_sum at D = -4.0": lambda: arith.l_zero_finite_sum(-4.0),
    "l_zero_finite_sum at D = 5": lambda: arith.l_zero_finite_sum(5),
    "l_zero_finite_sum at D = -12": lambda: arith.l_zero_finite_sum(-12),
    "l_zero_finite_sum at D = True": lambda: arith.l_zero_finite_sum(True),
    "gauss_sum at D = -4.0": lambda: padic_local.gauss_sum(-4.0),
    # the log-Gamma assembly raised a bare OverflowError from math.gamma;
    # c_assembled is a normal float up to k = 524
    "assembled_constant at k = 526": lambda: harness.assembled_constant(526),
    "assembled_constant at k = 1000": lambda: harness.assembled_constant(1000),
    "class_number_weighted of disc > 0": lambda: arith.class_number_weighted(5),
    "eichler_selberg_trace at m = 0": lambda: arith.eichler_selberg_trace(7, 4, 0),
    "eichler_selberg_trace at m = 3.0": lambda: arith.eichler_selberg_trace(7, 4, 3.0),
    "eichler_selberg_trace at N = 7.0": lambda: arith.eichler_selberg_trace(7.0, 4, 3),
    "eichler_selberg_trace at k = 4.0": lambda: arith.eichler_selberg_trace(7, 4.0, 3),
    "eichler_selberg_trace at m = True": lambda: arith.eichler_selberg_trace(7, 4, True),
    "dim_cusp_forms at k = 4.0": lambda: arith.dim_cusp_forms(7, 4.0),
    "regular_integral_quadrature with |x - 1|^(k/2) past a float at k = 40":
        lambda: arch_local.regular_integral_quadrature(40, 1e77, 0.05, 0.03),
    "regular_integral_quadrature with |x - 1|^(k/2) past a float at k = 4":
        lambda: arch_local.regular_integral_quadrature(4, 1e160, 0.05, 0.03),
    "tail_envelope at N = 7.5": lambda: reg_tail.tail_envelope(7.5, 4, 4, 1400),
    "tail_envelope at M = 4.0": lambda: reg_tail.tail_envelope(7, 4.0, 4, 1400),
    "tail_envelope at k = 4.5": lambda: reg_tail.tail_envelope(7, 4, 4.5, 1400),
    "tail_envelope at k = 5": lambda: reg_tail.tail_envelope(7, 4, 5, 1400),
    "tail_envelope at n_max = 1400.0": lambda: reg_tail.tail_envelope(7, 4, 4, 1400.0),
    "regular_term_bound at n = 9.0": lambda: reg_tail.regular_term_bound(9.0, 4, 4),
    "regular_term_bound at M = True": lambda: reg_tail.regular_term_bound(9, True, 4),
    "regular_term_bound at k = 4.5": lambda: reg_tail.regular_term_bound(9, 4, 4.5),
    "tail_envelope at M = 0": lambda: reg_tail.tail_envelope(7, 0, 4, 100),
    "tail_envelope at M = -4": lambda: reg_tail.tail_envelope(7, -4, 4, 100),
    "regular_term_bound at M = 0": lambda: reg_tail.regular_term_bound(9, 0, 4),
    # tail_sum summed (mN + M)^(-u) as complex numbers at M = -10 and took
    # N = True or 7.0; g_of_n(2.5) gave 1; subpolynomial_check(0.5, 10.5)
    # died in numpy with an untyped TypeError
    "tail_sum at M = -10": lambda: reg_tail.tail_sum(7, -10, 2.5, 100),
    "tail_sum at M = 0": lambda: reg_tail.tail_sum(7, 0, 2.5, 100),
    "tail_sum at N = True": lambda: reg_tail.tail_sum(True, 3, 2.0, 50),
    "tail_sum at N = 7.0": lambda: reg_tail.tail_sum(7.0, 3, 2.0, 100),
    "tail_sum at M = 3.0": lambda: reg_tail.tail_sum(7, 3.0, 2.0, 100),
    "tail_sum at n_max = 100.0": lambda: reg_tail.tail_sum(7, 3, 2.0, 100.0),
    # a NaN exponent gave NaN in every field of tail_sum and {'max': 1.0,
    # 'argmax': 1} from subpolynomial_check; u = inf gave a sum of 0.0
    "tail_sum at u = nan": lambda: reg_tail.tail_sum(7, 3, float("nan"), 100),
    "tail_sum at u = inf": lambda: reg_tail.tail_sum(7, 3, float("inf"), 100),
    "subpolynomial_check at epsilon = nan":
        lambda: reg_tail.subpolynomial_check(float("nan"), 100),
    "subpolynomial_check at epsilon = inf":
        lambda: reg_tail.subpolynomial_check(float("inf"), 100),
    "g_of_n at n = 2.5": lambda: reg_tail.g_of_n(2.5),
    "g_of_n at n = True": lambda: reg_tail.g_of_n(True),
    "subpolynomial_check at n_max = 10.5": lambda: reg_tail.subpolynomial_check(0.5, 10.5),
    # mass compared a str bound with a float (untyped TypeError) and read
    # True as 1
    "mass at lo = 'a'": lambda: measures.mass(SPLIT_13, "a", 1.0),
    "mass at hi = 'a'": lambda: measures.mass(SPLIT_13, -1.0, "a"),
    "mass at lo = True": lambda: measures.mass(SPLIT_13, True, 2.0),
    "mass at hi = False": lambda: measures.mass(SPLIT_13, -2.0, False),
    "mass at lo = None": lambda: measures.mass(SPLIT_13, None, 2.0),
    "mass at hi = 1j": lambda: measures.mass(SPLIT_13, -2.0, 1j),
    "mass at lo = nan": lambda: measures.mass(SPLIT_13, float("nan"), 2.0),
    "mass at hi = nan": lambda: measures.mass(SPLIT_13, -2.0, float("nan")),
    "density_csv at grid 400.0": lambda: measures.density_csv(13, 400.0),
    "density_csv at p = 13.0": lambda: measures.density_csv(13.0, 400),
    "SatakeMeasure with sign 0": lambda: measures.SatakeMeasure(p=5, sign=0),
    "satake_poly at n = -1": lambda: measures.satake_poly(-1, 5),
    "coset_list at n = -1": lambda: measures.coset_list(-1, 5),
    "moment at n = -1": lambda: measures.moment(measures.SatakeMeasure(p=5, sign=1), -1),
    # a float index gave a polynomial of index 0.5 or died with a TypeError
    "satake_poly at n = 2.5": lambda: measures.satake_poly(2.5, 13),
    "coset_list at n = 2.0": lambda: measures.coset_list(2.0, 13),
    "moment at n = 2.0": lambda: measures.moment(measures.SatakeMeasure(p=13, sign=1), 2.0),
    "basis_moment at n = 2.0":
        lambda: measures.basis_moment(measures.SatakeMeasure(p=13, sign=1), 2.0),
    "basis_moment at n = True":
        lambda: measures.basis_moment(measures.SatakeMeasure(p=13, sign=1), True),
    "basis_moment at n = -1":
        lambda: measures.basis_moment(measures.SatakeMeasure(p=13, sign=1), -1),
    "spectral_density at delta = 0": lambda: measures.spectral_density(5, 0, 0.1),
    # one delta rule: delta = 0 died in the two series functions with a
    # ZeroDivisionError and +-inf with an OverflowError; +-inf in the closed
    # form and NaN in all three gave nan+nanj
    "spectral_density at delta = nan": lambda: measures.spectral_density(5, float("nan"), 0.1),
    "spectral_density at delta = inf": lambda: measures.spectral_density(5, float("inf"), 0.1),
    "spectral_density at delta = -inf":
        lambda: measures.spectral_density(5, float("-inf"), 0.1),
    "series_coefficient at delta = 0": lambda: measures.series_coefficient(3, 13, 0),
    "series_coefficient at delta = nan":
        lambda: measures.series_coefficient(3, 13, float("nan")),
    "series_coefficient at delta = inf":
        lambda: measures.series_coefficient(3, 13, float("inf")),
    "series_coefficient at delta = -inf":
        lambda: measures.series_coefficient(3, 13, float("-inf")),
    "spectral_density_series at delta = 0":
        lambda: measures.spectral_density_series(13, 0, 0.1),
    "spectral_density_series at delta = nan":
        lambda: measures.spectral_density_series(13, float("nan"), 0.1),
    "spectral_density_series at delta = inf":
        lambda: measures.spectral_density_series(13, float("inf"), 0.1),
    "spectral_density_series at delta = -inf":
        lambda: measures.spectral_density_series(13, complex("-inf"), 0.1),
    # the series gave -1.76 at p = 4, which the closed form refuses, and a
    # float index died with an untyped TypeError
    "spectral_density_series at p = 4": lambda: measures.spectral_density_series(4, 1, 0.1),
    "spectral_density_series at p = 13.0":
        lambda: measures.spectral_density_series(13.0, 1, 0.1),
    "series_coefficient at n = 2.5": lambda: measures.series_coefficient(2.5, 3, 1),
    "series_coefficient at n = -1": lambda: measures.series_coefficient(-1, 3, 1),
    "series_coefficient at p = 4": lambda: measures.series_coefficient(3, 4, 1),
    "sato_tate_limit_check on decreasing primes":
        lambda: measures.sato_tate_limit_check(1, 2, [5, 3]),
    "QuadratureSpec with rel_tol 0": lambda: numerics.QuadratureSpec(rel_tol=0.0),
    # a NaN tolerance was accepted, and integrate then never converged
    "QuadratureSpec with rel_tol nan": lambda: numerics.QuadratureSpec(rel_tol=NAN),
    "QuadratureSpec with abs_tol nan": lambda: numerics.QuadratureSpec(abs_tol=NAN),
    # x = inf gave NaN with a RuntimeWarning at integer a and a
    # ConvergenceError at other a; a = inf gave NaN, and an a whose Gamma
    # passes the largest float a bare OverflowError
    "gamma_upper at a = 2, x = inf": lambda: numerics.gamma_upper(2, [INF]),
    "gamma_upper at a = 2.5, x = inf": lambda: numerics.gamma_upper(2.5, [INF]),
    "gamma_upper at a = inf": lambda: numerics.gamma_upper(INF, [1.0]),
    "gamma_upper at a = 172": lambda: numerics.gamma_upper(172, [1.0]),
    "gamma_upper at a = 400.5": lambda: numerics.gamma_upper(400.5, [1.0]),
    "lambda_afe at s = 200": lambda: lvalues.CompletedL(form_5()).lambda_afe(200.0),
    # a NaN real part gave a NaN value
    "q_expansion_eval at z = nan + i":
        lambda: lvalues.q_expansion_eval(form_5(), complex(NAN, 1.0)),
    # is_fundamental_discriminant(-4.0) is True, and math.gcd then raised
    # a bare TypeError
    "central_value twisted by -4.0": lambda: lvalues.central_value(form_5(), 1, twist=-4.0),
    # a bool sign was kept as +1, and a float valuation, signature or
    # window was accepted or died with a bare TypeError further on
    "SatakeMeasure with sign True": lambda: measures.SatakeMeasure(5, True),
    "PlaceSpec with chi_q True": lambda: padic_local.PlaceSpec(3, chi_q=True),
    "PlaceSpec with r = 1.5": lambda: padic_local.PlaceSpec(3, kind="hecke", r=1.5),
    "PlaceSpec with r2 = 0.5": lambda: padic_local.PlaceSpec(3, kind="hecke", r=1, r2=0.5),
    "OrbitDatum with vx = 0.5": lambda: padic_local.OrbitDatum(vx=0.5),
    "OrbitDatum with v1mx = -1.0": lambda: padic_local.OrbitDatum(vx=-1, v1mx=-1.0),
    "regular_closed_form at vx = 1.5":
        lambda: padic_local.regular_closed_form(padic_local.PlaceSpec(3, "level"), 1.5, 0),
    "hecke_singular_window at window = 3.5":
        lambda: padic_local.hecke_singular_window(3, 1, "upper", 3.5),
    # delta True and 1.0 gave the delta = +1 value; q = 4 gave a number
    "hecke_transform_quotient with delta True":
        lambda: padic_local.hecke_transform_quotient(3, True, 1, 0.1, 0.2, "upper"),
    "hecke_transform_quotient with delta 1.0":
        lambda: padic_local.hecke_transform_quotient(3, 1.0, 1, 0.1, 0.2, "upper"),
    'hecke_transform_quotient with delta "1"':
        lambda: padic_local.hecke_transform_quotient(3, "1", 1, 0.1, 0.2, "upper"),
    "hecke_transform_quotient at q = 4":
        lambda: padic_local.hecke_transform_quotient(4, 1, 1, 0.1, 0.2, "upper"),
    "hecke_transform_quotient at q = 1":
        lambda: padic_local.hecke_transform_quotient(1, 1, 1, 0.1, 0.2, "upper"),
    "hecke_transform_quotient at q = True":
        lambda: padic_local.hecke_transform_quotient(True, 1, 1, 0.1, 0.2, "upper"),
    "hecke_transform_quotient at q = 3.0":
        lambda: padic_local.hecke_transform_quotient(3.0, 1, 1, 0.1, 0.2, "upper"),
    "hecke_transform_closed at q = 4":
        lambda: padic_local.hecke_transform_closed(4, 1, 1, 0.1, 0.2, "upper"),
    "hecke_transform_closed at q = 1":
        lambda: padic_local.hecke_transform_closed(1, 1, 1, 0.1, 0.2, "upper"),
    "hecke_transform_closed at q = True":
        lambda: padic_local.hecke_transform_closed(True, 1, 1, 0.1, 0.2, "upper"),
    "hecke_transform_closed at q = 3.0":
        lambda: padic_local.hecke_transform_closed(3.0, 1, 1, 0.1, 0.2, "upper"),
    "integrate over an unknown domain kind": lambda: numerics.integrate(
        lambda x: x, numerics.QuadratureSpec(domain=("disc", 0.0))),
    "CuspSpace of weight 12": lambda: modforms.CuspSpace(7, 12),
    "CuspSpace at a level the seed file lacks": lambda: modforms.CuspSpace(13, 4),
    "trace_hecke past the series": lambda: modforms.CuspSpace(7, 4, 40).trace_hecke(41),
    "trace_hecke not prime to N": lambda: modforms.CuspSpace(7, 4).trace_hecke(14),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_is_typed(case):
    with pytest.raises(ModlavgError) as info:
        REFUSALS[case]()
    assert isinstance(info.value, DomainError)


def test_main_term_refusals_name_the_weight():
    # c_assembled = q_k pi^(k/2+1), q_k = 2^(3k/2) (k/2-1)! / (k-2)!, is a
    # normal float up to k = 524 (3.4e-211 at k = 400), though q_k is not
    # from k = 398 on
    for k in (526, 1000):
        message = f"^c_assembled underflows a float at weight k = {k}$"
        with pytest.raises(DomainError, match=message):
            harness.assembled_constant(k)


def test_numpy_ints_accepted_by_the_local_data():
    # the bool and float refusals above take numpy integers as ints
    one, two = np.int64(1), np.int64(2)
    assert measures.SatakeMeasure(5, -one).sign == -1
    place = padic_local.PlaceSpec(3, kind="hecke", chi_q=-one, r=two, r2=one)
    assert (place.chi_q, place.r, place.r2) == (-1, 2, 1)
    assert padic_local.OrbitDatum(vx=two, v1mx=np.int64(0)).vx == 2
    assert padic_local.regular_closed_form(padic_local.PlaceSpec(3), two, 0) == \
        padic_local.regular_closed_form(padic_local.PlaceSpec(3), 2, 0)
    assert padic_local.hecke_singular_window(3, 1, "upper", np.int64(4)) == \
        padic_local.hecke_singular_window(3, 1, "upper", 4)
    assert padic_local.hecke_singular_window(3, one, "upper", 4) == \
        padic_local.hecke_singular_window(3, 1, "upper", 4)
    for side in ("upper", "lower"):
        assert padic_local.hecke_transform_quotient(3, -1, two, 0.1, 0.2, side) == \
            padic_local.hecke_transform_quotient(3, -1, 2, 0.1, 0.2, side)
        assert padic_local.hecke_transform_quotient(3, -one, 2, 0.1, 0.2, side) == \
            padic_local.hecke_transform_quotient(3, -1, 2, 0.1, 0.2, side)
    basic, orbit = padic_local.PlaceSpec(3), padic_local.OrbitDatum()
    assert padic_local.brute_force_integral(basic, orbit, np.int64(5)) == \
        padic_local.brute_force_integral(basic, orbit, 5)
    assert lvalues.CompletedL(form_5(), twist=np.int64(-3)).series.label == "5.4.a twisted by -3"


def test_float_n_max_refused_before_any_trace(monkeypatch):
    # newforms(13, 4, 400.0) computed 89 traces, then died with a TypeError
    def no_trace(N, k, m):
        raise AssertionError(f"Tr T_{m} computed before n_max was checked")
    monkeypatch.setattr(newforms, "eichler_selberg_trace", no_trace)
    with pytest.raises(DomainError, match=r"^n_max = 400\.0 is not an integer$"):
        newforms.newforms(13, 4, 400.0)


def test_non_integer_level_refused_after_a_trace_at_that_level():
    # the root-count table is cached per (N, X): 7.0 and True must be refused
    # before the cache, which a trace at N = 7 has just filled
    assert arith.eichler_selberg_trace(7, 4, 3) == -2
    for N in (7.0, True):
        with pytest.raises(DomainError, match="is not an integer"):
            arith.eichler_selberg_trace(N, 4, 3)


@pytest.mark.parametrize("filled, refused", [
    # a float or a bool equal to an int that has just been computed is
    # refused as well: each of the three computes on every call
    (lambda: reg_tail.tail_envelope(1, 4, 4, 200), [
        lambda: reg_tail.tail_envelope(True, 4, 4, 200),
        lambda: reg_tail.tail_envelope(1.0, 4, 4, 200),
        lambda: reg_tail.tail_envelope(1, 4, 4, 200.0)]),
    (lambda: measures.density_csv(2, 1), [
        lambda: measures.density_csv(2, True),
        lambda: measures.density_csv(2, 1.0)]),
    (lambda: harness.geometric_side_audit(harness.ExperimentConfig(
        discriminant=-4, weight=4, aux_prime=13), 7), [
        lambda: harness.geometric_side_audit(harness.ExperimentConfig(
            discriminant=-4, weight=4, aux_prime=13), 7.0)]),
], ids=["tail_envelope", "density_csv", "geometric_side_audit"])
def test_non_integer_refused_after_the_int_filled_the_table(filled, refused):
    filled()
    for call in refused:
        with pytest.raises(DomainError, match="is not an integer"):
            call()


def test_negative_level_refused_by_config():
    with pytest.raises(InvariantViolation, match="level -3 is not admissible"):
        harness.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13, levels=[-3])
