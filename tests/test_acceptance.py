"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with -s or in the captured
output of a failure).  Tolerances are fixed here, not tuned at runtime.
"""

import math
import random

import numpy as np

from modlavg import arch_local as al
from modlavg import arith as ar
from modlavg import harness as hs
from modlavg import lvalues as lv
from modlavg import measures as ms
from modlavg import padic_local as pl
from modlavg.harness import default_data_path


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_measure_normalization():
    worst = 0.0
    for p in (2, 3, 5, 7, 11, 13):
        for sign in (+1, -1):
            worst = max(worst, abs(ms.mass(ms.SatakeMeasure(p=p, sign=sign)) - 1.0))
    report(1, worst <= 1e-10,
           f"both measures have unit mass for six primes (worst gap {worst:.2e})")


def test_criterion_02_moment_table():
    worst = 0.0
    for p in (2, 3, 5):
        split = ms.SatakeMeasure(p=p, sign=+1)
        inert = ms.SatakeMeasure(p=p, sign=-1)
        worst = max(worst, abs(ms.moment(split, 0) - 1.0),
                    abs(ms.moment(inert, 0) - 1.0))
        for n in range(1, 11):
            worst = max(worst, abs(ms.moment(split, n) - 2.0),
                        abs(ms.moment(inert, n)))
    report(2, worst <= 1e-8,
           f"transfer moments are (1; 2,2,...) / (1; 0,0,...) "
           f"(worst gap {worst:.2e})")


def test_criterion_03_spectral_density():
    rng = random.Random(3)
    worst_series = 0.0
    for p in (2, 3):
        period = 2.0 * math.pi / math.log(p)
        for delta in (1.0, -1.0):
            for _ in range(20):
                s = 1j * rng.uniform(0.0, period)
                closed = ms.spectral_density(p, delta, s)
                series = ms.spectral_density_series(p, delta, s)
                worst_series = max(worst_series, abs(closed - series))
    worst_re = 0.0
    for p in (2, 3):
        for _ in range(10):
            s = 1j * rng.uniform(0.01, 1.0)
            lhs = 0.5 * (ms.spectral_density(p, 1.0, s)
                         + ms.spectral_density(p, 1.0, -s))
            worst_re = max(worst_re, abs(lhs - ms.real_part_density(p, s)))
    worst_cov = max(ms.density_change_of_variables_check(p)
                    for p in (2, 3))
    ok = worst_series <= 1e-10 and worst_re <= 1e-10 and worst_cov <= 1e-12
    report(3, ok,
           f"series {worst_series:.2e}, real-part display {worst_re:.2e}, "
           f"change of variables {worst_cov:.2e}")


def test_criterion_04_satake_oracle():
    rng = random.Random(4)
    worst = 0.0
    for p in (2, 3, 5):
        for n in range(7):
            psi = ms.satake_poly(n, p)
            for _ in range(20):
                s = 1j * rng.uniform(0.0, math.pi) / math.log(p)
                lhs = ms.satake_coset_oracle(n, p, s)
                rhs = p ** (n / 2.0) * psi.evaluate(p ** s + p ** (-s))
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    report(4, worst <= 1e-12,
           f"coset sums equal the transfer polynomials (worst rel {worst:.2e})")


def test_criterion_05_arch_closed_forms():
    worst = 0.0
    for k in (4, 6, 8):
        for s in ((0.0, 0.0), (0.1, -0.05), (-0.07, 0.02)):
            closed = al.singular_upper_closed(k, *s)
            quad = al.singular_upper_quadrature(k, *s)
            worst = max(worst, abs(closed - quad) / abs(closed))
    lo = al.singular_lower_quadrature(4, 0.07, 0.02)
    refl = -al.singular_upper_closed(4, -0.02, -0.07)
    refl_gap = abs(lo - refl) / abs(refl)
    val0 = al.singular_upper_closed(4, 0.0, 0.0)
    realness = abs(val0.real) / abs(val0)
    spot = abs(val0 - 4j * math.pi) / (4.0 * math.pi)
    ok = worst <= 1e-6 and refl_gap <= 1e-6 and realness <= 1e-9 and spot <= 1e-15
    report(5, ok,
           f"closed form vs quadrature {worst:.2e}, reflection {refl_gap:.2e}, "
           f"imaginary purity {realness:.2e}, spot 4 pi i {spot:.2e}")


def test_criterion_06_constants():
    h4 = al.alternating_weight_sum(4)
    c4_gap = abs(al.leading_constant(4) - 80.0 * math.pi) / (80.0 * math.pi)
    positive = all(al.leading_constant(k) > 0 for k in (4, 6, 8, 10, 12))
    integral = all(isinstance(al.alternating_weight_sum(k), int)
                   for k in (4, 6, 8, 10, 12))
    ok = h4 == 5 and c4_gap <= 1e-12 and positive and integral
    report(6, ok,
           f"h(4) = {h4}, c_4 relative gap {c4_gap:.2e}, all constants "
           f"positive and integral through weight 12")


def test_criterion_07_regular_hypergeometric():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(10):
        k = rng.choice([4, 6])
        x = rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1.1, 2.9)])
        s1, s2 = rng.uniform(0.02, 0.09), rng.uniform(0.02, 0.09)
        qd = al.regular_integral_quadrature(k, x, s1, s2)
        cl = al.regular_integral_closed(k, x, s1, s2)
        worst = max(worst, abs(qd - cl) / abs(cl))
    zero_ok = (al.regular_integral_quadrature(4, -0.7, 0.05, 0.03) == 0.0j
               and al.regular_integral_closed(4, -0.7, 0.05, 0.03) == 0.0j)
    report(7, worst <= 1e-5 and zero_ok,
           f"closed vs quadrature over 10 random orbits (worst rel {worst:.2e}), "
           f"vanishing on the negative axis")


def test_criterion_08_padic_oracle_equivalence():
    mismatches = 0
    combos = 0
    for q in (2, 3, 5, 7):
        for delta in (+1, -1):
            for kind in ("unramified", "level"):
                place = pl.PlaceSpec(q=q, kind=kind, chi_q=delta)
                for w in range(-4, 5):
                    vxs = ([w] if w < 0
                           else (range(0, 5) if w == 0 else [0]))
                    for vx in vxs:
                        closed = pl.regular_closed_form(place, vx, w)
                        brute = pl.brute_force_integral(
                            place, pl.OrbitDatum(kind="regular", vx=vx, v1mx=w),
                            window=14).value
                        combos += 1
                        mismatches += closed.as_dict() != brute.as_dict()
    # vanishing statements, with the level-place swapped orbits included
    vanish_ok = True
    for q in (3, 7):
        lvl = pl.PlaceSpec(q=q, kind="level", chi_q=-1)
        for kind in ("swap_upper", "swap_lower"):
            if pl.brute_force_integral(lvl, pl.OrbitDatum(kind=kind), 8).cells:
                vanish_ok = False
        for w in (1, 2):  # unramified vanishing for positive v(1-x)
            unr = pl.PlaceSpec(q=q, kind="unramified", chi_q=+1)
            if not pl.brute_force_integral(
                    unr, pl.OrbitDatum(kind="regular", vx=0, v1mx=w), 8
            ).value.is_zero():
                vanish_ok = False
    # Hecke support: tight bound v(1-x) <= r - r' (the printed r + r' form
    # is loose for r' >= 1 and fails at the r' = 0 boundary; see the notes)
    hecke_ok = True
    for (r, r2) in ((1, 0), (2, 0), (2, 1), (3, 1), (2, 2)):
        place = pl.PlaceSpec(q=3, kind="hecke", chi_q=+1, r=r, r2=r2)
        edge = r - r2
        for w in (edge + 1, edge + 2, r + r2 + 1):
            vx = 0 if w > 0 else w
            orbit = pl.OrbitDatum(kind="regular", vx=vx, v1mx=w)
            if not pl.brute_force_integral(place, orbit, 14).value.is_zero():
                hecke_ok = False
    # transform identities and quotient limits
    transforms_ok = True
    for q in (2, 3):
        for side in ("upper", "lower"):
            for n in range(5):
                place = pl.PlaceSpec(q=q, kind="hecke", chi_q=+1, r=n, r2=0)
                brute = pl.brute_force_integral(
                    place, pl.OrbitDatum(kind=side), window=max(8, n + 2))
                fam = pl.hecke_singular_window(q, n, side, window=max(8, n + 2))
                transforms_ok &= brute.value.as_dict() == fam.as_dict()
    quot_ok = True
    s = 1e-6
    for q in (2, 3, 5):
        for n in range(1, 5):
            for delta, target in ((+1, 2.0), (-1, 0.0)):
                raw = pl.hecke_transform_closed(q, delta, n, s, 0.0, "upper")
                lfac = 1.0 / (1.0 - delta * q ** (s))
                direct = pl.hecke_transform_quotient(q, delta, n, s, 0.0, "upper")
                quot_ok &= abs(raw / lfac - direct) <= 1e-10 * max(abs(direct), 1.0)
                quot_ok &= abs(direct - target) <= 6.0 * n * math.log(q) * s
    ok = (mismatches == 0 and vanish_ok and hecke_ok and transforms_ok
          and quot_ok)
    report(8, ok,
           f"{combos} closed forms equal enumeration exactly, all vanishing "
           f"statements hold (Hecke bound in its tight form), transform "
           f"families and quotient paths agree at s = 1e-6")


def test_criterion_09_gauss_sums():
    worst = 0.0
    for D in (-3, -4, -7, -8, -11):
        g = pl.gauss_sum(D)
        worst = max(worst, abs(g - 1j * math.sqrt(-D)),
                    abs(abs(g) - math.sqrt(-D)))
    report(9, worst <= 1e-12, f"g = i sqrt(|D|) for five discriminants "
                              f"(worst gap {worst:.2e})")


def test_criterion_10_arithmetic_layer():
    l1_gap = max(abs(ar.dirichlet_l(-4, 1) - math.pi / 4.0),
                 abs(ar.dirichlet_l(-3, 1) - math.pi / (3.0 * math.sqrt(3.0))))
    l0_gap = max(abs(ar.l_zero_finite_sum(D) - ar.l_zero_via_l_one(D))
                 for D in (-3, -4, -7, -8, -11, -19))
    forms = ar.load_eigenforms(default_data_path())  # validation on load
    trace_ok = True
    primes = [p for p in range(2, 51)
              if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
    for N in (5, 7, 11):
        batch = [f for f in forms if f.level == N]
        for p in primes:
            if p == N:
                continue
            total = sum(f.c(p) for f in batch)
            tr = ar.eichler_selberg_trace(N, 4, p)
            if all(f.is_rational() for f in batch):
                trace_ok &= round(total) == tr
            else:
                trace_ok &= abs(total - tr) <= 1e-8 * max(abs(tr), 1.0)
    ok = l1_gap <= 1e-10 and l0_gap <= 1e-10 and trace_ok
    report(10, ok,
           f"L(1) gaps {l1_gap:.2e}, L(0) relation {l0_gap:.2e}, trace "
           f"formula equals reference sums for p <= 50 at three levels, "
           f"{len(forms)} forms validated on load")


def test_criterion_11_lvalue_machinery(monkeypatch):
    forms = {f.label: f for f in ar.load_eigenforms(default_data_path())}
    dual_gap = 0.0
    for label in ("5.4.a", "7.4.a"):
        cv = lv.central_value(forms[label], lv.fricke_sign(forms[label]))
        dual_gap = max(dual_gap,
                       abs(cv.afe - cv.mellin) / max(abs(cv.afe), 1e-12))
    fe_gap = 0.0
    for label, twist in (("5.4.a", None), ("7.4.a", None), ("11.4.a", None),
                         ("7.4.a", -4), ("11.4.b", -4)):
        comp = lv.CompletedL(forms[label], twist=twist)
        for s_an in (0.3, 0.5, 0.7):
            fe_gap = max(fe_gap, comp.fe_residual(s_an + 1.5))
    f = forms["7.4.a"]
    monkeypatch.setattr(lv, "NORM_RULE", np.polynomial.legendre.leggauss(8))
    monkeypatch.setattr(lv, "NORM_X_PANELS", 4)
    monkeypatch.setattr(lv, "NORM_Y_PANELS", 7)
    coarse = lv.petersson_norm(f)
    monkeypatch.setattr(lv, "NORM_X_PANELS", 8)
    monkeypatch.setattr(lv, "NORM_Y_PANELS", 14)
    fine = lv.petersson_norm(f)
    mesh_gap = abs(coarse - fine) / abs(fine)
    # no external reference norms are shipped, so that clause is vacuous
    ok = dual_gap <= 1e-8 and fe_gap <= 1e-7 and mesh_gap <= 1e-5
    report(11, ok,
           f"dual central-value paths {dual_gap:.2e}, functional-equation "
           f"residuals {fe_gap:.2e}, norm mesh refinement {mesh_gap:.2e}")


def test_criterion_12_average_trend():
    cfg = hs.ExperimentConfig(discriminant=-4, weight=4, aux_prime=13)
    assert cfg.levels == [3, 7, 11]
    rep = hs.run_experiment(cfg)

    # (a) bin shares vs measure masses reported; positive full sums
    prop = rep.proportionality
    l1 = {N: v["l1_distance"] for N, v in prop["levels"].items()
          if not v["degenerate"]}
    positive = all(lvl["spectral_full"] > 0 for lvl in rep.levels
                   if lvl["forms"])
    finite = all(math.isfinite(v) for v in l1.values())

    # (b) the finite-level identity at each level with forms, within its
    # error budget and with S_N > 0 (the report's one verdict)
    failed = sorted(set(rep.envelope["printed"]["violations"])
                    | set(rep.envelope["assembled"]["violations"]))
    identity = ", ".join(
        f"{N}: {r['deviation']:.1e} / {r['budget']:.1e}"
        for N, r in sorted(rep.envelope["assembled"]["rows"].items()))
    if failed:
        identity += f", FAILS at levels {failed}"

    # (c) audit: equal dominant rows, four vanishing rows
    audit_ok = True
    for lvl in rep.levels:
        audit = lvl["audit"]
        audit_ok &= audit["upper_lower_gap"] <= 1e-8
        zeros = [r for r in audit["rows"] if r["value"] == 0.0]
        audit_ok &= len(zeros) == 4

    ok = rep.ok and finite and audit_ok
    report(12, ok,
           f"bin-share distances {', '.join(f'{N}: {v:.3f}' for N, v in sorted(l1.items()))}; "
           f"{'positive' if positive else 'NOT all positive'} sums; "
           f"identity deviation / budget {identity}; "
           f"audit rows {'consistent' if audit_ok else 'INCONSISTENT'}")
