import itertools
import math
import tracemalloc

import pytest

from modlavg import padic_local as pl
from modlavg.errors import DomainError, InvariantViolation, PoleError, WindowError


def valid_orbit_data(vmax):
    """All (v(x), v(1-x)) pairs compatible with x + (1 - x) = 1."""
    out = []
    for w in range(-vmax, vmax + 1):
        if w < 0:
            out.append((w, w))
        elif w == 0:
            out.extend((vx, 0) for vx in range(0, vmax + 1))
        else:
            out.append((0, w))
    return out


class TestMembership:
    def test_unit_cell(self):
        place = pl.PlaceSpec(q=3, kind="unramified", chi_q=+1)
        orbit = pl.OrbitDatum(kind="regular", vx=0, v1mx=0)
        assert pl.membership_oracle(place, orbit, 0, 0)
        assert not pl.membership_oracle(place, orbit, 1, 0)

    def test_positive_v1mx_rejects_everything(self):
        place = pl.PlaceSpec(q=3, kind="unramified", chi_q=+1)
        orbit = pl.OrbitDatum(kind="regular", vx=0, v1mx=1)
        assert not any(
            pl.membership_oracle(place, orbit, va, vb)
            for va in range(-6, 7) for vb in range(-6, 7)
        )

    def test_swapped_orbits_vanish_at_level(self):
        place = pl.PlaceSpec(q=7, kind="level", chi_q=-1)
        for kind in ("swap_upper", "swap_lower"):
            orbit = pl.OrbitDatum(kind=kind)
            assert not any(
                pl.membership_oracle(place, orbit, va, vb)
                for va in range(-8, 9) for vb in range(-8, 9)
            )

    def test_invalid_orbit_rejected(self):
        with pytest.raises(InvariantViolation):
            pl.OrbitDatum(kind="regular", vx=2, v1mx=1)
        with pytest.raises(InvariantViolation):
            pl.OrbitDatum(kind="regular", vx=-1, v1mx=-2)


HECKE_SIGNATURES = [(r, r2) for r in range(4) for r2 in range(r + 1)]
PLACE_KINDS = ([("unramified", 0, 0), ("level", 0, 0)]
               + [("hecke", r, r2) for r, r2 in HECKE_SIGNATURES])
SINGULAR_KINDS = ("upper", "lower", "swap_upper", "swap_lower")
ENUMERATION_ORBITS = (
    [pl.OrbitDatum(kind="regular", vx=vx, v1mx=w) for vx, w in valid_orbit_data(4)]
    + [pl.OrbitDatum(kind=kind) for kind in SINGULAR_KINDS]
)


def accepted_cells(place, orbit, window):
    """The cells of the window that membership_oracle accepts, one call per
    cell, rows of v(a) in increasing order."""
    return [(va, vb)
            for va in range(-window, window + 1) for vb in range(-window, window + 1)
            if pl.membership_oracle(place, orbit, va, vb)]


def loop_enumeration(place, orbit, window, cells):
    """brute_force_integral by its definition, from the accepted cells of a
    window at least as wide."""
    cells = tuple((va, vb) for va, vb in cells if max(abs(va), abs(vb)) <= window)
    touched = any(max(abs(va), abs(vb)) == window for va, vb in cells)
    if touched and orbit.kind == "regular":
        raise WindowError("touched")
    weights = {}
    for va, vb in cells:
        mn = pl._weight_exponents(orbit, va, vb)
        weights[mn] = weights.get(mn, 0) + 1
    vol = place.q + 1 if place.kind == "level" else 1
    value = pl.LaurentValue.from_dict({mn: vol * c for mn, c in weights.items()})
    return value, touched, cells


def assert_matches_loop(place, orbit, windows, cells):
    """brute_force_integral at each window equals loop_enumeration from the
    accepted cells of the widest, or both raise WindowError."""
    for window in windows:
        try:
            expected = loop_enumeration(place, orbit, window, cells)
        except WindowError:
            with pytest.raises(WindowError):
                pl.brute_force_integral(place, orbit, window)
            continue
        res = pl.brute_force_integral(place, orbit, window)
        assert (res.value, res.touched_boundary, res.cells) == expected
        assert all(type(v) is int for cell in res.cells for v in cell)
        assert all(type(v) is int for (m, n), c in res.value.terms for v in (m, n, c))


class TestArrayEnumeration:
    @pytest.mark.parametrize("kind, r, r2", PLACE_KINDS)
    def test_matches_loop_over_oracle(self, kind, r, r2):
        for q in (2, 3, 5, 7):
            for delta in (+1, -1):
                place = pl.PlaceSpec(q=q, kind=kind, chi_q=delta, r=r, r2=r2)
                for orbit in ENUMERATION_ORBITS:
                    assert_matches_loop(place, orbit, (6, 10, 14),
                                        accepted_cells(place, orbit, 14))

    @pytest.mark.parametrize("kind, r, r2", PLACE_KINDS)
    def test_matches_loop_over_oracle_across_blocks(self, kind, r, r2):
        # windows 33 and 40 span two and three blocks of _BLOCK_ROWS rows,
        # so cells of one orbit come from several blocks
        assert pl._BLOCK_ROWS == 32
        place = pl.PlaceSpec(q=3, kind=kind, chi_q=-1, r=r, r2=r2)
        for orbit in ENUMERATION_ORBITS:
            assert_matches_loop(place, orbit, (33, 40), accepted_cells(place, orbit, 40))

    def test_oracle_makes_no_numpy_call(self, monkeypatch):
        # one cell of Python ints is decided by operators and builtins
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} called for one cell")

        places = [pl.PlaceSpec(q=3, kind=kind, r=r, r2=r2) for kind, r, r2 in PLACE_KINDS]
        grid = [(place, orbit, va, vb) for place in places for orbit in ENUMERATION_ORBITS
                for va in range(-3, 4) for vb in range(-3, 4)]
        expected = [pl.membership_oracle(*case) for case in grid]
        assert any(expected) and not all(expected)
        monkeypatch.setattr(pl, "np", NoNumpy())
        assert [pl.membership_oracle(*case) for case in grid] == expected

    def test_oracle_returns_bool(self):
        place = pl.PlaceSpec(q=3, kind="hecke", r=2, r2=1)
        for orbit in ENUMERATION_ORBITS:
            assert type(pl.membership_oracle(place, orbit, 1, -1)) is bool

    @pytest.mark.parametrize("window", [10.0, True, 0, -3, "10"])
    def test_window_must_be_positive_int(self, window):
        place = pl.PlaceSpec(q=3, kind="unramified")
        with pytest.raises(DomainError, match="window"):
            pl.brute_force_integral(place, pl.OrbitDatum(kind="upper"), window)

    def test_memory_bounded_at_window_400(self):
        # rows are decided in blocks, so no temporary spans the 801 x 801
        # window; deciding it in one block peaks at 7 to 49 MB (numpy 2.4)
        place = pl.PlaceSpec(q=3, kind="hecke", r=3, r2=1)
        orbits = [pl.OrbitDatum(kind="regular", vx=5, v1mx=0)]
        orbits += [pl.OrbitDatum(kind=kind) for kind in SINGULAR_KINDS]
        for orbit in orbits:
            pl.brute_force_integral(place, orbit, 12)  # warm imports and caches
            tracemalloc.start()
            try:
                pl.brute_force_integral(place, orbit, 400)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2 ** 20, (orbit.kind, peak)


class TestOracleClosedFormEquality:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_unramified_exact(self, q):
        place = pl.PlaceSpec(q=q, kind="unramified", chi_q=+1)
        for vx, w in valid_orbit_data(4):
            closed = pl.regular_closed_form(place, vx, w)
            orbit = pl.OrbitDatum(kind="regular", vx=vx, v1mx=w)
            brute = pl.brute_force_integral(place, orbit, window=12).value
            assert closed.as_dict() == brute.as_dict(), (q, vx, w)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_level_exact(self, q):
        place = pl.PlaceSpec(q=q, kind="level", chi_q=-1)
        for vx, w in valid_orbit_data(4):
            closed = pl.regular_closed_form(place, vx, w)
            orbit = pl.OrbitDatum(kind="regular", vx=vx, v1mx=w)
            brute = pl.brute_force_integral(place, orbit, window=12).value
            assert closed.as_dict() == brute.as_dict(), (q, vx, w)

    def test_spec_spot_values(self):
        place = pl.PlaceSpec(q=3, kind="unramified", chi_q=+1)
        assert pl.regular_closed_form(place, 1, 0).evaluate(+1, 3, 0, 0) \
            == pytest.approx(2.0)
        assert pl.regular_closed_form(place, 0, 0).evaluate(+1, 3, 0, 0) \
            == pytest.approx(1.0)
        # the single cell chi(7)^-1 = -1, times the 1/V_N = q + 1 = 8 prefactor
        lvl = pl.PlaceSpec(q=7, kind="level", chi_q=-1)
        assert pl.regular_closed_form(lvl, 1, 0).evaluate(-1, 7, 0, 0) \
            == pytest.approx(-8.0)

    def test_level_volume_prefactor(self):
        # two unit cells, each weighted by 1/V_N = q + 1 = 8
        lvl = pl.PlaceSpec(q=7, kind="level", chi_q=-1)
        assert pl.regular_closed_form(lvl, 2, 0).as_dict() == {(-1, 1): 8, (-2, 2): 8}

    def test_parity_invariant(self):
        for q in (2, 5):
            for kind in ("unramified", "level"):
                place = pl.PlaceSpec(q=q, kind=kind, chi_q=+1)
                for vx, w in valid_orbit_data(4):
                    lv = pl.regular_closed_form(place, vx, w)
                    for (m, n), c in lv.terms:
                        assert c != 0
                        assert (m - n - w) % 2 == 0


class TestVanishingAndSupport:
    def test_level_vanishing_off_unit_v1mx(self):
        place = pl.PlaceSpec(q=5, kind="level", chi_q=+1)
        for w in (-3, -2, -1, 1, 2):
            vx = w if w < 0 else 0
            orbit = pl.OrbitDatum(kind="regular", vx=vx, v1mx=w)
            assert pl.brute_force_integral(place, orbit, 10).value.is_zero()

    def test_hecke_support_bound_is_tight(self):
        # support requires v(1-x) <= r - r'; cells exist exactly at the edge
        for (r, r2) in [(1, 0), (2, 0), (2, 1), (3, 1), (2, 2)]:
            place = pl.PlaceSpec(q=3, kind="hecke", chi_q=+1, r=r, r2=r2)
            edge = r - r2
            for w in range(edge + 1, edge + 3):
                orbit = pl.OrbitDatum(kind="regular", vx=0 if w > 0 else w,
                                      v1mx=w)
                assert pl.brute_force_integral(place, orbit, 12).value.is_zero(), \
                    (r, r2, w)
            vx_edge = 0 if edge > 0 else edge
            orbit = pl.OrbitDatum(kind="regular", vx=vx_edge, v1mx=edge)
            assert not pl.brute_force_integral(place, orbit, 12).value.is_zero(), \
                (r, r2)

    def test_hecke_stated_bound_holds_for_balanced_signatures(self):
        # v(1-x) >= r + r' kills the support whenever r' >= 1; for r' = 0 the
        # boundary v(1-x) = r is the tight edge exhibited above
        for (r, r2) in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            place = pl.PlaceSpec(q=3, kind="hecke", chi_q=+1, r=r, r2=r2)
            for w in range(r + r2, r + r2 + 2):
                orbit = pl.OrbitDatum(kind="regular", vx=0, v1mx=w)
                assert pl.brute_force_integral(place, orbit, 12).value.is_zero()

    def test_hecke_cell_count_bounded(self):
        # the double-coset regular integrals are bounded by a per-signature
        # constant times (v(x) + 1)^2; only boundedness over the tested
        # range is asserted (no printed constant exists), with the observed
        # maximum as the empirical constant
        for (r, r2) in ((1, 0), (2, 0), (3, 0), (2, 1)):
            place = pl.PlaceSpec(q=3, kind="hecke", chi_q=+1, r=r, r2=r2)
            ratios = []
            for vx in range(0, 7):
                orbit = pl.OrbitDatum(kind="regular", vx=vx, v1mx=0)
                cells = pl.brute_force_integral(place, orbit, 20).cells
                ratios.append(len(cells) / float((vx + 1) ** 2))
            observed_c = max(ratios)
            assert observed_c < math.inf
            # the normalized count decays once v(x) dominates the signature
            assert ratios[6] <= ratios[2] <= observed_c

    def test_window_error_on_touching_support(self):
        place = pl.PlaceSpec(q=3, kind="unramified", chi_q=+1)
        orbit = pl.OrbitDatum(kind="regular", vx=4, v1mx=0)
        with pytest.raises(WindowError):
            pl.brute_force_integral(place, orbit, window=4)

    def test_support_box_exact(self):
        place = pl.PlaceSpec(q=3, kind="unramified", chi_q=+1)
        for vx, w in valid_orbit_data(4):
            orbit = pl.OrbitDatum(kind="regular", vx=vx, v1mx=w)
            cells = pl.brute_force_integral(place, orbit, 12).cells
            (alo, ahi), (blo, bhi) = pl.support_box(place, orbit)
            if not cells:
                continue
            vas = [c[0] for c in cells]
            vbs = [c[1] for c in cells]
            assert min(vas) >= alo and max(vas) <= ahi
            assert min(vbs) >= blo and max(vbs) <= bhi
            # every face of the box is attained
            assert min(vas) == alo and max(vas) == ahi
            assert min(vbs) == blo and max(vbs) == bhi


class TestSingularTransforms:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_window_families_match_enumeration(self, q, side):
        for chi_q, n in itertools.product((+1, -1), range(7)):
            place = pl.PlaceSpec(q=q, kind="hecke", chi_q=chi_q, r=n, r2=0)
            orbit = pl.OrbitDatum(kind=side)
            brute = pl.brute_force_integral(place, orbit, window=max(8, n + 2))
            fam = pl.hecke_singular_window(q, n, side, window=max(8, n + 2))
            assert brute.value.as_dict() == fam.as_dict(), (q, side, chi_q, n)

    def test_closed_form_matches_enumeration_numerically(self):
        # evaluate inside the half-plane where the cell series converges
        # (the closed form is its sum there); subtract the geometric tails
        q, window = 3, 30
        for delta in (+1, -1):
            for side in ("upper", "lower"):
                sgn = -1.0 if side == "upper" else 1.0
                s1, s2 = sgn * 0.21 + 0.13j, sgn * 0.094 - 0.05j
                for n in range(4):
                    place = pl.PlaceSpec(q=q, kind="hecke", chi_q=delta,
                                         r=n, r2=0)
                    brute = pl.brute_force_integral(
                        place, pl.OrbitDatum(kind=side), window)
                    val = brute.value.evaluate(delta, q, s1, s2)
                    closed = pl.hecke_transform_closed(q, delta, n, s1, s2, side)
                    if side == "upper":
                        ratio = delta * q ** (s1 + s2)
                        heads = ([1.0] if n == 0 else
                                 [q ** (-n * s2), q ** (n * s2)])
                    else:
                        ratio = delta * q ** (-(s1 + s2))
                        heads = ([1.0] if n == 0 else
                                 [delta ** n * q ** (n * s1),
                                  delta ** n * q ** (-n * s1)])
                    tail = sum(h for h in heads) * ratio ** (window + 1) / (1.0 - ratio)
                    assert abs(val - (closed - tail)) <= 1e-11 * max(abs(closed), 1.0), \
                        (delta, side, n)

    def test_quotient_limits(self):
        # the quotient at s differs from its limit by O(s log q); check the
        # value at s = 1e-6 against the limit at first order, and that the
        # deviation shrinks proportionally with s
        for q in (2, 3, 5):
            for n in range(1, 5):
                for delta, target in ((+1, 2.0), (-1, 0.0)):
                    d6 = abs(pl.hecke_transform_quotient(q, delta, n, 1e-6,
                                                         0.0, "upper") - target)
                    d9 = abs(pl.hecke_transform_quotient(q, delta, n, 1e-9,
                                                         0.0, "upper") - target)
                    assert d6 <= 4 * n * math.log(q) * 1e-6
                    assert d9 <= 1.1e-3 * d6 + 1e-12
                    l6 = abs(pl.hecke_transform_quotient(q, delta, n, 1e-6,
                                                         1e-6, "lower") - target)
                    assert l6 <= 8 * n * math.log(q) * 1e-6

    def test_quotient_path_agreement(self):
        # the pole-free quotient formula against the raw transform divided
        # by its local L-factor, just off the pole: agreement is essentially
        # exact (this is the sharp 1e-10 statement at s = 1e-6; the limit
        # itself is approached only linearly in s)
        s = 1e-6
        for q in (2, 3, 5):
            for delta in (+1, -1):
                for n in range(1, 5):
                    for side, sgn in (("upper", -1.0), ("lower", +1.0)):
                        s1, s2 = s, 0.37 * s
                        raw = pl.hecke_transform_closed(q, delta, n, s1, s2, side)
                        lfac = 1.0 / (1.0 - delta * q ** (sgn * -(s1 + s2)))
                        direct = pl.hecke_transform_quotient(q, delta, n, s1, s2, side)
                        assert abs(raw / lfac - direct) <= 1e-10 * max(abs(direct), 1.0)

    def test_transform_n0(self):
        val = pl.hecke_transform_closed(3, -1, 0, 0.0, 0.0, "upper")
        assert val == pytest.approx(0.5)  # 1/(1 + 1)

    def test_pole_flag(self):
        with pytest.raises(PoleError):
            pl.hecke_transform_closed(3, +1, 2, 0.0, 0.0, "upper")

    @pytest.mark.parametrize("delta, n, side", [
        (0, 2, "upper"), (2, 2, "lower"), (+1, -1, "upper"), (-1, 0, "sideways"),
    ])
    def test_bad_input_refused(self, delta, n, side):
        # delta is a character value, n an index, side one of two names;
        # all three are checked before any arithmetic
        for transform in (pl.hecke_transform_closed, pl.hecke_transform_quotient):
            with pytest.raises(DomainError):
                transform(3, delta, n, 0.1, 0.0, side)
        if delta in (+1, -1):  # the window's cells do not depend on delta
            with pytest.raises(DomainError):
                pl.hecke_singular_window(3, n, side, 8)

    def test_geometric_series_identity(self):
        # singular upper sum at the basic place matches the truncated local
        # L-expansion term by term
        place = pl.PlaceSpec(q=5, kind="unramified", chi_q=+1)
        brute = pl.brute_force_integral(place, pl.OrbitDatum(kind="upper"), 9)
        assert brute.touched_boundary
        expected = {(j, -j): 1 for j in range(0, 10)}
        assert brute.value.as_dict() == expected


class TestGaussSums:
    @pytest.mark.parametrize("D", [-3, -4, -7, -8, -11])
    def test_value_and_magnitude(self, D):
        g = pl.gauss_sum(D)
        assert abs(g - 1j * math.sqrt(-D)) <= 1e-12
        assert abs(abs(g) - math.sqrt(-D)) <= 1e-12

    def test_local_conductors(self):
        exps = pl.local_conductor_exponents(-8)
        assert exps == {2: 3}
        prod = 1.0
        for q, m in exps.items():
            prod *= q ** (m / 2.0)
        assert prod == pytest.approx(math.sqrt(8.0))

    def test_nonnegative_rejected(self):
        with pytest.raises(ValueError):
            pl.gauss_sum(5)

    def test_non_fundamental_rejected(self):
        # -12 = 4 * (-3) is not fundamental; its character sum is about 7e-16 i
        with pytest.raises(DomainError, match="fundamental"):
            pl.gauss_sum(-12)


class TestReflection:
    @pytest.mark.parametrize("q", [3, 7])
    @pytest.mark.parametrize("delta", [+1, -1])
    def test_reflection_report(self, q, delta):
        out = pl.n_minus_reflection_check(q, delta)
        assert out["laurent_gap"] == 0
        assert out["level_gap"] <= 1e-10
        assert out["f_quotient_upper_is_one"]
        assert out["f_quotient_lower_is_one"]
