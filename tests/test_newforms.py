import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from modlavg import arith as ar
from modlavg import newforms as nf
from modlavg.errors import DomainError, InsufficientCoefficients, InvariantViolation
from modlavg.harness import default_data_path
from modlavg.lvalues import CompletedL, central_value, fricke_sign, modularity_residual


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


def test_level_11_correctly_rounded():
    # c_p = Tr T_p/2 +- beta_p sqrt 3 in Z[sqrt 3], the ring of the Hecke
    # field of chi = x^2 - 2x - 2; beta_p read off the floats, the exact
    # value is bracketed by isqrt within 2^-200 and must round to the float
    forms = nf.newforms(11, 4, 2000)
    K = 200
    for p in ar._primes_up_to(2000):
        if p == 11:
            continue
        tr = ar.eichler_selberg_trace(11, 4, p)
        assert tr % 2 == 0, p
        beta = round((forms[0].c(p) - forms[1].c(p)) / (2 * math.sqrt(3)))
        for f, b in zip(forms, (beta, -beta)):
            r = math.isqrt(3 * b * b << 2 * K)  # |b| sqrt 3 in (r, r + 1) / 2^K
            lo, hi = (r, r + 1) if b > 0 else (-r - 1, -r) if b < 0 else (0, 0)
            base = tr // 2 << K
            assert f.c(p) == (base + lo) / (1 << K) == (base + hi) / (1 << K), (f.label, p)


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


@pytest.fixture(scope="module")
def level_59():
    # 14 forms, dimensions up to 4 in one Hecke field; the central values
    # past level 50 need about 1400 coefficients
    return nf.newforms(59, 4, 1400)


class TestPastLevel50:
    def test_central_values_pass(self, level_59):
        # numpy's unrefined eigenvectors gave 59.4.m a split-point spread of
        # 1.01e-12, above the witness tolerance 1e-13
        for f in level_59:
            for twist in (None, -4):
                central_value(f, f.atkin_lehner, twist=twist)

    def test_coefficient_sums_are_traces_to_the_float_conversions(self, level_59):
        # each c_p is the float nearest its exact value, so each of the d
        # conversions moves the sum by at most 2^-53 |c_p| <= 2^-52 p^(3/2)
        d = len(level_59)
        for p in ar._primes_up_to(1400):
            if p != 59:
                total = math.fsum(f.c(p) for f in level_59)
                tr = ar.eichler_selberg_trace(59, 4, p)
                assert abs(total - tr) <= d * 2.0 ** -52 * p ** 1.5, p

    def test_coefficients_pinned(self, level_59):
        # the correctly rounded floats, pinned so that any change shows
        dump = json.dumps([[f.label, f.atkin_lehner, f.coeffs] for f in level_59])
        assert hashlib.sha256(dump.encode()).hexdigest() == (
            "a3a69423b1934de4cc6fa7609e9d8acb0fbeccd8ad9753355ec1f2b0024adb70")

    def test_twist_by_minus_8_at_23(self):
        # refused on its AFE-vs-Mellin gap with numpy's eigenvectors
        form = {f.label: f for f in nf.newforms(23, 4, 800)}["23.4.e"]
        central_value(form, form.atkin_lehner, twist=-8)


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
        # chi = (x + 4)^2 has one distinct root, which Sturm's theorem counts
        with pytest.raises(InvariantViolation, match=(
                r"^Sturm's theorem counts 1 real roots of T_2's characteristic "
                r"polynomial, not 2, at N = 5$")):
            nf.newforms(5, 4, 100)

    def test_integer_root_with_non_integral_coefficient_refused(self, monkeypatch):
        # the traces of two systems with T_2 eigenvalues 2 and -4 feed the
        # elimination, and the lifted K is replaced by that of the same
        # eigenvalues with c_3 = 1/2 and 3/2: K_(j,n) = sum lam^j c_n is an
        # integer, though their traces are not (c_9 = c_3^2 - 27).  The
        # integer root 2 gives exact coefficients, so c_3 must be refused
        # rather than rounded
        base = {p: 0 for p in ar._primes_up_to(4000)}
        f = ar.hecke_extend({**base, 2: 2}, 5, 4, 4000)
        g = ar.hecke_extend({**base, 2: -4, 3: 2}, 5, 4, 4000)
        monkeypatch.setattr(nf, "dim_cusp_forms", lambda N, k: 2)
        monkeypatch.setattr(nf, "eichler_selberg_trace",
                            lambda N, k, m: f[m - 1] + g[m - 1])
        ns = [1] + [p for p in ar._primes_up_to(100) if p != 5]
        K = [[2 ** j * {1: 1, 2: 2, 3: Fraction(1, 2)}.get(n, 0)
              + (-4) ** j * {1: 1, 2: -4, 3: Fraction(3, 2)}.get(n, 0) for n in ns]
             for j in range(3)]
        assert all(x.denominator == 1 for row in K for x in map(Fraction, row))
        monkeypatch.setattr(nf, "_lift", lambda residues, moduli: np.array(
            [[int(x) for x in row] for row in K], dtype=object))
        with pytest.raises(InvariantViolation, match=r"^5\.4\.a: non-integral c_3 = 1/2$"):
            nf.newforms(5, 4, 100)

    @pytest.mark.parametrize("value", [7.0, Fraction(7)])
    def test_trace_that_is_not_an_int_refused(self, monkeypatch, value):
        # residues modulo a prime are taken of exact ints alone
        real = ar.eichler_selberg_trace
        monkeypatch.setattr(nf, "eichler_selberg_trace",
                            lambda N, k, m: value if m == 6 else real(N, k, m))
        with pytest.raises(InvariantViolation,
                           match=rf"^Tr T_6 = {re.escape(repr(value))} at N = 13 is not an exact int$"):
            nf.newforms(13, 4, 400)

    def test_complex_roots_refused(self, monkeypatch):
        # the traces of a conjugate pair with c_2 = 1 +- i: chi = x^2 - 2x + 2
        # has no real root
        base = {p: 0 for p in ar._primes_up_to(4000)}
        pair = ar.hecke_extend({**base, 2: _QuadraticInteger(1, 1, -1),
                                3: _QuadraticInteger(1, 1, -1)}, 5, 4, 4000)
        monkeypatch.setattr(nf, "dim_cusp_forms", lambda N, k: 2)
        traces = [2 * (b if isinstance(b, int) else b.a) for b in pair]
        monkeypatch.setattr(nf, "eichler_selberg_trace", lambda N, k, m: traces[m - 1])
        with pytest.raises(InvariantViolation, match=(
                r"^Sturm's theorem counts 0 real roots of T_2's characteristic "
                r"polynomial, not 2, at N = 5$")):
            nf.newforms(5, 4, 100)

    def test_undecided_coefficient_refused_not_halved_forever(self, monkeypatch):
        # a _quotient that never decides stands for a regression in the zero
        # proof or the corners: the halving stops at _halving_cap's width
        monkeypatch.setattr(nf, "_quotient", lambda *args: None)
        with pytest.raises(InvariantViolation, match=(
                r"^11\.4\.a: c_\d+ undecided on the root's interval of width "
                r"2\^-(\d+), past the proved bound 2\^-\1$")):
            nf.newforms(11, 4, 400)

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


class _QuadraticInteger:
    """a + b sqrt(D), enough of a ring for ``hecke_extend``."""

    def __init__(self, a, b, D=5):
        self.a, self.b, self.D = a, b, D

    def __mul__(self, other):
        if isinstance(other, int):
            return _QuadraticInteger(self.a * other, self.b * other, self.D)
        return _QuadraticInteger(self.a * other.a + self.D * self.b * other.b,
                                 self.a * other.b + self.b * other.a, self.D)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * -1

    def __add__(self, other):
        if isinstance(other, int):
            return _QuadraticInteger(self.a + other, self.b, self.D)
        return _QuadraticInteger(self.a + other.a, self.b + other.b, self.D)


class TestIntegerRootBesideIrrationalOnes:
    """chi = (x - 2)(x^2 - 5): the root sqrt 5 rounds to 2, where chi
    vanishes, yet only the root 2 is integral."""

    @pytest.fixture
    def fake_level(self, monkeypatch):
        # an integer system with c_2 = 2 and a conjugate pair with
        # c_2 = +-sqrt 5; the Fricke and modularity rows of level 5 cannot
        # hold such made-up forms, so they are left out
        base = {p: 0 for p in ar._primes_up_to(4000)}
        # c_7 = 1 only on the integer system, so A_7 vanishes at +-sqrt 5
        # but is not the zero polynomial
        f = ar.hecke_extend({**base, 2: 2, 3: 4, 7: 1}, 5, 4, 4000)
        pair = ar.hecke_extend({**base, 2: _QuadraticInteger(0, 1),
                                3: _QuadraticInteger(1, 1)}, 5, 4, 4000)
        traces = [a + 2 * (b if isinstance(b, int) else b.a) for a, b in zip(f, pair)]
        monkeypatch.setattr(nf, "dim_cusp_forms", lambda N, k: 3)
        monkeypatch.setattr(nf, "eichler_selberg_trace", lambda N, k, m: traces[m - 1])
        monkeypatch.setattr(nf, "_with_fricke_sign",
                            lambda N, k, label, primes, n_max: (label, primes))
        monkeypatch.setattr(nf, "_modularity_ratios", lambda form: ([None], [0.0]))
        return traces

    def test_each_root_gives_its_own_form(self, fake_level):
        forms = dict(nf.newforms(5, 4, 100))
        assert list(forms) == ["5.4.a", "5.4.b", "5.4.c"]
        assert [forms[label][2] for label in forms] == [
            pytest.approx(math.sqrt(5)), 2, pytest.approx(-math.sqrt(5))]
        assert forms["5.4.b"][3] == 4
        assert [forms[label][7] for label in forms] == [0.0, 1, 0.0]
        for p in ar._primes_up_to(100):
            if p != 5:
                assert abs(sum(c[p] for c in forms.values()) - fake_level[p - 1]) \
                    <= 3 * 2.0 ** -52 * p ** 1.5, p

    def test_doubled_form_refused(self, monkeypatch, fake_level):
        # the integer root's form given twice, in place of the root -sqrt 5
        # beside it: Tr T_p no longer holds
        real = nf._isolate
        monkeypatch.setattr(nf, "_isolate", lambda P, s0: [*real(P, s0)[:2], real(P, s0)[1]])
        with pytest.raises(InvariantViolation,
                           match=r"^N = 5: the c_2 of the 3 forms sum to \S+, not Tr T_2 = 2$"):
            nf.newforms(5, 4, 100)


def _rref(rows):
    """Reduced row echelon form over Q and its pivot columns."""
    mat, pivots = [[Fraction(x) for x in row] for row in rows], []
    for col in range(len(mat[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is not None:
            mat[r], mat[piv] = mat[piv], mat[r]
            mat[r] = [x / mat[r][col] for x in mat[r]]
            mat = [row if i == r or not row[col] else
                   [x - row[col] * y for x, y in zip(row, mat[r])] for i, row in enumerate(mat)]
            pivots.append(col)
    return mat, pivots


def _fraction_route(N, k, ns):
    """chi and K_(j,n) = Tr(T_2^j T_n), j <= dim, over Q: the first translates
    T_m t that raise the rank, the matrix of T_2 on them from one solve, the
    Krylov vectors v_j of t = T_1 t in their coordinates, and chi from v_dim
    on v_0 .. v_(dim-1), which needs distinct eigenvalues."""
    dim = ar.dim_cusp_forms(N, k)
    trace = lambda m: ar.eichler_selberg_trace(N, k, m)  # noqa: E731
    translate = lambda m, n: ar.hecke_coefficient(trace, m, n, k, N)  # noqa: E731
    cols = [n for n in range(1, 10 * dim + 40) if n % N][:4 * dim + 20]
    basis = []
    for m in cols:
        if len(_rref([[translate(b, n) for n in cols] for b in basis + [m]])[1]) > len(basis):
            basis.append(m)
        if len(basis) == dim:
            break
    red, pivots = _rref([[translate(b, n) for b in basis]
                         + [ar.hecke_coefficient(lambda j: translate(b, j), 2, n, k, N)
                            for b in basis] for n in cols])
    assert pivots == list(range(dim))
    krylov = [[Fraction(int(i == 0)) for i in range(dim)]]
    while len(krylov) <= dim:
        krylov.append([sum(red[i][dim + j] * krylov[-1][j] for j in range(dim))
                       for i in range(dim)])
    red, pivots = _rref([list(row) for row in zip(*krylov)])
    assert pivots == list(range(dim))
    chi = [-r[dim] for r in red] + [1]
    K = [[sum(v[i] * translate(b, n) for i, b in enumerate(basis)) for n in ns] for v in krylov]
    assert all(x.denominator == 1 for row in [chi] + K for x in row)
    return [int(x) for x in chi], [[int(x) for x in row] for row in K]


@pytest.mark.parametrize("N, n_max", [(13, 400), (19, 400), (53, 560), (59, 1400)])
def test_lifts_equal_the_fraction_route(N, n_max):
    # the levels whose forms tier-1 builds
    ns = [1] + [p for p in ar._primes_up_to(n_max) if p != N]
    trace = lambda m: ar.eichler_selberg_trace(N, 4, m)  # noqa: E731
    dim = ar.dim_cusp_forms(N, 4)
    assert nf._krylov_traces(trace, N, 4, 2, dim, ns) == _fraction_route(N, 4, ns)


@pytest.mark.parametrize("prime, entry", [(0, (0, 0)), (1, (3, 0)), (-1, (2, 7)), (-1, (3, 20))])
def test_one_corrupted_residue_refused(monkeypatch, prime, entry):
    # all primes but the first pin every value, so a residue one off at any
    # prime lifts outside the Deligne bound
    real = ar._lift

    def corrupt(residues, moduli):
        residues = [r.copy() for r in residues]
        residues[prime][entry] = (residues[prime][entry] + 1) % moduli[prime]
        return real(residues, moduli)
    monkeypatch.setattr(nf, "_lift", corrupt)
    with pytest.raises(InvariantViolation,
                       match=r"^N = 13: Tr\(T_2\^\d+ T_\d+\) lifts to -?\d+, outside \+-\d+$"):
        nf.newforms(13, 4, 400)
