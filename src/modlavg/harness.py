"""End-to-end assembly of the average-value identity.

The spectral side sums L(1/2, f) L(1/2, f x chi) / <f, f> over newforms of
each admissible prime level, binned by the normalized Hecke eigenvalue at
the auxiliary prime.  The geometric side is the split/inert measure mass of
the bin times twice the leading constant times L(1, chi), which the class
number formula gives as pi h_w(D) / sqrt|D| (arith.dirichlet_l).

Each factor of the main term is a rational times a power of pi, held once
in arch_local.main_term.  The constant of the verified local integrals,
c_assembled = 4 |I_upper(0, 0)| / Gamma_C(k/2) = q_k pi^(k/2+1) with
q_k = 2^(3k/2) (k/2-1)! / (k-2)! and Gamma_C(s) = 2 (2 pi)^(-s) Gamma(s)
the archimedean factor the source bookkeeping leaves implicit, gives the
target T = 2 c_assembled L(1, chi) = 2 q_k h_w(D) pi^(k/2+2) / sqrt|D|,
16 pi^4 at (D, k) = (-4, 4).  The report records c_assembled, the printed
constant c_printed = k h(k) |I_upper(0, 0)| (arch_local.leading_constant),
their exact ratio ``assembled_over_printed`` = 4 / (k h(k) Gamma_C(k/2)),
a rational times pi^(k/2) (2 pi^2 / 5 at k = 4), and each level's observed
ratio against c_assembled; the ratio against c_printed is that one times
``assembled_over_printed``.  Only c_assembled is gated.  The two printed
numbers are only reported: each is a normal float or null, with the reason
in the ledger (the ratio from k = 150 on, c_printed from k = 170 on), and
the ledger writes Gamma_C(k/2) in its exact form, so no reported number
refuses a run (``_build_entry``).

With the basic auxiliary test function the identity is exact at finite
level in the stable range N > |D|.  ExperimentConfig refuses a level with
forms outside it, and its default selection leaves such levels out.  The
report's ``envelope`` checks, at every level with forms,
|S_N - 2 c_assembled L(1, chi)| against an error budget
(``identity_budget``, ``identity_check``) whose per-form terms the accuracy
witnesses of the computation bear out; the target's term is CONSTANT_ULPS
units of roundoff, counted in ``identity_budget``.

Only the spectral side depends on the interval J: J enters through which
a_p fall in it and through its mass.  This module keeps two tables for the
process: the per-form rows (``_FORM_CACHE``) and one entry per run key
(data file, D, k, p, levels, bins; ``_run_entry``), which ``_build_entry``
fills on the key's first call with everything else: the measure, the
pickled report payload without its J-dependent leaves (L(1, chi), the
constants and ledger, the full sums S_N, the audits, the bin shares of
``proportionality_test`` and the ``identity_check`` envelope), the
``report.json`` frame and the ``forms.csv`` and ``density.csv`` texts.
(``arith`` and ``lvalues`` keep tables of their own, keyed on integers:
the sieve, the class numbers and trace tables, and the point rows of the
Fricke and modularity checks.)  Every call, the first of its key included,
unpickles the payload, so each report is built from new dicts and lists:
editing one changes no later call, and ``AverageReport.to_json`` is
``json.dumps`` of its current contents.  It then computes J's numbers
alone, the mass of J and S_J at each level, and renders only them: the
frame is the text ``json.dumps(indent=2, sort_keys=True)`` writes for the
payload with the marker ``_SLOT`` at each J-dependent leaf (the ends of
J, its mass and five numbers per level, 18 at three levels), cut at the
markers, and each call writes it with its own leaves in the cuts, each as
json writes it.  An entry is reused only while its rows are the very
lists ``_FORM_CACHE`` holds: the key holds their ids and the entry the
lists, so rows replaced under an unchanged config miss.  Rows are never
compared by value: 0.0 == -0.0, but they are written differently.  The
three output files are encoded once and their bytes overwritten in place
(``_replace``), so a rerun into the same directory leaves the bytes a
fresh directory gets.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache

from . import arch_local, measures, padic_local, reg_tail
from .arith import (
    _as_int,
    _factorize,
    admissible_levels,
    class_number_weighted,
    dim_cusp_forms,
    dirichlet_l,
    is_fundamental_discriminant,
    kronecker,
    load_eigenforms,
)
from .errors import DomainError, InvariantViolation
from .lvalues import (
    CENTRAL_WITNESS_TOL,
    NORM_TOL,
    central_value,
    fricke_sign,
    petersson_norm,
)

__all__ = [
    "ExperimentConfig",
    "AverageReport",
    "default_data_path",
    "measure_mass",
    "spectral_sum",
    "assembled_constant",
    "proportionality_test",
    "geometric_side_audit",
    "identity_budget",
    "identity_check",
    "run_experiment",
]


def default_data_path() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "data", "eigenforms_k4.jsonl")


# the default levels: admissible up to this bound, with at most 2 forms
DEFAULT_LEVEL_BOUND, DEFAULT_MAX_DIM = 60, 2
# bounds the sieve over configured levels: no data file holds N (k - 1) / 12 forms
MAX_LEVEL = 10 ** 6
# bounds the bins: proportionality_test allocates bins + 1 edges and bins
# masses, and report.json writes bins shares per level, so a count in the
# billions would exhaust memory; 10^4 bins are 4e-4 wide
MAX_BINS = 10 ** 4


@dataclass
class ExperimentConfig:
    discriminant: int
    weight: int
    aux_prime: int
    interval: tuple = (-2.0, 2.0)
    levels: list | None = None  # None: admissible small levels in the stable range
    data_path: str | None = None
    bins: int = 4
    output_dir: str | None = None

    def __post_init__(self):
        D, k, p = self.discriminant, self.weight, self.aux_prime
        for name in ("discriminant", "weight", "aux_prime", "bins"):
            if type(getattr(self, name)) is not int:
                raise InvariantViolation(f"{name} must be an integer")
        if not (D < 0 and is_fundamental_discriminant(D)):
            raise InvariantViolation(f"D = {D} is not a negative fundamental discriminant")
        if k % 2 or k < 4:
            raise InvariantViolation("weight must be even and >= 4")
        if _factorize(p) != {p: 1} or D % p == 0:
            raise InvariantViolation(f"auxiliary prime {p} must be a prime not dividing D")
        if self.bins < 1:
            raise InvariantViolation("bins must be >= 1")
        if self.bins > MAX_BINS:
            raise InvariantViolation(f"bins must be <= {MAX_BINS}")
        for name in ("data_path", "output_dir"):
            if not isinstance(getattr(self, name), (str, os.PathLike, type(None))):
                raise InvariantViolation(f"{name} must be a path or null")
        iv = self.interval
        if not (isinstance(iv, (list, tuple)) and len(iv) == 2
                and all(type(x) is int or isinstance(x, float) for x in iv)):
            raise InvariantViolation("interval must be two numbers")
        lo, hi = self.interval = tuple(iv)
        if not (-2.0 <= lo <= hi <= 2.0):  # NaN and infinities fail too
            raise InvariantViolation("interval must be a subinterval of [-2, 2]")

        def unstable(N):
            # outside the stable range S_N misses 2 c L(1, chi) by O(1),
            # e.g. by -3/4 relative at (D, N) = (-8, 7)
            return N <= abs(D) and dim_cusp_forms(N, k) > 0

        if self.levels is None:
            self.levels = [N for N in admissible_levels(D, p, DEFAULT_LEVEL_BOUND)
                           if dim_cusp_forms(N, k) <= DEFAULT_MAX_DIM and not unstable(N)]
        levels = self.levels
        if not (isinstance(levels, (list, tuple)) and all(
                type(N) is int and N <= MAX_LEVEL for N in levels)
                and len(set(levels)) == len(levels)):
            raise InvariantViolation(f"levels must be distinct integers <= {MAX_LEVEL}")
        admissible = admissible_levels(D, p, max(levels, default=1))
        for N in levels:
            if N not in admissible:
                raise InvariantViolation(f"level {N} is not admissible: it must be a prime "
                                         "with chi_D(-N) = 1 dividing neither p nor D")
            if unstable(N):
                raise InvariantViolation(
                    f"level N = {N} with D = {D} lies outside the stable "
                    f"range N > |D|")
        if self.data_path is None:
            self.data_path = default_data_path()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or a file that is not UTF-8
                raise InvariantViolation(f"{path}: parse error: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvariantViolation(f"{path}: config is not a JSON object")
        fields = dataclasses.fields(cls)
        bad = set(raw) - {f.name for f in fields}
        if bad:
            raise InvariantViolation(f"unknown config fields {sorted(bad)}")
        missing = [f.name for f in fields
                   if f.default is dataclasses.MISSING and f.name not in raw]
        if missing:
            raise InvariantViolation(f"missing config fields {missing}")
        return cls(**raw)

    @property
    def measure(self) -> measures.SatakeMeasure:
        return measures.SatakeMeasure(p=self.aux_prime,
                                      sign=kronecker(self.discriminant, self.aux_prime))


# ---------------------------------------------------------------------------
# measure masses and the two leading constants
# ---------------------------------------------------------------------------

def measure_mass(cfg: ExperimentConfig, lo: float, hi: float) -> float:
    """Mass of the config's split/inert measure on [lo, hi]."""
    return measures.mass(cfg.measure, lo, hi)


def assembled_constant(k: int) -> float:
    """c_assembled = 4 |I_upper(0, 0)| / Gamma_C(k/2), from arch_local.main_term."""
    return arch_local._pi_float(arch_local.main_term(k)["c_assembled"], "c_assembled", k)


# ---------------------------------------------------------------------------
# spectral side
# ---------------------------------------------------------------------------

_FORM_CACHE: dict = {}

UNIT_ROUNDOFF = 2.0 ** -53
# the target 2 c_assembled L(1, chi) and the rounding of S_N, in units of
# roundoff, counted in identity_budget
CONSTANT_ULPS = 12


def _form_key(cfg: ExperimentConfig, N: int) -> tuple:
    return (cfg.data_path, N, cfg.weight, cfg.discriminant, cfg.aux_prime)


def _level_rows(cfg: ExperimentConfig, N: int, forms: list | None = None) -> list:
    """Per-newform data at level N: eigenvalue, values, norm, weight.

    ``forms`` is the parsed data file; it is read here when not given.
    The Fricke sign is measured once per form and serves both central
    values, which central_value refuses unless their sign is the one it
    predicts and both accuracy witnesses lie within CENTRAL_WITNESS_TOL.
    """
    key = _form_key(cfg, N)
    if key in _FORM_CACHE:
        return _FORM_CACHE[key]
    if forms is None:
        forms = load_eigenforms(cfg.data_path)
    forms = [f for f in forms if f.level == N and f.weight == cfg.weight]
    expected = dim_cusp_forms(N, cfg.weight)
    if len(forms) != expected:
        raise InvariantViolation(
            f"data file holds {len(forms)} forms at level {N}, expected {expected}"
        )
    rows = []
    for f in sorted(forms, key=lambda g: g.label):
        w = fricke_sign(f)
        cv = central_value(f, w)
        cvt = central_value(f, w, twist=cfg.discriminant)
        nrm = petersson_norm(f)
        rows.append({
            "label": f.label,
            "a_p": f.a(cfg.aux_prime),
            "central": cv.value,
            "central_twisted": cvt.value,
            "eps": cv.eps,
            "eps_twisted": cvt.eps,
            "fricke": w,
            "norm": nrm,
            "contribution": cv.value * cvt.value / nrm,
        })
    _FORM_CACHE[key] = rows
    return rows


def spectral_sum(cfg: ExperimentConfig, N: int, lo: float, hi: float) -> dict:
    """Sum of weighted central products over newforms with a_p in [lo, hi].
    The rows are copies: editing them changes no later call."""
    chosen = [r for r in _level_rows(cfg, N) if lo <= r["a_p"] <= hi]
    return {
        "level": N,
        "interval": (lo, hi),
        "value": math.fsum(r["contribution"] for r in chosen),
        "count": len(chosen),
        "rows": [dict(r) for r in chosen],
    }


def proportionality_test(cfg: ExperimentConfig) -> dict:
    """Bin-share vectors of the spectral mass against the measure masses.

    Binning is exhaustive and exclusive (last bin closed).  Levels with an
    empty or zero full-interval sum are flagged degenerate.
    """
    if len(cfg.levels) < 3:
        raise InvariantViolation("need at least 3 levels")
    edges = [-2.0 + 4.0 * i / cfg.bins for i in range(cfg.bins + 1)]
    measure = cfg.measure
    masses = [measures.mass(measure, lo, hi) for lo, hi in zip(edges, edges[1:])]
    out = {"edges": edges, "measure_masses": masses, "levels": {}}
    for N in cfg.levels:
        rows = _level_rows(cfg, N)
        full = math.fsum(r["contribution"] for r in rows)
        if not rows or full == 0.0:
            out["levels"][N] = {"degenerate": True, "full": full}
            continue
        shares = []
        for i in range(cfg.bins):
            lo, hi = edges[i], edges[i + 1]
            inc = [r for r in rows
                   if (lo <= r["a_p"] < hi) or (i == cfg.bins - 1 and r["a_p"] == hi)]
            shares.append(math.fsum(r["contribution"] for r in inc) / full)
        l1 = sum(abs(s - m) for s, m in zip(shares, masses))
        out["levels"][N] = {"degenerate": False, "full": full,
                            "shares": shares, "l1_distance": l1}
    return out


# ---------------------------------------------------------------------------
# geometric audit
# ---------------------------------------------------------------------------

# valuation window of the enumeration that shows the swapped orbits vanish
AUDIT_WINDOW = 10


def geometric_side_audit(cfg: ExperimentConfig, N: int) -> dict:
    """Itemized singular-orbit table at level N with the basic auxiliary
    test function, plus the truncated regular-tail bound.

    The upper row is the product of local factors I_upper(0, 0) / g(chi_D) =
    |I_upper(0, 0)| / sqrt|D|, 1/V_N = N + 1 and L(0, chi_D) = h_w(D):
    T (1/V_N) Gamma_C(k/2) / (8 pi) for the target T.  The lower row is
    -chi_D(N) times it, not computed on its own, so ``upper_lower_gap`` =
    |1 + chi_D(N)| checks nothing: it is 0.0 at every admissible level
    (chi_D(-N) = 1 and chi_D(-1) = -1).  It is kept so the report keeps its
    fields; an independent lower row would take singular_lower_quadrature
    or the reflection lower(s1, s2) = -upper(-s2, -s1) at the level place,
    which proves N prime.  None of it depends on J: run_experiment calls
    this once per level for each run key."""
    N, D, k = _as_int(N, "level N"), cfg.discriminant, cfg.weight
    chi_n = kronecker(D, N)
    upper, n = arch_local.main_term(k)["upper"]
    upper_val = arch_local._pi_float((upper * (N + 1) * class_number_weighted(D), n),
                                    "the upper audit row", k) / math.sqrt(-D)
    place = padic_local.PlaceSpec(q=N, kind="level", chi_q=chi_n)
    swap_cells = sum(len(padic_local.brute_force_integral(
                         place, padic_local.OrbitDatum(kind=kind), AUDIT_WINDOW).cells)
                     for kind in ("swap_upper", "swap_lower"))
    if swap_cells:
        raise InvariantViolation("swapped singular orbits have support at the level place")
    swept = f"verified-by-oracle ({swap_cells} cells in window {AUDIT_WINDOW})"
    rows = (
        ("identity", 0.0, "axiom (nontrivial character)"),
        ("swap", 0.0, "axiom (nontrivial character)"),
        ("swap_upper", 0.0, swept),
        ("swap_lower", 0.0, swept),
        ("upper", upper_val, "evaluated"),
        ("lower", -chi_n * upper_val, "evaluated"),
    )
    return {
        "level": N,
        "rows": [{"orbit": orbit, "value": value, "status": status}
                 for orbit, value, status in rows],
        "upper_lower_gap": abs(1.0 + chi_n),  # the rows' relative gap
        "regular_tail_bound": reg_tail.tail_envelope(N, abs(D), k, n_max=200 * N),
    }


# ---------------------------------------------------------------------------
# the full experiment
# ---------------------------------------------------------------------------

@dataclass
class AverageReport:
    config: dict
    constants: dict
    levels: list
    proportionality: dict
    envelope: dict
    normalization_ledger: list

    @property
    def ok(self) -> bool:
        """The identity holds: it was checked at one level at least, and it
        passes at every level with forms."""
        env = self.envelope["assembled"]
        return bool(env["rows"]) and env["ok"]

    def to_json(self) -> str:
        """The report's current contents as JSON text."""
        return json.dumps(self._payload(), indent=2, sort_keys=True)

    def _payload(self) -> dict:
        return {
            "config": self.config,
            "constants": self.constants,
            "levels": self.levels,
            "proportionality": self.proportionality,
            "envelope": self.envelope,
            "normalization_ledger": self.normalization_ledger,
        }


# ---------------------------------------------------------------------------
# report.json
# ---------------------------------------------------------------------------

# the J-dependent leaves of each level of report.json, in key order
_J_LEVEL_KEYS = ("interval_mass", "interval_share", "prediction_assembled",
                 "ratio_assembled", "spectral_interval")
# a J-dependent leaf in the report that _frame renders
_SLOT = object()


def _j_leaves(report: AverageReport) -> list:
    """The J-dependent leaves of the report in the order report.json writes
    them: the ends of J, its mass and the _J_LEVEL_KEYS of each level.
    Everything else in it depends only on the run key of ``_run_entry``
    and the per-form rows."""
    return [*report.config["interval"], report.constants["interval_mass"],
            *[lvl[key] for lvl in report.levels for key in _J_LEVEL_KEYS]]


def _slot_text(obj) -> str:
    """json's ``default`` hook in _frame: _SLOT becomes the string "\\0",
    which json writes "\\u0000" (no label holds a control character,
    ``arith._parse_record``); any other type is TypeError."""
    if obj is _SLOT:
        return "\0"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _frame(payload: dict) -> tuple:
    """The report.json text of a report payload, newline included, cut at
    its J-dependent leaves: json writes it with _SLOT at each, whether the
    payload holds the leaves or not."""
    payload = dict(payload, config=dict(payload["config"], interval=[_SLOT, _SLOT]),
                   constants=dict(payload["constants"], interval_mass=_SLOT),
                   levels=[dict(lvl, **dict.fromkeys(_J_LEVEL_KEYS, _SLOT))
                           for lvl in payload["levels"]])
    text = json.dumps(payload, indent=2, sort_keys=True, default=_slot_text)
    return tuple((text + "\n").split('"\\u0000"'))


def _fill(frame: tuple, leaves: list) -> str:
    """The frame's text with its leaves in the cuts, each as json writes
    it: a finite leaf of exact type float, as most are, by float.__repr__
    here."""
    out = [frame[0]]
    for leaf, text in zip(leaves, frame[1:]):
        out.append(float.__repr__(leaf) if type(leaf) is float and leaf - leaf == 0.0
                   else json.dumps(leaf))
        out.append(text)
    return "".join(out)


def identity_budget(rows: list, target: float) -> float:
    """Absolute error budget for |S_N - target| at one level.

    Each contribution L(1/2, f) L(1/2, f x chi) / <f, f> carries, relative
    to itself, CENTRAL_WITNESS_TOL for each of its two central values and
    NORM_TOL for its norm, whose mesh-doubling witness covers the mesh
    error.  The target 2 c_assembled L(1, chi) and the rounding of S_N
    carry CONSTANT_ULPS = 12 units of roundoff u = 2^-53, a correct
    rounding costing 1 u at most, term by term: L(1, chi) 3.85 u
    (``dirichlet_l``; 2.0 u measured over |D| < 400), c_assembled
    3 u + (k/2 + 1) 0.35 u (the roundings of q_k, the pow and the product,
    and math.pi's own 0.35 u raised to the power), the product 1 u and the
    sum S_N 1 u: within 12 u up to k = 14.  Measured, the target is within
    8.1 u of a 50-digit value at every even k <= 40 and the tests' eight D.
    Only constants enter, so rows from any source get the same budget.
    """
    form_rel = 2.0 * CENTRAL_WITNESS_TOL + NORM_TOL
    return (math.fsum(abs(r["contribution"]) for r in rows) * form_rel
            + abs(target) * CONSTANT_ULPS * UNIT_ROUNDOFF)


def identity_check(sums: dict, budgets: dict, target: float) -> dict:
    """The finite-level average identity at every level, within budget.

    ``sums`` and ``budgets`` map each level with forms to its full sum S_N
    and the absolute budget of |S_N - target|, where target =
    2 c_assembled L(1, chi).  The one section, ``assembled``, holds that
    deviation and budget per level.  A level whose deviation exceeds its
    budget, or whose S_N is not positive, is listed under ``violations``
    and clears ``ok``.
    """
    rows = {N: {"deviation": abs(sums[N] - target), "budget": budgets[N]}
            for N in sorted(sums)}
    violations = [N for N, r in rows.items()
                  if not sums[N] > 0 or not r["deviation"] <= r["budget"]]
    return {"assembled": {"rows": rows, "violations": violations,
                          "ok": not violations}}


def _build_entry(cfg: ExperimentConfig, rows: tuple) -> tuple:
    """The entry of the config's run key (``_run_entry``), built from the
    per-form row lists of its levels: (the row lists, the measure, the
    pickled report payload without its J-dependent leaves, the report.json
    frame, the forms.csv text, the density.csv text).

    c_printed and assembled_over_printed, the exact c_assembled / c_k, are
    only reported: each is a normal float, or None (written null) with the
    reason in the ledger's printed-constant line.  Gamma_C(k/2) only feeds
    the ledger, in its exact form.  The gated c_assembled still refuses."""
    D, k, p = cfg.discriminant, cfg.weight, cfg.aux_prime
    measure, term = cfg.measure, arch_local.main_term(k)
    l_one, c_asm = dirichlet_l(D, 1), assembled_constant(k)
    nulls = []
    try:
        c_printed = arch_local.leading_constant(k)
    except DomainError as exc:
        c_printed = None
        nulls.append(f"; {exc}, so c_printed is null")
    try:
        ratio = arch_local._pi_float(term["assembled_over_printed"],
                                     "assembled_over_printed", k)
    except DomainError as exc:
        ratio = None
        nulls.append(f"; {exc}, so it is null")
    ledger = [
        "local volumes: vol(unit-group) = 1 at every finite place; "
        "level volume V_N = 1/(N+1), carried as the factor N+1 = 1/V_N",
        "level closed forms carry the 1/V_N prefactor (the displayed sums do "
        "not); the enumeration oracle fixed this choice",
        "spectral comparison uses finite L-values in the analytic "
        "normalization and the classical Petersson norm",
        "printed constant c_k" + ("" if c_printed is None else f" = {c_printed!r}")
        + " (combinatorial closed form)" + "".join(nulls),
        f"assembled constant = 4 |I_upper(0,0)| / Gamma_C(k/2) = {c_asm!r}; "
        "the 1/(4 pi) of the kernel identity and the V_N of the adelic "
        "pairing cancel in this assembly, leaving one archimedean factor "
        f"Gamma_C(k/2) = {arch_local._pi_text(term['gamma_c'])}",
        "observed full-interval ratios against the assembled constant are in "
        "the per-level rows, and against the printed one they are those "
        "times assembled_over_printed; the bin-share proportionality test is "
        "normalization-free",
    ]
    target = 2.0 * c_asm * l_one
    levels, sums, budgets = [], {}, {}
    for N, level in zip(cfg.levels, rows):
        full = math.fsum(r["contribution"] for r in level)
        if level:
            sums[N], budgets[N] = full, identity_budget(level, target)
        levels.append({"level": N, "forms": level, "spectral_full": full,
                       "audit": geometric_side_audit(cfg, N)})
    payload = {
        "config": {"discriminant": D, "weight": k, "aux_prime": p,
                   "levels": list(cfg.levels), "bins": cfg.bins,
                   "data_path": os.path.basename(cfg.data_path)},
        "constants": {"L1": l_one, "c_printed": c_printed, "c_assembled": c_asm,
                      "assembled_over_printed": ratio, "measure_sign": measure.sign},
        "levels": levels,
        "proportionality": proportionality_test(cfg) if len(cfg.levels) >= 3 else {},
        "envelope": identity_check(sums, budgets, target),
        "normalization_ledger": ledger,
    }
    forms = "".join(
        ["level,label,a_p,central,central_twisted,norm,contribution\n"]
        + [f"{N},{r['label']},{r['a_p']!r},{r['central']!r},"
           f"{r['central_twisted']!r},{r['norm']!r},{r['contribution']!r}\n"
           for N, level in zip(cfg.levels, rows) for r in level])
    return (rows, measure, pickle.dumps(payload), _frame(payload), forms,
            measures.density_csv(p, 400))


def run_experiment(cfg: ExperimentConfig) -> AverageReport:
    # one read of the data file serves every level the cache lacks
    cold = any(_form_key(cfg, N) not in _FORM_CACHE for N in cfg.levels)
    forms = load_eigenforms(cfg.data_path) if cold else None
    rows = tuple(_level_rows(cfg, N, forms) for N in cfg.levels)
    entry = _run_entry(cfg.data_path, cfg.discriminant, cfg.weight, cfg.aux_prime,
                       tuple(cfg.levels), cfg.bins, tuple(map(id, rows)))
    if not entry:
        entry += _build_entry(cfg, rows)
    _, measure, frozen, frame, forms_csv, density = entry
    payload = pickle.loads(frozen)  # new dicts and lists on every call

    lo, hi = cfg.interval
    mass_j = measures.mass(measure, lo, hi)
    constants = payload["constants"]
    g_asm = 2.0 * mass_j * constants["c_assembled"] * constants["L1"]
    payload["config"]["interval"] = [lo, hi]
    constants["interval_mass"] = mass_j
    for lvl, level in zip(payload["levels"], rows):
        s_j = math.fsum(r["contribution"] for r in level if lo <= r["a_p"] <= hi)
        s_full = lvl["spectral_full"]
        lvl.update(spectral_interval=s_j,
                   interval_share=(s_j / s_full) if s_full else None,
                   interval_mass=mass_j, prediction_assembled=g_asm,
                   ratio_assembled=(s_j / g_asm) if g_asm else None)
    report = AverageReport(**payload)
    if cfg.output_dir:
        _write_outputs(cfg.output_dir, _fill(frame, _j_leaves(report)), forms_csv, density)
    return report


def _write_outputs(out: str, report: str, forms: str, density: str) -> None:
    """Write report.json, forms.csv and density.csv into the directory out."""
    os.makedirs(out, exist_ok=True)
    _replace(os.path.join(out, "report.json"), report)
    _replace(os.path.join(out, "forms.csv"), forms)
    _replace(os.path.join(out, "density.csv"), density)


@lru_cache(maxsize=32)
def _run_entry(data_path, D: int, k: int, p: int, levels: tuple, bins: int,
               row_ids: tuple) -> list:
    """What a run key has that does not depend on J: an empty list, which
    run_experiment fills with _build_entry on the key's first call.  Every
    value but the row lists is immutable, and each call unpickles new dicts
    and lists from the payload's bytes.

    The key holds the config's checked ints, the levels and bins, and the
    ids of the _FORM_CACHE row lists the entry was built from: rows
    replaced under an unchanged config (a new _FORM_CACHE, rows written
    into it) miss.  The entry holds those lists, so no id in its key can be
    reused while it lives; rows are compared by identity, never by value
    (0.0 == -0.0, but they are written differently)."""
    return []


def _replace(path: str, text: str) -> None:
    """Make the file at path hold text, UTF-8 encoded, creating it if it is
    missing.

    The text is encoded once and its bytes go straight to the descriptor,
    written in a loop until every byte is down.  An existing file is written
    over in place and then cut to the new length, never truncated first:
    replacing a file through O_TRUNC makes ext4 (auto_da_alloc) start its
    writeback at close, about ten times the cost of the write itself for
    these files."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        os.ftruncate(fd, done)
    finally:
        os.close(fd)
