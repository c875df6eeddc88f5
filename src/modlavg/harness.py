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
their ratio ``assembled_over_printed`` (2 pi^2 / 5 at k = 4) and the
observed ratios against each: no normalization dispute is hidden.  Only
c_assembled is gated; from k = 170 on c_printed is no float, and it and
what derives from it are written null (``_constants``).

With the basic auxiliary test function the identity is exact at finite
level in the stable range N > |D|.  ExperimentConfig refuses a level with
forms outside it, and its default selection leaves such levels out.  The
report's ``envelope`` checks, at every level with forms,
|S_N - 2 c_assembled L(1, chi)| against an error budget
(``identity_budget``, ``identity_check``) whose per-form terms the accuracy
witnesses of the computation bear out; the target's term is CONSTANT_ULPS
units of roundoff, counted in ``identity_budget``.

Only the spectral side depends on the interval J.  This module keeps for
the process what does not: the per-form rows (``_FORM_CACHE``), the
constants, ledger and density table of each (D, k, p) (``_constants``),
the measure of each (p, D) (``_satake_measure``), the bin masses
(``_bin_masses``), the geometric audit of each level (``_audit_table``)
and the entry of each run key (``_run_entry``: the full sums S_N, the bin
shares of ``proportionality_test``, the ``identity_check`` envelope, and
the output text once the key is written), keyed on checked integers and
the frozen measure.  (``arith`` and ``lvalues`` keep tables of their own,
keyed on integers: the sieve, the class numbers and trace tables, and the
point rows of the Fricke and modularity checks.)  A warm
``run_experiment`` at a new J computes J's numbers alone, the mass of J
and S_J at each level, and renders only them.  ``report.json`` is written
from a frame: the text ``_json_emit`` writes for the first report of a run
key (data file, D, k, p, levels, bins) with the marker ``_SLOT`` at each
J-dependent leaf (the ends of J, its mass and seven numbers per level, 24
at three levels), cut at the markers.  Each call writes the frame with its
own leaves in the cuts, by ``_json_emit``'s scalar rules, and the key's
``forms.csv`` text.  An entry is reused only while its rows are the very
lists ``_FORM_CACHE`` holds: the key holds their ids and the entry the
lists, so rows replaced under an unchanged config miss.  Rows are never
compared by value: 0.0 == -0.0, but they are written differently.
Every report is built from new dicts and lists: editing one changes no
later call, and ``AverageReport.to_json`` renders its current contents in
one pass (``_json_text``), with the bytes of
``json.dumps(indent=2, sort_keys=True)``; any indent sends the standard
library to its slower pure-Python encoder.  The three output files are
encoded once and their bytes overwritten in place (``_replace``), so a
rerun into the same directory leaves the bytes a fresh directory gets.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii

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
        return _satake_measure(self.aux_prime, self.discriminant)


@lru_cache(maxsize=None)
def _satake_measure(p: int, D: int) -> measures.SatakeMeasure:
    """The split/inert measure of a config, built once per process for each
    (p, D), the config's checked ints: the record is frozen, so every
    config with them shares it."""
    return measures.SatakeMeasure(p=p, sign=kronecker(D, p))


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
    """Sum of weighted central products over newforms with a_p in [lo, hi]."""
    rows = _level_rows(cfg, N)
    chosen = [r for r in rows if lo <= r["a_p"] <= hi]
    return {
        "level": N,
        "interval": (lo, hi),
        "value": math.fsum(r["contribution"] for r in chosen),
        "count": len(chosen),
        "rows": chosen,
    }


def proportionality_test(cfg: ExperimentConfig) -> dict:
    """Bin-share vectors of the spectral mass against the measure masses.

    Binning is exhaustive and exclusive (last bin closed).  Levels with an
    empty or zero full-interval sum are flagged degenerate.  The measure
    masses of the bins come from the per-process table _bin_masses.
    """
    if len(cfg.levels) < 3:
        raise InvariantViolation("need at least 3 levels")
    edges = _bin_edges(cfg.bins)
    masses = list(_bin_masses(cfg.measure, cfg.bins))
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


def _bin_edges(bins: int) -> list:
    return [-2.0 + 4.0 * i / bins for i in range(bins + 1)]


@lru_cache(maxsize=None)
def _bin_masses(measure: measures.SatakeMeasure, bins: int) -> tuple:
    """Masses of the measure on the bins equal parts of [-2, 2], built once
    per process for each (measure, bins): they do not depend on J."""
    edges = _bin_edges(bins)
    return tuple(measures.mass(measure, lo, hi) for lo, hi in zip(edges, edges[1:]))


# ---------------------------------------------------------------------------
# geometric audit
# ---------------------------------------------------------------------------

# valuation window of the enumeration that shows the swapped orbits vanish
AUDIT_WINDOW = 10


def geometric_side_audit(cfg: ExperimentConfig, N: int) -> dict:
    """Itemized singular-orbit table at level N with the basic auxiliary
    test function, plus the truncated regular-tail bound.

    ``upper_lower_gap`` checks nothing: the lower row is -chi_D(N) times the
    upper one by construction, so the gap is |1 + chi_D(N)|, 0.0 at every
    admissible level (chi_D(-N) = 1 and chi_D(-1) = -1).  It is kept so the
    report keeps its fields; an independent lower row is ROADMAP work.

    None of it depends on J: _audit_table builds it once per process for
    each checked (N, D, k), and the dicts and lists are new on every call."""
    N = _as_int(N, "level N")
    rows, gap, tail = _audit_table(N, _as_int(cfg.discriminant, "discriminant D"),
                                   _as_int(cfg.weight, "weight k"))
    return {
        "level": N,
        "rows": [{"orbit": orbit, "value": value, "status": status}
                 for orbit, value, status in rows],
        "upper_lower_gap": gap,
        "regular_tail_bound": dict(tail),
    }


@lru_cache(maxsize=None)
def _audit_table(N: int, D: int, k: int) -> tuple:
    """(rows, upper_lower_gap, tail items) of geometric_side_audit, as
    tuples, built once per process for each (N, D, k).  The upper row is
    the product of local factors I_upper(0, 0) / g(chi_D) = |I_upper(0, 0)|
    / sqrt|D|, 1/V_N = N + 1 and L(0, chi_D) = h_w(D): T (1/V_N)
    Gamma_C(k/2) / (8 pi) for the target T.  The lower row is -chi_D(N)
    times it, not computed on its own, so the gap |1 + chi_D(N)| is 0.0 at
    every admissible level and compares nothing; an independent lower row
    would take singular_lower_quadrature or the reflection lower(s1, s2) =
    -upper(-s2, -s1) at the level place.  Its caller passes the three
    through arith._as_int, so 7.0 and True never find 7's or 1's entry; the
    level place proves N prime."""
    chi_n = kronecker(D, N)
    upper, n = arch_local.main_term(k)["upper"]
    upper_val = arch_local._pi_float((upper * (N + 1) * class_number_weighted(D), n),
                                    "the upper audit row", k) / math.sqrt(-D)
    place = padic_local.PlaceSpec(q=N, kind="level", chi_q=chi_n)
    swap_cells = sum(len(padic_local.brute_force_integral(
                         place, padic_local.OrbitDatum(kind=kind), AUDIT_WINDOW).cells)
                     for kind in ("swap_upper", "swap_lower"))

    tail = reg_tail.tail_envelope(N, abs(D), k, n_max=200 * N)
    swept = f"verified-by-oracle ({swap_cells} cells in window {AUDIT_WINDOW})"
    rows = (
        ("identity", 0.0, "axiom (nontrivial character)"),
        ("swap", 0.0, "axiom (nontrivial character)"),
        ("swap_upper", 0.0, swept),
        ("swap_lower", 0.0, swept),
        ("upper", upper_val, "evaluated"),
        ("lower", -chi_n * upper_val, "evaluated"),
    )
    if swap_cells:
        raise InvariantViolation("swapped singular orbits have support at the level place")
    return rows, abs(1.0 + chi_n), tuple(tail.items())  # the rows' relative gap


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
        """The report as JSON text: its bytes equal those of
        ``json.dumps(payload, indent=2, sort_keys=True)``, written in one
        pass by ``_json_text`` from the report's current contents."""
        return _json_text(self._payload())

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

def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    Any indent sends the standard library to its pure-Python generator
    encoder; this writer makes one pass, appending tokens to one list that
    it joins once (``_json_emit``)."""
    out = []
    _json_emit(obj, "\n", out)
    return "".join(out)


def _json_emit(obj, nl: str, out: list) -> None:
    """Append the tokens of obj to out; ``nl`` is a newline and the indent
    of the line obj starts on.

    It follows ``json.encoder`` rule for rule: values tested with isinstance
    in json's order (str, None, True, False, int, float, list or tuple,
    dict); numbers by ``int.__repr__`` and ``float.__repr__``, NaN and
    infinities as ``NaN``, ``Infinity`` and ``-Infinity``; strings by
    ``encode_basestring_ascii``; dict items sorted on their original keys
    (int rows 7 before 11), each key then converted as json converts it;
    ``_SLOT`` as a NUL, where ``_frame`` cuts its text (no JSON text here
    holds one: ``encode_basestring_ascii`` escapes it); any other type is
    TypeError.  A container writes its items of exact type float, str or
    int, and True, False and None, in its own loop; any other item
    (np.float64, a str subclass, a container) takes one call."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if obj - obj == 0.0 else  # finite
                   "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, (list, tuple, dict)):
        is_dict = isinstance(obj, dict)
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        inner = nl + "  "
        sep = inner
        out.append("{" if is_dict else "[")
        for value in (sorted(obj.items()) if is_dict else obj):
            out.append(sep)
            sep = "," + inner
            if is_dict:
                key, value = value
                if isinstance(key, str):
                    out.append(encode_basestring_ascii(key))
                elif key is None or isinstance(key, (int, float)):
                    _json_emit(key, inner, out)  # its JSON text, then quoted
                    out.append(encode_basestring_ascii(out.pop()))
                else:
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                out.append(": ")
            t = type(value)
            if t is int or (t is float and value - value == 0.0):
                out.append(repr(value))
            elif t is str:
                out.append(encode_basestring_ascii(value))
            elif value is None or value is True or value is False:
                out.append("null" if value is None else "true" if value else "false")
            else:
                _json_emit(value, inner, out)
        out.append(nl + ("}" if is_dict else "]"))
    elif obj is _SLOT:
        out.append("\0")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} "
                        "is not JSON serializable")


# the J-dependent leaves of each level of report.json, in key order
_J_LEVEL_KEYS = ("interval_mass", "interval_share", "prediction_assembled",
                 "prediction_printed", "ratio_assembled", "ratio_printed",
                 "spectral_interval")
# a J-dependent leaf in the report that _frame renders
_SLOT = object()


def _j_leaves(report: AverageReport) -> list:
    """The J-dependent leaves of the report in the order report.json writes
    them: the ends of J, its mass and the _J_LEVEL_KEYS of each level.
    Everything else in it depends only on the run key of ``_run_entry``
    and the per-form rows."""
    return [*report.config["interval"], report.constants["interval_mass"],
            *[lvl[key] for lvl in report.levels for key in _J_LEVEL_KEYS]]


def _frame(report: AverageReport) -> tuple:
    """The report.json text of the report, newline included, cut at its
    J-dependent leaves: ``_json_emit`` writes it with _SLOT at each."""
    payload = report._payload()
    payload["config"] = dict(report.config, interval=[_SLOT, _SLOT])
    payload["constants"] = dict(report.constants, interval_mass=_SLOT)
    payload["levels"] = [dict(lvl, **dict.fromkeys(_J_LEVEL_KEYS, _SLOT))
                         for lvl in report.levels]
    return tuple((_json_text(payload) + "\n").split("\0"))


def _fill(frame: tuple, leaves: list) -> str:
    """The frame's text with its leaves in the cuts, each written by
    _json_emit's scalar rules: a finite leaf of exact type float, as most
    are, by float.__repr__ here."""
    out = [frame[0]]
    for leaf, text in zip(leaves, frame[1:]):
        if type(leaf) is float and leaf - leaf == 0.0:
            out.append(float.__repr__(leaf))
        else:
            _json_emit(leaf, "", out)
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


@lru_cache(maxsize=None)
def _constants(D: int, k: int, p: int) -> tuple:
    """(L(1, chi_D), c_printed, c_assembled, the normalization ledger,
    density.csv text) of a run, built once per process for each (D, k, p):
    none depends on J.  The key is the config's discriminant, weight and
    auxiliary prime, which ExperimentConfig refuses unless they are ints.

    c_printed is only reported, so where it is no normal float (from
    k = 170 on) it is None, written null with everything derived from it,
    and the ledger says why; the gated c_assembled still refuses."""
    c_asm = assembled_constant(k)
    gamma_c = arch_local._pi_float(arch_local.main_term(k)["gamma_c"], "Gamma_C(k/2)", k)
    try:
        c_printed = arch_local.leading_constant(k)
    except DomainError as exc:
        c_printed = None
        printed = (f"printed constant c_k (combinatorial closed form): {exc}, so "
                   "c_printed, assembled_over_printed, prediction_printed and "
                   "ratio_printed are null")
    else:
        printed = f"printed constant c_k = {c_printed!r} (combinatorial closed form)"
    ledger = (
        "local volumes: vol(unit-group) = 1 at every finite place; "
        "level volume V_N = 1/(N+1), carried as the factor N+1 = 1/V_N",
        "level closed forms carry the 1/V_N prefactor (the displayed sums do "
        "not); the enumeration oracle fixed this choice",
        "spectral comparison uses finite L-values in the analytic "
        "normalization and the classical Petersson norm",
        printed,
        f"assembled constant = 4 |I_upper(0,0)| / Gamma_C(k/2) = {c_asm!r}; "
        "the 1/(4 pi) of the kernel identity and the V_N of the adelic "
        "pairing cancel in this assembly, leaving one archimedean factor "
        f"Gamma_C(k/2) = {gamma_c!r}",
        "observed full-interval ratios against both constants are in the "
        "per-level rows; the bin-share proportionality test is "
        "normalization-free",
    )
    return dirichlet_l(D, 1), c_printed, c_asm, ledger, measures.density_csv(p, 400)


def run_experiment(cfg: ExperimentConfig) -> AverageReport:
    D, k, p = cfg.discriminant, cfg.weight, cfg.aux_prime
    lo, hi = cfg.interval
    l_one, c_printed, c_asm, ledger, density = _constants(D, k, p)
    mass_j = measure_mass(cfg, lo, hi)
    g_printed = None if c_printed is None else 2.0 * mass_j * c_printed * l_one
    g_asm = 2.0 * mass_j * c_asm * l_one

    # one read of the data file serves every level the cache lacks
    cold = any(_form_key(cfg, N) not in _FORM_CACHE for N in cfg.levels)
    forms = load_eigenforms(cfg.data_path) if cold else None
    rows = tuple(_level_rows(cfg, N, forms) for N in cfg.levels)
    entry = _run_entry(cfg.data_path, D, k, p, tuple(cfg.levels), cfg.bins,
                       tuple(map(id, rows)))
    if not entry:
        target = 2.0 * c_asm * l_one
        full, sums, budgets = [], {}, {}
        for N, level in zip(cfg.levels, rows):
            full.append(math.fsum(r["contribution"] for r in level))
            if level:
                sums[N] = full[-1]
                budgets[N] = identity_budget(level, target)
        envelope = identity_check(sums, budgets, target)
        prop = proportionality_test(cfg) if len(cfg.levels) >= 3 else {}
        entry += [rows, tuple(full), pickle.dumps((prop, envelope))]
    full, frozen = entry[1:3]
    prop, envelope = pickle.loads(frozen)  # new dicts and lists on every call

    level_reports = []
    for N, level, s_full in zip(cfg.levels, rows, full):
        s_j = spectral_sum(cfg, N, lo, hi)["value"]
        level_reports.append({
            "level": N,
            # copies: an edit to the report must not reach _FORM_CACHE
            "forms": [dict(r) for r in level],
            "spectral_full": s_full,
            "spectral_interval": s_j,
            "interval_share": (s_j / s_full) if s_full else None,
            "interval_mass": mass_j,
            "prediction_printed": g_printed,
            "prediction_assembled": g_asm,
            "ratio_printed": (s_j / g_printed) if g_printed else None,
            "ratio_assembled": (s_j / g_asm) if g_asm else None,
            "audit": geometric_side_audit(cfg, N),
        })
    report = AverageReport(
        config={
            "discriminant": D, "weight": k, "aux_prime": p,
            "interval": [lo, hi], "levels": list(cfg.levels),
            "bins": cfg.bins, "data_path": os.path.basename(cfg.data_path),
        },
        constants={
            "L1": l_one, "c_printed": c_printed, "c_assembled": c_asm,
            "assembled_over_printed": None if c_printed is None else c_asm / c_printed,
            "measure_sign": kronecker(D, p), "interval_mass": mass_j,
        },
        levels=level_reports,
        proportionality=prop,
        envelope=envelope,
        normalization_ledger=list(ledger),
    )
    if cfg.output_dir:
        _write_outputs(cfg, report, entry, density)
    return report


def _write_outputs(cfg: ExperimentConfig, report: AverageReport, entry: list,
                   density: str) -> None:
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    if len(entry) == 3:  # the run key's first write
        entry += [_frame(report), "".join(
            ["level,label,a_p,central,central_twisted,norm,contribution\n"]
            + [f"{N},{r['label']},{r['a_p']!r},{r['central']!r},"
               f"{r['central_twisted']!r},{r['norm']!r},{r['contribution']!r}\n"
               for N, level in zip(cfg.levels, entry[0]) for r in level])]
    frame, forms = entry[3:]
    _replace(os.path.join(out, "report.json"), _fill(frame, _j_leaves(report)))
    _replace(os.path.join(out, "forms.csv"), forms)
    _replace(os.path.join(out, "density.csv"), density)


@lru_cache(maxsize=32)
def _run_entry(data_path, D: int, k: int, p: int, levels: tuple, bins: int,
               row_ids: tuple) -> list:
    """What a run key has that does not depend on J, filled on the key's
    first call: [the per-form row lists, the full sum S_N of each level,
    the pickled (proportionality_test, identity_check) results], which
    run_experiment adds, then [the report.json frame, the forms.csv text],
    which _write_outputs adds on the key's first write.  Every value but
    the row lists is immutable, and each call unpickles new dicts and
    lists from the bytes.

    The key holds the ints of _constants, _audit_table and _bin_masses, the
    levels and bins, and the ids of the _FORM_CACHE row lists the sums were
    taken from: rows replaced under an unchanged config (a new _FORM_CACHE,
    rows written into it) miss.  The entry holds those lists, so no id in
    its key can be reused while it lives; rows are compared by identity,
    never by value (0.0 == -0.0, but they are written differently)."""
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
