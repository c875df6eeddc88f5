"""Output checks of the benchmark.  Each returns a list of problems, empty
when the output is correct, so a caller can count and name failures.

The checks use values that do not come from the package under test where
such values exist: for D = -4 and k = 4, L(1, chi) = pi/4 and the printed
constant is 80 pi, so both sides of the identity are known in closed form.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

IDENTITY_REL_TOL = 1e-9           # |S_N - 2 c_asm L(1, chi)|, relative
ASSEMBLED_OVER_PRINTED = 2.0 * math.pi ** 2 / 5.0
SINGULAR_REL_TOL = 1e-6           # acceptance criterion 05
REGULAR_REL_TOL = 1e-5            # acceptance criterion 07
FORMS_DRIFT_TOL = 1e-6            # forms.csv numbers against the reference
KNOWN_L1 = {-4: math.pi / 4.0}
KNOWN_C_PRINTED = {4: 80.0 * math.pi}


def rel_gap(a, b) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stored_fricke_signs(data_path: str) -> dict:
    """label -> Atkin-Lehner sign, read straight from the data file."""
    out = {}
    with open(data_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[rec["label"]] = rec.get("atkin_lehner")
    return out


def identity_deviations(report: dict) -> dict:
    """level -> |S_N - 2 c_asm L1| / |2 c_asm L1| at levels with forms."""
    const = report["constants"]
    target = 2.0 * const["c_assembled"] * const["L1"]
    return {lvl["level"]: abs(lvl["spectral_full"] - target) / abs(target)
            for lvl in report["levels"] if lvl["forms"]}


def check_identity(report: dict) -> list:
    """The average identity at every level that has forms, against the
    assembled constant and, through the fixed ratio 2 pi^2 / 5, against
    the printed one."""
    problems = []
    const = report["constants"]
    D, k = report["config"]["discriminant"], report["config"]["weight"]
    l1, c_printed = const["L1"], const["c_printed"]
    if D in KNOWN_L1 and rel_gap(l1, KNOWN_L1[D]) > 1e-12:
        problems.append(f"L(1, chi_{D}) = {l1!r}, expected {KNOWN_L1[D]!r}")
    if k in KNOWN_C_PRINTED and rel_gap(c_printed, KNOWN_C_PRINTED[k]) > 1e-12:
        problems.append(f"c_printed = {c_printed!r}, expected {KNOWN_C_PRINTED[k]!r}")
    with_forms = [lvl for lvl in report["levels"] if lvl["forms"]]
    if not with_forms:
        problems.append("no level has forms")
    for N, dev in identity_deviations(report).items():
        if not dev <= IDENTITY_REL_TOL:
            problems.append(f"level {N}: identity deviation {dev:.3e} "
                            f"exceeds {IDENTITY_REL_TOL:.0e}")
    for lvl in with_forms:
        ratio = lvl["spectral_full"] / (2.0 * c_printed * l1)
        if not rel_gap(ratio, ASSEMBLED_OVER_PRINTED) <= IDENTITY_REL_TOL:
            problems.append(f"level {lvl['level']}: S_N / (2 c_printed L1) = "
                            f"{ratio!r}, expected 2 pi^2 / 5")
    return problems


def check_fricke(report: dict, stored: dict) -> list:
    """Measured Fricke signs in the report equal the stored ones."""
    problems = []
    for lvl in report["levels"]:
        for row in lvl["forms"]:
            want = stored.get(row["label"])
            if row["fricke"] != want:
                problems.append(f"{row['label']}: measured Fricke sign "
                                f"{row['fricke']}, stored {want}")
    return problems


def check_interval(report: dict) -> list:
    """The interval sum is the sum of the contributions with a_p in J, and
    every non-degenerate level's bin shares add up to one."""
    problems = []
    lo, hi = report["config"]["interval"]
    for lvl in report["levels"]:
        chosen = math.fsum(r["contribution"] for r in lvl["forms"]
                           if lo <= r["a_p"] <= hi)
        if rel_gap(chosen, lvl["spectral_interval"]) > 1e-12:
            problems.append(f"level {lvl['level']}: interval sum "
                            f"{lvl['spectral_interval']!r}, rows give {chosen!r}")
    bins = report["config"]["bins"]
    for N, row in report["proportionality"]["levels"].items():
        if row["degenerate"]:
            continue
        if len(row["shares"]) != bins or abs(math.fsum(row["shares"]) - 1.0) > 1e-12:
            problems.append(f"level {N}: bin shares {row['shares']} do not "
                            f"form {bins} bins of total 1")
    return problems


def parse_forms_csv(text: str) -> dict:
    """(level, label) -> {column: float} from forms.csv."""
    rows = {}
    for rec in csv.DictReader(io.StringIO(text)):
        key = (int(rec.pop("level")), rec.pop("label"))
        rows[key] = {name: float(value) for name, value in rec.items()}
    return rows


def forms_drift(text: str, reference: dict) -> list:
    """forms.csv against the reference rows, keyed "level/label": the same
    rows, and every number within FORMS_DRIFT_TOL."""
    rows = {f"{level}/{label}": cols
            for (level, label), cols in parse_forms_csv(text).items()}
    if set(rows) != set(reference):
        return [f"forms.csv rows {sorted(rows)} differ from the reference "
                f"rows {sorted(reference)}"]
    problems = []
    for key, cols in reference.items():
        for col, value in cols.items():
            got = rows[key].get(col, math.nan)
            if not rel_gap(got, value) <= FORMS_DRIFT_TOL:
                problems.append(f"{key}: {col} = {got!r}, reference {value!r}")
    return problems


def flatten_numbers(obj, prefix: str = "") -> dict:
    """JSON path -> number, for every int or float in a parsed document."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten_numbers(value, f"{prefix}/{key}"))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out.update(flatten_numbers(value, f"{prefix}/{i}"))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


def report_drift(report_bytes: bytes, forms_bytes: bytes, reference: dict) -> dict:
    """Byte identity and the largest relative drift of every number in
    report.json and forms.csv against the stored reference.  Paths present
    on one side only are counted, not compared."""
    rows = {f"{level}/{label}": cols for (level, label), cols
            in parse_forms_csv(forms_bytes.decode()).items()}
    numbers = flatten_numbers({"report": json.loads(report_bytes), "forms": rows})
    want = flatten_numbers({"report": reference["report"], "forms": reference["forms"]})
    common = set(numbers) & set(want)
    drift = max((rel_gap(numbers[p], want[p]) for p in common), default=0.0)
    return {
        "report_identical": sha256(report_bytes) == reference["report_sha256"],
        "forms_identical": sha256(forms_bytes) == reference["forms_sha256"],
        "max_rel_drift": drift,
        "unmatched_paths": len(set(numbers) ^ set(want)),
    }


def check_singular(k, s1, s2, closed, quadrature) -> list:
    gap = rel_gap(closed, quadrature)
    if not gap <= SINGULAR_REL_TOL:
        return [f"singular k={k} s=({s1:.4f},{s2:.4f}): closed vs quadrature "
                f"{gap:.2e} > {SINGULAR_REL_TOL:.0e}"]
    return []


def check_regular(k, x, s1, s2, closed, quadrature) -> list:
    gap = rel_gap(closed, quadrature)
    if not gap <= REGULAR_REL_TOL:
        return [f"regular k={k} x={x:.4f}: closed vs quadrature {gap:.2e} "
                f"> {REGULAR_REL_TOL:.0e}"]
    return []


def check_padic(label: str, closed: dict, brute: dict) -> list:
    if closed != brute:
        return [f"p-adic {label}: closed form {closed} != enumeration {brute}"]
    return []


def check_traces(table: dict, dims: dict, reference: dict, oracle: dict) -> list:
    """Trace table {N: {m: Tr T_m}} against Tr T_1 = dim S_k(N), the
    reference table and the q-expansion oracle values {N: {m: trace}}."""
    problems = []
    for N, traces in table.items():
        if 1 in traces and traces[1] != dims[N]:
            problems.append(f"level {N}: Tr T_1 = {traces[1]}, dim = {dims[N]}")
        ref = reference.get(str(N), [])
        for m, tr in traces.items():
            if m <= len(ref) and ref[m - 1] is not None and ref[m - 1] != tr:
                problems.append(f"level {N}: Tr T_{m} = {tr}, reference {ref[m - 1]}")
    for N, values in oracle.items():
        for m, tr in values.items():
            if table[N].get(m) != tr:
                problems.append(f"level {N}: Tr T_{m} = {table[N].get(m)}, "
                                f"q-expansion oracle {tr}")
    return problems
