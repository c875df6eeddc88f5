#!/usr/bin/env python3
"""Regenerate the eigenform coefficient files shipped in modlavg/data.

Builds the weight-4 newforms of levels 5, 7 and 11 from the Eichler-Selberg
trace formula (``modlavg.newforms``: Hecke translates of the trace form,
the exact matrix of T_2, its eigenvectors, and the Atkin-Lehner sign that
the measured Fricke sign accepts) and writes them as JSON-lines records.
Run from the repository root:

    python3 scripts/generate_eigenform_data.py [n_max]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from modlavg.arith import dump_eigenforms, load_eigenforms  # noqa: E402
from modlavg.newforms import newforms  # noqa: E402


def main():
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "modlavg" / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    forms = []
    for level in (5, 7, 11):
        batch = newforms(level, 4, n_max)
        for f in batch:
            print(f"{f.label}: n_max={f.n_max} atkin_lehner={f.atkin_lehner} "
                  f"c2={f.coeffs[1]}")
        forms.extend(batch)
    path = out_dir / "eigenforms_k4.jsonl"
    dump_eigenforms(forms, path)
    # round-trip validation (c_1 = 1, eigenvalue bound, Hecke extension)
    reloaded = load_eigenforms(path)
    assert [f.label for f in reloaded] == [f.label for f in forms]
    print(f"wrote {path} ({len(forms)} forms), validation passed")


if __name__ == "__main__":
    main()
