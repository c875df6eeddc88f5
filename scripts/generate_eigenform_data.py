#!/usr/bin/env python3
"""Build the weight-4 newforms of levels 5, 7 and 11 and write them as
JSON-lines eigenform records.

The forms come from the Eichler-Selberg trace formula (``modlavg.newforms``:
Hecke translates of the trace form, the matrix of T_2 and its
characteristic polynomial modulo primes, lifted exactly within Deligne's
bound, one eigenvector per root, each root isolated by
Sturm sequences and its coefficients rounded correctly from exact interval
bounds, exact integers at integer roots, the Atkin-Lehner sign that the
measured Fricke sign accepts and the modularity rule).  The shipped file
``src/modlavg/data/eigenforms_k4.jsonl`` is the independent trace oracle
for that formula, so the script refuses to write over it.  Run from the repository root:

    python3 scripts/generate_eigenform_data.py N_MAX OUT.jsonl
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from modlavg.arith import dump_eigenforms, load_eigenforms  # noqa: E402
from modlavg.harness import default_data_path  # noqa: E402
from modlavg.newforms import newforms  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n_max", type=int, help="coefficients per form")
    parser.add_argument("out", type=pathlib.Path, help="output JSON-lines file")
    args = parser.parse_args()
    if args.out.resolve() == pathlib.Path(default_data_path()).resolve():
        parser.error(f"{args.out} is the shipped trace oracle; write elsewhere")
    forms = []
    for level in (5, 7, 11):
        batch = newforms(level, 4, args.n_max)
        for f in batch:
            print(f"{f.label}: n_max={f.n_max} atkin_lehner={f.atkin_lehner} "
                  f"c2={f.coeffs[1]}")
        forms.extend(batch)
    dump_eigenforms(forms, args.out)
    # round-trip validation (c_1 = 1, c_N, eigenvalue bound, Hecke extension)
    reloaded = load_eigenforms(args.out)
    assert [f.label for f in reloaded] == [f.label for f in forms]
    print(f"wrote {args.out} ({len(forms)} forms), validation passed")


if __name__ == "__main__":
    main()
