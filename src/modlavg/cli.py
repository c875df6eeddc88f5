"""Command-line front end.

Subcommands: measures, verify-local, verify-arch, constants, lvalues,
average.  Exit codes: 0 when every check passes, 1 when a check the
subcommand makes fails (for ``average``: the identity does not hold), 2 on
a typed package error or an unreadable or unwritable file, reported as one
line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import arch_local, measures, padic_local
from .arith import load_eigenforms
from .errors import DomainError, ModlavgError
from .harness import ExperimentConfig, run_experiment
from .lvalues import central_value, petersson_norm


def _cmd_measures(args) -> int:
    if args.max_n < 0 or args.grid < 1:
        raise DomainError("need --max-n >= 0 and --grid >= 1")
    if args.csv:
        print(measures.density_csv(args.p, args.grid), end="")
        return 0
    m = measures.SatakeMeasure(p=args.p, sign=args.delta)
    print(f"p = {args.p}, sign = {args.delta:+d}")
    print(f"mass = {measures.mass(m)!r}")
    ok = True
    for n in range(args.max_n + 1):
        mom = measures.moment(m, n)
        target = 1.0 if n == 0 else (2.0 if args.delta > 0 else 0.0)
        flag = "ok" if abs(mom - target) < 1e-8 else "FAIL"
        ok &= flag == "ok"
        print(f"moment[{n:2d}] = {mom: .12f}   target {target:+.1f}   {flag}")
    return 0 if ok else 1


def _cmd_verify_local(args) -> int:
    if args.vmax < 0:
        raise DomainError("need --vmax >= 0")
    place = {
        "unramified": padic_local.PlaceSpec(q=args.q, kind="unramified", chi_q=args.delta),
        "level": padic_local.PlaceSpec(q=args.q, kind="level", chi_q=args.delta),
    }[args.place]
    bad = 0
    for v1mx in range(-args.vmax, args.vmax + 1):
        vxs = [v1mx] if v1mx < 0 else (range(0, args.vmax + 1) if v1mx == 0 else [0])
        for vx in vxs:
            closed = padic_local.regular_closed_form(place, vx, v1mx)
            orbit = padic_local.OrbitDatum(kind="regular", vx=vx, v1mx=v1mx)
            brute = padic_local.brute_force_integral(
                place, orbit, window=2 * args.vmax + 4).value
            match = closed.as_dict() == brute.as_dict()
            bad += not match
            print(f"v(x)={vx:+d} v(1-x)={v1mx:+d}: "
                  f"{'match' if match else 'MISMATCH'} "
                  f"({len(brute.as_dict())} cells)")
    print("all closed forms match the enumeration" if not bad
          else f"{bad} mismatches")
    return 0 if bad == 0 else 1


def _cmd_verify_arch(args) -> int:
    k, s1, s2 = args.k, args.s1, args.s2
    closed = arch_local.singular_upper_closed(k, s1, s2)
    quad = arch_local.singular_upper_quadrature(k, s1, s2)
    rel = abs(closed - quad) / abs(closed)
    print(f"upper singular integral, k={k}, s=({s1},{s2})")
    print(f"  closed     = {closed!r}")
    print(f"  quadrature = {quad!r}")
    print(f"  rel gap    = {rel:.3e}")
    lower = arch_local.singular_lower_quadrature(k, s1, s2)
    refl = -arch_local.singular_upper_closed(k, -s2, -s1)
    rel2 = abs(lower - refl) / abs(refl)
    print(f"  reflection gap = {rel2:.3e}")
    ok = rel < 1e-6 and rel2 < 1e-6
    print("ok" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_constants(args) -> int:
    k = args.k
    h = arch_local.alternating_weight_sum(k)
    d = arch_local.default_formal_degree(k)
    c = arch_local.leading_constant(k, d)
    print(f"k = {k}: h(k) = {h}, formal degree = {d}, "
          f"c_k = {c!r} (= {c / math.pi!r} * pi)")
    return 0


def _cmd_lvalues(args) -> int:
    forms = load_eigenforms(args.forms)
    code = 0
    for f in forms:
        try:
            cv = central_value(f)
            nrm = petersson_norm(f)
            line = (f"{f.label}: w = {cv.fricke:+d}, L(1/2) = {cv.value!r}, "
                    f"norm = {nrm!r}")
            if args.twist:
                cvt = central_value(f, twist=args.twist)
                line += (f", L(1/2, twist {args.twist}) = {cvt.value!r} "
                         f"(eps = {cvt.eps:+d})")
            print(line)
        except ModlavgError as exc:
            print(f"{f.label}: {type(exc).__name__}: {exc}")
            code = 1
    return code


def _cmd_average(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    report = run_experiment(cfg)
    if cfg.output_dir:
        print(f"report written to {cfg.output_dir}")
    else:
        print(report.to_json())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modlavg",
        description="verification laboratory for averages of central modular L-values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="density and moment tables")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--delta", type=int, choices=(-1, 1), default=1)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--grid", type=int, default=200)
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("verify-local", help="oracle vs closed-form sweeps")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--vmax", type=int, default=3)
    p.add_argument("--place", choices=("unramified", "level"), default="unramified")
    p.add_argument("--delta", type=int, choices=(-1, 1), default=1)
    p.set_defaults(func=_cmd_verify_local)

    p = sub.add_parser("verify-arch", help="archimedean closed form vs quadrature")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--s1", type=float, default=0.0)
    p.add_argument("--s2", type=float, default=0.0)
    p.set_defaults(func=_cmd_verify_arch)

    p = sub.add_parser("constants", help="the combinatorial constants")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("lvalues", help="central values and norms from a data file")
    p.add_argument("--forms", required=True)
    p.add_argument("--twist", type=int, default=None)
    p.set_defaults(func=_cmd_lvalues)

    p = sub.add_parser("average", help="run the full average experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_average)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModlavgError, OSError) as exc:
        print(f"modlavg {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
