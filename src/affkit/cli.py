"""Command-line front end.

Subcommands: ``tensors``, ``killing``, ``classify``, ``chart``,
``verify-paper``.  All results go to stdout as JSON with sorted keys;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import paperchecks
from .coords import (ChartError, ChartVerificationError, commuting_chart,
                     normalize_chart, type_b_chart)
from .killing import (KillingError, killing_jet_space, load_field,
                      residuals)
from .liealg import (ClassificationInconclusive, LieAlgError,
                     NotHomogeneousCandidate, classify)
from .numeric import NumericError, float_basepoint
from .scalars import DIGIT_LIMIT, DIGIT_LIMIT_HINT
from .surface import (SurfaceError, curvature, load_surface, nabla_ricci, ricci,
                      torsion)
from .symexpr import EvaluationPoleError, ExprError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
# The largest ``chart --grid``: the stencil evaluates 17 n^2 points, and the
# tests reach n = 11, the benchmark pools n = 7.
MAX_GRID = 51


_output_path: str | None = None
_parser: argparse.ArgumentParser | None = None   # built by the first main call


def _emit(payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if _output_path:
        with open(_output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diag(message: str) -> None:
    sys.stderr.write(message.rstrip() + "\n")


def _tensor_json(t) -> dict:
    return {"".join(map(str, idx)): str(e) for idx, e in sorted(t.components.items())}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_tensors(args) -> int:
    s = load_surface(args.surface)
    out: dict = {}
    # One R per call: rho is contracted from it and nabla rho built on rho.
    need_rho = args.ricci or args.nabla_ricci
    r = curvature(s) if need_rho or args.curvature or args.flat else None
    rho = ricci(s, r) if need_rho else None
    if args.ricci:
        out["rho"] = [[str(rho[(1, 1)]), str(rho[(1, 2)])],
                      [str(rho[(2, 1)]), str(rho[(2, 2)])]]
    if args.torsion:
        out["torsion"] = _tensor_json(torsion(s))
    if args.curvature:
        out["curvature"] = _tensor_json(r)
    if args.nabla_ricci:
        out["nabla_rho"] = _tensor_json(nabla_ricci(s, rho))
    if args.flat:
        out["flat"] = r.is_zero
    if not out:
        _diag("no tensor requested; use --ricci/--torsion/--curvature/"
              "--nabla-ricci/--flat")
        return EXIT_INPUT
    _emit(out)
    return EXIT_OK


def cmd_killing(args) -> int:
    s = load_surface(args.surface)
    if args.check:
        field = load_field(args.check)
        res = residuals(s, field)
        symbolic_zero = {key: e.is_zero for key, e in res.items()}
        x1, x2 = float_basepoint(s)
        # Step towards the domain's right end by at most half the distance;
        # a step onto a pole of the residuals (x1 = 0 or cos x1 = 0) is
        # halved, and the poles lie too far apart for that to meet another.
        step = min(0.05, (s.domain_bounds()[1] - x1) / 2)
        probe_max = lambda dx: max((abs(e.eval_numeric((x1 + dx, x2 + 0.05)))
                                    for e in res.values() if not e.is_zero), default=0.0)
        try:
            numeric_max = probe_max(step)
        except EvaluationPoleError:
            numeric_max = probe_max(step / 2)
        ok = all(symbolic_zero.values())
        _emit({"killing": ok, "residual_zero": symbolic_zero,
               "max_residual_at_probe": numeric_max})
        return EXIT_OK if ok else EXIT_VERIFICATION
    ks = killing_jet_space(s)
    if args.basis:
        _emit({"dim": ks.dim,
               "basis": [[str(sc) for sc in jet.as_vector()] for jet in ks.basis],
               "history": ks.constraint_history})
    else:
        _emit({"dim": ks.dim})
    return EXIT_OK


def cmd_classify(args) -> int:
    s = load_surface(args.surface)
    try:
        result = classify(s)
    except (NotHomogeneousCandidate, ClassificationInconclusive) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return EXIT_VERIFICATION
    branches = []
    for w in result.branches:
        branches.append({
            "kind": w.kind,
            "relations": w.relations,
            "witnesses": [[str(x) for x in elt] for elt in w.elements],
            "verified": True,
            "exact": True,
            "residual": 0.0,
        })
    _emit({"dim": result.dim, "branches": branches,
           "diagnostics": result.diagnostics})
    return EXIT_OK


def cmd_chart(args) -> int:
    sizes = (args.tol, args.step, args.half_width)
    if not 3 <= args.grid <= MAX_GRID or not all(math.isfinite(x) and x > 0 for x in sizes):
        _diag(f"invalid run configuration: need 3 <= grid <= {MAX_GRID} and finite tol > 0, "
              "step > 0, half-width > 0")
        return EXIT_INPUT
    s = load_surface(args.surface)
    fields = [load_field(path) for path in args.field]
    kw = dict(n=args.grid, half_width=args.half_width, tol=args.tol,
              step=args.step)
    # Built per call, so a builder replaced on this module since is the one run.
    builder, count = {"normalize": (normalize_chart, 1), "commuting": (commuting_chart, 2),
                      "type-b": (type_b_chart, 2)}[args.mode]
    if len(fields) != count:
        _diag(f"{args.mode} mode takes {count} --field, not {len(fields)}")
        return EXIT_INPUT
    try:
        chart = builder(s, *fields, **kw)
    except ChartVerificationError as exc:
        _emit({"mode": args.mode, "pass": False, "report": exc.report})
        return EXIT_VERIFICATION
    report = {"mode": args.mode,
              "grid": {"center": list(chart.grid.center),
                       "half_width": list(chart.grid.half_width),
                       "n": chart.grid.n},
              "max_deviations": {k: v for k, v in chart.report.items()
                                 if isinstance(v, float)},
              "pass": chart.report["pass"]}
    if "constants" in chart.report:
        report["constants"] = chart.report["constants"]
    _emit(report)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    seed = int(os.environ.get("AFFKIT_SEED", "0"))
    items = paperchecks.verify_paper(args.negative_control, seed=seed,
                                     sweep_size=args.sweep)
    payload = {
        "items": [{"name": it.name, "pass": it.passed, "detail": it.detail}
                  for it in items],
        "pass": all(it.passed for it in items),
    }
    if args.negative_control:
        payload["negative_control"] = args.negative_control
    _emit(payload)
    return EXIT_OK if payload["pass"] else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affkit",
        description="Exact tensor calculus and Killing-field analysis for "
                    "two-dimensional affine connections.")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write the JSON result to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensors", help="symbolic tensors of a surface file")
    p.add_argument("surface")
    p.add_argument("--ricci", action="store_true")
    p.add_argument("--torsion", action="store_true")
    p.add_argument("--curvature", action="store_true")
    p.add_argument("--nabla-ricci", dest="nabla_ricci", action="store_true")
    p.add_argument("--flat", action="store_true")

    p = sub.add_parser("killing", help="Killing dimension, basis, or field check")
    p.add_argument("surface")
    p.add_argument("--dim", action="store_true", help="dimension only (default)")
    p.add_argument("--basis", action="store_true", help="include the jet basis")
    p.add_argument("--check", metavar="FIELD_FILE",
                   help="test whether a field file is Killing")

    p = sub.add_parser("classify", help="subalgebra witnesses of a surface")
    p.add_argument("surface")

    p = sub.add_parser("chart", help="build and verify a distinguished chart")
    p.add_argument("surface")
    p.add_argument("--mode", choices=("normalize", "commuting", "type-b"),
                   required=True)
    p.add_argument("--field", action="append", default=[], metavar="FIELD_FILE")
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--half-width", dest="half_width", type=float, default=0.2)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-3)

    p = sub.add_parser("verify-paper",
                       help="run the built-in exact cross-check suite")
    p.add_argument("--negative-control", choices=paperchecks.NEGATIVE_CONTROLS,
                   default=None)
    p.add_argument("--sweep", type=int, default=40,
                   help="random surfaces in the dimension sweep")
    return parser


def main(argv=None) -> int:
    global _output_path, _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    _output_path = args.output
    # Look the handler up now, not when the parser was built, so a handler
    # replaced on this module since (a wrapper, a test double) is the one run.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except FileNotFoundError as exc:
        _diag(f"input error: {exc}")
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        _diag(f"input error: not valid JSON: {exc}")
        return EXIT_INPUT
    except (ExprError, SurfaceError, KillingError, LieAlgError,
            ChartError, NumericError, ValueError) as exc:
        message = str(exc)
        if DIGIT_LIMIT in message:     # input numbers are named where they are read
            message = f"a number in the result is longer than Python prints {DIGIT_LIMIT_HINT}"
        _diag(f"input error: {message}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
