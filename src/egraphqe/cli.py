"""Command-line frontend.

    egraphqe qel  problem.smt2 [--check] [--dot PREFIX]
    egraphqe mbp  problem.smt2 --model model.txt [--check] [--dot PREFIX]
                  [--budget N]

Prints the result conjunction as one ``(and ...)`` (or ``true``) on stdout
and an eliminated/remaining variable summary on stderr.  ``--budget`` caps
the number of saturation rule applications of ``mbp``.  Exit codes: 0 ok,
2 bad input, 3 failed --check, 4 saturation budget exhausted, 5 internal
error (an inadmissible representative function, or out of memory).  Each
error prints one ``error: ...`` line on stderr, never a traceback.
"""
from __future__ import annotations

import argparse
import sys

from .egraph import EGraph
from .extraction import InadmissibleReprError
from .mbp import SaturationBudgetError, mbp
from .model import parse_model, satisfies
from .oracle import Bounds, SearchSpaceError, equiv_exists, implies_exists
from .parser import parse_problem
from .qel import reduce
from .terms import InputError, formula_to_sexpr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="egraphqe",
        description="egraph-based quantifier reduction and model-based projection")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("qel", "mbp"):
        p = sub.add_parser(name)
        p.add_argument("input", help="problem file (SMT-LIB subset)")
        p.add_argument("--check", action="store_true",
                       help="verify the result with the finite-model oracle")
        p.add_argument("--dot", metavar="PREFIX",
                       help="write per-stage DOT dumps to PREFIX.<stage>.dot")
        if name == "mbp":
            p.add_argument("--model", required=True, help="model file")
            p.add_argument("--budget", type=int, default=10_000,
                           help="cap on saturation rule applications")
    args = ap.parse_args(argv)
    try:
        return _run(args)
    except SaturationBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InadmissibleReprError as e:  # ExtractionBudgetError among them
        print(f"error: {e}", file=sys.stderr)
        return 5
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 5


def _run(args) -> int:
    prob = parse_problem(_read(args.input))
    sig, store, formula = prob.sig, prob.store, prob.formula

    if args.command == "qel":
        g = EGraph.from_formula(sig, store, formula)
        _dot(args, "initial", g)
        r, out = reduce(g, formula.free_vars)
        _dot(args, "final", g, r)
        check_ok = True
        if args.check:
            check_ok = _report_check(
                lambda b: equiv_exists(sig, store, formula, out, b),
                "existential closures equivalent")
    else:
        model = parse_model(_read(args.model), sig)
        if args.dot:
            _dot(args, "initial", EGraph.from_formula(sig, store, formula))
        result = mbp(sig, store, formula, formula.free_vars, model,
                     budget=args.budget)
        out = result.formula
        _dot(args, "saturated", result.graph)
        _dot(args, "final", result.graph, result.repr_fn)
        check_ok = True
        if args.check:
            if not satisfies(result.model, sig, out):
                print("check failed: model does not satisfy the output",
                      file=sys.stderr)
                check_ok = False
            else:
                check_ok = _report_check(
                    lambda b: implies_exists(sig, store, out, formula, b),
                    "output implies the input's existential closure")

    print(formula_to_sexpr(out))
    eliminated = [v for v in formula.free_vars if v not in out.free_vars]
    print(f"eliminated: {', '.join(eliminated) or '(none)'}", file=sys.stderr)
    print(f"remaining: {', '.join(out.free_vars) or '(none)'}", file=sys.stderr)
    return 0 if check_ok else 3


def _read(path) -> str:
    """The text of a UTF-8 file; a file that does not decode is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None


def _report_check(run, what) -> bool:
    verdict = None
    last_refusal = None
    for bounds in (Bounds(), Bounds(universe=2, int_pad=1)):
        try:
            verdict = run(bounds)
            break
        except SearchSpaceError as e:
            last_refusal = e
    if verdict is None:
        print(f"check skipped: {last_refusal}", file=sys.stderr)
        return True
    if verdict.ok:
        note = f" ({verdict.skipped} interpretations skipped)" \
            if verdict.skipped else ""
        print(f"check passed: {what}{note}", file=sys.stderr)
        return True
    print(f"check failed: {what} does not hold; witness {verdict.witness}",
          file=sys.stderr)
    return False


def _dot(args, stage, g, r=None):
    if args.dot:
        with open(f"{args.dot}.{stage}.dot", "w", encoding="utf-8") as fh:
            fh.write(g.dump_dot(r))
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
