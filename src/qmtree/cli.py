"""Command line front end.

Subcommands:

    qa info          ramification data of a rational quaternion algebra
    order maximal    maximal order basis and reduced discriminant
    order eichler    level-N suborder of the maximal order
    order discriminant / order verify   operate on an order JSON file
    ideals norm-l    primitive left ideals of prime reduced norm
    ideals tree      containment tree of primitive ideals, optional DOT
    ideals oracle    exhaustive left-ideal enumeration (guarded)
    bt neighbors / distance / geodesic / center   lattice-class tree ops
    descent run      evaluate scenario files and write reports

All output is JSON with sorted keys (rationals appear as "num/den"
strings), so identical inputs give byte-identical output.

Each command imports the layers it runs when it runs, so a process
compiles only those: ``qa info`` loads ``quaternion`` alone, and
``--help`` loads no layer.  Only ``errors`` is imported at module level.

Exit codes: 0 success; 2 parse or validation failure; 3 violated
precondition or internal invariant; 4 resource guard; 5 descent checks
failed (the report is still produced).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    AlgebraError,
    InconsistencyError,
    InvariantError,
    PreconditionError,
    RankError,
    ResourceError,
    ValidationError,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_CHECKS = 5


def _fraction(text: str) -> Fraction:
    from .quaternion import _parse_frac
    try:
        return _parse_frac(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def report_to_json(report: dict) -> str:
    """The report as sorted, indented JSON: the CLI's one output format."""
    try:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    except ValueError as exc:  # an integer past the int-str digit limit
        raise ResourceError(f"output too large to print: {exc}") from None


def _emit(obj) -> None:
    print(report_to_json(obj), end="")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # also numbers past the int-str digit limit
        raise ValidationError(f"{path}: not valid JSON ({exc})")


# ----------------------------------------------------------------- qa


def cmd_qa_info(args) -> int:
    from .quaternion import QuaternionAlgebra
    B = QuaternionAlgebra(args.a, args.b)
    _emit({
        "a": str(args.a),
        "b": str(args.b),
        "discriminant": B.discriminant(),
        "ramifiedPrimes": B.ramified_primes(),
        "ramifiedAtInfinity": B.is_ramified_at(None),
        "indefinite": not B.is_definite(),
        "split": B.is_split(),
    })
    return EXIT_OK


# -------------------------------------------------------------- order


def cmd_order_maximal(args) -> int:
    from . import orders as od
    from .quaternion import QuaternionAlgebra
    O = od.maximal_order(QuaternionAlgebra(args.a, args.b))
    _emit({
        "order": od.order_to_json(O),
        "reducedDiscriminant": od.reduced_discriminant(O),
    })
    return EXIT_OK


def cmd_order_eichler(args) -> int:
    from . import orders as od
    from .quaternion import QuaternionAlgebra
    O0 = od.maximal_order(QuaternionAlgebra(args.a, args.b))
    O = od.eichler_order(O0, args.level, seed=args.seed)
    _emit({
        "level": args.level,
        "order": od.order_to_json(O),
        "reducedDiscriminant": od.reduced_discriminant(O),
    })
    return EXIT_OK


def cmd_order_discriminant(args) -> int:
    from . import orders as od
    O = od.order_from_json(_load_json(args.order))
    _emit({"reducedDiscriminant": od.reduced_discriminant(O)})
    return EXIT_OK


def cmd_order_verify(args) -> int:
    from . import orders as od
    obj = _load_json(args.order)
    if not isinstance(obj, dict) or "algebra" not in obj or "basis" not in obj:
        raise ValidationError("order file needs fields algebra and basis")
    A = od.algebra_from_json(obj["algebra"])
    rows = od._basis_from_json(obj["basis"])
    problems = od.order_diagnostics(A, rows)
    _emit({"isOrder": not problems, "problems": problems})
    return EXIT_OK


# -------------------------------------------------------------- ideals


def _built_order(args):
    from . import orders as od
    from .quaternion import QuaternionAlgebra
    O = od.maximal_order(QuaternionAlgebra(args.a, args.b))
    if getattr(args, "level", 1) != 1:
        O = od.eichler_order(O, args.level, seed=getattr(args, "seed", 0))
    return O


def cmd_ideals_norml(args) -> int:
    from . import orders as od
    O = _built_order(args)
    ideals = od.left_ideals_of_norm(O, args.l, seed=args.seed)
    ideals.sort(key=lambda I: I.order_coords)
    _emit({
        "ell": args.l,
        "count": len(ideals),
        "ideals": [od.ideal_to_json(I) for I in ideals],
    })
    return EXIT_OK


def cmd_ideals_tree(args) -> int:
    from . import ideal_tree as it
    O = _built_order(args)
    tr = it.build_ideal_tree(O, args.l, args.depth)
    out = {
        "ell": args.l,
        "depth": args.depth,
        "nodes": len(tr.nodes),
        "levels": [len(tr.level(k)) for k in range(args.depth + 1)],
    }
    if args.dot:
        Path(args.dot).write_text(it.tree_to_dot(tr), encoding="utf-8")
        out["dot"] = args.dot
    if args.verify:
        out["isomorphism"] = it.verify_tree_isomorphism(tr)
    _emit(out)
    return EXIT_OK


def cmd_ideals_oracle(args) -> int:
    from . import orders as od
    O = _built_order(args)
    ideals = od.enumerate_left_ideals(O, args.n)
    primitive = sum(1 for I in ideals if I.is_primitive())
    _emit({"n": args.n, "count": len(ideals), "primitive": primitive})
    return EXIT_OK


# ------------------------------------------------------------------ bt


def cmd_bt_neighbors(args) -> int:
    from . import tree as bt
    v = bt.parse_vertex(args.v)
    _emit({
        "vertex": bt.format_vertex(v),
        "neighbors": [bt.format_vertex(w) for w in bt.neighbors(v)],
    })
    return EXIT_OK


def cmd_bt_distance(args) -> int:
    from . import tree as bt
    u, v = bt.parse_vertex(args.u), bt.parse_vertex(args.v)
    _emit({"distance": bt.distance(u, v)})
    return EXIT_OK


def cmd_bt_geodesic(args) -> int:
    from . import tree as bt
    u, v = bt.parse_vertex(args.u), bt.parse_vertex(args.v)
    _emit({"geodesic": [bt.format_vertex(w) for w in bt.geodesic(u, v)]})
    return EXIT_OK


def _read_vertex_list(path):
    from . import tree as bt
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 ({exc})")
    if text.lstrip().startswith("["):
        try:
            entries = json.loads(text)
        except ValueError as exc:  # also numbers past the digit limit
            raise ValidationError(f"{path}: not valid JSON ({exc})")
    else:
        entries = [line.strip() for line in text.splitlines() if line.strip()]
    return [bt.parse_vertex(e) for e in entries]


def cmd_bt_center(args) -> int:
    from . import tree as bt
    from .center import tree_center
    verts = _read_vertex_list(args.vertices)
    c = tree_center(verts)
    _emit({
        "kind": c.kind,
        "vertices": [bt.format_vertex(v) for v in c.vertices],
    })
    return EXIT_OK


# ------------------------------------------------------------- descent


def cmd_descent_run(args) -> int:
    from . import descent as dsc
    reports = [dsc.run_descent(dsc.load_scenario(p)) for p in args.scenario]
    if args.report_dir:
        for path, report in zip(args.scenario, reports):
            target = Path(args.report_dir) / f"{Path(path).stem}.report.json"
            target.write_text(report_to_json(report), encoding="utf-8")
    if len(reports) == 1:
        _emit(reports[0])
    else:
        _emit({"reports": dict(zip(args.scenario, reports))})
    if all(dsc.checks_pass(r) for r in reports):
        return EXIT_OK
    return EXIT_CHECKS


# -------------------------------------------------------------- parser


def _add_algebra_flags(p, default=True):
    if default:
        p.add_argument("--a", type=_fraction, default=Fraction(-1),
                       help="first algebra constant (default -1)")
        p.add_argument("--b", type=_fraction, default=Fraction(3),
                       help="second algebra constant (default 3)")
    else:
        p.add_argument("--a", type=_fraction, required=True)
        p.add_argument("--b", type=_fraction, required=True)


def _add_seed_flag(p):
    p.add_argument("--seed", type=int, default=0,
                   help="idempotent-search seed (default 0)")


class _Parser(argparse.ArgumentParser):
    """Reads each option only under its full name, so an option that is
    gone (--report, say) is refused, not taken for a longer one
    (--report-dir)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmtree",
        description="Exact quaternion orders, lattice-class trees, and "
                    "descent scenario reports.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    qa = top.add_parser("qa", help="quaternion algebra queries")
    qa_sub = qa.add_subparsers(dest="subcommand", required=True)
    p = qa_sub.add_parser("info", help="ramification report")
    _add_algebra_flags(p, default=False)
    p.set_defaults(func=cmd_qa_info)

    order = top.add_parser("order", help="order construction")
    order_sub = order.add_subparsers(dest="subcommand", required=True)
    p = order_sub.add_parser("maximal")
    _add_algebra_flags(p)
    p.set_defaults(func=cmd_order_maximal)
    p = order_sub.add_parser("eichler")
    _add_algebra_flags(p)
    p.add_argument("--level", type=int, required=True)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_order_eichler)
    p = order_sub.add_parser("discriminant")
    p.add_argument("--order", required=True, help="order JSON file")
    p.set_defaults(func=cmd_order_discriminant)
    p = order_sub.add_parser("verify")
    p.add_argument("--order", required=True, help="order JSON file")
    p.set_defaults(func=cmd_order_verify)

    ideals = top.add_parser("ideals", help="left ideal listings")
    ideals_sub = ideals.add_subparsers(dest="subcommand", required=True)
    p = ideals_sub.add_parser("norm-l")
    _add_algebra_flags(p)
    p.add_argument("--l", type=int, required=True, help="prime norm")
    p.add_argument("--level", type=int, default=1)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_ideals_norml)
    p = ideals_sub.add_parser("tree")
    _add_algebra_flags(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--dot", help="write DOT graph to this path")
    p.add_argument("--verify", action="store_true",
                   help="also check the tree against localization")
    p.set_defaults(func=cmd_ideals_tree)
    p = ideals_sub.add_parser("oracle")
    _add_algebra_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_ideals_oracle)

    btp = top.add_parser("bt", help="lattice-class tree operations")
    bt_sub = btp.add_subparsers(dest="subcommand", required=True)
    p = bt_sub.add_parser("neighbors")
    p.add_argument("--v", required=True, help='vertex, e.g. "2:[[1,0],[0,1]]"')
    p.set_defaults(func=cmd_bt_neighbors)
    p = bt_sub.add_parser("distance")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(func=cmd_bt_distance)
    p = bt_sub.add_parser("geodesic")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(func=cmd_bt_geodesic)
    p = bt_sub.add_parser("center")
    p.add_argument("--vertices", required=True,
                   help="file with a JSON list or one vertex per line")
    p.set_defaults(func=cmd_bt_center)

    descent = top.add_parser("descent", help="scenario evaluation")
    descent_sub = descent.add_subparsers(dest="subcommand", required=True)
    p = descent_sub.add_parser("run")
    p.add_argument("scenario", nargs="+", help="scenario JSON files")
    p.add_argument("--report-dir", help="write one report per scenario here")
    p.set_defaults(func=cmd_descent_run)

    return parser


# a value, not an option: "-" then a digit or a point
_NEGATIVE = re.compile(r"-[\d.]")


def _join_negative_values(argv):
    """Join "--a -1/2" into "--a=-1/2", and so for --b: argparse takes a
    token that starts with "-" for an option unless it is a negative integer
    or decimal, and would refuse "-1/2" or "-2e3" as a missing value."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--a", "--b") and _NEGATIVE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValidationError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PreconditionError, InvariantError, InconsistencyError,
            RankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
