"""Command-line interface.

Subcommands: indpoly, hilbert, wlp, blockcheck, classify, verify-paper.
Exit codes: 0 for success (and WLP holds / checks pass), 1 for a negative
mathematical outcome (no WLP, a disagreement, a failed check), 2 for usage
or input errors.  All JSON goes to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import verify
from .algebra import from_generators, from_graph, hilbert_series, parse_generators
from .graphs import complete, lollipop, path, read_edge_list
from .indpoly import independence_polynomial, mode_analysis
from .lefschetz import classify_lollipop, wlp_report
from .ranks import UncertifiedRankError
from .tensor import checked_verdicts
from .verify import DEFAULT_SEED


def _add_graph_args(sub, gens: bool = False):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--path", type=int, metavar="N", help="path graph on N vertices")
    group.add_argument("--complete", type=int, metavar="M", help="complete graph on M vertices")
    group.add_argument("--lollipop", type=int, nargs=2, metavar=("M", "N"),
                       help="clique of size M joined to a path on N vertices")
    group.add_argument("--graph-file", metavar="FILE",
                       help="edge-list file: 'n <count>' header, then 'u v' lines")
    if gens:
        group.add_argument("--gens-file", metavar="FILE",
                           help="monomial generators, one per line (e.g. 'y1^2', 'y1 y3')")


def _graph_from_args(args):
    if args.path is not None:
        return path(args.path)
    if args.complete is not None:
        return complete(args.complete)
    if args.lollipop is not None:
        return lollipop(*args.lollipop)
    if args.graph_file is not None:
        return read_edge_list(args.graph_file)
    raise ValueError("no graph source given")


def _algebra_from_args(args):
    if getattr(args, "gens_file", None):
        with open(args.gens_file, encoding="utf-8") as fh:
            num_vars, gens, labels = parse_generators(fh.read())
        return from_generators(num_vars, gens, var_labels=labels)
    return from_graph(_graph_from_args(args))


def _parse_range(text: str) -> range:
    """``A..B`` or ``A`` with 1 <= A <= B; argparse shows only the message of
    an ``ArgumentTypeError``, so every malformed range raises one."""
    parts = text.split("..", 1)
    try:
        lo, hi = int(parts[0]), int(parts[-1])
    except ValueError:
        lo = hi = 0
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return range(lo, hi + 1)


def _int_at_least(lo: int):
    """An argparse type: an integer, at least ``lo``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return parse


class _Distinct(argparse.Action):
    """Store a list option's values, refusing a value given twice."""

    def __call__(self, parser, namespace, values, option_string=None):
        for k, value in enumerate(values):
            if value in values[:k]:
                raise argparse.ArgumentError(self, f"value {value} given twice")
        setattr(namespace, self.dest, values)


def cmd_indpoly(args) -> int:
    g = _graph_from_args(args)
    poly = independence_polynomial(g)
    analysis = mode_analysis(poly)
    if args.output == "json":
        print(json.dumps({
            "polynomial": poly.to_json(),
            "unimodal": analysis.is_unimodal,
            "mode": analysis.mode,
        }))
    else:
        print(poly.to_text())
        print(f"unimodal: {'yes' if analysis.is_unimodal else 'no'}")
        if analysis.is_unimodal:
            print(f"mode: {analysis.mode}")
    return 0


def cmd_hilbert(args) -> int:
    algebra = _algebra_from_args(args)
    hs = hilbert_series(algebra)
    if args.output == "json":
        print(json.dumps({
            "hilbert": hs.to_json(),
            "socle_degree": algebra.socle_degree,
        }))
    else:
        print(hs.to_text())
        print(f"socle degree: {algebra.socle_degree}")
    return 0


def cmd_wlp(args) -> int:
    algebra = _algebra_from_args(args)
    report = wlp_report(algebra)
    if args.output == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"Hilbert series: {report.hilbert.to_text()}")
        print(f"socle degree: {report.socle_degree}")
        print(f"{'degree':>6} {'h_i':>8} {'h_next':>8} {'rank':>8} {'inj':>4} {'surj':>5}")
        for v in report.verdicts:
            print(f"{v.degree:>6} {v.h_source:>8} {v.h_target:>8} {v.rank:>8} "
                  f"{'yes' if v.injective else 'no':>4} {'yes' if v.surjective else 'no':>5}")
        for degree, kind in report.failing_degrees:
            print(f"failure: {kind} at degree {degree}")
        print(f"WLP: {'yes' if report.has_wlp else 'no'}")
    return 0 if report.has_wlp else 1


def cmd_blockcheck(args) -> int:
    if getattr(args, "gens_file", None):
        algebras = [_algebra_from_args(args)]
    else:
        rng = random.Random(args.seed)
        # drawn lazily, so each algebra and its caches are freed after its blocks
        algebras = (verify.random_artinian_algebra(rng) for _ in range(args.random))
    as_json = args.output == "json"
    keep = (lambda rep: json.dumps(rep.to_json_dict())) if as_json else None
    # JSON keeps the text of each report until "ok" is known
    pieces: list[str] = []
    count = 0
    ok = True
    for idx, n, degree, agree, direct_rank, json_text in checked_verdicts(
            algebras, args.block_vars, keep):
        if as_json:
            # the text of json.dumps({"algebra": idx, "n": n, **report})
            pieces.append(f'{{"algebra": {idx}, "n": {n}, {json_text[1:]}')
        else:
            print(f"algebra {idx} n={n} degree {degree}: "
                  f"{'agree' if agree else 'DISAGREE'} (direct rank {direct_rank})")
        ok = ok and agree
        count += 1
    if as_json:
        # the bytes of json.dumps({"ok": ok, "reports": [...]}), written piecewise
        out = sys.stdout
        out.write(f'{{"ok": {json.dumps(ok)}, "reports": [')
        for k, piece in enumerate(pieces):
            if k:
                out.write(", ")
            out.write(piece)
        out.write("]}\n")
    else:
        print(f"blockcheck: {'all agree' if ok else 'DISAGREEMENT'} "
              f"({count} degree verdicts)")
    return 0 if ok else 1


def _classify_column(n: int, ms: list[int]) -> list[dict]:
    out = []
    for m in ms:
        c = classify_lollipop(m, n, strict=False)
        out.append({"m": m, "n": n, "computed": c.report.has_wlp,
                    "expected": c.expected, "agree": c.agrees})
    return out


def cmd_classify(args) -> int:
    ms = list(args.m_range)
    cells = [cell for n in args.n_range for cell in _classify_column(n, ms)]
    agreements = sum(1 for c in cells if c["agree"])
    ok = agreements == len(cells)
    if args.output == "json":
        print(json.dumps({"cells": cells, "agreements": agreements, "total": len(cells)}))
    else:
        for c in cells:
            print(f"m={c['m']:>2} n={c['n']:>2}  computed={'wlp' if c['computed'] else 'no-wlp':>6}  "
                  f"expected={'wlp' if c['expected'] else 'no-wlp':>6}  "
                  f"{'agree' if c['agree'] else 'DISAGREE'}")
        print(f"agreements {agreements}/{len(cells)}")
    return 0 if ok else 1


def cmd_verify_paper(args) -> int:
    progress = None
    if args.output != "json":
        progress = lambda result: print(result.line(), flush=True)
    manifest = verify.run_all(seed=args.seed, progress=progress)
    if args.output == "json":
        print(json.dumps(manifest.to_json_dict()))
    else:
        print(f"verify-paper: {'all checks passed' if manifest.ok else 'FAILURES PRESENT'}")
    return 0 if manifest.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlpgraph",
        description="Weak Lefschetz Property computations for graph-defined monomial algebras",
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized suites")
    parser.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="accepted for compatibility (at least 1); has no effect: "
                             "every command runs in one process")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ind = sub.add_parser("indpoly", help="independence polynomial and its mode")
    _add_graph_args(p_ind)
    p_ind.set_defaults(func=cmd_indpoly)

    p_hil = sub.add_parser("hilbert", help="Hilbert series of the associated algebra")
    _add_graph_args(p_hil, gens=True)
    p_hil.set_defaults(func=cmd_hilbert)

    p_wlp = sub.add_parser("wlp", help="weak Lefschetz property report")
    _add_graph_args(p_wlp, gens=True)
    p_wlp.set_defaults(func=cmd_wlp)

    p_blk = sub.add_parser("blockcheck",
                           help="tensor block-matrix verdicts: predicted vs direct")
    group = p_blk.add_mutually_exclusive_group()
    group.add_argument("--gens-file", metavar="FILE")
    group.add_argument("--random", type=_int_at_least(0), default=5, metavar="COUNT",
                       help="number of random inner algebras")
    p_blk.add_argument("--block-vars", type=_int_at_least(1), nargs="+", default=[1, 2, 3],
                       action=_Distinct, metavar="N",
                       help="distinct sizes of the quadratic block")
    p_blk.set_defaults(func=cmd_blockcheck)

    p_cls = sub.add_parser("classify", help="lollipop classification sweep")
    p_cls.add_argument("--m", dest="m_range", type=_parse_range, required=True,
                       metavar="A..B")
    p_cls.add_argument("--n", dest="n_range", type=_parse_range, required=True,
                       metavar="C..D")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify-paper", help="run the full verification suite")
    p_ver.set_defaults(func=cmd_verify_paper)

    # --output and --seed may also follow the subcommand; there they are set
    # only when given, so the value after the subcommand wins and the
    # top-level default is never overwritten
    for p_any in sub.choices.values():
        p_any.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
    for p_seeded in (p_blk, p_ver):
        p_seeded.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                              help="seed for randomized suites")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, UncertifiedRankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: input too large for the recursion limit of {sys.getrecursionlimit()}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
