"""Command line front end.

Verbs: analyze, logic, census, search, generate.  Exit codes: 0 success,
1 any error (bad input, size caps, theorem violations in a census), 2 a
search that found a qualifying poset.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .bridges import incomparability_orthoset
from .catalog import antichain, chain, diamond22, n_poset
from .census import (_SEARCH_PREDICATES, census_run, random_poset,
                     search_counterexample)
from .errors import OrthoposetError
from .ioformats import (emit_dot_hasse, emit_dot_lattice, parse_poset_file,
                        serialize_poset_file)
from .logic import DEFAULT_MAX_LATTICE, build_logic
from .orthoset import DEFAULT_MAX_ORTHO_ELEMENTS
from .poset import DEFAULT_MAX_ELEMENTS
from .report import build_report, emit_json_report
from .bitset import subset_labels


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_analyze(args: argparse.Namespace) -> int:
    p = parse_poset_file(_read_source(args.file), args.max_elements)
    report = build_report(p, source=args.file, max_lattice=args.max_lattice)
    sys.stdout.write(emit_json_report(report, include_timing=args.timing))
    return 0


def _cmd_logic(args: argparse.Namespace) -> int:
    p = parse_poset_file(_read_source(args.file), args.max_elements)
    logic = build_logic(incomparability_orthoset(p),
                        max_elements=max(p.n, DEFAULT_MAX_ORTHO_ELEMENTS),
                        max_lattice=args.max_lattice)
    if args.format == "dot":
        sys.stdout.write(emit_dot_lattice(logic, p.labels))
    else:
        payload = {
            "source": args.file,
            "m": logic.m,
            "elements": [subset_labels(e, p.labels) for e in logic.elements],
            "ocompl": list(logic.ocompl),
            "meet": [list(row) for row in logic.meet],
            "join": [list(row) for row in logic.join],
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    summaries = census_run(args.max_n, workers=args.workers,
                           cap=max(args.max_n, 6))
    sys.stdout.write(json.dumps([asdict(s) for s in summaries],
                                sort_keys=True, indent=2) + "\n")
    if any(s.violations for s in summaries):
        print("census found theorem violations", file=sys.stderr)
        return 1
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    found = search_counterexample(args.predicate, args.max_n,
                                  cap=max(args.max_n, 7))
    if found is None:
        print(f"no poset up to n={args.max_n} satisfies {args.predicate}",
              file=sys.stderr)
        return 0
    sys.stdout.write(serialize_poset_file(found))
    return 2


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind in ("chain", "antichain", "random") and args.n is None:
        print(f"error: --n is required for kind {kind}", file=sys.stderr)
        return 1
    if kind == "chain":
        p = chain(args.n)
    elif kind == "antichain":
        p = antichain(args.n)
    elif kind == "n":
        p = n_poset()
    elif kind == "diamond22":
        p = diamond22()
    else:
        p = random_poset(args.n, args.seed, args.edge_prob)
    sys.stdout.write(serialize_poset_file(p))
    return 0


def _cmd_hasse(args: argparse.Namespace) -> int:
    p = parse_poset_file(_read_source(args.file), args.max_elements)
    sys.stdout.write(emit_dot_hasse(p))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orthoposet",
        description="Decide N-freeness, Dacey, compatibility, "
                    "orthomodularity and Booleanness for finite posets "
                    "and their orthosets.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_limits(sp, lattice=False):
        sp.add_argument("--max-elements", type=int,
                        default=DEFAULT_MAX_ELEMENTS,
                        help="largest poset accepted (default %(default)s)")
        if lattice:
            sp.add_argument("--max-lattice", type=int,
                            default=DEFAULT_MAX_LATTICE,
                            help="largest logic tabulated (default %(default)s)")

    sp = sub.add_parser("analyze", help="full report for one poset file")
    sp.add_argument("file", help="poset file, or - for stdin")
    sp.add_argument("--timing", action="store_true",
                    help="include elapsed_ms in the JSON")
    add_limits(sp, lattice=True)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("logic", help="logic of the incomparability orthoset")
    sp.add_argument("file", help="poset file, or - for stdin")
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    add_limits(sp, lattice=True)
    sp.set_defaults(func=_cmd_logic)

    sp = sub.add_parser("hasse", help="Hasse diagram as DOT")
    sp.add_argument("file", help="poset file, or - for stdin")
    add_limits(sp)
    sp.set_defaults(func=_cmd_hasse)

    sp = sub.add_parser("census", help="exhaustive theorem check by size")
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("search", help="scan for a poset with a property")
    sp.add_argument("--predicate", required=True,
                    choices=sorted(_SEARCH_PREDICATES))
    sp.add_argument("--max-n", type=int, required=True)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("generate", help="write a named poset file")
    sp.add_argument("--kind", required=True,
                    choices=("chain", "antichain", "n", "diamond22", "random"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--edge-prob", type=float, default=0.5)
    sp.set_defaults(func=_cmd_generate)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrthoposetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
