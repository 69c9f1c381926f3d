"""Command-line front door.

Subcommands::

    schemacut decompose SCHEMA.json [--strategy I|II|auto] [--out R.json]
                        [--sql VIEWS.sql] [--dot G.dot]
                        [--max-paths N] [--max-width N]
    schemacut check INSTANCE.json [--strategy I|II|auto] [--timeout SECONDS]
    schemacut chains SCHEMA.json --set A,B[,...]
    schemacut bench GRID.json [--strategies I,II] [--timeout SECONDS] [--csv OUT.csv]
    schemacut export-dot SCHEMA.json [--out G.dot]

Exit codes: 0 success, 1 input or usage error, 2 policy inconsistent,
3 post-decomposition verification failure.  Diagnostics go to stderr.
Errors are mapped to exit codes in ``main`` only; any exception it does
not map is a program fault and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .bench import load_grid, results_to_csv, run_benchmark
from .consistency import ConsistencyTimeout, check, load_cc_instance
from .decompose import DEFAULT_MAX_WIDTH, WidthBoundExceeded, sql_views
from .fdg import build_fdg, export_dot
from .joinchain import PathLimits, join_chains
from .model import SchemaError, attr_set, load_schema, preprocess_policy
from .pipeline import RecutDidNotConverge, _base_graph, report_to_dict, secure_decompose

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_VERIFY = 3

_MAX_PATHS = PathLimits().max_paths_per_target


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds >= 0, got {text}")
    return value


def _edge_label(ref, sep: str) -> str:
    return f"{sep.join(ref[0])}->{sep.join(ref[1])}"


def cmd_decompose(args: argparse.Namespace) -> int:
    schema, policy = load_schema(args.schema)
    limits = PathLimits(max_paths_per_target=args.max_paths)
    report = secure_decompose(
        schema,
        policy,
        limits=limits,
        strategy=args.strategy,
        max_width=args.max_width,
    )

    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    _write_or_print(json.dumps(report_to_dict(report), indent=2) + "\n", args.out)

    if not report.consistency.consistent:
        print("policy inconsistent: no cut satisfies the required sets", file=sys.stderr)
        return EXIT_INCONSISTENT

    if args.sql:
        tables = (rel.name for rel in schema.relations)
        Path(args.sql).write_text(sql_views(report.result, tables), encoding="utf-8")
    # Reverse-delete may drop cut edges; the decomposition forbids only the
    # co-occurrences in new_forbidden, so show only the edges behind those,
    # and every edge of the graph whose co-occurrence a re-cut forbade.
    # The cut was made on the preprocessed schema's graph, which
    # secure_decompose has left cached; draw that one.
    cut_fdg = _base_graph(preprocess_policy(schema, policy)[0])[0]
    forbids = set(report.result.new_forbidden)
    cut_refs = {
        ref for ref in report.consistency.cut or () if attr_set(ref[0] + ref[1]) in forbids
    }
    recut = forbids - {attr_set(ref[0] + ref[1]) for ref in cut_refs}
    cut_refs |= {edge.ref for edge in cut_fdg.edges if attr_set(edge.src + edge.dst) in recut}
    if args.dot:
        Path(args.dot).write_text(export_dot(cut_fdg, cut_refs), encoding="utf-8")

    fragments = len(report.result.fragments)
    cut_size = len(cut_refs)
    required_ok = all(ok for _, ok in report.required_verified)
    summary = (
        f"fragments={fragments} cut={cut_size} "
        f"secure={str(report.security_verified).lower()} "
        f"required_ok={str(required_ok).lower()}"
    )
    print(summary, file=sys.stderr if not args.out else sys.stdout)

    if not report.security_verified or not required_ok:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    instance = load_cc_instance(args.instance)
    result = check(instance, args.strategy, timeout_s=args.timeout)
    doc = {
        "consistent": result.consistent,
        "cut": sorted(result.cut) if result.cut is not None else None,
        "preserved": None if result.preserved is None else [sorted(c) for c in result.preserved],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if result.consistent else EXIT_INCONSISTENT


def cmd_chains(args: argparse.Namespace) -> int:
    schema, _ = load_schema(args.schema)
    targets = [a for a in args.set.split(",") if a]
    if not targets:
        return _fail("--set needs at least one attribute")
    limits = PathLimits(max_paths_per_target=args.max_paths)
    family = join_chains(build_fdg(schema), targets, limits)
    # Plain joined names are ambiguous once a name has several characters.
    sep = "," if any(len(a) > 1 for a in schema.attribute_names) else ""
    if len(set(targets)) == 1:
        print("warning: a single attribute is trivially associable", file=sys.stderr)
    if family.truncated:
        print("warning: enumeration truncated by limits", file=sys.stderr)
    doc = {
        "set": list(family.source_set),
        "chains": [
            {
                "ancestor": sep.join(chain.ancestor),
                "edges": sorted(_edge_label(ref, sep) for ref in chain.edges),
            }
            for chain in family.chains
        ],
        "truncated": family.truncated,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    names, grid = load_grid(args.grid)
    strategies = [s for s in args.strategies.split(",") if s]
    if not strategies:
        return _fail("--strategies needs at least one strategy")
    for s in strategies:
        if s not in ("I", "II", "auto"):
            return _fail(f"unknown strategy {s!r}")
    results = run_benchmark(grid, strategies, timeout_s=args.timeout)
    text = results_to_csv(results, names)
    _write_or_print(text, args.csv)
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    schema, _ = load_schema(args.schema)
    _write_or_print(export_dot(build_fdg(schema)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemacut",
        description="Secure decomposition of relational schema external layers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a schema against its policy")
    p.add_argument("schema")
    p.add_argument("--strategy", choices=["I", "II", "auto"], default="auto")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.add_argument("--sql", help="write CREATE VIEW lines here")
    p.add_argument("--dot", help="write the graph (cut edges highlighted) here")
    p.add_argument("--max-paths", type=_positive_int, default=_MAX_PATHS)
    p.add_argument("--max-width", type=_positive_int, default=DEFAULT_MAX_WIDTH)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check", help="consistency-check an abstract instance")
    p.add_argument("instance")
    p.add_argument("--strategy", choices=["I", "II", "auto"], default="auto")
    p.add_argument("--timeout", type=_seconds, default=60.0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("chains", help="enumerate join chains for an attribute set")
    p.add_argument("schema")
    p.add_argument("--set", required=True, help="comma-separated attribute names")
    p.add_argument("--max-paths", type=_positive_int, default=_MAX_PATHS)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("bench", help="run a benchmark grid")
    p.add_argument("grid")
    p.add_argument("--strategies", default="I,II")
    p.add_argument("--timeout", type=_seconds, default=60.0)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-dot", help="export a schema's dependency graph as DOT")
    p.add_argument("schema")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        # unless it is --help/--version (exit 0).
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except ConsistencyTimeout:
        return _fail("consistency check timed out")
    except (SchemaError, WidthBoundExceeded, RecutDidNotConverge, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
