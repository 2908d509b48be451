"""Command-line interface: generators, line-graph iteration, witness queries,
index/bounds computation, and verification campaigns."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

from .budget import Budget, Unknown
from .eup import check_conditions, find_witness, witness_to_json
from .graphcore import (
    GraphError,
    InputError,
    MultiGraph,
    parse_edgelist,
    parse_graph6,
    to_edgelist,
    to_graph6,
)
from .harness import (
    CampaignReport,
    corpus_by_edge_cap,
    corpus_graphs,
    graph_id,
    run_bounds_campaign,
    run_equivalence_campaign,
    run_family_suite,
    verify_theorem_induction,
    verify_theorem_main,
)
from .indices import (
    PathHasNoIndexError,
    compute_bounds,
    direct_index_cross_check,
    hamiltonian_index,
    hamiltonian_path_index,
)
from .linegraph import DEFAULT_CAP, iterated_line_graph
from . import families


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None


def _read_graph(args) -> MultiGraph:
    """The graph of ``--in`` or stdin: edge-list text starts with its ``n m``
    header, and graph6 never starts with a digit (its bytes are 63-126)."""
    text = _read_text(args.in_path) if args.in_path else sys.stdin.read()
    if text.lstrip()[:1].isdigit():
        return parse_edgelist(text)
    return parse_graph6((text.strip().splitlines() or [""])[0])


def _print_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _write_graph(g: MultiGraph, fmt: str | None) -> None:
    if fmt in (None, "edgelist"):
        sys.stdout.write(to_edgelist(g))
    elif fmt in ("g6", "graph6"):
        sys.stdout.write(to_graph6(g) + "\n")
    elif fmt == "json":
        json.dump({"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]},
                  sys.stdout)
        sys.stdout.write("\n")
    else:
        raise InputError(f"unsupported graph format {fmt!r}")


_FAMILIES = {
    "fig1": (families.fig1, 0),
    "fig2": (families.fig2, 1),
    "fig3": (families.fig3, 2),
    "fig4b": (families.fig4b, 1),
    "path": (families.path, 1),
    "cycle": (families.cycle, 1),
    "star": (families.star, 1),
    "complete": (families.complete, 1),
    "two-cycle": (families.two_cycle, 0),
}


def _cmd_gen(args) -> int:
    if args.family not in _FAMILIES:
        raise InputError(
            f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)}"
        )
    fn, arity = _FAMILIES[args.family]
    if len(args.params) != arity:
        raise InputError(f"family {args.family} takes {arity} integer parameter(s)")
    _write_graph(fn(*args.params), args.format)
    return 0


def _cmd_linegraph(args) -> int:
    g = _read_graph(args)
    _write_graph(iterated_line_graph(g, args.iterate, cap=args.cap), args.format)
    return 0


def _cmd_check_eup(args) -> int:
    g = _read_graph(args)
    result = find_witness(
        g, args.k, args.variant, node_budget=args.budget, time_limit=args.timeout
    )
    payload: dict = {"graph_id": graph_id(g), "variant": args.variant, "k": args.k}
    if isinstance(result, Unknown):
        payload["found"] = None
        payload["unknown"] = result.to_dict()
    elif result is None:
        payload["found"] = False
    else:
        payload["found"] = True
        if args.witness:
            report = check_conditions(g, result, args.k, args.variant)
            payload["witness"] = witness_to_json(result, report)
    _print_json(payload)
    return 0


def _index_payload(g: MultiGraph, args) -> dict:
    payload: dict = {"graph_id": graph_id(g)}
    either = args.hp or args.h
    for key, index_fn in (("hp", hamiltonian_path_index), ("h", hamiltonian_index)):
        if either and not getattr(args, key):
            continue
        try:
            result = index_fn(g, node_budget=args.budget, time_limit=args.timeout)
        except PathHasNoIndexError:
            payload[key] = None
            payload[f"{key}_defined"] = False
            continue
        if isinstance(result, Unknown):
            payload[key] = None
            payload[f"{key}_unknown"] = result.detail
            continue
        payload[key] = result.value
        payload[f"{key}_method"] = result.method
        if args.cross_check:
            check = direct_index_cross_check(
                g, result, node_budget=args.budget, time_limit=args.timeout
            )
            payload.setdefault("checks", {})[f"{key}_cross_check"] = asdict(check)
    return payload


def _cmd_index(args) -> int:
    g = _read_graph(args)
    payload = _index_payload(g, args)
    payload["bounds"] = compute_bounds(
        g, node_budget=args.budget, time_limit=args.timeout
    ).to_dict()
    _print_json(payload)
    return 0


def _cmd_bounds(args) -> int:
    g = _read_graph(args)
    bounds = compute_bounds(g, node_budget=args.budget, time_limit=args.timeout)
    _print_json({"graph_id": graph_id(g), "bounds": bounds.to_dict()})
    return 0


def _load_corpus(args, floor: int = 0) -> Iterator[MultiGraph]:
    """The corpus of the first given of ``--in``, ``--max-edges``, ``--max-vertices``,
    less its graphs of fewer than ``max(floor, --min-edges)`` edges.

    A generator: nothing is read or enumerated before the first graph is
    asked for, so a campaign checks its own arguments first."""
    if args.in_path:
        lines = map(str.strip, _read_text(args.in_path).splitlines())
        graphs = [parse_graph6(line) for line in lines if line]
    elif args.max_edges is not None:
        graphs = corpus_by_edge_cap(args.max_edges)
    else:
        graphs = corpus_graphs(6 if args.max_vertices is None else args.max_vertices)
    least = max(floor, args.min_edges)
    yield from (g for g in graphs if g.edge_count >= least)


def _cmd_corpus(args) -> int:
    for g in _load_corpus(args):
        _write_graph(g, args.format)
    return 0


def _emit_report(report: CampaignReport, args) -> int:
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{report.name}.jsonl").write_text(report.json_lines())
        (outdir / f"{report.name}.csv").write_text(report.summary_csv())
    _print_json(report.summary())
    if not report.ok:
        for r in report.records:
            if r.get("agree") is False:
                sys.stderr.write(f"MISMATCH: {json.dumps(r, sort_keys=True)}\n")
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    if args.workers < 1:
        raise InputError(f"--workers must be >= 1, got {args.workers}")
    common = dict(node_budget=args.budget, time_limit=args.timeout, workers=args.workers)
    if args.theorem == "main":
        corpus = _load_corpus(args, floor=3)
        report = verify_theorem_main(corpus, args.n, **common)
    elif args.theorem == "induction":
        if args.in_path is None and args.max_edges is None and args.max_vertices is None:
            args.max_edges = 7
        corpus = _load_corpus(args, floor=2)
        report = verify_theorem_induction(corpus, args.k, **common)
    elif args.theorem == "bounds":
        corpus = _load_corpus(args)
        report = run_bounds_campaign(corpus, **common)
    elif args.theorem == "equivalence":
        corpus = _load_corpus(args, floor=3)
        report = run_equivalence_campaign(corpus, **common)
    elif args.theorem == "families":
        report = run_family_suite(node_budget=args.budget, time_limit=args.timeout)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown theorem {args.theorem!r}")
    return _emit_report(report, args)


def _add_graph_input(p: argparse.ArgumentParser, *, output_format: bool = False) -> None:
    p.add_argument("--in", dest="in_path", default=None,
                   help="graph file, edge list or graph6 by its first byte (default: stdin)")
    if output_format:
        p.add_argument("--format", default=None,
                       choices=["edgelist", "g6", "graph6", "json"])


def _add_corpus_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-vertices", type=int, default=None, dest="max_vertices",
                   help="connected graphs of at most this many vertices (default: 6)")
    p.add_argument("--max-edges", type=int, default=None, dest="max_edges")
    p.add_argument("--min-edges", type=int, default=0, dest="min_edges")
    p.add_argument("--in", dest="in_path", default=None, help="ingest a .g6 corpus file")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=None,
                   help="node-expansion budget (default: ITLINE_BUDGET or built-in)")
    p.add_argument("--timeout", type=float, default=None, help="wall-clock limit in seconds")


def _check_budget(node_budget: int | None) -> None:
    """Reject a bad ``--budget`` or ``ITLINE_BUDGET`` before any work starts."""
    try:
        Budget(node_budget)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itline",
        description="Iterated line graphs: witnesses, indices, bounds, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family graph")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--format", default=None, choices=["edgelist", "g6", "graph6", "json"])
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("linegraph", help="apply the line-graph operator")
    p.add_argument("--iterate", type=int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="vertex cap for every level built")
    _add_graph_input(p, output_format=True)
    p.set_defaults(fn=_cmd_linegraph)

    p = sub.add_parser("check-eup", help="witness search for the subgraph families")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=["eu", "eup"], default="eup")
    p.add_argument("--witness", action="store_true", help="include the witness in the output")
    _add_graph_input(p)
    _add_budget(p)
    p.set_defaults(fn=_cmd_check_eup)

    p = sub.add_parser("index", help="exact hamiltonian(-path) index")
    p.add_argument("--hp", action="store_true", help="compute the path index only")
    p.add_argument("--h", action="store_true", help="compute the cycle index only")
    p.add_argument("--cross-check", action="store_true", dest="cross_check")
    _add_graph_input(p)
    _add_budget(p)
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("bounds", help="upper bounds on the path index")
    _add_graph_input(p)
    _add_budget(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("corpus", help="emit or normalize a graph corpus")
    _add_corpus_input(p)
    p.add_argument("--format", default="g6", choices=["edgelist", "g6"])
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--theorem", required=True,
                   choices=["main", "induction", "bounds", "equivalence", "families"],
                   help="campaign to run; without a corpus flag, induction runs on "
                        "the graphs of at most 7 edges")
    _add_corpus_input(p)
    p.add_argument("--n", type=int, default=2, help="iteration level for --theorem main")
    p.add_argument("--k", type=int, default=2, help="level for --theorem induction")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="directory for JSONL and CSV reports")
    _add_budget(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "budget" in vars(args):
            _check_budget(args.budget)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except GraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # The reader is gone; the flush at exit writes what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
