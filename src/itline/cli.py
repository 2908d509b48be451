"""Command-line interface: generators, line-graph iteration, witness queries,
index/bounds computation, and verification campaigns."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

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
    hamiltonian_index,
    hamiltonian_path_index,
    with_cross_check,
)
from .linegraph import iterated_line_graph, line_graph
from . import families


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None


def _read_graph(args) -> MultiGraph:
    if args.in_path:
        text = _read_text(args.in_path)
        fmt = args.in_format or ("g6" if args.in_path.endswith((".g6", ".graph6")) else None)
    else:
        text = sys.stdin.read()
        fmt = args.in_format
    if fmt is None:
        head = text.lstrip()[:1]
        fmt = "edgelist" if head.isdigit() else "g6"
    if fmt in ("g6", "graph6"):
        return parse_graph6((text.strip().splitlines() or [""])[0])
    return parse_edgelist(text)


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
    if args.iterate == 1:
        out = line_graph(g).graph
    else:
        out = iterated_line_graph(g, args.iterate, cap=args.cap)
    _write_graph(out, args.format)
    return 0


def _cmd_check_eup(args) -> int:
    g = _read_graph(args)
    result = find_witness(
        g, args.k, args.variant, node_budget=args.budget, time_limit=args.timeout
    )
    payload: dict = {"graph_id": graph_id(g), "variant": args.variant, "k": args.k}
    if isinstance(result, Unknown):
        payload["found"] = None
        payload["unknown"] = {
            "operation": result.operation,
            "budget_spent": result.budget_spent,
            "detail": result.detail,
        }
    elif result is None:
        payload["found"] = False
    else:
        payload["found"] = True
        if args.witness:
            report = check_conditions(g, result, args.k, args.variant)
            payload["witness"] = witness_to_json(result, report)
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
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
        if args.cross_check:
            result = with_cross_check(g, result)
        payload[key] = result.value
        payload[f"{key}_method"] = result.method
        if result.cross_check:
            payload.setdefault("checks", {})[f"{key}_cross_check"] = {
                "status": result.cross_check.status,
                "detail": result.cross_check.detail,
            }
    return payload


def _cmd_index(args) -> int:
    g = _read_graph(args)
    payload = _index_payload(g, args)
    payload["bounds"] = compute_bounds(
        g, node_budget=args.budget, time_limit=args.timeout
    ).to_dict()
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_bounds(args) -> int:
    g = _read_graph(args)
    payload = {
        "graph_id": graph_id(g),
        "bounds": compute_bounds(
            g, node_budget=args.budget, time_limit=args.timeout
        ).to_dict(),
    }
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _load_corpus(args) -> list[MultiGraph]:
    if args.in_path:
        graphs = []
        for line in _read_text(args.in_path).splitlines():
            line = line.strip()
            if line:
                graphs.append(parse_graph6(line))
        return graphs
    if args.max_edges is not None:
        return corpus_by_edge_cap(args.max_edges, min_edges=args.min_edges)
    return corpus_graphs(args.max_vertices, min_edges=args.min_edges)


def _cmd_corpus(args) -> int:
    for g in _load_corpus(args):
        if args.format == "edgelist":
            sys.stdout.write(to_edgelist(g))
        else:
            sys.stdout.write(to_graph6(g) + "\n")
    return 0


def _emit_report(report: CampaignReport, args) -> int:
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{report.name}.jsonl").write_text(report.json_lines())
        (outdir / f"{report.name}.csv").write_text(report.summary_csv())
    json.dump(report.summary(), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    if not report.ok:
        for r in report.records:
            if r.get("agree") is False:
                sys.stderr.write(f"MISMATCH: {json.dumps(r, sort_keys=True)}\n")
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    common = dict(node_budget=args.budget, time_limit=args.timeout, workers=args.workers)
    if args.theorem == "main":
        corpus = [g for g in _load_corpus(args) if g.edge_count >= 3]
        report = verify_theorem_main(corpus, args.n, **common)
    elif args.theorem == "induction":
        if args.in_path is None and args.max_edges is None:
            args.max_edges = 7
        corpus = [g for g in _load_corpus(args) if g.edge_count >= 2]
        report = verify_theorem_induction(corpus, args.k, **common)
    elif args.theorem == "bounds":
        corpus = _load_corpus(args)
        report = run_bounds_campaign(corpus, **common)
    elif args.theorem == "equivalence":
        corpus = [g for g in _load_corpus(args) if g.edge_count >= 3]
        report = run_equivalence_campaign(corpus, **common)
    elif args.theorem == "families":
        report = run_family_suite(node_budget=args.budget, time_limit=args.timeout)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown theorem {args.theorem!r}")
    return _emit_report(report, args)


def _add_graph_input(p: argparse.ArgumentParser, *, output_format: bool = False) -> None:
    p.add_argument("--in", dest="in_path", default=None, help="graph file (edgelist or .g6)")
    p.add_argument("--in-format", dest="in_format", default=None,
                   choices=["edgelist", "g6", "graph6"],
                   help="input format (default: detect)")
    if output_format:
        p.add_argument("--format", default=None,
                       choices=["edgelist", "g6", "graph6", "json"])


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
    p.add_argument("--cap", type=int, default=5000, help="vertex cap for intermediates")
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
    p.add_argument("--max-vertices", type=int, default=6, dest="max_vertices")
    p.add_argument("--max-edges", type=int, default=None, dest="max_edges")
    p.add_argument("--min-edges", type=int, default=0, dest="min_edges")
    p.add_argument("--in", dest="in_path", default=None, help="ingest a .g6 corpus file")
    p.add_argument("--format", default="g6", choices=["edgelist", "g6"])
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--theorem", required=True,
                   choices=["main", "induction", "bounds", "equivalence", "families"])
    p.add_argument("--max-vertices", type=int, default=6, dest="max_vertices")
    p.add_argument("--max-edges", type=int, default=None, dest="max_edges")
    p.add_argument("--min-edges", type=int, default=0, dest="min_edges")
    p.add_argument("--n", type=int, default=2, help="iteration level for --theorem main")
    p.add_argument("--k", type=int, default=2, help="level for --theorem induction")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="directory for JSONL and CSV reports")
    p.add_argument("--in", dest="in_path", default=None, help="ingest a .g6 corpus file")
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
