"""End-to-end checks of the command-line interface."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itline import harness
from itline.cli import main
from itline.families import complete, fig1, fig2, fig3, star
from itline.graphcore import parse_edgelist, parse_graph6, to_edgelist, to_graph6
from itline.linegraph import line_graph

from .conftest import connected_multigraphs
from .oracles import is_isomorphic


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_edgelist_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "fig1")
    assert code == 0
    assert parse_edgelist(out) == fig1()


def test_gen_graph6_output(capsys):
    code, out, _ = run(capsys, "gen", "star", "3", "--format", "g6")
    assert code == 0
    assert is_isomorphic(parse_graph6(out.strip()), star(3))
    code, out, _ = run(capsys, "gen", "star", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3]]}


def test_gen_two_cycle_and_param_errors(capsys):
    code, out, _ = run(capsys, "gen", "two-cycle")
    assert code == 0 and "2 2" in out
    code, _, err = run(capsys, "gen", "fig3", "1")
    assert code == 2 and "parameter" in err
    code, _, err = run(capsys, "gen", "nosuch")
    assert code == 2


def test_linegraph_iterate(capsys, tmp_path):
    src = tmp_path / "p5.txt"
    src.write_text(to_edgelist(parse_edgelist("5 4\n0 1\n1 2\n2 3\n3 4\n")))
    code, out, _ = run(capsys, "linegraph", "--iterate", "2", "--in", str(src),
                       "--format", "g6")
    assert code == 0
    lg = parse_graph6(out.strip())
    assert lg.vertex_count == 3 and lg.edge_count == 2


def test_linegraph_cap_holds_at_level_one(capsys, tmp_path):
    # L(fig1) has one vertex per edge of fig1: 13, over a cap of 2.
    src = tmp_path / "fig1.txt"
    src.write_text(to_edgelist(fig1()))
    code, out, err = run(capsys, "linegraph", "--iterate", "1", "--cap", "2", "--in", str(src))
    assert code == 2 and out == ""
    assert err == "error: line-graph iteration stopped at level 1: 13 vertices exceeds cap 2\n"
    code, out, _ = run(capsys, "linegraph", "--iterate", "1", "--in", str(src))
    assert code == 0 and parse_edgelist(out) == line_graph(fig1()).graph


def test_check_eup_fig1(capsys, tmp_path):
    src = tmp_path / "fig1.g6"
    src.write_text(to_graph6(fig1()) + "\n")
    code, out, _ = run(capsys, "check-eup", "--k", "1", "--variant", "eup",
                       "--in", str(src))
    assert code == 0
    assert json.loads(out)["found"] is False
    code, out, _ = run(capsys, "check-eup", "--k", "2", "--variant", "eup",
                       "--witness", "--in", str(src))
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["witness"]["report"]["overall"] is True
    code, out, _ = run(capsys, "check-eup", "--k", "2", "--budget", "1", "--in", str(src))
    payload = json.loads(out)
    assert code == 0 and payload["found"] is None and "witness" not in payload
    assert payload["unknown"]["operation"] == "find_witness"


def test_index_budget_of_one_reports_unknowns(capsys, tmp_path):
    src = tmp_path / "fig1.txt"
    src.write_text(to_edgelist(fig1()))
    code, out, _ = run(capsys, "index", "--budget", "1", "--in", str(src))
    payload = json.loads(out)
    assert code == 0 and payload["hp"] is None and payload["h"] is None
    assert payload["hp_unknown"] and payload["h_unknown"]
    assert payload["bounds"]["unknowns"] == ["max_trail"]


def test_index_unknowns_name_their_stage_and_level(capsys, tmp_path):
    # With a budget of one node, fig1's path oracle gives up at level 0 and
    # its cycle index at the first witness level, past the bridge-tree
    # certificate; fig2(1)'s trail searches give up at level 1 once the
    # oracle has ruled out level 0.
    cases = (
        (fig1(), "direct oracle undecided at level 0: ", "witness search undecided at k=2: "),
        (fig2(1), "dominating-trail search undecided at level 1: open search",
         "dominating-trail search undecided at level 1: closed search"),
    )
    for g, hp_prefix, h_prefix in cases:
        src = tmp_path / "g.txt"
        src.write_text(to_edgelist(g))
        code, out, _ = run(capsys, "index", "--budget", "1", "--in", str(src))
        payload = json.loads(out)
        assert code == 0 and payload["hp"] is None
        assert payload["hp_unknown"].startswith(hp_prefix), payload["hp_unknown"]
        assert payload["h_unknown"].startswith(h_prefix), payload["h_unknown"]


def test_index_star(capsys, tmp_path):
    src = tmp_path / "star.g6"
    src.write_text(to_graph6(star(3)) + "\n")
    code, out, _ = run(capsys, "index", "--cross-check", "--in", str(src))
    assert code == 0
    payload = json.loads(out)
    assert payload["hp"] == 1 and payload["h"] == 1
    assert payload["checks"]["hp_cross_check"]["status"] == "confirmed"
    assert set(payload["bounds"]) == {"thm_b1", "cor1", "cor2", "thm_b2", "stats", "unknowns"}
    code, out, _ = run(capsys, "index", "--hp", "--in", str(src))
    payload = json.loads(out)
    assert code == 0 and payload["hp"] == 1 and "h" not in payload


def test_index_cross_check_obeys_timeout(capsys, tmp_path):
    # Confirming hp(fig3(3,8)) = 5 directly means proving L^4 (362 vertices)
    # not traceable, far beyond a one-second limit; the check must give up.
    src = tmp_path / "fig3.txt"
    src.write_text(to_edgelist(fig3(3, 8)))
    code, out, _ = run(capsys, "index", "--cross-check", "--timeout", "1", "--in", str(src))
    assert code == 0
    payload = json.loads(out)
    assert payload["hp"] == 5
    assert payload["checks"]["hp_cross_check"]["status"] == "cap_exceeded"


def test_index_of_path_reports_h_undefined(capsys, tmp_path):
    src = tmp_path / "p4.txt"
    src.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "index", "--in", str(src))
    assert code == 0
    payload = json.loads(out)
    assert payload["hp"] == 0
    assert payload["h"] is None and payload["h_defined"] is False


def test_bounds_subcommand(capsys, tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run(capsys, "bounds", "--in", str(src))
    assert code == 0
    assert json.loads(out)["bounds"]["cor2"] == 1
    # The first byte decides the format, not the file name: an edge list
    # named .g6 is read as one.
    named_g6 = tmp_path / "f.g6"
    named_g6.write_text(to_edgelist(fig1()))
    code, out, _ = run(capsys, "bounds", "--in", str(named_g6))
    assert (code, out) == _run_io(["bounds"], to_edgelist(fig1()))[:2]


def test_corpus_emission_and_ingestion(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus", "--max-vertices", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # 1 + 1 + 2 + 6 connected classes
    corpus_file = tmp_path / "c.g6"
    corpus_file.write_text(out)
    code, out2, _ = run(capsys, "verify", "--theorem", "main", "--in", str(corpus_file))
    assert code == 0
    # The 7 graphs with at least 3 edges: the floor applies to --in as well.
    assert json.loads(out2)["mismatches"] == 0 and json.loads(out2)["records"] == 7
    # --min-edges filters a corpus read back through --in like a generated one:
    # the 4-cycle, the paw, the diamond and K4.
    code, out3, _ = run(capsys, "corpus", "--in", str(corpus_file), "--min-edges", "4")
    assert code == 0 and len(out3.splitlines()) == 4
    assert out3 == run(capsys, "corpus", "--max-vertices", "4", "--min-edges", "4")[1]


def test_corpus_by_edge_cap_prints_canonical_graph6(capsys, monkeypatch, corpus_edges7):
    # The enumeration runs once per session, in the fixture; the CLI gets it
    # from there.
    import itline.cli
    from itline.harness import graph_id

    def cached(max_edges):
        assert max_edges == 7
        return corpus_edges7

    monkeypatch.setattr(itline.cli, "corpus_by_edge_cap", cached)
    code, out, _ = run(capsys, "corpus", "--max-edges", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(set(lines)) == 132
    graphs = [parse_graph6(line) for line in lines]
    assert [graph_id(g) for g in graphs] == lines
    assert sum(1 for g in graphs if g.vertex_count == 8) == 23


def test_verify_main_writes_reports(capsys, tmp_path):
    outdir = tmp_path / "reports"
    code, out, _ = run(capsys, "verify", "--theorem", "main", "--max-vertices", "4",
                       "--out", str(outdir))
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] is True
    assert (outdir / "main.jsonl").exists()
    assert (outdir / "main.csv").exists()


def test_verify_main_over_the_line_graph_cap_is_an_unknown(capsys, tmp_path):
    # At n = 5 the trail search would run on L^4(K6), 5,460 vertices: over
    # iterated_line_graph's cap, so the record is an Unknown.
    src = tmp_path / "k6.g6"
    src.write_text(to_graph6(complete(6)) + "\n")
    outdir = tmp_path / "reports"
    code, out, _ = run(capsys, "verify", "--theorem", "main", "--n", "5", "--in", str(src),
                       "--out", str(outdir))
    summary = json.loads(out)
    assert code == 0 and (summary["records"], summary["unknowns"], summary["ok"]) == (1, 1, True)
    (record,) = map(json.loads, (outdir / "main.jsonl").read_text().splitlines())
    assert record["unknown"]["operation"] == "iterated_line_graph"
    assert "level 4" in record["unknown"]["detail"] and "cap 5000" in record["unknown"]["detail"]
    assert record["witness_found"] is True and record["agree"] is None


def test_verify_induction_honours_max_vertices(capsys):
    # The 8 graphs of at most 4 vertices with at least 2 edges, not the
    # default edge-cap-7 corpus.
    code, out, _ = run(capsys, "verify", "--theorem", "induction", "--max-vertices", "4")
    assert code == 0
    summary = json.loads(out)
    assert summary["records"] == 8 and summary["ok"] is True


def test_verify_bounds_quick(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "bounds", "--max-vertices", "4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_malformed_input_exit_code(capsys, tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("2 1\nbroken\n")
    code, _, err = run(capsys, "index", "--in", str(src))
    assert code == 2
    assert "error:" in err


def _single_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("text", ["", "  \n\t\n"])
def test_empty_input_is_an_input_error(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "index")
    assert code == 2 and out == ""
    _single_error_line(err)


def test_missing_input_file_is_an_input_error(capsys, tmp_path):
    for argv in (("bounds", "--in"), ("verify", "--theorem", "main", "--in")):
        code, out, err = run(capsys, *argv, str(tmp_path / "missing.g6"))
        assert code == 2 and out == ""
        _single_error_line(err)
        assert "missing.g6" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_nonpositive_budget_is_an_input_error(capsys, tmp_path, budget):
    src = tmp_path / "star.g6"
    src.write_text(to_graph6(star(3)) + "\n")
    code, out, err = run(capsys, "check-eup", "--k", "2", "--budget", budget, "--in", str(src))
    assert code == 2 and out == ""
    _single_error_line(err)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_an_input_error(capsys, workers):
    code, out, err = run(capsys, "verify", "--theorem", "bounds", "--max-vertices", "3",
                         "--workers", workers)
    assert code == 2 and out == ""
    _single_error_line(err)
    assert f"--workers must be >= 1, got {workers}" in err


def test_main_level_below_one_is_an_input_error(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "main", "--max-vertices", "4", "--n", "0")
    assert code == 2 and out == ""
    _single_error_line(err)
    assert "need n >= 1, got 0" in err


@pytest.mark.parametrize("argv, message", [
    (("--theorem", "main", "--n", "0"), "need n >= 1, got 0"),
    (("--theorem", "induction", "--k", "0"), "k must be >= 1, got 0"),
])
def test_level_below_one_fails_before_the_corpus_is_built(capsys, monkeypatch, argv, message):
    # The campaign checks its level before the default corpus (≤ 6 vertices
    # for main, ≤ 7 edges for induction) enumerates any size.
    requested = []

    def spy(n, **kwargs):
        requested.append(n)
        return iter(())

    monkeypatch.setattr(harness, "enumerate_connected_graphs", spy)
    monkeypatch.setattr(harness, "enumerate_trees", spy)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    _single_error_line(err)
    assert message in err
    assert requested == []


@pytest.mark.parametrize("argv, message", [
    (("--theorem", "main", "--max-vertices", "0"), "need max_vertices >= 1, got 0"),
    (("--theorem", "bounds", "--max-edges", "-1"), "need max_edges >= 0, got -1"),
])
def test_empty_corpus_is_an_input_error(capsys, argv, message):
    # A campaign over no graph would print "ok": true.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    _single_error_line(err)
    assert message in err


def test_malformed_budget_variable_is_an_input_error(capsys, monkeypatch, tmp_path):
    src = tmp_path / "star.g6"
    src.write_text(to_graph6(star(3)) + "\n")
    monkeypatch.setenv("ITLINE_BUDGET", "x")
    code, out, err = run(capsys, "index", "--in", str(src))
    assert code == 2 and out == ""
    _single_error_line(err)
    assert "ITLINE_BUDGET" in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails with EPIPE."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_pipe_exits_nonzero_without_a_traceback(capsys, monkeypatch, tmp_path):
    # main points the stdout descriptor at devnull; here that is a scratch
    # file's descriptor, not the test run's own stdout.
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(sink.fileno()))
        code = main(["gen", "fig1"])
    assert code == 1
    assert capsys.readouterr().err == ""


def _run_io(argv, stdin=""):
    """main(argv) on the given stdin, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


#: Every subcommand that reads one graph, with the arguments it needs.
_GRAPH_COMMANDS = (
    ("linegraph",),
    ("check-eup", "--k", "2"),
    ("check-eup", "--k", "1", "--variant", "eu", "--witness"),
    ("index",),
    ("bounds",),
)

#: Input that no reader accepts: nothing, a graph6 line with a byte below
#: graph6's range, an edge-list body shorter than its header, or an edge
#: with an endpoint out of range.
_GARBAGE = st.one_of(
    st.sampled_from(["", " \n\t\n"]),
    st.text(max_size=20).map(lambda s: "!" + s),
    st.integers(2, 9).map(lambda m: f"{m + 1} {m}\n0 1\n"),
    st.integers(2, 9).map(lambda n: f"{n} 1\n0 {n}\n"),
)


@settings(deadline=None, max_examples=25)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=3), st.booleans(), _GARBAGE)
def test_exit_codes_of_every_subcommand(g, as_graph6, garbage):
    # 0 on a valid connected graph, 2 on input no reader accepts, and never
    # an escaping exception or a traceback.
    simple = len({tuple(sorted(e)) for e in g.edges}) == g.edge_count
    text = to_graph6(g) + "\n" if as_graph6 and simple else to_edgelist(g)
    for argv in _GRAPH_COMMANDS:
        if argv[0] == "linegraph" and not g.edge_count:
            continue
        code, out, err = _run_io(argv, text)
        assert code == 0 and out and "Traceback" not in err, (argv, err)
        code, out, err = _run_io(argv, garbage)
        assert code == 2 and out == "" and err.startswith("error: "), (argv, garbage, err)
    assert _run_io(["gen", "path", str(g.vertex_count)])[0] == 0
    assert _run_io(["gen", "path"])[0] == 2
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = os.path.join(tmp, "good.g6"), os.path.join(tmp, "bad.g6")
        with open(good, "w") as f:
            f.write("D?{\nCh\n")  # the star K_{1,4} and the path on 4 vertices
        with open(bad, "w") as f:
            f.write(garbage if garbage.strip() else "!")
        for argv in (("corpus", "--in"), ("verify", "--theorem", "bounds", "--in")):
            assert _run_io([*argv, good])[0] == 0
            code, out, err = _run_io([*argv, bad])
            assert code == 2 and "Traceback" not in err, (argv, err)
