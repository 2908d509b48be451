"""End-to-end checks of the command-line interface."""

import io
import json

import pytest

from itline.cli import main
from itline.families import fig1, star
from itline.graphcore import parse_edgelist, parse_graph6, to_edgelist, to_graph6

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


def test_index_star(capsys, tmp_path):
    src = tmp_path / "star.g6"
    src.write_text(to_graph6(star(3)) + "\n")
    code, out, _ = run(capsys, "index", "--cross-check", "--in", str(src))
    assert code == 0
    payload = json.loads(out)
    assert payload["hp"] == 1 and payload["h"] == 1
    assert payload["checks"]["hp_cross_check"]["status"] == "confirmed"
    assert set(payload["bounds"]) == {"thm_b1", "cor1", "cor2", "thm_b2", "stats", "unknowns"}


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


def test_corpus_emission_and_ingestion(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus", "--max-vertices", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # 1 + 1 + 2 + 6 connected classes
    corpus_file = tmp_path / "c.g6"
    corpus_file.write_text(out)
    code, out2, _ = run(capsys, "verify", "--theorem", "main", "--in", str(corpus_file))
    assert code == 0
    assert json.loads(out2)["mismatches"] == 0


def test_corpus_by_edge_cap_prints_canonical_graph6(capsys, monkeypatch, corpus_edges7):
    # The enumeration runs once per session, in the fixture; the CLI gets it
    # from there.
    import itline.cli
    from itline.harness import graph_id

    def cached(max_edges, *, min_edges=0):
        assert (max_edges, min_edges) == (7, 0)
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


def test_malformed_budget_variable_is_an_input_error(capsys, monkeypatch, tmp_path):
    src = tmp_path / "star.g6"
    src.write_text(to_graph6(star(3)) + "\n")
    monkeypatch.setenv("ITLINE_BUDGET", "x")
    code, out, err = run(capsys, "index", "--in", str(src))
    assert code == 2 and out == ""
    _single_error_line(err)
    assert "ITLINE_BUDGET" in err
