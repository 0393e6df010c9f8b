import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgering
from edgering import (
    Graph,
    bridge_graph,
    classify,
    complete_graph,
    serialize_edge_list,
    serialize_graph6,
)
from edgering.cli import main, report_from_dict, report_to_dict

from conftest import DATA_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate

def test_generate_bridge_matches_fixture(tmp_path, capsys, bridge2):
    out = tmp_path / "g.el"
    code, stdout, _ = run_cli(capsys, "generate", "bridge", "--k", "2", "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text() == serialize_edge_list(bridge2)


def test_generate_to_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "generate", "cycle", "--n", "5")
    assert code == 0
    assert stdout == "5 5\n1 2\n1 5\n2 3\n3 4\n4 5\n"


def test_generate_complete_bipartite(capsys):
    code, stdout, _ = run_cli(capsys, "generate", "complete_bipartite", "--n", "2", "3")
    assert code == 0
    assert stdout.startswith("5 6\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "bridge", "--k", "0"),
        ("generate", "cycle", "--n", "2"),
        ("generate", "bridge", "--n", "3"),
        ("generate", "cycle", "--k", "3"),
        ("generate", "complete_bipartite", "--n", "3"),
    ],
)
def test_generate_rejects_bad_parameters(capsys, argv):
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in stderr


def test_generate_above_vertex_bound_is_unsupported(capsys):
    # every family, one vertex past the bound
    for argv in (
        ("cycle", "--n", "65"),
        ("complete", "--n", "65"),
        ("complete_bipartite", "--n", "33", "32"),
        ("bridge", "--k", "59"),
    ):
        code, stdout, stderr = run_cli(capsys, "generate", *argv)
        assert code == 3 and stdout == ""
        assert "error:" in stderr and "65" in stderr


def test_generate_at_vertex_bound(capsys):
    code, stdout, _ = run_cli(capsys, "generate", "bridge", "--k", "58")
    assert code == 0
    assert stdout.startswith("64 ")


# ---------------------------------------------------------------------------
# classify

def bridge2_file(tmp_path):
    path = tmp_path / "bridge2.el"
    path.write_text(serialize_edge_list(bridge_graph(2)))
    return path


def test_classify_text(tmp_path, capsys):
    path = bridge2_file(tmp_path)
    code, stdout, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert "normal: false" in stdout
    assert "R1: true" in stdout
    assert "odd cycle condition: fails at (1,2,3) x (4,5,6)" in stdout
    assert "R1 violations: none" in stdout


def test_classify_json_roundtrip(tmp_path, capsys, bridge2):
    path = bridge2_file(tmp_path)
    code, stdout, _ = run_cli(capsys, "classify", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["d"] == 8 and payload["n"] == 10
    assert payload["r1"] is True and payload["normal"] is False
    assert payload["r1_violations"] == []
    assert payload["occ_violation"] == [[1, 2, 3], [4, 5, 6]]
    assert report_from_dict(payload) == classify(bridge2)


def test_classify_json_violations(tmp_path, capsys):
    path = tmp_path / "b1.el"
    path.write_text(serialize_edge_list(bridge_graph(1)))
    code, stdout, _ = run_cli(capsys, "classify", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["r1"] is False
    assert payload["r1_violations"] == [{"kind": "regular_vertex", "vertex": 7}]
    assert report_from_dict(payload) == classify(bridge_graph(1))


def test_classify_output_is_deterministic(tmp_path, capsys):
    path = bridge2_file(tmp_path)
    outs = set()
    for _ in range(2):
        _, stdout, _ = run_cli(capsys, "classify", str(path), "--json")
        outs.add(stdout)
    assert len(outs) == 1


def test_classify_json_pinned_on_random_graphs(capsys, monkeypatch):
    # seeded G(d, 0.3) for d = 18, 20, 22 (helpers.random_connected_nonbipartite
    # with random.Random(d)); expected output recorded from the subset-scan OCC
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO((DATA_DIR / "gnp_d18_20_22.g6").read_text()))
    code, stdout, _ = run_cli(capsys, "classify", "-", "--format", "graph6", "--json")
    assert code == 0
    assert stdout == (DATA_DIR / "gnp_d18_20_22.classify.jsonl").read_text()


def test_classify_json_pinned_on_relabelled_bridges(capsys, monkeypatch):
    # bridge_graph(k), k = 7..10, with vertex v relabelled to image[v - 1] for
    # image = random.Random(f"bridge-{k}").sample(range(1, k + 7), k + 6);
    # expected output recorded from the independent-set scan
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO((DATA_DIR / "bridge_k7_10.g6").read_text()))
    code, stdout, _ = run_cli(capsys, "classify", "-", "--format", "graph6", "--json")
    assert code == 0
    assert stdout == (DATA_DIR / "bridge_k7_10.classify.jsonl").read_text()


def test_classify_graph6_input(tmp_path, capsys, bridge2):
    path = tmp_path / "graphs.g6"
    path.write_text(serialize_graph6(bridge2) + "\n" + serialize_graph6(bridge_graph(1)) + "\n")
    code, stdout, _ = run_cli(capsys, "classify", str(path), "--json")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["input"].endswith("#1") and second["input"].endswith("#2")
    assert first["r1"] is True and second["r1"] is False


def test_classify_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("3 3\n1 2\n2 3\n1 3\n"))
    code, stdout, _ = run_cli(capsys, "classify", "-", "--json")
    assert code == 0
    assert json.loads(stdout)["normal"] is True


def test_classify_early_exit(tmp_path, capsys):
    path = tmp_path / "b1.el"
    path.write_text(serialize_edge_list(bridge_graph(1)))
    code, stdout, _ = run_cli(capsys, "classify", str(path), "--early-exit", "--json")
    assert code == 0
    assert json.loads(stdout)["r1"] is False


# ---------------------------------------------------------------------------
# exit codes

def test_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("2 1\n1 1\n")
    code, _, stderr = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "loop" in stderr


def test_missing_file_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "classify", "/nonexistent/input.el")
    assert code == 2
    assert "error:" in stderr


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.el"
    code, stdout, stderr = run_cli(capsys, "generate", "cycle", "--n", "3", "--out", str(out))
    assert code == 2
    assert "error:" in stderr
    assert stdout == ""


def test_disconnected_exits_3(tmp_path, capsys):
    path = tmp_path / "disc.el"
    path.write_text("4 2\n1 2\n3 4\n")
    code, _, stderr = run_cli(capsys, "classify", str(path))
    assert code == 3
    assert "not connected" in stderr


def test_too_many_vertices_exits_3(tmp_path, capsys):
    path = tmp_path / "big.el"
    path.write_text("65 0\n")
    code, _, stderr = run_cli(capsys, "classify", str(path))
    assert code == 3
    assert "65" in stderr


def test_facets_bipartite_exits_3(tmp_path, capsys):
    path = tmp_path / "even.el"
    path.write_text("4 4\n1 2\n2 3\n3 4\n1 4\n")
    code, _, stderr = run_cli(capsys, "facets", str(path))
    assert code == 3
    assert "bipartite" in stderr


@pytest.mark.parametrize("name, data", [("bad.el", b"3 3\n1 2\xff\n"), ("bad.g6", b"Bw\xff\n")])
def test_non_utf8_input_exits_2(tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    code, stdout, stderr = run_cli(capsys, "classify", str(path))
    assert code == 2 and stdout == ""
    assert "error:" in stderr


@pytest.mark.parametrize("argv", [("oracle",), ("sweep", "--source")])
def test_failed_group_identity_exits_4(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("edgering.oracle._is_even_sum_lattice", lambda lat: False)
    path = tmp_path / "b2.g6"
    path.write_text(serialize_graph6(bridge_graph(2)) + "\n")
    code, stdout, stderr = run_cli(capsys, *argv, str(path))
    assert code == 4
    if argv == ("oracle",):
        assert "error:" in stderr and "internal error" in stderr
    else:
        assert "disagreements: 1" in stdout and "monoid-group" in stdout


def test_criterion_failing_a_normal_graph_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("edgering.serre.satisfies_r1", lambda g, early_exit=False: (False, []))
    path = tmp_path / "k4.el"
    path.write_text("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, stdout, stderr = run_cli(capsys, "classify", str(path))
    assert code == 4 and stdout == ""
    assert "error:" in stderr and "internal error" in stderr


@pytest.mark.parametrize("error", [ValueError("stray"), RecursionError("deep")])
def test_unexpected_errors_propagate(tmp_path, monkeypatch, error):
    # only the documented exception types become exit codes; a bug surfaces
    def broken(g, early_exit=False):
        raise error

    monkeypatch.setattr("edgering.cli.classify", broken)
    path = bridge2_file(tmp_path)
    with pytest.raises(type(error)):
        main(["classify", str(path)])


# ---------------------------------------------------------------------------
# facets and oracle commands

def test_facets_text(tmp_path, capsys):
    path = bridge2_file(tmp_path)
    code, stdout, _ = run_cli(capsys, "facets", str(path))
    assert code == 0
    assert "facets: 17" in stdout
    assert "regular vertex 7: +x7 >= 0" in stdout
    assert "fundamental set {3,4}: (+x1+x2-x3-x4+x5+x6+x7+x8)/2 >= 0" in stdout


def test_facets_json(tmp_path, capsys):
    path = bridge2_file(tmp_path)
    code, stdout, _ = run_cli(capsys, "facets", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["d"] == 8
    assert len(payload["facets"]) == 17
    first = payload["facets"][0]
    assert first == {
        "kind": "regular_vertex",
        "vertex": 1,
        "form": {"coeffs": [1, 0, 0, 0, 0, 0, 0, 0], "denom": 1},
    }


def test_oracle_text_agreement(tmp_path, capsys):
    path = tmp_path / "b1.el"
    path.write_text(serialize_edge_list(bridge_graph(1)))
    code, stdout, _ = run_cli(capsys, "oracle", str(path))
    assert code == 0
    assert "regular vertex 7: unit-value pass, lattice-match FAIL" in stdout
    assert "R1 (lattice): false" in stdout
    assert "R1 (connectivity): false" in stdout
    assert "agreement: ok" in stdout


def test_oracle_json(tmp_path, capsys):
    path = bridge2_file(tmp_path)
    code, stdout, _ = run_cli(capsys, "oracle", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["agreement"] is True
    assert payload["r1_lattice"] is True and payload["r1_connectivity"] is True
    assert all(f["unit_value"] and f["lattice_match"] for f in payload["facets"])


@pytest.mark.parametrize("command", ["facets", "oracle"])
def test_json_pinned_on_conn7_sample(capsys, monkeypatch, command):
    # conn7 graphs 1-10 and 301-310 (the latter fail (R1)); expected output
    # recorded before facet data moved into one record per facet
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO((DATA_DIR / "conn7_sample.g6").read_text()))
    code, stdout, _ = run_cli(capsys, command, "-", "--format", "graph6", "--json")
    assert code == 0
    assert stdout == (DATA_DIR / f"conn7_sample.{command}.jsonl").read_text()


# ---------------------------------------------------------------------------
# sweep command

def test_sweep_small(capsys):
    code, stdout, stderr = run_cli(capsys, "sweep", "--max-vertices", "4")
    assert code == 0
    assert stdout == (
        "d=1: checked=0 normal=0 r1=0\n"
        "d=2: checked=0 normal=0 r1=0\n"
        "d=3: checked=1 normal=1 r1=1\n"
        "d=4: checked=19 normal=19 r1=19\n"
        "total: checked=20 normal=20 r1=20\n"
        "disagreements: 0\n"
    )
    assert "elapsed:" in stderr


@pytest.mark.parametrize("n", ["0", "-1", "8"])
def test_sweep_rejects_max_vertices_out_of_range(capsys, n):
    # 0 or less would check nothing; 8 or more walks 2^(n choose 2) graphs
    code, stdout, stderr = run_cli(capsys, "sweep", "--max-vertices", n)
    assert code == 2
    assert stdout == ""
    assert "--max-vertices must be 1..7" in stderr and "--source" in stderr


def test_sweep_source(tmp_path, capsys, bridge2):
    path = tmp_path / "mix.g6"
    lines = [
        serialize_graph6(bridge2),
        serialize_graph6(bridge_graph(1)),
        serialize_graph6(Graph(2, ((1, 2),))),  # bipartite, skipped
    ]
    path.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run_cli(capsys, "sweep", "--source", str(path))
    assert code == 0
    assert stdout == (
        f"source {path}: checked=2 normal=0 r1=1\n"
        "skipped: 1 (disconnected or bipartite)\n"
        "disagreements: 0\n"
    )


def test_sweep_corpus(capsys, corpus7_path):
    code, stdout, _ = run_cli(capsys, "sweep", "--source", str(corpus7_path))
    assert code == 0
    assert "checked=350" in stdout
    assert "disagreements: 0" in stdout


@pytest.mark.parametrize("n", ["99", "5"])
def test_sweep_rejects_source_with_max_vertices(capsys, corpus7_path, n):
    # the graphs come from a file or from all labelled graphs, never both;
    # an explicit 5, the default, conflicts as well
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--source", str(corpus7_path), "--max-vertices", n])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-vertices: not allowed with argument --source" in captured.err


# ---------------------------------------------------------------------------
# a closed output pipe

@pytest.mark.parametrize("name", ["conn7_sample.g6", "conn7.g6"])
def test_closed_stdout_exits_141_quietly(name):
    # the reader is gone before the first write; the small output fails at the
    # final flush, the large one inside the print loop
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(edgering.__file__).parents[1]))
    argv = [sys.executable, "-m", "edgering.cli", "classify", str(DATA_DIR / name), "--json"]
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


# ---------------------------------------------------------------------------
# report serialization helpers

def test_report_dict_roundtrip(bridge2):
    report = classify(bridge2)
    payload = report_to_dict("x", bridge2, report)
    assert report_from_dict(payload) == report
    b1 = bridge_graph(1)
    report = classify(b1)
    assert report_from_dict(report_to_dict("y", b1, report)) == report


def test_report_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown violation kind"):
        report_from_dict({
            "bipartite": False, "normal": False, "r1": False,
            "r1_violations": [{"kind": "mystery"}],
            "occ_violation": None, "notes": "",
        })


@pytest.mark.parametrize("v", [0, 9])
@pytest.mark.parametrize("field", ["regular_vertex", "fundamental_set", "occ_violation"])
def test_report_from_dict_rejects_labels_outside_the_graph(field, v):
    # d is read from the report itself; complete_graph(4) is the valid base
    payload = report_to_dict("x", complete_graph(4), classify(complete_graph(4)))
    assert payload["d"] == 4
    if field == "regular_vertex":
        payload["r1_violations"] = [{"kind": "regular_vertex", "vertex": v}]
    elif field == "fundamental_set":
        payload["r1_violations"] = [{"kind": "fundamental_set", "set": [1, v]}]
    else:
        payload["occ_violation"] = [[1, 2, 3], [2, 3, v]]
    with pytest.raises(ValueError, match="out of range|below 1"):
        report_from_dict(payload)
