import json

import pytest

from edgering import Graph, bridge_graph, classify, serialize_edge_list, serialize_graph6
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
    assert "d=3: checked=1 normal=1 r1=1" in stdout
    assert "d=4: checked=19 normal=19 r1=19" in stdout
    assert "total: checked=20 normal=20 r1=20" in stdout
    assert "disagreements: 0" in stdout
    assert "elapsed:" in stderr


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
    assert "checked=2 normal=0 r1=1" in stdout
    assert "skipped: 1" in stdout
    assert "disagreements: 0" in stdout


def test_sweep_corpus(capsys, corpus7_path):
    code, stdout, _ = run_cli(capsys, "sweep", "--source", str(corpus7_path), "--max-vertices", "1")
    assert code == 0
    assert "checked=350" in stdout
    assert "disagreements: 0" in stdout


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
