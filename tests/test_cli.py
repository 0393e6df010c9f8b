import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgering
from edgering import (
    Graph,
    bridge_graph,
    classify,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
    vset,
)
from edgering.cli import main, report_from_dict, report_to_dict, violation_from_dict

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


@pytest.mark.parametrize("name", ["gnp_d18_20_22", "bridge_k7_10"])
def test_classify_goldens_roundtrip_through_the_decoder(name):
    # the (R1)-but-not-normal graphs and the one failing fundamental set: each
    # golden line decodes, and re-encodes with its graph to the same bytes
    graphs = parse_graph6((DATA_DIR / f"{name}.g6").read_text())
    lines = (DATA_DIR / f"{name}.classify.jsonl").read_text().splitlines()
    assert len(lines) == len(graphs)
    for g, line in zip(graphs, lines):
        dct = json.loads(line)
        report = report_from_dict(dct)
        assert json.dumps(report_to_dict(dct["input"], g, report), sort_keys=True) == line


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
    path = tmp_path / "empty.g6"
    path.write_text(">>graph6<<\n\n\n")
    code, _, stderr = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "no graphs in input" in stderr


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


def test_a_graph_refused_after_a_report_leaves_no_separator(tmp_path, capsys):
    # a text report and the blank line before it are printed once the graph is
    # classified, so the refused second graph adds nothing to stdout
    path = tmp_path / "mixed.g6"
    path.write_text(f"{serialize_graph6(bridge_graph(1))}\n{serialize_graph6(Graph(4, ((1, 2), (3, 4))))}\n")
    code, stdout, stderr = run_cli(capsys, "classify", str(path))
    assert code == 3 and "not connected" in stderr
    assert stdout.startswith(f"input: {path}#1\n") and stdout.endswith("R1 violations:\n  regular vertex 7\n")


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
def test_failed_group_identity_exits_4(tmp_path, capsys, even_sum_identity_fails, argv):
    path = tmp_path / "b2.g6"
    path.write_text(serialize_graph6(bridge_graph(2)) + "\n")
    code, stdout, stderr = run_cli(capsys, *argv, str(path))
    assert code == 4
    if argv == ("oracle",):
        assert "error:" in stderr and "internal error" in stderr
    else:
        assert "disagreements: 1" in stdout and "monoid-group" in stdout


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


@pytest.mark.parametrize("name, counts", [
    ("conn7.g6", "checked=350 normal=300 r1=300"),
    ("gnp_d18_20_22.g6", "checked=3 normal=0 r1=2"),  # the one failing fundamental set
    ("bridge_k7_10.g6", "checked=4 normal=0 r1=4"),
])
def test_sweep_source_prints_one_count_line(capsys, name, counts):
    path = DATA_DIR / name
    code, stdout, stderr = run_cli(capsys, "sweep", "--source", str(path))
    assert code == 0
    assert stdout == f"source {path}: {counts}\ndisagreements: 0\n"
    assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", stderr)


def test_sweep_max_vertices_prints_a_row_per_d_and_the_total(capsys):
    code, stdout, stderr = run_cli(capsys, "sweep", "--max-vertices", "5")
    assert code == 0
    assert stdout == (
        "d=1: checked=0 normal=0 r1=0\n"
        "d=2: checked=0 normal=0 r1=0\n"
        "d=3: checked=1 normal=1 r1=1\n"
        "d=4: checked=19 normal=19 r1=19\n"
        "d=5: checked=533 normal=533 r1=533\n"
        "total: checked=553 normal=553 r1=553\n"
        "disagreements: 0\n"
    )
    assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", stderr)


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


@pytest.mark.parametrize("command, name", [
    ("classify", "conn7_sample"),
    ("facets", "conn7_sample"),
    ("oracle", "conn7_sample"),
    ("classify", "gnp_d18_20_22"),
    ("classify", "bridge_k7_10"),
])
def test_text_pinned_on_sample_files(capsys, monkeypatch, command, name):
    # the text renderers' every line: "odd cycle condition: holds", a listed
    # "R1 violations:" block, the blank line between graphs and the notes lines
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO((DATA_DIR / f"{name}.g6").read_text()))
    code, stdout, _ = run_cli(capsys, command, "-", "--format", "graph6")
    assert code == 0
    assert stdout == (DATA_DIR / f"{name}.{command}.txt").read_text()


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


@pytest.mark.parametrize("v", [0, 9, 10**8])
@pytest.mark.parametrize("field", ["regular_vertex", "fundamental_set", "occ_violation"])
def test_report_from_dict_rejects_labels_outside_the_graph(field, v):
    # d is read from the report itself; complete_graph(4) is the valid base.
    # A label of 10**8 is refused before any 10**8-bit mask is built
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


@pytest.mark.parametrize("field, value", [
    pytest.param("fundamental_set", [], id="empty-set"),
    pytest.param("fundamental_set", [1, 1], id="repeated-set"),
    pytest.param("occ_violation", [[1], []], id="occ-not-cycles"),
    pytest.param("occ_violation", [[1, 2, 3]], id="occ-one-cycle"),
    pytest.param("occ_violation", [[1, 2, 3], [1, 2, 3], [1, 2, 3]], id="occ-three-cycles"),
    pytest.param("occ_violation", [[1, 2, 3], [1, 2, 3, 4]], id="occ-even-cycle"),
    pytest.param("occ_violation", [[1, 2, 3], [1, 2, 1]], id="occ-repeated-vertex"),
    pytest.param("occ_violation", [[1, 2, 3], [1, 2, 3]], id="occ-shared-vertex"),
    pytest.param("d", "4", id="d-string"),
    pytest.param("d", True, id="d-bool"),
    pytest.param("regular_vertex", True, id="vertex-bool"),
    pytest.param("regular_vertex", 2.0, id="vertex-float"),
    pytest.param("regular_vertex", "2", id="vertex-string"),
    pytest.param("fundamental_set", [True], id="set-bool"),
    pytest.param("fundamental_set", [1.0], id="set-float"),
    pytest.param("occ_violation", [[True, 2, 3], [4, 5, 6]], id="occ-bool"),
    pytest.param("d", 70, id="d-above-bound"),
    pytest.param("d", 10**9, id="d-huge"),
    pytest.param("n", "foo", id="n-string"),
    pytest.param("n", -3, id="n-negative"),
    pytest.param("n", True, id="n-bool"),
    pytest.param("n", 15.0, id="n-float"),
    pytest.param("n", 16, id="n-above-pairs"),
    pytest.param("input", 5, id="input-number"),
    pytest.param("input", None, id="input-null"),
])
def test_report_from_dict_rejects_shapes_no_classify_prints(field, value):
    # every number equals a label in 1..d, so only the shape is wrong: d and the
    # labels are JSON integers (true and 2.0 compare equal to 1 and 2), a
    # fundamental set is a nonempty set, and an odd cycle witness is two
    # vertex-disjoint odd cycles of length at least 3 with distinct vertices.
    # d is at most Graph's vertex bound, the edge count n an integer in
    # 0..d(d-1)/2 (15 here), and input a string, as classify prints them
    payload = report_to_dict("x", complete_graph(6), classify(complete_graph(6)))
    if field in ("d", "n", "input"):
        payload[field] = value
    elif field == "regular_vertex":
        payload["r1_violations"] = [{"kind": "regular_vertex", "vertex": value}]
    elif field == "fundamental_set":
        payload["r1_violations"] = [{"kind": "fundamental_set", "set": value}]
    else:
        payload["occ_violation"] = value
    shapes = "empty or repeats|not two vertex-disjoint odd cycles|not a positive integer"
    shapes += "|exceeds the 64-vertex bound|not an integer in 0..15|not a JSON string"
    with pytest.raises(ValueError, match=f"{shapes}|vertex (True|2.0|'2') out of range"):
        report_from_dict(payload)


@pytest.mark.parametrize("key", ["d", "n", "input"])
def test_report_from_dict_needs_each_count_and_the_input(key):
    # a missing key is a KeyError, as for every other field classify prints
    payload = report_to_dict("x", complete_graph(4), classify(complete_graph(4)))
    del payload[key]
    with pytest.raises(KeyError, match=key):
        report_from_dict(payload)


@pytest.mark.parametrize("change", [
    pytest.param({"r1_violations": [{"kind": "fundamental_set", "set": 5}]}, id="set-number"),
    pytest.param({"r1_violations": [{"kind": "fundamental_set", "set": "12"}]}, id="set-string"),
    pytest.param({"occ_violation": 5}, id="occ-number"),
    pytest.param({"occ_violation": [[1, 2, 3], 5]}, id="occ-cycle-number"),
    pytest.param({"occ_violation": {"1": [1, 2, 3], "2": [4, 5, 6]}}, id="occ-object"),
    pytest.param({"r1_violations": 3}, id="violations-number"),
    pytest.param({"r1_violations": [5]}, id="violation-number"),
    pytest.param({"r1_violations": None}, id="violations-null"),
    pytest.param(None, id="top-level-array"),
])
def test_report_from_dict_refuses_json_of_the_wrong_type(change):
    # the schema's arrays are JSON arrays and the report and each violation JSON
    # objects; any other value is a ValueError, never a TypeError of the decoder
    payload = report_to_dict("x", complete_graph(6), classify(complete_graph(6)))
    payload = [payload] if change is None else {**payload, **change}
    with pytest.raises(ValueError, match="not a JSON (array|object)"):
        report_from_dict(payload)


@pytest.mark.parametrize("label", [True, 2.0, "2", 0, 65, 10**8])
@pytest.mark.parametrize("field", ["regular_vertex", "occ_violation"])
def test_report_from_dict_refuses_a_label_in_the_words_of_vset(field, label):
    # vset is the one vertex-label rule, so the decoder refuses a label that is
    # no label at all with vset's own message, wherever the label stands
    payload = report_to_dict("x", complete_graph(6), classify(complete_graph(6)))
    if field == "regular_vertex":
        payload["r1_violations"] = [{"kind": "regular_vertex", "vertex": label}]
    else:
        payload["occ_violation"] = [[label, 2, 3], [4, 5, 6]]
    with pytest.raises(ValueError) as expected:
        vset([label])
    with pytest.raises(ValueError) as raised:
        report_from_dict(payload)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("label", [True, 2.0, "2", 0, 65, 10**8])
@pytest.mark.parametrize("kind, key", [("regular_vertex", "vertex"), ("fundamental_set", "set")])
def test_violation_from_dict_refuses_a_label_in_the_words_of_vset(kind, key, label):
    # a regular vertex's label meets the same rule as a fundamental set's, in
    # the violation decoder itself and not only in the report around it
    with pytest.raises(ValueError) as expected:
        vset([label])
    with pytest.raises(ValueError) as raised:
        violation_from_dict({"kind": kind, key: label if kind == "regular_vertex" else [label]})
    assert str(raised.value) == str(expected.value)


BOOL = "is not a JSON bool"
READ_OFF = "contradicts witnesses"
NO_WITNESS = "a bipartite graph's report has no violation and no odd cycle witness"
NORMAL_R1 = "a normal graph's report satisfies (R1)"


@pytest.mark.parametrize("g, change, pattern", [
    pytest.param(complete_graph(4), {"r1": "yes"}, BOOL, id="r1-string"),
    pytest.param(complete_graph(4), {"r1": "yes", "normal": 0}, BOOL, id="r1-string-normal-0"),
    pytest.param(complete_graph(4), {"bipartite": 1}, BOOL, id="bipartite-1"),
    pytest.param(complete_graph(4), {"normal": 0}, READ_OFF, id="normal-0"),
    pytest.param(bridge_graph(2), {"normal": 0}, READ_OFF, id="normal-0-where-false"),
    pytest.param(complete_graph(4), {"notes": 5}, READ_OFF, id="notes-5"),
    pytest.param(bridge_graph(2), {"normal": True}, READ_OFF, id="normal-beside-occ-pair"),
    pytest.param(bridge_graph(2), {"notes": "normal hence Cohen-Macaulay"}, READ_OFF, id="notes-of-normal"),
    pytest.param(bridge_graph(1), {"notes": "satisfies (R1); normal iff Cohen-Macaulay"}, READ_OFF,
                 id="notes-of-r1-where-r1-false"),
    pytest.param(complete_bipartite_graph(2, 3),
                 {"r1_violations": [{"kind": "regular_vertex", "vertex": 1}]}, NO_WITNESS,
                 id="bipartite-violation"),
    pytest.param(cycle_graph(6),
                 {"occ_violation": [[1, 2, 3], [4, 5, 6]], "normal": False,
                  "notes": "satisfies (R1); normal iff Cohen-Macaulay"}, NO_WITNESS,
                 id="bipartite-occ-pair"),
    pytest.param(complete_graph(6), {"r1": False}, NORMAL_R1, id="normal-without-r1"),
    pytest.param(complete_bipartite_graph(2, 3), {"r1": False}, NORMAL_R1, id="bipartite-without-r1"),
])
def test_report_from_dict_refuses_flags_the_witnesses_contradict(g, change, pattern):
    # normal and notes are read off the witnesses, so JSON that states others
    # is refused ("normal": 0 too, though 0 == False); bipartite and r1 are
    # JSON bools, a bipartite graph's report holds no witness, and a normal
    # graph's report satisfies (R1), as classify guarantees.  Each base
    # report decodes as it is, and each change alone is well-formed
    payload = report_to_dict("x", g, classify(g))
    assert report_from_dict(payload) == classify(g)
    payload.update(change)
    with pytest.raises(ValueError, match=re.escape(pattern)):
        report_from_dict(payload)
