"""Command-line front end.

Exit codes: 0 success, 2 malformed input, bad parameters or a file that cannot
be read or written, 3 well-formed but unsupported input (disconnected graph,
too many vertices, bipartite graph where facet data is required), 4 the two
(R1) routes disagree, 141 (128 + SIGPIPE) stdout was closed by its reader.
Any other exception is a bug and surfaces with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from .facets import FacetDescriptor, Fundamental, RegularVertex
from .facets import facet_forms, facet_walk
from .graph import (
    DisagreementError,
    FAMILIES,
    Graph,
    ParseError,
    UnsupportedError,
    generate_family,
    labelled_graphs,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    vset,
)
from .oracle import facet_conditions, failing_facets, monoid_group
from .serre import ClassificationReport, classify, r1_violations
from .sweep import SweepSummary, run_sweep

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_DISAGREEMENT = 4


# ---------------------------------------------------------------------------
# input loading

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graphs(path: str, fmt: str | None) -> list[tuple[str, Graph]]:
    """Load (input identifier, graph) pairs from a file or stdin."""
    if fmt is None:
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edge-list"
    text = _read_text(path)
    if fmt == "graph6":
        graphs = parse_graph6(text)
        if not graphs:
            raise ParseError("no graphs in input")
        if len(graphs) == 1:
            return [(path, graphs[0])]
        return [(f"{path}#{k}", g) for k, g in enumerate(graphs, start=1)]
    return [(path, parse_edge_list(text))]


# ---------------------------------------------------------------------------
# report serialization

def violation_to_dict(f: FacetDescriptor) -> dict:
    if isinstance(f, RegularVertex):
        return {"kind": "regular_vertex", "vertex": f.vertex}
    return {"kind": "fundamental_set", "set": list(f.vertices)}


def _json(value, kind: type, what: str):
    """value, once it is a JSON array (kind list) or a JSON object (kind dict)."""
    if type(value) is not kind:
        raise ValueError(f"{what} {value!r} is not a JSON {'array' if kind is list else 'object'}")
    return value


def violation_from_dict(dct: dict) -> FacetDescriptor:
    if _json(dct, dict, "violation")["kind"] == "regular_vertex":
        vset([dct["vertex"]])  # the one label rule, as for a fundamental set
        return RegularVertex(dct["vertex"])
    if dct["kind"] == "fundamental_set":
        mask = vset(_json(dct["set"], list, "fundamental set"))  # 0 exactly for an empty set
        if not mask or mask.bit_count() != len(dct["set"]):
            raise ValueError(f"fundamental set {dct['set']!r} is empty or repeats a vertex")
        return Fundamental(mask)
    raise ValueError(f"unknown violation kind {dct.get('kind')!r}")


def report_to_dict(input_id: str, g: Graph, report: ClassificationReport) -> dict:
    occ = report.occ_violation
    return {
        "input": input_id,
        "d": g.d,
        "n": g.n,
        "bipartite": report.bipartite,
        "normal": report.normal,
        "r1": report.r1,
        "r1_violations": [violation_to_dict(f) for f in report.r1_violations],
        "occ_violation": [list(c) for c in occ] if occ is not None else None,
        "notes": report.notes,
    }


def report_from_dict(dct: dict) -> ClassificationReport:
    occ = _json(dct, dict, "report")["occ_violation"]
    listed = _json(dct["r1_violations"], list, "r1_violations")
    violations = tuple(violation_from_dict(v) for v in listed)
    Graph(dct["d"], ())  # refuses a d that is no vertex count, in Graph's words
    pairs = dct["d"] * (dct["d"] - 1) // 2
    if type(dct["n"]) is not int or not 0 <= dct["n"] <= pairs:
        raise ValueError(f"edge count {dct['n']!r} is not an integer in 0..{pairs}")
    if type(dct["input"]) is not str:
        raise ValueError(f"input {dct['input']!r} is not a JSON string")
    if occ is not None:
        occ = [_json(c, list, "odd cycle") for c in _json(occ, list, "occ_violation")]
    labels = [v for c in occ or () for v in c]
    for v in listed:  # each kind is known; a regular vertex or a cycle member may be any JSON value
        labels += v["set"] if v["kind"] == "fundamental_set" else [v["vertex"]]
    mask = vset(labels)
    if mask >> dct["d"]:
        raise ValueError(f"vertex {mask.bit_length()} out of range 1..{dct['d']}")
    if occ is not None and (len(occ) != 2 or len({*occ[0], *occ[1]}) != len(occ[0]) + len(occ[1])
                            or any(len(c) < 3 or len(c) % 2 == 0 for c in occ)):
        raise ValueError(f"occ_violation {occ!r} is not two vertex-disjoint odd cycles")
    occ = tuple(map(tuple, occ)) if occ is not None else None
    report = ClassificationReport(dct["bipartite"], dct["r1"], violations, occ)
    if type(report.bipartite) is not bool or type(report.r1) is not bool:
        raise ValueError(f"bipartite {report.bipartite!r} or r1 {report.r1!r} is not a JSON bool")
    if report.normal and not report.r1:  # classify never builds this state
        raise ValueError("a normal graph's report satisfies (R1)")
    if report.bipartite and (violations or occ is not None):
        raise ValueError("a bipartite graph's report has no violation and no odd cycle witness")
    if dct["normal"] is not report.normal or dct["notes"] != report.notes:  # 0 == False
        raise ValueError(f"normal {dct['normal']} or notes {dct['notes']!r} contradicts witnesses")
    return report


# ---------------------------------------------------------------------------
# text rendering: each report is read off its JSON record

def _bool(b: bool) -> str:
    return "true" if b else "false"


def _cycle_str(c: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in c) + ")"


def _facet_label(v: dict) -> str:
    if v["kind"] == "regular_vertex":
        return f"regular vertex {v['vertex']}"
    return "fundamental set {%s}" % ",".join(str(x) for x in v["set"])


def _form_str(form: dict) -> str:
    body = "".join(f"{'+' if c > 0 else '-'}x{i}" for i, c in enumerate(form["coeffs"], start=1) if c)
    return f"({body})/2" if form["denom"] == 2 else body


def _render_classification(rec: dict) -> str:
    lines = [
        f"input: {rec['input']}",
        f"vertices: {rec['d']}",
        f"edges: {rec['n']}",
        f"bipartite: {_bool(rec['bipartite'])}",
        f"normal: {_bool(rec['normal'])}",
    ]
    if rec["occ_violation"] is not None:
        a, b = rec["occ_violation"]
        lines.append(f"odd cycle condition: fails at {_cycle_str(a)} x {_cycle_str(b)}")
    else:
        lines.append("odd cycle condition: holds")
    lines.append(f"R1: {_bool(rec['r1'])}")
    if rec["r1_violations"]:
        lines.append("R1 violations:")
        lines += [f"  {_facet_label(v)}" for v in rec["r1_violations"]]
    else:
        lines.append("R1 violations: none")
    if rec["notes"]:
        lines.append(f"notes: {rec['notes']}")
    return "\n".join(lines)


def _render_facets(rec: dict) -> str:
    lines = [f"input: {rec['input']}", f"facets: {len(rec['facets'])}"]
    lines += [f"  {_facet_label(f)}: {_form_str(f['form'])} >= 0" for f in rec["facets"]]
    return "\n".join(lines)


def _render_oracle(rec: dict) -> str:
    lines = [f"input: {rec['input']}"]
    lines += [
        f"  {_facet_label(f)}: unit-value {'pass' if f['unit_value'] else 'FAIL'}, "
        f"lattice-match {'pass' if f['lattice_match'] else 'FAIL'}"
        for f in rec["facets"]
    ]
    lines += [
        f"R1 (lattice): {_bool(rec['r1_lattice'])}",
        f"R1 (connectivity): {_bool(rec['r1_connectivity'])}",
        f"agreement: {'ok' if rec['agreement'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args: argparse.Namespace) -> int:
    for k, (input_id, g) in enumerate(_load_graphs(args.input, args.format)):
        rec = report_to_dict(input_id, g, classify(g, early_exit=args.early_exit))
        if k and not args.json:
            print()  # a blank line between text reports
        print(json.dumps(rec, sort_keys=True) if args.json else _render_classification(rec))
    return EXIT_OK


def cmd_facets(args: argparse.Namespace) -> int:
    for input_id, g in _load_graphs(args.input, args.format):
        entries = [
            dict(violation_to_dict(f), form={"coeffs": list(form.coeffs), "denom": form.denom})
            for f, form in facet_forms(g, facet_walk(g))
        ]
        rec = {"input": input_id, "d": g.d, "n": g.n, "facets": entries}
        print(json.dumps(rec, sort_keys=True) if args.json else _render_facets(rec))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    status = EXIT_OK
    for input_id, g in _load_graphs(args.input, args.format):
        walk = facet_walk(g)
        checks = facet_conditions(g, walk)
        monoid_group(g)  # certifies the group that condition 2 reads in closed form
        oracle_violations = failing_facets(checks)
        violations = list(r1_violations(walk))  # the walk's own flags
        rec = {
            "input": input_id,
            "d": g.d,
            "n": g.n,
            "facets": [
                dict(violation_to_dict(c.facet), unit_value=c.unit, lattice_match=c.match)
                for c in checks
            ],
            "r1_lattice": not oracle_violations,
            "r1_connectivity": not violations,
            "agreement": violations == oracle_violations,
        }
        print(json.dumps(rec, sort_keys=True) if args.json else _render_oracle(rec))
        if not rec["agreement"]:
            print(f"error: criteria disagree on {input_id}", file=sys.stderr)
            status = EXIT_DISAGREEMENT
    return status


def cmd_sweep(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.source:
        sources = {f"source {args.source}": (g for _, g in _load_graphs(args.source, "graph6"))}
    elif not 1 <= args.max_vertices <= 7:  # 2^(N choose 2) labelled graphs at N
        raise ParseError("--max-vertices must be 1..7; sweep larger graphs with --source")
    else:
        sources = {f"d={d}": labelled_graphs(d) for d in range(1, args.max_vertices + 1)}
    total = SweepSummary()
    for name, graphs in sources.items():
        summary = run_sweep(graphs)
        print(f"{name}: checked={summary.checked} normal={summary.normal} r1={summary.r1}")
        for f in dataclasses.fields(total):  # every tally adds: counts and the disagreement list
            setattr(total, f.name, getattr(total, f.name) + getattr(summary, f.name))
    if not args.source:
        print(f"total: checked={total.checked} normal={total.normal} r1={total.r1}")
    elif total.skipped:
        print(f"skipped: {total.skipped} (disconnected or bipartite)")
    print(f"disagreements: {len(total.disagreements)}")
    for cc in total.disagreements:
        print(f"  {cc.graph6}  {','.join(cc.failures)}")
    print(f"elapsed: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_DISAGREEMENT if total.disagreements else EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    bridge = args.family == "bridge"
    flag, params, other = ("k", args.k, args.n) if bridge else ("n", args.n, args.k)
    try:
        if params is None or other is not None:
            raise ValueError(f"family {args.family!r} takes --{flag}")
        g = generate_family(args.family, (params,) if bridge else tuple(params))
    except UnsupportedError:
        raise  # above the vertex bound: exit 3 from main
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    text = serialize_edge_list(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgering",
        description="Normality and Serre's (R1) for edge rings of finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument(
            "--format",
            choices=("edge-list", "graph6"),
            help="input format (default: by file suffix, edge-list otherwise)",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("classify", help="normality and (R1) report")
    add_input(p)
    p.add_argument(
        "--early-exit",
        action="store_true",
        help="stop at the first (R1) violation",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("facets", help="facet descriptors and supporting forms")
    add_input(p)
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("oracle", help="lattice-route facet conditions and agreement")
    add_input(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="exhaustive cross-check over small graphs")
    graphs = p.add_mutually_exclusive_group()  # a str default: an explicit 5 still conflicts
    graphs.add_argument("--max-vertices", type=int, default="5", help="1..7 (default 5)")
    graphs.add_argument("--source", help="graph6 file to sweep instead of all graphs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="write a named family member as an edge list")
    p.add_argument("family", choices=tuple(FAMILIES))
    p.add_argument("--k", type=int, help="parameter for the bridge family")
    p.add_argument(
        "--n",
        type=int,
        nargs="+",
        help="size parameter(s): one for cycle/complete, two for complete_bipartite",
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:  # stdout to devnull, so that the flush at exit writes nothing
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status a shell gives a writer the signal ended
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except DisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return status


if __name__ == "__main__":
    sys.exit(main())
