"""Command-line front end.

Exit codes: 0 success, 2 malformed input, bad parameters or a file that cannot
be read or written, 3 well-formed but unsupported input (disconnected graph,
too many vertices, bipartite graph where facet data is required), 4 the two
(R1) routes disagree, 141 (128 + SIGPIPE) stdout was closed by its reader.
Any other exception is a bug and surfaces with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from .facets import FacetDescriptor, Fundamental, RegularVertex, SupportForm, facet_forms
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
from .serre import ClassificationReport, classify, facet_connectivity_holds
from .sweep import run_sweep

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


def violation_from_dict(dct: dict) -> FacetDescriptor:
    if dct["kind"] == "regular_vertex":
        return RegularVertex(dct["vertex"])
    if dct["kind"] == "fundamental_set":
        return Fundamental(vset(dct["set"]))
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
    occ = dct["occ_violation"]
    violations = tuple(violation_from_dict(v) for v in dct["r1_violations"])
    labels = [v for c in occ or () for v in c]
    for f in violations:
        labels += f.vertices if isinstance(f, Fundamental) else [f.vertex]
    for v in labels:
        if not 1 <= v <= dct["d"]:
            raise ValueError(f"vertex {v} out of range 1..{dct['d']}")
    return ClassificationReport(
        bipartite=dct["bipartite"],
        normal=dct["normal"],
        r1=dct["r1"],
        r1_violations=violations,
        occ_violation=tuple(tuple(c) for c in occ) if occ is not None else None,
        notes=dct["notes"],
    )


# ---------------------------------------------------------------------------
# text rendering

def _bool(b: bool) -> str:
    return "true" if b else "false"


def _cycle_str(c: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in c) + ")"


def _facet_label(f: FacetDescriptor) -> str:
    if isinstance(f, RegularVertex):
        return f"regular vertex {f.vertex}"
    return "fundamental set {%s}" % ",".join(str(v) for v in f.vertices)


def _form_str(form: SupportForm) -> str:
    body = "".join(f"{'+' if c > 0 else '-'}x{i}" for i, c in enumerate(form.coeffs, start=1) if c)
    if form.denom == 2:
        return f"({body})/2"
    return body


def _render_classification(input_id: str, g: Graph, report: ClassificationReport) -> str:
    lines = [
        f"input: {input_id}",
        f"vertices: {g.d}",
        f"edges: {g.n}",
        f"bipartite: {_bool(report.bipartite)}",
        f"normal: {_bool(report.normal)}",
    ]
    if report.occ_violation is not None:
        a, b = report.occ_violation
        lines.append(f"odd cycle condition: fails at {_cycle_str(a)} x {_cycle_str(b)}")
    else:
        lines.append("odd cycle condition: holds")
    lines.append(f"R1: {_bool(report.r1)}")
    if report.r1_violations:
        lines.append("R1 violations:")
        lines += [f"  {_facet_label(f)}" for f in report.r1_violations]
    else:
        lines.append("R1 violations: none")
    if report.notes:
        lines.append(f"notes: {report.notes}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args: argparse.Namespace) -> int:
    first = True
    for input_id, g in _load_graphs(args.input, args.format):
        report = classify(g, early_exit=args.early_exit)
        if args.json:
            print(json.dumps(report_to_dict(input_id, g, report), sort_keys=True))
        else:
            if not first:
                print()
            print(_render_classification(input_id, g, report))
        first = False
    return EXIT_OK


def cmd_facets(args: argparse.Namespace) -> int:
    for input_id, g in _load_graphs(args.input, args.format):
        forms = facet_forms(g)
        if args.json:
            entries = [
                dict(violation_to_dict(f), form={"coeffs": list(form.coeffs), "denom": form.denom})
                for f, form in forms
            ]
            print(json.dumps(
                {"input": input_id, "d": g.d, "n": g.n, "facets": entries},
                sort_keys=True,
            ))
        else:
            print(f"input: {input_id}")
            print(f"facets: {len(forms)}")
            for f, form in forms:
                print(f"  {_facet_label(f)}: {_form_str(form)} >= 0")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    status = EXIT_OK
    for input_id, g in _load_graphs(args.input, args.format):
        checks = facet_conditions(g)
        monoid_group(g)  # certifies the group that condition 2 reads in closed form
        oracle_violations = failing_facets(checks)
        violations = [c.facet for c in checks if not facet_connectivity_holds(g, c.facet)]
        agree = violations == oracle_violations
        if args.json:
            print(json.dumps({
                "input": input_id,
                "d": g.d,
                "n": g.n,
                "facets": [
                    dict(violation_to_dict(c.facet), unit_value=c.unit, lattice_match=c.match)
                    for c in checks
                ],
                "r1_lattice": not oracle_violations,
                "r1_connectivity": not violations,
                "agreement": agree,
            }, sort_keys=True))
        else:
            print(f"input: {input_id}")
            for c in checks:
                print(
                    f"  {_facet_label(c.facet)}: unit-value "
                    f"{'pass' if c.unit else 'FAIL'}, lattice-match "
                    f"{'pass' if c.match else 'FAIL'}"
                )
            print(f"R1 (lattice): {_bool(not oracle_violations)}")
            print(f"R1 (connectivity): {_bool(not violations)}")
            print(f"agreement: {'ok' if agree else 'MISMATCH'}")
        if not agree:
            print(f"error: criteria disagree on {input_id}", file=sys.stderr)
            status = EXIT_DISAGREEMENT
    return status


def cmd_sweep(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    disagreements = []
    if args.source:
        summary = run_sweep(g for _, g in _load_graphs(args.source, "graph6"))
        print(
            f"source {args.source}: checked={summary.checked} "
            f"normal={summary.normal} r1={summary.r1}"
        )
        if summary.skipped:
            print(f"skipped: {summary.skipped} (disconnected or bipartite)")
        disagreements = summary.disagreements
    elif not 1 <= args.max_vertices <= 7:  # 2^(N choose 2) labelled graphs at N
        print("error: --max-vertices must be 1..7; sweep larger graphs with --source",
              file=sys.stderr)
        return EXIT_INPUT
    else:
        checked = normal = r1 = 0
        for d in range(1, args.max_vertices + 1):
            summary = run_sweep(labelled_graphs(d))
            print(f"d={d}: checked={summary.checked} normal={summary.normal} r1={summary.r1}")
            checked += summary.checked
            normal += summary.normal
            r1 += summary.r1
            disagreements += summary.disagreements
        print(f"total: checked={checked} normal={normal} r1={r1}")
    print(f"disagreements: {len(disagreements)}")
    for cc in disagreements:
        print(f"  {cc.graph6}  {','.join(cc.failures)}")
    print(f"elapsed: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
