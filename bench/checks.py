"""Output checks of the benchmark, run outside the timed phase.

Each check returns the failure tags of one output; an empty list means the
output is correct.  A graph counts as failed on every attempt whose output
has a tag.
"""

from __future__ import annotations

import json

from edgering import cli, oracle


def is_occ_witness(g, pair) -> bool:
    """Two vertex-disjoint chordless odd cycles with no edge between them,
    checked from the adjacency alone."""
    if len(pair) != 2:
        return False
    sets = []
    for cyc in pair:
        k = len(cyc)
        if k < 3 or k % 2 == 0 or len(set(cyc)) != k or not all(1 <= v <= g.d for v in cyc):
            return False
        if not all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
            return False
        chords = sum(g.has_edge(a, b) for i, a in enumerate(cyc) for b in cyc[i + 1:])
        if chords != k:
            return False
        sets.append(set(cyc))
    a, b = sets
    return not a & b and not any(g.has_edge(u, w) for u in a for w in b)


def check_classify(g, text: str, triangles=None) -> list[str]:
    """Tags for one ``classify --json`` line of graph g.

    The line must decode and re-encode to itself; (R1) and its violations
    must equal the lattice oracle's; normal must imply (R1); an odd cycle
    witness must be genuine.  For a relabelled bridge graph, ``triangles``
    holds the images of its two triangles: the graph must satisfy (R1),
    fail normality, and name exactly those triangles as the witness.
    """
    try:
        dct = json.loads(text)
        report = cli.report_from_dict(dct)
    except (ValueError, KeyError, TypeError):
        return ["json-decode"]
    tags = []
    if json.dumps(cli.report_to_dict(dct["input"], g, report), sort_keys=True) != text:
        tags.append("json-roundtrip")
    ok, violations = oracle.oracle_r1(g)
    if report.r1 != ok:
        tags.append("r1-vs-oracle")
    if list(report.r1_violations) != violations:
        tags.append("violations-vs-oracle")
    if report.normal and not report.r1:
        tags.append("normal-without-r1")
    occ = report.occ_violation
    if report.normal != (occ is None) or (occ is not None and not is_occ_witness(g, occ)):
        tags.append("occ-witness")
    if triangles is not None:
        if not report.r1 or report.normal or report.r1_violations:
            tags.append("bridge-verdict")
        if occ is None or frozenset(frozenset(c) for c in occ) != triangles:
            tags.append("bridge-witness")
    return tags


def check_sweep(out: tuple) -> list[str]:
    """Tags for one graph through run_sweep: its cross_check failure tags."""
    checked, _, _, tags = out
    return list(tags) + ([] if checked == 1 else ["sweep-count"])
