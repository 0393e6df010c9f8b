from pathlib import Path

import pytest

import edgering.oracle
from edgering import Graph, bridge_graph

DATA_DIR = Path(__file__).parent / "data"

BRIDGE2_EDGES = (
    (1, 2), (1, 3), (2, 3), (3, 7), (3, 8),
    (4, 5), (4, 6), (4, 7), (4, 8), (5, 6),
)


@pytest.fixture
def bridge2() -> Graph:
    """Two triangles joined by two disjoint paths through 7 and 8."""
    return Graph(8, BRIDGE2_EDGES)


@pytest.fixture
def bridge1() -> Graph:
    return bridge_graph(1)


@pytest.fixture
def corpus7_path() -> Path:
    return DATA_DIR / "conn7.g6"


@pytest.fixture
def even_sum_identity_fails(monkeypatch) -> None:
    """The oracle's closed-form rule fails for an empty P alone: the group
    identity fails, while K and D keep theirs."""
    original = edgering.oracle._has_closed_form

    def failed(lat, part, product):
        return bool(part) and original(lat, part, product)

    monkeypatch.setattr(edgering.oracle, "_has_closed_form", failed)
