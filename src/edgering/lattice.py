"""Exact integer row lattices in echelon form.

Everything here is pure-integer arithmetic on small dense vectors; Python
ints never overflow, so no pivoting strategy or bound tracking is needed.
"""

from __future__ import annotations

from bisect import bisect_left
from math import prod
from operator import getitem, mul
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _insert(rows: list[list[int]], pivots: list[int], vec: list[int], dim: int) -> None:
    # echelon insertion: rows are kept with strictly increasing pivot columns,
    # new vectors are folded in by unimodular column-preserving row moves
    j = 0
    while True:
        while j < dim and vec[j] == 0:
            j += 1
        if j == dim:
            return
        pos = bisect_left(pivots, j)
        if pos == len(pivots) or pivots[pos] != j:
            rows.insert(pos, vec)
            pivots.insert(pos, j)
            return
        row = rows[pos]
        a, b = row[j], vec[j]
        if b % a == 0:
            q = b // a
            for k in range(j, dim):
                vec[k] -= q * row[k]
        else:
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            for k in range(j, dim):
                rk, vk = row[k], vec[k]
                row[k] = x * rk + y * vk
                vec[k] = ag * vk - bg * rk


class IntegerLattice:
    """Sublattice of Z^dim, stored as echelon rows (strictly increasing pivot
    columns), fixed at construction with its pivot product.  It is read through
    rank, pivots and pivot_product; kernel_of_form stays as the tests' reference.
    """

    __slots__ = ("dim", "pivots", "_rows", "_product")

    def __init__(self, dim: int, vectors: Iterable[Sequence[int]] = ()):
        if dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {dim}")
        rows: list[list[int]] = []
        pivots: list[int] = []
        for v in vectors:
            vec = list(v)
            if len(vec) != dim:
                raise ValueError(f"vector length {len(vec)} does not match dimension {dim}")
            _insert(rows, pivots, vec, dim)
        self.dim, self.pivots, self._rows = dim, tuple(pivots), rows
        self._product = abs(prod(map(getitem, rows, pivots)))

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_product(self) -> int:
        """|product of the echelon pivots|: the index of the projection onto the pivot columns.

        A lattice inside another equals it exactly when both have the same pivots and pivot product.
        """
        return self._product

    def __repr__(self) -> str:
        return f"IntegerLattice(dim={self.dim}, rank={self.rank})"

    def kernel_of_form(self, coeffs: Sequence[int]) -> "IntegerLattice":
        """The sublattice of elements on which the linear form vanishes.

        Prepends each echelon row's form value as a coordinate and refolds the rows: only
        the first can then be nonzero there; the others, without it, are the kernel's rows.
        No program path calls it: it stays as the tests' reference and a bench tracer target.
        """
        if len(coeffs) != self.dim:
            raise ValueError(f"form length {len(coeffs)} does not match dimension {self.dim}")
        rows = [[sum(map(mul, coeffs, row)), *row] for row in self._rows]
        lifted = IntegerLattice(self.dim + 1, rows)
        # its rows are echelon, so refolding them without column 0 inserts each as is
        return IntegerLattice(self.dim, (r[1:] for r, j in zip(lifted._rows, lifted.pivots) if j))
