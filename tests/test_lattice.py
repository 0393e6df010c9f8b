import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgering import IntegerLattice, even_sum_lattice, xgcd
from helpers import EagerLattice


# ---------------------------------------------------------------------------
# xgcd

@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def test_xgcd_zero():
    assert xgcd(0, 0) == (0, 1, 0)


# ---------------------------------------------------------------------------
# Hermite form goldens

def test_hnf_golden_even_pair_lattice():
    lat = IntegerLattice(2, [(2, 0), (0, 2), (1, 1)])
    assert lat.basis == ((1, 1), (0, 2))
    assert lat.pivots == (0, 1)
    assert lat.determinant() == 2


def test_hnf_identity():
    lat = IntegerLattice(2, [(1, 0), (0, 1)])
    assert lat.basis == ((1, 0), (0, 1))
    assert lat.determinant() == 1


def test_hnf_empty_and_zero():
    lat = IntegerLattice(3, [])
    assert lat.basis == ()
    assert lat.rank == 0
    assert IntegerLattice(3, [(0, 0, 0)]).rank == 0
    with pytest.raises(ValueError, match="full rank"):
        lat.determinant()


def test_hnf_negative_pivot_normalized():
    lat = IntegerLattice(2, [(-1, 3)])
    assert lat.basis == ((1, -3),)


def test_hnf_reduces_above_pivot():
    lat = IntegerLattice(2, [(1, 5), (0, 2)])
    assert lat.basis == ((1, 1), (0, 2))


def test_vector_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        IntegerLattice(2, [(1, 2, 3)])
    with pytest.raises(ValueError, match="length"):
        (1, 2, 3) in IntegerLattice(2, [(1, 0)])


# ---------------------------------------------------------------------------
# membership

def test_membership_even_sum():
    lat = even_sum_lattice(3)
    assert (1, 1, 0) in lat
    assert (0, 0, 2) in lat
    assert (1, -1, 0) in lat
    assert (1, 0, 0) not in lat
    assert (1, 1, 1) not in lat
    assert (0, 0, 0) in lat


def test_membership_skips_nonpivot_columns():
    lat = IntegerLattice(3, [(0, 1, 0)])
    assert (1, 0, 0) not in lat
    assert (0, 5, 0) in lat
    assert (0, 0, 1) not in lat


vectors = st.lists(
    st.lists(st.integers(-30, 30), min_size=4, max_size=4),
    min_size=0,
    max_size=7,
)


@given(vectors)
def test_generators_and_combinations_are_members(vecs):
    lat = IntegerLattice(4, vecs)
    rng = random.Random(42)
    for v in vecs:
        assert v in lat
    for _ in range(5):
        combo = [0, 0, 0, 0]
        for v in vecs:
            c = rng.randint(-3, 3)
            for k in range(4):
                combo[k] += c * v[k]
        assert combo in lat


@given(vectors, st.randoms(use_true_random=False))
def test_hnf_invariant_under_generator_shuffle(vecs, rng):
    lat = IntegerLattice(4, vecs)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    assert IntegerLattice(4, shuffled).basis == lat.basis
    # adding combinations of existing generators changes nothing
    if vecs:
        extra = [sum(v[k] for v in vecs) for k in range(4)]
        assert IntegerLattice(4, shuffled + [extra]).basis == lat.basis


@given(vectors)
def test_canonical_form_is_idempotent(vecs):
    lat = IntegerLattice(4, vecs)
    again = IntegerLattice(4, lat.basis)
    assert again == lat
    assert again.basis == lat.basis
    for row, j in zip(lat.basis, lat.pivots):
        assert row[j] > 0
        assert all(row[k] == 0 for k in range(j))
    for idx, j in enumerate(lat.pivots):
        pivot = lat.basis[idx][j]
        for above in range(idx):
            assert 0 <= lat.basis[above][j] < pivot


def _fraction_rank_and_det(vecs, dim):
    rows = [[Fraction(x) for x in v] for v in vecs]
    rank = 0
    det = Fraction(1)
    for col in range(dim):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                for k in range(col, dim):
                    rows[r][k] -= f * rows[rank][k]
        det *= rows[rank][col]
        rank += 1
    return rank, det


@given(vectors)
def test_rank_matches_fraction_elimination(vecs):
    lat = IntegerLattice(4, vecs)
    rank, _ = _fraction_rank_and_det(vecs, 4)
    assert lat.rank == rank


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4))
def test_determinant_matches_fraction_elimination(vecs):
    rank, det = _fraction_rank_and_det(vecs, 4)
    lat = IntegerLattice(4, vecs)
    if rank < 4:
        assert lat.rank < 4
    else:
        assert lat.determinant() == abs(det)


# ---------------------------------------------------------------------------
# kernels

def test_kernel_of_coordinate_form():
    lat = even_sum_lattice(3)
    ker = lat.kernel_of_form((1, 0, 0))
    assert ker.basis == ((0, 1, 1), (0, 0, 2))


def test_kernel_of_zero_form():
    lat = even_sum_lattice(3)
    assert lat.kernel_of_form((0, 0, 0)) == lat


def test_kernel_form_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        even_sum_lattice(3).kernel_of_form((1, 0))


@given(vectors, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
@settings(max_examples=60)
def test_kernel_properties(vecs, coeffs):
    lat = IntegerLattice(4, vecs)
    ker = lat.kernel_of_form(coeffs)
    for row in ker.basis:
        assert sum(c * x for c, x in zip(coeffs, row)) == 0
        assert row in lat
    # cross-differences of basis rows kill the form and must land in the kernel
    vals = [sum(c * x for c, x in zip(coeffs, row)) for row in lat.basis]
    for a in range(len(lat.basis)):
        for b in range(len(lat.basis)):
            if a == b:
                continue
            mixed = [
                vals[b] * lat.basis[a][k] - vals[a] * lat.basis[b][k] for k in range(4)
            ]
            assert mixed in ker


# ---------------------------------------------------------------------------
# the lattice against the eager reference

forms = st.lists(st.integers(-5, 5), min_size=4, max_size=4)
probes = st.lists(st.lists(st.integers(-30, 30), min_size=4, max_size=4), max_size=4)


@given(vectors, forms, probes)
@settings(max_examples=150)
def test_lazy_lattice_agrees_with_eager_reference(vecs, coeffs, extra):
    lat = IntegerLattice(4, vecs)
    ref = EagerLattice(4, vecs)
    # generators, their sums and arbitrary vectors
    sums = [[a + b for a, b in zip(u, w)] for u, w in zip(vecs, vecs[1:])]
    for v in vecs + sums + extra:
        assert (v in lat) == (v in ref)
    assert lat.pivots == ref.pivots
    assert lat.rank == ref.rank
    if ref.rank == 4:
        assert lat.determinant() == ref.determinant()
    else:
        with pytest.raises(ValueError, match="full rank"):
            lat.determinant()
    ker, ker_ref = lat.kernel_of_form(coeffs), ref.kernel_of_form(coeffs)
    assert ker.pivots == ker_ref.pivots
    for v in vecs + extra:
        assert (v in ker) == (v in ker_ref)
    assert ker.basis == ker_ref.basis
    assert lat.basis == ref.basis
    assert ker == IntegerLattice(4, ker_ref.basis)


combinations = st.lists(st.lists(st.integers(-2, 2), min_size=7, max_size=7), max_size=6)


@given(vectors, combinations)
@settings(max_examples=200)
def test_sublattice_equality_by_pivots_and_pivot_product(vecs, coefficient_rows):
    # small is generated inside big; fills decides small == big from the
    # echelon pivot columns and |product of pivots| alone
    big = IntegerLattice(4, vecs)
    gens = [
        [sum(c * v[k] for c, v in zip(cs, vecs)) for k in range(4)] for cs in coefficient_rows
    ]
    small = IntegerLattice(4, gens)
    shortcut = small.pivots == big.pivots and small.pivot_product() == big.pivot_product()
    assert shortcut == small.fills(big) == (small.basis == big.basis)


small_vectors = st.lists(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    min_size=0,
    max_size=6,
)


@given(small_vectors, small_vectors, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=200)
def test_comparisons_agree_with_canonical_basis(a, b, v):
    # ==, hash and in go through fills; the canonical basis decides them
    # independently.  Small entries make equal pairs and members common.
    lat_a, lat_b = IntegerLattice(4, a), IntegerLattice(4, b)
    assert (lat_a == lat_b) == (lat_a.basis == lat_b.basis)
    if lat_a == lat_b:
        assert hash(lat_a) == hash(lat_b)
    assert hash(lat_a) == hash(IntegerLattice(4, lat_a.basis))
    assert (v in lat_a) == (IntegerLattice(4, a + [v]).basis == lat_a.basis)


def test_lattice_is_unchanged_by_reading_it():
    lat = IntegerLattice(2, [(-1, 3), (0, 2)])
    snapshot = [list(r) for r in lat._rows]
    assert lat.basis == ((1, 1), (0, 2))
    assert (1, 1) in lat and lat == IntegerLattice(2, lat.basis)
    assert lat._rows == snapshot


def test_pivot_product_reads_echelon_pivots():
    assert IntegerLattice(3, [(-2, 1, 0), (0, 0, 3)]).pivot_product() == 6
    assert IntegerLattice(3, []).pivot_product() == 1
    assert even_sum_lattice(5).pivot_product() == even_sum_lattice(5).determinant() == 2
    # same rank and pivot product, different lattices: the shortcut needs inclusion
    a, b = IntegerLattice(2, [(1, 0)]), IntegerLattice(2, [(1, 1)])
    assert (a.pivots, a.pivot_product()) == (b.pivots, b.pivot_product()) and a != b


# ---------------------------------------------------------------------------
# the even-sum lattice

@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_even_sum_lattice_shape(d):
    lat = even_sum_lattice(d)
    assert lat.rank == d
    assert lat.determinant() == 2
    expected = tuple(
        tuple(
            (1 if k in (i, d - 1) else 0) if i < d - 1 else (2 if k == d - 1 else 0)
            for k in range(d)
        )
        for i in range(d)
    )
    assert lat.basis == expected


@given(st.lists(st.integers(-20, 20), min_size=4, max_size=4))
def test_even_sum_membership_is_parity(vec):
    lat = even_sum_lattice(4)
    assert (vec in lat) == (sum(vec) % 2 == 0)


def test_even_sum_rejects_nonpositive_dim():
    with pytest.raises(ValueError):
        even_sum_lattice(0)
