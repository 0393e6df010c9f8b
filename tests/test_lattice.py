import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgering import IntegerLattice, xgcd
from helpers import EagerLattice, all_columns_but, canonical_basis, even_sum_generators


def is_member(dim, gens, vec):
    # v lies in the lattice exactly when adding it as a generator changes nothing
    return canonical_basis(IntegerLattice(dim, [*gens, vec])) == canonical_basis(
        IntegerLattice(dim, gens)
    )


def assert_hermite(dim, gens, expected):
    # the reference reduces gens to the expected canonical basis, and
    # IntegerLattice builds the same lattice with the same pivot columns
    ref = EagerLattice(dim, gens)
    assert ref.basis == expected
    lat = IntegerLattice(dim, gens)
    assert canonical_basis(lat) == expected
    assert lat.pivots == ref.pivots


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
    gens = [(2, 0), (0, 2), (1, 1)]
    assert_hermite(2, gens, ((1, 1), (0, 2)))
    lat = IntegerLattice(2, gens)
    assert lat.pivots == (0, 1)
    assert lat.rank == 2 and lat.pivot_product() == 2


def test_hnf_identity():
    assert_hermite(2, [(1, 0), (0, 1)], ((1, 0), (0, 1)))
    lat = IntegerLattice(2, [(1, 0), (0, 1)])
    assert lat.rank == 2 and lat.pivot_product() == 1


def test_hnf_empty_and_zero():
    assert_hermite(3, [], ())
    assert IntegerLattice(3, []).rank == 0
    assert IntegerLattice(3, [(0, 0, 0)]).rank == 0
    assert canonical_basis(IntegerLattice(3, [(0, 0, 0)])) == ()


def test_hnf_negative_pivot_normalized():
    assert_hermite(2, [(-1, 3)], ((1, -3),))


def test_hnf_reduces_above_pivot():
    assert_hermite(2, [(1, 5), (0, 2)], ((1, 1), (0, 2)))


def test_vector_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        IntegerLattice(2, [(1, 2, 3)])
    with pytest.raises(ValueError, match="length"):
        IntegerLattice(2, [(1, 0), (1, 2, 3)])
    with pytest.raises(ValueError, match="dimension"):
        IntegerLattice(-1)


# ---------------------------------------------------------------------------
# membership

def test_membership_even_sum():
    gens = even_sum_generators(3)
    assert is_member(3, gens, (1, 1, 0))
    assert is_member(3, gens, (0, 0, 2))
    assert is_member(3, gens, (1, -1, 0))
    assert not is_member(3, gens, (1, 0, 0))
    assert not is_member(3, gens, (1, 1, 1))
    assert is_member(3, gens, (0, 0, 0))


def test_membership_skips_nonpivot_columns():
    gens = [(0, 1, 0)]
    assert not is_member(3, gens, (1, 0, 0))
    assert is_member(3, gens, (0, 5, 0))
    assert not is_member(3, gens, (0, 0, 1))


vectors = st.lists(
    st.lists(st.integers(-30, 30), min_size=4, max_size=4),
    min_size=0,
    max_size=7,
)


@given(vectors)
def test_generators_and_combinations_are_members(vecs):
    rng = random.Random(42)
    for v in vecs:
        assert is_member(4, vecs, v)
    for _ in range(5):
        combo = [0, 0, 0, 0]
        for v in vecs:
            c = rng.randint(-3, 3)
            for k in range(4):
                combo[k] += c * v[k]
        assert is_member(4, vecs, combo)


@given(vectors, st.randoms(use_true_random=False))
def test_hnf_invariant_under_generator_shuffle(vecs, rng):
    basis = EagerLattice(4, vecs).basis
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    assert_hermite(4, shuffled, basis)
    # adding combinations of existing generators changes nothing
    if vecs:
        extra = [sum(v[k] for v in vecs) for k in range(4)]
        assert_hermite(4, shuffled + [extra], basis)


@given(vectors)
def test_canonical_form_is_idempotent(vecs):
    # the reference's basis is in Hermite form, reduces to itself, and
    # generates the lattice IntegerLattice builds from the same vectors
    ref = EagerLattice(4, vecs)
    assert EagerLattice(4, ref.basis).basis == ref.basis
    assert_hermite(4, vecs, ref.basis)
    for row, j in zip(ref.basis, ref.pivots):
        assert row[j] > 0
        assert all(row[k] == 0 for k in range(j))
    for idx, j in enumerate(ref.pivots):
        pivot = ref.basis[idx][j]
        for above in range(idx):
            assert 0 <= ref.basis[above][j] < pivot


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
        assert lat.rank == 4 and lat.pivot_product() == abs(det)


# ---------------------------------------------------------------------------
# kernels

def test_kernel_of_coordinate_form():
    lat = IntegerLattice(3, even_sum_generators(3))
    ker = lat.kernel_of_form((1, 0, 0))
    assert canonical_basis(ker) == ((0, 1, 1), (0, 0, 2))
    assert ker.pivots == (1, 2)


def test_kernel_of_zero_form():
    lat = IntegerLattice(3, even_sum_generators(3))
    assert canonical_basis(lat.kernel_of_form((0, 0, 0))) == canonical_basis(lat)


def test_kernel_form_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        IntegerLattice(3, even_sum_generators(3)).kernel_of_form((1, 0))


@given(vectors, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
@settings(max_examples=60)
def test_kernel_properties(vecs, coeffs):
    # the kernel's rows are read through the reference's Hermite basis of it
    lat = IntegerLattice(4, vecs)
    ker = lat.kernel_of_form(coeffs)
    rows = EagerLattice(4, vecs).kernel_of_form(coeffs).basis
    assert canonical_basis(ker) == rows
    for row in rows:
        assert sum(c * x for c, x in zip(coeffs, row)) == 0
        assert is_member(4, vecs, row)
    # cross-differences of generators kill the form and must land in the kernel
    vals = [sum(c * x for c, x in zip(coeffs, v)) for v in vecs]
    for a in range(len(vecs)):
        for b in range(len(vecs)):
            if a == b:
                continue
            mixed = [vals[b] * vecs[a][k] - vals[a] * vecs[b][k] for k in range(4)]
            assert is_member(4, rows, mixed)


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
        assert is_member(4, vecs, v) == (v in ref)
    assert lat.pivots == ref.pivots
    assert lat.rank == ref.rank
    if ref.rank == 4:
        assert lat.pivot_product() == ref.determinant()
    ker, ker_ref = lat.kernel_of_form(coeffs), ref.kernel_of_form(coeffs)
    assert ker.pivots == ker_ref.pivots
    for v in vecs + extra:
        with_v = IntegerLattice(4, [*ker_ref.basis, v])
        assert (canonical_basis(with_v) == canonical_basis(ker)) == (v in ker_ref)
    assert canonical_basis(lat) == ref.basis
    assert canonical_basis(ker) == ker_ref.basis


combinations = st.lists(st.lists(st.integers(-2, 2), min_size=7, max_size=7), max_size=6)


@given(vectors, combinations)
@settings(max_examples=200)
def test_sublattice_equality_by_pivots_and_pivot_product(vecs, coefficient_rows):
    # small is generated inside big, so the sublattice rule decides whether they
    # are equal from the echelon pivot columns and |product of pivots| alone
    big = IntegerLattice(4, vecs)
    gens = [
        [sum(c * v[k] for c, v in zip(cs, vecs)) for k in range(4)] for cs in coefficient_rows
    ]
    small = IntegerLattice(4, gens)
    shortcut = small.pivots == big.pivots and small.pivot_product() == big.pivot_product()
    canonical = EagerLattice(4, gens).basis == EagerLattice(4, vecs).basis
    assert shortcut == canonical


small_vectors = st.lists(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    min_size=0,
    max_size=6,
)


@given(small_vectors, small_vectors, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=200)
def test_comparisons_agree_with_canonical_basis(a, b, v):
    # a and b generate the same lattice exactly when both fill the lattice of
    # a + b by the sublattice rule; the reference's canonical bases decide it
    # independently.  Small entries make equal pairs and members common.
    lats = IntegerLattice(4, a), IntegerLattice(4, b), IntegerLattice(4, a + b)
    data_a, data_b, data_joint = [(lat.pivots, lat.pivot_product()) for lat in lats]
    rule = data_a == data_joint and data_b == data_joint
    assert rule == (EagerLattice(4, a).basis == EagerLattice(4, b).basis)
    assert (v in EagerLattice(4, a)) == is_member(4, a, v)


def test_lattice_is_unchanged_by_reading_it():
    lat = IntegerLattice(2, [(-1, 3), (0, 2)])
    snapshot = [list(r) for r in lat._rows]
    assert canonical_basis(lat) == ((1, 1), (0, 2))
    assert lat.pivots == (0, 1) and lat.pivot_product() == 2
    assert canonical_basis(lat.kernel_of_form((1, 0))) == ((0, 2),)
    assert lat._rows == snapshot


def test_pivot_product_reads_echelon_pivots():
    assert IntegerLattice(3, [(-2, 1, 0), (0, 0, 3)]).pivot_product() == 6
    assert IntegerLattice(3, []).pivot_product() == 1
    assert IntegerLattice(5, even_sum_generators(5)).pivot_product() == 2
    # same rank and pivot product, different lattices: the shortcut needs inclusion
    a, b = IntegerLattice(2, [(1, 0)]), IntegerLattice(2, [(1, 1)])
    assert (a.pivots, a.pivot_product()) == (b.pivots, b.pivot_product())
    assert canonical_basis(a) != canonical_basis(b)


@st.composite
def lattices(draw, max_dim: int = 8) -> IntegerLattice:
    # entries in -1..2 and up to dim + 1 vectors, so that every rank from 0 to
    # dim, and a rank dim - 1 lattice missing any one pivot column, is common
    dim = draw(st.integers(0, max_dim))
    row = st.lists(st.integers(-1, 2), min_size=dim, max_size=dim)
    return IntegerLattice(dim, draw(st.lists(row, max_size=dim + 1)))


@given(lattices())
@settings(max_examples=300)
def test_rank_and_membership_read_every_column_but_one(lat):
    # "the pivots are every column but col" (all of them for col = -1, an empty
    # support) as the oracle reads it, against the tuple comparison it replaced
    for col in range(-1, lat.dim):
        by_rank = lat.rank == lat.dim - (col >= 0) and col not in lat.pivots
        assert by_rank == (lat.pivots == all_columns_but(lat.dim, col))


# ---------------------------------------------------------------------------
# the even-sum lattice

@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_even_sum_lattice_shape(d):
    lat = IntegerLattice(d, even_sum_generators(d))
    assert lat.rank == d
    assert lat.pivot_product() == 2
    expected = tuple(
        tuple(
            (1 if k in (i, d - 1) else 0) if i < d - 1 else (2 if k == d - 1 else 0)
            for k in range(d)
        )
        for i in range(d)
    )
    assert_hermite(d, even_sum_generators(d), expected)


@given(st.lists(st.integers(-20, 20), min_size=4, max_size=4))
def test_even_sum_membership_is_parity(vec):
    assert is_member(4, even_sum_generators(4), vec) == (sum(vec) % 2 == 0)
