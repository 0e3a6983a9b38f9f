"""Exact linear algebra, sparse tensors, subspaces, and permutations."""
from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import (
    dense_block_permutation,
    dense_contains,
    dense_map_subspace,
    dense_mat_vec,
    dense_nullspace,
    dense_rref,
    dense_span,
    rand_int_vector,
    rand_invertible,
    rand_subspace,
    rand_tensor,
    wedge3_basis,
    wedge_t2_v1_into,
)
from maninforge.core import (
    ONE,
    ZERO,
    Permutation,
    _annihilator_rows,
    _apply_columns,
    _dense_vector,
    _orthogonal_rows,
    _sparse,
    _span,
    SparseTensor,
    Subspace,
    determinant,
    identity_matrix,
    inverse,
    is_antisymmetric,
    is_symmetric,
    map_subspace,
    mat_mul,
    mat_vec,
    matrix,
    matrix_rank,
    nullspace,
    rational,
    rref,
    sparse_columns,
    subspace_equal,
    tensor_skew_sym_split,
    transpose,
    unit_vector,
    vector,
)
from maninforge.flagleaf import GroupElement
from maninforge.homlie import HomLieAlgebra
from maninforge.polyuble import snake_permutation


# ---------------------------------------------------------------------------
# Rationals and dense matrices


def test_rational_accepts_ints_strings_fractions():
    assert rational(3) == Fraction(3)
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-7") == Fraction(-7)
    assert rational(Fraction(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("text", ["1.5", "1_000", "1e3", "1e99999999", "nan", "inf", "\u0663", " 3", "3/", "/3", "1/-2", ""], ids=repr)
def test_rational_reads_only_p_and_p_over_q_from_a_string(text):
    """`Fraction` also reads decimals, underscores, exponents and non-ASCII
    digits; `Fraction("1e3000000")` alone takes a second.  A string that is
    not p or p/q in ASCII digits is refused before `Fraction` sees it."""
    with pytest.raises(ValueError, match="malformed rational"):
        rational(text)
    assert rational("+3") == 3 and rational("-0") == 0 and rational("007/014") == Fraction(1, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: rational(0.1),
        lambda: HomLieAlgebra.unchecked(2, {}, phi=[[1, 0], [0, 0.5]]),
        lambda: HomLieAlgebra.unchecked(2, {}, form=[[0, 1.0], [1, 0]]),
        lambda: HomLieAlgebra.unchecked(2, {(0, 1): {0: 0.25}}),
        lambda: SparseTensor.from_entries(2, 3, {(0, 1): 0.5}),
        lambda: Subspace.span(2, [[1, 0.5]]),
        lambda: GroupElement.of([[1, 0.5], [0, 1]]),
        lambda: SparseTensor.from_entries(2, 2, {(0, 0): 1}).apply_per_slot([[[0.1, 0], [0, 1]], identity_matrix(2)]),
    ],
)
def test_floats_are_refused_with_a_hint(build):
    """A float's binary value is rarely the rational meant: 0.1 used to become
    3602879701896397/36028797018963968 without a word.  A float map used to
    leave a float entry in the image of `apply_per_slot`, and make the
    twist-stability check answer False; a twist is now taken as sparse
    columns, which refuse a float as a shape error (test_stabilizer)."""
    with pytest.raises(ValueError, match="is not exact; write it as a string like '1/10' or as a Fraction"):
        build()


def test_rref_known_example():
    reduced, pivots = rref(matrix([[2, 4, 0], [1, 2, 1]]))
    assert reduced == matrix([[1, 2, 0], [0, 0, 1]])
    assert pivots == (0, 2)


def test_rref_zero_rows_dropped():
    reduced, pivots = rref(matrix([[0, 0], [1, 5]]))
    assert reduced == matrix([[1, 5]])
    assert pivots == (0,)


@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=3, max_size=3),
    st.integers(0, 2**30),
)
def test_rref_is_canonical_under_invertible_row_mixes(rows, seed):
    """Left-multiplying by any invertible matrix preserves the row space,
    so the reduced form must come out identical."""
    rng = random.Random(seed)
    m = matrix(rows)
    mix = rand_invertible(rng, 3)
    assert rref(m) == rref(mat_mul(mix, m))


def test_rank_plus_nullity_is_column_count():
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = matrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        kernel = nullspace(m)
        assert matrix_rank(m) + len(kernel) == cols
        for v in kernel:
            assert mat_vec(m, v) == (ZERO,) * rows


def test_inverse_is_a_two_sided_inverse():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = rand_invertible(rng, n)
        b = rand_int_vector(rng, n)
        inv = inverse(a)
        assert mat_mul(a, inv) == identity_matrix(n)
        assert mat_mul(inv, a) == identity_matrix(n)
        assert mat_vec(a, mat_vec(inv, b)) == b


def test_determinant_values_and_multiplicativity():
    assert determinant(matrix([[1, 2], [3, 4]])) == -2
    assert determinant(identity_matrix(4)) == 1
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)
    with pytest.raises(ValueError, match="must be 2x2"):
        determinant(matrix([[1, 0, 5], [0, 1, 7]]))


def test_singular_or_non_square_matrix_rejected_by_inverse():
    with pytest.raises(ValueError, match="singular"):
        inverse(matrix([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="must be 2x2"):
        inverse(matrix([[1, 0, 5], [0, 1, 7]]))


@pytest.mark.parametrize("fn", [determinant, inverse, rref, matrix_rank, nullspace], ids=lambda fn: fn.__name__)
def test_dense_entry_points_refuse_inexact_entries(fn):
    """A hand-built matrix that `matrix` would refuse: a float, a string or a
    bool entry raises a ValueError naming it, not an AttributeError deep in
    the elimination (or, for a float, an inexact answer)."""
    for bad in (1.5, "1/2", True):
        m = ((ONE, ZERO), (ZERO, bad))
        with pytest.raises(ValueError, match=rf"matrix entry \(1, 1\) is {re.escape(repr(bad))}, not an int or a Fraction"):
            fn(m)
    assert fn(((1, 0), (Fraction(1, 2), 2))) == fn(matrix([[1, 0], ["1/2", 2]]))


def test_products_and_images_refuse_inexact_entries():
    """A float used to come back as a float from mat_vec and mat_mul, and made
    map_subspace raise an AttributeError."""
    bad = ((1.5, 0), (0, 1))
    message = r"matrix entry \(0, 0\) is 1.5, not an int or a Fraction"
    with pytest.raises(ValueError, match=message):
        map_subspace(bad, Subspace.span(2, [[1, 0]]))
    with pytest.raises(ValueError, match=message):
        mat_vec(bad, (ONE, ZERO))
    with pytest.raises(ValueError, match="vector entry 1 is '1', not an int or a Fraction"):
        mat_vec(identity_matrix(2), (ONE, "1"))
    for left, right in ((bad, identity_matrix(2)), (identity_matrix(2), bad)):
        with pytest.raises(ValueError, match=message):
            mat_mul(left, right)
    assert mat_vec(((1, 2),), (Fraction(1, 2), 1)) == (Fraction(5, 2),)


def test_tensor_from_a_ragged_matrix_is_refused():
    with pytest.raises(ValueError, match=r"matrix must be 2x2, got 2 rows of lengths \[1, 2\]"):
        SparseTensor.from_matrix(((1, 0), (0,)))
    assert SparseTensor.from_matrix(((0, 2), (0, 0))).entries == {(0, 1): 2}


@pytest.mark.parametrize("n, i", [(2, 5), (2, -1), (2, 2), (2, True), (2, 1.0), (-1, 0), (2.5, 0)])
def test_unit_vector_refuses_an_index_outside_the_dimension(n, i):
    """unit_vector(2, 5) used to return the zero vector."""
    with pytest.raises(ValueError, match="outside range|must be a non-negative int"):
        unit_vector(n, i)


@pytest.mark.parametrize("n", [-1, 2.5, True, "2"])
def test_identity_matrix_needs_a_non_negative_int(n):
    """identity_matrix(-1) used to return ()."""
    with pytest.raises(ValueError, match=f"dimension must be a non-negative int, got {re.escape(repr(n))}"):
        identity_matrix(n)
    assert identity_matrix(0) == ()


# ---------------------------------------------------------------------------
# Sparse tensors


def test_tensor_drops_explicit_zeros():
    t = SparseTensor.from_entries(2, 3, {(0, 1): 1, (2, 2): 0})
    assert t.items() == [((0, 1), Fraction(1))]
    t.add_into((0, 1), Fraction(-1))
    assert t.is_zero


def test_tensor_index_validation():
    with pytest.raises(ValueError):
        SparseTensor.from_entries(2, 2, {(0, 2): 1})
    with pytest.raises(ValueError):
        SparseTensor.from_entries(2, 2, {(0,): 1})
    for idx in ((0, 1.5), (0, 1.0), (True, 0), ("0", 1)):
        with pytest.raises(ValueError, match=r"index \(.*\) holds an entry that is not an int"):
            SparseTensor.from_entries(2, 3, {idx: 1})
    t = SparseTensor.from_entries(2, 2, {(0, 1): 1})
    with pytest.raises(ValueError, match="map for slot 1 must be 2x2"):
        t.apply_per_slot([identity_matrix(2), matrix([[1, 0], [0, 1], [1, 1]])])


@pytest.mark.parametrize("dim", [-1, 2.5, True, "2", None])
def test_tensor_dimension_must_be_a_non_negative_int(dim):
    """A negative, fractional or bool dimension used to be stored, as Subspace's is not."""
    with pytest.raises(ValueError, match="tensor dimension must be a non-negative int"):
        SparseTensor(2, dim)
    with pytest.raises(ValueError, match="tensor dimension must be a non-negative int"):
        SparseTensor(2, dim, {(0, 0): 1})
    assert SparseTensor(2, 0).is_zero


@pytest.mark.parametrize("value", [0.5, True, "1/2", None, 1j])
def test_tensor_entries_must_be_exact(value):
    """A float entry used to be stored, and hcyb on it returned {} silently."""
    with pytest.raises(ValueError, match=r"at index \(0, 1\) is not an int or a Fraction"):
        SparseTensor(2, 3, {(0, 1): value, (1, 0): 1})
    assert SparseTensor(2, 3, {(0, 1): 2, (1, 0): Fraction(-1, 2)}).entries == {(0, 1): 2, (1, 0): Fraction(-1, 2)}


def test_tensor_arithmetic_and_swap():
    t = SparseTensor.from_entries(2, 3, {(0, 1): Fraction(2), (1, 2): Fraction(-1, 3)})
    u = SparseTensor.from_entries(2, 3, {(0, 1): Fraction(-2)})
    assert (t + u).get((0, 1)) == 0
    assert (t - t).is_zero
    assert (-t).get((1, 2)) == Fraction(1, 3)
    assert t.scale(Fraction(3)).get((1, 2)) == -1
    assert t.swap().get((1, 0)) == 2
    assert t.swap().swap() == t


def test_a_sum_of_tensors_drops_what_cancels_and_refuses_other_shapes(monkeypatch):
    """`__add__` copies self with no second check (`_of_checked`): sums of
    int-valued and Fraction-valued tensors, either way round, drop the
    entries that cancel and leave both operands as they were, and a tensor
    of another degree or dimension is refused, in a sum and a difference."""
    ints = SparseTensor(2, 3, {(0, 1): 2, (1, 2): -3, (2, 2): 1})
    fractions = SparseTensor(2, 3, {(0, 1): Fraction(-2), (1, 2): Fraction(1, 2), (2, 0): Fraction(5, 7)})
    before = (dict(ints.entries), dict(fractions.entries))
    checks = []
    post_init = SparseTensor.__post_init__
    monkeypatch.setattr(SparseTensor, "__post_init__", lambda t: checks.append(t) or post_init(t))
    for total in (ints + fractions, fractions + ints):
        assert total.entries == {(1, 2): Fraction(-5, 2), (2, 2): 1, (2, 0): Fraction(5, 7)}
    assert checks == []
    assert (ints - ints).is_zero and (fractions - fractions).is_zero and (ints + -ints).entries == {}
    assert (ints.entries, fractions.entries) == before
    for other in (SparseTensor(2, 4), SparseTensor(3, 3), SparseTensor(1, 3, {(0,): 1})):
        for a, b in ((ints, other), (other, fractions)):
            with pytest.raises(ValueError, match="tensor shapes differ"):
                a + b
            with pytest.raises(ValueError, match="tensor shapes differ"):
                a - b


@pytest.mark.parametrize("c", [0.5, 0.0, True, "1/2", None])
def test_tensor_scale_refuses_an_inexact_scalar(c):
    """The scalar is checked once, so a float raises even where no entry is
    multiplied: on an empty tensor, and as 0.0."""
    for entries in ({}, {(0, 1): Fraction(1, 2)}):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            SparseTensor(2, 3, dict(entries)).scale(c)


def test_tensor_scale_and_swap_build_valid_tensors_without_a_second_check(monkeypatch):
    """`scale` and `swap` build from a valid tensor's entries what the checking
    constructor builds, without running its check again."""
    rng = random.Random(11)
    tensors = [rand_tensor(rng, degree, 4, fill=6) for degree in (1, 2, 3) for _ in range(3)]
    tensors.append(SparseTensor(2, 4, {(0, 1): 3, (2, 1): Fraction(-1, 2)}))  # an int entry
    expected = [
        [
            SparseTensor(t.degree, t.dim, {idx: c * v for idx, v in t.entries.items()})
            for c in (Fraction(1, 2), 3, Fraction(-2, 7), 0)
        ]
        for t in tensors
    ]
    swapped = [SparseTensor(2, t.dim, {(j, i): v for (i, j), v in t.entries.items()}) for t in tensors if t.degree == 2]

    def forbidden(self):
        raise AssertionError("the entries were checked again")

    monkeypatch.setattr(SparseTensor, "__post_init__", forbidden)
    monkeypatch.setattr(SparseTensor, "zero", classmethod(lambda cls, degree, dim: cls._of_checked(degree, dim, {})))
    for t, scaled in zip(tensors, expected):
        assert [t.scale(c) for c in (Fraction(1, 2), 3, Fraction(-2, 7), 0)] == scaled
    assert [t.swap() for t in tensors if t.degree == 2] == swapped


def test_apply_per_slot_matches_matrix_action():
    """Slot-wise application of a matrix to e_j introduces its j-th column."""
    m = matrix([[1, 2], [3, 4]])
    t = SparseTensor.from_entries(1, 2, {(1,): 1})
    assert dict(t.apply_per_slot([m]).items()) == {(0,): Fraction(2), (1,): Fraction(4)}
    t2 = SparseTensor.from_entries(2, 2, {(0, 1): 1})
    out = t2.apply_per_slot([identity_matrix(2), m])
    assert dict(out.items()) == {(0, 0): Fraction(2), (0, 1): Fraction(4)}


def test_matrix_round_trip():
    m = matrix([[0, 0, Fraction(1, 2)], [0, -2, 0], [0, 0, 0]])
    t = SparseTensor.from_matrix(m)
    assert t == SparseTensor.from_entries(2, 3, {(0, 2): Fraction(1, 2), (1, 1): -2})
    assert tuple(tuple(t.get((i, j)) for j in range(3)) for i in range(3)) == m


def test_skew_sym_split_example():
    t = SparseTensor.from_entries(2, 2, {(0, 1): 1})
    lam, s = tensor_skew_sym_split(t)
    assert dict(lam.items()) == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
    assert dict(s.items()) == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}


def test_skew_sym_split_of_standard_r():
    """The rank-three r built from e1* (x) [e1 half] plus the root dyad splits
    into the usual half-difference and half-sum pieces."""
    r = SparseTensor.from_entries(2, 3, {(1, 2): 1, (0, 0): Fraction(1, 4)})
    lam, s = tensor_skew_sym_split(r)
    assert dict(lam.items()) == {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}
    assert dict(s.items()) == {
        (0, 0): Fraction(1, 4),
        (1, 2): Fraction(1, 2),
        (2, 1): Fraction(1, 2),
    }


def test_skew_sym_split_recomposes_200_random():
    rng = random.Random(17)
    for _ in range(200):
        dim = rng.randint(1, 5)
        t = rand_tensor(rng, 2, dim, fill=rng.randint(0, 8))
        lam, s = tensor_skew_sym_split(t)
        assert is_antisymmetric(lam)
        assert is_symmetric(s)
        assert lam + s == t


def test_antisymmetry_compares_each_pair_exactly():
    """A pair of entries is antisymmetric when the values are exact
    negatives, int or Fraction: equal numerators over different denominators,
    or the same value on both sides, are not."""
    cases = (
        ({(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}, True),
        ({(0, 1): 3, (1, 0): Fraction(-3)}, True),
        ({(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 3)}, False),
        ({(0, 1): Fraction(2, 3), (1, 0): Fraction(-1, 3)}, False),
        ({(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}, False),
        ({(0, 1): 1}, False),
        ({(1, 1): 1}, False),
        ({}, True),
    )
    for entries, expected in cases:
        assert is_antisymmetric(SparseTensor(2, 2, entries)) is expected, entries


def test_split_rejects_wrong_degree():
    with pytest.raises(ValueError):
        tensor_skew_sym_split(SparseTensor.zero(3, 2))


def test_wedge3_all_six_slot_orders():
    t = SparseTensor.zero(3, 3)
    wedge3_basis(t, 0, 1, 2, Fraction(1))
    expect = {
        (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1,
    }
    assert dict(t.items()) == {k: Fraction(v) for k, v in expect.items()}


def test_wedge_t2_v1_matches_basis_expansion():
    e0_e1 = SparseTensor(2, 3, {(0, 1): 1, (1, 0): -1})
    expect = SparseTensor.zero(3, 3)
    wedge3_basis(expect, 0, 1, 2, Fraction(1))
    out = SparseTensor.zero(3, 3)
    wedge_t2_v1_into(out, e0_e1, {2: Fraction(1)}, Fraction(1))
    assert out == expect
    wedge_t2_v1_into(out, e0_e1, {0: Fraction(5)}, Fraction(3))
    assert out == expect
    wedge_t2_v1_into(out, e0_e1, {2: Fraction(1)}, Fraction(-1, 2))
    assert out == expect.scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Subspaces


def test_span_is_canonical():
    a = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(3, [[1, 2, 1], [2, 1, -1], [1, 1, 0]])
    assert subspace_equal(a, b)
    assert a.rows == b.rows


def test_membership_and_containment():
    """Containment a >= b is the span of both equal to a."""
    q = Subspace.span(3, [[1, 0, 1]])
    assert q.contains((Fraction(2), Fraction(0), Fraction(2)))
    assert not q.contains((Fraction(1), Fraction(0), Fraction(0)))

    def contains(a: Subspace, b: Subspace) -> bool:
        return subspace_equal(_span(a.ambient_dim, a.echelon + b.echelon), a)

    assert contains(Subspace.full(3), q)
    assert not contains(q, Subspace.full(3))
    assert contains(q, Subspace.zero(3))
    assert contains(q, Subspace.span(3, [[-3, 0, -3]]))
    assert not contains(Subspace.span(3, [[1, 0, 1], [0, 1, 0]]), Subspace.span(3, [[1, 1, 0]]))


def test_orthogonal_complement_extremes():
    form = [{i: 1} for i in range(4)]
    assert _span(4, _orthogonal_rows(Subspace.full(4), form)).dim == 0
    assert subspace_equal(_span(4, _orthogonal_rows(Subspace.zero(4), form)), Subspace.full(4))


def test_orthogonal_complement_hyperbolic_plane():
    """In the rank-2 pairing that swaps the two coordinates, each axis line is
    its own complement."""
    form = [{1: 1}, {0: 1}]
    axis = Subspace.span(2, [[1, 0]])
    assert subspace_equal(_span(2, _orthogonal_rows(axis, form)), axis)


def test_double_complement_is_identity_100_random():
    rng = random.Random(19)
    form = [{2: 1}, {3: 1}, {0: 1}, {1: 1}]
    for _ in range(100):
        q = rand_subspace(rng, 4, rng.randint(0, 4))
        perp = _span(q.ambient_dim, _orthogonal_rows(q, form))
        assert q.dim + perp.dim == 4
        assert subspace_equal(_span(perp.ambient_dim, _orthogonal_rows(perp, form)), q)


def test_annihilator_dims_and_example():
    """One annihilator row per free column of the canonical rows, in column order."""
    assert _annihilator_rows(Subspace.span(3, [[1, 0, 0]])) == [{1: ONE}, {2: ONE}]
    assert _annihilator_rows(Subspace.span(3, [[1, 2, 0]])) == [{1: ONE, 0: -2}, {2: ONE}]
    assert len(_annihilator_rows(Subspace.zero(3))) == 3


def test_map_subspace_under_invertible_map_keeps_dim():
    rng = random.Random(23)
    for _ in range(20):
        m = rand_invertible(rng, 4)
        q = rand_subspace(rng, 4, rng.randint(0, 4))
        assert map_subspace(m, q).dim == q.dim


def test_contains_rejects_vectors_of_the_wrong_length():
    q = Subspace.span(3, [[1, 0, 0]])
    with pytest.raises(ValueError, match="length 4"):
        q.contains((1, 0, 0, 5))
    with pytest.raises(ValueError, match="length 2"):
        q.contains((1, 0))


def test_sparse_membership_ignores_zero_entries_and_refuses_bad_ones():
    """An explicit zero does not change the vector; an index outside the
    space or an inexact entry is an error, not an answer."""
    q = Subspace.span(3, [[1, 0, 0]])
    assert q.contains((1, 0, 0))
    assert q.contains_sparse({0: 1, 2: 0}) and q.contains_sparse({0: Fraction(1), 1: Fraction(0)})
    assert q.contains_sparse({2: 0}) and q.contains_sparse({})
    assert not q.contains_sparse({0: 1, 2: Fraction(1, 3)})
    for xs, match in (
        ({0: 1, 3: 1}, "index 3 outside range"),
        ({-1: 1}, "index -1 outside range"),
        ({0: 1, 3: 0}, "index 3 outside range"),
        ({"0": 1}, "index '0' outside range"),
        ({0: 1.0}, "entry 1.0 at index 0 is not an int or a Fraction"),
        ({1: 0.0}, "entry 0.0 at index 1"),
        ({0: "1"}, "entry '1' at index 0"),
    ):
        with pytest.raises(ValueError, match=match):
            q.contains_sparse(xs)
    with pytest.raises(ValueError, match="entry 1.0 at index 0"):
        q.contains((1.0, 0, 0))


def test_map_subspace_rejects_a_column_count_off_the_ambient_dimension():
    q = Subspace.span(3, [[1, 0, 0]])
    with pytest.raises(ValueError, match="3 columns"):
        map_subspace(identity_matrix(2), q)
    with pytest.raises(ValueError, match="3 columns"):
        map_subspace(matrix([[1, 0, 0], [0, 1]]), q)
    with pytest.raises(ValueError, match="3 columns"):
        map_subspace(identity_matrix(4), Subspace.zero(3))
    with pytest.raises(ValueError, match="3 columns"):
        mat_mul(identity_matrix(2), identity_matrix(3))
    assert map_subspace((), q) == Subspace.zero(0)


def test_sparse_columns_keeps_nonzero_entries_by_column():
    m = matrix([[0, 2, 0], [3, 0, 0]])
    assert sparse_columns(m) == [{1: 3}, {0: 2}, {}]
    assert sparse_columns(()) == []
    with pytest.raises(ValueError, match="ragged"):
        sparse_columns(matrix([[1, 0], [1]]))
    with pytest.raises(ValueError, match="ragged"):
        rref(matrix([[1, 0], [0, 1, 5]]))


# ---------------------------------------------------------------------------
# Column-sparse paths against the dense reference

_entries = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 1, 2, 3)))
# Large pairwise-coprime denominators, so that a lost or misplaced division shows.
_coprime_entries = st.builds(Fraction, st.integers(-50, 50), st.sampled_from((7, 11, 13, 17, 19, 23)))


@st.composite
def reference_matrices(draw, n_rows=None, n_cols=None):
    """Dense, sparse (with whole zero rows and columns), block-permutation,
    already reduced (padded with zero rows) or dependent matrices, the last
    with duplicate rows and combinations of earlier rows; entries have small
    denominators or large pairwise-coprime ones."""
    rows = draw(st.integers(1, 6)) if n_rows is None else n_rows
    cols = draw(st.integers(1, 6)) if n_cols is None else n_cols
    kind = draw(st.sampled_from(("dense", "sparse", "block_permutation", "reduced", "dependent")))
    entries = draw(st.sampled_from((_entries, _coprime_entries)))
    if kind == "block_permutation" and rows == cols:
        block = draw(st.sampled_from([b for b in (1, 2, 3) if rows % b == 0]))
        images = draw(st.permutations(list(range(rows // block))))
        return dense_block_permutation(Permutation(tuple(images)), block)
    if kind == "dense":
        return tuple(tuple(draw(entries.filter(bool)) for _ in range(cols)) for _ in range(rows))
    if kind in ("reduced", "dependent"):
        base = draw(reference_matrices(draw(st.integers(1, rows)), cols))
        if kind == "reduced":
            reduced = dense_rref(base)[0]
            return reduced + ((Fraction(0),) * cols,) * (rows - len(reduced))
        out = list(base)
        while len(out) < rows:
            x, y = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            a, b = draw(entries), draw(entries)
            out.append(x if draw(st.booleans()) else tuple(a * u + b * v for u, v in zip(x, y)))
        return tuple(draw(st.permutations(out)))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    return tuple(
        tuple(
            Fraction(0) if r in zero_rows or c in zero_cols else draw(st.just(Fraction(0)) | entries)
            for c in range(cols)
        )
        for r in range(rows)
    )


@given(reference_matrices())
def test_rref_matches_the_dense_reference(m):
    """rref, nullspace, matrix_rank and inverse, dense wrappers over the one
    sparse kernel, against the dense elimination, to the type of every entry."""
    reduced, pivots = dense_rref(m)
    assert repr(rref(m)) == repr((reduced, pivots))
    assert repr(nullspace(m)) == repr(dense_nullspace(m))
    assert matrix_rank(m) == len(reduced)
    n = len(m)
    if n == len(m[0]):
        augmented = tuple(row + unit_vector(n, i) for i, row in enumerate(m))
        aug_reduced, aug_pivots = dense_rref(augmented)
        if aug_pivots == tuple(range(n)):
            assert repr(inverse(m)) == repr(tuple(row[n:] for row in aug_reduced))
        else:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(reference_matrices(n_cols=n), reference_matrices(n_cols=n), reference_matrices(n, n))
    )
)
def test_subspace_operations_match_the_dense_reference(triple):
    """span (of rows, and of two spaces' canonical rows) and
    the span of _orthogonal_rows against dense_span over dense_rref, and the
    annihilator's rows against dense_nullspace row for row; equal subspaces
    hash alike."""
    a_rows, b_rows, gram = triple
    n = len(gram)
    a, b = Subspace.span(n, a_rows), Subspace.span(n, b_rows)
    reference = dense_span(n, a_rows)
    assert a == reference and hash(a) == hash(reference)
    assert _span(n, a.echelon + b.echelon) == dense_span(n, a_rows + b_rows)
    null = dense_nullspace(reference.rows) if reference.dim else identity_matrix(n)
    assert [_dense_vector(row, n) for row in _annihilator_rows(a)] == list(null)
    conditions = [dense_mat_vec(transpose(gram), w) for w in reference.rows]
    complement = dense_nullspace(conditions) if conditions else identity_matrix(n)
    assert _span(n, _orthogonal_rows(a, [_sparse(row) for row in gram])) == dense_span(n, complement)


def test_subspaces_are_equal_and_hash_alike_by_value():
    a = Subspace.span(3, [[2, 0, 4], [0, 3, 0]])
    b = Subspace.span(3, [["1/2", 3, 1], [0, -1, 0]])
    stored = Subspace(3, ({0: 1, 2: 2}, {1: 1}))
    assert a == b == stored and hash(a) == hash(b) == hash(stored)
    assert len({a, b, stored, Subspace.full(3)}) == 2 and {a: "q"}[stored] == "q"
    assert a != Subspace.span(3, [[1, 0, 2]]) and Subspace.zero(2) != Subspace.zero(3)
    assert Subspace.full(2) == Subspace.span(2, [[0, 1], [1, 0]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.ambient_dim = 4


@pytest.mark.parametrize(
    "rows, message",
    [
        (((Fraction(2), Fraction(0)),), "row 0 is .*, not a nonempty mapping"),  # dense rows passed positionally
        (((0, 1), (1, 0)), "row 0 is .*, not a nonempty mapping"),
        (((1, 0, 0),), "row 0 is .*, not a nonempty mapping"),
        (({2: Fraction(1)},), r"row 0 has column index 2 outside range\(2\)"),
        (({-1: Fraction(1)},), r"row 0 has column index -1 outside range\(2\)"),
        (({"0": Fraction(1)},), r"row 0 has column index '0' outside range\(2\)"),
        (({0: Fraction(1)}, {True: Fraction(1)}), r"row 1 has column index True outside range\(2\)"),
        (({0: 1.0},), "row 0 has entry 1.0 at column 0, not a nonzero int or Fraction"),
        (({0: "1"},), "row 0 has entry '1' at column 0, not a nonzero int or Fraction"),
        (({0: Fraction(1), 1: Fraction(0)},), "row 0 has entry Fraction.0, 1. at column 1, not a nonzero"),
        (({},), r"row 0 is \{\}, not a nonempty mapping"),
        (({1: Fraction(1), 0: Fraction(1)},), "row 0 is .*: its columns must increase, the first .the pivot. with entry 1"),
        (({0: Fraction(2)},), "row 0 is .*: its columns must increase, the first .the pivot. with entry 1"),
        (({0: Fraction(1)}, {1: Fraction(-1)}), "row 1 is .*: its columns must increase, the first .the pivot. with entry 1"),
        (({1: Fraction(1)}, {0: Fraction(1)}), "row 1 has pivot column 0, not after row 0's 1"),
        (({0: Fraction(1)}, {0: Fraction(1)}), "row 1 has pivot column 0, not after row 0's 0"),
        (
            ({0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}),
            "pivot column 1 of row 1 is nonzero in an earlier row",
        ),
        ([{0: 1}, {0: 1, 1: 1}], "row 1 has pivot column 0, not after row 0's 0"),
    ],
)
def test_the_stored_rows_must_be_canonical(rows, message):
    """The positional constructor takes the canonical sparse rows and nothing
    else; before the check, non-canonical rows gave silent wrong answers
    (membership, equality) and rows off the ambient dimension were kept."""
    with pytest.raises(ValueError, match=message):
        Subspace(2, rows)


def test_the_ambient_dimension_must_be_a_non_negative_int():
    for dim in (-1, 2.0, True):
        with pytest.raises(ValueError, match="ambient dimension must be a non-negative int"):
            Subspace(dim, ())
    assert Subspace(2, [{0: 1, 1: Fraction(-1, 2)}]).echelon == ({0: 1, 1: Fraction(-1, 2)},)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(reference_matrices(n_cols=n), reference_matrices(1, n))))
def test_mat_vec_matches_the_dense_reference(pair):
    m, (v,) = pair
    assert mat_vec(m, v) == dense_mat_vec(m, v)


def test_mat_vec_rejects_a_vector_of_the_wrong_length():
    m = matrix([[1, 0, 2], [0, 1, 0]])
    for v in (vector([1, 2]), vector([1, 2, 3, 4])):
        with pytest.raises(ValueError, match="length"):
            mat_vec(m, v)


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(reference_matrices(n_cols=n), reference_matrices(1, n))),
    st.lists(_entries, max_size=6),
)
def test_contains_matches_the_dense_reference(pair, coeffs):
    m, (v,) = pair
    space = Subspace.span(len(v), m)
    assert space.rows == dense_span(len(v), m).rows
    combination = tuple(
        sum((c * row[i] for c, row in zip(coeffs, space.rows)), Fraction(0)) for i in range(len(v))
    )
    for w in (v, combination):
        assert space.contains(w) == dense_contains(space, w)
        assert space.contains_sparse({i: x for i, x in enumerate(w) if x}) == dense_contains(space, w)
    assert space.contains(combination)
    for sparse, row in zip(space.echelon, space.rows):
        pivot = next(iter(sparse))
        assert row[pivot] == 1 and not any(row[:pivot])
        assert sparse == {i: x for i, x in enumerate(row) if x}


@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.tuples(reference_matrices(*shape), reference_matrices(n_cols=shape[1]))
    )
)
def test_map_subspace_matches_the_dense_reference(pair):
    m, spanning = pair
    space = Subspace.span(len(m[0]), spanning)
    assert map_subspace(m, space) == dense_map_subspace(m, space)


# ---------------------------------------------------------------------------
# Permutations


def test_permutation_validation():
    for images in ((0, 0, 1), (1, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(images)
    for images, bad in (((1.0, 0.0), "1.0"), ((0, 2.0, 1), "2.0"), ((True, False), "True"), ((0, True), "True")):
        with pytest.raises(ValueError, match=f"entry {bad} is not an int"):
            Permutation(images)
    for m, n, match in ((2.0, 2, "m must be an int, got 2.0"), (2, True, "n must be an int, got True"), (0, 2, "at least 1")):
        with pytest.raises(ValueError, match=match):
            snake_permutation(m, n)


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_permutation_compose_inverse_sign(p_images, q_images):
    p, q = Permutation(tuple(p_images)), Permutation(tuple(q_images))
    pq = p.compose(q)
    for i in range(6):
        assert pq(i) == p(q(i))
    assert p.compose(p.inverse()) == Permutation.identity(6)
    assert pq.sign == p.sign * q.sign


def test_permute_moves_slots_to_images():
    """The block columns move the entries of slot i, unchanged, to slot images[i]."""
    p = Permutation((1, 2, 0))
    x = {0: Fraction(1), 1: Fraction(2), 2: Fraction(3), 5: Fraction(6)}
    assert _apply_columns(p.columns(block=2), x) == {2: 1, 3: 2, 4: 3, 1: 6}


def test_permutation_matrix_action_matches_call():
    p = Permutation((2, 0, 1))
    assert p.columns() == [{p(i): 1} for i in range(3)]


def test_permutation_block_matrix():
    p = Permutation((1, 0))
    cols = p.columns(block=2)
    assert cols == sparse_columns(matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]))
    assert Permutation(()).columns(block=3) == []


def test_transpose_of_permutation_matrix_is_inverse():
    rng = random.Random(29)
    for _ in range(20):
        images = list(range(5))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        for block in (1, 2, 3):
            dense = dense_block_permutation(p, block)
            assert p.columns(block) == sparse_columns(dense)
            assert p.inverse().columns(block) == sparse_columns(transpose(dense))
