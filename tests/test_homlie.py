"""Twisted Lie algebras: axiom certifiers, morphisms, forms."""
from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import (
    SL2_BRACKETS,
    TWISTED_ALGEBRAS,
    dense_check_homomorphism,
    dense_check_hom_jacobi,
    dense_check_twist_morphism,
    rand_fraction,
)
from maninforge.core import SparseTensor, Subspace, _unit_columns, identity_matrix, mat_mul, mat_vec, matrix, sparse_columns
from maninforge.homlie import (
    HomLieAlgebra,
    check_hom_jacobi,
    check_homomorphism,
    check_involutive,
    check_quadratic,
    check_twist_morphism,
    direct_sum,
    negate_form,
)
from maninforge.manin import (
    check_manin_isomorphism,
    hyperbolic_triple,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble, uble_of_uble
from maninforge.rmatrix import sl2_lie, sl2_twisted

SL2_BRACKETS = {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: 1}}
# [e0,e1]=e0 makes the twisted Jacobi cycle close to -e1 instead of zero.
BROKEN_BRACKETS = {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}}


def test_create_accepts_twisted_jacobi_data():
    h = sl2_twisted()
    assert check_hom_jacobi(h).passed
    assert check_twist_morphism(h).passed
    assert check_involutive(h)


def test_create_rejects_broken_jacobi_with_located_message():
    with pytest.raises(ValueError, match=r"twisted Jacobi identity fails at basis triple"):
        HomLieAlgebra.create(3, BROKEN_BRACKETS)


def test_unchecked_defers_to_certifier():
    h = HomLieAlgebra.unchecked(3, BROKEN_BRACKETS)
    report = check_hom_jacobi(h)
    assert not report.passed
    assert (0, 1, 2) in [f.index for f in report.failures]
    assert all(f.check == "hom_jacobi" for f in report.failures)


def test_negative_dimension_rejected():
    with pytest.raises(ValueError, match="dim must be a non-negative int, got -1"):
        HomLieAlgebra.create(-1, {})


@pytest.mark.parametrize("dim", [-1, 2.5, True, "2", None])
def test_dimensions_must_be_non_negative_ints_everywhere(dim):
    """One message for every dimension: a float or a string used to raise a
    TypeError."""
    builders = {
        "dim": (
            lambda: HomLieAlgebra.unchecked(dim, {}),
            lambda: HomLieAlgebra.create(dim, {}),
            lambda: HomLieAlgebra(dim, {}, ({0: 1},)),
        ),
        "ambient dimension": (lambda: Subspace(dim, ()),),
        "tensor dimension": (lambda: SparseTensor(2, dim),),
    }
    for what, builds in builders.items():
        for build in builds:
            with pytest.raises(ValueError, match=f"^{what} must be a non-negative int, got {re.escape(repr(dim))}$"):
                build()


@pytest.mark.parametrize("phi", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1], [0, 0, 1]]])
def test_twist_of_the_wrong_shape_rejected(phi):
    """A 2x2 or ragged phi for dim 3 used to load, then raise IndexError in
    check_twist_morphism."""
    with pytest.raises(ValueError, match="phi must be 3x3"):
        HomLieAlgebra.create(3, {}, phi=phi)


def test_form_of_the_wrong_shape_rejected():
    """A 1x1 form for dim 2 used to load, then raise IndexError in
    check_manin_triple."""
    with pytest.raises(ValueError, match="form must be 2x2"):
        HomLieAlgebra.create(2, {}, form=[[1]])
    with pytest.raises(ValueError, match="form must be 2x2"):
        HomLieAlgebra.unchecked(2, {}, form=[[1, 0], [0]])


@pytest.mark.parametrize(
    "brackets, match",
    [
        ({(0, 1.5): {2: 1}}, r"bracket key \(0, 1.5\): key and value indices \[2\] must be ints"),
        ({(False, 1): {2: 1}}, r"bracket key \(False, 1\)"),
        ({("0", 1): {2: 1}}, r"bracket key \('0', 1\)"),
        ({(0, 1): {True: 1}}, r"bracket key \(0, 1\): key and value indices \[True\] must be ints"),
        ({(0, 1): {2.0: 1}}, r"bracket key \(0, 1\): key and value indices \[2.0\] must be ints"),
    ],
)
def test_bracket_indices_must_be_ints(brackets, match):
    """A float key used to load and then raise TypeError in check_hom_jacobi; a
    bool value index was written out as `True:1`, which the parser rejects."""
    with pytest.raises(ValueError, match=match):
        HomLieAlgebra.unchecked(3, brackets)


@pytest.mark.parametrize(
    "brackets, match",
    [
        ({(0, 1.5): {2: 1}}, r"bracket key \(0, 1.5\): key and value indices \[2\] must be ints"),
        ({(0, 1): {True: 1}}, r"bracket key \(0, 1\): key and value indices \[True\] must be ints"),
        ({(1, 0): {2: Fraction(1)}}, r"bracket key \(1, 0\) must satisfy 0 <= i < j < dim"),
        ({(0, 5): {9: 1}}, r"bracket key \(0, 5\) must satisfy 0 <= i < j < dim"),
        ({(0, 1): {9: 1}}, r"bracket value index 9 out of range"),
        ({(0, 1): {2: 0.5}}, r"bracket key \(0, 1\): value 0.5 at index 2 is not an int or a Fraction"),
        ({(0, 1): {2: True}}, r"bracket key \(0, 1\): value True at index 2 is not an int or a Fraction"),
        ({(0, 1): {2: "1/2"}}, r"bracket key \(0, 1\): value '1/2' at index 2 is not an int or a Fraction"),
        ({(0, 1): {2: Fraction(0)}}, r"bracket key \(0, 1\): value at index 2 is zero"),
        ({(0, 1): {1: 3, 2: 0}}, r"bracket key \(0, 1\): value at index 2 is zero"),
        ({(0, 2): {}}, r"bracket key \(0, 2\): the coefficient map is empty"),
    ],
)
def test_positional_constructor_checks_the_bracket_table(brackets, match):
    """The positional constructor takes the stored table as it is, so it checks
    it as `unchecked` does; a float constant used to load silently, and an
    out-of-range key to end in an IndexError."""
    with pytest.raises(ValueError, match=match):
        HomLieAlgebra(3, brackets, _unit_columns(3))


def test_positional_constructor_converts_nothing():
    brackets = {(0, 1): {2: 1}, (1, 2): {0: Fraction(-1, 2)}}
    h = HomLieAlgebra(3, brackets, _unit_columns(3))
    assert h.brackets is brackets and type(h.brackets[(0, 1)][2]) is int


def test_twist_entries_must_be_exact():
    with pytest.raises(ValueError, match=r"phi must be 2x2 as sparse vectors: column 1 has entry 0.5 at row 0"):
        HomLieAlgebra(2, {}, ({0: Fraction(1)}, {0: 0.5}))
    with pytest.raises(ValueError, match=r"form must be 2x2 as sparse vectors: column 0 has entry True at row 1"):
        HomLieAlgebra(2, {}, _unit_columns(2), ({1: True}, {0: 1}))


@pytest.mark.parametrize(
    "phi_columns, form_rows, match",
    [
        (({0: Fraction(1), 1: Fraction(0)}, {1: Fraction(1)}), None, r"phi column 0 has a zero entry at row 1"),
        (({0: 1}, {0: 2, 1: 0}), None, r"phi column 1 has a zero entry at row 1"),
        (_unit_columns(2), ({1: Fraction(2)}, {0: Fraction(2), 1: Fraction(0)}), r"form row 1 has a zero entry at column 1"),
        (_unit_columns(2), ({0: 0}, {1: 1}), r"form row 0 has a zero entry at column 0"),
    ],
)
def test_positional_constructor_rejects_explicit_zero_entries(phi_columns, form_rows, match):
    """An explicit zero used to be stored: the identity twist with a zero entry
    read as twisted, and an algebra compared unequal to the same algebra
    without it."""
    with pytest.raises(ValueError, match=match):
        HomLieAlgebra(2, {}, phi_columns, form_rows)


def test_equal_algebras_compare_equal_however_they_are_built():
    """`unchecked` drops zeros, and the positional constructor refuses them, so
    an algebra has one stored form."""
    assert HomLieAlgebra.unchecked(3, {(0, 1): {2: 0}, (1, 2): {}}) == HomLieAlgebra.unchecked(3, {})
    h = HomLieAlgebra(2, {}, ({0: Fraction(1)}, {1: Fraction(1)}))
    assert h.untwisted and h == HomLieAlgebra.unchecked(2, {}, phi=[[1, 0], [0, 1]])


def test_map_columns_may_still_hold_explicit_zeros():
    """The map checkers take their columns as given: a stored zero in f is not
    an error."""
    h = sl2_twisted()
    f = [{0: Fraction(1), 1: Fraction(0)}, {1: Fraction(1)}, {2: Fraction(1), 0: 0}]
    assert check_homomorphism(f, h, h).passed
    t = hyperbolic_triple()
    assert check_manin_isomorphism([{0: Fraction(1), 1: 0}, {1: 1}], t, t).passed


def test_twist_morphism_failure_located():
    """diag(1,1,-1) negates only one root vector, so it cannot respect the
    bracket of the two root vectors."""
    h = HomLieAlgebra.unchecked(3, SL2_BRACKETS, phi=[[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    report = check_twist_morphism(h)
    assert not report.passed
    assert (1, 2) in [f.index for f in report.failures]


def test_involutive_detects_non_involution():
    h = HomLieAlgebra.create(2, {}, phi=[[1, 0], [0, 2]])
    assert not check_involutive(h)
    assert check_involutive(sl2_lie())


def test_bracket_and_phi_linear_extension():
    h = sl2_twisted()
    x = (Fraction(1), Fraction(2), Fraction(0))
    y = (Fraction(0), Fraction(0), Fraction(3))
    # [e0 + 2 e1, 3 e2] = 3(2 e2) + 6(e0) = 6 e0 + 6 e2
    assert h.bracket(x, y) == (Fraction(6), Fraction(0), Fraction(6))
    assert mat_vec(h.phi, x) == (Fraction(1), Fraction(-2), Fraction(0))


def _vec(*entries):
    return tuple(Fraction(x) for x in entries)


@pytest.mark.parametrize(
    "x, y",
    [
        (_vec(1, 0, 0, 1), _vec(0, 1, 0, 1)),  # the 4th entries were ignored
        (_vec(1), _vec(0, 1, 0)),  # the short vector was padded with zeros
        (_vec(0, 1, 0), _vec(1)),
    ],
)
def test_bracket_rejects_vectors_of_the_wrong_length(x, y):
    with pytest.raises(ValueError, match=r"dim=3"):
        sl2_twisted().bracket(x, y)


# ---------------------------------------------------------------------------
# Homomorphisms


def test_identity_and_twist_are_self_homomorphisms():
    h = sl2_twisted()
    assert check_homomorphism(sparse_columns(identity_matrix(3)), h, h).passed
    assert check_homomorphism(sparse_columns(h.phi), h, h).passed


def test_scaling_map_between_abelian_algebras():
    a = HomLieAlgebra.create(2, {})
    assert check_homomorphism(sparse_columns(matrix([[2, 0], [0, 2]])), a, a).passed


def test_basis_swap_is_not_a_homomorphism():
    h = sl2_lie()
    swap = matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    report = check_homomorphism(sparse_columns(swap), h, h)
    assert not report.passed
    assert any(f.check == "bracket_preserved" for f in report.failures)


def test_homomorphism_requires_twist_compatibility():
    twisted, plain = sl2_twisted(), sl2_lie()
    report = check_homomorphism(sparse_columns(identity_matrix(3)), twisted, plain)
    assert not report.passed
    assert any(f.check == "twist_intertwine" for f in report.failures)


@pytest.mark.parametrize(
    "f, problem",
    [
        ([{0: 1}, {1: 1}], "got 2 columns"),
        ([{0: 1}, {1: 1}, {2: 1}, {3: 1}], "got 4 columns"),
        ([{0: 1}, {1: 1}, {6: 1}], "column 2 has row index 6 outside range"),
        (matrix([[1, 0, 0, 0, 0, 0]] * 3), "column 0 is a tuple, not a mapping"),
    ],
    ids=["f0", "f1", "f2", "f3"],
)
def test_homomorphism_rejects_a_map_of_the_wrong_shape(f, problem):
    """Maps from sl2 into sl2 + sl2 have 3 columns with row indices below 6."""
    h1, h2 = sl2_lie(), direct_sum(sl2_lie(), sl2_twisted())
    with pytest.raises(ValueError, match=f"map must be 6x3 .*{problem}"):
        check_homomorphism(f, h1, h2)


def test_zero_map_into_the_zero_algebra_is_a_homomorphism():
    assert check_homomorphism([{}, {}, {}], sl2_twisted(), HomLieAlgebra.create(0, {})).passed


@given(st.integers(0, 2**30), st.sampled_from((0, 1, 3)))
def test_homomorphism_reports_match_the_dense_reference(seed, zeros_in_four):
    """Random maps sl2 -> sl2 + twisted sl2, from fully dense to mostly zero,
    plus the two block embeddings, fail exactly as the dense reference says."""
    rng = random.Random(seed)
    h1, h2 = sl2_lie(), direct_sum(sl2_lie(), sl2_twisted())
    maps = [
        matrix([[rand_fraction(rng) if rng.randrange(4) >= zeros_in_four else 0 for _ in range(3)] for _ in range(6)]),
        matrix([[int(r == c) for c in range(3)] for r in range(6)]),
        matrix([[int(r == c + 3) for c in range(3)] for r in range(6)]),
    ]
    reports = [check_homomorphism(sparse_columns(f), h1, h2) for f in maps]
    for f, report in zip(maps, reports):
        assert report.failures == dense_check_homomorphism(f, h1, h2).failures
    assert reports[1].passed and not reports[2].passed


# ---------------------------------------------------------------------------
# Twists that are not involutions


@pytest.mark.parametrize("name", sorted(TWISTED_ALGEBRAS))
def test_twisted_algebras_match_the_dense_certifiers(name):
    h = TWISTED_ALGEBRAS[name]()
    assert check_hom_jacobi(h).to_json() == dense_check_hom_jacobi(h).to_json()
    assert check_twist_morphism(h).to_json() == dense_check_twist_morphism(h).to_json()


@pytest.mark.parametrize("name", sorted(TWISTED_ALGEBRAS))
def test_involutive_means_the_twist_squares_to_the_identity(name):
    """Only the two sl2 twists diag(1, 1, 1) and diag(1, -1, -1) are involutions."""
    h = TWISTED_ALGEBRAS[name]()
    squares_to_one = mat_mul(h.phi, h.phi) == identity_matrix(h.dim)
    assert check_involutive(h) == squares_to_one == (name in ("sl2_lie", "sl2_twisted"))


@pytest.mark.parametrize("name", sorted(TWISTED_ALGEBRAS))
def test_the_twist_is_an_endomorphism_exactly_when_it_is_multiplicative(name):
    """The twist commutes with itself, so as a map h -> h it can fail only to
    preserve brackets, and it fails there exactly when check_twist_morphism does."""
    h = TWISTED_ALGEBRAS[name]()
    report = check_homomorphism(sparse_columns(h.phi), h, h)
    assert report.failures == dense_check_homomorphism(h.phi, h, h).failures
    assert all(f.check == "bracket_preserved" for f in report.failures)
    assert report.passed == check_twist_morphism(h).passed


@pytest.mark.parametrize("name", sorted(TWISTED_ALGEBRAS))
def test_summand_inclusions_and_projections_are_homomorphisms(name):
    """In h + twisted sl2 the block inclusions and the projection onto h
    intertwine twists and brackets, whatever h's twist; embedding h in the
    block of twisted sl2 does not, unless h is twisted sl2."""
    h, k = TWISTED_ALGEBRAS[name](), sl2_twisted()
    total = direct_sum(h, k)
    n, m = h.dim, k.dim
    maps = {
        "first": (matrix([[int(r == c) for c in range(n)] for r in range(n + m)]), h, total),
        "second": (matrix([[int(r == c + n) for c in range(m)] for r in range(n + m)]), k, total),
        "onto h": (matrix([[int(r == c) for c in range(n + m)] for r in range(n)]), total, h),
        "wrong block": (matrix([[int(r == c + n) for c in range(n)] for r in range(n + m)]), h, total),
    }
    for label, (f, source, target) in maps.items():
        report = check_homomorphism(sparse_columns(f), source, target)
        assert report.failures == dense_check_homomorphism(f, source, target).failures, label
        assert report.passed == (label != "wrong block" or name == "sl2_twisted"), label


# ---------------------------------------------------------------------------
# Quadratic forms


def test_trace_form_is_invariant_and_twist_self_adjoint():
    data = special_linear_data(2)
    assert data.algebra.form == matrix([[2, 0, 0], [0, 0, -1], [0, -1, 0]])
    assert check_quadratic(data.algebra).passed


def test_identity_form_on_simple_algebra_fails_invariance():
    h = HomLieAlgebra.unchecked(3, SL2_BRACKETS, form=identity_matrix(3))
    report = check_quadratic(h)
    assert not report.passed
    assert any(f.check == "invariant" for f in report.failures)


def test_degenerate_form_reports_kernel():
    h = HomLieAlgebra.create(2, {}, form=[[1, 0], [0, 0]])
    report = check_quadratic(h)
    assert any(f.check == "nondegenerate" for f in report.failures)


def test_asymmetric_form_detected():
    h = HomLieAlgebra.create(2, {}, form=[[0, 1], [2, 0]])
    report = check_quadratic(h)
    assert any(f.check == "symmetric" for f in report.failures)


def test_missing_form_raises():
    with pytest.raises(ValueError):
        check_quadratic(sl2_twisted())


def test_twist_self_adjoint_failure_detected():
    h = HomLieAlgebra.create(
        2, {}, phi=[[0, 1], [0, 0]], form=[[1, 0], [0, 2]]
    )
    report = check_quadratic(h)
    assert any(f.check == "twist_self_adjoint" for f in report.failures)


# ---------------------------------------------------------------------------
# Direct sums


def test_direct_sum_structure():
    data = special_linear_data(2)
    h = data.algebra
    total = direct_sum(h, h)
    assert total.dim == 6
    # block brackets: second copy shifted by 3, no cross terms
    assert total.bracket_basis(1, 2) == h.bracket_basis(1, 2)
    assert total.bracket_basis(4, 5) == {k + 3: v for k, v in h.bracket_basis(1, 2).items()}
    assert total.bracket_basis(0, 4) == {}
    assert check_hom_jacobi(total).passed
    assert check_quadratic(total).passed
    for i in range(3):
        for j in range(3):
            assert total.form[i][j + 3] == 0
            assert total.form[i + 3][j] == 0


def test_direct_sum_without_forms_has_no_form():
    total = direct_sum(sl2_twisted(), sl2_twisted())
    assert total.form is None
    assert check_twist_morphism(total).passed


def test_direct_sum_of_many_equals_the_nested_binary_sums():
    a, b, c = sl2_twisted(), special_linear_data(2).algebra, special_linear_data(3).algebra
    flat = direct_sum(a, b, c)
    nested = direct_sum(direct_sum(a, b), c)
    assert flat == direct_sum(a, direct_sum(b, c)) == nested
    assert list(flat.brackets) == list(nested.brackets)
    assert flat.form is None  # sl2_twisted carries none
    with_forms = direct_sum(b, c, b)
    assert with_forms == direct_sum(direct_sum(b, c), b)
    assert with_forms.dim == 14 and with_forms.form is not None
    assert check_quadratic(with_forms).passed
    assert direct_sum(a) == HomLieAlgebra.unchecked(3, a.brackets, a.phi, None)
    assert direct_sum() == HomLieAlgebra.unchecked(0, {}, (), ())


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: direct_sum(hyperbolic_triple()), "direct_sum argument 1 must be a HomLieAlgebra, got ManinTriple"),
        (lambda: direct_sum(sl2_lie(), "x"), "direct_sum argument 2 must be a HomLieAlgebra, got str"),
        (lambda: direct_sum(sl2_lie(), sl2_lie(), None), "direct_sum argument 3 must be a HomLieAlgebra, got NoneType"),
        (lambda: negate_form(hyperbolic_triple()), "negate_form argument 1 must be a HomLieAlgebra, got ManinTriple"),
        (lambda: negate_form(sl2_lie().brackets), "negate_form argument 1 must be a HomLieAlgebra, got dict"),
    ],
)
def test_sums_and_negations_refuse_what_is_not_an_algebra(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _built_without_a_check() -> list[HomLieAlgebra]:
    """Results of `direct_sum`, `negate_form`, `nuble` and `uble_of_uble` over
    the worked triples and over sums of twisted and untwisted sl2."""
    tw, lie = sl2_twisted(), sl2_lie()
    data = special_linear_data(2)
    triples = (hyperbolic_triple(), triple_g_plus_h(data), triple_double(data))
    out = [direct_sum(), direct_sum(tw), direct_sum(lie, lie), direct_sum(tw, lie, tw)]
    out += [direct_sum(direct_sum(lie, tw), lie), direct_sum(direct_sum(lie, lie), lie, direct_sum(tw))]
    formed_tw = HomLieAlgebra.unchecked(3, tw.brackets, tw.phi, data.algebra.form)
    out += [negate_form(formed_tw), direct_sum(data.algebra, negate_form(formed_tw)), negate_form(direct_sum(formed_tw))]
    for t in triples:
        h = t.algebra
        out += [negate_form(h), negate_form(negate_form(h)), direct_sum(h, negate_form(h), h)]
        out += [nuble(t, n).algebra for n in range(1, 9)]
        out += [uble_of_uble(t, 2, 3).algebra, uble_of_uble(t, 3, 2).algebra]
    return out


def test_sums_built_without_a_check_pass_it_and_know_their_twist():
    """Slow reference for the unchecked construction: each result, rebuilt
    through the validating positional constructor, raises nothing and equals
    itself, and the `untwisted` it was built with is the one computed afresh."""
    for h in _built_without_a_check():
        assert "untwisted" in vars(h)
        rebuilt = HomLieAlgebra(h.dim, h.brackets, h.phi_columns, h.form_rows, h.name)
        assert rebuilt == h
        assert type(h.phi_columns) is tuple and type(h.form_rows) in (tuple, type(None))
        assert "untwisted" not in vars(rebuilt) and rebuilt.untwisted == h.untwisted
    assert {h.untwisted for h in _built_without_a_check()} == {True, False}
