"""Split quadratic algebras: certifier, dual bases, canonical r, doubles."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import maninforge.core
import maninforge.homlie
import maninforge.manin
from helpers import (
    basis_image,
    dense_block_permutation,
    dense_check_homomorphism,
    dense_check_manin_isomorphism,
    dense_coboundary_cobracket,
    dense_double_cross_brackets,
    dense_dual_basis,
    dense_map_subspace,
    dense_of_columns,
    dense_r_from_splitting,
    dense_special_linear_data,
    rand_invertible,
    rand_subspace,
    rand_tensor,
    relabels,
    shear_product,
)
from maninforge import fileio
from maninforge.core import Permutation, SparseTensor, identity_matrix, inverse, matrix, sparse_columns, subspace_equal, Subspace, unit_vector
from maninforge.homlie import HomLieAlgebra, check_hom_jacobi, check_homomorphism, check_quadratic, direct_sum
from maninforge.manin import (
    ManinTriple,
    check_manin_isomorphism,
    check_manin_triple,
    coboundary_cobracket,
    double_from_bialgebra,
    dual_basis,
    hyperbolic_triple,
    lambda_st,
    r_from_splitting,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble, snake_permutation, uble_of_uble
from maninforge.rmatrix import check_quasi_triangular, sl2_lie, sl2_twisted

# Dual structure constants of the standard skew tensor's cobracket.
STANDARD_DUAL_TABLE = {(0, 1): {1: Fraction(-1, 2)}, (0, 2): {2: Fraction(-1, 2)}}


def worked_triples():
    data = special_linear_data(2)
    return (hyperbolic_triple(), triple_g_plus_h(data), triple_double(data))


# ---------------------------------------------------------------------------
# The certifier


def test_worked_triples_certify():
    for t in worked_triples():
        report = check_manin_triple(t)
        assert report.passed, f"{t.name}: {[f.check for f in report.failures]}"


def test_triple_dimensions_and_parts():
    hyp, gph, dbl = worked_triples()
    assert (hyp.dim, hyp.part1.dim, hyp.part2.dim) == (2, 1, 1)
    assert (gph.dim, gph.part1.dim, gph.part2.dim) == (4, 2, 2)
    assert (dbl.dim, dbl.part1.dim, dbl.part2.dim) == (6, 3, 3)
    # the double's first half is the diagonal copy
    assert dbl.part1.contains(tuple(Fraction(x) for x in (0, 1, 0, 0, 1, 0)))


def test_certifier_locates_non_isotropic_part():
    algebra = hyperbolic_triple().algebra
    bad = ManinTriple.of(algebra, [[1, 1]], [[0, 1]])
    report = check_manin_triple(bad)
    assert report.verdict == "fail"
    assert [f.check for f in report.failures] == ["part1.isotropic"]


def test_certifier_locates_non_subalgebra_part():
    """A crossed diagonal in the six-dimensional double is Lagrangian but not
    closed: its two root-vector generators bracket onto e0 - e3 outside it."""
    dbl = worked_triples()[2]
    mixed = ManinTriple.of(
        dbl.algebra,
        [[0, 1, 0, 0, 0, 1], [0, 0, 1, 0, 1, 0], [1, 0, 0, 1, 0, 0]],
        [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [1, 0, 0, -1, 0, 0]],
    )
    report = check_manin_triple(mixed)
    assert not report.passed
    assert {f.check for f in report.failures} == {"part1.subalgebra"}


def test_certifier_requires_direct_sum_split():
    algebra = hyperbolic_triple().algebra
    overlapping = ManinTriple.of(algebra, [[1, 0]], [[1, 0]])
    report = check_manin_triple(overlapping)
    assert not report.passed
    assert any("splitting" in f.check for f in report.failures)


def test_triple_requires_form():
    bare = HomLieAlgebra.create(2, {})
    with pytest.raises(ValueError):
        ManinTriple.of(bare, [[1, 0]], [[0, 1]]).form


@pytest.mark.parametrize("ambient", [14, 4])
@pytest.mark.parametrize("which", ["part1", "part2"])
def test_triple_rejects_a_half_of_another_ambient_dimension(ambient, which):
    d2 = triple_double(special_linear_data(2))
    halves = {"part1": d2.part1, "part2": d2.part2, which: Subspace.full(ambient)}
    with pytest.raises(ValueError, match=f"{which} has ambient dimension {ambient}, expected 6"):
        ManinTriple(d2.algebra, halves["part1"], halves["part2"])


# ---------------------------------------------------------------------------
# Dual bases and the canonical element


def test_dual_basis_gram_is_identity():
    for t in worked_triples():
        pair = dual_basis(t)
        assert pair.gram == identity_matrix(t.part1.dim)
        for xi in pair.xi_basis:
            assert t.part2.contains(xi)
        for x in pair.x_basis:
            assert t.part1.contains(x)


def test_canonical_r_hyperbolic():
    assert dict(r_from_splitting(hyperbolic_triple()).items()) == {(1, 0): Fraction(1)}


def test_canonical_r_g_plus_h():
    t = triple_g_plus_h(special_linear_data(2))
    assert dict(r_from_splitting(t).items()) == {
        (0, 0): Fraction(1, 4),
        (0, 3): Fraction(1, 4),
        (1, 2): Fraction(-1),
        (3, 0): Fraction(-1, 4),
        (3, 3): Fraction(-1, 4),
    }


def test_canonical_r_double():
    t = triple_double(special_linear_data(2))
    assert dict(r_from_splitting(t).items()) == {
        (0, 0): Fraction(1, 4),
        (0, 3): Fraction(1, 4),
        (2, 1): Fraction(-1),
        (2, 4): Fraction(-1),
        (3, 0): Fraction(-1, 4),
        (3, 3): Fraction(-1, 4),
        (4, 2): Fraction(1),
        (4, 5): Fraction(1),
    }


DUAL_BASIS_TRIPLES = {
    "hyperbolic": hyperbolic_triple,
    "g+h sl2": lambda: triple_g_plus_h(special_linear_data(2)),
    "g+h sl3": lambda: triple_g_plus_h(special_linear_data(3)),
    "D2": lambda: triple_double(special_linear_data(2)),
    "D3": lambda: triple_double(special_linear_data(3)),
    "D3x2": lambda: nuble(triple_double(special_linear_data(3)), 2),
}


@pytest.mark.parametrize("name", sorted(DUAL_BASIS_TRIPLES))
def test_dual_basis_and_canonical_r_match_the_dense_reference(name):
    t = DUAL_BASIS_TRIPLES[name]()
    pair = dual_basis(t)
    assert pair == dense_dual_basis(t)
    assert pair.gram == identity_matrix(t.part1.dim)
    assert r_from_splitting(t) == dense_r_from_splitting(t)


@pytest.mark.parametrize("name", sorted(DUAL_BASIS_TRIPLES))
def test_the_canonical_element_moves_with_a_change_of_basis(name):
    """The canonical element of the splitting does not depend on the basis of
    the first half: written in the basis formed by the columns of a shear p,
    it is the old one with p^-1 applied in each slot, while the dual basis
    pair still matches its dense reference."""
    t = DUAL_BASIS_TRIPLES[name]()
    p = shear_product(t.dim, 2 * t.dim, len(name))
    image = basis_image(t, p)
    pinv = inverse(p)
    assert dual_basis(image) == dense_dual_basis(image)
    assert r_from_splitting(image) == r_from_splitting(t).apply_per_slot([pinv, pinv])


# ---------------------------------------------------------------------------
# Triple isomorphisms


def test_identity_is_a_triple_isomorphism():
    for t in worked_triples():
        assert check_manin_isomorphism(sparse_columns(identity_matrix(t.dim)), t, t).passed


def test_form_scaling_breaks_isomorphism():
    hyp = hyperbolic_triple()
    report = check_manin_isomorphism(sparse_columns(matrix([[2, 0], [0, 1]])), hyp, hyp)
    assert not report.passed
    assert all(f.check == "form_preserved" for f in report.failures)


def test_half_swap_breaks_part_alignment():
    """Swapping the two coordinates preserves the form and the (zero) bracket
    but exchanges the halves."""
    hyp = hyperbolic_triple()
    report = check_manin_isomorphism(sparse_columns(matrix([[0, 1], [1, 0]])), hyp, hyp)
    assert {f.check for f in report.failures} == {"part1_image", "part2_image"}


def test_shape_mismatch_is_a_single_failure():
    hyp, gph = worked_triples()[:2]
    report = check_manin_isomorphism(sparse_columns(identity_matrix(2)), hyp, gph)
    assert [f.check for f in report.failures] == ["shape"]


@pytest.mark.parametrize(
    "f",
    [
        [{0: 1}],  # one column too few
        [{0: 1}, {1: 1}, {}],  # one column too many
        [{0: 1}, {2: 1}],  # a row index outside range(2)
        identity_matrix(2),  # dense rows, not mappings
        [{0.0: 1}, {1: 1}],  # a float row index equal to 0
        [{0: 1}, {True: 1}],  # a bool row index equal to 1
    ],
)
def test_non_square_or_ragged_map_is_a_single_shape_failure(f):
    """A row index that only compares equal to an int is not one: {0.0: 1}
    raised a TypeError from inside the pairings, {True: 1} a ValueError from
    inside `Subspace`."""
    hyp = hyperbolic_triple()
    report = check_manin_isomorphism(f, hyp, hyp)
    assert [(x.check, x.index) for x in report.failures] == [("shape", (2, 2, len(f)))]


def test_homomorphism_refuses_a_row_index_that_is_not_an_int():
    """{True: 1} was read as row 1 and the map passed."""
    h = hyperbolic_triple().algebra
    with pytest.raises(ValueError, match=r"column 1 has row index True outside range\(2\)"):
        check_homomorphism([{0: 1}, {True: 1}], h, h)


def _sigma(cols: list[dict]) -> list[int]:
    """sigma with cols[a] == {sigma[a]: 1}, for the columns of a relabelling."""
    return [next(iter(col)) for col in cols]


def _check_slot_regroupings(base: ManinTriple) -> None:
    """Every slot regrouping of the four-fold power of base, the snake and 23
    wrong ones, fails exactly as the dense reference says, and `relabels`
    certifies exactly the one that passes."""
    flat, nested = nuble(base, 4), uble_of_uble(base, 2, 2)
    passed = 0
    for images in itertools.permutations(range(4)):
        p = Permutation(images)
        cols = p.columns(base.dim)
        report = check_manin_isomorphism(cols, flat, nested)
        dense = dense_check_manin_isomorphism(dense_block_permutation(p, base.dim), flat, nested)
        assert report.failures == dense.failures, images
        assert relabels(_sigma(cols), flat, nested) == report.passed, images
        passed += report.passed
    assert passed == 1


def test_isomorphism_reports_match_the_dense_reference_on_slot_permutations():
    _check_slot_regroupings(triple_double(special_linear_data(2)))


def test_isomorphism_reports_match_the_dense_reference_on_sl3_slot_permutations():
    """The same at dim 64."""
    _check_slot_regroupings(triple_double(special_linear_data(3)))


def _matches_the_dense_reference(f: list[dict], t1: ManinTriple, t2: ManinTriple) -> bool:
    """Assert that the report on the map with sparse columns f lists the dense
    reference's failures, in its order; return whether it passed."""
    report = check_manin_isomorphism(f, t1, t2)
    assert report.failures == dense_check_manin_isomorphism(dense_of_columns(f, t2.dim), t1, t2).failures
    return report.passed


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2)])
def test_relabelled_reports_match_the_dense_reference_on_every_hyperbolic_slot_permutation(m, n):
    """All 6! slot permutations of the six-fold hyperbolic power onto the
    nested one are relabellings: each reports what the dense reference does,
    only the snake passes, and `relabels` certifies exactly the snake."""
    base = hyperbolic_triple()
    flat, nested = nuble(base, m * n), uble_of_uble(base, m, n)
    winners, certified = [], []
    for images in itertools.permutations(range(m * n)):
        cols = Permutation(images).columns(base.dim)
        if _matches_the_dense_reference(cols, flat, nested):
            winners.append(images)
        if relabels(_sigma(cols), flat, nested):
            certified.append(images)
    assert winners == certified == [snake_permutation(m, n).images]


def test_relabels_compares_stored_data_moved_to_new_keys():
    """The reference certifies the identity and the swap of the hyperbolic
    triple's two halves, and refuses the swap onto the triple itself."""
    t = hyperbolic_triple()
    swapped = ManinTriple(t.algebra, t.part2, t.part1)
    assert (relabels([0, 1], t, t), relabels([1, 0], t, swapped), relabels([1, 0], t, t)) == (True, True, False)


def _near_relabellings(cols: list[dict]) -> list[list[dict]]:
    """Copies of a relabelling with one column changed: its entry made -1, 2 or
    1/2 (first, middle and last column), or the row of another column."""
    out = []
    last = len(cols) - 1
    for c in (0, last // 2, last):
        ((r, _),) = cols[c].items()
        for entry in (-1, 2, Fraction(1, 2)):
            out.append([*cols[:c], {r: Fraction(entry)}, *cols[c + 1 :]])
    for c, other in ((0, 1), (last, 0), (last // 2, last)):
        out.append([*cols[:c], dict(cols[other]), *cols[c + 1 :]])
    return out


def test_near_relabellings_take_the_summing_path():
    """A snake map with one column off a unit, or with two columns on one
    row, is no relabelling, and it fails exactly as the dense reference
    says; the snake map itself passes."""
    d2 = triple_double(special_linear_data(2))
    flat, nested = nuble(d2, 4), uble_of_uble(d2, 2, 2)
    snake = snake_permutation(2, 2).columns(d2.dim)
    assert _matches_the_dense_reference(snake, flat, nested)
    for f in _near_relabellings(snake):
        assert not _matches_the_dense_reference(f, flat, nested)


def test_relabelled_halves_off_their_mates_rows_are_decided_by_the_generic_path():
    """Relabelled canonical rows of random subspaces are seldom canonical, so
    `relabels` seldom certifies, and its False decides nothing: the verdict
    is `check_manin_isomorphism`'s.  Each half's mate is its image, a larger
    space holding the image, or a random space of its dimension; the
    verdicts equal the dense reference's, and each map `relabels`
    certifies passes."""
    rng = random.Random(2407)
    n = 6
    h = HomLieAlgebra.unchecked(n, {}, form=identity_matrix(n))
    outcomes = set()
    for _ in range(60):
        p = Permutation(tuple(rng.sample(range(n), n)))
        parts = [rand_subspace(rng, n, rng.randint(1, n - 1)) for _ in range(2)]
        mates = []
        for q in parts:
            image = dense_map_subspace(dense_block_permutation(p, 1), q)
            superspace = Subspace.span(n, [*image.rows, [rng.randint(-4, 4) for _ in range(n)]])
            mates.append(rng.choice((image, superspace, rand_subspace(rng, n, q.dim))))
        t1, t2 = ManinTriple(h, *parts), ManinTriple(h, *mates)
        passed = _matches_the_dense_reference(p.columns(), t1, t2)
        certified = relabels(list(p.images), t1, t2)
        assert passed or not certified
        outcomes.add((passed, certified))
    assert {(True, False), (False, False)} <= outcomes


def test_homomorphism_reports_match_the_dense_reference_on_relabellings_of_twisted_sums():
    """Slot permutations and seeded coordinate permutations between sums of
    twisted and untwisted sl2 copies: the brackets of the columns are read off
    the twisted target's table (some with a swapped, negated key), and every
    report equals the dense reference's."""
    tw, lie = sl2_twisted(), sl2_lie()
    source = direct_sum(tw, lie, tw)
    rng = random.Random(2408)
    maps = [Permutation(images).columns(3) for images in itertools.permutations(range(3))]
    maps += [Permutation(tuple(rng.sample(range(9), 9))).columns() for _ in range(30)]
    checks = set()
    for target in (source, direct_sum(tw, tw, lie)):
        for f in maps:
            report = check_homomorphism(f, source, target)
            assert report.failures == dense_check_homomorphism(dense_of_columns(f, 9), source, target).failures
            checks.update(x.check for x in report.failures)
            if report.passed:
                checks.add("pass")
    assert checks == {"pass", "twist_intertwine", "bracket_preserved"}
    back = [{next(iter(col)): a for a, col in enumerate(f)} for f in maps]
    assert any(b[i] > b[j] for b in back for i, j in source.brackets)


def _bracket_edits(h: HomLieAlgebra) -> list[dict]:
    """Copies of h's bracket table with one key off: a stored entry changed,
    a key added, a key deleted, and a key moved to a pair that had none (so
    the key counts still agree)."""
    key = list(h.brackets)[len(h.brackets) // 2]
    ((k, c), *rest) = h.brackets[key].items()
    changed = {**h.brackets, key: {k: c + 1 if c != -1 else c + 2, **dict(rest)}}
    free = next((a, b) for a in range(h.dim) for b in range(a + 1, h.dim) if (a, b) not in h.brackets)
    missing = {index: coeffs for index, coeffs in h.brackets.items() if index != key}
    return [changed, {**h.brackets, free: {0: Fraction(1)}}, missing, {**missing, free: h.brackets[key]}]


def _with_brackets(t: ManinTriple, brackets: dict) -> ManinTriple:
    h = t.algebra
    return ManinTriple(HomLieAlgebra(h.dim, brackets, h.phi_columns, h.form_rows), t.part1, t.part2)


def test_relabelled_brackets_off_the_stored_keys_fail_as_the_dense_reference_says():
    """The snake map between powers of D2 whose bracket tables have one key
    off, on either side: the stored keys do not match, so `relabels` does
    not certify it, and the failures are the dense reference's, all of them
    on brackets."""
    d2 = triple_double(special_linear_data(2))
    flat, nested = nuble(d2, 4), uble_of_uble(d2, 2, 2)
    snake = snake_permutation(2, 2).columns(d2.dim)
    assert _matches_the_dense_reference(snake, flat, nested) and relabels(_sigma(snake), flat, nested)
    pairs = [(flat, _with_brackets(nested, edited)) for edited in _bracket_edits(nested.algebra)]
    pairs += [(_with_brackets(flat, edited), nested) for edited in _bracket_edits(flat.algebra)]
    for source, target in pairs:
        assert not _matches_the_dense_reference(snake, source, target)
        assert not relabels(_sigma(snake), source, target)
        assert {x.check for x in check_manin_isomorphism(snake, source, target).failures} == {"bracket_preserved"}


def _relabelled_algebra(h: HomLieAlgebra, sigma: tuple[int, ...], brackets: dict | None = None) -> HomLieAlgebra:
    """h, or h with the given bracket table, with each basis vector b_a
    renamed b_sigma(a): a key (i, j) goes to (sigma(i), sigma(j)), negated
    and swapped when sigma(i) > sigma(j)."""
    table = {}
    for (i, j), coeffs in (h.brackets if brackets is None else brackets).items():
        a, b = sigma[i], sigma[j]
        sign = 1 if a < b else -1
        table[min(a, b), max(a, b)] = {sigma[k]: sign * c for k, c in coeffs.items()}
    phi = [{}] * h.dim
    for i, col in enumerate(h.phi_columns):
        phi[sigma[i]] = {sigma[k]: v for k, v in col.items()}
    return HomLieAlgebra(h.dim, table, phi)


def test_relabellings_that_flip_keys_on_a_twisted_sum_match_the_dense_reference():
    """Seeded relabellings sigma of a sum of twisted and untwisted sl2 onto
    the sum renamed by sigma, which flips keys (sigma(i) > sigma(j)): each
    passes.  With one stored entry changed at any key of the source, or one
    key off in the target, each report equals the dense reference's."""
    source = direct_sum(sl2_twisted(), sl2_lie(), sl2_twisted())
    rng = random.Random(2501)
    sigmas = [tuple(range(8, -1, -1))] + [tuple(rng.sample(range(9), 9)) for _ in range(12)]
    assert all(any(s[i] > s[j] for i, j in source.brackets) for s in sigmas)
    for sigma in sigmas:
        f = Permutation(sigma).columns()
        target = _relabelled_algebra(source, sigma)
        assert check_homomorphism(f, source, target).passed
        targets = [_relabelled_algebra(source, sigma, edited) for edited in _changed_entries(source)]
        targets += [HomLieAlgebra(9, edited, target.phi_columns) for edited in _bracket_edits(target)]
        for wrong in targets:
            report = check_homomorphism(f, source, wrong)
            assert report.failures == dense_check_homomorphism(dense_of_columns(f, 9), source, wrong).failures
            assert {x.check for x in report.failures} == {"bracket_preserved"}


def _changed_entries(h: HomLieAlgebra) -> list[dict]:
    """Copies of h's bracket table with one stored entry doubled, one copy per key."""
    out = []
    for key, coeffs in h.brackets.items():
        ((k, c), *rest) = coeffs.items()
        out.append({**h.brackets, key: {k: 2 * c, **dict(rest)}})
    return out


@given(st.integers(0, 2**30), st.sampled_from((0, 1, 2)))
def test_isomorphism_reports_match_the_dense_reference_on_random_maps(seed, which):
    t = worked_triples()[which]
    f = rand_invertible(random.Random(seed), t.dim)
    report = check_manin_isomorphism(sparse_columns(f), t, t)
    assert report.failures == dense_check_manin_isomorphism(f, t, t).failures


@given(st.integers(0, 2**30), st.sampled_from((0, 1, 2)))
def test_isomorphism_reports_match_the_dense_reference_with_an_unsymmetric_form(seed, which):
    """One form entry of the target changed on one side of the diagonal only,
    so the pulled-back residual is not symmetric either."""
    rng = random.Random(seed)
    t = worked_triples()[which]
    i, j = rng.sample(range(t.dim), 2)
    form = [list(row) for row in t.form]
    form[i][j] += rng.choice((-2, -1, 1, 2))
    h = t.algebra
    skewed = ManinTriple(HomLieAlgebra.unchecked(h.dim, h.brackets, h.phi, form), t.part1, t.part2)
    for f in (identity_matrix(t.dim), rand_invertible(rng, t.dim)):
        for source, target in ((t, skewed), (skewed, t)):
            report = check_manin_isomorphism(sparse_columns(f), source, target)
            assert report.failures == dense_check_manin_isomorphism(f, source, target).failures
    report = check_manin_isomorphism(sparse_columns(identity_matrix(t.dim)), t, skewed)
    assert [(x.check, x.index) for x in report.failures] == [("form_preserved", (i, j))]


# ---------------------------------------------------------------------------
# Doubles of an algebra with a cobracket


def test_coboundary_cobracket_of_standard_skew_tensor():
    data = special_linear_data(2)
    assert coboundary_cobracket(sl2_lie(), lambda_st(data)) == STANDARD_DUAL_TABLE


def test_coboundary_cobracket_matches_the_dense_reference():
    rng = random.Random(71)
    for k in (2, 3):
        data = special_linear_data(k)
        g = data.algebra
        assert coboundary_cobracket(g, lambda_st(data)) == dense_coboundary_cobracket(g, lambda_st(data))
        for _ in range(10):
            t = rand_tensor(rng, 2, g.dim, fill=6)
            for lam in (t - t.swap(), t):  # only the entries above the diagonal are read
                assert coboundary_cobracket(g, lam) == dense_coboundary_cobracket(g, lam)


# Without the checks, on sl2 the dim-5 tensor gives bracket keys past the
# algebra and the dim-2 one is read as if embedded in dim 3; on the twisted
# sl2 the twist is ignored.
COBRACKET_REJECTS = {
    "dim 2": (sl2_lie, SparseTensor.from_entries(2, 2, {(0, 1): 1, (1, 0): -1}), "got degree 2 and dimension 2"),
    "dim 5": (sl2_lie, SparseTensor.from_entries(2, 5, {(1, 4): 1, (4, 1): -1}), "got degree 2 and dimension 5"),
    "degree 1": (sl2_lie, SparseTensor.from_entries(1, 3, {(1,): 1}), "got degree 1 and dimension 3"),
    "degree 3": (sl2_lie, SparseTensor.from_entries(3, 3, {(0, 1, 2): 1}), "got degree 3 and dimension 3"),
    "twisted": (sl2_twisted, lambda_st(special_linear_data(2)), "the double construction needs an untwisted algebra"),
}


@pytest.mark.parametrize("case", sorted(COBRACKET_REJECTS))
def test_coboundary_cobracket_rejects_a_wrong_shape_or_a_twist(case):
    algebra, lam, message = COBRACKET_REJECTS[case]
    with pytest.raises(ValueError, match=message):
        coboundary_cobracket(algebra(), lam)


def test_zero_cobracket_double_certifies():
    t = double_from_bialgebra(sl2_lie(), {})
    assert t.dim == 6
    assert check_manin_triple(t).passed
    # dual copy is abelian, cross brackets are coadjoint
    assert t.algebra.bracket_basis(3, 4) == {}
    assert t.algebra.bracket_basis(0, 4) == {4: Fraction(2)}


def test_standard_cobracket_double_certifies():
    t = double_from_bialgebra(sl2_lie(), STANDARD_DUAL_TABLE)
    assert check_manin_triple(t).passed
    assert subspace_equal(t.part1, Subspace.span(6, [unit_vector(6, i) for i in range(3)]))


def test_incompatible_cobracket_fails_ambient_jacobi():
    """Flipping one sign keeps the dual bracket a Lie bracket but breaks the
    mixed-term compatibility, which surfaces as an ambient twisted-Jacobi failure."""
    flipped = {(0, 1): {1: Fraction(-1, 2)}, (0, 2): {2: Fraction(1, 2)}}
    t = double_from_bialgebra(sl2_lie(), flipped)
    report = check_manin_triple(t)
    assert not report.passed
    assert any(f.check == "hom_jacobi" for f in report.failures)


def test_double_rejects_twisted_base():
    with pytest.raises(ValueError):
        double_from_bialgebra(sl2_twisted(), {})


def test_double_rejects_non_lie_inputs():
    broken = HomLieAlgebra.unchecked(3, {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}})
    with pytest.raises(ValueError):
        double_from_bialgebra(broken, {})
    with pytest.raises(ValueError):
        double_from_bialgebra(sl2_lie(), {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}})


@pytest.mark.parametrize("k", [2, 3])
def test_double_brackets_match_the_dense_reference(k):
    """The base and dual copies, and the cross brackets against the d^2 loop,
    for the zero table, the coboundary table of the standard skew tensor and,
    on sl2, a table that is not compatible."""
    data = special_linear_data(k)
    g = data.algebra
    tables = [{}, coboundary_cobracket(g, lambda_st(data))]
    if k == 2:
        tables += [STANDARD_DUAL_TABLE, {(0, 1): {1: Fraction(-1, 2)}, (0, 2): {2: Fraction(1, 2)}}]
    d = g.dim
    for table in tables:
        expected = dict(g.brackets)
        expected.update({(d + a, d + b): {d + c: v for c, v in coeffs.items()} for (a, b), coeffs in table.items()})
        expected.update(dense_double_cross_brackets(g, table))
        assert double_from_bialgebra(g, table).algebra.brackets == expected


def test_double_pairing_form_is_hyperbolic():
    t = double_from_bialgebra(sl2_lie(), {})
    form = t.form
    for i in range(6):
        for j in range(6):
            assert form[i][j] == (1 if abs(i - j) == 3 else 0)


# ---------------------------------------------------------------------------
# Root data


def test_special_linear_data_rank_two():
    data = special_linear_data(2)
    assert data.algebra.dim == 3
    assert (data.cartan, data.negatives, data.positives) == ((0,), (1,), (2,))
    assert data.algebra.form == matrix([[2, 0, 0], [0, 0, -1], [0, -1, 0]])
    assert data.algebra.bracket_basis(1, 2) == {0: Fraction(1)}


def test_special_linear_data_rank_three():
    data = special_linear_data(3)
    h = data.algebra
    assert h.dim == 8
    assert len(data.cartan) == 2 and len(data.negatives) == 3 and len(data.positives) == 3
    assert check_hom_jacobi(h).passed
    assert check_quadratic(h).passed
    # matched pairs close onto the Cartan subalgebra
    for neg, pos in zip(data.negatives, data.positives):
        image = h.bracket_basis(neg, pos)
        assert image and all(k in data.cartan for k in image)


@pytest.mark.parametrize("k, dim, keys", [(4, 15, 60), (5, 24, 126)])
def test_special_linear_data_beyond_rank_two(k, dim, keys):
    """Frozen sizes of sl4 and sl5; their doubles and g+h triples certify, and
    the r-matrix of each splitting is quasi-triangular."""
    data = special_linear_data(k)
    h = data.algebra
    assert (h.dim, len(h.brackets)) == (dim, keys)
    assert (len(data.cartan), len(data.negatives), len(data.positives)) == (k - 1, (dim - k + 1) // 2, (dim - k + 1) // 2)
    for t, triple_dim in ((triple_double(data), 2 * dim), (triple_g_plus_h(data), dim + k - 1)):
        assert t.algebra.dim == triple_dim
        assert check_manin_triple(t).passed
        assert check_quasi_triangular(t.algebra, r_from_splitting(t)).verdict == "quasi-triangular"


@pytest.mark.parametrize("k", range(2, 7))
def test_special_linear_data_matches_the_dense_reference(k):
    """The matrix-unit rule reproduces the frozen dense solve exactly: bracket
    keys and entry order, values and their types, the form's rows, the name,
    the root indices and the text of the double."""
    data, ref = special_linear_data(k), dense_special_linear_data(k)
    h, g = data.algebra, ref.algebra
    typed = lambda coeffs: [(i, type(v), v) for i, v in coeffs.items()]
    assert [(key, typed(c)) for key, c in h.brackets.items()] == [(key, typed(c)) for key, c in g.brackets.items()]
    assert [typed(row) for row in h.form_rows] == [typed(row) for row in g.form_rows]
    assert (h.name, h.dim, h.phi_columns) == (g.name, g.dim, g.phi_columns)
    roots = lambda d: (d.rank, d.cartan, d.negatives, d.positives)
    assert roots(data) == roots(ref)
    assert fileio.format_triple(triple_double(data)) == fileio.format_triple(triple_double(ref))


def test_special_linear_data_solves_no_linear_system(monkeypatch):
    """Work-count guard: the coordinates are read off the matrix units, so no
    dense product or row reduction runs."""

    def refuse(*args):
        raise AssertionError("dense rref or mat_mul called")

    for module in (maninforge.core, maninforge.homlie, maninforge.manin):
        for name in ("rref", "mat_mul"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for k in range(2, 7):
        assert special_linear_data(k).algebra.dim == k * k - 1


@pytest.mark.parametrize("k", [1, 0, -2, 4.0, "3", True, None])
def test_special_linear_data_rejects_other_ranks(k):
    with pytest.raises(ValueError, match="k must be an int of at least 2"):
        special_linear_data(k)


def test_lambda_st_values():
    data = special_linear_data(2)
    assert dict(lambda_st(data).items()) == {
        (1, 2): Fraction(1, 2),
        (2, 1): Fraction(-1, 2),
    }
    lam3 = lambda_st(special_linear_data(3))
    assert len(lam3.items()) == 6
    assert lam3.swap() == -lam3
