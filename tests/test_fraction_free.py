"""The integer kernels, which sum numerators over one common denominator: the
scaling helper's contract; the Yang-Baxter kernels and the Manin-triple
certifier's kernels exact under large pairwise-coprime denominators against
the dense references; elimination, sparse maps and subspace membership against
their Fraction references; the twist checks the identity twist skips; the
invariant that every value the kernels return is a nonzero Fraction; and counts
of the Fraction arithmetic a passing certificate still does."""
from __future__ import annotations

import inspect
import json
import random
import sys
from fractions import Fraction
from math import gcd, prod

import pytest

from helpers import (
    SL2_FORM,
    assert_stabilizer_witnesses,
    basis_image,
    conjugate_algebra,
    dense_check_hom_ad_invariant,
    dense_check_hom_jacobi,
    dense_check_manin_isomorphism,
    dense_check_quadratic,
    dense_check_twist_morphism,
    dense_dual_basis,
    dense_hcyb,
    dense_hom_schouten,
    dense_part_report,
    dense_r_from_splitting,
    dense_stabilizer_report,
    fraction_apply_columns,
    fraction_by_slot,
    fraction_contains_sparse,
    fraction_determinant,
    fraction_gauss_jordan,
    fraction_hom_schouten,
    fraction_phi_fixed,
    fraction_quasi_triangular,
    fraction_sharp_columns,
    fraction_skew_sym_split,
    fraction_symmetric_part,
    frozen_brackets_outside,
    frozen_format_algebra,
    frozen_format_subspace,
    frozen_format_triple,
    frozen_images_outside,
    frozen_part_report,
    frozen_r_from_splitting,
    pairwise_hcyb,
    rand_phi_fixed_skew,
    shear_product,
    tuple_index_hcyb,
    wedge3_basis,
)
from maninforge.cli import run as cli_run
from maninforge.core import (
    ONE,
    ZERO,
    Matrix,
    Permutation,
    SparseTensor,
    Subspace,
    _annihilator_rows,
    _apply_columns,
    _common_denominator,
    _eliminated,
    _gauss_jordan,
    _images_outside,
    _integer_row,
    _orthogonal_rows,
    _quotients,
    _span,
    _symmetric_part,
    _unit_columns,
    determinant,
    identity_matrix,
    inverse,
    is_antisymmetric,
    is_symmetric,
    matrix,
    matrix_rank,
    sparse_columns,
    subspace_equal,
    tensor_skew_sym_split,
)
from maninforge.fileio import (
    format_algebra,
    format_subspace,
    format_tensor,
    format_triple,
    parse_algebra,
    parse_subspace,
    parse_triple,
)
from maninforge.homlie import (
    HomLieAlgebra,
    _ad_basis,
    _brackets_outside,
    _by_slot,
    _pair_brackets,
    _pairings,
    _phi_fixed,
    _twist_outside,
    check_hom_jacobi,
    check_homomorphism,
    check_involutive,
    check_quadratic,
    check_twist_morphism,
    direct_sum,
)
from maninforge.manin import (
    ManinTriple,
    _part_report,
    check_manin_isomorphism,
    check_manin_triple,
    dual_basis,
    hyperbolic_triple,
    r_from_splitting,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble
from maninforge import homlie, rmatrix
from maninforge.rmatrix import (
    _sharp_columns,
    check_hom_ad_invariant,
    check_quasi_triangular,
    cyb,
    hcyb,
    hom_schouten,
    sl2_lie,
    sl2_r,
    sl2_twisted,
)
from maninforge.reporting import CheckReport, render_vector
from maninforge.stabilizer import stabilizer_report

# Pairwise coprime, so that a wrong lcm or a lost division changes a value.
HOSTILE = (7, 11, 13, 17, 19, 23)


# ---------------------------------------------------------------------------
# The helper


def _naive_lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v.denominator // gcd(out, v.denominator)
    return out


FAMILIES = {
    "empty": [],
    "zero": [0],
    "ints": [3, -4, 0, 12],
    "mixed": [Fraction(1, 2), -3, Fraction(-2, 3), 0, Fraction(5, 6)],
    "negatives": [Fraction(-1, 7), Fraction(-3, 11), -5, Fraction(-13, 13)],
    "hostile": [Fraction(i + 1, d) for i, d in enumerate(HOSTILE)],
    "beyond 2^64": [Fraction(1, 2**61 - 1), Fraction(-5, 2**31 - 1), Fraction(7, 3**20), 11],
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_common_denominator_contract(name):
    values = FAMILIES[name]
    den, numerators = _common_denominator(values)
    assert den == _naive_lcm(values) and den >= 1
    assert all(type(n) is int for n in numerators)
    assert [Fraction(n, den) for n in numerators] == values


def test_common_denominator_beyond_64_bits():
    den, numerators = _common_denominator(FAMILIES["beyond 2^64"])
    assert den > 2**64
    assert den == (2**61 - 1) * (2**31 - 1) * 3**20
    assert numerators[-1] == 11 * den


def test_common_denominator_of_the_first_primes():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    values = [Fraction((-1) ** p, p) for p in primes]
    den, numerators = _common_denominator(values)
    assert den == prod(primes) > 2**64
    assert [Fraction(n, den) for n in numerators] == values


# ---------------------------------------------------------------------------
# Hostile denominators


def _hostile_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice(HOSTILE))


def hostile_unchecked(seed: int, dim: int = 5) -> HomLieAlgebra:
    """Brackets and a twist whose entries have the denominators in HOSTILE.  Not
    a twisted Lie algebra: the kernels and the references both evaluate the
    defining formulas, so those are compared on any structure constants."""
    rng = random.Random(seed)
    brackets = {
        (i, j): {k: _hostile_fraction(rng) for k in rng.sample(range(dim), 2)}
        for i in range(dim)
        for j in range(i + 1, dim)
        if rng.randrange(3)
    }
    phi = [[_hostile_fraction(rng) if rng.randrange(3) == 0 else 0 for _ in range(dim)] for _ in range(dim)]
    return HomLieAlgebra.unchecked(dim, brackets, phi)


def hostile_sl2() -> HomLieAlgebra:
    """The twisted sl2 in a basis with entries 1/7, 1/11 and 1/13: a twisted
    Lie algebra with an involutive twist, whose structure constants and twist
    carry large denominators."""
    p = matrix([[1, Fraction(1, 7), 0], [0, 1, Fraction(1, 11)], [Fraction(1, 13), 0, 1]])
    return conjugate_algebra(sl2_twisted(), p)


def hostile_tensor(rng: random.Random, dim: int, fill: int) -> SparseTensor:
    t = SparseTensor.zero(2, dim)
    for _ in range(fill):
        t.add_into((rng.randrange(dim), rng.randrange(dim)), _hostile_fraction(rng))
    return t


def hostile_vector(rng: random.Random, dim: int) -> SparseTensor:
    return SparseTensor(1, dim, {(i,): _hostile_fraction(rng) for i in rng.sample(range(dim), 2)})


HOSTILE_ALGEBRAS = {
    "sl2 in a hostile basis": hostile_sl2,
    "unchecked 5 a": lambda: hostile_unchecked(17),
    "unchecked 5 b": lambda: hostile_unchecked(19),
    "unchecked 6": lambda: hostile_unchecked(23, dim=6),
}


def test_hostile_sl2_is_a_twisted_lie_algebra_with_large_denominators():
    h = hostile_sl2()
    assert check_involutive(h)
    denominators = {v.denominator for coeffs in h.brackets.values() for v in coeffs.values()}
    denominators |= {v.denominator for col in h.phi_columns for v in col.values()}
    assert max(denominators) > 1000 and len(denominators) > 3


@pytest.mark.parametrize("name", sorted(HOSTILE_ALGEBRAS))
def test_residuals_match_the_dense_reference_under_hostile_denominators(name):
    h = HOSTILE_ALGEBRAS[name]()
    untwisted = HomLieAlgebra.unchecked(h.dim, h.brackets)
    rng = random.Random(name)
    nonzero = 0
    for fill in (1, 3, 6, 10):
        r = hostile_tensor(rng, h.dim, fill)
        residual = hcyb(h, r)
        assert dense_hcyb(h, r) == dict(residual.items()) == pairwise_hcyb(h, r)
        assert dense_hcyb(untwisted, r) == dict(cyb(h, r).items())
        nonzero += not residual.is_zero
    assert nonzero >= 2


@pytest.mark.parametrize("name", sorted(HOSTILE_ALGEBRAS))
def test_invariance_and_graded_bracket_match_the_dense_references_under_hostile_denominators(name):
    h = HOSTILE_ALGEBRAS[name]()
    rng = random.Random(name)
    for fill in (2, 5, 9):
        lam, s = tensor_skew_sym_split(hostile_tensor(rng, h.dim, fill))
        other, _ = tensor_skew_sym_split(hostile_tensor(rng, h.dim, fill))
        for t in (s, lam):
            assert check_hom_ad_invariant(h, t).to_json() == dense_check_hom_ad_invariant(h, t).to_json()
        x = hostile_vector(rng, h.dim)
        for a, b in ((x, lam), (lam, x), (lam, other), (lam, lam)):
            assert hom_schouten(h, a, b) == dense_hom_schouten(h, a, b)


def test_pairwise_reference_matches_the_dense_one():
    rng = random.Random(5)
    for make in (sl2_twisted, hostile_sl2, lambda: hostile_unchecked(31)):
        h = make()
        for fill in (2, 6):
            r = hostile_tensor(rng, h.dim, fill)
            assert pairwise_hcyb(h, r) == dense_hcyb(h, r)


def test_perturbed_canonical_r_of_the_d3_square_keeps_its_exact_residual():
    """One entry of the canonical r of nuble(D3, 2) moved by 7/11: the residual
    is nonzero and equals the pairwise reference (`dense_hcyb` would take
    hours at dim 32), and the invariance report equals the dense one."""
    t = nuble(triple_double(special_linear_data(3)), 2)
    h, r = t.algebra, r_from_splitting(t)
    assert check_quasi_triangular(h, r).verdict == "quasi-triangular"
    entries = dict(r.entries)
    index = sorted(entries)[len(entries) // 3]
    entries[index] += Fraction(7, 11)
    perturbed = SparseTensor(2, h.dim, entries)
    report = check_quasi_triangular(h, perturbed)
    assert report.verdict == "fails"
    assert not report.hcyb_residual.is_zero
    assert dict(report.hcyb_residual.items()) == pairwise_hcyb(h, perturbed)
    assert {v.denominator for v in report.hcyb_residual.entries.values()} & {11, 121}
    _, s = tensor_skew_sym_split(perturbed)
    assert check_hom_ad_invariant(h, s).to_json() == dense_check_hom_ad_invariant(h, s).to_json()


# ---------------------------------------------------------------------------
# What the kernels return


def _all_nonzero_fractions(values) -> bool:
    return all(type(v) is Fraction and v != 0 for v in values)


def test_kernel_values_are_nonzero_fractions_for_int_and_fraction_input():
    rng = random.Random(11)
    for h in (sl2_twisted(), hostile_sl2(), hostile_unchecked(3)):
        ints = SparseTensor(2, h.dim, {(0, 1): 2, (1, 2): -1, (2, 0): 3, (1, 1): 1})
        for r in (ints, hostile_tensor(rng, h.dim, 6)):
            residual = hcyb(h, r)
            assert not residual.is_zero and _all_nonzero_fractions(residual.entries.values())
            assert _all_nonzero_fractions(cyb(h, r).entries.values())
            actions = _ad_basis(h, r)
            assert actions and all(w and _all_nonzero_fractions(w.values()) for w in actions.values())


def test_entries_that_cancel_are_absent():
    """On the canonical r of D3 every term of the residual and of the
    invariance of its symmetric part cancels: nothing is returned, not zeros,
    although the same kernels return entries for a perturbed r."""
    t = triple_double(special_linear_data(3))
    h, r = t.algebra, r_from_splitting(t)
    _, s = tensor_skew_sym_split(r)
    assert hcyb(h, r).entries == {}
    assert _ad_basis(h, s) == {}
    perturbed = r + SparseTensor(2, h.dim, {(0, 1): Fraction(7, 11)})
    assert hcyb(h, perturbed).entries and _ad_basis(h, tensor_skew_sym_split(perturbed)[1])
    for w in _ad_basis(h, perturbed).values():
        assert _all_nonzero_fractions(w.values())


# ---------------------------------------------------------------------------
# The Manin-triple certifier under hostile denominators


def hostile_basis(dim: int, seed: int, shears: int) -> Matrix:
    """A seeded product of shears I + s E_ab, each s of a denominator in
    HOSTILE: a change of basis whose entries carry those denominators."""
    return shear_product(dim, shears, seed, _hostile_fraction)


def perturbed_algebra(h: HomLieAlgebra, what: str) -> HomLieAlgebra:
    """h with one entry moved by a fraction of denominator 17, 19 or 23: the
    first structure constant, a form entry above the diagonal only, or a twist
    entry."""
    brackets = {key: dict(coeffs) for key, coeffs in h.brackets.items()}
    phi, form = [list(row) for row in h.phi], [list(row) for row in h.form]
    if what == "constant":
        key = next(iter(brackets))
        k = next(iter(brackets[key]))
        brackets[key][k] += Fraction(5, 17)
    elif what == "form":
        form[0][h.dim - 1] += Fraction(3, 19)
    else:
        phi[1][2] += Fraction(2, 23)
    return HomLieAlgebra.unchecked(h.dim, brackets, phi, form)


def twisted_sl2_pair() -> HomLieAlgebra:
    """Two twisted sl2s with their invariant forms, in a hostile basis: a
    quadratic twisted Lie algebra whose twist has entries of denominators 7-23."""
    sl2 = sl2_twisted()
    quadratic = HomLieAlgebra.unchecked(3, sl2.brackets, sl2.phi, SL2_FORM)
    return conjugate_algebra(direct_sum(quadratic, quadratic), hostile_basis(6, 41, 8))


D2 = triple_double(special_linear_data(2))
D2_IMAGE = basis_image(D2, hostile_basis(D2.dim, 7, 10))


def hostile_triples() -> dict[str, ManinTriple]:
    rng = random.Random(43)
    image = D2_IMAGE
    out = {"D2 image": image}
    for what in ("constant", "form", "phi"):
        moved = perturbed_algebra(image.algebra, what)
        out[f"D2 image, {what} moved"] = ManinTriple(moved, image.part1, image.part2)
    twisted = twisted_sl2_pair()
    halves = [Subspace.span(6, [[_hostile_fraction(rng) for _ in range(6)] for _ in range(k)]) for k in (2, 3)]
    out["twisted sl2 pair"] = ManinTriple(twisted, *halves)
    return out


HOSTILE_TRIPLES = hostile_triples()


def test_hostile_triples_carry_large_denominators_and_a_fractional_twist():
    h = D2_IMAGE.algebra
    assert max(v.denominator for coeffs in h.brackets.values() for v in coeffs.values()) > 1000
    assert max(v.denominator for row in h.form_rows for v in row.values()) > 1000
    assert max(v.denominator for row in D2_IMAGE.part1.echelon for v in row.values()) > 100
    twisted = HOSTILE_TRIPLES["twisted sl2 pair"].algebra
    assert check_involutive(twisted) and not twisted.untwisted
    assert max(v.denominator for col in twisted.phi_columns for v in col.values()) > 1000


@pytest.mark.parametrize("name", sorted(HOSTILE_TRIPLES))
def test_certifier_kernels_match_the_dense_references_under_hostile_denominators(name):
    t = HOSTILE_TRIPLES[name]
    h = t.algebra
    reports = {
        "hom_jacobi": (check_hom_jacobi(h), dense_check_hom_jacobi(h)),
        "twist_morphism": (check_twist_morphism(h), dense_check_twist_morphism(h)),
        "quadratic": (check_quadratic(h), dense_check_quadratic(h)),
        "part1": (_part_report(t, t.part1, "part1"), dense_part_report(t, t.part1, "part1")),
        "part2": (_part_report(t, t.part2, "part2"), dense_part_report(t, t.part2, "part2")),
    }
    for check, (fast, dense) in reports.items():
        assert fast.to_json() == dense.to_json(), check
    failing = {f.check for fast, _ in reports.values() for f in fast.failures}
    assert failing == {
        "D2 image": set(),
        "D2 image, constant moved": {"hom_jacobi", "invariant", "subalgebra"},
        "D2 image, form moved": {"symmetric", "invariant", "isotropic"},
        "D2 image, phi moved": {"hom_jacobi", "twist_morphism", "twist_self_adjoint", "twist_stable"},
        "twisted sl2 pair": {"isotropic", "subalgebra", "twist_stable"},
    }[name]


@pytest.mark.parametrize("name", ["unchecked 5 a", "unchecked 6"])
def test_jacobi_and_twist_checks_match_the_dense_references_on_unchecked_hostile_algebras(name):
    """Random hostile structure constants and twists: most triples fail, each
    with its exact residual."""
    h = HOSTILE_ALGEBRAS[name]()
    jacobi = check_hom_jacobi(h)
    assert jacobi.to_json() == dense_check_hom_jacobi(h).to_json()
    assert len(jacobi.failures) > 20
    assert check_twist_morphism(h).to_json() == dense_check_twist_morphism(h).to_json()


def test_isomorphism_and_dual_basis_match_the_dense_references_under_hostile_denominators():
    """The hostile change of basis maps the image of D2 onto D2; one entry of
    it moved by 1/13 breaks the bracket, the form and the halves."""
    p = hostile_basis(D2.dim, 7, 10)
    rows = [list(row) for row in p]
    rows[2][3] += Fraction(1, 13)
    for f, passes in ((p, True), (matrix(rows), False)):
        report = check_manin_isomorphism(sparse_columns(f), D2_IMAGE, D2)
        assert report.to_json() == dense_check_manin_isomorphism(f, D2_IMAGE, D2).to_json()
        assert report.passed == passes
    assert {x.check for x in report.failures} >= {"bracket_preserved", "form_preserved"}
    for t in (D2_IMAGE, HOSTILE_TRIPLES["D2 image, form moved"]):
        pair = dual_basis(t)
        assert pair == dense_dual_basis(t)
        assert r_from_splitting(t) == dense_r_from_splitting(t)
    assert pair.gram == identity_matrix(D2.dim // 2)


@pytest.mark.parametrize("name", ["D2 image", "twisted sl2 pair"])
def test_stabilizer_conditions_match_the_dense_references_under_hostile_denominators(name):
    """The stabilizer report on the halves of the triple and on hostile random
    subspaces, with S the inverse form and a hostile symmetric S, equals the
    dense reference, witnesses included; both verdicts occur for each
    condition that can fail."""
    rng = random.Random(name)
    t = HOSTILE_TRIPLES[name]
    h, form = t.algebra, t.form
    raw = hostile_tensor(rng, h.dim, 6)
    tensors = (SparseTensor.from_matrix(inverse(form)), (raw + raw.swap()).scale(Fraction(1, 2)))
    sparse_row = lambda: [_hostile_fraction(rng) if rng.randrange(2) else 0 for _ in range(h.dim)]
    spaces = [t.part1, t.part2, Subspace.full(h.dim)]
    spaces += [Subspace.span(h.dim, [sparse_row() for _ in range(k)]) for k in (1, 2, 3, 4, 5)]
    seen: dict[str, set] = {}
    for q in spaces:
        for s in tensors:
            report = stabilizer_report(h, s, q, h.form_rows)
            assert report.to_json() == dense_stabilizer_report(h, s, q, h.form_rows).to_json(), q.rows
            assert_stabilizer_witnesses(report, h, s, q, h.form_rows)
            failed = {f.check for f in report.failures}
            for check in ("twist_stable", "coisotropic", "s_sharp_image", "sharp_brackets"):
                seen.setdefault(check, set()).add(check not in failed)
    if h.untwisted:
        assert seen.pop("twist_stable") == {True}
    assert all(values == {True, False} for values in seen.values()), seen


# ---------------------------------------------------------------------------
# Elimination, maps and membership against their Fraction references


def hostile_rows(rng: random.Random, n: int, count: int) -> list[dict]:
    """Seeded sparse rows over range(n), columns in random order: entries of
    hostile denominators mixed with ints, integral Fractions and explicit
    zeros; zero rows; rows dependent on earlier ones; and rows in Fractions
    with a leading 1, as canonical rows arrive."""
    rows: list[dict] = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0 and rows:
            row: dict = {}
            for earlier in rng.sample(rows, min(len(rows), 2)):
                f = _hostile_fraction(rng)
                for c, x in earlier.items():
                    row[c] = row.get(c, 0) + f * x
        elif kind == 1:
            row = {c: rng.choice((0, Fraction(0))) for c in rng.sample(range(n), rng.randint(0, min(n, 2)))}
        else:
            entries = (lambda: _hostile_fraction(rng), lambda: rng.randint(-3, 3), lambda: Fraction(rng.randint(-3, 3)))
            row = {c: rng.choice(entries)() for c in rng.sample(range(n), rng.randint(1, n))}
            if kind == 2 and any(row.values()):
                lead = min(c for c, x in row.items() if x)
                row = {c: Fraction(x) / row[lead] for c, x in row.items()}
        rows.append(row)
    return rows


def _items(vectors) -> list[list[tuple]]:
    """Each vector's (key, value) pairs in its order, after checking that every
    value is a Fraction."""
    assert all(type(x) is Fraction for v in vectors for x in v.values())
    return [list(v.items()) for v in vectors]


ROW_SHAPES = [(n, count, seed) for n, count in ((1, 3), (3, 5), (5, 8), (8, 6), (8, 14)) for seed in range(6)]


@pytest.mark.parametrize("n, count, seed", ROW_SHAPES)
def test_elimination_matches_the_fraction_reference_row_for_row(n, count, seed):
    """`_gauss_jordan` against the Fraction reference, and the invariant of
    its elimination stage: every row `_eliminated` keeps is a primitive int
    row (ints, gcd 1, positive at its pivot, its least column) that is zero
    at the other kept pivots, rows that arrive in Fractions with a leading 1
    included."""
    rng = random.Random(f"rows {n} {count} {seed}")
    rows = hostile_rows(rng, n, count)
    before = [list(row.items()) for row in rows]
    kept = _eliminated([_integer_row(row) for row in rows])
    for p, row in kept.items():
        assert all(type(x) is int for x in row.values()), row
        assert gcd(*row.values()) == 1 and row[p] > 0 and min(row) == p, row
        assert all(row.get(q, 0) == 0 for q in kept if q != p), row
    reduced = _gauss_jordan(rows)
    assert _items(reduced) == _items(fraction_gauss_jordan(rows))
    assert [list(row.items()) for row in rows] == before  # not mutated
    space = Subspace(n, tuple(reduced))  # canonical: the constructor checks
    reversed_rows = _gauss_jordan(list(reversed(rows)))
    assert _items(reversed_rows) == _items(reduced)
    assert subspace_equal(_span(n, space.echelon + space.echelon), space)


@pytest.mark.parametrize("n, count, seed", ROW_SHAPES)
def test_maps_match_the_fraction_reference_key_for_key(n, count, seed):
    """Hostile columns, then unit columns: a block permutation, the same with
    two sources sent to one target, and with one unit column holding
    Fraction(0) or an int 1; on the hostile vectors (zero and int entries
    among them) and on vectors of nonzero Fractions."""
    rng = random.Random(f"maps {n} {count} {seed}")
    cols = (hostile_rows(rng, n, count) + [{}] * n)[:n]
    vectors = hostile_rows(rng, n, 6) + [{}]
    for xs in vectors:
        assert _items([_apply_columns(cols, xs)]) == _items([fraction_apply_columns(cols, xs)])
    block = 2 if n % 2 == 0 else 1
    images = list(range(n // block))
    rng.shuffle(images)
    permutation = Permutation(tuple(images)).columns(block)
    maps = [permutation]
    for entry in (Fraction(0), 1):
        odd = list(permutation)
        odd[rng.randrange(n)] = {rng.randrange(n): entry}
        maps.append(odd)
    if n > 1:
        source, other = rng.sample(range(n), 2)
        merged = list(permutation)
        merged[source] = permutation[other]
        maps.append(merged)
    vectors += [{c: _hostile_fraction(rng) for c in rng.sample(range(n), rng.randint(1, n))} for _ in range(4)]
    for unit_cols in maps:
        for xs in vectors:
            assert _items([_apply_columns(unit_cols, xs)]) == _items([fraction_apply_columns(unit_cols, xs)])


def test_map_key_order_follows_cancellation():
    """An entry that cancels leaves the result and comes back at the end, as
    in the Fraction reference."""
    cols = [{5: Fraction(1, 7), 6: 1}, {5: Fraction(-2, 7), 4: Fraction(0)}, {5: 3}]
    xs = {0: 2, 1: 1, 2: Fraction(1, 11)}
    out = _apply_columns(cols, xs)
    assert list(out.items()) == list(fraction_apply_columns(cols, xs).items()) == [(6, 2), (5, Fraction(3, 11))]


@pytest.mark.parametrize("n, count, seed", ROW_SHAPES)
def test_membership_matches_the_fraction_reference(n, count, seed):
    rng = random.Random(f"members {n} {count} {seed}")
    rows = hostile_rows(rng, n, count)
    space = _span(n, rows)
    seen = set()
    for xs in rows + hostile_rows(rng, n, 8):
        nonzero = {c: x for c, x in xs.items() if x}
        answer = fraction_contains_sparse(space, nonzero)
        assert space.contains_sparse(xs) == space.contains_sparse(nonzero) == answer
        seen.add(answer)
    combination: dict = {}
    for row in space.echelon:
        f = _hostile_fraction(rng)
        for c, x in row.items():
            combination[c] = combination.get(c, 0) + f * x
    assert space.contains_sparse(combination) and fraction_contains_sparse(
        space, {c: x for c, x in combination.items() if x}
    )
    assert True in seen


def test_rows_of_ints_come_back_in_fractions():
    """Rows that lead with the int 1, or with Fraction 1 beside an int, are
    reduced in ints like every row: every value returned is a Fraction."""
    for rows in ([{2: 1, 0: 0, 3: Fraction(1, 7)}, {1: 1, 3: 2}], [{0: Fraction(1), 1: 3}], [{0: 1}]):
        assert _items(_gauss_jordan(rows)) == _items(fraction_gauss_jordan(rows))


def test_empty_families():
    assert _gauss_jordan([]) == fraction_gauss_jordan([]) == []
    assert _gauss_jordan([{}, {0: 0}, {2: Fraction(0)}]) == []
    assert _apply_columns([{0: Fraction(1, 7)}], {}) == {} and _apply_columns([], {}) == {}
    assert _apply_columns([{}, {1: Fraction(0)}], {0: 3, 1: 2}) == {}
    for space in (Subspace.zero(0), Subspace.zero(3)):
        assert space.contains_sparse({}) and space.contains_sparse({0: 0} if space.ambient_dim else {})
    assert not Subspace.zero(3).contains_sparse({1: Fraction(1, 13)})
    assert Subspace.full(3).contains_sparse({0: Fraction(1, 13), 2: -5})


# ---------------------------------------------------------------------------
# The identity twist


def test_a_broken_twist_fails_each_check_the_identity_twist_skips():
    """The identity twist passes the twist checks of `check_twist_morphism`,
    `check_quadratic`, `_part_report` and `_intertwining_failures` with nothing
    to compute.  One entry of D2's twist moved by 2/23 makes it a twist that
    fails each of them, exactly as the dense references say."""
    h = D2.algebra
    phi = [list(row) for row in h.phi]
    phi[0][1] += Fraction(2, 23)
    broken = HomLieAlgebra.unchecked(h.dim, h.brackets, phi, h.form)
    assert h.untwisted and not broken.untwisted
    units = list(_unit_columns(h.dim))
    for algebra, fails in ((h, False), (broken, True)):
        t = ManinTriple(algebra, D2.part1, D2.part2)
        reports = {
            "twist_morphism": (check_twist_morphism(algebra), dense_check_twist_morphism(algebra)),
            "twist_self_adjoint": (check_quadratic(algebra), dense_check_quadratic(algebra)),
            "twist_stable": (_part_report(t, t.part1, "part1"), dense_part_report(t, t.part1, "part1")),
        }
        for check, (fast, dense) in reports.items():
            assert fast.to_json() == dense.to_json()
            assert (check in {f.check for f in fast.failures}) == fails, check
        for source, target in ((algebra, h), (h, algebra)):
            report = check_homomorphism(units, source, target)
            assert ("twist_intertwine" in {f.check for f in report.failures}) == fails


# ---------------------------------------------------------------------------
# What the pairing and bracket kernels return


def test_pairings_and_pair_brackets_return_nonzero_fractions_for_int_input():
    sl2 = sl2_twisted()
    vectors = [{0: 1, 1: 2}, {1: -1, 2: 3}, {2: 1}]
    form_rows = ({0: 2}, {2: -1}, {1: -1})
    brackets = _pair_brackets(sl2, vectors)
    pairings = _pairings(form_rows, vectors)
    assert set(brackets) == {(0, 1), (0, 2), (1, 2)}
    assert pairings[0, 1] == pairings[1, 0] == -6 and len(pairings) == 8 and (2, 2) not in pairings
    assert all(_all_nonzero_fractions(w.values()) for w in brackets.values())
    assert _all_nonzero_fractions(pairings.values())
    assert _all_nonzero_fractions(_pairings(form_rows, vectors, [{1: 1}, {0: 3}]).values())


def test_pairings_and_pair_brackets_leave_out_what_cancels():
    """[v, v] and <x, y> with x = e0 + e1, y = e0 - e1 under a hyperbolic form
    cancel term by term, with hostile entries; a total that cancels inside a
    nonzero bracket is absent too."""
    v = {1: Fraction(1, 7), 2: Fraction(1, 11)}
    sl2 = sl2_twisted()
    assert _pair_brackets(sl2, [v, v]) == {}
    w = {0: Fraction(2, 13), 1: Fraction(1, 7), 2: Fraction(1, 11)}
    bracket = _pair_brackets(sl2, [v, w])
    assert set(bracket[0, 1]) == {1, 2} and _all_nonzero_fractions(bracket[0, 1].values())
    hyperbolic = ({1: Fraction(1, 19)}, {0: Fraction(1, 19)})
    x, y = {0: Fraction(1, 7), 1: Fraction(1, 7)}, {0: Fraction(1, 23), 1: Fraction(-1, 23)}
    assert _pairings(hyperbolic, [x, y]) == {(0, 0): Fraction(2, 7 * 7 * 19), (1, 1): Fraction(-2, 23 * 23 * 19)}


def test_relabelled_brackets_and_pairings_equal_the_summing_path_key_for_key():
    """On a relabelling (distinct unit vectors), `_pair_brackets` and
    `_pairings` return the stored entries; on the same family with each 1
    made 2, each value is 4 times as large, with the same pairs, keys and
    order.  Entries stored as ints come back as Fractions."""
    rng = random.Random(2409)
    brackets, form_rows = {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: 1}}, ({0: 2}, {2: -1}, {1: -1})
    int_stored = HomLieAlgebra(3, brackets, _unit_columns(3), form_rows)
    for h in (D3.algebra, int_stored):
        for _ in range(20):
            family = [{i: Fraction(1)} for i in rng.sample(range(h.dim), rng.randint(2, h.dim))]
            doubled = [{i: Fraction(2) for i in v} for v in family]
            brackets, summed = _pair_brackets(h, family), _pair_brackets(h, doubled)
            assert list(summed) == list(brackets)
            for index, w in brackets.items():
                assert list(summed[index].items()) == [(k, 4 * v) for k, v in w.items()]
                assert _all_nonzero_fractions(w.values())
            pairings = _pairings(h.form_rows, family)
            assert list(_pairings(h.form_rows, doubled).items()) == [(index, 4 * v) for index, v in pairings.items()]
            assert _all_nonzero_fractions(pairings.values())


# ---------------------------------------------------------------------------
# The flat-index residual, the integer sharp map and the integer symmetric
# part against their references

D3 = triple_double(special_linear_data(3))


def _same_tensor(t: SparseTensor, reference: SparseTensor) -> bool:
    """Equal tensors, equal sorted items, and the same entry order."""
    return t == reference and t.items() == reference.items() and list(t.entries) == list(reference.entries)


def _same_residual(t: SparseTensor, reference: SparseTensor) -> bool:
    """Equal tensors and equal sorted items, with `hcyb`'s entries in
    increasing index order: it decodes its packed rows in that order, where
    the frozen kernel kept the order in which terms first touched an index.
    Entry order is not observable: `items()`, `render_tensor` and
    `format_tensor` all sort."""
    return t == reference and t.items() == reference.items() and list(t.entries) == sorted(t.entries)


def _assert_residual_matches_the_references(h: HomLieAlgebra, r: SparseTensor) -> SparseTensor:
    residual = hcyb(h, r)
    assert _same_residual(residual, tuple_index_hcyb(h, r))
    assert dict(residual.items()) == pairwise_hcyb(h, r)
    assert _all_nonzero_fractions(residual.entries.values())
    return residual


def _assert_residual_matches_every_reference(h: HomLieAlgebra, r: SparseTensor) -> SparseTensor:
    residual = _assert_residual_matches_the_references(h, r)
    assert dict(residual.items()) == dense_hcyb(h, r)
    return residual


def _huge_fraction(rng: random.Random) -> Fraction:
    """A numerator of 64 to 80 bits over a product of HOSTILE denominators."""
    return Fraction(rng.choice((-1, 1)) * rng.randrange(2**64, 2**80), prod(rng.sample(HOSTILE, 2)))


def test_flat_index_residual_of_a_moved_canonical_r_of_the_d3_cube_matches_the_references():
    """One entry of the canonical r of nuble(D3, 3) moved by 7/11: the terms
    of all three bracket positions, which cancel for the canonical r, leave a
    residual equal to the tuple-index kernel, value for value, and to the
    pairwise reference."""
    t = nuble(D3, 3)
    h, r = t.algebra, r_from_splitting(t)
    assert _assert_residual_matches_the_references(h, r).is_zero
    entries = dict(r.entries)
    index = sorted(entries)[len(entries) // 3]
    entries[index] += Fraction(7, 11)
    moved = SparseTensor(2, h.dim, entries)
    residual = _assert_residual_matches_the_references(h, moved)
    assert not residual.is_zero and {v.denominator for v in residual.entries.values()} & {11, 121}


def test_flat_index_residual_on_a_twisted_sum_of_four_sl2s_matches_the_references():
    """A twist diag(1, -1, -1) on each of four sl2 summands, so `_by_slot`
    applies it, under r of hostile denominators; the untwisted residual too."""
    h = direct_sum(*[sl2_twisted()] * 4)
    assert not h.untwisted
    rng = random.Random(18)
    nonzero = 0
    for fill in (3, 8, 20, 40):
        r = hostile_tensor(rng, h.dim, fill)
        residual = _assert_residual_matches_the_references(h, r)
        assert _same_residual(cyb(h, r), tuple_index_hcyb(direct_sum(*[sl2_lie()] * 4), r))
        nonzero += not residual.is_zero
    assert nonzero >= 3
    # small r, where `dense_hcyb` still runs in dimension 12, of hostile and of 64-bit numerators
    rng = random.Random(26)
    huge = SparseTensor(2, h.dim, {(0, 4): _huge_fraction(rng), (4, 1): _huge_fraction(rng)})
    for r in (hostile_tensor(rng, h.dim, 3), huge):
        assert not _assert_residual_matches_every_reference(h, r).is_zero


def test_flat_index_residual_in_dimension_one():
    for phi in ([[1]], [[-1]], [[Fraction(3, 7)]]):
        h = HomLieAlgebra.unchecked(1, {}, phi)
        for value in (Fraction(3, 7), Fraction(2**70 + 1, 13)):
            residual = _assert_residual_matches_every_reference(h, SparseTensor(2, 1, {(0, 0): value}))
            assert residual == SparseTensor.zero(3, 1)
        assert _same_residual(hcyb(h, SparseTensor.zero(2, 1)), SparseTensor.zero(3, 1))
    zero = _assert_residual_matches_every_reference(HomLieAlgebra.unchecked(0, {}), SparseTensor.zero(2, 0))
    assert _same_residual(zero, SparseTensor.zero(3, 0))


def test_flat_index_residual_decodes_the_last_corner_of_d3_to_the_fourth():
    """(d-1) (x) [d-8, d-1] (x) (d-1) from r's entries (d-1, d-8) and (d-1, d-1)
    lands on the last index (d-1, d-1, d-1), the largest flat int d^3 - 1."""
    t = nuble(D3, 4)
    h = t.algebra
    d = h.dim
    moved = r_from_splitting(t) + SparseTensor(2, d, {(d - 1, d - 8): Fraction(7, 11), (d - 1, d - 1): Fraction(3, 13)})
    residual = _assert_residual_matches_the_references(h, moved)
    assert residual.get((d - 1, d - 1, d - 1)) == Fraction(-21, 143)
    assert max(residual.entries) == (d - 1, d - 1, d - 1)


# ---------------------------------------------------------------------------
# The width of `hcyb`'s packed rows: every field total T_c of a row satisfies
# |T_c| <= B < 2^(W-1), B the sum of |term| over all terms.


@pytest.mark.parametrize("name", ["sl2 twisted", *sorted(HOSTILE_ALGEBRAS)])
def test_packed_rows_are_exact_with_numerators_beyond_64_bits(name):
    h = sl2_twisted() if name == "sl2 twisted" else HOSTILE_ALGEBRAS[name]()
    rng = random.Random(f"{name} huge")
    widest = 0
    for fill in (2, 5, 9):
        r = SparseTensor.zero(2, h.dim)
        for _ in range(fill):
            r.add_into((rng.randrange(h.dim), rng.randrange(h.dim)), _huge_fraction(rng))
        residual = _assert_residual_matches_every_reference(h, r)
        widest = max([widest, *(abs(v.numerator) for v in residual.entries.values())])
    assert widest >= 2**128


def test_a_field_whose_total_reaches_the_bound_decodes_at_both_signs():
    """All terms land in one field with one sign, so that field's total is B.
    phi(e_2) = e_1, so r's entries (1, 0) and (2, 0) both read as e_1 (x) e_0
    on slot 1, and [e_0, e_1] = s e_0 puts the terms v*v*s and w*v*s at (1, 0, 0):
    c = 0, the lowest field.  With s = 1 and -1 the total is +B and -B."""
    v, w = Fraction(2**64 + 13, 7**3), Fraction(2**66 + 1, 11**2)
    r = SparseTensor(2, 3, {(1, 0): v, (2, 0): w})
    for s in (1, -1):
        h = HomLieAlgebra.unchecked(3, {(0, 1): {0: s}}, phi=[[1, 0, 0], [0, 1, 1], [0, 0, 0]])
        residual = _assert_residual_matches_every_reference(h, r)
        assert residual.entries == {(1, 0, 0): s * v * (v + w)}


def test_a_field_at_the_top_of_its_width_decodes_at_the_first_and_last_field():
    """[e_0, e_1] = (2^64 - 1) e_1 and one entry of r: the one term is B = 2^64 - 1,
    so W = 65 and the total is 2^(W-1) - 1, the largest that W bits hold
    in either sign.  r = e_1 (x) e_0 gives +B at (1, 1, 0), c = 0; r = e_0 (x) e_1
    gives -B at (0, 1, 1), c = d - 1."""
    top = 2**64 - 1
    h = HomLieAlgebra.unchecked(2, {(0, 1): {1: top}})
    for index, expected in (((1, 0), {(1, 1, 0): top}), ((0, 1), {(0, 1, 1): -top})):
        residual = _assert_residual_matches_every_reference(h, SparseTensor(2, 2, {index: 1}))
        assert residual.entries == expected


def test_negative_totals_and_the_first_and_last_fields_of_a_row():
    """[e_0, e_1] = e_0 - e_2 and r = 3 e_0 (x) e_0 - 2/7 e_1 (x) e_1: the third
    position puts phi(e_1) (x) phi(e_0) (x) [e_1, e_0] in row (1, 0), a positive
    total at field c = 0 and a negative one at c = d - 1."""
    h = HomLieAlgebra.unchecked(3, {(0, 1): {0: 1, 2: -1}})
    r = SparseTensor(2, 3, {(0, 0): 3, (1, 1): Fraction(-2, 7)})
    residual = _assert_residual_matches_every_reference(h, r)
    assert (residual.get((1, 0, 0)), residual.get((1, 0, 2))) == (Fraction(12, 7), Fraction(-6, 7))
    assert sum(v < 0 for v in residual.entries.values()) == 4


# ---------------------------------------------------------------------------
# Packed Jacobi and invariance rows at the edges of their widths


def _assert_checks_match_the_dense_references(h: HomLieAlgebra) -> tuple[CheckReport, CheckReport | None]:
    """The Jacobi check of h and, with a form, its quadratic check, each equal
    to its dense reference report for report."""
    jacobi = check_hom_jacobi(h)
    assert jacobi.to_json() == dense_check_hom_jacobi(h).to_json()
    if h.form_rows is None:
        return jacobi, None
    quadratic = check_quadratic(h)
    assert quadratic.to_json() == dense_check_quadratic(h).to_json()
    return jacobi, quadratic


def _reversed(h: HomLieAlgebra) -> HomLieAlgebra:
    """h in the basis b_(d-1), ..., b_0, so that field n of every packed row
    moves to field d-1-n: the key (i, j) becomes (d-1-j, d-1-i), negated."""
    d = h.dim
    brackets = {(d - 1 - j, d - 1 - i): {d - 1 - k: -c for k, c in coeffs.items()} for (i, j), coeffs in h.brackets.items()}
    flip = lambda m: None if m is None else [row[::-1] for row in m[::-1]]
    return HomLieAlgebra.unchecked(d, brackets, flip(h.phi), flip(h.form))


def _failure_at(report: CheckReport, index: tuple[int, ...]) -> str:
    return next(f.residual for f in report.failures if f.index == index)


def test_a_jacobi_field_whose_total_reaches_the_bound_decodes_at_both_signs_and_ends():
    """phi = s Id and six one-term keys of one constant K, numerators beyond
    2^64 over hostile denominators, so that P = |num s| and C = E = |num K|.
    Only the triple (0, 1, 2) fails: [phi b_0, [b_1, b_2]] + [phi b_1, [b_2, b_0]]
    + [phi b_2, [b_0, b_1]] = s K ([b_0, b_3] + [b_1, b_4] + [b_2, b_5]) = 3 s K^2 b_6,
    three terms of one sign in field 6 = d - 1, so its total is +-3PCE, the
    bound.  Reversed, the triple is (4, 5, 6) and the field is 0."""
    K = Fraction(2**66 + 1, 11**2)
    brackets = {(1, 2): {3: K}, (0, 2): {4: -K}, (0, 1): {5: K}, (0, 3): {6: K}, (1, 4): {6: K}, (2, 5): {6: K}}
    for s in (Fraction(2**64 + 13, 7**3), Fraction(-(2**64 + 13), 7**3)):
        h = HomLieAlgebra.unchecked(7, brackets, phi=[[s if i == j else 0 for j in range(7)] for i in range(7)])
        top = 3 * s * K * K
        for algebra, triple, field in ((h, (0, 1, 2), 6), (_reversed(h), (4, 5, 6), 0)):
            jacobi, _ = _assert_checks_match_the_dense_references(algebra)
            assert len(jacobi.failures) == 6
            expected = [ZERO] * 7
            expected[field] = top if field == 6 else -top
            assert _failure_at(jacobi, triple) == render_vector(tuple(expected))


def test_an_invariance_field_whose_total_reaches_the_bound_decodes_at_both_signs_and_ends():
    """[b_0, b_1] = K b_2 and the form g (b_0 b_2 + b_1 b_1 + b_2 b_0), numerators
    beyond 2^64 over hostile denominators: C = c = |num K| and G = |num g|.
    R(0, 1, 0) = <[b_0, b_1], b_0> - <b_0, [b_1, b_0]> = K g + g K, both
    slots of one sign, so the total is +-(C g + G c), the bound, at field 0
    and, reversed, at row (2, 1) and field d - 1 = 2."""
    K = Fraction(2**65 + 7, 19 * 23)
    for g in (Fraction(2**64 + 3, 17), Fraction(-(2**64 + 3), 17)):
        h = HomLieAlgebra.unchecked(3, {(0, 1): {2: K}}, form=[[0, 0, g], [0, g, 0], [g, 0, 0]])
        for algebra, index in ((h, (0, 1, 0)), (_reversed(h), (2, 1, 2))):
            jacobi, quadratic = _assert_checks_match_the_dense_references(algebra)
            assert jacobi.passed
            assert _failure_at(quadratic, index) == str(2 * K * g)


def _hostile_huge_algebra(seed: int, dim: int) -> HomLieAlgebra:
    """Brackets of 64- to 80-bit numerators over hostile denominators, a dense
    twist of such entries, so that every column's mass is above one entry's,
    and a form that is not symmetric,
    so that the right slot of the invariance sum reads columns."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {key: {k: _huge_fraction(rng) for k in rng.sample(range(dim), min(dim, 2))} for key in pairs}
    phi = [[_huge_fraction(rng) for _ in range(dim)] for _ in range(dim)]
    form = [[_huge_fraction(rng) if rng.randrange(3) else 0 for _ in range(dim)] for _ in range(dim)]
    return HomLieAlgebra.unchecked(dim, brackets, phi, form)


@pytest.mark.parametrize("dim", [0, 1, 2, 4, 5])
def test_packed_jacobi_and_invariance_rows_are_exact_with_numerators_beyond_64_bits(dim):
    """Dimensions 0 to 2, where a row has at most two fields, and 4 and 5,
    where most triples fail."""
    widest = 0
    for seed in range(3):
        h = _hostile_huge_algebra(100 * dim + seed, dim)
        if dim > 1:
            assert max(len(col) for col in h.phi_columns) > 1
            assert any(h.form[i][j] != h.form[j][i] for i in range(dim) for j in range(dim))
        for algebra in (h, _reversed(h)):
            jacobi, quadratic = _assert_checks_match_the_dense_references(algebra)
            for f in (*jacobi.failures, *quadratic.failures):
                if f.check in ("hom_jacobi", "invariant"):
                    widest = max([widest, *(abs(Fraction(x).numerator) for x in f.residual.strip("()").split(", "))])
    assert widest >= (2**128 if dim > 1 else 0)


@pytest.mark.parametrize("name", sorted(HOSTILE_ALGEBRAS))
def test_sharp_columns_match_the_fraction_reference_key_for_key(name):
    h = HOSTILE_ALGEBRAS[name]()
    rng = random.Random(name)
    ints = SparseTensor(2, h.dim, {(0, 1): 2, (1, 0): -3, (2, 2): 1})
    for t in (ints, SparseTensor.zero(2, h.dim), *(hostile_tensor(rng, h.dim, fill) for fill in (2, 6, 12))):
        cols = _sharp_columns(h, t)
        reference = fraction_sharp_columns(h, t)
        assert [list(col.items()) for col in cols] == [list(col.items()) for col in reference]
        assert all(_all_nonzero_fractions(col.values()) for col in cols)


def _symmetric_cases() -> list[tuple[str, HomLieAlgebra, SparseTensor]]:
    """r with a pair (a, b), (b, a) that cancels in s, one-sided entries and
    denominators 7, 11 and 13, on the twisted and untwisted sl2, sl2 in a
    hostile basis, and the canonical r of D3 and of its square."""
    def moves(d: int) -> dict:
        a, b, c = d - 3, d - 2, d - 1
        return {
            (a, b): Fraction(5, 7),
            (b, a): Fraction(-5, 7),
            (a, c): Fraction(2, 11),
            (c, c): Fraction(-4, 13),
            (b, c): Fraction(1, 13),
            (c, b): Fraction(1, 11),
        }

    cases = []
    for name, h in (("sl2 twisted", sl2_twisted()), ("sl2", sl2_lie()), ("sl2 hostile", hostile_sl2())):
        cases.append((f"{name} moved", h, SparseTensor(2, 3, moves(3))))
        cases.append((f"{name}, skew", h, SparseTensor(2, 3, {(0, 1): Fraction(1, 7), (1, 0): Fraction(-1, 7)})))
    for n in (1, 2):
        t = nuble(D3, n)
        h, r = t.algebra, r_from_splitting(t)
        cases.append((f"D3x{n}", h, r))
        cases.append((f"D3x{n} moved", h, r + SparseTensor(2, h.dim, moves(h.dim))))
        lam, _ = tensor_skew_sym_split(r)
        cases.append((f"D3x{n} skew part", h, lam))
    return cases


SYMMETRIC_CASES = _symmetric_cases()


@pytest.mark.parametrize("name, h, r", SYMMETRIC_CASES, ids=[name for name, _, _ in SYMMETRIC_CASES])
def test_integer_symmetric_part_and_classification_match_the_fraction_reference(name, h, r):
    s = _symmetric_part(r)
    assert _same_tensor(s, tensor_skew_sym_split(r)[1])
    assert _same_tensor(s, fraction_symmetric_part(r))
    assert _all_nonzero_fractions(s.entries.values())
    d = h.dim
    if "moved" in name:
        assert (d - 3, d - 2) not in s.entries and (d - 2, d - 3) not in s.entries
        assert s.get((d - 1, d - 3)) == s.get((d - 3, d - 1)) != 0
    report, reference = check_quasi_triangular(h, r), fraction_quasi_triangular(h, r)
    assert (report.phi_fixed, report.s_invariant, report.verdict, report.factorizable) == (
        reference.phi_fixed,
        reference.s_invariant,
        reference.verdict,
        reference.factorizable,
    )
    assert _same_residual(report.hcyb_residual, reference.hcyb_residual)


def test_the_symmetric_cases_reach_every_verdict():
    verdicts = {check_quasi_triangular(h, r).verdict for _, h, r in SYMMETRIC_CASES}
    assert verdicts == {"quasi-triangular", "skew-only", "fails"}


def _split_cases() -> list[SparseTensor]:
    """Seeded hostile tensors, some int entries, with (a, b)/(b, a) pairs that
    cancel in the skew half or in the symmetric half, and the canonical r of
    D3^1, D3^2 and D3^4."""
    rng = random.Random(61)
    cases = []
    for _ in range(300):
        dim = rng.randint(1, 6)
        entries = dict(hostile_tensor(rng, dim, rng.randint(0, 8)).entries)
        for _ in range(rng.randint(0, 3)):
            a, b, x = rng.randrange(dim), rng.randrange(dim), _hostile_fraction(rng)
            entries[(a, b)] = rng.choice((x, x.numerator))
            entries[(b, a)] = rng.choice((1, -1)) * entries[(a, b)]
        cases.append(SparseTensor(2, dim, entries))
    return cases + [r_from_splitting(nuble(D3, n)) for n in (1, 2, 4)]


def test_skew_sym_split_matches_the_fraction_reference_in_entry_order():
    cancelled = {"skew": 0, "symmetric": 0}
    for t in _split_cases():
        lam, s = tensor_skew_sym_split(t)
        ref_lam, ref_s = fraction_skew_sym_split(t)
        assert _same_tensor(lam, ref_lam) and _same_tensor(s, ref_s)
        assert _all_nonzero_fractions(lam.entries.values()) and _all_nonzero_fractions(s.entries.values())
        cancelled["skew"] += any(a != b and (a, b) not in lam.entries for a, b in t.entries)
        cancelled["symmetric"] += any((a, b) not in s.entries for a, b in t.entries)
    assert min(cancelled.values()) > 20


def _determinant_cases() -> list[Matrix]:
    """Seeded sparse rational square matrices of sizes 0 to 7: as drawn, with a
    zero leading entry so that rows must swap, and singular, one row the sum
    of two others."""
    rng = random.Random(67)
    cases = []
    for n in range(8):
        for k in range(30):
            m = [[_hostile_fraction(rng) if rng.randrange(2) else 0 for _ in range(n)] for _ in range(n)]
            if n and k % 3 == 1:
                m[0][0] = 0
            if n > 2 and k % 3 == 2:
                m[-1] = [x + y for x, y in zip(m[0], m[1])]
            cases.append(matrix(m))
    return cases


def test_determinant_matches_the_fraction_reference():
    seen = set()
    for m in _determinant_cases():
        det = determinant(m)
        assert repr(det) == repr(fraction_determinant(m))
        if m and not m[0][0]:
            seen.add("swapped" if det else "singular after a zero leading entry")
        if det == 0 and all(any(row) for row in m):
            seen.add("singular with no zero row")
    assert seen == {"swapped", "singular after a zero leading entry", "singular with no zero row"}


# ---------------------------------------------------------------------------
# Fraction arithmetic left in a passing certificate

FRACTION_ARITHMETIC = {Fraction._mul.__code__, Fraction._add.__code__}


def fraction_arithmetic(fn, *args) -> tuple:
    """(fn(*args), the number of calls into Fraction._mul and Fraction._add it made)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in FRACTION_ARITHMETIC:
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.parametrize(
    "name, make, quadratic_calls",
    [
        ("D3x4", lambda: nuble(D3, 4), 0),
        ("D3 sheared", lambda: basis_image(D3, hostile_basis(D3.dim, 11, 4)), 0),
    ],
)
def test_a_passing_certificate_does_no_fraction_arithmetic_in_jacobi(name, make, quadratic_calls):
    """Jacobi and the pairing and bracket kernels sum ints only.  So does the
    quadratic check on an untwisted algebra: the form's elimination
    (nondegeneracy) is fraction-free, and the identity twist needs no twist
    pairings."""
    t = make()
    h = t.algebra
    report, calls = fraction_arithmetic(check_hom_jacobi, h)
    assert report.passed and calls == 0
    for part in (t.part1, t.part2):
        assert fraction_arithmetic(_pairings, h.form_rows, part.echelon)[1] == 0
        assert fraction_arithmetic(_pair_brackets, h, part.echelon)[1] == 0
    report, calls = fraction_arithmetic(check_quadratic, h)
    assert report.passed and calls == quadratic_calls
    assert h.untwisted and fraction_arithmetic(_gauss_jordan, h.form_rows)[1] == 0


@pytest.mark.parametrize(
    "make",
    [lambda: nuble(D3, 1), lambda: nuble(D3, 4), lambda: nuble(D3, 16), lambda: basis_image(D3, hostile_basis(D3.dim, 11, 4))],
    ids=["D3x1", "D3x4", "D3x16", "D3 sheared"],
)
def test_a_passing_manin_certificate_does_no_fraction_arithmetic(make):
    """Every kernel of `check_manin_triple` sums ints: elimination, membership
    and the pairing, bracket and Jacobi kernels; the identity twist is not
    applied at all."""
    report, calls = fraction_arithmetic(check_manin_triple, make())
    assert report.passed and calls == 0


def test_elimination_and_membership_of_hostile_halves_do_no_fraction_arithmetic():
    """The halves of the sheared D3 carry denominators 7-23; their sum and the
    membership of each row of one in the other run in ints all the same."""
    t = basis_image(D3, hostile_basis(D3.dim, 11, 4))
    assert max(x.denominator for row in t.part1.echelon for x in row.values()) > 1
    total, calls = fraction_arithmetic(_span, D3.dim, t.part1.echelon + t.part2.echelon)
    assert total.dim == D3.dim and calls == 0
    members, calls = fraction_arithmetic(lambda: [total.contains_sparse(w) for w in t.part1.echelon])
    assert all(members) and calls == 0


@pytest.mark.parametrize("n", [1, 2, 4])
def test_a_passing_yang_baxter_classification_does_no_fraction_arithmetic(n):
    """The symmetric part, the residual, the invariance of s and the sharp map's
    rank all sum ints on the canonical r of D3^n."""
    t = nuble(D3, n)
    report, calls = fraction_arithmetic(check_quasi_triangular, t.algebra, r_from_splitting(t))
    assert report.verdict == "quasi-triangular" and report.factorizable and calls == 0


@pytest.mark.parametrize("n", [1, 2, 4])
def test_a_passing_yang_baxter_classification_builds_no_fraction(n):
    """On the canonical r of D3^n, the symmetric part, its invariance and
    rank, and the leg spaces of the double lemma are all read from r's integer
    numerators: no Fraction is built at all (46, 98 and 202 were, when the
    symmetric part and the legs' spans were divided)."""
    t = nuble(D3, n)
    report, built = fractions_built(check_quasi_triangular, t.algebra, r_from_splitting(t))
    assert report.verdict == "quasi-triangular" and report.factorizable and built == 0


R_FROM_SPLITTING_CASES = {
    **{f"D2^{n}": (lambda n=n: nuble(D2, n)) for n in range(1, 5)},
    **{f"D3^{n}": (lambda n=n: nuble(D3, n)) for n in range(1, 5)},
    "D2 hostile image": lambda: D2_IMAGE,
    "D3 hostile image": lambda: basis_image(D3, hostile_basis(D3.dim, 11, 4)),
}


@pytest.mark.parametrize("name", R_FROM_SPLITTING_CASES)
def test_the_integer_canonical_element_matches_the_frozen_fraction_sum_in_entry_order(name):
    """`r_from_splitting` sums in integer numerators, and gives the entries,
    values and insertion order of the frozen Fraction sum, every value a
    nonzero Fraction."""
    t = R_FROM_SPLITTING_CASES[name]()
    r, reference = r_from_splitting(t), frozen_r_from_splitting(t)
    assert list(r.entries.items()) == list(reference.entries.items())
    assert _all_nonzero_fractions(r.entries.values()) and r.entries


# ---------------------------------------------------------------------------
# The half-space tests and the writer against their frozen forms


def _moved_half(part: Subspace, row: int, by: Fraction) -> Subspace:
    """part with the last entry of one canonical row moved by `by`: one entry
    off, so closure, isotropy or a sharp condition may break."""
    rows = [dict(r) for r in part.echelon]
    column = max(rows[row])
    rows[row][column] += by
    return _span(part.ambient_dim, rows)


def _twisted_sl2_sum(copies: int) -> HomLieAlgebra:
    sl2 = sl2_twisted()
    quadratic = HomLieAlgebra.unchecked(3, sl2.brackets, sl2.phi, SL2_FORM)
    return direct_sum(*[quadratic] * copies)


def _half_space_triples() -> dict[str, ManinTriple]:
    sl2, sl3 = special_linear_data(2), special_linear_data(3)
    d3_square = nuble(D3, 2)
    rng = random.Random(61)
    twisted = _twisted_sl2_sum(2)
    stable = [{0: ONE, 3: ONE}, {1: ONE}, {2: ONE, 5: Fraction(1, 7)}]  # phi-stable: phi is diagonal
    ints = HomLieAlgebra(2, {(0, 1): {0: 2}}, ({0: 1}, {1: -1}), ({1: 3}, {0: 3}), name="ints")
    triples = {
        "hyperbolic": hyperbolic_triple(),
        "g+h sl2": triple_g_plus_h(sl2),
        "g+h sl3": triple_g_plus_h(sl3),
        "D2": D2,
        "D3": D3,
        "D2^3": nuble(D2, 3),
        "D3^2": d3_square,
        "D3 sheared": basis_image(D3, shear_product(D3.dim, 12, 5)),
        "D3^2, part1 moved": ManinTriple(
            d3_square.algebra, _moved_half(d3_square.part1, 3, Fraction(2, 7)), d3_square.part2
        ),
        "D3, part2 moved": ManinTriple(D3.algebra, D3.part1, _moved_half(D3.part2, 1, Fraction(-1, 11))),
        **{f"hostile {name}": t for name, t in HOSTILE_TRIPLES.items()},
        "twisted sl2 sum, stable halves": ManinTriple(twisted, _span(6, stable), _span(6, stable[:2])),
        "twisted sl2 sum, random halves": ManinTriple(
            twisted, *(Subspace.span(6, [[_hostile_fraction(rng) for _ in range(6)] for _ in range(k)]) for k in (1, 3))
        ),
        "ints": ManinTriple(ints, Subspace(2, ({0: 1},)), Subspace(2, ({1: 1},))),
        "dim 0": ManinTriple(HomLieAlgebra.unchecked(0, {}, form=[]), Subspace.zero(0), Subspace.zero(0)),
        "dim 1": ManinTriple(HomLieAlgebra.unchecked(1, {}, phi=[[-1]], form=[[3]]), Subspace.full(1), Subspace.zero(1)),
    }
    return triples


HALF_SPACE_TRIPLES = _half_space_triples()


def _listed(found) -> list:
    """A frozen closure or image test's output with each dict's entry order kept."""
    return [(index, list(w.items())) for index, w in found]


def _divided(found) -> list:
    """`_listed` of the closure or image test's undivided output, each sum
    divided as a report divides it."""
    return _listed((index, _quotients(den, w)) for index, den, w in found)


@pytest.mark.parametrize("name", sorted(HALF_SPACE_TRIPLES))
def test_half_reports_and_text_match_the_frozen_forms(name):
    """`_brackets_outside` and `_images_outside`, each sum divided, return
    what the frozen Fraction paths return, in the same order with the same
    entry order; each half's report equals the frozen one `to_json()` for
    `to_json()`; and the writer's text for the triple, its algebra and each
    half equals the frozen dense-view writer's byte for byte and parses back
    to itself.  A triple with a zero-dimensional half has no triple text:
    `format_triple` refuses it
    (`test_a_triple_with_a_zero_dimensional_half_is_not_written`)."""
    t = HALF_SPACE_TRIPLES[name]
    h = t.algebra
    for label, part in (("part1", t.part1), ("part2", t.part2)):
        target = part._numerator_rows
        closure = _brackets_outside(h, part.echelon, target), frozen_brackets_outside(h, part.echelon, part)
        images = _images_outside(h.phi_columns, part.echelon, target), frozen_images_outside(h.phi_columns, part, part)
        assert _divided(closure[0]) == _listed(closure[1]) and _divided(images[0]) == _listed(images[1])
        assert _part_report(t, part, label).to_json() == frozen_part_report(t, part, label).to_json()
        assert format_subspace(part) == frozen_format_subspace(part)
        assert format_subspace(parse_subspace(format_subspace(part))) == format_subspace(part)
    assert format_algebra(h) == frozen_format_algebra(h)
    if t.part1.dim and t.part2.dim:  # the triple format needs rows in both halves
        text = format_triple(t)
        assert text == frozen_format_triple(t)
        assert format_triple(parse_triple(text)) == text
        assert check_manin_triple(parse_triple(text)).to_json() == check_manin_triple(t).to_json()
    else:
        with pytest.raises(ValueError, match="zero-dimensional"):
            format_triple(t)
    assert format_algebra(parse_algebra(format_algebra(h))) == format_algebra(h)


def test_the_half_space_cases_fail_each_half_check():
    """The cases above are not vacuous: between them every check of a half
    both passes and fails."""
    seen: dict[str, set] = {}
    for t in HALF_SPACE_TRIPLES.values():
        for label, part in (("part1", t.part1), ("part2", t.part2)):
            failing = {f.check for f in _part_report(t, part, label).failures}
            for check in ("isotropic", "subalgebra", "twist_stable"):
                seen.setdefault(check, set()).add(check in failing)
    assert all(values == {True, False} for values in seen.values()), seen


def _stabilizer_cases() -> list[tuple[str, HomLieAlgebra, SparseTensor | None, Subspace, tuple | None]]:
    rng = random.Random(67)
    cases = []
    for name in ("D3", "D3^2", "twisted sl2 sum, stable halves", "hostile twisted sl2 pair", "hostile D2 image", "dim 1"):
        t = HALF_SPACE_TRIPLES[name]
        h = t.algebra
        s = SparseTensor.from_matrix(inverse(t.form))
        entries = dict(s.entries)
        (a, b), _ = max(entries.items())
        for index in {(a, b), (b, a)}:
            entries[index] = entries.get(index, 0) + Fraction(1, 13)
        moved = SparseTensor(2, h.dim, entries)  # one symmetric pair of entries moved
        spaces = [t.part1, t.part2, Subspace.full(h.dim), Subspace.zero(h.dim)]
        if t.part1.dim:
            spaces.append(_moved_half(t.part1, 0, Fraction(3, 17)))
        for q in spaces:
            for tensor in (s, moved):
                cases.append((name, h, tensor, q, h.form_rows))
    for h in (sl2_twisted(), direct_sum(sl2_twisted(), sl2_lie())):  # no form
        raw = hostile_tensor(rng, h.dim, 5)
        s = (raw + raw.swap()).scale(Fraction(1, 2))
        for k in (1, 2):
            rows = [[_hostile_fraction(rng) if rng.randrange(2) else 0 for _ in range(h.dim)] for _ in range(k)]
            q = Subspace.span(h.dim, rows)
            cases += [("form-less", h, s, q, None), ("form-less", h, None, q, None)]
        cases.append(("form-less", h, s, Subspace(h.dim, ({0: ONE},)), None))
    zero = HomLieAlgebra.unchecked(0, {}, form=[])
    cases.append(("dim 0", zero, SparseTensor.zero(2, 0), Subspace.zero(0), zero.form_rows))
    return cases


STABILIZER_CASES = _stabilizer_cases()


@pytest.mark.parametrize("case", range(len(STABILIZER_CASES)))
def test_stabilizer_reports_match_the_dense_reference(case):
    """`stabilizer_report` equals `dense_stabilizer_report` `to_json()` for
    `to_json()`, and each failure's residual is the dense image or bracket
    its index names."""
    _, h, s, q, form_rows = STABILIZER_CASES[case]
    report = stabilizer_report(h, s, q, form_rows)
    assert report.to_json() == dense_stabilizer_report(h, s, q, form_rows).to_json()
    assert_stabilizer_witnesses(report, h, s, q, form_rows)


def test_the_stabilizer_cases_fail_each_condition():
    seen: dict[str, set] = {}
    for _, h, s, q, form_rows in STABILIZER_CASES:
        failing = {f.check for f in stabilizer_report(h, s, q, form_rows).failures}
        checks = ["twist_stable"] + ["coisotropic"] * (form_rows is not None)
        for check in checks + ["s_sharp_image", "sharp_brackets"] * (s is not None):
            seen.setdefault(check, set()).add(check in failing)
    assert len(seen) == 4 and all(values == {True, False} for values in seen.values()), seen


# ---------------------------------------------------------------------------
# Fractions built by the half-space tests

HALF_SPACE_TESTS = {_brackets_outside.__code__, _images_outside.__code__}


def fractions_inside(fn, args: tuple, inside: set, outside: frozenset = frozenset()) -> tuple:
    """(fn(*args), Fractions built while a function whose code is in `inside`
    runs and none in `outside` does, the number of calls to those in
    `inside`)."""
    built = depth = skipped = entered = 0
    new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        nonlocal built, depth, skipped, entered
        code = frame.f_code
        if code in inside or code in outside:
            step = 1 if event == "call" else -1 if event == "return" else 0
            if code in inside:
                depth += step
                entered += step == 1
            else:
                skipped += step
        elif depth and not skipped and event == "call" and code is new:
            built += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, built, entered


def _cli(
    capsys, tmp_path, argv: list[str], inside: set = HALF_SPACE_TESTS, outside: frozenset = frozenset(), **documents
) -> tuple[int, dict, int, int]:
    """(exit code, JSON payload, Fractions built inside the functions
    `inside`, by default the half-space tests, and outside those of
    `outside`, calls to those inside) of one CLI run, each named document
    written to tmp_path first."""
    paths = {}
    for key, text in documents.items():
        paths[key] = tmp_path / key
        paths[key].write_text(text, encoding="utf-8")
    full = [str(paths.get(a, a)) for a in argv]
    code, built, entered = fractions_inside(cli_run, (full,), inside, outside)
    return code, json.loads(capsys.readouterr().out), built, entered


@pytest.mark.parametrize("n", [1, 2, 4])
def test_a_passing_verify_and_stabilizer_build_no_fraction_in_the_half_space_tests(capsys, tmp_path, n):
    """`verify manin` on D3^n tests each half's closure, and `stabilizer --S`
    on D3^n tests the coisotropy, the sharp image and the sharp brackets of
    its first half: every bracket and image is tested in integer numerators,
    and none is divided."""
    t = nuble(D3, n)
    code, payload, built, entered = _cli(capsys, tmp_path, ["verify", "manin", "t", "--json"], t=format_triple(t))
    assert (code, payload["verdict"], built, entered) == (0, "pass", 0, 2)
    s = SparseTensor.from_matrix(inverse(t.form))
    argv = ["stabilizer", "t", "--q", "q", "--S", "s", "--json"]
    code, payload, built, entered = _cli(
        capsys, tmp_path, argv, t=format_triple(t), q=format_subspace(t.part1), s=format_tensor(s)
    )
    assert (code, payload["verdict"], built, entered) == (0, "pass", 0, 3)


def test_a_failing_verify_builds_fractions_only_for_the_reported_residuals(capsys, tmp_path):
    """A half of D3^2 with one entry moved fails closure, and the D2 image with
    a twist entry moved fails twist stability: the half-space tests build no
    Fraction, and `_part_report`, its isotropy pairings aside, builds one per
    entry of each reported bracket or image, and none for the brackets and
    images that pass."""
    d3_square = HALF_SPACE_TRIPLES["D3^2, part1 moved"]
    twisted = HALF_SPACE_TRIPLES["hostile D2 image, phi moved"]
    argv = ["verify", "manin", "t", "--json"]
    for t, check in ((d3_square, "subalgebra"), (twisted, "twist_stable")):
        h = t.algebra
        halves = (t.part1, t.part2)
        reported = [w for part in halves for _, _, w in _brackets_outside(h, part.echelon, part._numerator_rows)]
        reported += [w for part in halves for _, _, w in _twist_outside(h, part)]
        code, payload, built, entered = _cli(capsys, tmp_path, argv, t=format_triple(t))
        failures = [f for f in payload["failures"] if f["check"].endswith(check)]
        assert code == 1 and failures and built == 0
        assert len(reported) == len([f for f in payload["failures"] if f["check"].endswith(("subalgebra", "twist_stable"))])
        assert entered == 2 + 2 * (not h.untwisted)
        all_pairs = sum(len(part.echelon) * (len(part.echelon) - 1) // 2 for part in (t.part1, t.part2))
        assert len(reported) < all_pairs
        inside, outside = {_part_report.__code__}, frozenset({_pairings.__code__})
        code, _, built, entered = _cli(capsys, tmp_path, argv, inside, outside, t=format_triple(t))
        assert code == 1 and entered == 2 and built == sum(map(len, reported)) > 0


def _nonzero_entries(residual: str) -> int:
    """The nonzero coordinates of a rendered dense vector."""
    return sum(token != "0" for token in residual.strip("()").split(", "))


def test_a_failing_stabilizer_report_divides_only_its_witnesses():
    """On D3^2 with q = 0 and S the inverse form, dozens of brackets and
    images leave q, and each condition reports one witness: the half-space
    tests build no Fraction, and the whole report, its sharp map and sharp
    images in integer numerators, builds one per nonzero entry of the
    reported witnesses (it built 280 Fractions when every outside bracket
    was divided, and 84 while the sharp map was divided)."""
    t = nuble(D3, 2)
    h = t.algebra
    s, q = SparseTensor.from_matrix(inverse(t.form)), Subspace.zero(h.dim)
    target = q._numerator_rows
    cols, ann = _sharp_columns(h, s), _annihilator_rows(q)
    outside = _brackets_outside(h, [_apply_columns(cols, xi) for xi in ann], target)
    outside += _images_outside(cols, ann, target)
    assert len(outside) > 60
    args = (h, s, q, h.form_rows)
    report, built, entered = fractions_inside(stabilizer_report, args, HALF_SPACE_TESTS)
    assert [f.check for f in report.failures] == ["coisotropic", "s_sharp_image", "sharp_brackets"]
    assert built == 0 and entered == 3
    _, built, _ = fractions_inside(stabilizer_report, args, {stabilizer_report.__code__})
    assert built == sum(_nonzero_entries(f.residual) for f in report.failures) > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_passing_stabilizer_report_builds_no_fraction_for_its_sharp_tests(n):
    """On D3^n with q its first half and S the inverse form (the benchmark's
    `stabilizer` inputs at n = 3), the sharp map, its images and their
    brackets are summed and tested in integer numerators: the report builds
    no Fraction outside the annihilator and complement rows of q (at n = 3
    it built 120 there, of 276 in all, while the sharp map and images were
    divided), and it equals the dense reference's."""
    t = nuble(D3, n)
    h = t.algebra
    s = SparseTensor.from_matrix(inverse(t.form))
    args = (h, s, t.part1, h.form_rows)
    rows = frozenset({_annihilator_rows.__code__, _orthogonal_rows.__code__})
    report, built, entered = fractions_inside(stabilizer_report, args, {stabilizer_report.__code__}, rows)
    assert report.passed and entered == 1 and built == 0
    assert report.to_json() == dense_stabilizer_report(h, s, t.part1, h.form_rows).to_json()


# ---------------------------------------------------------------------------
# The halved third position of `hcyb`, the twist of `_by_slot` and the graded
# bracket in integer numerators, and the rank test of `check_quadratic`


def _moved_entry(r: SparseTensor, by: Fraction) -> SparseTensor:
    """r with the entry a third of the way through its sorted indices moved by `by`."""
    entries = dict(r.entries)
    index = sorted(entries)[len(entries) // 3]
    entries[index] += by
    return SparseTensor(2, r.dim, entries)


def _position_two_cases() -> list[tuple[str, HomLieAlgebra, SparseTensor]]:
    rng = random.Random(29)
    cases = []
    for n in (1, 2, 4):
        t = nuble(D3, n)
        h, r = t.algebra, r_from_splitting(t)
        cases += [(f"canonical D3^{n}", h, r), (f"canonical D3^{n}, one entry moved", h, _moved_entry(r, Fraction(7, 11)))]
        cases.append((f"D3^{n}, neither skew nor symmetric", h, hostile_tensor(rng, h.dim, 4 * h.dim)))
    sl2_sum = _twisted_sl2_sum(4)
    cases += [(f"twisted sl2^4, {fill} entries", sl2_sum, hostile_tensor(rng, sl2_sum.dim, fill)) for fill in (5, 15, 40)]
    for name in sorted(HOSTILE_ALGEBRAS):
        h = HOSTILE_ALGEBRAS[name]()
        huge = SparseTensor.zero(2, h.dim)
        for _ in range(9):
            huge.add_into((rng.randrange(h.dim), rng.randrange(h.dim)), _huge_fraction(rng))
        cases.append((f"{name}, numerators beyond 64 bits", h, huge))
    # one field at +B and at -B, B the sum of |term| (see the bound tests above)
    v, w = Fraction(2**64 + 13, 7**3), Fraction(2**66 + 1, 11**2)
    for s in (1, -1):
        h = HomLieAlgebra.unchecked(3, {(0, 1): {0: s}}, phi=[[1, 0, 0], [0, 1, 1], [0, 0, 0]])
        cases.append((f"a field at {'+' if s > 0 else '-'}B", h, SparseTensor(2, 3, {(1, 0): v, (2, 0): w})))
    return cases


POSITION_TWO_CASES = _position_two_cases()


@pytest.mark.parametrize("name, h, r", POSITION_TWO_CASES, ids=[name for name, _, _ in POSITION_TWO_CASES])
def test_the_halved_third_position_matches_the_tuple_index_kernel(name, h, r):
    """Each stored key summed once, its mirror row subtracted: the residual
    equals the kernel that sums both orders of every key at tuple indices,
    value for value, and the pairwise reference."""
    residual = _assert_residual_matches_the_references(h, r)
    if "neither" in name:
        assert not is_antisymmetric(r) and not is_symmetric(r) and not residual.is_zero
    if name.startswith("canonical") and "moved" not in name:
        assert residual.is_zero
    if "moved" in name:
        assert not residual.is_zero


def test_the_cases_for_the_third_position_carry_its_terms():
    """Every case but the two field-bound ones has entries on slot 1 that a
    stored key pairs, so the halved sum is exercised."""
    for name, h, r in POSITION_TWO_CASES:
        slot1 = _by_slot(h, r)[0][1]
        pairs = sum(len(slot1.get(i, ())) * len(slot1.get(j, ())) for i, j in h.brackets)
        assert pairs > 0 or name.startswith("a field at"), name


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k", [0, 3])
def test_a_third_position_field_at_its_largest_total_decodes_at_both_signs(sign, k):
    """[e_0, e_1] = s e_k and r = v e_2 (x) e_0 + w e_3 (x) e_1 on numerators
    beyond 64 bits: only the third position has terms, v w s at (2, 3, k)
    from the key (0, 1) and -v w s at (3, 2, k) from (1, 0).  Those two terms
    make up B, and a field of the third position, which the key's mirror
    always halves, reaches at most B / 2: here both of its rows do, at the
    first and the last field."""
    v, w = Fraction(2**64 + 13, 7**3), Fraction(-(2**66) - 1, 11**2)
    h = HomLieAlgebra.unchecked(4, {(0, 1): {k: sign}})
    residual = _assert_residual_matches_every_reference(h, SparseTensor(2, 4, {(2, 0): v, (3, 1): w}))
    assert residual.entries == {(2, 3, k): sign * v * w, (3, 2, k): -sign * v * w}


def _line_executions(fn, args: tuple, code, marker: str) -> tuple[object, int]:
    """(fn(*args), how many times the one line of `code` that contains marker ran)."""
    lines, start = inspect.getsourcelines(code)
    (line,) = [start + n for n, text in enumerate(lines) if marker in text]
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == line:
            count += 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, count


# The third position's adds on the canonical r of D3^n, each stored key once:
# half of the 228, 1,784 and 14,192 that summing both orders of every key makes.
POSITION_TWO_ADDS = {1: 114, 2: 892, 4: 7096}


@pytest.mark.parametrize("n", sorted(POSITION_TWO_ADDS))
def test_the_third_position_visits_each_unordered_key_once(monkeypatch, n):
    """The keys packed for the third position are the stored keys i < j that
    reach entries on slot 1 at both i and j, each once and in stored order;
    the adds into the half accumulator are the products of those entries'
    counts, pinned."""
    t = nuble(D3, n)
    h, r = t.algebra, r_from_splitting(t)
    table = h._bracket_numerators[1]
    packed = []
    pack = rmatrix._pack

    def recording_pack(terms, width):
        packed.append(terms)
        return pack(terms, width)

    monkeypatch.setattr(rmatrix, "_pack", recording_pack)
    residual, adds = _line_executions(hcyb, (h, r), hcyb.__code__, "half[row] = hget(row, 0) + x * vc")
    slot1 = _by_slot(h, r)[0][1]
    reached = [(i, j) for i, j in h.brackets if slot1.get(i) and slot1.get(j)]
    assert residual.is_zero and reached
    assert [terms for terms in packed if type(terms) is tuple] == [table[key] for key in reached]
    assert adds == sum(len(slot1[i]) * len(slot1[j]) for i, j in reached) == POSITION_TWO_ADDS[n]


def _cancelling_twist_cases() -> list[tuple[HomLieAlgebra, SparseTensor]]:
    """phi(e_2) = phi(e_3) = e_1: the images of (0, 1), (0, 2) and (0, 3)
    meet at (0, 1), where the second cancels the first and the third puts
    the entry back behind (0, 0); on slot 1, (2, 0) and (3, 0) cancel at
    (1, 0) and leave (0, 0) alone at index 0."""
    phi = [[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    v = Fraction(3, 7)
    r = SparseTensor(2, 4, {(0, 1): v, (0, 0): Fraction(-2, 11), (0, 2): -v, (0, 3): Fraction(5, 13), (2, 0): v, (3, 0): -v})
    return [(HomLieAlgebra.unchecked(4, {(0, 1): {0: 1}}, phi=phi), r)]


def _by_slot_cases() -> list[tuple[HomLieAlgebra, SparseTensor]]:
    rng = random.Random(31)
    cases = _cancelling_twist_cases()
    algebras = [sl2_twisted(), sl2_lie(), _twisted_sl2_sum(3), *(make() for make in HOSTILE_ALGEBRAS.values())]
    for h in algebras:
        cases += [(h, hostile_tensor(rng, h.dim, fill)) for fill in (1, 4, 12)]
        cases.append((h, SparseTensor(2, h.dim, {(0, 1): 2, (1, 0): -1, (1, 1): _huge_fraction(rng)})))
        cases.append((h, SparseTensor.zero(2, h.dim)))
    for phi in ([[1]], [[-1]], [[Fraction(3, 7)]], [[0]]):
        cases.append((HomLieAlgebra.unchecked(1, {}, phi), SparseTensor(2, 1, {(0, 0): Fraction(2**70 + 1, 13)})))
    cases.append((HomLieAlgebra.unchecked(0, {}), SparseTensor.zero(2, 0)))
    return cases


def _by_slot_values(by_slot: tuple[dict, dict], den: int) -> list[dict]:
    return [{i: [(j, Fraction(n, den)) for j, n in entries] for i, entries in slot.items()} for slot in by_slot]


def test_the_integer_twist_by_slot_matches_the_frozen_apply_per_slot_form():
    """For every case, each slot's lists hold the frozen form's values in its
    order, with the same indices; the twist's cancellations leave no empty
    list."""
    for h, r in _by_slot_cases():
        got, reference = _by_slot(h, r), fraction_by_slot(h, r)
        assert _by_slot_values(*got) == _by_slot_values(*reference)
        assert all(entries for slot in got[0] for entries in slot.values())
    h, r = _cancelling_twist_cases()[0]
    (slot0, slot1), den = _by_slot(h, r)
    assert [j for j, _ in slot0[0]] == [0, 1] and [j for j, _ in slot1[0]] == [0]


def _worked_sl2_sum_r(copies: int) -> SparseTensor:
    """The worked r of `sl2_r` in each summand of `_twisted_sl2_sum(copies)`."""
    entries = sl2_r().entries.items()
    return SparseTensor(2, 3 * copies, {(3 * k + a, 3 * k + b): v for k in range(copies) for (a, b), v in entries})


def _twist_fixed_cases() -> list[tuple[HomLieAlgebra, SparseTensor]]:
    """Twisted sl2^4 with the worked r, a twist-fixed skew tensor and hostile
    ones; a twist that is not involutive, diag(2, 1/2); the twist e_1 ->
    e_0 - e_1, whose images cancel at (0, 0) inside a fixed tensor; and the
    cancelling twist of `_cancelling_twist_cases`, with r and with its image,
    which that idempotent twist fixes."""
    rng = random.Random(2931)
    sl2_sum = _twisted_sl2_sum(4)
    worked = _worked_sl2_sum_r(4)
    cases = [(sl2_sum, worked), (sl2_sum, rand_phi_fixed_skew(rng, sl2_sum)), (sl2_sum, SparseTensor.zero(2, 12))]
    cases += [(sl2_sum, hostile_tensor(rng, 12, fill)) for fill in (1, 6)]
    cases.append((sl2_sum, worked + SparseTensor(2, 12, {(0, 4): Fraction(1, 3)})))
    stretch = HomLieAlgebra.unchecked(2, {}, phi=[[2, 0], [0, Fraction(1, 2)]])
    cases.append((stretch, SparseTensor(2, 2, {(0, 1): Fraction(5, 3), (1, 0): -1})))
    cases.append((stretch, SparseTensor(2, 2, {(0, 0): ONE})))
    flip = HomLieAlgebra.unchecked(2, {}, phi=[[1, 1], [0, -1]])
    cases.append((flip, SparseTensor(2, 2, {(0, 0): ONE, (0, 1): -ONE, (1, 0): -ONE, (1, 1): Fraction(2)})))
    cases.append((flip, SparseTensor(2, 2, {(1, 1): ONE})))
    for h, r in _cancelling_twist_cases():
        cases += [(h, r), (h, r._apply_per_slot((h.phi_columns, h.phi_columns)))]
    return cases


def test_the_integer_twist_check_matches_the_frozen_apply_per_slot_form():
    verdicts = [(_phi_fixed(h, t), fraction_phi_fixed(h, t)) for h, t in _twist_fixed_cases()]
    assert all(got == reference for got, reference in verdicts)
    fixed = [got for got, _ in verdicts]
    assert fixed == [True, True, True, False, False, False, True, False, True, False, False, True]


def test_a_passing_twisted_classification_builds_no_fraction_to_test_the_twist(monkeypatch):
    """On twisted sl2^4 with the worked r of each summand, the twist test of a
    passing `check_quasi_triangular` builds no Fraction; through
    `_apply_per_slot` it built 24."""
    counts = []
    phi_fixed = rmatrix._phi_fixed

    def counted(h, t):
        result, built = fractions_built(phi_fixed, h, t)
        counts.append(built)
        return result

    monkeypatch.setattr(rmatrix, "_phi_fixed", counted)
    report = check_quasi_triangular(_twisted_sl2_sum(4), _worked_sl2_sum_r(4))
    assert report.verdict == "quasi-triangular" and report.phi_fixed
    assert counts == [0]


def _multivector_cases(h: HomLieAlgebra, rng: random.Random) -> list[tuple[SparseTensor, SparseTensor]]:
    """Multivectors of every supported degree pair, skew tensors from the
    antisymmetric part of hostile ones and a 3-vector from `wedge3_basis`."""
    x, y = hostile_vector(rng, h.dim), hostile_vector(rng, h.dim)
    lam, _ = tensor_skew_sym_split(hostile_tensor(rng, h.dim, 6))
    other, _ = tensor_skew_sym_split(hostile_tensor(rng, h.dim, 3))
    a3 = SparseTensor.zero(3, h.dim)
    for _ in range(3):
        wedge3_basis(a3, *rng.sample(range(h.dim), 3), _hostile_fraction(rng))
    return [(x, y), (x, lam), (lam, x), (lam, other), (lam, lam), (x, a3), (a3, y)]


GRADED_ALGEBRAS = {
    "sl2 twisted": sl2_twisted,
    "sl2": sl2_lie,
    "twisted sl2^2": lambda: _twisted_sl2_sum(2),
    "D3": lambda: D3.algebra,
    **HOSTILE_ALGEBRAS,
}


@pytest.mark.parametrize("twisted", [True, False], ids=["twisted", "untwisted"])
@pytest.mark.parametrize("name", sorted(GRADED_ALGEBRAS))
def test_the_integer_graded_bracket_matches_the_dense_and_frozen_forms(name, twisted):
    """Every degree pair equals the dense reference, and the frozen form
    that adds each term as a Fraction value for value and in entry order;
    each algebra with its twist and with the identity."""
    h = GRADED_ALGEBRAS[name]()
    if not twisted:
        h = HomLieAlgebra.unchecked(h.dim, h.brackets)
    rng = random.Random(name)
    nonzero = set()
    for _ in range(3):
        for a, b in _multivector_cases(h, rng):
            got = hom_schouten(h, a, b)
            assert got == dense_hom_schouten(h, a, b)
            assert _same_tensor(got, fraction_hom_schouten(h, a, b))
            assert _all_nonzero_fractions(got.entries.values())
            if got.entries:
                nonzero.add((a.degree, b.degree))
    assert nonzero == {(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)} or h.dim < 4


def fractions_built(fn, *args) -> tuple:
    """(fn(*args), the number of Fractions it built)."""
    built = 0
    new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is new:
            built += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, built


@pytest.mark.parametrize("key", ["twisted sl2^4", "D3"])
def test_the_graded_square_builds_one_fraction_per_entry(key):
    """hom_schouten(h, lam, lam) on skew lambdas like those of the identity
    trials: the twist, the actions and the degree-3 sum stay in integer
    numerators, and one Fraction is built per entry of the result."""
    h = _twisted_sl2_sum(4) if key == "twisted sl2^4" else D3.algebra
    rng = random.Random(key)
    for pairs in (1, 4, 8):
        lam, _ = tensor_skew_sym_split(hostile_tensor(rng, h.dim, pairs))
        square, built = fractions_built(hom_schouten, h, lam, lam)
        assert built == len(square.entries)
        assert square == dense_hom_schouten(h, lam, lam)
    assert built > 0


def _flipped(h: HomLieAlgebra, rank: int) -> HomLieAlgebra:
    """h with the sign of its rank-th structure constant, in sorted order, flipped."""
    key, k = sorted((key, k) for key, coeffs in h.brackets.items() for k in coeffs)[rank]
    brackets = {pair: dict(coeffs) for pair, coeffs in h.brackets.items()}
    brackets[key][k] = -brackets[key][k]
    return HomLieAlgebra.unchecked(h.dim, brackets, h.phi, h.form)


@pytest.mark.parametrize("rank", [0, 7, 30])
@pytest.mark.parametrize("base", ["D3", "D3 sheared"])
def test_a_failing_jacobi_builds_two_fractions_per_nonzero_residual_coordinate(base, rank):
    """Each failing triple's residual is decoded into its nonzero coordinates,
    one Fraction each, and its negated text is rendered from their negatives,
    one Fraction each: nothing is built for a zero coordinate.  The report is
    the dense reference's."""
    t = D3 if base == "D3" else basis_image(D3, hostile_basis(D3.dim, 11, 4))
    h = _flipped(t.algebra, rank)
    h._bracket_numerators, h._bracket_bounds  # built on first use, outside the count
    report, built = fractions_built(check_hom_jacobi, h)
    assert report.to_json() == dense_check_hom_jacobi(h).to_json()
    even = [f.residual for f in report.failures if f.index[0] < f.index[1] < f.index[2]]
    coordinates = sum(x != "0" for text in even for x in text.strip("()").split(", "))
    assert len(even) * 6 == len(report.failures) and built == 2 * coordinates > 0


QUADRATIC_FORMS = {
    "rank 0": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "rank 1": [[Fraction(2, 7), 0, 0], [0, 0, 0], [0, 0, 0]],
    "rank 2, hostile": [[Fraction(1, 7), Fraction(2, 11), 0], [Fraction(2, 11), Fraction(4, 13), 0], [0, 0, 0]],
    "rank 2, asymmetric": [[1, 2, 3], [2, 4, 6], [0, 1, Fraction(1, 13)]],
    "full rank": SL2_FORM,
    "full rank, hostile": [[Fraction(1, 7), 0, 1], [0, Fraction(3, 11), 0], [1, 0, 0]],
}


@pytest.mark.parametrize("name", sorted(QUADRATIC_FORMS))
def test_a_form_is_reduced_only_when_it_is_degenerate(monkeypatch, name):
    """The quadratic report equals the dense one, its kernel report included;
    `_gauss_jordan` runs for a degenerate form only, after the rank test."""
    reductions = []
    gauss_jordan = homlie._gauss_jordan
    monkeypatch.setattr(homlie, "_gauss_jordan", lambda rows: reductions.append(rows) or gauss_jordan(rows))
    sl2 = sl2_twisted()
    for h in (HomLieAlgebra.unchecked(3, sl2.brackets, sl2.phi, QUADRATIC_FORMS[name]),
              HomLieAlgebra.unchecked(3, {}, form=QUADRATIC_FORMS[name])):
        reductions.clear()
        report = check_quadratic(h)
        assert report.to_json() == dense_check_quadratic(h).to_json()
        kernel = [f for f in report.failures if f.check == "nondegenerate"]
        assert len(reductions) == (1 if kernel else 0)
        assert len(kernel) == 3 - matrix_rank(h.form)
