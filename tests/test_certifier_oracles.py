"""The sparsity-driven Manin-triple certifier against its frozen dense
references: the twisted Jacobi check, the twist-morphism check, the quadratic
check and the half reports compared failure by failure (check, index, exact
residual text), and counts of basis brackets and dense calls that keep the
checkers off the d^2 and d^3 scans."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import (
    SL2_FORM,
    basis_image,
    conjugate_algebra,
    dense_certificate,
    dense_check_hom_jacobi,
    dense_check_twist_morphism,
    flip_first_constant,
    rand_fraction,
    rand_subspace,
    shear_product,
)
from maninforge import core, homlie, manin, stabilizer
from maninforge.core import SparseTensor, identity_matrix, inverse, map_subspace, mat_mul, matrix, tensor_skew_sym_split
from maninforge.homlie import (
    HomLieAlgebra,
    check_hom_jacobi,
    check_quadratic,
    check_twist_morphism,
    direct_sum,
)
from maninforge.manin import (
    ManinTriple,
    check_manin_triple,
    coboundary_cobracket,
    double_from_bialgebra,
    lambda_st,
    r_from_splitting,
    special_linear_data,
    triple_double,
)
from maninforge.polyuble import nuble, verify_snake_iso
from maninforge.rmatrix import check_hom_ad_invariant, hcyb, hom_schouten, sl2_twisted


def base_triples() -> dict[str, ManinTriple]:
    d2 = triple_double(special_linear_data(2))
    return {"D2": d2, "D3": triple_double(special_linear_data(3)), "D2x2": nuble(d2, 2)}


def assert_matches_dense(t: ManinTriple):
    """The certificate equals its dense reference failure by failure (each
    failure's check names the part it comes from); returns the certificate."""
    report = check_manin_triple(t)
    assert report.to_json() == dense_certificate(t).to_json()
    return report


# ---------------------------------------------------------------------------
# Seeded perturbations of the worked doubles

KINDS = (
    ("constants",),
    ("phi",),
    ("form",),
    ("constants", "phi"),
    ("constants", "form"),
    ("phi", "form"),
    ("constants", "phi", "form"),
)


def perturbed(t: ManinTriple, seed: int) -> ManinTriple:
    """t with extra structure constants, sign-flipped rows of phi and/or one
    entry added to the form on one side of the diagonal only."""
    rng = random.Random(seed)
    h = t.algebra
    brackets = {key: dict(coeffs) for key, coeffs in h.brackets.items()}
    phi = [list(row) for row in h.phi]
    form = [list(row) for row in h.form]
    kinds = KINDS[seed % len(KINDS)]
    if "constants" in kinds:
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(h.dim), 2))
            brackets.setdefault((i, j), {})[rng.randrange(h.dim)] = rand_fraction(rng)
    if "phi" in kinds:
        for a in rng.sample(range(h.dim), rng.randint(1, 3)):
            phi[a] = [-x for x in phi[a]]
    if "form" in kinds:
        i, j = rng.sample(range(h.dim), 2)
        form[i][j] += rng.choice((-2, -1, 1, 2))
    algebra = HomLieAlgebra.unchecked(h.dim, brackets, phi, form)
    return ManinTriple(algebra, t.part1, t.part2)


BASES = base_triples()
PERTURBED = [(name, seed) for name in BASES for seed in range(14)]


@pytest.mark.parametrize("name", sorted(BASES))
def test_worked_doubles_match_the_dense_reference(name):
    assert assert_matches_dense(BASES[name]).passed


@pytest.mark.parametrize("name, seed", PERTURBED)
def test_perturbed_triples_match_the_dense_reference(name, seed):
    assert_matches_dense(perturbed(BASES[name], seed))


def test_perturbations_make_the_certificates_fail():
    for name, seed in PERTURBED:
        assert not check_manin_triple(perturbed(BASES[name], seed)).passed, (name, seed)


# ---------------------------------------------------------------------------
# Shear images: dense brackets, twists and forms


def change_of_basis(t: ManinTriple, p) -> ManinTriple:
    """t written in the basis formed by the columns of the invertible p."""
    pinv = inverse(p)
    return ManinTriple(conjugate_algebra(t.algebra, p), map_subspace(pinv, t.part1), map_subspace(pinv, t.part2))


def shear_image(t: ManinTriple, shears: int, seed: int) -> ManinTriple:
    """t under a seeded product of signed elementary shears I + s E_ab."""
    rng = random.Random(seed)
    p = identity_matrix(t.dim)
    for _ in range(shears):
        a, b = rng.sample(range(t.dim), 2)
        rows = [list(row) for row in identity_matrix(t.dim)]
        rows[a][b] = rng.choice((1, -1))
        p = mat_mul(p, matrix(rows))
    return change_of_basis(t, p)


def flip_constant(t: ManinTriple, seed: int) -> ManinTriple:
    """t with the sign of one seeded structure constant flipped."""
    h = t.algebra
    keys = sorted((key, k) for key, coeffs in h.brackets.items() for k in coeffs)
    key, k = random.Random(seed).choice(keys)
    brackets = {pair: dict(coeffs) for pair, coeffs in h.brackets.items()}
    brackets[key][k] = -brackets[key][k]
    return ManinTriple(HomLieAlgebra.unchecked(h.dim, brackets, h.phi, h.form), t.part1, t.part2)


SHEARS = [("D2", 16, 0), ("D2", 16, 1), ("D2", 16, 2), ("D3", 8, 0), ("D3", 8, 1), ("D3", 16, 0)]


@pytest.mark.parametrize("name, shears, seed", SHEARS)
def test_shear_images_and_their_negatives_match_the_dense_reference(name, shears, seed):
    image = shear_image(BASES[name], shears, seed)
    assert assert_matches_dense(image).passed
    assert not assert_matches_dense(flip_constant(image, seed)).passed


def test_twisted_shear_image_matches_the_dense_reference():
    """A shear image of D2 with one row of phi negated first: a twist that is
    neither the identity nor diagonal, in a dense basis."""
    t = perturbed(BASES["D2"], 1)
    assert KINDS[1] == ("phi",)
    report = assert_matches_dense(shear_image(t, 12, 5))
    assert {f.check for f in report.failures} >= {"twist_morphism", "quadratic.twist_self_adjoint"}


@pytest.mark.parametrize("name", ["D2", "D3"])
@pytest.mark.parametrize("seed", range(3))
def test_random_twists_match_the_dense_reference(name, seed):
    """A seeded sparse twist sends pairs of basis vectors whose bracket is zero
    onto pairs whose bracket is not, so the twist check must look beyond the
    bracket keys."""
    rng = random.Random(seed)
    h = BASES[name].algebra
    phi = [[rand_fraction(rng) if rng.randrange(3) == 0 else 0 for _ in range(h.dim)] for _ in range(h.dim)]
    twisted = HomLieAlgebra.unchecked(h.dim, h.brackets, phi, h.form)
    report = check_twist_morphism(twisted)
    assert report.to_json() == dense_check_twist_morphism(twisted).to_json()
    assert not report.passed


# ---------------------------------------------------------------------------
# Sums of the twisted sl2 (phi = diag(1, -1, -1) on each copy)


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_twisted_sl2_sums_match_the_dense_reference(copies, seed):
    rng = random.Random(seed)
    sl2 = sl2_twisted()
    h = direct_sum(*[HomLieAlgebra.unchecked(3, sl2.brackets, sl2.phi, SL2_FORM)] * copies)
    assert check_hom_jacobi(h).to_json() == dense_check_hom_jacobi(h).to_json()
    assert check_quadratic(h).passed
    form = [list(row) for row in h.form]
    i, j = rng.sample(range(h.dim), 2)
    form[i][j] += rand_fraction(rng)
    brackets = dict(h.brackets)
    a, b = sorted(rng.sample(range(h.dim), 2))
    brackets[(a, b)] = {rng.randrange(h.dim): rand_fraction(rng)}
    for algebra in (
        HomLieAlgebra.unchecked(h.dim, h.brackets, h.phi, form),
        HomLieAlgebra.unchecked(h.dim, brackets, h.phi, form),
    ):
        t = ManinTriple(algebra, rand_subspace(rng, h.dim, 2), rand_subspace(rng, h.dim, 3))
        assert_matches_dense(t)


# ---------------------------------------------------------------------------
# The term-enumeration lemma: Jacobi sums only the nested brackets that exist


def with_brackets(h: HomLieAlgebra, brackets) -> HomLieAlgebra:
    return HomLieAlgebra.unchecked(h.dim, brackets, h.phi, h.form)


def assert_jacobi_matches_dense(h: HomLieAlgebra):
    report = check_hom_jacobi(h)
    assert report.to_json() == dense_check_hom_jacobi(h).to_json()
    return report


def test_jacobi_matches_the_dense_reference_on_a_constant_perturbed_inside_one_copy():
    h = nuble(BASES["D3"], 3).algebra
    assert h.dim == 48
    key = min(k for k in h.brackets if k[0] >= 16)
    brackets = {pair: dict(coeffs) for pair, coeffs in h.brackets.items()}
    target = min(brackets[key])
    brackets[key][target] *= 2
    report = assert_jacobi_matches_dense(with_brackets(h, brackets))
    assert report.failures
    assert all(16 <= i < 32 for f in report.failures for i in f.index)


def test_jacobi_matches_the_dense_reference_on_a_bracket_reaching_another_copy():
    """An extra target joins two copies, so triples across them must be checked."""
    h = nuble(BASES["D3"], 3).algebra
    key = min(h.brackets)
    brackets = {pair: dict(coeffs) for pair, coeffs in h.brackets.items()}
    brackets[key][40] = Fraction(1)
    report = assert_jacobi_matches_dense(with_brackets(h, brackets))
    assert any(i < 16 for f in report.failures for i in f.index)
    assert any(i >= 32 for f in report.failures for i in f.index)


def test_jacobi_matches_the_dense_reference_when_the_twist_swaps_two_copies():
    """phi joins the two copies of sl3, whose brackets never meet: every
    failing triple has indices in both copies."""
    sl3 = special_linear_data(3).algebra
    d = sl3.dim
    swap = [[1 if abs(r - c) == d else 0 for c in range(2 * d)] for r in range(2 * d)]
    h = HomLieAlgebra.unchecked(2 * d, direct_sum(sl3, sl3).brackets, swap)
    report = assert_jacobi_matches_dense(h)
    assert report.failures
    assert all(min(f.index) < d <= max(f.index) for f in report.failures)


def test_jacobi_matches_the_dense_reference_on_a_sheared_power_and_its_flipped_constant():
    """Eight signed shears join the two copies of sl3's double into one
    component, in which nested brackets reach 572 of the 3,034 triples that
    hold a key and a third index; so most triples have no term.  Flipping the
    sign of one structure constant breaks Jacobi there."""
    image = basis_image(nuble(BASES["D3"], 2), shear_product(32, 8, 0))
    assert not assert_jacobi_matches_dense(image.algebra).failures
    assert assert_jacobi_matches_dense(flip_first_constant(image).algebra).failures


# ---------------------------------------------------------------------------
# Work count


@pytest.fixture
def no_dense_calls(monkeypatch):
    """Make the dense mat_mul and mat_vec raise wherever core, homlie, manin
    and stabilizer bind them, and the dense HomLieAlgebra.bracket too, and
    return a function that reads and resets the count of bracket_basis calls."""
    calls = 0
    original = HomLieAlgebra.bracket_basis

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return original(self, i, j)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense product or bracket called")

    monkeypatch.setattr(HomLieAlgebra, "bracket_basis", counting)
    monkeypatch.setattr(HomLieAlgebra, "bracket", forbidden)
    for module in (core, homlie, manin, stabilizer):
        for name in ("mat_mul", "mat_vec"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)

    def taken() -> int:
        nonlocal calls
        count, calls = calls, 0
        return count

    return taken


def counted_jacobi_work(h: HomLieAlgebra) -> tuple[int, int, int, int]:
    """(visits, adds, walks, terms) of one passing Jacobi check of h.  Each
    key's terms are packed by `homlie._pack` and scaled by the twist's
    entries once.  A visit (key (y, z), target m, partner key (a, m), x with
    phi(b_x) holding a, x outside {y, z}) multiplies such a scaled partner
    by the target's coefficient, and an add is that product added to (or
    subtracted from) a row.  walks and terms count the walks over the rows
    of its integer bracket table and the terms they read, none per visit."""
    den, table = h._bracket_numerators
    pack = homlie._pack
    walks = []
    counts = {"visits": 0, "adds": 0}

    class CountingTerms(tuple):
        def __iter__(self):
            walks.append(len(self))
            return super().__iter__()

    class Product(int):
        def __radd__(self, other):
            counts["adds"] += 1
            return other + int(self)

        def __rsub__(self, other):
            counts["adds"] += 1
            return other - int(self)

    class Scaled(int):
        def __rmul__(self, other):
            counts["visits"] += 1
            return Product(other * int(self))

        __mul__ = __rmul__

    class Packed(int):
        def __rmul__(self, other):
            return Scaled(other * int(self))

        __mul__ = __rmul__

    h.__dict__["_bracket_numerators"] = (den, {key: CountingTerms(terms) for key, terms in table.items()})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homlie, "_pack", lambda terms, width: Packed(pack(terms, width)))
        assert check_hom_jacobi(h).passed
    return counts["visits"], counts["adds"], len(walks), sum(walks)


def test_checkers_make_fewer_basis_brackets_than_the_scans(no_dense_calls):
    """The d^3 loops called bracket_basis 854,016 times (Jacobi) and 266,240
    times (quadratic) on this dim-64 power.  Jacobi now reads the integer
    bracket table instead, and calls bracket_basis no more: it makes 752
    visits, one per packed nested bracket [phi b_x, [b_y, b_z]] (the
    candidate triples of its 8 components cost 2,400 table lookups), and each
    visit adds one packed row.  The table's rows are walked three times
    each, for the bound, as outer brackets and to be packed, never per
    visit; the counts are deterministic."""
    h = nuble(BASES["D3"], 4).algebra
    d = h.dim
    assert d == 64
    keys, targets = len(h.brackets), sum(map(len, h.brackets.values()))
    visits, adds, walks, terms = counted_jacobi_work(h)
    assert no_dense_calls() == 0
    assert (visits, adds) == (752, 752)
    assert (walks, terms) == (3 * keys, 3 * targets)
    assert check_quadratic(h).passed
    assert no_dense_calls() < d**2


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_jacobi_lookups_are_linear_in_the_number_of_copies(n):
    """No key and no twist entry crosses copies, so each copy costs the same:
    188 visits, 188 packed adds, and 126 walks over 132 terms of the table."""
    assert counted_jacobi_work(nuble(BASES["D3"], n).algebra) == (188 * n, 188 * n, 126 * n, 132 * n)


def test_certifier_and_stabilizer_conditions_make_no_dense_call(no_dense_calls):
    """The twist check and the form checks build no dense product, the half
    reports and the stabilizer conditions no dense bracket, and the twist
    stability and sharp-image checks apply no dense matrix; the stabilizer
    conditions are those of the CLI, with S the inverse form."""
    t = nuble(BASES["D3"], 3)
    s = SparseTensor.from_matrix(inverse(t.form))
    assert check_manin_triple(t).passed
    assert stabilizer.stabilizer_report(t.algebra, s, t.part1, t.algebra.form_rows).passed


def test_map_checkers_make_fewer_basis_brackets_than_the_pairs(no_dense_calls):
    """Looping over all d(d-1)/2 basis pairs cost two bracket_basis calls per
    pair: 20,592 for the snake check at d = 144, 4,032 for the twist check at
    d = 64."""
    assert verify_snake_iso(BASES["D3"], 3, 3).passed
    assert no_dense_calls() < 144 * 143 // 2
    h = nuble(BASES["D3"], 4).algebra
    no_dense_calls()
    assert check_twist_morphism(h).passed
    assert no_dense_calls() < 64 * 63 // 2


def test_yang_baxter_residual_makes_fewer_basis_brackets_than_the_entry_pairs(no_dense_calls):
    """Looping over all |r|^2 pairs of entries cost three bracket_basis calls
    per pair: 37,632 for the canonical r of this dim-32 power."""
    t = nuble(BASES["D3"], 2)
    r = r_from_splitting(t)
    assert len(r.entries) ** 2 == 12_544
    no_dense_calls()
    assert hcyb(t.algebra, r).is_zero
    assert no_dense_calls() < len(r.entries) ** 2


def test_twisted_adjoint_action_makes_no_basis_bracket(no_dense_calls):
    """The loops over every basis index called bracket_basis 2,560 times for
    the invariance of the symmetric part of this dim-32 power's canonical r,
    3,456 times for the graded bracket of its skew part with itself and 48
    times for the cobracket of sl3's standard skew tensor; the d^3 loop of the
    double's cross brackets 512 times beyond its two Jacobi checks."""
    t = nuble(BASES["D3"], 2)
    lam, s = tensor_skew_sym_split(r_from_splitting(t))
    data = special_linear_data(3)
    no_dense_calls()
    assert check_hom_ad_invariant(t.algebra, s).passed
    assert no_dense_calls() == 0
    assert not hom_schouten(t.algebra, lam, lam).is_zero
    assert no_dense_calls() == 0
    table = coboundary_cobracket(data.algebra, lambda_st(data))
    assert no_dense_calls() == 0
    double_from_bialgebra(data.algebra, table)
    double_calls = no_dense_calls()
    check_hom_jacobi(data.algebra)
    HomLieAlgebra.create(data.algebra.dim, table)
    assert double_calls == no_dense_calls()
