"""Twisted Yang-Baxter residuals, sharp maps, the graded bracket, and the
quasi-triangularity classifier."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import (
    conjugate_algebra,
    fraction_quasi_triangular,
    dense_check_hom_ad_invariant,
    dense_hcyb,
    dense_hcyb_pairing_check,
    dense_hom_schouten,
    dense_sharp_matrix,
    dense_vec_dot,
    dense_wedge,
    dense_wedge_t2_v1,
    rand_fraction,
    rand_phi_fixed_skew,
    rand_tensor,
    rand_vector,
    wedge3_basis,
)
from maninforge import rmatrix
from maninforge.core import (
    Matrix,
    SparseTensor,
    Subspace,
    _gauss_jordan,
    inverse,
    is_symmetric,
    mat_vec,
    matrix,
    matrix_rank,
    tensor_skew_sym_split,
    unit_vector,
)
from maninforge.homlie import HomLieAlgebra, check_involutive, direct_sum
from maninforge.manin import (
    hyperbolic_triple,
    lambda_st,
    r_from_splitting,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble
from maninforge.rmatrix import (
    additivity_check,
    check_hom_ad_invariant,
    check_quasi_triangular,
    cyb,
    hcyb,
    hcyb_pairing_check,
    hom_schouten,
    sl2_lie,
    sl2_r,
    sl2_twisted,
)
from maninforge.stabilizer import stabilizer_report


def vec_tensor(v):
    return SparseTensor(1, len(v), {(i,): x for i, x in enumerate(v) if x != 0})


def sl2_shear() -> HomLieAlgebra:
    """The twisted sl2 in the basis e0, e0 + e1, e2: its twist is involutive but
    not diagonal."""
    return conjugate_algebra(sl2_twisted(), matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def d2_random_twist() -> HomLieAlgebra:
    """D2's bracket with a seeded sparse twist that is not involutive."""
    rng = random.Random(89)
    h = triple_double(special_linear_data(2)).algebra
    phi = [[rand_fraction(rng) if rng.randrange(3) == 0 else 0 for _ in range(h.dim)] for _ in range(h.dim)]
    return HomLieAlgebra.unchecked(h.dim, h.brackets, phi, h.form)


# The inputs of the residual, sharp-map and pairing-check oracles.
YB_ALGEBRAS = {
    "sl2_twisted": sl2_twisted,
    "sl2_lie": sl2_lie,
    "g+h sl2": lambda: triple_g_plus_h(special_linear_data(2)).algebra,
    "sl2_shear": sl2_shear,
    "D2": lambda: triple_double(special_linear_data(2)).algebra,
    "sl2_twisted+sl2_twisted": lambda: direct_sum(sl2_twisted(), sl2_twisted()),
    "D2_random_twist": d2_random_twist,
}


# ---------------------------------------------------------------------------
# The residual


def test_worked_r_has_zero_twisted_residual():
    assert hcyb(sl2_twisted(), sl2_r()).is_zero


def test_worked_r_untwisted_residual_single_entry():
    residual = cyb(sl2_twisted(), sl2_r())
    assert dict(residual.items()) == {(1, 0, 2): Fraction(-2)}


def test_residual_matches_dense_oracle_on_worked_data():
    h, r = sl2_twisted(), sl2_r()
    assert dense_hcyb(h, r) == dict(hcyb(h, r).items())


def test_residual_matches_dense_oracle_random():
    shear = sl2_shear()
    assert check_involutive(shear) and any(shear.phi[i][j] for i in range(3) for j in range(3) if i != j)
    rng = random.Random(31)
    for h in (make() for make in YB_ALGEBRAS.values()):
        for _ in range(10):
            t = SparseTensor.zero(2, h.dim)
            for _ in range(6):
                t.add_into(
                    (rng.randrange(h.dim), rng.randrange(h.dim)),
                    Fraction(rng.randint(-5, 5), rng.choice((1, 2))),
                )
            assert dense_hcyb(h, t) == dict(hcyb(h, t).items())


def test_residual_shape_validation():
    with pytest.raises(ValueError):
        hcyb(sl2_twisted(), SparseTensor.zero(3, 3))
    with pytest.raises(ValueError):
        hcyb(sl2_twisted(), SparseTensor.zero(2, 4))


# ---------------------------------------------------------------------------
# Sharp maps


def assert_sharp_columns_match_the_dense_reference(h: HomLieAlgebra, t: SparseTensor) -> None:
    """Column c of `_sharp_columns(h, t)` is column c of `dense_sharp_matrix`, without its zeros."""
    cols, dense = rmatrix._sharp_columns(h, t), dense_sharp_matrix(h, t)
    assert len(cols) == h.dim
    for c, col in enumerate(cols):
        assert col == {b: row[c] for b, row in enumerate(dense) if row[c]}


def test_sharp_of_symmetric_part_values():
    h = sl2_twisted()
    _, s = tensor_skew_sym_split(sl2_r())
    assert rmatrix._sharp_columns(h, s)[0] == {0: Fraction(1, 4)}
    assert len(_gauss_jordan(rmatrix._sharp_columns(h, s))) == 3
    assert_sharp_columns_match_the_dense_reference(h, s)


def test_sharp_of_skew_part_values():
    h = sl2_twisted()
    lam, _ = tensor_skew_sym_split(sl2_r())
    assert rmatrix._sharp_columns(h, lam)[1] == {2: Fraction(-1, 2)}
    assert_sharp_columns_match_the_dense_reference(h, lam)


def test_sharp_maps_validate_symmetry_class():
    h = sl2_twisted()
    lam, s = tensor_skew_sym_split(sl2_r())
    with pytest.raises(ValueError, match="needs a symmetric tensor"):
        rmatrix._s_sharp_sums(h, lam)
    assert rmatrix._s_sharp_sums(h, s) == rmatrix._sharp_sums(h, s)


@pytest.mark.parametrize("name", sorted(YB_ALGEBRAS))
def test_sharp_maps_match_the_dense_reference(name):
    h = YB_ALGEBRAS[name]()
    rng = random.Random(79)
    for _ in range(10):
        lam, s = tensor_skew_sym_split(rand_tensor(rng, 2, h.dim, fill=8))
        assert_sharp_columns_match_the_dense_reference(h, s)
        assert_sharp_columns_match_the_dense_reference(h, lam)


# ---------------------------------------------------------------------------
# Tensors of the wrong degree or dimension

# Without a shape check these answer silently or fail deep inside: on the
# three-dimensional twisted sl2, check_hom_ad_invariant passes a dim-5 tensor
# and the bracket-sharp condition accepts a dim-2 S.
WRONG_SHAPES = {"dim 2": (2, 2), "dim 5": (2, 5), "degree 1": (1, 3), "degree 3": (3, 3)}
SL2_LAM, SL2_S = tensor_skew_sym_split(sl2_r())
SL2_LINE = Subspace.span(3, [[1, 0, 0]])
ENTRY_POINTS = {
    "check_hom_ad_invariant": lambda h, t, lam, s: check_hom_ad_invariant(h, s),
    "_s_sharp_sums": lambda h, t, lam, s: rmatrix._s_sharp_sums(h, s),
    "check_quasi_triangular": lambda h, t, lam, s: check_quasi_triangular(h, t),
    "hcyb_pairing_check": lambda h, t, lam, s: hcyb_pairing_check(h, t),
    "additivity_check-skew": lambda h, t, lam, s: additivity_check(h, lam, SL2_S),
    "additivity_check-symmetric": lambda h, t, lam, s: additivity_check(h, SL2_LAM, s),
    "stabilizer_report": lambda h, t, lam, s: stabilizer_report(h, s, SL2_LINE),
}


@pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_tensor_of_the_wrong_shape(entry, shape):
    """A nonzero tensor whose degree or dimension is not (2, 3), with its skew
    and symmetric parts where it has degree 2, raises a ValueError naming both
    shapes."""
    degree, dim = WRONG_SHAPES[shape]
    t = SparseTensor.from_entries(degree, dim, {(0,) * (degree - 1) + (dim - 1,): 1, (dim - 1,) * degree: 2})
    lam, s = tensor_skew_sym_split(t) if degree == 2 else (t, t)
    assert not (lam.is_zero or s.is_zero)
    with pytest.raises(ValueError, match=rf"degree 2 and dimension 3, got degree {degree} and dimension {dim}"):
        ENTRY_POINTS[entry](sl2_twisted(), t, lam, s)


# ---------------------------------------------------------------------------
# Invariance of the symmetric part


def test_worked_symmetric_part_is_invariant():
    h = sl2_twisted()
    _, s = tensor_skew_sym_split(sl2_r())
    assert check_hom_ad_invariant(h, s).passed


def test_non_invariant_tensor_located():
    h = sl2_twisted()
    report = check_hom_ad_invariant(h, SparseTensor.from_entries(2, 3, {(0, 0): 1}))
    assert not report.passed
    assert all(f.check == "hom_ad_invariant" for f in report.failures)


def test_invariance_needs_degree_two():
    with pytest.raises(ValueError):
        check_hom_ad_invariant(sl2_twisted(), SparseTensor.zero(1, 3))


def test_form_inverse_is_invariant_on_quadratic_algebras():
    for t in (hyperbolic_triple(), triple_double(special_linear_data(2))):
        s = SparseTensor.from_matrix(inverse(t.form))
        assert is_symmetric(s)
        assert check_hom_ad_invariant(t.algebra, s).passed


# ---------------------------------------------------------------------------
# Classification


def test_worked_r_is_quasi_triangular_and_factorizable():
    report = check_quasi_triangular(sl2_twisted(), sl2_r())
    assert report.verdict == "quasi-triangular"
    assert report.phi_fixed and report.s_invariant and report.factorizable
    assert report.hcyb_residual.is_zero


def test_canonical_r_of_each_worked_triple_is_quasi_triangular():
    data = special_linear_data(2)
    for t in (hyperbolic_triple(), triple_g_plus_h(data), triple_double(data)):
        r = r_from_splitting(t)
        assert cyb(t.algebra, r).is_zero, t.name
        report = check_quasi_triangular(t.algebra, r)
        assert report.verdict == "quasi-triangular", t.name
        assert report.factorizable, t.name


def test_skew_half_alone_fails_classically():
    h = sl2_lie()
    lam = lambda_st(special_linear_data(2))
    assert not cyb(h, lam).is_zero
    assert check_quasi_triangular(h, lam).verdict == "fails"


def test_pure_skew_solution_is_skew_only():
    algebra = hyperbolic_triple().algebra
    w = SparseTensor(2, 2, {(0, 1): 1, (1, 0): -1})
    report = check_quasi_triangular(algebra, w)
    assert report.verdict == "skew-only"
    assert not report.factorizable


def test_classifier_reads_the_symmetric_part_and_its_rank_like_the_dense_split():
    """check_quasi_triangular forms s = (r + swap r)/2 from r's entries and
    reads factorizability as the rank of the sparse columns of s#; both agree
    with the split tensor and the rank of the dense sharp matrix, at full rank
    and below it."""
    rng = random.Random(41)
    seen = set()
    for h in (sl2_twisted(), hyperbolic_triple().algebra, triple_double(special_linear_data(2)).algebra):
        for fill in (1, 2, 4, 12, 40):
            r = rand_tensor(rng, 2, h.dim, fill)
            _, s = tensor_skew_sym_split(r)
            report = check_quasi_triangular(h, r)
            assert report.s_invariant == check_hom_ad_invariant(h, s).passed
            full_rank = (not s.is_zero) and matrix_rank(dense_sharp_matrix(h, s)) == h.dim
            assert report.factorizable == full_rank
            seen.add(full_rank)
    assert seen == {True, False}


LEGS_ALGEBRAS = {
    "D2": lambda: triple_double(special_linear_data(2)).algebra,
    "D3": lambda: triple_double(special_linear_data(3)).algebra,
    "hyperbolic": lambda: hyperbolic_triple().algebra,
    "g+h sl2": lambda: triple_g_plus_h(special_linear_data(2)).algebra,
}


def half_rank_tensor(rng: random.Random, d: int, shared: int) -> tuple[SparseTensor, Matrix]:
    """(r, A): r = sum_i u_i (x) v_i over d/2 seeded legs whose matrix A has
    rank d/2, each leg vector with about half its entries zero, and u_i = v_i
    for the first `shared` legs, so that g1 and g2 meet when shared > 0."""
    while True:
        leg = lambda: [rand_fraction(rng, -3, 3) if rng.random() < 0.5 else 0 for _ in range(d)]
        vs = [leg() for _ in range(d // 2)]
        us = [v if i < shared else leg() for i, v in enumerate(vs)]
        r = SparseTensor.zero(2, d)
        for u, v in zip(us, vs):
            for a, x in enumerate(u):
                for b, y in enumerate(v):
                    if x and y:
                        r.add_into((a, b), x * y)
        a = tuple(tuple(r.get((i, j)) for j in range(d)) for i in range(d))
        if matrix_rank(a) == d // 2:
            return r, a


@pytest.mark.parametrize("name", sorted(LEGS_ALGEBRAS))
def test_factorizability_at_half_rank_is_read_off_the_legs(name, monkeypatch):
    """r = sum_i u_i (x) v_i over d/2 seeded legs: r's matrix A has rank d/2,
    so the classifier reads factorizability off the legs and makes no
    `_sharp_sums` call.  The whole report equals the reference's, and
    factorizable is the rank test of the dense sharp matrix and is whether
    g1 (+) g2 = V, the rank of A's rows and columns together; both
    g1 (+) g2 = V and g1 meeting g2 occur."""
    h = LEGS_ALGEBRAS[name]()
    d = h.dim
    rng = random.Random(f"legs {name}")
    sharp_calls = []
    sharp_sums = rmatrix._sharp_sums
    monkeypatch.setattr(rmatrix, "_sharp_sums", lambda h, t: sharp_calls.append(t) or sharp_sums(h, t))
    seen = set()
    for shared in (0, 1, 0, d // 2, 0, 1):
        r, a = half_rank_tensor(rng, d, shared)
        report = check_quasi_triangular(h, r)
        assert sharp_calls == []
        assert report == fraction_quasi_triangular(h, r)
        _, s = tensor_skew_sym_split(r)
        direct = matrix_rank(a + tuple(zip(*a))) == d  # g1 + g2, from A's rows and columns
        assert report.factorizable == ((not s.is_zero) and matrix_rank(dense_sharp_matrix(h, s)) == d) == direct
        assert not (direct and shared)
        seen.add(direct)
    assert seen == {True, False}


def test_twist_unfixed_candidate_fails():
    report = check_quasi_triangular(
        sl2_twisted(), SparseTensor.from_entries(2, 3, {(0, 1): 1, (1, 0): 1})
    )
    assert not report.phi_fixed
    assert report.verdict == "fails"


# ---------------------------------------------------------------------------
# The graded bracket


def test_degree_one_pair_is_the_bracket():
    h = sl2_twisted()
    rng = random.Random(37)
    for _ in range(10):
        x, y = rand_vector(rng, 3), rand_vector(rng, 3)
        out = hom_schouten(h, vec_tensor(x), vec_tensor(y))
        assert out == vec_tensor(h.bracket(x, y))


def test_graded_flip_signs():
    h = sl2_twisted()
    rng = random.Random(41)
    for _ in range(10):
        x = vec_tensor(rand_vector(rng, 3))
        a2 = rand_phi_fixed_skew(rng, h)
        assert hom_schouten(h, a2, x) == -hom_schouten(h, x, a2)
        a3 = hom_schouten(h, a2, rand_phi_fixed_skew(rng, h))
        assert hom_schouten(h, a3, x) == -hom_schouten(h, x, a3)


def test_vector_bivector_bracket_matches_leibniz_expansion_untwisted():
    """With the identity twist the bracket against a wedge is the classical
    derivation rule, computed here directly from dyads."""
    h = sl2_lie()
    rng = random.Random(43)
    for _ in range(10):
        x = rand_vector(rng, 3)
        for a in range(3):
            for b in range(a + 1, 3):
                ea, eb = unit_vector(3, a), unit_vector(3, b)
                expect = dense_wedge(h.bracket(x, ea), eb) + dense_wedge(ea, h.bracket(x, eb))
                got = hom_schouten(h, vec_tensor(x), dense_wedge(ea, eb))
                assert got == expect


def test_vector_trivector_bracket_matches_leibniz_expansion_untwisted():
    h = sl2_lie()
    rng = random.Random(47)
    top = dense_wedge_t2_v1(SparseTensor(2, 3, {(0, 1): 1, (1, 0): -1}), unit_vector(3, 2))
    basis = [unit_vector(3, i) for i in range(3)]
    for _ in range(10):
        x = rand_vector(rng, 3)
        expect = (
            dense_wedge_t2_v1(dense_wedge(h.bracket(x, basis[0]), basis[1]), basis[2])
            + dense_wedge_t2_v1(dense_wedge(basis[0], h.bracket(x, basis[1])), basis[2])
            + dense_wedge_t2_v1(dense_wedge(basis[0], basis[1]), h.bracket(x, basis[2]))
        )
        assert hom_schouten(h, vec_tensor(x), top) == expect


def test_unsupported_degree_pairs_rejected():
    h = sl2_twisted()
    b2 = SparseTensor(2, 3, {(0, 1): 1, (1, 0): -1})
    b3 = dense_wedge_t2_v1(b2, unit_vector(3, 2))
    for a, b in ((b2, b3), (b3, b2), (b3, b3)):
        with pytest.raises(ValueError):
            hom_schouten(h, a, b)


def test_non_antisymmetric_inputs_rejected():
    h = sl2_twisted()
    sym = SparseTensor.from_entries(2, 3, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        hom_schouten(h, sym, SparseTensor(2, 3, {(0, 1): 1, (1, 0): -1}))
    with pytest.raises(ValueError):
        hom_schouten(h, vec_tensor(unit_vector(3, 0)), sym)


def _rand_multivector(rng: random.Random, degree: int, dim: int, fill: int = 4) -> SparseTensor:
    """A random antisymmetric multivector: `fill` basis wedges of distinct indices."""
    t = SparseTensor.zero(degree, dim)
    for _ in range(fill):
        idx, c = rng.sample(range(dim), degree), rand_fraction(rng)
        if degree == 1:
            t.add_into(tuple(idx), c)
        elif degree == 2:
            t.add_into(tuple(idx), c)
            t.add_into(tuple(reversed(idx)), -c)
        else:
            wedge3_basis(t, *idx, c)
    return t


def _sl2_twisted_power(copies: int) -> HomLieAlgebra:
    h = sl2_twisted()
    for _ in range(copies - 1):
        h = direct_sum(h, sl2_twisted())
    return h


ORACLE_ALGEBRAS = {
    "sl2_twisted": sl2_twisted,
    "sl2_lie": sl2_lie,
    "sl2_twisted^4": lambda: _sl2_twisted_power(4),
    "sl2_twisted+sl2_lie": lambda: direct_sum(sl2_twisted(), sl2_lie()),
    "D2": lambda: triple_double(special_linear_data(2)).algebra,
    "D3": lambda: triple_double(special_linear_data(3)).algebra,
    "sl2_shear": sl2_shear,
}


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_graded_bracket_matches_the_dense_reference(name):
    """Every supported degree pair on seeded random multivectors, and the
    bracket of a twist-fixed skew tensor with itself."""
    h = ORACLE_ALGEBRAS[name]()
    rng = random.Random(67)
    for pair in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        for _ in range(10):
            a, b = (_rand_multivector(rng, degree, h.dim) for degree in pair)
            assert hom_schouten(h, a, b) == dense_hom_schouten(h, a, b), pair
    lam = rand_phi_fixed_skew(rng, h)
    assert hom_schouten(h, lam, lam) == dense_hom_schouten(h, lam, lam)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_invariance_check_matches_the_dense_reference(name):
    """The whole report, failure by failure, on seeded tensors and on their
    symmetric parts."""
    h = ORACLE_ALGEBRAS[name]()
    rng = random.Random(73)
    for _ in range(10):
        t = rand_tensor(rng, 2, h.dim, fill=6)
        for s in (t, t + t.swap()):
            assert check_hom_ad_invariant(h, s).to_json() == dense_check_hom_ad_invariant(h, s).to_json()


@pytest.mark.parametrize("name", ["D2", "D3", "D3x2"])
def test_invariance_check_matches_the_dense_reference_on_canonical_r(name):
    base = triple_double(special_linear_data(2 if name == "D2" else 3))
    t = nuble(base, 2) if name == "D3x2" else base
    _, s = tensor_skew_sym_split(r_from_splitting(t))
    report = check_hom_ad_invariant(t.algebra, s)
    assert report.to_json() == dense_check_hom_ad_invariant(t.algebra, s).to_json()
    assert report.passed


def test_residual_is_half_the_squared_bracket_exact():
    h = sl2_lie()
    lam = lambda_st(special_linear_data(2))
    assert hcyb(h, lam) == hom_schouten(h, lam, lam).scale(Fraction(1, 2))
    ht = sl2_twisted()
    lam_t, _ = tensor_skew_sym_split(sl2_r())
    assert hcyb(ht, lam_t) == hom_schouten(ht, lam_t, lam_t).scale(Fraction(1, 2))


def test_residual_is_half_the_squared_bracket_random():
    rng = random.Random(53)
    algebras = [sl2_twisted(), sl2_lie(), triple_g_plus_h(special_linear_data(2)).algebra]
    for h in algebras:
        for _ in range(10):
            lam = rand_phi_fixed_skew(rng, h)
            assert hcyb(h, lam) == hom_schouten(h, lam, lam).scale(Fraction(1, 2))


def test_graded_jacobi_two_vectors_one_bivector():
    """[[phi(x), [[y, B]]]] + [[phi(y), [[B, x]]]] + [[phi B, [[x, y]]]] = 0."""
    h = sl2_twisted()
    rng = random.Random(59)
    for _ in range(50):
        x, y = rand_vector(rng, 3), rand_vector(rng, 3)
        b = rand_phi_fixed_skew(rng, h)
        phx, phy = vec_tensor(mat_vec(h.phi, x)), vec_tensor(mat_vec(h.phi, y))
        phb = b.apply_per_slot((h.phi, h.phi))
        total = (
            hom_schouten(h, phx, hom_schouten(h, vec_tensor(y), b))
            + hom_schouten(h, phy, hom_schouten(h, b, vec_tensor(x)))
            + hom_schouten(h, phb, hom_schouten(h, vec_tensor(x), vec_tensor(y)))
        )
        assert total.is_zero


def test_graded_jacobi_one_vector_two_bivectors():
    """[[phi(x), [[B, C]]]] + [[B, [[C, x]]]] - [[C, [[x, B]]]] = 0 for an
    involutive twist (the twist squares away on the bivectors)."""
    h = sl2_twisted()
    rng = random.Random(61)
    for _ in range(50):
        x = rand_vector(rng, 3)
        b, c = rand_phi_fixed_skew(rng, h), rand_phi_fixed_skew(rng, h)
        tx, phx = vec_tensor(x), vec_tensor(mat_vec(h.phi, x))
        total = (
            hom_schouten(h, phx, hom_schouten(h, b, c))
            + hom_schouten(h, b, hom_schouten(h, c, tx))
            - hom_schouten(h, c, hom_schouten(h, tx, b))
        )
        assert total.is_zero


def test_symmetric_part_residual_is_totally_antisymmetric_with_bracket_pairing():
    """The residual of the invariant symmetric half contracts against three
    covectors to <zeta, [S# xi, S# eta]>."""
    h = sl2_twisted()
    _, s = tensor_skew_sym_split(sl2_r())
    hs = hcyb(h, s)
    assert dict(hs.items()) == {
        (0, 1, 2): Fraction(-1, 4),
        (0, 2, 1): Fraction(1, 4),
        (1, 0, 2): Fraction(1, 4),
        (1, 2, 0): Fraction(-1, 4),
        (2, 0, 1): Fraction(-1, 4),
        (2, 1, 0): Fraction(1, 4),
    }
    sharp = dense_sharp_matrix(h, s)
    rng = random.Random(67)
    for _ in range(30):
        xi, eta, zeta = (rand_vector(rng, 3) for _ in range(3))
        lhs = sum(v * xi[a] * eta[b] * zeta[c] for (a, b, c), v in hs.entries.items())
        rhs = dense_vec_dot(zeta, h.bracket(mat_vec(sharp, xi), mat_vec(sharp, eta)))
        assert lhs == rhs


def test_skew_and_symmetric_residuals_cancel_for_the_worked_r():
    h = sl2_twisted()
    lam, s = tensor_skew_sym_split(sl2_r())
    assert hcyb(h, lam) == -hcyb(h, s)


# ---------------------------------------------------------------------------
# Identity checks


def test_pairing_check_passes_on_worked_data():
    report = hcyb_pairing_check(sl2_twisted(), sl2_r())
    assert report.applicable and report.passed


@pytest.mark.parametrize("n", [1, 2, 4])
def test_pairing_check_passes_on_the_canonical_r_of_a_power(n):
    t = nuble(triple_double(special_linear_data(3)), n)
    report = hcyb_pairing_check(t.algebra, r_from_splitting(t))
    assert report.applicable and report.passed


def test_pairing_check_names_the_basis_triple_of_a_perturbed_residual(monkeypatch):
    """One entry of hcyb moved by 3/7 fails the identity there, and only there,
    with the exact difference as its residual."""
    exact = rmatrix.hcyb

    def perturbed(h, r):
        out = exact(h, r)
        out.add_into((2, 0, 1), Fraction(3, 7))
        return out

    monkeypatch.setattr(rmatrix, "hcyb", perturbed)
    report = hcyb_pairing_check(sl2_twisted(), sl2_r())
    assert report.applicable
    assert [(f.check, f.index, f.residual) for f in report.failures] == [("pairing", (2, 0, 1), "3/7")]


def test_pairing_check_passes_on_random_involutive_four_dim():
    """A four-dimensional twisted algebra assembled from a nilpotent bracket
    and a sign-flip twist; the identity must hold for arbitrary r."""
    h = HomLieAlgebra.create(
        4,
        {(0, 1): {2: 1}},
        phi=[[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
    )
    rng = random.Random(71)
    for _ in range(5):
        t = SparseTensor.zero(2, 4)
        for _ in range(6):
            t.add_into((rng.randrange(4), rng.randrange(4)), Fraction(rng.randint(-4, 4)))
        fixed = (t + t.apply_per_slot((h.phi, h.phi))).scale(Fraction(1, 2))
        report = hcyb_pairing_check(h, fixed)
        assert report.applicable and report.passed


def test_pairing_check_inapplicable_without_involution():
    h = HomLieAlgebra.create(2, {}, phi=[[1, 0], [0, 2]])
    report = hcyb_pairing_check(h, SparseTensor.zero(2, 2))
    assert not report.applicable
    assert "involutive" in report.reason


def test_pairing_check_inapplicable_for_unfixed_r():
    h = sl2_twisted()
    report = hcyb_pairing_check(h, SparseTensor.from_entries(2, 3, {(0, 1): 1}))
    assert not report.applicable
    assert "fixed" in report.reason


@pytest.mark.parametrize("name", sorted(YB_ALGEBRAS))
def test_pairing_check_matches_the_dense_reference(name):
    """Seeded tensors and their twist-fixed averages: the report, applicable or
    not, equals the one built from dense r+ and r- on every basis triple."""
    h = YB_ALGEBRAS[name]()
    rng = random.Random(83)
    applicable = set()
    for _ in range(4):
        t = rand_tensor(rng, 2, h.dim, fill=6)
        for r in (t, (t + t.apply_per_slot((h.phi, h.phi))).scale(Fraction(1, 2))):
            report = hcyb_pairing_check(h, r)
            assert report.to_json() == dense_hcyb_pairing_check(h, hcyb(h, r), r).to_json()
            applicable.add(report.applicable)
    assert (True in applicable) == check_involutive(h)


def test_additivity_on_worked_split():
    h = sl2_twisted()
    lam, s = tensor_skew_sym_split(sl2_r())
    report = additivity_check(h, lam, s)
    assert report.applicable and report.passed


def test_additivity_on_double_with_form_inverse():
    t = triple_double(special_linear_data(2))
    s = SparseTensor.from_matrix(inverse(t.form))
    rng = random.Random(73)
    for _ in range(10):
        lam = rand_phi_fixed_skew(rng, t.algebra)
        report = additivity_check(t.algebra, lam, s)
        assert report.applicable and report.passed


def test_additivity_inapplicable_for_non_invariant_symmetric_part():
    h = sl2_twisted()
    lam, _ = tensor_skew_sym_split(sl2_r())
    report = additivity_check(h, lam, SparseTensor.from_entries(2, 3, {(0, 0): 1, (1, 1): 1}))
    assert not report.applicable
    assert "invariant" in report.reason


def test_additivity_inapplicable_for_unfixed_sum():
    """An invariant symmetric part with a twist-moving skew part: the sum is
    not twist-fixed, so the split law does not apply."""
    h = sl2_twisted()
    _, s = tensor_skew_sym_split(sl2_r())
    moving = SparseTensor(2, 3, {(0, 1): 1, (1, 0): -1})
    report = additivity_check(h, moving, s)
    assert not report.applicable
    assert "twist" in report.reason


def test_additivity_validates_symmetry_classes():
    h = sl2_twisted()
    lam, s = tensor_skew_sym_split(sl2_r())
    with pytest.raises(ValueError):
        additivity_check(h, s, s)
    with pytest.raises(ValueError):
        additivity_check(h, lam, lam)
