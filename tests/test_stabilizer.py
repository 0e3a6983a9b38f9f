"""Stabilizers of linear actions and the subalgebra conditions a subspace must
satisfy to be compatible with a quasi-triangular structure."""
from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

import maninforge.core
import maninforge.homlie

import maninforge.stabilizer

from helpers import (
    SL2_FORM,
    dense_brackets_in,
    dense_check_admissible_representation,
    dense_check_representation,
    dense_contains,
    dense_mat_vec,
    dense_of_columns,
    dense_rep,
    dense_sharp_matrix,
    dense_stabilizer_at,
    dense_vec_dot,
    rand_fraction,
    rand_subspace,
    rand_tensor,
)
from maninforge.core import (
    Subspace,
    _apply_columns,
    _dense_vector,
    _orthogonal_complement,
    _sparse,
    _unit_columns,
    annihilator,
    identity_matrix,
    inverse,
    map_subspace,
    mat_mul,
    mat_vec,
    subspace_equal,
    tensor_skew_sym_split,
    unit_vector,
    SparseTensor,
)
from maninforge.homlie import (
    HomLieAlgebra,
    LinearRep,
    adjoint_representation,
    check_admissible_representation,
    check_representation,
    direct_sum,
)
from maninforge.manin import (
    hyperbolic_triple,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.rmatrix import sl2_lie, sl2_r, sl2_twisted
from maninforge.stabilizer import (
    check_bracket_sharp_condition,
    check_coisotropy,
    check_coisotropy_form,
    check_phi_stable,
    check_s_sharp_condition,
    is_subalgebra,
    _twist_stable,
    stabilizer_at,
    stabilizer_report,
)

DEFINING_MATRICES = ([[1, 0], [0, -1]], [[0, 0], [-1, 0]], [[0, 1], [0, 0]])


def worked_s():
    return tensor_skew_sym_split(sl2_r())[1]


# ---------------------------------------------------------------------------
# Representations as actions


def test_action_construction_validation():
    h = sl2_lie()
    with pytest.raises(ValueError, match="3 rho matrices"):
        check_representation(h, LinearRep.of(2, DEFINING_MATRICES[:2]))
    with pytest.raises(ValueError, match="rho\\[0\\] must be 2x2"):
        LinearRep.of(2, ([[1, 0]], [[0, 0]], [[0, 1]]))


def test_adjoint_representation_matches_bracket():
    h = sl2_lie()
    rep = adjoint_representation(h)
    y = (Fraction(0), Fraction(1), Fraction(1))
    for i in range(3):
        assert _dense_vector(_apply_columns(rep.rho[i], _sparse(y)), 3) == h.bracket(unit_vector(3, i), y)
    assert check_representation(h, rep).passed


def test_defining_action_satisfies_commutator_axiom():
    rep = LinearRep.of(2, DEFINING_MATRICES)
    assert check_representation(sl2_lie(), rep).passed


def test_broken_action_located():
    """Swapping the two root-vector matrices flips commutator signs."""
    h = sl2_lie()
    bad = LinearRep.of(2, (DEFINING_MATRICES[0], DEFINING_MATRICES[2], DEFINING_MATRICES[1]))
    report = check_representation(h, bad)
    assert not report.passed
    assert all(f.check == "bracket_action" for f in report.failures)


# ---------------------------------------------------------------------------
# Stabilizers


def test_adjoint_stabilizer_of_diagonal_element_is_its_own_line():
    rep = adjoint_representation(sl2_lie())
    stab = stabilizer_at(rep, unit_vector(3, 0))
    assert subspace_equal(stab, Subspace.span(3, [[1, 0, 0]]))


def test_stabilizer_of_zero_is_everything():
    rep = adjoint_representation(sl2_lie())
    assert stabilizer_at(rep, (Fraction(0),) * 3).dim == 3
    assert stabilizer_at(LinearRep.of(0, [[], [], []]), ()).dim == 3


def test_defining_stabilizer_of_first_basis_point():
    """The matrices killing (1,0) by left action are spanned by the strictly
    upper-triangular one."""
    rep = LinearRep.of(2, DEFINING_MATRICES)
    stab = stabilizer_at(rep, (Fraction(1), Fraction(0)))
    assert subspace_equal(stab, Subspace.span(3, [[0, 0, 1]]))


def test_stabilizer_point_dimension_checked():
    rep = LinearRep.of(2, DEFINING_MATRICES)
    with pytest.raises(ValueError):
        stabilizer_at(rep, (Fraction(1),))


@pytest.mark.parametrize("entry", [1.5, "1", True, None])
def test_stabilizer_point_entries_must_be_exact(entry):
    """A float point entry used to raise an AttributeError, and a string one a TypeError."""
    for rep in (adjoint_representation(sl2_lie()), LinearRep.of(3, [])):
        with pytest.raises(ValueError, match=f"point entry 0 is {re.escape(repr(entry))}, not an int or a Fraction"):
            stabilizer_at(rep, (entry, 0, 0))


def test_twist_stability_of_an_untwisted_algebra_computes_no_image(monkeypatch):
    """Work-count guard: the identity twist keeps every subspace, so
    `_twist_stable` asks `_images_outside` for nothing; a twisted algebra asks once."""
    calls = []
    images_outside = maninforge.homlie._images_outside

    def counted(*args):
        calls.append(args)
        return images_outside(*args)

    monkeypatch.setattr(maninforge.homlie, "_images_outside", counted)
    monkeypatch.setattr(maninforge.core, "_images_outside", counted)
    q = Subspace.span(3, [[0, 1, 0]])
    assert _twist_stable(sl2_lie(), q)
    assert calls == []
    assert _twist_stable(sl2_twisted(), q)
    assert len(calls) == 1


def test_stabilizers_are_subalgebras_random_points():
    rng = random.Random(83)
    for h in (sl2_lie(), triple_g_plus_h(special_linear_data(2)).algebra):
        rep = adjoint_representation(h)
        for _ in range(20):
            p = tuple(Fraction(rng.randint(-5, 5)) for _ in range(h.dim))
            assert is_subalgebra(h, stabilizer_at(rep, p))


def test_stabilizer_equivariance_under_nilpotent_flow():
    """exp(ad) of a nilpotent element is an exact polynomial automorphism g;
    the stabilizer of the moved point is the moved stabilizer."""
    h = sl2_lie()
    rep = adjoint_representation(h)
    ad_top = dense_of_columns(rep.rho[2], 3)
    g = identity_matrix(3)
    term = identity_matrix(3)
    fact = 1
    for k in range(1, 4):
        term = mat_mul(ad_top, term)
        fact *= k
        g = tuple(tuple(x + y / fact for x, y in zip(g_row, t_row)) for g_row, t_row in zip(g, term))
    rng = random.Random(89)
    for _ in range(20):
        p = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        left = stabilizer_at(rep, mat_vec(g, p))
        right = map_subspace(g, stabilizer_at(rep, p))
        assert subspace_equal(left, right)


# ---------------------------------------------------------------------------
# Subspace predicates


def test_is_subalgebra():
    h = sl2_lie()
    assert is_subalgebra(h, Subspace.span(3, [[1, 0, 0], [0, 1, 0]]))  # solvable half
    assert not is_subalgebra(h, Subspace.span(3, [[0, 1, 0], [0, 0, 1]]))  # roots close onto e0
    assert is_subalgebra(h, Subspace.zero(3))
    assert is_subalgebra(h, Subspace.full(3))


def test_phi_stability():
    phi = sl2_twisted().phi_columns
    assert check_phi_stable(Subspace.span(3, [[0, 0, 1]]), phi)
    # a line sent to its own negative is still stable
    assert check_phi_stable(Subspace.span(3, [[0, 1, 1]]), phi)
    assert not check_phi_stable(Subspace.span(3, [[1, 1, 0]]), phi)
    assert check_phi_stable(Subspace.full(3), phi)
    assert check_phi_stable(Subspace.zero(3), phi)


# ---------------------------------------------------------------------------
# Coisotropy


def test_borel_plus_cartan_is_coisotropic():
    gph = triple_g_plus_h(special_linear_data(2))
    q = Subspace.span(4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert check_coisotropy(gph, q)


def test_every_half_of_every_worked_triple_is_coisotropic():
    data = special_linear_data(2)
    for t in (hyperbolic_triple(), triple_g_plus_h(data), triple_double(data)):
        assert check_coisotropy(t, t.part1), t.name
        assert check_coisotropy(t, t.part2), t.name


def test_small_line_in_the_double_is_not_coisotropic():
    dbl = triple_double(special_linear_data(2))
    assert not check_coisotropy(dbl, Subspace.span(6, [[1, 0, 0, 0, 0, 0]]))


def test_full_space_is_coisotropic():
    dbl = triple_double(special_linear_data(2))
    assert check_coisotropy(dbl, Subspace.full(6))


def test_coisotropy_wrappers_agree():
    rng = random.Random(97)
    dbl = triple_double(special_linear_data(2))
    for _ in range(20):
        q = Subspace.span(
            6, [[rng.randint(-3, 3) for _ in range(6)] for _ in range(rng.randint(0, 6))]
        )
        assert check_coisotropy(dbl, q) == check_coisotropy_form(dbl.algebra, q, dbl.algebra.form_rows)


def test_coisotropy_checks_ambient_dimension():
    dbl = triple_double(special_linear_data(2))
    with pytest.raises(ValueError):
        check_coisotropy(dbl, Subspace.span(3, [[1, 0, 0]]))


# ---------------------------------------------------------------------------
# Sharp-image conditions


def test_zero_symmetric_part_satisfies_image_condition_everywhere():
    h = sl2_twisted()
    rng = random.Random(101)
    zero_s = SparseTensor.zero(2, 3)
    for _ in range(10):
        q = Subspace.span(
            3, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(rng.randint(0, 3))]
        )
        assert check_s_sharp_condition(h, zero_s, q)
        assert check_bracket_sharp_condition(h, zero_s, q)


def test_invertible_symmetric_part_fails_on_the_zero_subspace():
    t = triple_double(special_linear_data(2))
    s = SparseTensor.from_matrix(inverse(t.form))
    assert not check_s_sharp_condition(t.algebra, s, Subspace.zero(6))


def test_worked_image_condition_discriminates():
    h = sl2_twisted()
    s = worked_s()
    q_plane = Subspace.span(3, [[1, 0, 0], [0, 0, 1]])
    q_line = Subspace.span(3, [[0, 0, 1]])
    assert check_s_sharp_condition(h, s, q_plane)
    assert check_bracket_sharp_condition(h, s, q_plane)
    # the annihilator of the line maps onto the diagonal direction, outside it,
    # yet the brackets of the two image vectors fall back into the line
    assert not check_s_sharp_condition(h, s, q_line)
    assert check_bracket_sharp_condition(h, s, q_line)


def test_image_condition_matches_scalar_formulation_50_random():
    """Membership of every sharp image in q is the vanishing of every
    annihilator functional on every sharp image; cross-checked pointwise."""
    rng = random.Random(103)
    algebras = [sl2_twisted(), triple_g_plus_h(special_linear_data(2)).algebra]
    for _ in range(25):
        for h in algebras:
            raw = SparseTensor.zero(2, h.dim)
            for _ in range(6):
                raw.add_into(
                    (rng.randrange(h.dim), rng.randrange(h.dim)),
                    Fraction(rng.randint(-4, 4)),
                )
            s = tensor_skew_sym_split(raw)[1]
            q = Subspace.span(
                h.dim,
                [
                    [rng.randint(-3, 3) for _ in range(h.dim)]
                    for _ in range(rng.randint(0, h.dim))
                ],
            )
            ann = annihilator(q)
            mat = dense_sharp_matrix(h, s)
            scalar = all(
                dense_vec_dot(eta, mat_vec(mat, xi)) == 0 for xi in ann.rows for eta in ann.rows
            )
            assert check_s_sharp_condition(h, s, q) == scalar


def test_sharp_conditions_check_dimensions():
    h = sl2_twisted()
    with pytest.raises(ValueError):
        check_s_sharp_condition(h, worked_s(), Subspace.zero(4))
    with pytest.raises(ValueError):
        check_bracket_sharp_condition(h, worked_s(), Subspace.zero(4))


# ---------------------------------------------------------------------------
# Bundled report


def test_report_passes_for_the_worked_plane():
    h = sl2_twisted()
    report = stabilizer_report(h, worked_s(), Subspace.span(3, [[1, 0, 0], [0, 0, 1]]))
    assert report.passed


def test_report_names_each_failed_condition():
    h = sl2_twisted()
    report = stabilizer_report(h, worked_s(), Subspace.zero(3), form_rows=_unit_columns(3))
    checks = [f.check for f in report.failures]
    assert "sharp_image" in checks
    assert "sharp_brackets" in checks
    assert "coisotropic" in checks
    assert "twist_stable" not in checks
    report2 = stabilizer_report(h, None, Subspace.span(3, [[1, 1, 0]]))
    assert [f.check for f in report2.failures] == ["twist_stable"]
    report3 = stabilizer_report(sl2_lie(), None, Subspace.span(3, [[0, 1, 0], [0, 0, 1]]))
    assert [f.check for f in report3.failures] == ["subalgebra"]


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3)])
def test_form_of_the_wrong_shape_gets_the_constructors_message(shape):
    """A wrong-shape form, as sparse rows, gets the message of the algebra's
    constructor; it once got the generic message of a dense product."""
    h = sl2_twisted()
    form_rows = [{j: 1 for j in range(shape[1])} for _ in range(shape[0])]
    with pytest.raises(ValueError) as expected:
        HomLieAlgebra(3, {}, _unit_columns(3), form_rows)
    assert str(expected.value).startswith("form must be 3x3 as sparse vectors: ")
    q = Subspace.span(3, [[1, 0, 0]])
    for check in (
        lambda: stabilizer_report(h, None, q, form_rows=form_rows),
        lambda: check_coisotropy_form(h, q, form_rows),
    ):
        with pytest.raises(ValueError) as raised:
            check()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("entry", [0.5, "1/2", True])
def test_twist_and_form_entries_must_be_exact(entry):
    """A sparse twist or form refuses an entry that is not an int or a Fraction,
    as the algebra's constructor does; a dense float twist once made
    `check_phi_stable` answer False."""
    h, q = sl2_twisted(), Subspace.span(3, [[1, 0, 0]])
    vectors = ({0: entry}, {1: 1}, {2: 1})
    message = rf"must be 3x3 as sparse vectors: column 0 has entry {re.escape(repr(entry))} at row 0"
    for what, check in (
        ("phi", lambda: check_phi_stable(q, vectors)),
        ("form", lambda: check_coisotropy_form(h, q, vectors)),
        ("form", lambda: stabilizer_report(h, None, q, vectors)),
    ):
        with pytest.raises(ValueError, match=f"^{what} {message}"):
            check()
    with pytest.raises(ValueError, match="^phi must be 3x3 as sparse vectors: column 1 has row index 3 outside range"):
        check_phi_stable(q, ({0: 1}, {3: 1}, {2: 1}))


def test_twist_with_the_wrong_column_count_is_blamed_on_the_twist():
    """The subspace fixes the dimension, and the twist is checked against it:
    two columns for a subspace of a 3-space were blamed on the subspace."""
    with pytest.raises(ValueError, match=r"^phi must be 3x3 as sparse vectors: got 2 columns$"):
        check_phi_stable(Subspace.full(3), ({0: 1}, {1: 1}))


# ---------------------------------------------------------------------------
# Ambient dimension

ENTRY_POINTS = {
    "is_subalgebra": lambda t, s, q: is_subalgebra(t.algebra, q),
    "check_phi_stable": lambda t, s, q: check_phi_stable(q, t.algebra.phi_columns),
    "check_coisotropy": lambda t, s, q: check_coisotropy(t, q),
    "check_coisotropy_form": lambda t, s, q: check_coisotropy_form(t.algebra, q, t.algebra.form_rows),
    "check_s_sharp_condition": lambda t, s, q: check_s_sharp_condition(t.algebra, s, q),
    "check_bracket_sharp_condition": lambda t, s, q: check_bracket_sharp_condition(t.algebra, s, q),
    "stabilizer_report": lambda t, s, q: stabilizer_report(t.algebra, s, q, t.algebra.form_rows),
}


@pytest.mark.parametrize("ambient", [4, 14])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_condition_rejects_a_subspace_of_another_dimension(entry, ambient):
    """A line of a smaller or larger space is an error, not a vacuous pass.
    `check_phi_stable` has no algebra: its subspace fixes the dimension, and
    the twist's six columns are blamed."""
    t = triple_double(special_linear_data(2))
    s = SparseTensor.from_matrix(inverse(t.form))
    q = Subspace.span(ambient, [unit_vector(ambient, 0)])
    message = f"ambient dimension {ambient}, expected 6"
    if entry == "check_phi_stable":
        message = f"^phi must be {ambient}x{ambient} as sparse vectors: got 6 columns$"
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](t, s, q)


# ---------------------------------------------------------------------------
# Dense oracle for the bracket conditions

def oracle_cases():
    """(name, algebra, form, [subspace]): the halves of D2 and D3, and seeded
    random subspaces of every dimension 1..d of D2, D3 and two twisted sl2s."""
    rng = random.Random(107)
    sl2 = sl2_twisted()
    sl2_sum = direct_sum(*[HomLieAlgebra.unchecked(3, sl2.brackets, sl2.phi, SL2_FORM)] * 2)
    cases = []
    for name, t in (("D2", triple_double(special_linear_data(2))), ("D3", triple_double(special_linear_data(3)))):
        spaces = [t.part1, t.part2] + [rand_subspace(rng, t.dim, k) for k in range(1, t.dim + 1)]
        cases.append((name, t.algebra, t.form, spaces))
    spaces = [rand_subspace(rng, sl2_sum.dim, k) for k in range(1, sl2_sum.dim + 1)]
    cases.append(("sl2+sl2", sl2_sum, sl2_sum.form, spaces))
    return cases


def test_bracket_conditions_match_the_dense_reference():
    """is_subalgebra, coisotropy and the sharp-bracket condition agree with
    dense pairwise brackets, with S the inverse form and a random symmetric S."""
    rng = random.Random(109)
    seen = {"subalgebra": set(), "coisotropic": set(), "sharp_brackets": set()}
    for name, h, form, spaces in oracle_cases():
        raw = rand_tensor(rng, 2, h.dim, fill=4)
        tensors = (SparseTensor.from_matrix(inverse(form)), (raw + raw.swap()).scale(Fraction(1, 2)))
        for q in spaces:
            outcomes = [
                ("subalgebra", is_subalgebra(h, q), dense_brackets_in(h, q.rows, q)),
                (
                    "coisotropic",
                    check_coisotropy_form(h, q, h.form_rows),
                    dense_brackets_in(h, _orthogonal_complement(q, [_sparse(row) for row in form]).rows, q),
                ),
            ]
            for s in tensors:
                images = [dense_mat_vec(dense_sharp_matrix(h, s), xi) for xi in annihilator(q).rows]
                outcomes.append(
                    ("sharp_brackets", check_bracket_sharp_condition(h, s, q), dense_brackets_in(h, images, q))
                )
            for check, fast, dense in outcomes:
                assert fast == dense, (name, q.rows, check)
                seen[check].add(fast)
    assert all(values == {True, False} for values in seen.values()), seen


def test_twist_and_image_conditions_match_the_dense_reference():
    """Twist stability and the sharp-image condition agree with dense images
    and dense membership, with S the inverse form and a random symmetric S."""
    rng = random.Random(113)
    seen = {"twist_stable": set(), "sharp_image": set()}
    for name, h, form, spaces in oracle_cases():
        raw = rand_tensor(rng, 2, h.dim, fill=4)
        tensors = (SparseTensor.from_matrix(inverse(form)), (raw + raw.swap()).scale(Fraction(1, 2)))
        for q in spaces:
            dense_stable = all(dense_contains(q, dense_mat_vec(h.phi, row)) for row in q.rows)
            outcomes = [("twist_stable", check_phi_stable(q, h.phi_columns), dense_stable)]
            for s in tensors:
                sharp = dense_sharp_matrix(h, s)
                dense_image = all(dense_contains(q, dense_mat_vec(sharp, xi)) for xi in annihilator(q).rows)
                outcomes.append(("sharp_image", check_s_sharp_condition(h, s, q), dense_image))
            for check, fast, dense in outcomes:
                assert fast == dense, (name, q.rows, check)
                seen[check].add(fast)
    assert all(values == {True, False} for values in seen.values()), seen


# ---------------------------------------------------------------------------
# Sparse columns against the frozen dense references


def representation_cases():
    """(name, algebra, representation): the adjoint representations of sl2,
    twisted sl2, D2 and D3, the defining representation of sl2 and its
    root-swapped breakage, a singular alpha, and seeded one-entry
    perturbations of rho and of alpha (a new entry, zero included) under
    both twists."""
    sl2, twisted = sl2_lie(), sl2_twisted()
    cases = [
        (name, h, adjoint_representation(h))
        for name, h in (
            ("sl2", sl2),
            ("twisted sl2", twisted),
            ("D2", triple_double(special_linear_data(2)).algebra),
            ("D3", triple_double(special_linear_data(3)).algebra),
        )
    ]
    cases += [
        ("defining", sl2, LinearRep.of(2, DEFINING_MATRICES)),
        ("root-swapped", sl2, LinearRep.of(2, (DEFINING_MATRICES[0], DEFINING_MATRICES[2], DEFINING_MATRICES[1]))),
        ("singular alpha", sl2, LinearRep(3, adjoint_representation(sl2).rho, ({0: 1}, {}, {2: Fraction(1, 2)}))),
    ]
    rng = random.Random(127)
    for name, h in (("sl2", sl2), ("twisted sl2", twisted)):
        rep = adjoint_representation(h)
        for k in range(16):
            maps = [*rep.rho, rep.alpha]
            m = len(rep.rho) if k % 2 else rng.randrange(len(rep.rho))
            r, c = rng.randrange(h.dim), rng.randrange(h.dim)
            column = {**maps[m][c], r: rand_fraction(rng, -2, 2)}
            maps[m] = maps[m][:c] + (column,) + maps[m][c + 1 :]
            what = "alpha" if m == len(rep.rho) else f"rho[{m}]"
            cases.append((f"{name}, {what} entry ({r}, {c}) perturbed", h, LinearRep(h.dim, tuple(maps[:-1]), maps[-1])))
    return cases


def test_representation_checks_match_the_dense_references():
    """Both representation checks on sparse columns give the reports of the
    dense `mat_mul` references, failures, indices and inapplicability alike."""
    verdicts = set()
    for name, h, rep in representation_cases():
        dense = dense_rep(rep)
        for check, reference in (
            (check_representation, dense_check_representation),
            (check_admissible_representation, dense_check_admissible_representation),
        ):
            report = check(h, rep)
            assert report.to_json() == reference(h, dense).to_json(), (name, check.__name__)
            verdicts.add(report.verdict)
    assert verdicts == {"pass", "fail", "inapplicable"}


def test_stabilizers_match_the_dense_reference():
    """`stabilizer_at` on sparse columns spans the subspace of the dense
    `mat_vec` reference at seeded points, zero entries and the origin included."""
    rng = random.Random(131)
    dims = set()
    for name, h, rep in representation_cases():
        dense = dense_rep(rep)
        points = [(0,) * rep.target_dim] + [
            tuple(rand_fraction(rng) if rng.randrange(3) else 0 for _ in range(rep.target_dim)) for _ in range(6)
        ]
        for p in points:
            stab = stabilizer_at(rep, p)
            assert stab == dense_stabilizer_at(dense, p), (name, p)
            dims.add(stab.dim < h.dim)
    assert dims == {True, False}


def test_representations_and_stabilizer_conditions_need_no_dense_matrix(monkeypatch):
    """Work-count guard: once D3 is built, its adjoint representation, both
    representation checks, the stabilizer of a point and the subalgebra
    conditions apply and compose sparse columns; no dense matrix product or
    matrix-vector product runs."""
    t = triple_double(special_linear_data(3))
    h, q = t.algebra, t.part1
    s = SparseTensor.from_matrix(inverse(t.form))
    point = tuple(Fraction(i % 3 - 1) for i in range(h.dim))

    def refuse(*args):
        raise AssertionError("dense matrix product called")

    for module in (maninforge.core, maninforge.homlie, maninforge.stabilizer):
        for name in ("mat_mul", "mat_vec"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rep = adjoint_representation(h)
    assert check_representation(h, rep).passed
    assert check_admissible_representation(h, rep).passed
    assert is_subalgebra(h, stabilizer_at(rep, point))
    assert check_phi_stable(q, h.phi_columns)
    assert check_coisotropy_form(h, q, h.form_rows)
    assert stabilizer_report(h, s, q, h.form_rows).passed
