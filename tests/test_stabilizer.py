"""The stabilizer conditions a subspace must satisfy to be compatible with a
quasi-triangular structure, all read from the one `stabilizer_report`."""
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
    TWISTED_ALGEBRAS,
    assert_stabilizer_witnesses,
    basis_image,
    dense_null_rows,
    dense_sharp_matrix,
    dense_stabilizer_report,
    dense_vec_dot,
    rand_subspace,
    rand_tensor,
    shear_product,
)
from maninforge.core import (
    ONE,
    Subspace,
    _span,
    _unit_columns,
    inverse,
    map_subspace,
    mat_vec,
    tensor_skew_sym_split,
    unit_vector,
    SparseTensor,
)
from maninforge.homlie import HomLieAlgebra, direct_sum
from maninforge.manin import (
    hyperbolic_triple,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble
from maninforge.rmatrix import sl2_lie, sl2_r, sl2_twisted
from maninforge.stabilizer import stabilizer_report


def worked_s():
    return tensor_skew_sym_split(sl2_r())[1]


def failing(h, s, q, form_rows=None) -> set[str]:
    """The names of the conditions that `stabilizer_report` fails."""
    return {f.check for f in stabilizer_report(h, s, q, form_rows).failures}


def coisotropic(t, q) -> bool:
    """Coisotropy of q in the triple t's pairing, read from the report."""
    return "coisotropic" not in failing(t.algebra, None, q, t.algebra.form_rows)


# ---------------------------------------------------------------------------
# Twist stability


def test_twist_stability_of_an_untwisted_algebra_computes_no_image(monkeypatch):
    """Work-count guard: the identity twist keeps every subspace, so the
    report asks `_images_outside` for nothing; a twisted algebra asks once."""
    calls = []
    images_outside = maninforge.homlie._images_outside

    def counted(*args):
        calls.append(args)
        return images_outside(*args)

    monkeypatch.setattr(maninforge.homlie, "_images_outside", counted)
    monkeypatch.setattr(maninforge.core, "_images_outside", counted)
    q = Subspace.span(3, [[0, 1, 0]])
    assert stabilizer_report(sl2_lie(), None, q).passed
    assert calls == []
    assert stabilizer_report(sl2_twisted(), None, q).passed
    assert len(calls) == 1


def test_closure_is_not_a_stabilizer_condition():
    """The roots of sl2 bracket onto e0, so their span is not a subalgebra;
    with no pairing and no S, the report has only twist stability to check."""
    q = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    assert stabilizer_report(sl2_lie(), None, q).passed


def test_phi_stability():
    h = sl2_twisted()
    assert "twist_stable" not in failing(h, None, Subspace.span(3, [[0, 0, 1]]))
    # a line sent to its own negative is still stable
    assert "twist_stable" not in failing(h, None, Subspace.span(3, [[0, 1, 1]]))
    assert stabilizer_report(h, None, Subspace.span(3, [[1, 1, 0]])).to_json()["failures"] == [
        {"check": "twist_stable", "index": [0], "residual": "(1, -1, 0)"}
    ]
    assert "twist_stable" not in failing(h, None, Subspace.full(3))
    assert "twist_stable" not in failing(h, None, Subspace.zero(3))


# ---------------------------------------------------------------------------
# Coisotropy


def test_borel_plus_cartan_is_coisotropic():
    gph = triple_g_plus_h(special_linear_data(2))
    q = Subspace.span(4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert coisotropic(gph, q)


def test_every_half_of_every_worked_triple_is_coisotropic():
    data = special_linear_data(2)
    for t in (hyperbolic_triple(), triple_g_plus_h(data), triple_double(data)):
        assert coisotropic(t, t.part1), t.name
        assert coisotropic(t, t.part2), t.name


def test_small_line_in_the_double_is_not_coisotropic():
    dbl = triple_double(special_linear_data(2))
    assert not coisotropic(dbl, Subspace.span(6, [[1, 0, 0, 0, 0, 0]]))


def test_full_space_is_coisotropic():
    dbl = triple_double(special_linear_data(2))
    assert coisotropic(dbl, Subspace.full(6))


def test_coisotropy_checks_ambient_dimension():
    dbl = triple_double(special_linear_data(2))
    with pytest.raises(ValueError):
        coisotropic(dbl, Subspace.span(3, [[1, 0, 0]]))


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
        assert not failing(h, zero_s, q) & {"s_sharp_image", "sharp_brackets"}


def test_invertible_symmetric_part_fails_on_the_zero_subspace():
    t = triple_double(special_linear_data(2))
    s = SparseTensor.from_matrix(inverse(t.form))
    assert "s_sharp_image" in failing(t.algebra, s, Subspace.zero(6))


def test_worked_image_condition_discriminates():
    h = sl2_twisted()
    s = worked_s()
    q_plane = Subspace.span(3, [[1, 0, 0], [0, 0, 1]])
    q_line = Subspace.span(3, [[0, 0, 1]])
    assert stabilizer_report(h, s, q_plane).passed
    # the annihilator of the line maps onto the diagonal direction, outside it,
    # yet the brackets of the two image vectors fall back into the line
    assert failing(h, s, q_line) == {"s_sharp_image"}


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
            ann = dense_null_rows(q.rows, h.dim)
            mat = dense_sharp_matrix(h, s)
            scalar = all(
                dense_vec_dot(eta, mat_vec(mat, xi)) == 0 for xi in ann for eta in ann
            )
            assert ("s_sharp_image" not in failing(h, s, q)) == scalar


def test_sharp_conditions_check_dimensions():
    h = sl2_twisted()
    with pytest.raises(ValueError):
        stabilizer_report(h, worked_s(), Subspace.zero(4))


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
    assert checks == ["coisotropic", "s_sharp_image", "sharp_brackets"]
    assert all(f.index is not None and f.residual is not None for f in report.failures)
    report2 = stabilizer_report(h, None, Subspace.span(3, [[1, 1, 0]]))
    assert [f.check for f in report2.failures] == ["twist_stable"]


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3)])
def test_form_of_the_wrong_shape_gets_the_constructors_message(shape):
    """A wrong-shape form, as sparse rows, gets the message of the algebra's
    constructor; it once got the generic message of a dense product."""
    h = sl2_twisted()
    form_rows = [{j: 1 for j in range(shape[1])} for _ in range(shape[0])]
    with pytest.raises(ValueError) as expected:
        HomLieAlgebra(3, {}, _unit_columns(3), form_rows)
    assert str(expected.value).startswith("form must be 3x3 as sparse vectors: ")
    with pytest.raises(ValueError) as raised:
        stabilizer_report(h, None, Subspace.span(3, [[1, 0, 0]]), form_rows=form_rows)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("entry", [0.5, "1/2", True])
def test_twist_and_form_entries_must_be_exact(entry):
    """A sparse twist or form refuses an entry that is not an int or a Fraction:
    the twist in the algebra's constructor, the form there and in the report.
    A dense float twist once made the twist-stability check answer False."""
    h, q = sl2_twisted(), Subspace.span(3, [[1, 0, 0]])
    vectors = ({0: entry}, {1: 1}, {2: 1})
    message = rf"must be 3x3 as sparse vectors: column 0 has entry {re.escape(repr(entry))} at row 0"
    for what, check in (
        ("phi", lambda: HomLieAlgebra(3, {}, vectors)),
        ("form", lambda: stabilizer_report(h, None, q, vectors)),
    ):
        with pytest.raises(ValueError, match=f"^{what} {message}"):
            check()
    with pytest.raises(ValueError, match="^phi must be 3x3 as sparse vectors: column 1 has row index 3 outside range"):
        HomLieAlgebra(3, {}, ({0: 1}, {3: 1}, {2: 1}))


def test_twist_with_the_wrong_column_count_is_blamed_on_the_twist():
    """The algebra fixes the dimension, and the twist is checked against it:
    two columns for a 3-space were once blamed on the subspace."""
    with pytest.raises(ValueError, match=r"^phi must be 3x3 as sparse vectors: got 2 columns$"):
        HomLieAlgebra(3, {}, ({0: 1}, {1: 1}))


# ---------------------------------------------------------------------------
# Ambient dimension

def twisted_sl2_sum() -> HomLieAlgebra:
    sl2 = sl2_twisted()
    return direct_sum(*[HomLieAlgebra.unchecked(3, sl2.brackets, sl2.phi, SL2_FORM)] * 2)


ENTRY_POINTS = {
    "stabilizer_report": lambda t, s, q: stabilizer_report(t.algebra, s, q, t.algebra.form_rows),
    "stabilizer_report, twist only": lambda t, s, q: stabilizer_report(t.algebra, None, q),
    "stabilizer_report, pairing only": lambda t, s, q: stabilizer_report(t.algebra, None, q, t.algebra.form_rows),
    "stabilizer_report, S only": lambda t, s, q: stabilizer_report(t.algebra, s, q),
    "stabilizer_report, twisted algebra": lambda t, s, q: stabilizer_report(twisted_sl2_sum(), None, q),
}


@pytest.mark.parametrize("ambient", [4, 14])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_condition_rejects_a_subspace_of_another_dimension(entry, ambient):
    """A line of a smaller or larger space is an error, not a vacuous pass,
    whichever conditions are asked for: with no pairing and no S, the
    identity twist alone computes nothing, and a twisted algebra of the
    same dimension 6 would compute the twist's images."""
    t = triple_double(special_linear_data(2))
    s = SparseTensor.from_matrix(inverse(t.form))
    q = Subspace.span(ambient, [unit_vector(ambient, 0)])
    with pytest.raises(ValueError, match=f"ambient dimension {ambient}, expected 6"):
        ENTRY_POINTS[entry](t, s, q)


# ---------------------------------------------------------------------------
# Dense references

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


def reports_match_the_dense_reference(seed: int, checks: tuple[str, ...]) -> None:
    """Over `oracle_cases`, with the pairing and with S the inverse form or a
    random symmetric S, the report equals `dense_stabilizer_report`, and each
    witness is the image or bracket it names; both verdicts occur for each
    of checks."""
    rng = random.Random(seed)
    seen = {check: set() for check in checks}
    for name, h, form, spaces in oracle_cases():
        raw = rand_tensor(rng, 2, h.dim, fill=4)
        tensors = (SparseTensor.from_matrix(inverse(form)), (raw + raw.swap()).scale(Fraction(1, 2)))
        for q in spaces:
            for s in tensors:
                report = stabilizer_report(h, s, q, h.form_rows)
                assert report.to_json() == dense_stabilizer_report(h, s, q, h.form_rows).to_json(), (name, q.rows)
                assert_stabilizer_witnesses(report, h, s, q, h.form_rows)
                failed = {f.check for f in report.failures}
                for check in checks:
                    seen[check].add(check not in failed)
    assert all(values == {True, False} for values in seen.values()), seen


def test_bracket_conditions_match_the_dense_reference():
    """Coisotropy and the sharp-bracket condition, against dense pairwise
    brackets."""
    reports_match_the_dense_reference(109, ("coisotropic", "sharp_brackets"))


def test_twist_and_image_conditions_match_the_dense_reference():
    """Twist stability and the sharp-image condition, against dense images
    and dense membership."""
    reports_match_the_dense_reference(113, ("twist_stable", "s_sharp_image"))


CONDITIONS = ("twist_stable", "s_sharp_image", "sharp_brackets")


@pytest.mark.parametrize("name", sorted(TWISTED_ALGEBRAS))
def test_conditions_under_twists_that_are_not_involutions_match_the_dense_references(name):
    """The report equals the dense reference, witnesses included, on the zero
    space, the basis lines and random subspaces, with a random symmetric S."""
    rng = random.Random(name)
    h = TWISTED_ALGEBRAS[name]()
    raw = rand_tensor(rng, 2, h.dim, fill=4)
    s = (raw + raw.swap()).scale(Fraction(1, 2))
    spaces = [Subspace(h.dim, ())] + [_span(h.dim, [{i: ONE}]) for i in range(h.dim)]
    spaces += [rand_subspace(rng, h.dim, k) for k in range(1, h.dim + 1)]
    seen = {check: set() for check in CONDITIONS}
    for q in spaces:
        report = stabilizer_report(h, s, q)
        assert report.to_json() == dense_stabilizer_report(h, s, q).to_json(), q.rows
        assert_stabilizer_witnesses(report, h, s, q)
        for check in CONDITIONS:
            seen[check].add(check not in {f.check for f in report.failures})
    assert seen["s_sharp_image"] == {True, False}
    assert seen["twist_stable"] == ({True} if h.untwisted else {True, False})


TRANSPORTED_TRIPLES = {
    "D2": lambda: triple_double(special_linear_data(2)),
    "D3": lambda: triple_double(special_linear_data(3)),
    "g+h sl2": lambda: triple_g_plus_h(special_linear_data(2)),
    "D2x2": lambda: nuble(triple_double(special_linear_data(2)), 2),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(TRANSPORTED_TRIPLES))
def test_stabilizer_reports_agree_before_and_after_a_change_of_basis(name, seed):
    """A change of basis p is an isomorphism of triples; moving the subspace,
    the pairing and S along p^-1 leaves the verdict of every stabilizer
    condition unchanged, the comparison that ROADMAP item 4 makes after a
    transport.  The witnesses are written in each side's own basis, so only
    their names are compared; each is checked against the dense references
    on its side.  With S the inverse form both halves pass."""
    rng = random.Random(seed)
    t = TRANSPORTED_TRIPLES[name]()
    p = shear_product(t.dim, 2 * t.dim, seed)
    pinv = inverse(p)
    image = basis_image(t, p)
    raw = rand_tensor(rng, 2, t.dim, fill=4)
    tensors = (SparseTensor.from_matrix(inverse(t.form)), (raw + raw.swap()).scale(Fraction(1, 2)))
    spaces = [t.part1, t.part2] + [rand_subspace(rng, t.dim, k) for k in (1, 2, t.dim // 2, t.dim - 1)]
    verdicts = set()
    for s in tensors:
        moved_s = s.apply_per_slot([pinv, pinv])
        for q in spaces:
            moved_q = map_subspace(pinv, q)
            before = stabilizer_report(t.algebra, s, q, t.algebra.form_rows)
            after = stabilizer_report(image.algebra, moved_s, moved_q, image.algebra.form_rows)
            assert [f.check for f in after.failures] == [f.check for f in before.failures], q.rows
            assert_stabilizer_witnesses(before, t.algebra, s, q, t.algebra.form_rows)
            assert_stabilizer_witnesses(after, image.algebra, moved_s, moved_q, image.algebra.form_rows)
            verdicts.add(before.passed)
            if s is tensors[0] and q in (t.part1, t.part2):
                assert before.passed, q.rows
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Sparse columns only


def test_stabilizer_conditions_need_no_dense_matrix(monkeypatch):
    """Work-count guard: once D3 is built, the stabilizer conditions apply
    sparse columns; no dense matrix product or matrix-vector product runs."""
    t = triple_double(special_linear_data(3))
    h, q = t.algebra, t.part1
    s = SparseTensor.from_matrix(inverse(t.form))

    def refuse(*args):
        raise AssertionError("dense matrix product called")

    for module in (maninforge.core, maninforge.homlie, maninforge.stabilizer):
        for name in ("mat_mul", "mat_vec"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert stabilizer_report(h, s, q, h.form_rows).passed


def test_cli_stabilizer_on_d3_cubed_reduces_one_set_of_rows(tmp_path, capsys):
    """Work-count guard: the coisotropy test reduces the covectors of q's
    rows under the form once, and brackets the null rows of that reduction;
    the sharp conditions read the annihilator's rows off q's canonical rows.
    Neither spanning set is reduced again, so a passing `stabilizer --S` on
    D3^3 runs `_gauss_jordan` once, reading its inputs included."""
    import json
    import sys

    from maninforge.cli import run
    from maninforge.fileio import format_subspace, format_tensor, format_triple

    t = nuble(triple_double(special_linear_data(3)), 3)
    paths = []
    for name, text in (
        ("t", format_triple(t)),
        ("q", format_subspace(t.part1)),
        ("s", format_tensor(SparseTensor.from_matrix(inverse(t.form)))),
    ):
        paths.append(tmp_path / name)
        paths[-1].write_text(text, encoding="utf-8")
    code = maninforge.core._gauss_jordan.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        exit_code = run(["stabilizer", str(paths[0]), "--q", str(paths[1]), "--S", str(paths[2]), "--json"])
    finally:
        sys.setprofile(None)
    payload = json.loads(capsys.readouterr().out)
    assert (exit_code, payload["verdict"], calls) == (0, "pass", 1)
    assert payload["result"] == "coisotropic: true\ntwist_stable: true\ns_sharp_image: true\nsharp_brackets: true\n"
