"""The certificate of a power: `check_manin_triple` reads an exact n-fold
power from its stored data (`manin._power_base`) and certifies only its base.
On passing powers, flat and nested, built and read back from text, its report
is that of the six checks run on every coordinate (`manin._six_checks`).
Each negative control is refused by the reader, or has a failing base, and
gets the full report, compared with the dense references."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest

import maninforge
from helpers import basis_image, dense_certificate, flip_first_constant, shear_product
from maninforge import cli, fileio, homlie, manin, polyuble
from maninforge.core import Subspace, _span
from maninforge.homlie import HomLieAlgebra, direct_sum, negate_form
from maninforge.manin import (
    Chain,
    ManinTriple,
    _power_base,
    _six_checks,
    check_manin_triple,
    hyperbolic_triple,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble


def with_twist(t: ManinTriple, diagonal: list[int]) -> ManinTriple:
    """t with the diagonal twist `diagonal`, the rest of its data shared."""
    h = t.algebra
    columns = [{i: Fraction(x)} for i, x in enumerate(diagonal)]
    return ManinTriple(HomLieAlgebra(h.dim, h.brackets, columns, h.form_rows), t.part1, t.part2, t.name)


D2 = triple_double(special_linear_data(2))
D3 = triple_double(special_linear_data(3))
# D2 twisted by the automorphism diag(1, -1, -1) of each sl2: H is fixed and
# the root vectors change sign, so both halves are stable and the form is
# twist-self-adjoint.
TWISTED_D2 = with_twist(D2, [1, -1, -1] * 2)
BASES = {
    "D2": D2,
    "D3": D3,
    "hyperbolic": hyperbolic_triple(),
    "g+h": triple_g_plus_h(special_linear_data(3)),
    "twisted D2": TWISTED_D2,
}


def stored(t: ManinTriple):
    """The data a triple stores, bracket keys in any order."""
    h = t.algebra
    return h.dim, h.brackets, h.phi_columns, h.form_rows, t.part1.echelon, t.part2.echelon


def read_back(t: ManinTriple) -> ManinTriple:
    return fileio.parse_triple(fileio.format_triple(t))


@pytest.mark.parametrize("name", BASES)
def test_powers_certify_as_their_six_checks(name):
    """For n = 1..8, built and read back from text, the reader finds the base
    and n of every power, n >= 2, and the report is the passing report of the
    six checks on every coordinate."""
    t = BASES[name]
    assert _power_base(t) is None
    for n in range(1, 9):
        for power in (nuble(t, n), read_back(nuble(t, n))):
            report = check_manin_triple(power)
            assert report.passed
            assert report.to_json() == _six_checks(power).to_json()
            read = _power_base(power)
            if n == 1:
                assert read is None
            else:
                base, m = read
                assert m == n and stored(base) == stored(t)


@pytest.mark.parametrize("inner", [(2,), (2, 2)], ids=["(D2^2)^3", "((D2^2)^2)^2"])
def test_nested_powers_certify_by_recursion(inner, monkeypatch):
    """A power of a power is read one level at a time, down to D2, and only
    D2 is checked in full."""
    levels = [D2]
    for n in inner:
        levels.append(nuble(levels[-1], n))
    outer = 3 if inner == (2,) else 2
    t = nuble(levels[-1], outer)
    checked = []
    monkeypatch.setattr(manin, "_six_checks", lambda t: checked.append(t.dim) or _six_checks(t))
    for power in (t, read_back(t)):
        assert check_manin_triple(power).to_json() == _six_checks(power).to_json() == {
            "name": "manin_triple",
            "verdict": "pass",
            "failures": [],
        }
        for level, n in zip(reversed(levels), (outer, *reversed(inner))):
            power, m = _power_base(power)
            assert m == n and stored(power) == stored(level)
        assert _power_base(power) is None
    assert checked == [6, 6]  # D2, once for the power and once for its text


# ---------------------------------------------------------------------------
# Negative controls: the reader refuses, or the base fails, and the full
# report names the failures


def with_algebra(t: ManinTriple, brackets=None, phi_columns=None, form_rows=None) -> ManinTriple:
    h = t.algebra
    algebra = HomLieAlgebra(
        h.dim,
        h.brackets if brackets is None else brackets,
        h.phi_columns if phi_columns is None else phi_columns,
        h.form_rows if form_rows is None else form_rows,
    )
    return ManinTriple(algebra, t.part1, t.part2)


def bracket_changed_in_the_last_block(t: ManinTriple) -> ManinTriple:
    """A structure constant of the last slot doubled."""
    table = {key: dict(coeffs) for key, coeffs in t.algebra.brackets.items()}
    key = max(table)
    k = min(table[key])
    table[key][k] *= 2
    return with_algebra(t, brackets=table)


def form_entry_changed_in_the_last_block(t: ManinTriple) -> ManinTriple:
    """One pairing of the last slot doubled, on both sides of the diagonal."""
    rows = [dict(row) for row in t.algebra.form_rows]
    i = t.dim - 1
    j = min(rows[i])
    rows[i][j] *= 2
    if i != j:
        rows[j][i] *= 2
    return with_algebra(t, form_rows=rows)


def twist_changed_in_the_last_block(t: ManinTriple) -> ManinTriple:
    """The twist column of the last coordinate negated."""
    columns = [dict(col) for col in t.algebra.phi_columns]
    columns[-1] = {k: -x for k, x in columns[-1].items()}
    return with_algebra(t, phi_columns=columns)


def edge_row_changed_in_the_last_block(t: ManinTriple) -> ManinTriple:
    """Part 2's last edge row, which joins slots 2 and 3 of a 3-fold power,
    with its entry in the last slot doubled; the rows stay canonical."""
    rows = [dict(row) for row in t.part2.echelon]
    last = max(r for r, row in enumerate(rows) if len(row) == 2 and set(row.values()) == {1})
    c = max(rows[last])
    rows[last][c] = Fraction(2)
    return ManinTriple(t.algebra, t.part1, Subspace(t.dim, tuple(rows)))


def label_row_changed_in_the_last_block(t: ManinTriple) -> ManinTriple:
    """Part 1's last row, in the base half that fills the last slot, plus the
    last coordinate; the span is reduced again."""
    rows = [dict(row) for row in t.part1.echelon]
    rows[-1][t.dim - 1] = rows[-1].get(t.dim - 1, 0) + 1
    return ManinTriple(t.algebra, _span(t.dim, [{c: x for c, x in row.items() if x} for row in rows]), t.part2)


def signs_not_alternating(t: ManinTriple) -> ManinTriple:
    """The halves of the 3-fold power over slots of signs +, +, -."""
    h = t.algebra
    power = nuble(t, 3)
    return ManinTriple(direct_sum(h, h, negate_form(h)), power.part1, power.part2)


NEGATIVES = {
    "D2^3, bracket": (bracket_changed_in_the_last_block(nuble(D2, 3)), "refused"),
    "D2^2, form": (form_entry_changed_in_the_last_block(nuble(D2, 2)), "refused"),
    "D2^3, form": (form_entry_changed_in_the_last_block(nuble(D2, 3)), "refused"),
    "D2^3, twist": (twist_changed_in_the_last_block(nuble(D2, 3)), "refused"),
    "twisted D2^3, twist": (twist_changed_in_the_last_block(nuble(TWISTED_D2, 3)), "refused"),
    "hyperbolic^3, twist": (twist_changed_in_the_last_block(nuble(hyperbolic_triple(), 3)), "refused"),
    "D2^3, edge row": (edge_row_changed_in_the_last_block(nuble(D2, 3)), "refused"),
    "D2^3, label row": (label_row_changed_in_the_last_block(nuble(D2, 3)), "base fails"),
    "D2^3, signs + + -": (signs_not_alternating(D2), "refused"),
    "hyperbolic^3, signs + + -": (signs_not_alternating(hyperbolic_triple()), "refused"),
    "power of a flipped D2": (nuble(flip_first_constant(D2), 3), "base fails"),
    "D3, one edge of a d = 8 power": (D3, "refused"),
}


@pytest.mark.parametrize("name", NEGATIVES)
def test_negative_controls_get_the_full_report(name):
    t, outcome = NEGATIVES[name]
    read = _power_base(t)
    if outcome == "refused":
        assert read is None
    else:
        base, n = read
        assert n == 3 and not check_manin_triple(base).passed
    report = check_manin_triple(t)
    assert report.to_json() == _six_checks(t).to_json() == dense_certificate(t).to_json()
    assert report.passed == (name == "D3, one edge of a d = 8 power")


def test_the_double_is_read_as_one_edge_and_refused_at_its_labels():
    """D3's part 1 is the diagonal, whose first row {0: 1, 8: 1} is the edge
    row of a power of an 8-dimensional base, and its algebra is sl3 + (-sl3),
    exactly such a power's; part 2's row (h, -h) has its pivot in slot 1 and
    leaves it, so no base half can be read there."""
    assert D3.part1.echelon[0] == {0: 1, 8: 1}
    assert any(next(iter(row)) < 8 <= max(row) for row in D3.part2.echelon)
    assert _power_base(D3) is None


def test_a_sheared_image_is_refused_at_its_first_row(monkeypatch):
    """A basis change of D3^2 moves part 1's first row off the edge row, so
    the reader stops before it reads the chain: any read of `manin.Chain`
    would raise."""
    t = basis_image(nuble(D3, 2), shear_product(32, 8, 3))
    assert t.part1.echelon[0] != {0: 1, 16: 1}
    monkeypatch.setattr(manin, "Chain", None)
    assert _power_base(t) is None


# ---------------------------------------------------------------------------
# The work of a passing certificate


def forbid_building_powers(monkeypatch):
    def refuse(*args):
        raise AssertionError("a power or a direct sum was built")

    for module in (manin, polyuble, homlie, fileio, cli):
        for name in ("nuble", "direct_sum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def count_jacobi_dims(monkeypatch) -> list[int]:
    dims: list[int] = []
    real = homlie.check_hom_jacobi
    monkeypatch.setattr(manin, "check_hom_jacobi", lambda h: dims.append(h.dim) or real(h))
    return dims


def test_a_passing_verify_of_d3_to_the_8_checks_one_16_dimensional_algebra(tmp_path, monkeypatch, capsys):
    """CLI `verify manin` on D3^8 (dimension 128) runs the Jacobi check once,
    on D3, and builds no power and no direct sum."""
    path = tmp_path / "d3x8.triple"
    path.write_text(fileio.format_triple(nuble(D3, 8)), encoding="utf-8")
    dims = count_jacobi_dims(monkeypatch)
    forbid_building_powers(monkeypatch)
    assert cli.run(["verify", "manin", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert dims == [16]


def test_polyuble_check_certifies_the_power_it_built_from_its_base(tmp_path, monkeypatch, capsys):
    """`polyuble --check` builds D3^2, then checks only D3 in full."""
    path = tmp_path / "d3.triple"
    path.write_text(fileio.format_triple(D3), encoding="utf-8")
    dims = count_jacobi_dims(monkeypatch)
    assert cli.run(["polyuble", str(path), "-n", "2", "--check"]) == 0
    assert "manin_triple: PASS" in capsys.readouterr().err
    assert dims == [16]


def test_the_reader_eliminates_nothing_and_reads_no_dense_view(monkeypatch):
    """The reader compares stored rows and columns: no row reduction, no
    dense view of the twist, the form or a half."""
    power = read_back(nuble(D3, 8))

    def forbidden(*args):
        raise AssertionError("eliminated or read a dense view")

    monkeypatch.setattr(maninforge.core, "_eliminated", forbidden)
    monkeypatch.setattr(HomLieAlgebra, "phi", property(forbidden))
    monkeypatch.setattr(HomLieAlgebra, "form", property(forbidden))
    monkeypatch.setattr(Subspace, "rows", property(forbidden))
    base, n = _power_base(power)
    assert n == 8 and stored(base) == stored(D3)


def test_the_reader_compares_edge_entries_by_identity(monkeypatch):
    """Work-count guard: a parsed "1" is the shared `core.ONE` that the edge
    rows of `Chain.rows` hold, so comparing a parsed power's edge rows
    calls `Fraction.__eq__` for fewer than one entry in each edge piece."""
    power = read_back(nuble(D3, 8))
    edge_entries = sum(2 * D3.dim for half in Chain.BASE.power(8).halves for _, _, k in half if not k)
    calls = []
    equal = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append(1) or equal(a, b))
    assert _power_base(power)[1] == 8
    assert edge_entries == 224 and len(calls) < edge_entries
