"""The double lemma's certificate in `check_quasi_triangular`: on an untwisted
algebra, an r whose symmetric part is invariant and nondegenerate and whose
two leg spaces are subalgebras of half the dimension (`rmatrix._lagrangian_legs`)
is the canonical element of a Manin triple, so its residual is zero and
`hcyb` is not run.  On the canonical r of worked, power and hostile triples,
and on its swap, the report equals the tuple-index reference's
(`helpers.fraction_quasi_triangular`) with no `hcyb` call.  Each negative
control fails some hypothesis of the lemma, the certificate declines, `hcyb`
runs once, and the report equals the reference's; whether `hcyb` is nonzero
there is not asserted, since the lemma says nothing about its converse."""
from __future__ import annotations

from fractions import Fraction

import pytest

from helpers import basis_image, fraction_quasi_triangular
from maninforge import cli, core, fileio, rmatrix
from maninforge.core import SparseTensor, _span, _symmetric_part
from maninforge.homlie import HomLieAlgebra, _brackets_outside, direct_sum
from maninforge.manin import (
    ManinTriple,
    _dual_rows,
    check_manin_triple,
    hyperbolic_triple,
    r_from_splitting,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble
from maninforge.rmatrix import check_quasi_triangular, sl2_r, sl2_twisted
from test_fraction_free import D2_IMAGE, _moved_half, hostile_basis

D2 = triple_double(special_linear_data(2))
D3 = triple_double(special_linear_data(3))


@pytest.fixture
def hcyb_calls(monkeypatch) -> list[int]:
    """The dimension of every `hcyb` call made through `rmatrix`."""
    calls: list[int] = []
    hcyb = rmatrix.hcyb
    monkeypatch.setattr(rmatrix, "hcyb", lambda h, r: calls.append(h.dim) or hcyb(h, r))
    return calls


def tilted(t: ManinTriple, part: int, i: int, j: int, c: Fraction) -> ManinTriple:
    """t with one half moved by the skew map T, T e_i = c f_j and T e_j = -c f_i,
    from the dual basis e of that half into the canonical rows f of the other:
    the graph of T is again Lagrangian and complementary to the other half,
    and is a subalgebra or not."""
    xi, x = _dual_rows(t)  # part 2's canonical rows and the basis of part 1 dual to them
    moved, other = (list(x), xi) if part == 1 else (list(xi), x)
    for a, b, scale in ((i, j, c), (j, i, -c)):
        row = dict(moved[a])
        for k, y in other[b].items():
            row[k] = row.get(k, 0) + scale * y
        moved[a] = {k: y for k, y in row.items() if y}
    half = _span(t.dim, moved)
    return ManinTriple(t.algebra, half, t.part2) if part == 1 else ManinTriple(t.algebra, t.part1, half)


def yau_twisted(t: ManinTriple, signs: list[int]) -> ManinTriple:
    """The Yau twist of t by the diagonal automorphism alpha = diag(signs):
    bracket alpha[., .], twist alpha and form <alpha ., .>, both halves kept."""
    h = t.algebra
    brackets = {key: {k: signs[k] * c for k, c in cs.items()} for key, cs in h.brackets.items()}
    columns = [{i: Fraction(s)} for i, s in enumerate(signs)]
    form_rows = [{j: signs[i] * g for j, g in row.items()} for i, row in enumerate(h.form_rows)]
    return ManinTriple(HomLieAlgebra(h.dim, brackets, columns, form_rows), t.part1, t.part2)


def canonical(t: ManinTriple) -> tuple[HomLieAlgebra, SparseTensor]:
    return t.algebra, r_from_splitting(t)


TRIPLES = {
    "D2": lambda: D2,
    "D3": lambda: D3,
    **{f"D3^{n}": (lambda n=n: nuble(D3, n)) for n in range(2, 9)},
    "sl4 double": lambda: triple_double(special_linear_data(4)),
    "sl5 double": lambda: triple_double(special_linear_data(5)),
    "g+h sl2": lambda: triple_g_plus_h(special_linear_data(2)),
    "g+h sl3": lambda: triple_g_plus_h(special_linear_data(3)),
    "hyperbolic": hyperbolic_triple,
    "D2 hostile image": lambda: D2_IMAGE,
    "D3 hostile image": lambda: basis_image(D3, hostile_basis(D3.dim, 11, 4)),
    "D3^2 hostile image": lambda: basis_image(nuble(D3, 2), hostile_basis(2 * D3.dim, 13, 6)),
    # a Lagrangian subalgebra other than the diagonal, complementary to part 2
    "D2, part1 tilted onto a subalgebra": lambda: tilted(D2, 1, 0, 1, Fraction(2, 3)),
}


@pytest.mark.parametrize("name", TRIPLES)
def test_the_certificate_holds_on_canonical_elements_and_matches_the_reference(name, hcyb_calls):
    """The canonical r of each triple, and its swap (the canonical element of
    the triple with its halves exchanged), classify as the reference does,
    quasi-triangular and factorizable, with no `hcyb` call."""
    t = TRIPLES[name]()
    assert check_manin_triple(t).passed
    h, r = canonical(t)
    for tensor in (r, r.swap()):
        report = check_quasi_triangular(h, tensor)
        assert hcyb_calls == []
        assert report == fraction_quasi_triangular(h, tensor)
        assert report.verdict == "quasi-triangular" and report.factorizable


SCALES = [Fraction(7, 3), Fraction(-5, 2)]
SCALED = {
    "D3^2": lambda: nuble(D3, 2),
    "D3^2 hostile image": TRIPLES["D3^2 hostile image"],
}


@pytest.mark.parametrize("c", SCALES, ids=str)
@pytest.mark.parametrize("name", SCALED)
def test_the_integer_legs_decide_at_any_scale(name, c, hcyb_calls):
    """c r, for the canonical r of a power and of a hostile image, is
    certified with no `hcyb` call and classifies as the reference does: the
    legs' spans and their closure are read from r's integer numerators, and
    neither moves with the scale."""
    h, r = canonical(SCALED[name]())
    scaled = r.scale(c)
    report = check_quasi_triangular(h, scaled)
    assert hcyb_calls == []
    assert report == fraction_quasi_triangular(h, scaled)
    assert report.verdict == "quasi-triangular" and report.factorizable


def _pair_rescaled(t: ManinTriple) -> SparseTensor:
    """The canonical r with its first dual pair xi_0 (x) x_0 weighted 7/5: the
    same leg spaces, a symmetric part that is not invariant."""
    xi, x = _dual_rows(t)
    pair = SparseTensor(2, t.dim, {(a, b): Fraction(2, 5) * u * v for a, u in xi[0].items() for b, v in x[0].items()})
    return r_from_splitting(t) + pair


def _skew_on_half(t: ManinTriple) -> SparseTensor:
    """A nondegenerate skew tensor on part 1, sum_i x_2i ^ x_(2i+1) over its
    canonical rows: both legs are part 1, and the symmetric part is zero."""
    rows = t.part1.echelon
    out = SparseTensor.zero(2, t.dim)
    for i in range(0, len(rows), 2):
        for a, u in rows[i].items():
            for b, v in rows[i + 1].items():
                out.add_into((a, b), u * v)
                out.add_into((b, a), -u * v)
    return out


def _sl2_sum_r(copies: int) -> SparseTensor:
    """The worked r of `sl2_r` in each summand of `copies` twisted sl2s."""
    entries = sl2_r().entries.items()
    return SparseTensor(2, 3 * copies, {(3 * k + a, 3 * k + b): v for k in range(copies) for (a, b), v in entries})


def _yau_d2() -> tuple[HomLieAlgebra, SparseTensor]:
    """The Yau twist of D2 by Ad(diag(1, -1)) on each sl2, with (alpha (x) 1) of
    its canonical r: quasi-triangular, and every hypothesis but phi = Id holds."""
    signs = [1, -1, -1] * 2
    t = yau_twisted(D2, signs)
    r = r_from_splitting(t)
    return t.algebra, SparseTensor(2, t.dim, {(a, b): signs[a] * v for (a, b), v in r.entries.items()})


def _moved_d3_square() -> tuple[HomLieAlgebra, SparseTensor]:
    t = nuble(D3, 2)
    return canonical(ManinTriple(t.algebra, _moved_half(t.part1, 3, Fraction(2, 7)), t.part2))


# Each control with the hypotheses of the lemma that it fails.
CONTROLS = {
    "twisted sl2, sl2_r": (lambda: (sl2_twisted(), sl2_r()), {"untwisted", "half dimension"}),
    "twisted sl2^4, sl2_r in each summand": (
        lambda: (direct_sum(*[sl2_twisted()] * 4), _sl2_sum_r(4)),
        {"untwisted", "half dimension"},
    ),
    "Yau-twisted D2, (alpha x 1) r": (_yau_d2, {"untwisted"}),
    "D3, Omega/2": (lambda: (D3.algebra, _symmetric_part(r_from_splitting(D3))), {"half dimension"}),
    "D3, one entry of r moved": (
        lambda: (D3.algebra, r_from_splitting(D3) + SparseTensor(2, D3.dim, {(0, 1): Fraction(7, 11)})),
        {"s invariant", "half dimension", "part 1 closed"},
    ),
    "D3, a dual pair rescaled": (lambda: (D3.algebra, _pair_rescaled(D3)), {"s invariant"}),
    "D3, skew on part 1": (lambda: (D3.algebra, _skew_on_half(D3)), {"factorizable"}),
    "D3^2, part1 moved": (_moved_d3_square, {"s invariant", "part 1 closed"}),
    "D3, part1 tilted off a subalgebra": (lambda: canonical(tilted(D3, 1, 0, 1, Fraction(2, 3))), {"part 1 closed"}),
    "D3, part2 tilted off a subalgebra": (lambda: canonical(tilted(D3, 2, 0, 2, Fraction(2, 3))), {"part 2 closed"}),
}


def failed_hypotheses(h: HomLieAlgebra, r: SparseTensor) -> set[str]:
    """The hypotheses of the lemma that (h, r) fails, each tested on its own:
    part 1 is the span of r's second-slot vectors, part 2 of its first-slot ones."""
    report = check_quasi_triangular(h, r)
    rows: dict[int, dict] = {}
    columns: dict[int, dict] = {}
    for (a, b), x in r.entries.items():
        rows.setdefault(a, {})[b] = x
        columns.setdefault(b, {})[a] = x
    g1, g2 = _span(h.dim, rows.values()), _span(h.dim, columns.values())
    holds = {
        "untwisted": h.untwisted,
        "s invariant": report.s_invariant,
        "factorizable": report.factorizable,
        "half dimension": 2 * g1.dim == 2 * g2.dim == h.dim,
        "part 1 closed": not _brackets_outside(h, g1.echelon, g1._numerator_rows),
        "part 2 closed": not _brackets_outside(h, g2.echelon, g2._numerator_rows),
    }
    return {name for name, held in holds.items() if not held}


@pytest.mark.parametrize("name", CONTROLS)
def test_each_negative_control_declines_and_matches_the_reference(name, hcyb_calls):
    make, failed = CONTROLS[name]
    h, r = make()
    report = check_quasi_triangular(h, r)
    assert hcyb_calls == [h.dim]
    assert report == fraction_quasi_triangular(h, r)
    assert failed_hypotheses(h, r) == failed


def test_every_hypothesis_is_the_only_one_failed_by_some_control():
    """So dropping any one hypothesis from the certificate changes some
    control's `hcyb` count, and where its residual is nonzero, its report."""
    alone = {next(iter(failed)) for _, failed in CONTROLS.values() if len(failed) == 1}
    assert alone == {"untwisted", "s invariant", "factorizable", "half dimension", "part 1 closed", "part 2 closed"}


@pytest.mark.parametrize("c", SCALES, ids=str)
@pytest.mark.parametrize("name", [name for name in CONTROLS if "tilted" in name])
def test_a_scaled_tilted_control_still_declines(name, c, hcyb_calls):
    """A scale does not close a leg space that is not a subalgebra."""
    h, r = CONTROLS[name][0]()
    scaled = r.scale(c)
    report = check_quasi_triangular(h, scaled)
    assert hcyb_calls == [h.dim]
    assert report == fraction_quasi_triangular(h, scaled)
    assert failed_hypotheses(h, scaled) == CONTROLS[name][1]


@pytest.mark.parametrize("n", [2, 4])
def test_the_canonical_r_of_d3_powers_runs_no_hcyb(n, tmp_path, hcyb_calls, capsys):
    """Neither the library nor CLI `hcybe` sums the residual of the canonical r
    of D3^2 and D3^4; the CLI prints the zero residual and the verdict."""
    t = nuble(D3, n)
    r = r_from_splitting(t)
    report = check_quasi_triangular(t.algebra, r)
    assert report.verdict == "quasi-triangular" and report.factorizable and report.hcyb_residual.is_zero
    algebra_path, r_path = tmp_path / "power.algebra", tmp_path / "r.tensor"
    algebra_path.write_text(fileio.format_algebra(t.algebra), encoding="utf-8")
    r_path.write_text(fileio.format_tensor(r), encoding="utf-8")
    assert cli.run(["hcybe", str(algebra_path), "--r", str(r_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"tensor degree=3 dim={t.dim}\n") and "verdict: quasi-triangular\n" in out
    assert hcyb_calls == []


@pytest.mark.parametrize("n", [2, 4, 8])
def test_the_canonical_r_of_d3_powers_is_classified_in_three_eliminations(n, monkeypatch, hcyb_calls):
    """On the canonical r of D3^n, `check_quasi_triangular` eliminates r's
    nonzero rows (g1; there are d - 6 of them), then r's d/2 columns at g1's
    pivots (g2), then the d kept rows of both legs (the rank-d/2 lemma), and
    nothing else: no `_sharp_sums`, `_integer_row` or `hcyb` call."""
    h, r = canonical(nuble(D3, n))
    fed = []
    eliminated = rmatrix._eliminated

    def counted(rows):
        rows = list(rows)
        fed.append(len(rows))
        return eliminated(rows)

    def forbidden(*args):
        raise AssertionError("called on the canonical r")

    monkeypatch.setattr(rmatrix, "_eliminated", counted)
    monkeypatch.setattr(rmatrix, "_sharp_sums", forbidden)
    monkeypatch.setattr(core, "_integer_row", forbidden)
    report = check_quasi_triangular(h, r)
    assert report.verdict == "quasi-triangular" and report.factorizable
    assert fed == [len({a for a, _ in r.entries}), h.dim // 2, h.dim] and fed[0] == h.dim - 6
    assert hcyb_calls == []


def test_the_canonical_r_of_d3_to_the_32_is_certified_without_hcyb(hcyb_calls):
    t = nuble(D3, 32)
    report = check_quasi_triangular(t.algebra, r_from_splitting(t))
    assert report.verdict == "quasi-triangular" and report.factorizable
    assert hcyb_calls == []
