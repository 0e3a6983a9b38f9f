"""The stored form of the twist and the form: sparse columns of phi and sparse
rows of the Gram matrix, checked against dense references, and a guard that
the certifiers read only that storage, never the dense views."""
from __future__ import annotations

from fractions import Fraction

import pytest

from helpers import dense_nuble
from maninforge import fileio
from maninforge.core import (
    Matrix,
    Permutation,
    SparseTensor,
    Subspace,
    identity_matrix,
    sparse_columns,
    tensor_skew_sym_split,
)
from maninforge.homlie import HomLieAlgebra, check_hom_jacobi, check_twist_morphism, direct_sum, negate_form
from maninforge.manin import (
    check_manin_isomorphism,
    check_manin_triple,
    coboundary_cobracket,
    double_from_bialgebra,
    lambda_st,
    r_from_splitting,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble, verify_snake_iso
from maninforge.rmatrix import (
    additivity_check,
    check_quasi_triangular,
    cyb,
    hcyb,
    hcyb_pairing_check,
    hom_schouten,
    sl2_r,
    sl2_twisted,
)
from maninforge.stabilizer import stabilizer_report
from test_certifier_oracles import BASES, PERTURBED, perturbed
from test_rmatrix import ORACLE_ALGEBRAS, YB_ALGEBRAS


def assert_storage_matches(h: HomLieAlgebra, phi: Matrix, form: Matrix | None) -> None:
    """h stores the sparse columns of the dense phi and the sparse rows of the
    dense form, indices in increasing order, and its flag and views agree."""
    assert h.phi_columns == tuple(sparse_columns(phi))
    if form is None:
        assert h.form_rows is None
    else:
        assert h.form_rows == tuple({j: g for j, g in enumerate(row) if g} for row in form)
        assert all(list(row) == sorted(row) for row in h.form_rows)
    assert all(list(col) == sorted(col) for col in h.phi_columns)
    assert h.untwisted == (phi == identity_matrix(h.dim))
    assert h.phi == phi and h.form == form


ALGEBRAS = {f"yb {k}": f for k, f in YB_ALGEBRAS.items()}
ALGEBRAS.update({f"oracle {k}": f for k, f in ORACLE_ALGEBRAS.items()})
ALGEBRAS.update({f"base {k}": (lambda t=t: t.algebra) for k, t in BASES.items()})
ALGEBRAS.update(
    {f"perturbed {k} {seed}": (lambda k=k, seed=seed: perturbed(BASES[k], seed).algebra) for k, seed in PERTURBED[::5]}
)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_storage_matches_the_dense_matrices_of_the_file_round_trip(name):
    """The algebra's file text holds the dense rows of phi and the form; the
    parsed algebra stores them sparse and formats back to the same text."""
    h = ALGEBRAS[name]()
    text = fileio.format_algebra(h)
    rows = {"phi": [], "form": []}
    for line in text.splitlines():
        keyword, _, rest = line.partition(" ")
        if keyword in rows:
            rows[keyword].append(tuple(Fraction(tok) for tok in rest.split()))
    parsed = fileio.parse_algebra(text)
    for algebra in (h, parsed):
        assert_storage_matches(algebra, tuple(rows["phi"]), tuple(rows["form"]) if rows["form"] else None)
    assert parsed == h
    assert fileio.format_algebra(parsed) == text


def test_parsing_hands_the_sparse_storage_to_the_constructors(monkeypatch):
    """The parser builds the twist's columns, the form's rows and the halves'
    rows from the tokens it reads; no dense matrix or spanning set is coerced
    on the way."""
    power = nuble(triple_double(special_linear_data(3)), 2)
    text = fileio.format_triple(power)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense input coerced")

    monkeypatch.setattr(HomLieAlgebra, "unchecked", classmethod(forbidden))
    monkeypatch.setattr(Subspace, "span", classmethod(forbidden))
    parsed = fileio.parse_triple(text)
    assert (parsed.algebra, parsed.part1, parsed.part2) == (power.algebra, power.part1, power.part2)
    assert fileio.parse_algebra(fileio.format_algebra(power.algebra)) == power.algebra
    assert fileio.parse_subspace(fileio.format_subspace(power.part2)) == power.part2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_storage_of_the_powers_matches_the_dense_power(n):
    d3 = triple_double(special_linear_data(3))
    power, reference = nuble(d3, n), dense_nuble(d3, n)
    assert power.algebra == reference.algebra
    assert_storage_matches(power.algebra, reference.algebra.phi, reference.algebra.form)
    triple_text = fileio.format_triple(power)
    assert fileio.format_triple(fileio.parse_triple(triple_text)) == triple_text


def test_dense_matrix_in_the_positional_constructor_is_rejected():
    """The fields hold sparse columns and rows: a dense matrix passed to the
    constructor by mistake is an error, not a silent misuse."""
    h = sl2_twisted()
    with pytest.raises(ValueError, match="phi must be 3x3 as sparse vectors: column 0 is a tuple"):
        HomLieAlgebra(3, h.brackets, h.phi)
    with pytest.raises(ValueError, match="form must be 3x3 as sparse vectors: got 2 columns"):
        HomLieAlgebra(3, h.brackets, h.phi_columns, [{0: Fraction(1)}, {1: Fraction(1)}])
    with pytest.raises(ValueError, match=r"phi must be 3x3 as sparse vectors: column 1 has row index 3 outside"):
        HomLieAlgebra(3, h.brackets, ({0: Fraction(1)}, {3: Fraction(1)}, {2: Fraction(1)}))


# ---------------------------------------------------------------------------
# No dense view built


@pytest.fixture
def no_dense_views(monkeypatch):
    """Make reading the dense views of phi, the form and a subspace's rows raise."""

    def forbidden(self):
        raise AssertionError("dense view of phi, the form or a subspace read")

    monkeypatch.setattr(HomLieAlgebra, "phi", property(forbidden))
    monkeypatch.setattr(HomLieAlgebra, "form", property(forbidden))
    monkeypatch.setattr(Subspace, "rows", property(forbidden))


def test_certifiers_build_no_dense_view(no_dense_views):
    """Every certifier and construction reads phi, the form and the halves
    from the stored columns and rows, on twisted and untwisted algebras alike;
    so no algebra or subspace it is given, or builds inside, gains a dense view."""
    data = special_linear_data(3)
    d3 = triple_double(data)
    power = nuble(d3, 2)
    h = power.algebra
    twisted = sl2_twisted()
    assert check_manin_triple(power).passed and check_manin_triple(d3).passed
    assert check_hom_jacobi(h).passed and check_twist_morphism(h).passed
    assert check_twist_morphism(twisted).passed
    assert check_manin_isomorphism(Permutation((1, 0)).columns(d3.dim), power, power).failures
    assert verify_snake_iso(d3, 2, 2).passed
    assert direct_sum(twisted, negate_form(data.algebra)).dim == 11
    r = r_from_splitting(power)
    lam, s = tensor_skew_sym_split(r)
    assert hcyb(h, r).is_zero and cyb(h, r).is_zero
    assert check_quasi_triangular(h, r).verdict == "quasi-triangular"
    assert check_quasi_triangular(twisted, sl2_r()).verdict == "quasi-triangular"
    assert not cyb(twisted, sl2_r()).is_zero
    assert hcyb_pairing_check(twisted, sl2_r()).passed
    assert additivity_check(twisted, *tensor_skew_sym_split(sl2_r())).passed
    assert hom_schouten(h, lam, lam).scale(Fraction(1, 2)) == hcyb(h, lam)
    table = coboundary_cobracket(data.algebra, lambda_st(data))
    double = double_from_bialgebra(data.algebra, table)
    assert stabilizer_report(h, s, power.part1, form_rows=h.form_rows).passed
    assert stabilizer_report(twisted, SparseTensor.zero(2, 3), Subspace.zero(3)).passed
    assert stabilizer_report(d3.algebra, None, d3.part1, form_rows=d3.algebra.form_rows).passed
    assert stabilizer_report(h, s, power.part2, form_rows=h.form_rows).passed
    g_plus_h = triple_g_plus_h(data)
    assert check_manin_triple(double).passed and check_manin_triple(g_plus_h).passed
    for algebra in (data.algebra, d3.algebra, h, twisted, double.algebra, g_plus_h.algebra):
        assert "phi" not in vars(algebra) and "form" not in vars(algebra)


def test_the_power_of_dim_512_builds_sparse_chains(no_dense_views):
    """nuble(D3, 32): each half holds 256 canonical rows, the edge rows with
    their two entries and the base's halves, embedded, with theirs, so no
    elimination filled them in."""
    d3 = triple_double(special_linear_data(3))
    power = nuble(d3, 32)
    edge = [2] * 16
    assert power.dim == 512
    assert [len(row) for row in power.part1.echelon] == edge * 16
    assert [len(row) for row in power.part2.echelon] == (
        [len(row) for row in d3.part2.echelon] + edge * 15 + [len(row) for row in d3.part1.echelon]
    )
