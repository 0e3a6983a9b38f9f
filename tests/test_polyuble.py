"""Iterated powers of a split quadratic algebra, the snake identification
between the two ways of iterating, and the chains of the powers: their
invariants and their DOT text."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import maninforge.core
import maninforge.homlie
import maninforge.polyuble
import maninforge.rmatrix
from helpers import dense_block_permutation, dense_nuble, rand_vector, read_chain, relabels
from maninforge.core import (
    Permutation,
    Subspace,
    _apply_columns,
    mat_mul,
    mat_vec,
    sparse_columns,
    subspace_equal,
    transpose,
)
from maninforge.homlie import HomLieAlgebra
from maninforge.manin import (
    Chain,
    ManinTriple,
    check_manin_isomorphism,
    check_manin_triple,
    hyperbolic_triple,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import (
    nuble,
    snake_permutation,
    uble_of_uble,
    verify_snake_iso,
)
from maninforge.reporting import CheckReport

DOT_N2 = (
    "graph chains {\n"
    '  u1 [label="u1" shape=circle];\n'
    '  u2 [label="u2" shape=circle style=filled];\n'
    "  hp1 [label=\"h'\" shape=triangle];\n"
    '  h2 [label="h" shape=triangle style=filled];\n'
    "  u1 -- u2;\n"
    "}\n"
)


# ---------------------------------------------------------------------------
# Powers


def test_single_power_reproduces_the_triple():
    t = hyperbolic_triple()
    u = nuble(t, 1)
    assert u.algebra.brackets == t.algebra.brackets
    assert u.form == t.form
    assert subspace_equal(u.part1, t.part1)
    assert subspace_equal(u.part2, t.part2)


def test_power_dimensions():
    t = triple_g_plus_h(special_linear_data(2))
    for n in range(1, 5):
        u = nuble(t, n)
        assert u.dim == 4 * n
        assert u.part1.dim == u.part2.dim == 2 * n


def test_power_form_alternates_sign_by_copy():
    t = hyperbolic_triple()
    u = nuble(t, 3)
    form = u.form
    # copy j contributes (-1)^j times the base form on its 2x2 block
    for j in range(3):
        sign = 1 if j % 2 == 0 else -1
        assert form[2 * j][2 * j + 1] == sign
        assert form[2 * j + 1][2 * j] == sign
    # no cross-copy pairing
    assert form[0][2] == 0 and form[1][4] == 0


def test_powers_certify_small():
    t = hyperbolic_triple()
    for n in range(1, 5):
        assert check_manin_triple(nuble(t, n)).passed, n


def test_power_rejects_nonpositive():
    t = hyperbolic_triple()
    with pytest.raises(ValueError):
        nuble(t, 0)
    for build in (verify_snake_iso, uble_of_uble):  # (0, 2) said "n must be at least 1"
        with pytest.raises(ValueError, match="m must be at least 1"):
            build(t, 0, 2)
        with pytest.raises(ValueError, match="n must be at least 1"):
            build(t, 2, -1)


@pytest.mark.parametrize("n, shown", [(2.0, "2.0"), ("2", "'2'"), (True, "True"), (None, "None")])
def test_power_and_graph_reject_a_count_that_is_not_an_int(n, shown):
    """2.0 and "2" used to raise a TypeError from deep inside.  The snake and
    the nested power name the bad count: verify_snake_iso(t, 2.0, 2) said
    "n must be an int, got 4.0"."""
    t = hyperbolic_triple()
    for build in (lambda: nuble(t, n), lambda: verify_snake_iso(t, 2, n), lambda: uble_of_uble(t, 2, n)):
        with pytest.raises(ValueError, match=f"n must be an int, got {shown}"):
            build()
    for build in (lambda: verify_snake_iso(t, n, 2), lambda: uble_of_uble(t, n, 2)):
        with pytest.raises(ValueError, match=f"m must be an int, got {shown}"):
            build()


def _power_data(t):
    h = t.algebra
    return (h.dim, h.brackets, h.phi, h.form, h.name, t.part1, t.part2, t.name)


def _fraction_halves(t):
    """True when every stored entry of both halves is a Fraction."""
    return all(type(x) is Fraction for part in (t.part1, t.part2) for row in part.echelon for x in row.values())


def test_power_matches_the_dense_reference():
    """Flat powers, and the nested ones that the snake certificates build; the
    halves come out in Fractions, as an elimination returns them."""
    data = special_linear_data(2)
    d2, d3 = triple_double(data), triple_double(special_linear_data(3))
    for t in (hyperbolic_triple(), triple_g_plus_h(data), d2, d3):
        for n in range(1, 6 if t is not d3 else 5):
            power = nuble(t, n)
            assert _power_data(power) == _power_data(dense_nuble(t, n))
            assert _fraction_halves(power)
    for t, m, n in ((d2, 2, 4), (d2, 3, 3), (d3, 2, 2)):
        nested = uble_of_uble(t, m, n)
        assert _power_data(nested) == _power_data(dense_nuble(dense_nuble(t, m), n))
        assert _fraction_halves(nested)


def test_power_of_halves_stored_in_ints_is_stored_in_fractions():
    hyp = hyperbolic_triple()
    t = ManinTriple(hyp.algebra, Subspace(2, ({0: 1},)), Subspace(2, ({1: 1},)), name=hyp.name)
    for n in (1, 2, 3):
        assert _fraction_halves(nuble(t, n))
        assert _power_data(nuble(t, n)) == _power_data(nuble(hyp, n))


def test_nested_power_is_power_of_power():
    t = hyperbolic_triple()
    nested = uble_of_uble(t, 2, 3)
    assert nested.dim == 12
    via_base = nuble(nuble(t, 2), 3)
    assert nested.algebra.brackets == via_base.algebra.brackets
    assert subspace_equal(nested.part1, via_base.part1)
    assert subspace_equal(nested.part2, via_base.part2)


# ---------------------------------------------------------------------------
# The snake identification


def test_snake_permutation_trivial_edges():
    assert snake_permutation(1, 4) == Permutation.identity(4)
    assert snake_permutation(4, 1) == Permutation.identity(4)
    assert snake_permutation(1, 1) == Permutation.identity(1)


def test_snake_permutation_two_by_two():
    """Four slots regroup as ((a1, a4), (a2, a3)): slot order 1,4,2,3, i.e.
    images (0, 2, 3, 1)."""
    assert snake_permutation(2, 2).images == (0, 2, 3, 1)


def test_snake_permutation_three_by_two():
    """Six slots regroup as ((a1, a4, a5), (a2, a3, a6))."""
    assert snake_permutation(3, 2).images == (0, 3, 4, 1, 2, 5)


def test_snake_permutation_reverses_on_even_inner_copies():
    assert snake_permutation(2, 3).images == (0, 2, 4, 5, 3, 1)


def test_snake_apply_moves_slot_contents():
    """The certified map moves the block of slot i, unchanged, to slot snake(i)."""
    x = tuple(map(Fraction, (1, 2, 3, 4, 5, 6, 7, 8)))
    out = _apply_columns(snake_permutation(2, 2).columns(2), dict(enumerate(x)))
    images = snake_permutation(2, 2).images
    for s in range(4):
        dst = images[s]
        assert (out[2 * dst], out[2 * dst + 1]) == x[2 * s : 2 * s + 2]


def test_snake_apply_matches_the_snake_matrix_at_dimension_64():
    t = triple_double(special_linear_data(3))
    x = rand_vector(random.Random(31), 64)
    out = _apply_columns(snake_permutation(2, 2).columns(t.dim), {i: v for i, v in enumerate(x) if v})
    dense = mat_vec(dense_block_permutation(snake_permutation(2, 2), t.dim), x)
    assert out == {i: v for i, v in enumerate(dense) if v}


def test_snake_is_an_isomorphism_hyperbolic_all_small_shapes():
    t = hyperbolic_triple()
    for m, n in itertools.product((1, 2, 3), repeat=2):
        assert verify_snake_iso(t, m, n).passed, (m, n)


def test_snake_is_an_isomorphism_g_plus_h_two_by_two():
    t = triple_g_plus_h(special_linear_data(2))
    assert verify_snake_iso(t, 2, 2).passed


def test_snake_is_the_unique_slot_regrouping_two_by_two():
    """Among all 24 slot permutations of the four-fold power, only the snake
    regrouping carries the flat splitting onto the nested one."""
    t = hyperbolic_triple()
    flat = nuble(t, 4)
    nested = uble_of_uble(t, 2, 2)
    winners = []
    for images in itertools.permutations(range(4)):
        p = Permutation(images)
        if check_manin_isomorphism(p.columns(2), flat, nested).passed:
            winners.append(images)
    assert winners == [snake_permutation(2, 2).images]


def test_snake_preserves_the_pairing():
    """Pulling the nested Gram matrix back through the snake map returns the
    flat one (the form-functoriality half of the isomorphism, in isolation)."""
    for t in (hyperbolic_triple(), triple_g_plus_h(special_linear_data(2))):
        for m, n in ((2, 2), (3, 2), (2, 3)):
            s = dense_block_permutation(snake_permutation(m, n), t.dim)
            flat = nuble(t, m * n)
            nested = uble_of_uble(t, m, n)
            assert mat_mul(transpose(s), mat_mul(nested.form, s)) == flat.form


def test_snake_tower_coherence_two_cubed():
    """Flattening an 8-fold power in two association orders agrees on the nose:
    snaking 2x4 then regrouping the outer four copies equals snaking 4x2 then
    snaking each inner four-fold block."""
    t = hyperbolic_triple()
    inner = nuble(t, 2)
    path_a = mat_mul(
        dense_block_permutation(snake_permutation(2, 2), inner.dim),
        dense_block_permutation(snake_permutation(2, 4), t.dim),
    )
    s_in = dense_block_permutation(snake_permutation(2, 2), t.dim)
    half = len(s_in)
    lifted = tuple(
        tuple(
            s_in[i % half][j % half] if (i < half) == (j < half) else 0
            for j in range(2 * half)
        )
        for i in range(2 * half)
    )
    path_b = mat_mul(lifted, dense_block_permutation(snake_permutation(4, 2), t.dim))
    assert path_a == path_b
    target = nuble(nuble(inner, 2), 2)
    assert check_manin_isomorphism(sparse_columns(path_a), nuble(t, 8), target).passed


def test_snake_certificate_needs_no_dense_matrix_product(monkeypatch):
    """Work-count guard: once the base triples are built, certifying the snake
    forms no dense matrix product, so the form pullback stays sparse."""
    d2, d3 = triple_double(special_linear_data(2)), triple_double(special_linear_data(3))

    def refuse(*args):
        raise AssertionError("dense mat_mul called")

    monkeypatch.setattr(maninforge.core, "mat_mul", refuse)
    assert verify_snake_iso(d3, 2, 2).passed
    assert verify_snake_iso(d2, 3, 3).passed


def test_snake_certificate_eliminates_only_the_two_half_images(monkeypatch):
    """Work-count guard: the snake is certified from the two powers' chains
    (`Chain.moved`), and no power is built, so certifying it row-reduces
    nothing; it ran 8 eliminations when the powers reduced their halves, and
    2 when the half images were reduced.
    Every elimination, a full reduction or a rank, runs the one elimination
    stage `core._eliminated`, so that is what is counted."""
    d2 = triple_double(special_linear_data(2))
    calls = []
    eliminate = maninforge.core._eliminated

    def counted(rows):
        calls.append(1)
        return eliminate(rows)

    monkeypatch.setattr(maninforge.core, "_eliminated", counted)
    assert verify_snake_iso(d2, 2, 4).passed
    assert len(calls) == 0


def _refuse_check(*args):
    raise AssertionError("check_manin_isomorphism was called")


def test_snake_certificate_builds_no_fraction(monkeypatch):
    """Work-count guard: a passing snake certificate compares the two powers'
    chains (`Chain.moved`), which builds no Fraction, and
    `check_manin_isomorphism` is never called."""
    d2 = triple_double(special_linear_data(2))
    flat, nested = nuble(d2, 6), uble_of_uble(d2, 2, 3)
    monkeypatch.setattr(maninforge.polyuble, "nuble", lambda t, n: flat)
    monkeypatch.setattr(maninforge.polyuble, "uble_of_uble", lambda t, m, n: nested)
    monkeypatch.setattr(maninforge.polyuble, "check_manin_isomorphism", _refuse_check)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    report = verify_snake_iso(d2, 2, 3)
    monkeypatch.undo()
    assert report.passed
    assert built == []


SNAKE_SHAPES = [("D2", 2, 2), ("D2", 2, 3), ("D2", 2, 4), ("D2", 3, 3), ("D3", 2, 2), ("D3", 3, 3), ("g+h", 2, 2)]


def _snake_base(name: str) -> ManinTriple:
    if name == "hyperbolic":
        return hyperbolic_triple()
    if name == "g+h":
        return triple_g_plus_h(special_linear_data(2))
    return triple_double(special_linear_data(int(name[1])))


@pytest.mark.parametrize("name, m, n", SNAKE_SHAPES)
def test_snake_certificate_passes_without_the_generic_check(name, m, n, monkeypatch):
    """`Chain.moved` certifies the snake map of every benchmarked shape (and D3
    at 3x3) alone: `check_manin_isomorphism` is never called."""
    monkeypatch.setattr(maninforge.polyuble, "check_manin_isomorphism", _refuse_check)
    assert verify_snake_iso(_snake_base(name), m, n).to_json() == CheckReport("manin_isomorphism", []).to_json()


@pytest.mark.parametrize("name, m, n", SNAKE_SHAPES)
def test_snake_certificate_without_a_relabelling_is_the_generic_report(name, m, n, monkeypatch):
    """With the chain comparison deciding nothing, `verify_snake_iso` returns what
    `check_manin_isomorphism` reports on the snake map's columns."""
    t = _snake_base(name)
    expected = check_manin_isomorphism(snake_permutation(m, n).columns(t.dim), nuble(t, m * n), uble_of_uble(t, m, n))
    calls = []
    check = maninforge.polyuble.check_manin_isomorphism
    monkeypatch.setattr(Chain, "moved", lambda chain, images: None)
    monkeypatch.setattr(maninforge.polyuble, "check_manin_isomorphism", lambda *args: calls.append(1) or check(*args))
    assert verify_snake_iso(t, m, n).to_json() == expected.to_json()
    assert calls == [1]


def test_snake_certificate_names_the_failures_of_a_wrong_target(monkeypatch):
    """With the chain comparison deciding nothing and one stored bracket entry
    of the nested power changed, `verify_snake_iso` returns the failures that
    `check_manin_isomorphism` names."""
    d2 = triple_double(special_linear_data(2))
    flat, nested = nuble(d2, 4), uble_of_uble(d2, 2, 2)
    h = nested.algebra
    key = list(h.brackets)[len(h.brackets) // 2]
    brackets = {**h.brackets, key: {k: 2 * c for k, c in h.brackets[key].items()}}
    wrong = ManinTriple(HomLieAlgebra(h.dim, brackets, h.phi_columns, h.form_rows), nested.part1, nested.part2)
    monkeypatch.setattr(maninforge.polyuble, "uble_of_uble", lambda t, m, n: wrong)
    monkeypatch.setattr(Chain, "moved", lambda chain, images: None)
    report = verify_snake_iso(d2, 2, 2)
    assert not report.passed and {x.check for x in report.failures} == {"bracket_preserved"}
    assert report.to_json() == check_manin_isomorphism(snake_permutation(2, 2).columns(d2.dim), flat, wrong).to_json()


@pytest.mark.parametrize("name", ["hyperbolic", "g+h", "D2", "D3"])
def test_chains_are_what_a_reader_finds_in_the_built_powers(name):
    """`Chain.BASE.power(n)`, `Chain.BASE.power(m).power(n)` and one step
    deeper are the slot signs and pieces that `read_chain` finds in the stored
    data of the built flat powers, n up to 8, nested ones, m and n up to 4,
    and powers of those at depth 3; each chain's pieces give its power's
    canonical rows, in order (`Chain.rows`)."""
    t = _snake_base(name)
    powers = [(nuble(t, n), Chain.BASE.power(n)) for n in range(1, 9)]
    powers += [
        (uble_of_uble(t, m, n), Chain.BASE.power(m).power(n)) for m, n in itertools.product(range(1, 5), repeat=2)
    ]
    for m, n, p in ((2, 2, 2), (3, 1, 2), (2, 3, 1)):
        powers.append((nuble(uble_of_uble(t, m, n), p), Chain.BASE.power(m).power(n).power(p)))
    for power, chain in powers:
        assert read_chain(power, t) == chain, power.name
        assert [list(part.echelon) for part in (power.part1, power.part2)] == [chain.rows(t, 1), chain.rows(t, 2)]


# The shapes of acceptance criterion 4 (the worked triples at m, n = 1..3) and SNAKE_SHAPES.
VERDICT_SHAPES = sorted(
    {(name, m, n) for name in ("hyperbolic", "g+h", "D2") for m in (1, 2, 3) for n in (1, 2, 3)} | set(SNAKE_SHAPES)
)


@pytest.mark.parametrize("name, m, n", VERDICT_SHAPES)
def test_snake_verdict_equals_the_references_on_built_powers(name, m, n):
    """The chain certificate's report is the one `check_manin_isomorphism`
    gives on the built powers, and `relabels` certifies the same map."""
    t = _snake_base(name)
    flat, nested = nuble(t, m * n), uble_of_uble(t, m, n)
    perm = snake_permutation(m, n)
    report = verify_snake_iso(t, m, n)
    assert report.passed
    assert report.to_json() == check_manin_isomorphism(perm.columns(t.dim), flat, nested).to_json()
    assert relabels([j * t.dim + b for j in perm.images for b in range(t.dim)], flat, nested)


def test_the_chain_check_accepts_only_the_snake_among_slot_permutations():
    """For every m, n with mn <= 6, of all (mn)! slot permutations, exactly
    the snake moves the flat chain onto the nested one."""
    for m, n in ((m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 6):
        source, target = Chain.BASE.power(m * n), Chain.BASE.power(m).power(n)
        accepted = [p for p in itertools.permutations(range(m * n)) if source.moved(p) == target]
        assert accepted == [snake_permutation(m, n).images], (m, n)


def test_the_chain_check_refuses_a_map_that_carries_the_pieces_but_not_the_signs():
    """The identity carries the four-fold chain's pieces onto a copy with its
    signs negated, which would flip the form, so the chain check refuses it."""
    chain = Chain.BASE.power(4)
    identity = tuple(range(4))
    assert chain.moved(identity) == chain
    assert chain.moved(identity) != Chain(tuple(-x for x in chain.signs), chain.halves)


def test_a_passing_snake_certificate_builds_no_power(monkeypatch):
    """Work-count guard: certifying the snake calls none of `nuble`,
    `direct_sum` or `check_manin_isomorphism`."""

    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name} was called")

        return refused

    for name in ("nuble", "direct_sum", "check_manin_isomorphism"):
        monkeypatch.setattr(maninforge.polyuble, name, refuse(name))
    for name, m, n in SNAKE_SHAPES:
        assert verify_snake_iso(_snake_base(name), m, n).passed


def test_snake_certificate_of_a_triple_without_a_form_raises_as_the_power_does():
    hyp = hyperbolic_triple()
    t = ManinTriple(HomLieAlgebra.unchecked(2, {}), hyp.part1, hyp.part2)
    for build in (lambda: nuble(t, 4), lambda: verify_snake_iso(t, 2, 2)):
        with pytest.raises(ValueError, match="^algebra carries no bilinear form$"):
            build()


# ---------------------------------------------------------------------------
# Chains: their invariants and their DOT text

DOT_N3 = (
    "graph chains {\n"
    '  u1 [label="u1" shape=circle];\n'
    '  u2 [label="u2" shape=circle style=filled];\n'
    '  u3 [label="u3" shape=circle];\n'
    "  hp1 [label=\"h'\" shape=triangle];\n"
    '  h3 [label="h" shape=triangle];\n'
    "  u1 -- u2;\n"
    "  u2 -- u3;\n"
    "}\n"
)


def assert_chain_invariants(chain: Chain) -> None:
    """Every slot lies in exactly one piece per half, every edge joins two
    slots of opposite sign, the labels are exactly base halves 1 and 2, one
    each, and each half's pieces are in slot order."""
    slots = list(range(1, len(chain.signs) + 1))
    assert len(chain.halves) == 2 and set(chain.signs) <= {1, -1}
    for pieces in chain.halves:
        assert sorted(s for lo, hi, k in pieces for s in ((lo,) if k else (lo, hi))) == slots
        assert list(pieces) == sorted(pieces)
        for lo, hi, k in pieces:
            assert lo == hi if k else lo < hi and chain.signs[lo - 1] == -chain.signs[hi - 1]
    assert sorted(k for pieces in chain.halves for _, _, k in pieces if k) == [1, 2]


def test_nested_chains_keep_the_chain_invariants():
    """`Chain.BASE.power(m).power(n)` for every m, n with mn <= 64; with
    m = 1 these are the flat chains, since the 1-fold power is the base."""
    assert Chain.BASE.power(1) == Chain.BASE
    for m in range(1, 65):
        for n in range(1, 64 // m + 1):
            assert_chain_invariants(Chain.BASE.power(m).power(n))


def test_depth_3_chains_keep_the_chain_invariants():
    """Every nesting `Chain.BASE.power(a).power(b).power(c)` with at most 12
    slots."""
    for a, b, c in itertools.product(range(1, 13), repeat=3):
        if a * b * c <= 12:
            assert_chain_invariants(Chain.BASE.power(a).power(b).power(c))


@pytest.mark.parametrize(
    "broken",
    [
        Chain((1, 1), Chain.BASE.power(2).halves),  # a monochromatic edge
        Chain((1, -1), (((1, 2, 0),), ((1, 1, 2), (2, 2, 2)))),  # base half 2 twice, no base half 1
        Chain((1, -1), (((1, 2, 0),), ((2, 2, 1), (1, 1, 2)))),  # pieces out of slot order
        Chain((1, -1), (((1, 2, 0),), ((1, 1, 2), (1, 1, 1)))),  # slot 1 twice in half 2, slot 2 never
    ],
    ids=["monochromatic edge", "one base half twice", "out of slot order", "a slot covered twice"],
)
def test_the_chain_invariants_refuse_a_broken_chain(broken):
    with pytest.raises(AssertionError):
        assert_chain_invariants(broken)


def test_chain_power_rejects_a_count_that_is_not_a_positive_int():
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            Chain.BASE.power(n)
    for n, shown in ((True, "True"), (2.0, "2.0")):
        with pytest.raises(ValueError, match=f"^n must be an int, got {shown}$"):
            Chain.BASE.power(n)


def test_dot_output_golden_three():
    """Three circles colored open, filled, open, the triangle h' of base half
    2 in slot 1 and h of base half 1 in slot 3, and the edges (1, 2), (2, 3)."""
    chain = Chain.BASE.power(3)
    assert chain.labels == {2: (2, 1), 1: (1, 3)}
    assert chain.dot() == DOT_N3


def test_dot_prints_the_chain_read_from_the_built_power():
    """The DOT text's edges are the union of both halves' edges, its triangles
    are the two labels (h' for base half 2, h for base half 1), and its
    vertices are filled on the slots of negative sign, as `read_chain` finds
    them in the built power."""
    t = hyperbolic_triple()
    names = {1: "h", 2: "hp"}
    for n in range(1, 11):
        chain = read_chain(nuble(t, n), t)
        assert chain == Chain.BASE.power(n)
        lines = chain.dot().splitlines()
        assert lines[0] == "graph chains {" and lines[-1] == "}"
        pieces = sorted(piece for half in chain.halves for piece in half)
        assert [line for line in lines if "--" in line] == [f"  u{lo} -- u{hi};" for lo, hi, k in pieces if not k]
        filled = {line.split()[0]: "style=filled" in line for line in lines if "[" in line}
        expected = {f"u{s}": x < 0 for s, x in enumerate(chain.signs, 1)}
        expected |= {f"{names[k]}{lo}": chain.signs[lo - 1] < 0 for lo, _, k in pieces if k}
        assert filled == expected


def test_dot_output_golden_two():
    assert Chain.BASE.power(2).dot() == DOT_N2


def test_dot_output_marks_bare_halves():
    text = Chain.BASE.power(5).dot()
    assert 'hp1 [label="h\'" shape=triangle];' in text
    assert 'h5 [label="h" shape=triangle];' in text
    assert text.count("--") == 4
