"""The Yang-Baxter kernels in integer numerators over one common denominator:
the scaling helper's contract, exactness under large pairwise-coprime
denominators against the dense references, and the invariant that every value
the kernels return is a nonzero Fraction."""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

import pytest

from helpers import (
    conjugate_algebra,
    dense_check_hom_ad_invariant,
    dense_hcyb,
    dense_hom_schouten,
    pairwise_hcyb,
)
from maninforge.core import SparseTensor, _common_denominator, matrix, tensor_skew_sym_split
from maninforge.homlie import HomLieAlgebra, _ad_basis, check_involutive
from maninforge.manin import r_from_splitting, special_linear_data, triple_double
from maninforge.polyuble import nuble
from maninforge.rmatrix import check_hom_ad_invariant, check_quasi_triangular, cyb, hcyb, hom_schouten, sl2_twisted

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
