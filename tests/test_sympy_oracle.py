"""The exact linear algebra of `core` against sympy, a second oracle that is
optional: these tests are skipped where sympy is not installed."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import rand_fraction
from maninforge.core import Matrix, determinant, inverse, matrix, nullspace, rref

sympy = pytest.importorskip("sympy")


def to_sympy(m: Matrix):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy(m) -> Matrix:
    return tuple(tuple(Fraction(int(m[r, c].p), int(m[r, c].q)) for c in range(m.cols)) for r in range(m.rows))


def seeded_matrix(seed: int, rows: int, cols: int) -> Matrix:
    """A seeded rows x cols matrix of rank at most min(rows, cols), often lower:
    a product of random factors through a seeded inner dimension, sometimes
    with a zero row or column."""
    rng = random.Random(seed)
    inner = rng.randint(1, max(rows, cols))
    left = [[rand_fraction(rng, -3, 3) for _ in range(inner)] for _ in range(rows)]
    right = [[rand_fraction(rng, -3, 3) for _ in range(cols)] for _ in range(inner)]
    m = [[sum((left[r][k] * right[k][c] for k in range(inner)), Fraction(0)) for c in range(cols)] for r in range(rows)]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [Fraction(0)] * cols
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = Fraction(0)
    return matrix(m)


SHAPES = [(seed, 1 + seed % 5, 1 + (seed // 5) % 6) for seed in range(30)]
SQUARE = [(seed, 1 + seed % 6) for seed in range(30)]


@pytest.mark.parametrize("seed, rows, cols", SHAPES)
def test_rref_and_nullspace_match_sympy(seed, rows, cols):
    m = seeded_matrix(seed, rows, cols)
    expected, expected_pivots = to_sympy(m).rref()
    reduced, pivots = rref(m)
    assert pivots == expected_pivots
    assert reduced == from_sympy(expected)[: len(pivots)]
    assert nullspace(m) == [from_sympy(v.T)[0] for v in to_sympy(m).nullspace()]


@pytest.mark.parametrize("seed, n", SQUARE)
def test_determinant_and_inverse_match_sympy(seed, n):
    m = seeded_matrix(seed, n, n)
    expected = to_sympy(m).det()
    assert determinant(m) == Fraction(int(expected.p), int(expected.q))
    if expected == 0:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
    else:
        assert inverse(m) == from_sympy(to_sympy(m).inv())


def test_singular_and_rectangular_cases_are_covered():
    singular = sum(to_sympy(seeded_matrix(seed, n, n)).det() == 0 for seed, n in SQUARE)
    assert 0 < singular < len(SQUARE)
    assert any(rows != cols for _, rows, cols in SHAPES)
    rectangular = seeded_matrix(1, 2, 3)
    for fn in (determinant, inverse):
        with pytest.raises(ValueError, match="must be 2x2"):
            fn(rectangular)
    with pytest.raises(sympy.NonSquareMatrixError):
        to_sympy(rectangular).det()
