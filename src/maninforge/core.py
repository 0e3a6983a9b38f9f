"""Exact rational linear and multilinear algebra: matrices, sparse tensors,
row-reduced subspaces, and permutations.

Every scalar is a `fractions.Fraction`; equality everywhere is exact.  Every
row reduction runs one Gauss-Jordan kernel on sparse rows, `_gauss_jordan`,
whose integer elimination stage is `_eliminated`: a `Subspace` stores the
sparse rows it returns, `rref`, `nullspace` and `inverse` are dense wrappers
over it, and `_rank` (behind `matrix_rank`) counts the stage's rows with none
divided.  `_eliminated` takes rows of nonzero ints as they are; the
conversion of Fraction rows (`_integer_row`) is done in `_gauss_jordan` and
`_rank`, so a caller that holds integer numerators, as
`rmatrix.check_quasi_triangular` does, eliminates them with none.
`determinant` runs the kernel's row operation, `_eliminate`, on integer rows.

The elimination, the sparse map `_apply_columns` and the membership test
`_in_span` sum plain ints: elimination on primitive integer rows, the other
two over one common denominator.  Each builds one Fraction per value it
returns, and none per term.  `_in_span` reads a space as numerator rows
(`_pivot_numerators`) and decides at any scale, so `Subspace.contains_sparse`,
the image test `_images_outside` and `homlie._brackets_outside` test integer
sums as they are; a space that is never divided, such as the kept rows of
`_eliminated`, is tested the same way.  The two tests divide nothing: they
return the integer sums of what leaves the space, and their callers divide
only what they report.  Every map takes the one summing path, a relabelling
(unit columns at distinct rows) included.
"""
from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm

Rational = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# The documented spellings of a rational, matched before `Fraction` reads the
# text: it also reads exponents, and would expand 1e99999999 into a huge int.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def rational(x: int | str | Fraction) -> Fraction:
    """Coerce an int, string like ``-3/4``, or Fraction to an exact Fraction; a
    float is refused, since its binary value is rarely the rational meant, and
    so is a string that is not ``p`` or ``p/q`` (`_RATIONAL_TEXT`).

    >>> rational("-3/4"), rational("+2")
    (Fraction(-3, 4), Fraction(2, 1))
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValueError(f"float {x!r} is not exact; write it as a string like '1/10' or as a Fraction")
    if isinstance(x, str) and not _RATIONAL_TEXT.fullmatch(x):
        raise ValueError(f"malformed rational {x!r}; write it as p or p/q")
    return Fraction(x)


def _is_exact(x: object) -> bool:
    """True for an int or a Fraction (not a bool), the scalars stored entries hold."""
    return type(x) is int or type(x) is Fraction


def _dimension(n: object, what: str) -> int:
    """n itself, after checking that it is a non-negative int (not a bool)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{what} must be a non-negative int, got {n!r}")
    return n


def _exact_vector(v: Vector, what: str) -> Vector:
    """v itself, after checking that every entry is an int or a Fraction."""
    for i, x in enumerate(v):
        if not _is_exact(x):
            raise ValueError(f"{what} entry {i} is {x!r}, not an int or a Fraction")
    return v


def _common_denominator(values: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """(den, numerators) for a family of exact values: den is the lcm of their
    denominators (1 for an empty family) and values[i] == numerators[i] / den.
    Read from each value's numerator and denominator, with no Fraction built
    per entry, so that kernels can accumulate in ints and divide once.

    >>> _common_denominator([Fraction(1, 2), -3, Fraction(-2, 3)])
    (6, [3, -18, -4])
    >>> _common_denominator([])
    (1, [])
    """
    den = lcm(*{x.denominator for x in values})
    return den, [x.numerator * (den // x.denominator) for x in values]


def _numerators(vectors: Sequence[Mapping[int, Fraction]]) -> tuple[int, list[dict[int, int]]]:
    """(den, numerators): a family of sparse vectors over one common
    denominator, numerators[a] = {index: entry * den} in the order of v_a."""
    den, flat = _common_denominator([x for v in vectors for x in v.values()])
    flat = iter(flat)
    return den, [{i: next(flat) for i in v} for v in vectors]


def _pack(terms: Iterable[tuple[int, int]], width: int) -> int:
    """The int sum x 2^(width*i) over integer terms (i, x): a sparse row packed
    into fields of `width` bits, for `_signed_fields` to read back."""
    n = 0
    for i, x in terms:
        n += x << width * i
    return n


def _l1_bounds(vectors: Iterable[Iterable[tuple[int, int]]]) -> tuple[int, int]:
    """(top l1 mass, top absolute entry) over a family of integer vectors given
    as (index, entry) terms, (0, 0) for none: what the packed-row kernels
    bound their field totals with.

    >>> _l1_bounds([((0, 3), (2, -5)), ((1, 6),)])
    (8, 6)
    """
    mass = top = 0
    for terms in vectors:
        total = 0
        for _, x in terms:
            x = abs(x)
            total += x
            if x > top:
                top = x
        if total > mass:
            mass = total
    return mass, top


def _signed_fields(n: int, width: int, den: int) -> Iterator[tuple[int, Fraction]]:
    """(c, T_c / den) for the nonzero fields of a packed row n = sum T_c 2^(W*c),
    W = width, in increasing c: the one decoder of the packed-row kernels
    (`rmatrix.hcyb`, `homlie.check_hom_jacobi`, `homlie.check_quadratic`).

    Lemma (a packed row decodes uniquely).  Each kernel bounds every field's
    total by some B and takes W = bitlen(B) + 1, so |T_c| <= B < 2^(W-1).
    Then n is sum T_c 2^(W*c) exactly, whatever the order
    of the adds that built it, and signed digits of base 2^W in
    [-2^(W-1), 2^(W-1)) are unique: T_0 is n's low W bits read in that range,
    and T_1, T_2, ... follow from (n - T_0) / 2^W.  A field is zero exactly
    when its W bits are, so the decoder jumps to the field of the lowest set
    bit; each nonzero total is divided once, so every value is a nonzero
    Fraction, and a row that cancels decodes nothing.

    >>> list(_signed_fields(_pack([(0, 3), (2, -5)], 4), 4, 2))
    [(0, Fraction(3, 2)), (2, Fraction(-5, 2))]
    """
    mask, half = (1 << width) - 1, 1 << (width - 1)
    c = 0
    while n:  # n = sum T_c' 2^(W*(c'-c)) over c' >= c; jump to the lowest nonzero field
        skip = ((n & -n).bit_length() - 1) // width
        n >>= width * skip
        c += skip
        total = n & mask
        if total >= half:
            total -= mask + 1
        yield c, Fraction(total, den)
        n = (n - total) >> width
        c += 1


def vector(entries: Iterable[int | str | Fraction]) -> Vector:
    """Build an exact coordinate vector."""
    return tuple(rational(x) for x in entries)


def unit_vector(n: int, i: int) -> Vector:
    """Standard basis vector e_i (0-based) in dimension n."""
    if type(i) is not int or not 0 <= i < _dimension(n, "dimension"):
        raise ValueError(f"index {i!r} outside range({n})")
    return tuple(ONE if j == i else ZERO for j in range(n))


def matrix(rows: Sequence[Sequence[int | str | Fraction]]) -> Matrix:
    """Build an exact matrix from any nested sequence of scalars."""
    return tuple(vector(row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    """The n x n identity matrix, dense, for a non-negative int n."""
    return tuple(unit_vector(n, i) for i in range(_dimension(n, "dimension")))


def transpose(m: Matrix) -> Matrix:
    """The transpose of a dense matrix; the empty matrix is its own."""
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """Matrix times column vector, summing over the nonzero entries of v only."""
    terms = [(j, x) for j, x in enumerate(_exact_vector(v, "vector")) if x]
    out = []
    for row in _exact(m):
        if len(row) != len(v):
            raise ValueError(f"matrix row of length {len(row)} times a vector of length {len(v)}")
        out.append(sum((row[j] * x for j, x in terms if row[j]), ZERO))
    return tuple(out)


def _width(m: Matrix) -> int:
    """The column count of m, after checking that every row has it."""
    n_cols = len(m[0]) if m else 0
    for r, row in enumerate(m):
        if len(row) != n_cols:
            raise ValueError(f"ragged matrix: row {r} has {len(row)} entries, row 0 has {n_cols}")
    return n_cols


def _square(m: Matrix, n: int, what: str) -> Matrix:
    """m itself, after checking that it is n x n (ragged rows included)."""
    if len(m) != n or any(len(row) != n for row in m):
        lengths = sorted({len(row) for row in m})
        raise ValueError(f"{what} must be {n}x{n}, got {len(m)} rows of lengths {lengths}")
    return m


def _exact(m: Matrix) -> Matrix:
    """m itself, after checking that every entry is an int or a Fraction; the
    types are collected in one pass, and the first bad entry is sought only
    when there is one."""
    if not set(map(type, chain.from_iterable(m))) <= {int, Fraction}:
        r, c, x = next((r, c, x) for r, row in enumerate(m) for c, x in enumerate(row) if not _is_exact(x))
        raise ValueError(f"matrix entry ({r}, {c}) is {x!r}, not an int or a Fraction")
    return m


def _sparse(v: Vector) -> dict[int, Fraction]:
    """{index: entry} over the nonzero entries of a dense vector."""
    return {i: x for i, x in enumerate(v) if x}


def _dense_vector(xs: Mapping[int, Fraction], n: int) -> Vector:
    """The dense vector of length n whose nonzero entries are xs."""
    out = [ZERO] * n
    for i, x in xs.items():
        out[i] = x
    return tuple(out)


def sparse_columns(m: Matrix) -> list[dict[int, Fraction]]:
    """Column-sparse form of a rectangular matrix: for each column, {row: entry}
    over its nonzero entries, rows in increasing order.

    >>> sparse_columns(matrix([[0, 2], [3, 0]]))
    [{1: Fraction(3, 1)}, {0: Fraction(2, 1)}]
    """
    cols: list[dict[int, Fraction]] = [{} for _ in range(_width(m))]
    for r, row in enumerate(m):
        for c, x in enumerate(row):
            if x:
                cols[c][r] = x
    return cols


def _unit_columns(n: int) -> tuple[dict[int, Fraction], ...]:
    """Sparse columns of the n x n identity."""
    return tuple({i: ONE} for i in range(n))


def _columns_shape_error(cols: Sequence, n_rows: int, n_cols: int) -> str | None:
    """Why cols are not the sparse columns of an n_rows x n_cols matrix, or None."""
    if len(cols) != n_cols:
        return f"got {len(cols)} columns"
    for c, col in enumerate(cols):
        if type(col) is not dict and not isinstance(col, Mapping):
            return f"column {c} is a {type(col).__name__}, not a mapping"
        for r, x in col.items():
            if type(r) is not int or not 0 <= r < n_rows:
                return f"column {c} has row index {r!r} outside range({n_rows})"
            if type(x) is not Fraction and type(x) is not int:
                return f"column {c} has entry {x!r} at row {r}, not an int or a Fraction"
    return None


def _square_columns(cols: Sequence, n: int, what: str) -> Sequence:
    """cols itself, after checking that they are the sparse vectors of an n x n matrix."""
    problem = _columns_shape_error(cols, n, n)
    if problem:
        raise ValueError(f"{what} must be {n}x{n} as sparse vectors: {problem}")
    return cols


def _column_sums(cols: Sequence[Mapping[int, Fraction]], xs: Mapping[int, Fraction]) -> tuple[int, dict[int, int]]:
    """(den, sums): the map with sparse columns `cols` applied to the sparse
    vector xs in integer numerators, the image being {a: n / den} over
    sums.items(); den = den_x * den_c, the lcms of the denominators of xs and
    of the columns it touches.  The entries that cancel are left out as they
    go, so an entry sits where its last nonzero total began.  The summing
    stage of `_apply_columns` and `_images_outside`."""
    den_x = lcm(*{x.denominator for x in xs.values()})
    den_c = lcm(*{y.denominator for i in xs for y in cols[i].values()})
    out: dict[int, int] = {}
    for i, x in xs.items():
        nx = x.numerator * (den_x // x.denominator)
        for a, y in cols[i].items():
            total = out.get(a, 0) + nx * y.numerator * (den_c // y.denominator)
            if total:
                out[a] = total
            else:
                out.pop(a, None)
    return den_x * den_c, out


def _quotients(den: int, sums: Mapping[int, int]) -> dict[int, Fraction]:
    """{a: n / den} over sums.items(), one Fraction per entry, in sums' order:
    how an integer sum is divided where it is returned or reported."""
    return {a: Fraction(n, den) for a, n in sums.items()}


def _apply_columns(cols: Sequence[Mapping[int, Fraction]], xs: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """The map with sparse columns `cols` applied to the sparse vector xs, the
    entries that cancel left out; summed by `_column_sums`, each total divided
    once."""
    return _quotients(*_column_sums(cols, xs))


def _transpose_sparse(vectors: Sequence[Mapping[int, Fraction]], n: int) -> list[dict[int, Fraction]]:
    """The n sparse columns of the matrix with sparse rows `vectors`, or its rows given its columns."""
    out: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for r, v in enumerate(vectors):
        for c, x in v.items():
            out[c][r] = x
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product, skipping zero entries (block/permutation matrices are common)."""
    cols_b = _width(_exact(b))
    if any(len(row) != len(b) for row in _exact(a)):
        lengths = sorted({len(row) for row in a})
        raise ValueError(f"left factor must have {len(b)} columns, got rows of lengths {lengths}")
    out = [[ZERO] * cols_b for _ in a]
    for i, row in enumerate(a):
        out_i = out[i]
        for k, a_ik in enumerate(row):
            if a_ik == 0:
                continue
            b_k = b[k]
            for j, b_kj in enumerate(b_k):
                if b_kj != 0:
                    out_i[j] += a_ik * b_kj
    return tuple(tuple(row) for row in out)


def _integer_row(v: Mapping[int, int | Fraction]) -> dict[int, int]:
    """The sparse row v times the lcm of its denominators, its zeros dropped:
    a row of nonzero ints."""
    den = lcm(*{x.denominator for x in v.values()})
    return {c: x.numerator * (den // x.denominator) for c, x in v.items() if x}


def _primitive(v: dict[int, int], pivot: int) -> dict[int, int]:
    """The int row v divided by the gcd of its entries, signed positive at pivot."""
    if v[pivot] == 1:
        return v
    g = gcd(*v.values()) * (1 if v[pivot] > 0 else -1)
    return v if g == 1 else {c: x // g for c, x in v.items()}


def _eliminate(u: dict[int, int], v: Mapping[int, int], p: int) -> dict[int, int]:
    """u = (v[p] u - u[p] v) / gcd(v[p], u[p]) in place, for int rows: zero at
    column p, the entries that cancel dropped."""
    g = gcd(v[p], u[p])
    m, x = v[p] // g, u[p] // g
    if m != 1:
        for c in u:
            u[c] *= m
    for c, y in v.items():
        total = u.get(c, 0) - x * y
        if total:
            u[c] = total
        else:
            del u[c]
    return u


def _gauss_jordan(rows: Iterable[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """The reduced row echelon form of the span of sparse rows ({column:
    entry}, ints or Fractions, zeros allowed, not mutated), the package's one
    Gauss-Jordan elimination: its rows by increasing pivot, columns
    increasing, the pivot's entry 1.  The rows are made rows of ints
    (`_integer_row`), and the rows `_eliminated` keeps are each divided by
    their pivot, one Fraction per value."""
    return [
        {c: Fraction(row[c], row[p]) for c in sorted(row)}
        for p, row in sorted(_eliminated(map(_integer_row, rows)).items())
    ]


def _rank(rows: Iterable[Mapping[int, Fraction]]) -> int:
    """The dimension of the span of sparse rows (ints or Fractions, zeros
    allowed): the number of rows that `_eliminated` keeps of them made rows
    of ints (`_integer_row`), with no row divided."""
    return len(_eliminated(map(_integer_row, rows)))


def _eliminated(rows: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """The elimination stage of `_gauss_jordan`: each pivot mapped to its
    kept row, for sparse rows of nonzero ints (not mutated; `_gauss_jordan`
    and `_rank` make Fraction rows such rows with `_integer_row`).  Each row
    is copied and reduced by the rows kept so far; if anything is left, its
    least column is its pivot, and it is cleared from the kept rows.  So
    every kept row starts at its pivot and is zero at the others', and the
    kept rows are a basis of the span.

    Fraction-free: a kept row is a primitive int multiple of its canonical row
    (gcd 1, positive pivot), reduced by cross-multiplying (`_eliminate`)."""
    kept: dict[int, dict[int, int]] = {}  # pivot -> row
    holding: defaultdict[int, set[int]] = defaultdict(set)  # column -> pivots of the kept rows nonzero there
    for row in rows:
        v = dict(row)
        for p in [p for p in v if p in kept]:  # the kept rows vanish at each other's pivots
            _eliminate(v, kept[p], p)
        if not v:
            continue
        pivot = min(v)
        v = kept[pivot] = _primitive(v, pivot)
        for c in v:
            holding[c].add(pivot)
        for q in holding[pivot] - {pivot}:
            w = kept[q] = _primitive(_eliminate(kept[q], v, pivot), q)
            for c in v:  # only v's columns can enter or leave w
                if c in w:
                    holding[c].add(q)
                else:
                    holding[c].discard(q)
    return kept


def _pivot_numerators(kept: Mapping[int, Mapping[int, int]]) -> tuple[int, dict[int, tuple[tuple[int, int], ...]]]:
    """(den, {pivot: ((column, numerator), ...)}): the canonical rows of the
    span of int rows that start at their pivots and vanish at each other's
    (`_eliminated`'s kept rows, {pivot: row}), over one common denominator,
    each without its pivot.  den is the lcm of the pivot entries, so the
    canonical row with pivot p, row / row[p], is row * (den // row[p]) / den,
    and its numerator at p is den.  What `_in_span` reads.

    >>> _pivot_numerators({0: {0: 2, 2: 1}, 1: {1: 3, 2: -1}})
    (6, {0: ((2, 3),), 1: ((2, -2),)})
    """
    den = lcm(*(row[p] for p, row in kept.items()))
    return den, {p: tuple((c, x * (den // row[p])) for c, x in row.items() if c != p) for p, row in kept.items()}


def _in_span(target: tuple[int, Mapping[int, Sequence[tuple[int, int]]]], nums: Mapping[int, int]) -> bool:
    """Whether the vector with integer numerators nums, {index: int}, lies in
    the span whose canonical rows are target, (den, {pivot: ((column,
    numerator), ...)}) as `_pivot_numerators` gives them, whatever its
    denominator: the one membership test.

    Lemma (membership at any scale).  Let den_q be the common denominator
    of the canonical rows and Q_p the numerators of the row with pivot p,
    so that the row is Q_p / den_q.  The rows are in reduced echelon form,
    so v lies in the span exactly when v = sum_p v_p Q_p / den_q over the
    pivots p.  Multiply by den_q times any nonzero scale s, with N = s v
    the integer numerators: v lies in the span exactly when
    den_q N - sum_p N_p Q_p = 0.  So a sum kept in integer numerators over
    any denominator is tested as it is, with no division and no common
    factor taken out.  At a pivot p the difference is
    den_q N_p - N_p den_q = 0, since Q_p is den_q there and the other rows
    are zero there; so only the other columns are summed, and target holds
    each row without its pivot.

    >>> _in_span(_pivot_numerators({0: {0: 2, 2: 1}}), {0: 4, 2: 2}), _in_span((1, {}), {1: 5})
    (True, False)
    """
    den, rows = target
    residual: dict[int, int] = {}  # den_q N - sum_p N_p Q_p, off the pivots
    get = residual.get
    for c, x in nums.items():
        row = rows.get(c)
        if row is None:
            residual[c] = get(c, 0) + x * den
        else:
            for b, y in row:
                residual[b] = get(b, 0) - x * y
    return not any(residual.values())


def _null_rows(reduced: Sequence[Mapping[int, Fraction]], n: int) -> list[dict[int, Fraction]]:
    """A basis of {v : row . v = 0 for every row}, for the reduced echelon rows
    of a matrix with n columns: one vector per free column f, e_f minus the
    entries of column f at the pivots, in increasing order of f."""
    null = {f: {f: ONE} for f in range(n)}
    for row in reduced:
        pivot, *free = row
        del null[pivot]
        for f in free:
            null[f][pivot] = -row[f]
    return list(null.values())


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows are dropped.
    Kept for the dense references of `tests/helpers.py` until ROADMAP item 13.

    >>> r, p = rref(matrix([[2, 4], [1, 2]]))
    >>> r, p
    (((Fraction(1, 1), Fraction(2, 1)),), (0,))
    """
    n_cols = _width(_exact(m))
    reduced = _gauss_jordan(map(_sparse, m))
    return tuple(_dense_vector(row, n_cols) for row in reduced), tuple(next(iter(row)) for row in reduced)


def matrix_rank(m: Matrix) -> int:
    """Rank of an exact matrix, for ROADMAP item 5's `bruhat_cell` (corner ranks)."""
    _width(_exact(m))
    return _rank(map(_sparse, m))


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of {v : m @ v = 0}, one vector per free column (deterministic order).
    Kept, like `rref`, for the `tests/helpers.py` references until ROADMAP item 13."""
    n_cols = _width(_exact(m))
    return [_dense_vector(v, n_cols) for v in _null_rows(_gauss_jordan(map(_sparse, m)), n_cols)]


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square invertible matrix."""
    n = len(_square(_exact(m), len(m), "matrix"))
    return tuple(_dense_vector(row, n) for row in _inverse_rows(list(map(_sparse, m)), n))


def _inverse_rows(rows: Sequence[Mapping[int, Fraction]], n: int) -> list[dict[int, Fraction]]:
    """The sparse rows of the inverse of the n x n matrix with sparse rows
    `rows`: the right half of the reduced echelon form of [rows | I]."""
    reduced = _gauss_jordan({**row, n + i: ONE} for i, row in enumerate(rows))
    if [next(iter(row)) for row in reduced] != list(range(n)):
        raise ValueError("matrix is singular")
    return [{c - n: x for c, x in row.items() if c >= n} for row in reduced]


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free elimination: each row is scaled to
    ints by its common denominator, and the rows below each pivot are cleared
    there with `_eliminate`, which scales a row by v[p] // gcd(v[p], u[p]).
    The product of the pivots, negated once per row swap, is divided by all
    those scales."""
    n = len(_square(_exact(m), len(m), "matrix"))
    rows, det, den = [], 1, 1
    for row in m:
        d, numerators = _common_denominator(row)
        rows.append({c: x for c, x in enumerate(numerators) if x})
        den *= d
    for p in range(n):
        i = next((i for i in range(p, n) if p in rows[i]), None)
        if i is None:
            return ZERO
        if i != p:
            rows[p], rows[i] = rows[i], rows[p]
            det = -det
        v = rows[p]
        det *= v[p]
        for u in rows[p + 1 :]:
            if p in u:
                den *= v[p] // gcd(v[p], u[p])
                _eliminate(u, v, p)
    return Fraction(det, den)


# ---------------------------------------------------------------------------
# Sparse tensors


@dataclass
class SparseTensor:
    """Sparse tensor of degree 1, 2, or 3 over a dim-dimensional space, dim a
    non-negative int.

    Entries map index tuples (0-based) to nonzero exact values, ints or
    Fractions; zero values are never stored, so equality of entry dicts is
    equality of tensors.
    """

    degree: int
    dim: int
    entries: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.degree not in (1, 2, 3):
            raise ValueError(f"unsupported tensor degree {self.degree}")
        _dimension(self.dim, "tensor dimension")
        for idx, value in list(self.entries.items()):
            if not all(type(i) is int for i in idx):
                raise ValueError(f"index {idx!r} holds an entry that is not an int")
            if len(idx) != self.degree or not all(0 <= i < self.dim for i in idx):
                raise ValueError(f"index {idx} out of range for degree {self.degree}, dim {self.dim}")
            if not _is_exact(value):
                raise ValueError(f"entry {value!r} at index {idx} is not an int or a Fraction")
            if value == 0:
                del self.entries[idx]

    @classmethod
    def _of_checked(cls, degree: int, dim: int, entries: dict[tuple[int, ...], Fraction]) -> SparseTensor:
        """Set the fields without `__post_init__`, for output built valid.

        Lemma (checked output needs no second check).  `__post_init__` checks
        that degree is 1, 2 or 3, that dim is a non-negative int, and that each
        entry has `degree` int indices in range(dim) and an exact value, and it
        drops zero values.  A caller that builds its entries with those
        properties, and no zero value, gets the same tensor from the fields
        alone: `rmatrix.hcyb` (degree 3, indices decoded from rows in
        range(dim^2) and fields in range(dim), nonzero Fractions from
        `_signed_fields`), `rmatrix.hom_schouten` (indices read from its
        arguments' and phi's, one Fraction per nonzero total),
        `_symmetric_part` and the int-valued 2 den s of
        `rmatrix.check_quasi_triangular` (see its lemma), `scale` and `swap`
        (see theirs), `manin.r_from_splitting` (see its docstring),
        `fileio.parse_tensor` (after its own checks), and the copy of self
        that `__add__` adds into: the entries of a valid tensor, with degree
        and dim checked equal to other's by `_check_compatible`, and
        `add_into` then adds other's valid entries, dropping a total that
        cancels."""
        t = cls.__new__(cls)
        t.degree, t.dim, t.entries = degree, dim, entries
        return t

    @classmethod
    def zero(cls, degree: int, dim: int) -> SparseTensor:
        return cls(degree, dim, {})

    @classmethod
    def from_entries(
        cls, degree: int, dim: int, entries: Mapping[tuple[int, ...], int | str | Fraction]
    ) -> SparseTensor:
        return cls(degree, dim, {idx: rational(v) for idx, v in entries.items() if rational(v) != 0})

    def get(self, idx: tuple[int, ...]) -> Fraction:
        return self.entries.get(idx, ZERO)

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Entries in sorted index order (deterministic)."""
        return sorted(self.entries.items())

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def add_into(self, idx: tuple[int, ...], value: Fraction) -> None:
        """Accumulate value at idx, dropping the entry if it cancels to zero."""
        total = self.entries.get(idx, ZERO) + value
        if total == 0:
            self.entries.pop(idx, None)
        else:
            self.entries[idx] = total

    def __add__(self, other: SparseTensor) -> SparseTensor:
        self._check_compatible(other)
        out = SparseTensor._of_checked(self.degree, self.dim, dict(self.entries))
        for idx, v in other.entries.items():
            out.add_into(idx, v)
        return out

    def __sub__(self, other: SparseTensor) -> SparseTensor:
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> SparseTensor:
        return self.scale(Fraction(-1))

    def scale(self, c: Fraction) -> SparseTensor:
        """c times the tensor, for an exact scalar c (a float raises).

        Lemma (a scaled tensor needs no second check).  The entries are
        valid, and c is an int or a Fraction: each product of a nonzero c
        with a nonzero exact entry is a nonzero exact value, at the same
        index; so the result is built by `_of_checked`."""
        if not _is_exact(c):
            raise ValueError(f"scalar {c!r} is not an int or a Fraction")
        if c == 0:
            return SparseTensor.zero(self.degree, self.dim)
        return SparseTensor._of_checked(self.degree, self.dim, {idx: c * v for idx, v in self.entries.items()})

    def swap(self) -> SparseTensor:
        """Transpose of a degree-2 tensor (swap the two slots), built by
        `_of_checked`: swapping two in-range int indices keeps them in range,
        and the values are the valid tensor's own."""
        if self.degree != 2:
            raise ValueError("swap is defined for degree-2 tensors only")
        return SparseTensor._of_checked(2, self.dim, {(j, i): v for (i, j), v in self.entries.items()})

    def apply_per_slot(self, maps: Sequence[Matrix]) -> SparseTensor:
        """Apply one linear map per slot: e_i in slot s maps to sum_a maps[s][a][i] e_a."""
        if len(maps) != self.degree:
            raise ValueError("need one matrix per tensor slot")
        return self._apply_per_slot(
            [sparse_columns(_square(matrix(m), self.dim, f"map for slot {s}")) for s, m in enumerate(maps)]
        )

    def _apply_per_slot(self, cols: Sequence[Sequence[Mapping[int, Fraction]]]) -> SparseTensor:
        """Apply one map per slot given as sparse columns: e_i in slot s maps to
        the vector cols[s][i]."""
        out = SparseTensor.zero(self.degree, self.dim)
        for idx, v in self.entries.items():
            terms: list[tuple[tuple[int, ...], Fraction]] = [((), v)]
            for s, i in enumerate(idx):
                terms = [(prefix + (a,), coeff * x) for prefix, coeff in terms for a, x in cols[s][i].items()]
            for full_idx, coeff in terms:
                out.add_into(full_idx, coeff)
        return out

    @classmethod
    def from_matrix(cls, m: Matrix) -> SparseTensor:
        rows = enumerate(_square(m, len(m), "matrix"))
        return cls(2, len(m), {(i, j): v for i, row in rows for j, v in enumerate(row) if v != 0})

    def _check_compatible(self, other: SparseTensor) -> None:
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("tensor shapes differ")


def tensor_skew_sym_split(t: SparseTensor) -> tuple[SparseTensor, SparseTensor]:
    """Split a degree-2 tensor into (skew-symmetric, symmetric) halves.
    Kept for ROADMAP item 15, which writes the standard r as Λ + Ω/2.

    >>> t = SparseTensor.from_entries(2, 2, {(0, 1): 1})
    >>> lam, s = tensor_skew_sym_split(t)
    >>> lam.items(), s.items()
    ([((0, 1), Fraction(1, 2)), ((1, 0), Fraction(-1, 2))], [((0, 1), Fraction(1, 2)), ((1, 0), Fraction(1, 2))])
    """
    if t.degree != 2:
        raise ValueError("split is defined for degree-2 tensors only")
    s = _symmetric_part(t)
    return t.scale(ONE) - s, s  # scaled by ONE so that t's int entries come back as Fractions


def _symmetric_sums(numerators: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """t + t^T in integer numerators, for a degree-2 t given as {index: t_ab
    * den}: the integer stage of `_symmetric_part`, so 2 den s over the
    nonzero totals, s = (t + t^T)/2.  Each index is visited once; the entries
    come in the order of t's indices, then the transposes that t lacks, those
    that cancel left out.

    >>> _symmetric_sums({(0, 1): 3, (1, 0): -3, (0, 2): 2})
    {(0, 2): 2, (2, 0): 2}
    """
    twice = {(a, b): n + numerators.get((b, a), 0) for (a, b), n in numerators.items()}
    twice.update({(b, a): n for (a, b), n in numerators.items() if (b, a) not in numerators})
    return {index: n for index, n in twice.items() if n}


def _symmetric_part(t: SparseTensor) -> SparseTensor:
    """s = (t + t^T)/2 for a degree-2 t, the package's one symmetric part:
    `_symmetric_sums` over the one common denominator den of t's entries,
    each nonzero total divided by 2 den once.

    Lemma (the symmetric part needs no check).  Its indices are t's and their
    transposes, degree-2 int indices in range(t.dim), and its values are
    Fractions built from the nonzero totals only, so s is made by
    `SparseTensor._of_checked`; so is 2 den s, the same indices with those
    totals as int values, which `rmatrix.check_quasi_triangular` keeps."""
    den, numerators = _common_denominator(list(t.entries.values()))
    twice = _symmetric_sums(dict(zip(t.entries, numerators)))
    return SparseTensor._of_checked(2, t.dim, {index: Fraction(n, 2 * den) for index, n in twice.items()})


def is_antisymmetric(t: SparseTensor) -> bool:
    """True when a degree-2 tensor satisfies t(i,j) = -t(j,i) with zero diagonal."""
    if t.degree != 2:
        raise ValueError("degree-2 tensors only")
    entries = t.entries  # exact values in lowest terms: w == -v exactly when the parts match
    for (i, j), v in entries.items():
        w = entries.get((j, i))
        if i == j or w is None or w.numerator != -v.numerator or w.denominator != v.denominator:
            return False
    return True


def is_symmetric(t: SparseTensor) -> bool:
    """True when a degree-2 tensor satisfies t(i,j) = t(j,i)."""
    if t.degree != 2:
        raise ValueError("degree-2 tensors only")
    return all(t.get((j, i)) == v for (i, j), v in t.entries.items())


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """Subspace of a coordinate space, stored once as its canonical reduced
    row echelon basis, sparse: echelon[r] is {column: nonzero entry}, columns
    increasing, the first its pivot with entry 1; pivots increase, and are
    zero in the other rows.  The constructor checks this, and everything else
    builds the rows with the one kernel `_gauss_jordan`; so equal subspaces
    have equal rows.  `rows` is a dense view, built on first use.  Callers
    must not mutate the stored dicts.

    >>> Subspace.span(3, [[2, 0, 4], [0, 0, 0], [1, 0, 2], [0, 3, 0]]).echelon
    ({0: Fraction(1, 1), 2: Fraction(2, 1)}, {1: Fraction(1, 1)})
    """

    ambient_dim: int
    echelon: tuple[dict[int, Fraction], ...]

    def __post_init__(self) -> None:
        n, rows = _dimension(self.ambient_dim, "ambient dimension"), tuple(self.echelon)
        last, earlier = -1, set()  # the last pivot, and the columns of the rows so far
        for r, row in enumerate(rows):
            if (type(row) is not dict and not isinstance(row, Mapping)) or not row:
                raise ValueError(f"row {r} is {row!r}, not a nonempty mapping {{column: entry}}")
            for c, x in row.items():
                if type(c) is not int or not 0 <= c < n:
                    raise ValueError(f"row {r} has column index {c!r} outside range({n})")
                if (type(x) is not Fraction and type(x) is not int) or not x:
                    raise ValueError(f"row {r} has entry {x!r} at column {c}, not a nonzero int or Fraction")
            pivot = next(iter(row))
            if list(row) != sorted(row) or row[pivot] != 1:
                raise ValueError(f"row {r} is {row!r}: its columns must increase, the first (the pivot) with entry 1")
            if pivot <= last:
                raise ValueError(f"row {r} has pivot column {pivot}, not after row {r - 1}'s {last}")
            if pivot in earlier:
                raise ValueError(f"pivot column {pivot} of row {r} is nonzero in an earlier row")
            last = pivot
            earlier.update(row)
        object.__setattr__(self, "echelon", rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(tuple(row.items()) for row in self.echelon)))

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence[int | str | Fraction]]) -> Subspace:
        """The span of dense vectors of length ambient_dim, entries coerced with `rational`."""
        vectors = list(vectors)
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("spanning vector has wrong length")
        return _span(ambient_dim, (_sparse(vector(v)) for v in vectors))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, _unit_columns(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @cached_property
    def rows(self) -> Matrix:
        """Dense view of the canonical rows."""
        return tuple(_dense_vector(row, self.ambient_dim) for row in self.echelon)

    def contains(self, v: Vector) -> bool:
        """Exact membership of a dense vector."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector of length {len(v)} in a space of dimension {self.ambient_dim}")
        return self.contains_sparse(_sparse(v))

    @cached_property
    def _numerator_rows(self) -> tuple[int, dict[int, tuple[tuple[int, int], ...]]]:
        """(den, {pivot: ((column, numerator), ...)}): the canonical rows over
        one common denominator, each without its pivot, whose numerator is
        den; `_pivot_numerators` of the rows made ints, the target that
        `_in_span` reads."""
        return _pivot_numerators({next(iter(row)): _integer_row(row) for row in self.echelon})

    def contains_sparse(self, xs: Mapping[int, Fraction]) -> bool:
        """Exact membership of the sparse vector xs, {index: entry}, zero entries
        ignored, decided by `_in_span` on xs times the lcm of its
        denominators.  An index outside range(ambient_dim) or an entry that is
        not an int or a Fraction raises ValueError."""
        for c, x in xs.items():
            if type(c) is not int or not 0 <= c < self.ambient_dim:
                raise ValueError(f"index {c!r} outside range({self.ambient_dim})")
            if not _is_exact(x):
                raise ValueError(f"entry {x!r} at index {c} is not an int or a Fraction")
        return _in_span(self._numerator_rows, _integer_row(xs))


def _span(ambient_dim: int, rows: Iterable[Mapping[int, Fraction]]) -> Subspace:
    """The span of sparse rows with indices in range(ambient_dim)."""
    return Subspace(ambient_dim, tuple(_gauss_jordan(rows)))


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Equality of subspaces; canonical bases make this a comparison of the stored rows."""
    return a.ambient_dim == b.ambient_dim and a.echelon == b.echelon


def _orthogonal_rows(space: Subspace, form_rows: Sequence[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Rows spanning {v : <w, v> = 0 for all w in space}, for the bilinear form
    with sparse rows form_rows: the null rows of the reduced covectors w^T G,
    one per canonical row w of space.  A verdict on the space reads them as
    they are; they are not reduced again."""
    covectors = _gauss_jordan(_apply_columns(form_rows, row) for row in space.echelon)
    return _null_rows(covectors, space.ambient_dim)


def _annihilator_rows(space: Subspace) -> list[dict[int, Fraction]]:
    """Rows spanning the covectors that vanish on the subspace, read off its
    canonical rows by `_null_rows`: one per free column, in increasing order,
    so a report can name a row by its index.  A verdict on the annihilator
    reads them as they are; they are not reduced again."""
    return _null_rows(space.echelon, space.ambient_dim)


def map_subspace(m: Matrix, space: Subspace) -> Subspace:
    """Image of a subspace under the linear map with matrix m (columns index the source)."""
    if any(len(row) != space.ambient_dim for row in _exact(m)):
        raise ValueError(f"map must have {space.ambient_dim} columns, one per source coordinate")
    return _column_image(sparse_columns(m) if m else [{}] * space.ambient_dim, len(m), space)


def _images_outside(
    cols: Sequence[Mapping[int, int | Fraction]], rows: Sequence[Mapping[int, Fraction]], target: tuple
) -> list[tuple[int, int, dict[int, int]]]:
    """(a, den, sums) for each sparse row rows[a] whose image under the map
    with sparse columns cols does not lie in the span with numerator rows
    target (`Subspace._numerator_rows`).  Each image is summed by
    `_column_sums` and tested in those integer numerators (`_in_span`), and
    none is divided: a caller that reports an image divides it,
    `_quotients(den, sums)`, and gets the values and order of
    `_apply_columns`.  `stabilizer_report`, which also brackets every sharp
    image, sums each once and runs the same test on it."""
    outside = []
    for a, row in enumerate(rows):
        den, sums = _column_sums(cols, row)
        if not _in_span(target, sums):
            outside.append((a, den, sums))
    return outside


def _column_image(cols: list[dict[int, Fraction]], dim: int, space: Subspace) -> Subspace:
    """Image of a subspace under the map into dimension dim with sparse columns cols."""
    return _span(dim, (_apply_columns(cols, row) for row in space.echelon))


# ---------------------------------------------------------------------------
# Permutations


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., n-1}; images[i] is where slot i is sent.

    >>> Permutation((1, 2, 0)).sign
    1
    >>> Permutation((1, 0)).inverse()
    Permutation(images=(1, 0))
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        for x in self.images:
            if type(x) is not int:
                raise ValueError(f"permutation entry {x!r} is not an int")
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation of 0..n-1")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    @property
    def sign(self) -> int:
        inversions = sum(
            1
            for i in range(len(self.images))
            for j in range(i + 1, len(self.images))
            if self.images[i] > self.images[j]
        )
        return -1 if inversions % 2 else 1

    def columns(self, block: int = 1) -> list[dict[int, Fraction]]:
        """Sparse columns of the permutation matrix blown up to block size: source
        coordinate i*block + b goes to images[i]*block + b."""
        return [{j * block + b: ONE} for j in self.images for b in range(block)]
