"""Exact rational linear and multilinear algebra: matrices, sparse tensors,
row-reduced subspaces, and permutations.

Every scalar is a `fractions.Fraction`; equality everywhere is exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(x: int | str | Fraction) -> Fraction:
    """Coerce an int, string like ``-3/4``, or Fraction to an exact Fraction; a
    float is refused, since its binary value is rarely the rational meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValueError(f"float {x!r} is not exact; write it as a string like '1/10' or as a Fraction")
    return Fraction(x)


def _is_exact(x: object) -> bool:
    """True for an int or a Fraction (not a bool), the scalars stored entries hold."""
    return type(x) is int or type(x) is Fraction


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


def vector(entries: Iterable[int | str | Fraction]) -> Vector:
    """Build an exact coordinate vector."""
    return tuple(rational(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    """Standard basis vector e_i (0-based) in dimension n."""
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def matrix(rows: Sequence[Sequence[int | str | Fraction]]) -> Matrix:
    """Build an exact matrix from any nested sequence of scalars."""
    return tuple(vector(row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """Matrix times column vector, summing over the nonzero entries of v only."""
    terms = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in m:
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
    rows = range(n_rows)
    for c, col in enumerate(cols):
        if not isinstance(col, Mapping):
            return f"column {c} is a {type(col).__name__}, not a mapping"
        for r, x in col.items():
            if r not in rows:
                return f"column {c} has row index {r!r} outside range({n_rows})"
            if not _is_exact(x):
                return f"column {c} has entry {x!r} at row {r}, not an int or a Fraction"
    return None


def _apply_columns(cols: list[dict[int, Fraction]], xs: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """The map with sparse columns `cols` applied to the sparse vector xs."""
    out: dict[int, Fraction] = {}
    for i, xi in xs.items():
        for a, c in cols[i].items():
            total = out.get(a, ZERO) + c * xi
            if total == 0:
                out.pop(a, None)
            else:
                out[a] = total
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product, skipping zero entries (block/permutation matrices are common)."""
    cols_b = _width(b)
    if any(len(row) != len(b) for row in a):
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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows are dropped.

    >>> r, p = rref(matrix([[2, 4], [1, 2]]))
    >>> r, p
    (((Fraction(1, 1), Fraction(2, 1)),), (0,))
    """
    n_cols = _width(m)
    rows = [list(row) for row in m]
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x if x else ZERO for x in rows[r]]
        pivot_terms = [(j, y) for j, y in enumerate(rows[r]) if y]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                row_i = rows[i]
                for j, y in pivot_terms:
                    row_i[j] -= f * y
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def matrix_rank(m: Matrix) -> int:
    return len(rref(m)[0])


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of {v : m @ v = 0}, one vector per free column (deterministic order)."""
    reduced, pivots = rref(m)
    n_cols = len(m[0]) if m else 0
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [ZERO] * n_cols
        v[free] = ONE
        for row, piv in zip(reduced, pivots):
            v[piv] = -row[free]
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square invertible matrix."""
    n = len(_square(m, len(m), "matrix"))
    augmented = tuple(row + unit_vector(n, i) for i, row in enumerate(m))
    reduced, pivots = rref(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(_square(m, len(m), "matrix"))
    rows = [list(row) for row in m]
    det = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det *= rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


# ---------------------------------------------------------------------------
# Sparse tensors


@dataclass
class SparseTensor:
    """Sparse tensor of degree 1, 2, or 3 over a dim-dimensional space.

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
        out = SparseTensor(self.degree, self.dim, dict(self.entries))
        for idx, v in other.entries.items():
            out.add_into(idx, v)
        return out

    def __sub__(self, other: SparseTensor) -> SparseTensor:
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> SparseTensor:
        return self.scale(Fraction(-1))

    def scale(self, c: Fraction) -> SparseTensor:
        if c == 0:
            return SparseTensor.zero(self.degree, self.dim)
        return SparseTensor(self.degree, self.dim, {idx: c * v for idx, v in self.entries.items()})

    def swap(self) -> SparseTensor:
        """Transpose of a degree-2 tensor (swap the two slots)."""
        if self.degree != 2:
            raise ValueError("swap is defined for degree-2 tensors only")
        return SparseTensor(2, self.dim, {(j, i): v for (i, j), v in self.entries.items()})

    def apply_per_slot(self, maps: Sequence[Matrix]) -> SparseTensor:
        """Apply one linear map per slot: e_i in slot s maps to sum_a maps[s][a][i] e_a."""
        if len(maps) != self.degree:
            raise ValueError("need one matrix per tensor slot")
        return self._apply_per_slot(
            [sparse_columns(_square(m, self.dim, f"map for slot {s}")) for s, m in enumerate(maps)]
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

    def contract(self, covectors: Sequence[Vector]) -> Fraction:
        """Full pairing with one coordinate covector per slot."""
        if len(covectors) != self.degree:
            raise ValueError("need one covector per tensor slot")
        for s, covector in enumerate(covectors):
            if len(covector) != self.dim:
                raise ValueError(f"covector for slot {s} must have length {self.dim}, got {len(covector)}")
        total = ZERO
        for idx, v in self.entries.items():
            term = v
            for s, i in enumerate(idx):
                term *= covectors[s][i]
                if term == 0:
                    break
            total += term
        return total

    @classmethod
    def from_matrix(cls, m: Matrix) -> SparseTensor:
        dim = len(m)
        return cls(2, dim, {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row) if v != 0})

    def _check_compatible(self, other: SparseTensor) -> None:
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("tensor shapes differ")


def tensor_skew_sym_split(t: SparseTensor) -> tuple[SparseTensor, SparseTensor]:
    """Split a degree-2 tensor into (skew-symmetric, symmetric) halves.

    >>> t = SparseTensor.from_entries(2, 2, {(0, 1): 1})
    >>> lam, s = tensor_skew_sym_split(t)
    >>> lam.items(), s.items()
    ([((0, 1), Fraction(1, 2)), ((1, 0), Fraction(-1, 2))], [((0, 1), Fraction(1, 2)), ((1, 0), Fraction(1, 2))])
    """
    if t.degree != 2:
        raise ValueError("split is defined for degree-2 tensors only")
    half = Fraction(1, 2)
    swapped = t.swap()
    return (t - swapped).scale(half), (t + swapped).scale(half)


def wedge_into(t: SparseTensor, x: Mapping[int, Fraction], y: Mapping[int, Fraction], coeff: Fraction) -> None:
    """Accumulate coeff * (x ^ y) = coeff * (x (x) y - y (x) x) into a degree-2 tensor,
    for sparse vectors given as {index: entry}."""
    for i, xi in x.items():
        for j, yj in y.items():
            if i != j:
                v = coeff * xi * yj
                t.add_into((i, j), v)
                t.add_into((j, i), -v)


def wedge(x: Vector, y: Vector) -> SparseTensor:
    """The wedge x ^ y = x (x) y - y (x) x (no 1/2 normalization)."""
    out = SparseTensor.zero(2, len(x))
    wedge_into(out, _sparse(x), _sparse(y), ONE)
    return out


def wedge3_basis(t: SparseTensor, a: int, b: int, c: int, coeff: Fraction) -> None:
    """Accumulate coeff * (e_a ^ e_b ^ e_c), the signed sum over all six slot orders."""
    if coeff == 0:
        return
    for idx, sign in (
        ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
        ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
    ):
        t.add_into(idx, coeff if sign > 0 else -coeff)


def wedge_t2_v1_into(t: SparseTensor, t2: SparseTensor, v: Mapping[int, Fraction], coeff: Fraction) -> None:
    """Accumulate coeff * (t2 ^ v) into a degree-3 tensor, for an antisymmetric
    degree-2 t2 and a sparse vector v given as {index: entry}."""
    for (a, b), x in t2.entries.items():
        if a < b:  # each unordered pair once; the (b, a) entry is its negative
            for c, vc in v.items():
                wedge3_basis(t, a, b, c, coeff * x * vc)


def is_antisymmetric(t: SparseTensor) -> bool:
    """True when a degree-2 tensor satisfies t(i,j) = -t(j,i) with zero diagonal."""
    if t.degree != 2:
        raise ValueError("degree-2 tensors only")
    return all(i != j and t.get((j, i)) == -v for (i, j), v in t.entries.items())


def is_symmetric(t: SparseTensor) -> bool:
    """True when a degree-2 tensor satisfies t(i,j) = t(j,i)."""
    if t.degree != 2:
        raise ValueError("degree-2 tensors only")
    return all(t.get((j, i)) == v for (i, j), v in t.entries.items())


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """Subspace of a coordinate space, held as a canonical reduced-row-echelon basis.

    Canonicity makes equality of subspaces equality of the `rows` tuples.
    """

    ambient_dim: int
    rows: Matrix

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence[int | str | Fraction]]) -> Subspace:
        mat = matrix(list(vectors))
        for row in mat:
            if len(row) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
        reduced, _ = rref(mat) if mat else ((), ())
        return cls(ambient_dim, reduced)

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, identity_matrix(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def echelon(self) -> tuple[tuple[int, dict[int, Fraction]], ...]:
        """Each canonical row as (pivot column, {column: nonzero entry}), built
        once and shared: callers must not mutate the dicts."""
        return tuple((next(iter(sparse)), sparse) for sparse in map(_sparse, self.rows))

    def contains(self, v: Vector) -> bool:
        """Exact membership of a dense vector."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector of length {len(v)} in a space of dimension {self.ambient_dim}")
        return self.contains_sparse(_sparse(v))

    def contains_sparse(self, xs: Mapping[int, Fraction]) -> bool:
        """Exact membership of the vector whose nonzero entries are xs.  The basis
        is in reduced row echelon form, so v lies in the span exactly when it
        equals the sum over the rows of v[pivot] * row."""
        combo: dict[int, Fraction] = {}
        for pivot, row in self.echelon:
            f = xs.get(pivot)
            if f:
                for j, y in row.items():
                    total = combo.get(j, ZERO) + f * y
                    if total:
                        combo[j] = total
                    else:
                        del combo[j]
        return combo == xs


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return Subspace.span(a.ambient_dim, list(a.rows) + list(b.rows))


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Equality of subspaces; canonical bases make this a tuple comparison."""
    return a.ambient_dim == b.ambient_dim and a.rows == b.rows


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """True when b is contained in a."""
    return a.ambient_dim == b.ambient_dim and all(a.contains_sparse(row) for _, row in b.echelon)


def orthogonal_complement(space: Subspace, gram: Matrix) -> Subspace:
    """{v : <w, v> = 0 for all w in space}, for the bilinear form with Gram matrix `gram`."""
    return _orthogonal_complement(space, [_sparse(row) for row in _square(gram, space.ambient_dim, "gram")])


def _orthogonal_complement(space: Subspace, form_rows: Sequence[Mapping[int, Fraction]]) -> Subspace:
    """The same for the form with sparse rows form_rows: the kernel of the
    covectors w^T G, one per canonical row w of space."""
    n = space.ambient_dim
    conditions = [_dense_vector(_apply_columns(form_rows, row), n) for _, row in space.echelon]
    return Subspace.span(n, nullspace(conditions)) if conditions else Subspace.full(n)


def annihilator(space: Subspace) -> Subspace:
    """Covectors vanishing on the subspace: {xi : xi(w) = 0 for all w in space}."""
    if not space.rows:
        return Subspace.full(space.ambient_dim)
    return Subspace.span(space.ambient_dim, nullspace(space.rows))


def map_subspace(m: Matrix, space: Subspace) -> Subspace:
    """Image of a subspace under the linear map with matrix m (columns index the source)."""
    if any(len(row) != space.ambient_dim for row in m):
        raise ValueError(f"map must have {space.ambient_dim} columns, one per source coordinate")
    return _column_image(sparse_columns(m) if m else [{}] * space.ambient_dim, len(m), space)


def _images_outside(
    cols: list[dict[int, Fraction]], space: Subspace, target: Subspace
) -> list[tuple[int, dict[int, Fraction]]]:
    """(a, image) for each canonical row a of space whose image under the map
    with sparse columns cols does not lie in target."""
    images = ((a, _apply_columns(cols, row)) for a, (_, row) in enumerate(space.echelon))
    return [(a, image) for a, image in images if not target.contains_sparse(image)]


def _column_image(cols: list[dict[int, Fraction]], dim: int, space: Subspace) -> Subspace:
    """Image of a subspace under the map into dimension dim with sparse columns cols."""
    return Subspace.span(dim, [_dense_vector(_apply_columns(cols, row), dim) for _, row in space.echelon])


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
