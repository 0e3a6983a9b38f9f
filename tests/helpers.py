"""Shared test utilities: seeded random generators over exact rationals and
independent dense oracles used to cross-check the sparse implementations."""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from maninforge.core import (
    ONE,
    ZERO,
    Matrix,
    Permutation,
    SparseTensor,
    Subspace,
    Vector,
    _common_denominator,
    _gauss_jordan,
    _integer_row,
    _numerators,
    _sparse,
    _unit_columns,
    determinant,
    identity_matrix,
    inverse,
    map_subspace,
    mat_mul,
    mat_vec,
    matrix,
    nullspace,
    rref,
    sparse_columns,
    transpose,
    unit_vector,
)
from maninforge.homlie import (
    HomLieAlgebra,
    direct_sum,
    _accumulate,
    _ad_basis,
    _by_slot,
    _dense,
    _holders,
    _pair_brackets,
    _pairings,
    _residual,
    check_involutive,
)
from maninforge.manin import Chain, DualBasisPair, ManinTriple, RootData, _dual_rows, _form_rows
from maninforge.reporting import CheckReport, combine, failure, render_vector
from maninforge.rmatrix import RMatrixReport, check_hom_ad_invariant, sl2_lie, sl2_twisted

_DENOMINATORS = (1, 1, 1, 2, 3, 4)

# An invariant form of the twisted sl2 ([e0,e1] = -2e1, [e0,e2] = 2e2,
# [e1,e2] = e0); the twist is self-adjoint for it.
SL2_FORM = ((2, 0, 0), (0, 0, -1), (0, -1, 0))


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(_DENOMINATORS))


def rand_vector(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> Vector:
    return tuple(rand_fraction(rng, lo, hi) for _ in range(n))


def rand_int_vector(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> Vector:
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))


def rand_tensor(rng: random.Random, degree: int, dim: int, fill: int = 5) -> SparseTensor:
    t = SparseTensor.zero(degree, dim)
    for _ in range(fill):
        idx = tuple(rng.randrange(dim) for _ in range(degree))
        t.add_into(idx, rand_fraction(rng))
    return t


def rand_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if determinant(m) != 0:
            return m


def rand_subspace(rng: random.Random, ambient: int, spanning: int) -> Subspace:
    return Subspace.span(
        ambient, [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(spanning)]
    )


def rand_phi_fixed_skew(rng: random.Random, h: HomLieAlgebra, fill: int = 6) -> SparseTensor:
    """A random antisymmetric degree-2 tensor fixed by the twist (slot-wise).

    Works by projecting: skew part first, then average with its twisted image.
    Requires an involutive twist so that the average is genuinely fixed.
    """
    t = rand_tensor(rng, 2, h.dim, fill)
    skew = (t - t.swap()).scale(Fraction(1, 2))
    twisted = skew.apply_per_slot([h.phi, h.phi])
    return (skew + twisted).scale(Fraction(1, 2))


def conjugate_algebra(h: HomLieAlgebra, p: Matrix) -> HomLieAlgebra:
    """h written in the basis formed by the columns of the invertible p: dense
    brackets, twist p^-1 phi p and form p^T g p."""
    pinv = inverse(p)
    cols = transpose(p)
    brackets = {}
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            w = dense_mat_vec(pinv, h.bracket(cols[i], cols[j]))
            entry = {k: v for k, v in enumerate(w) if v}
            if entry:
                brackets[(i, j)] = entry
    phi = mat_mul(pinv, mat_mul(h.phi, p))
    form = None if h.form is None else mat_mul(transpose(p), mat_mul(h.form, p))
    return HomLieAlgebra.unchecked(h.dim, brackets, phi, form)


SL2_BRACKETS = {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: 1}}


def sl2_scaled() -> HomLieAlgebra:
    """The sl2 bracket with the automorphism diag(1, 2, 1/2) as twist: a
    multiplicative twist that is not an involution."""
    return HomLieAlgebra.unchecked(3, SL2_BRACKETS, phi=[[1, 0, 0], [0, 2, 0], [0, 0, Fraction(1, 2)]])


# Twisted algebras, most with a twist that does not square to the identity:
# a nilpotent twist, a scaled sl2, its sums and a conjugate of it.
TWISTED_ALGEBRAS = {
    "sl2_lie": sl2_lie,
    "sl2_twisted": sl2_twisted,
    "nilpotent twist": lambda: HomLieAlgebra.unchecked(3, {(0, 1): {2: 1}}, phi=[[0, 0, 0], [0, 1, 0], [1, 0, 0]]),
    "sl2 scaled": sl2_scaled,
    "sl2 scaled^3": lambda: direct_sum(*[sl2_scaled()] * 3),
    "sl2 scaled sheared": lambda: conjugate_algebra(sl2_scaled(), matrix([[1, 1, 0], [0, 1, 0], [2, 0, 1]])),
    "sl2 scaled+sl2_twisted": lambda: direct_sum(sl2_scaled(), sl2_twisted()),
}


def basis_image(t: ManinTriple, p: Matrix) -> ManinTriple:
    """t written in the basis formed by the columns of p: p maps it onto t."""
    pinv = inverse(p)
    return ManinTriple(conjugate_algebra(t.algebra, p), map_subspace(pinv, t.part1), map_subspace(pinv, t.part2))


def shear_product(dim: int, count: int, seed: int, entry=lambda rng: rng.choice((1, -1))) -> Matrix:
    """A seeded product of `count` elementary shears I + s E_ab (a != b), each
    s drawn by entry(rng): by default s = +-1, an integer change of basis with
    an integer inverse."""
    rng = random.Random(seed)
    p = identity_matrix(dim)
    for _ in range(count):
        a, b = rng.sample(range(dim), 2)
        rows = [list(row) for row in identity_matrix(dim)]
        rows[a][b] = entry(rng)
        p = mat_mul(p, matrix(rows))
    return p


def flip_first_constant(t: ManinTriple) -> ManinTriple:
    """t with the sign of its first structure constant flipped."""
    h = t.algebra
    brackets = {key: dict(coeffs) for key, coeffs in h.brackets.items()}
    key = next(iter(brackets))
    k = next(iter(brackets[key]))
    brackets[key][k] = -brackets[key][k]
    return ManinTriple(HomLieAlgebra.unchecked(h.dim, brackets, h.phi, h.form), t.part1, t.part2)


def dense_structure_constants(h: HomLieAlgebra) -> list[list[list[Fraction]]]:
    n = h.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, v in h.bracket_basis(i, j).items():
                c[i][j][k] = v
    return c


def dense_hcyb(h: HomLieAlgebra, r: SparseTensor) -> dict[tuple[int, int, int], Fraction]:
    """Brute-force twin of the twisted Yang-Baxter contraction.

    Expands r over all basis index pairs with dense structure constants and
    dense twist columns, accumulating every product term one scalar at a time.
    Deliberately written without SparseTensor arithmetic so it can serve as an
    independent oracle for the sparse implementation.
    """
    n = h.dim
    c = dense_structure_constants(h)
    phi = h.phi
    dense_r = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), v in r.items():
        dense_r[a][b] = v
    out: dict[tuple[int, int, int], Fraction] = {}

    def add(i: int, j: int, k: int, v: Fraction) -> None:
        if v:
            key = (i, j, k)
            total = out.get(key, Fraction(0)) + v
            if total:
                out[key] = total
            else:
                out.pop(key, None)

    for a in range(n):
        for b in range(n):
            v_ab = dense_r[a][b]
            if not v_ab:
                continue
            for cc in range(n):
                for d in range(n):
                    v_cd = dense_r[cc][d]
                    if not v_cd:
                        continue
                    w = v_ab * v_cd
                    for k1 in range(n):
                        for k2 in range(n):
                            for k3 in range(n):
                                add(k1, k2, k3, w * c[a][cc][k1] * phi[k2][b] * phi[k3][d])
                                add(k1, k2, k3, w * phi[k1][a] * c[b][cc][k2] * phi[k3][d])
                                add(k1, k2, k3, w * phi[k1][a] * phi[k2][cc] * c[b][d][k3])
    return out


def pairwise_hcyb(h: HomLieAlgebra, r: SparseTensor) -> dict[tuple[int, int, int], Fraction]:
    """The twisted Yang-Baxter residual summed over every ordered pair of
    entries of r, term by term from the definition, in Fraction arithmetic and
    with the twist's columns read from its dense view.  The three terms are
    those of `dense_hcyb`, with the zero structure constants and twist entries
    skipped; so it reaches dimensions where `dense_hcyb` takes hours, and the
    tests check the two agree where both run."""
    phi = sparse_columns(h.phi)
    out: dict[tuple[int, int, int], Fraction] = {}

    def add(key: tuple[int, int, int], v: Fraction) -> None:
        total = out.get(key, Fraction(0)) + v
        if total:
            out[key] = total
        else:
            out.pop(key, None)

    for (a, b), v_ab in r.entries.items():
        for (c, d), v_cd in r.entries.items():
            w = v_ab * v_cd
            for k, x in h.bracket_basis(a, c).items():
                for p, y in phi[b].items():
                    for q, z in phi[d].items():
                        add((k, p, q), w * x * y * z)
            for k, x in h.bracket_basis(b, c).items():
                for p, y in phi[a].items():
                    for q, z in phi[d].items():
                        add((p, k, q), w * y * x * z)
            for k, x in h.bracket_basis(b, d).items():
                for p, y in phi[a].items():
                    for q, z in phi[c].items():
                        add((p, q, k), w * y * z * x)
    return out


def tensor_entries(t: SparseTensor) -> dict[tuple[int, ...], Fraction]:
    return dict(t.items())


# ---------------------------------------------------------------------------
# Dense reference linear algebra: the plain Fraction loops the column-sparse
# paths replaced, kept (skipping only zero products) so the fast paths can be
# compared against them.


def dense_vec_dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True) if a and b), ZERO)


def dense_mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dense_vec_dot(row, v) for row in m)


def dense_pair(form: Matrix, x: Vector, y: Vector) -> Fraction:
    """<x, y> under the Gram matrix form, one entry at a time."""
    return sum((x[i] * form[i][j] * y[j] for i in range(len(x)) for j in range(len(y)) if x[i] and y[j]), ZERO)


def dense_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    rows = [list(row) for row in m]
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def dense_nullspace(m: Matrix) -> list[Vector]:
    """One null vector per free column of dense_rref(m), in column order."""
    reduced, pivots = dense_rref(m)
    n_cols = len(m[0]) if m else 0
    basis = []
    for free in range(n_cols):
        if free not in pivots:
            v = [ZERO] * n_cols
            v[free] = ONE
            for row, piv in zip(reduced, pivots):
                v[piv] = -row[free]
            basis.append(tuple(v))
    return basis


def dense_span(ambient_dim: int, vectors) -> Subspace:
    mat = matrix(list(vectors))
    reduced = dense_rref(mat)[0] if mat else ()
    return Subspace(ambient_dim, tuple({j: x for j, x in enumerate(row) if x} for row in reduced))


def dense_contains(space: Subspace, v: Vector) -> bool:
    residual = list(v)
    for row in space.rows:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        if residual[pivot] != 0:
            f = residual[pivot]
            residual = [x - f * y for x, y in zip(residual, row)]
    return all(x == 0 for x in residual)


# ---------------------------------------------------------------------------
# Fraction references for the integer kernels: `core._gauss_jordan`,
# `core._apply_columns` and `Subspace.contains_sparse` as they were before they
# summed ints, one Fraction multiply and add per term, frozen so the integer
# kernels can be compared with them row for row and key for key.


def _fraction_add_scaled(out: dict[int, Fraction], xs, f: Fraction) -> None:
    """out += f * xs for sparse vectors, dropping the entries that cancel."""
    for a, x in xs.items():
        total = out.get(a, ZERO) + f * x
        if total:
            out[a] = total
        else:
            out.pop(a, None)


def fraction_gauss_jordan(rows) -> list[dict[int, Fraction]]:
    kept: dict[int, dict[int, Fraction]] = {}  # pivot -> row
    for row in rows:
        v = {c: x for c, x in row.items() if x}
        for p in [c for c in v if c in kept]:
            _fraction_add_scaled(v, kept[p], -v[p])
        if v:
            pivot = min(v)
            inv = ONE / v[pivot]
            v = {c: x * inv for c, x in v.items()}
            for other in kept.values():
                f = other.get(pivot)
                if f:
                    _fraction_add_scaled(other, v, -f)
            kept[pivot] = v
    return [dict(sorted(kept[p].items())) for p in sorted(kept)]


def fraction_apply_columns(cols, xs) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for i, xi in xs.items():
        _fraction_add_scaled(out, cols[i], xi)
    return out


def fraction_contains_sparse(space: Subspace, xs) -> bool:
    """Membership of the vector whose nonzero entries are xs."""
    pivot_rows = {next(iter(row)): row for row in space.echelon}
    combo: dict[int, Fraction] = {}
    for pivot in xs.keys() & pivot_rows:
        _fraction_add_scaled(combo, pivot_rows[pivot], xs[pivot])
    return combo == xs


# ---------------------------------------------------------------------------
# References for the Yang-Baxter kernels and the integer symmetric part:
# `rmatrix.hcyb` summing at tuple indices, `rmatrix._sharp_columns`, the
# symmetric part of `check_quasi_triangular`, `core.tensor_skew_sym_split` and
# `core.determinant` in Fraction arithmetic, and the classification built on
# them, as they were before the flat integer index, the integer symmetric part
# and the integer row operation, frozen so the kernels can be compared with
# them entry for entry and in entry order.


def tuple_index_hcyb(h: HomLieAlgebra, r: SparseTensor) -> SparseTensor:
    """The twisted Yang-Baxter residual summed in integer numerators at
    3-tuple indices, one term at a time in the order (key, layout, u, w, k)."""
    by_slot, den_r = _by_slot(h, r)
    den_c, table = h._bracket_numerators
    sums: dict[tuple[int, int, int], int] = {}
    for (i, j), cs in table.items():
        for s, t, pos in ((0, 0, 0), (1, 0, 1), (1, 1, 2)):
            for u, v in by_slot[s].get(i, ()):
                for w, x in by_slot[t].get(j, ()):
                    for k, c in cs:
                        index = (k, u, w) if pos == 0 else (u, k, w) if pos == 1 else (u, w, k)
                        total = sums.get(index, 0) + c * v * x
                        if total:
                            sums[index] = total
                        else:
                            del sums[index]
    den = den_r * den_r * den_c
    return SparseTensor(3, h.dim, {index: Fraction(n, den) for index, n in sums.items()})


def fraction_sharp_columns(h: HomLieAlgebra, t: SparseTensor) -> list[dict[int, Fraction]]:
    """Column c of t# is sum_ab t_ab phi[c][a] e_b, one Fraction multiply and add per term."""
    cols: list[dict[int, Fraction]] = [{} for _ in range(h.dim)]
    for (a, b), v in t.entries.items():
        for c, p in h.phi_columns[a].items():
            total = cols[c].get(b, ZERO) + v * p
            if total:
                cols[c][b] = total
            else:
                cols[c].pop(b, None)
    return cols


def fraction_symmetric_part(r: SparseTensor) -> SparseTensor:
    """(r + r^T)/2 with two lookups, a Fraction add and a multiply per index,
    over r's indices and then their transposes."""
    half, indices = Fraction(1, 2), [*r.entries, *((b, a) for a, b in r.entries)]
    return SparseTensor(2, r.dim, {(a, b): (r.get((a, b)) + r.get((b, a))) * half for a, b in indices})


def fraction_skew_sym_split(t: SparseTensor) -> tuple[SparseTensor, SparseTensor]:
    """(t - t^T)/2 and (t + t^T)/2 by whole-tensor Fraction arithmetic."""
    half, swapped = Fraction(1, 2), t.swap()
    return (t - swapped).scale(half), (t + swapped).scale(half)


def fraction_determinant(m: Matrix) -> Fraction:
    """Dense Gaussian elimination in Fractions: the product of the pivots,
    negated once per row swap."""
    n = len(m)
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


def fraction_quasi_triangular(h: HomLieAlgebra, r: SparseTensor) -> RMatrixReport:
    """`check_quasi_triangular` on the references above."""
    s = fraction_symmetric_part(r)
    phi_fixed = fraction_phi_fixed(h, r)
    s_invariant = check_hom_ad_invariant(h, s).passed
    residual = tuple_index_hcyb(h, r)
    if not (phi_fixed and s_invariant and residual.is_zero):
        verdict = "fails"
    else:
        verdict = "skew-only" if s.is_zero else "quasi-triangular"
    factorizable = (not s.is_zero) and len(_gauss_jordan(fraction_sharp_columns(h, s))) == h.dim
    return RMatrixReport(phi_fixed, s_invariant, residual, verdict, factorizable)


# ---------------------------------------------------------------------------
# The twisted entries by slot and the graded bracket as they were before the
# twist and the degree-3 sums moved to integer numerators: the twist applied
# by two Fraction `_apply_per_slot` passes, and every term of the graded
# bracket added to a Fraction tensor by `wedge3_basis` and `wedge_t2_v1_into`,
# the Fraction references of `rmatrix._wedge_into`.  Frozen so that the
# integer forms can be compared with them value for value and in entry order.


def wedge3_basis(t: SparseTensor, a: int, b: int, c: int, coeff: Fraction) -> None:
    """Accumulate coeff * (e_a ^ e_b ^ e_c), the signed sum over all six slot orders."""
    if coeff == 0:
        return
    for idx, sign in (
        ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
        ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
    ):
        t.add_into(idx, coeff if sign > 0 else -coeff)


def wedge_t2_v1_into(t: SparseTensor, t2: SparseTensor, v, coeff: Fraction) -> None:
    """Accumulate coeff * (t2 ^ v) into a degree-3 tensor, for an antisymmetric
    degree-2 t2 and a sparse vector v given as {index: entry}."""
    for (a, b), x in t2.entries.items():
        if a < b:  # each unordered pair once; the (b, a) entry is its negative
            for c, vc in v.items():
                wedge3_basis(t, a, b, c, coeff * x * vc)


def fraction_by_slot(h: HomLieAlgebra, t: SparseTensor) -> tuple[tuple[dict, dict], int]:
    """`homlie._by_slot`, a non-identity twist applied by `_apply_per_slot`
    and the two images put over the lcm of their denominators."""
    if h.untwisted:
        left = right = t
        den, numerators = _common_denominator(list(t.entries.values()))
        right_numerators = numerators
    else:
        ident = _unit_columns(h.dim)
        left, right = t._apply_per_slot((ident, h.phi_columns)), t._apply_per_slot((h.phi_columns, ident))
        den, numerators = _common_denominator([*left.entries.values(), *right.entries.values()])
        right_numerators = numerators[len(left.entries) :]
    by_slot: tuple[dict, dict] = ({}, {})
    for (a, b), v in zip(left.entries, numerators):
        by_slot[0].setdefault(a, []).append((b, v))
    for (a, b), v in zip(right.entries, right_numerators):
        by_slot[1].setdefault(b, []).append((a, v))
    return by_slot, den


def fraction_phi_fixed(h: HomLieAlgebra, t: SparseTensor) -> bool:
    """`homlie._phi_fixed`, the twist applied to both slots by `_apply_per_slot`."""
    return h.untwisted or t._apply_per_slot((h.phi_columns, h.phi_columns)) == t


def fraction_hom_schouten(h: HomLieAlgebra, a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """`rmatrix.hom_schouten` on valid input, each term a Fraction added to the
    result by `wedge_t2_v1_into` or `add_into`."""
    if a.degree > b.degree == 1:
        return -fraction_hom_schouten(h, b, a)
    vector = lambda t: {i: x for (i,), x in t.entries.items()}
    pair = (a.degree, b.degree)
    if pair == (1, 1):
        xy = _pair_brackets(h, [vector(a), vector(b)]).get((0, 1), {})
        return SparseTensor(1, h.dim, {(k,): v for k, v in xy.items()})
    phi = h.phi_columns

    def bracket_1_2(x: dict[int, Fraction], t2: SparseTensor) -> SparseTensor:
        out2 = SparseTensor.zero(2, h.dim)
        for k, w in _ad_basis(h, t2, x.keys()).items():
            for index, v in w.items():
                out2.add_into(index, x[k] * v)
        return out2

    if pair == (1, 2):
        return bracket_1_2(vector(a), b)
    out = SparseTensor.zero(3, h.dim)
    if pair == (1, 3):
        x = vector(a)
        rs = sorted({r for p, q, r in b.entries if p < q < r})
        pairs = _pair_brackets(h, [x, *({r: ONE} for r in rs)])
        x_e = {r: pairs.get((0, 1 + n), {}) for n, r in enumerate(rs)}
        for (p, q, r), v in b.entries.items():
            if p < q < r:
                pq = SparseTensor(2, h.dim, {(p, q): ONE, (q, p): -ONE})
                wedge_t2_v1_into(out, bracket_1_2(x, pq), phi[r], v)
                wedge_t2_v1_into(out, pq._apply_per_slot((phi, phi)), x_e[r], v)
        return out
    ad_a = {p: SparseTensor(2, h.dim, w) for p, w in _ad_basis(h, a, {i for idx in b.entries for i in idx}).items()}
    zero = SparseTensor.zero(2, h.dim)
    for (p, q), v in b.entries.items():
        if p < q:
            wedge_t2_v1_into(out, ad_a.get(p, zero), phi[q], -v)
            wedge_t2_v1_into(out, ad_a.get(q, zero), phi[p], v)
    return out


def dense_map_subspace(m: Matrix, space: Subspace) -> Subspace:
    return dense_span(len(m), [dense_mat_vec(m, row) for row in space.rows])


def dense_block_permutation(p: Permutation, block: int) -> Matrix:
    """Dense permutation matrix of p (columns index the source), blown up to
    block size: the block of slot i moves to slot p(i)."""
    n = p.n * block
    rows = [[ZERO] * n for _ in range(n)]
    for i, j in enumerate(p.images):
        for b in range(block):
            rows[j * block + b][i * block + b] = ONE
    return tuple(tuple(row) for row in rows)


def dense_check_homomorphism(f: Matrix, h1: HomLieAlgebra, h2: HomLieAlgebra) -> CheckReport:
    failures = []
    lhs_twist = mat_mul(f, h1.phi)
    rhs_twist = mat_mul(h2.phi, f)
    for i in range(h1.dim):
        col_l = tuple(row[i] for row in lhs_twist)
        col_r = tuple(row[i] for row in rhs_twist)
        if col_l != col_r:
            failures.append(failure("twist_intertwine", (i,), tuple(a - b for a, b in zip(col_l, col_r))))
    f_cols = [tuple(row[i] for row in f) for i in range(h1.dim)]
    for i in range(h1.dim):
        for j in range(i + 1, h1.dim):
            dense_bracket = [ZERO] * h1.dim
            for k, c in h1.bracket_basis(i, j).items():
                dense_bracket[k] = c
            lhs = dense_mat_vec(f, tuple(dense_bracket))
            rhs = h2.bracket(f_cols[i], f_cols[j])
            if lhs != rhs:
                failures.append(failure("bracket_preserved", (i, j), tuple(a - b for a, b in zip(lhs, rhs))))
    return CheckReport("homomorphism", failures)


def dense_check_manin_isomorphism(f: Matrix, t1, t2) -> CheckReport:
    h1, h2 = t1.algebra, t2.algebra
    failures = []
    if h1.dim != h2.dim or len(f) != h1.dim:
        return CheckReport("manin_isomorphism", [failure("shape", (h1.dim, h2.dim, len(f)))])
    f_cols = [tuple(row[i] for row in f) for i in range(h1.dim)]
    lhs_twist = mat_mul(f, h1.phi)
    rhs_twist = mat_mul(h2.phi, f)
    if lhs_twist != rhs_twist:
        for i in range(h1.dim):
            col_l = tuple(row[i] for row in lhs_twist)
            col_r = tuple(row[i] for row in rhs_twist)
            if col_l != col_r:
                failures.append(failure("twist_intertwine", (i,), tuple(a - b for a, b in zip(col_l, col_r))))
    for i in range(h1.dim):
        for j in range(i + 1, h1.dim):
            lhs = (ZERO,) * h1.dim
            for k, c in h1.bracket_basis(i, j).items():
                lhs = tuple(a + c * b for a, b in zip(lhs, f_cols[k]))
            rhs = h2.bracket(f_cols[i], f_cols[j])
            if lhs != rhs:
                failures.append(failure("bracket_preserved", (i, j), tuple(a - b for a, b in zip(lhs, rhs))))
    pulled_back = mat_mul(transpose(f), mat_mul(t2.form, f))
    if pulled_back != t1.form:
        for i in range(h1.dim):
            for j in range(h1.dim):
                if pulled_back[i][j] != t1.form[i][j]:
                    failures.append(failure("form_preserved", (i, j), pulled_back[i][j] - t1.form[i][j]))
    if dense_map_subspace(f, t1.part1).rows != t2.part1.rows:
        failures.append(failure("part1_image"))
    if dense_map_subspace(f, t1.part2).rows != t2.part2.rows:
        failures.append(failure("part2_image"))
    return CheckReport("manin_isomorphism", failures)


def relabels(sigma, t1: ManinTriple, t2: ManinTriple) -> bool:
    """Whether the relabelling f(b_a) = b_sigma(a), sigma a permutation of
    range(t1.dim), carries t1's stored data onto t2's, of equal dimension.  True certifies that f
    is a triple isomorphism, so `check_manin_isomorphism` passes it; False
    decides nothing, since equal spaces can be stored in other rows.

    Lemma (a relabelling moves stored data to new keys).  Let f relabel.
    - Brackets.  f[b_i, b_j] is {sigma(k): c} over the stored entries of h1's
      key (i, j), and [f(b_i), f(b_j)] is h2's stored dict at the key
      {sigma(i), sigma(j)}, negated when sigma(i) > sigma(j).  Suppose the two
      agree at every key of h1 and the tables have equally many keys.
      Distinct pairs have distinct images, so the images of h1's keys are all
      of h2's keys, and on every other pair both sides vanish.
    - Twist.  f . phi1 = phi2 . f on b_i when column i of phi1, relabelled, is
      column sigma(i) of phi2.  Two identity twists pass with nothing to
      compare: f . Id = Id . f.
    - Form.  <f(b_i), f(b_j)> under g2 is g2's entry at (sigma(i), sigma(j)),
      so f^T g2 f = g1 when row i of g1, relabelled, is row sigma(i) of g2.
    - Halves.  f is injective, so the image of a half has its dimension and
      is spanned by its canonical rows relabelled.  When those rows, ordered
      by pivot, are the mate's canonical rows, they span the mate."""
    h1, h2 = t1.algebra, t2.algebra
    if h1.dim != h2.dim or len(h1.brackets) != len(h2.brackets):
        return False
    stored = h2.brackets
    for (i, j), coeffs in h1.brackets.items():
        a, b = sigma[i], sigma[j]
        if a < b:
            if stored.get((a, b)) != {sigma[k]: c for k, c in coeffs.items()}:
                return False
        elif stored.get((b, a)) != {sigma[k]: -c for k, c in coeffs.items()}:
            return False
    moved = lambda rows: [{sigma[k]: x for k, x in row.items()} for row in rows]
    if not (h1.untwisted and h2.untwisted):
        phi2 = h2.phi_columns
        if any(col != phi2[sigma[i]] for i, col in enumerate(moved(h1.phi_columns))):
            return False
    g2 = _form_rows(t2)
    if any(row != g2[sigma[i]] for i, row in enumerate(moved(_form_rows(t1)))):
        return False
    return all(
        sorted(moved(source.echelon), key=min) == list(target.echelon)
        for source, target in ((t1.part1, t2.part1), (t1.part2, t2.part2))
    )


def read_chain(power: ManinTriple, base: ManinTriple) -> Chain:
    """The `Chain` of a built power of base, read from its stored data: each
    slot's form sign (+1 or -1 when its form block is base's or its
    negation), and each half's canonical rows grouped by the slots they touch
    into pieces (lo, hi, k) in 1-based slots: an edge (lo, hi, 0) when the
    group is the d diagonal rows of two slots, a label (s, s, k) when it is
    base half k shifted into slot s.  Anything else raises ValueError."""
    d = base.dim
    g, slots = _form_rows(base), power.dim // d
    signs = []
    for s in range(slots):
        block = [{j - s * d: x for j, x in row.items()} for row in _form_rows(power)[s * d : (s + 1) * d]]
        if block == list(g):
            signs.append(1)
        elif block == [{j: -x for j, x in row.items()} for row in g]:
            signs.append(-1)
        else:
            raise ValueError(f"slot {s + 1}'s form block is not the base form or its negation")
    halves = []
    for part in (power.part1, power.part2):
        groups: dict[tuple[int, ...], list[dict]] = {}
        for row in part.echelon:
            touched = tuple(sorted({j // d for j in row}))
            groups.setdefault(touched, []).append(row)
        pieces = []
        for touched, rows in groups.items():
            lo = touched[0]
            local = [{j - lo * d: x for j, x in row.items()} for row in rows]
            if len(touched) == 2:
                hi = touched[1]
                if rows != [{lo * d + i: 1, hi * d + i: 1} for i in range(d)]:
                    raise ValueError(f"the rows joining slots {lo + 1} and {hi + 1} are not the diagonal")
                pieces.append((lo + 1, hi + 1, 0))
            elif len(touched) == 1 and local in (list(base.part1.echelon), list(base.part2.echelon)):
                pieces.append((lo + 1, lo + 1, 1 if local == list(base.part1.echelon) else 2))
            else:
                raise ValueError(f"rows {rows} are neither an edge nor a base half")
        halves.append(tuple(sorted(pieces)))
    return Chain(tuple(signs), tuple(halves))


# ---------------------------------------------------------------------------
# Dense references for the graded bracket, the coboundary cobracket, the
# invariance of a symmetric tensor, the cross brackets of a bialgebra double
# and the n-fold power: the implementations that went through dense basis
# vectors, dense twist products, whole-tensor additions or a loop over every
# basis index, kept as oracles for the sparse accumulating paths.  Input
# validation is left to the code under test.


def dense_dyad(x: Vector, y: Vector) -> SparseTensor:
    dim = len(x)
    out = SparseTensor.zero(2, dim)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj != 0:
                out.add_into((i, j), xi * yj)
    return out


def dense_wedge(x: Vector, y: Vector) -> SparseTensor:
    return dense_dyad(x, y) - dense_dyad(y, x)


def dense_wedge_t2_v1(t2: SparseTensor, v: Vector) -> SparseTensor:
    out = SparseTensor.zero(3, t2.dim)
    for (a, b), coeff in t2.entries.items():
        if a >= b:
            continue
        for c, vc in enumerate(v):
            if vc != 0:
                wedge3_basis(out, a, b, c, coeff * vc)
    return out


def _dense_as_vector(t: SparseTensor) -> Vector:
    v = [ZERO] * t.dim
    for (i,), x in t.entries.items():
        v[i] = x
    return tuple(v)


def _dense_phi(h: HomLieAlgebra, i: int) -> Vector:
    return mat_vec(h.phi, unit_vector(h.dim, i))


def _dense_schouten_1_2(h: HomLieAlgebra, x: Vector, b: SparseTensor) -> SparseTensor:
    out = SparseTensor.zero(2, h.dim)
    for (a, c), v in b.entries.items():
        if a >= c:
            continue
        ea, ec = unit_vector(h.dim, a), unit_vector(h.dim, c)
        out = out + dense_wedge(h.bracket(x, ea), _dense_phi(h, c)).scale(v)
        out = out + dense_wedge(_dense_phi(h, a), h.bracket(x, ec)).scale(v)
    return out


def _dense_schouten_2_2(h: HomLieAlgebra, a: SparseTensor, b: SparseTensor) -> SparseTensor:
    out = SparseTensor.zero(3, h.dim)
    for (p, q), v in b.entries.items():
        if p >= q:
            continue
        bracket_p = _dense_schouten_1_2(h, unit_vector(h.dim, p), a).scale(Fraction(-1))
        bracket_q = _dense_schouten_1_2(h, unit_vector(h.dim, q), a).scale(Fraction(-1))
        out = out + dense_wedge_t2_v1(bracket_p, _dense_phi(h, q)).scale(v)
        out = out - dense_wedge_t2_v1(bracket_q, _dense_phi(h, p)).scale(v)
    return out


def _dense_schouten_1_3(h: HomLieAlgebra, x: Vector, b: SparseTensor) -> SparseTensor:
    out = SparseTensor.zero(3, h.dim)
    for (a, b2, c), v in b.entries.items():
        if not (a < b2 < c):
            continue
        pair = SparseTensor.from_entries(2, h.dim, {(a, b2): 1, (b2, a): -1})
        inner = _dense_schouten_1_2(h, x, pair)
        out = out + dense_wedge_t2_v1(inner, _dense_phi(h, c)).scale(v)
        phi2 = dense_wedge(_dense_phi(h, a), _dense_phi(h, b2))
        out = out + dense_wedge_t2_v1(phi2, h.bracket(x, unit_vector(h.dim, c))).scale(v)
    return out


def dense_hom_schouten(h: HomLieAlgebra, a: SparseTensor, b: SparseTensor) -> SparseTensor:
    pair = (a.degree, b.degree)
    if pair == (1, 1):
        v = h.bracket(_dense_as_vector(a), _dense_as_vector(b))
        return SparseTensor(1, len(v), {(i,): x for i, x in enumerate(v) if x != 0})
    if pair == (1, 2):
        return _dense_schouten_1_2(h, _dense_as_vector(a), b)
    if pair == (2, 1):
        return _dense_schouten_1_2(h, _dense_as_vector(b), a).scale(Fraction(-1))
    if pair == (2, 2):
        return _dense_schouten_2_2(h, a, b)
    if pair == (1, 3):
        return _dense_schouten_1_3(h, _dense_as_vector(a), b)
    if pair == (3, 1):
        return _dense_schouten_1_3(h, _dense_as_vector(b), a).scale(Fraction(-1))
    raise ValueError(f"degree pair {pair} is not supported")


def dense_coboundary_cobracket(g: HomLieAlgebra, lam: SparseTensor) -> dict:
    table: dict = {}
    for k in range(g.dim):
        delta = SparseTensor.zero(2, g.dim)
        ek = unit_vector(g.dim, k)
        for (a, b), v in lam.entries.items():
            if a >= b:
                continue
            ea, eb = unit_vector(g.dim, a), unit_vector(g.dim, b)
            delta = delta + dense_wedge(g.bracket(ek, ea), eb).scale(v)
            delta = delta + dense_wedge(ea, g.bracket(ek, eb)).scale(v)
        for (a, b), v in delta.entries.items():
            if a < b:
                entry = table.setdefault((a, b), {})
                total = entry.get(k, ZERO) + v
                if total == 0:
                    entry.pop(k, None)
                else:
                    entry[k] = total
    return {key: coeffs for key, coeffs in table.items() if coeffs}


def dense_check_hom_ad_invariant(h: HomLieAlgebra, s: SparseTensor) -> CheckReport:
    """ad_{e_k} s for every basis index k, two basis brackets per entry of s."""
    phi_cols = sparse_columns(h.phi)
    failures = []
    for k in range(h.dim):
        residual = SparseTensor.zero(2, h.dim)
        for (a, b), v in s.entries.items():
            for k1, c1 in h.bracket_basis(k, a).items():
                for k2, c2 in phi_cols[b].items():
                    residual.add_into((k1, k2), v * c1 * c2)
            for k2, c2 in h.bracket_basis(k, b).items():
                for k1, c1 in phi_cols[a].items():
                    residual.add_into((k1, k2), v * c1 * c2)
        if not residual.is_zero:
            failures.append(failure("hom_ad_invariant", (k,), residual))
    return CheckReport("hom_ad_invariant", failures)


def dense_double_cross_brackets(g: HomLieAlgebra, dual: dict) -> dict:
    """The brackets [b_i, f_j] of the double of g with the dual table, over all
    d^2 pairs (i, j), each coadjoint term looked up one index at a time."""
    d = g.dim

    def dual_coeff(a: int, b: int, k: int) -> Fraction:
        if a == b:
            return ZERO
        if a < b:
            return dual.get((a, b), {}).get(k, ZERO)
        return -dual.get((b, a), {}).get(k, ZERO)

    brackets = {}
    for i in range(d):
        for j in range(d):
            entry: dict[int, Fraction] = {}
            for k in range(d):
                c = g.bracket_basis(k, i).get(j, ZERO)
                if c != 0:
                    entry[d + k] = entry.get(d + k, ZERO) + c
            for l in range(d):
                c = dual_coeff(l, j, i)
                if c != 0:
                    entry[l] = entry.get(l, ZERO) - c
            entry = {k: v for k, v in entry.items() if v != 0}
            if entry:
                brackets[(i, d + j)] = entry
    return brackets


def _dense_edge_rows(n: int, d: int, s: int) -> list[Vector]:
    lo = (s - 1) * d
    rows = []
    for i in range(d):
        v = [ZERO] * (n * d)
        v[lo + i] = v[lo + d + i] = ONE
        rows.append(tuple(v))
    return rows


def _dense_embed_rows(n: int, d: int, s: int, rows) -> list[Vector]:
    offset = (s - 1) * d
    out = []
    for row in rows:
        v = [ZERO] * (n * d)
        for i, x in enumerate(row):
            v[offset + i] = x
        out.append(tuple(v))
    return out


def dense_nuble(t: ManinTriple, n: int) -> ManinTriple:
    h = t.algebra
    d = h.dim
    big = n * d
    brackets: dict = {}
    for copy in range(n):
        off = copy * d
        for (i, j), coeffs in h.brackets.items():
            brackets[(off + i, off + j)] = {off + k: v for k, v in coeffs.items()}
    phi = tuple(
        tuple(h.phi[r % d][c - (r // d) * d] if (c // d) == (r // d) else ZERO for c in range(big))
        for r in range(big)
    )
    form = tuple(
        tuple(
            (h.form[r % d][c - (r // d) * d] if (r // d) % 2 == 0 else -h.form[r % d][c - (r // d) * d])
            if (c // d) == (r // d)
            else ZERO
            for c in range(big)
        )
        for r in range(big)
    )
    ambient = HomLieAlgebra.unchecked(big, brackets, phi, form)
    part1_rows: list[Vector] = []
    part2_rows: list[Vector] = []
    if n % 2 == 1:
        for s in range(1, n - 1, 2):
            part1_rows += _dense_edge_rows(n, d, s)
        part1_rows += _dense_embed_rows(n, d, n, t.part1.rows)
        part2_rows += _dense_embed_rows(n, d, 1, t.part2.rows)
        for s in range(2, n, 2):
            part2_rows += _dense_edge_rows(n, d, s)
    else:
        for s in range(1, n, 2):
            part1_rows += _dense_edge_rows(n, d, s)
        part2_rows += _dense_embed_rows(n, d, 1, t.part2.rows)
        for s in range(2, n - 1, 2):
            part2_rows += _dense_edge_rows(n, d, s)
        part2_rows += _dense_embed_rows(n, d, n, t.part1.rows)
    base = t.name or "triple"
    return ManinTriple(
        ambient,
        Subspace.span(big, part1_rows),
        Subspace.span(big, part2_rows),
        name=f"{base}^{n}",
    )


# ---------------------------------------------------------------------------
# Dense references for the certifier's scanning parts: the loops over every
# basis triple (Jacobi, invariance), every basis pair (twist morphism) and
# every pair of dense rows (isotropy, closure, twist stability, and the
# bracket conditions of the stabilizer checks), kept as oracles for the
# sparsity-driven checkers.  Membership goes through `dense_contains` and the
# twist through `dense_mat_vec`, so neither rests on the code under test.


def dense_check_hom_jacobi(h: HomLieAlgebra) -> CheckReport:
    failures = []
    phi_cols = sparse_columns(h.phi)
    for i in range(h.dim):
        for j in range(h.dim):
            for k in range(h.dim):
                inner_jk = h.bracket_basis(j, k)
                inner_ki = h.bracket_basis(k, i)
                inner_ij = h.bracket_basis(i, j)
                if not (inner_jk or inner_ki or inner_ij):
                    continue
                total: dict[int, Fraction] = {}
                for outer, inner in ((phi_cols[i], inner_jk), (phi_cols[j], inner_ki), (phi_cols[k], inner_ij)):
                    if not inner:
                        continue
                    for a, v in _sparse(h.bracket(_dense(h, outer), _dense(h, inner))).items():
                        s = total.get(a, ZERO) + v
                        if s == 0:
                            total.pop(a, None)
                        else:
                            total[a] = s
                if total:
                    failures.append(failure("hom_jacobi", (i, j, k), _dense(h, total)))
    return CheckReport("hom_jacobi", failures)


def dense_check_twist_morphism(h: HomLieAlgebra) -> CheckReport:
    failures = []
    phi_cols = sparse_columns(h.phi)
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            lhs = fraction_apply_columns(phi_cols, h.bracket_basis(i, j))
            rhs = _sparse(h.bracket(_dense(h, phi_cols[i]), _dense(h, phi_cols[j])))
            if lhs != rhs:
                failures.append(failure("twist_morphism", (i, j), _residual(h, lhs, rhs)))
    return CheckReport("twist_morphism", failures)


def dense_check_quadratic(h: HomLieAlgebra) -> CheckReport:
    failures = []
    g = h.form
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            if g[i][j] != g[j][i]:
                failures.append(failure("symmetric", (i, j), g[i][j] - g[j][i]))
    kernel = nullspace(g)
    for v in kernel:
        failures.append(failure("nondegenerate", None, v))
    lhs_twist = mat_mul(transpose(h.phi), g)
    rhs_twist = mat_mul(g, h.phi)
    for i in range(h.dim):
        for j in range(h.dim):
            if lhs_twist[i][j] != rhs_twist[i][j]:
                failures.append(failure("twist_self_adjoint", (i, j), lhs_twist[i][j] - rhs_twist[i][j]))
    for i in range(h.dim):
        for j in range(h.dim):
            c_ij = h.bracket_basis(i, j)
            for k in range(h.dim):
                c_jk = h.bracket_basis(j, k)
                if not (c_ij or c_jk):
                    continue
                lhs = sum((v * g[a][k] for a, v in c_ij.items()), ZERO)
                rhs = sum((g[i][a] * v for a, v in c_jk.items()), ZERO)
                if lhs != rhs:
                    failures.append(failure("invariant", (i, j, k), lhs - rhs))
    return CheckReport("quadratic", failures)


def dense_part_report(t: ManinTriple, part: Subspace, label: str) -> CheckReport:
    failures = []
    h = t.algebra
    rows = part.rows
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            value = dense_pair(h.form, rows[a], rows[b])
            if value != 0:
                failures.append(failure("isotropic", (a, b), value))
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            w = h.bracket(rows[a], rows[b])
            if not dense_contains(part, w):
                failures.append(failure("subalgebra", (a, b), w))
    for a, row in enumerate(rows):
        image = dense_mat_vec(h.phi, row)
        if not dense_contains(part, image):
            failures.append(failure("twist_stable", (a,), image))
    return CheckReport(label, failures)


def dense_splitting_report(t: ManinTriple) -> CheckReport:
    """Even dimension, halves of half the dimension, and a direct sum read
    off the rank of the two halves' dense rows."""
    failures = []
    d = t.dim
    if d % 2:
        failures.append(failure("even_dimension", (d,)))
    for label, part in (("part1_dim", t.part1), ("part2_dim", t.part2)):
        if len(part.rows) != d // 2:
            failures.append(failure(label, (len(part.rows),)))
    if len(dense_rref(t.part1.rows + t.part2.rows)[1]) != d:
        failures.append(failure("direct_sum"))
    return CheckReport("splitting", failures)


def dense_certificate(t: ManinTriple) -> CheckReport:
    """The six checks of a triple, each by its dense reference, combined as
    `check_manin_triple` combines them."""
    h = t.algebra
    return combine(
        "manin_triple",
        [
            dense_check_hom_jacobi(h),
            dense_check_twist_morphism(h),
            dense_check_quadratic(h),
            dense_part_report(t, t.part1, "part1"),
            dense_part_report(t, t.part2, "part2"),
            dense_splitting_report(t),
        ],
    )


def dense_brackets_in(h: HomLieAlgebra, rows, q: Subspace) -> bool:
    """Every bracket of two of the dense rows lies in q, one pair at a time."""
    return all(
        dense_contains(q, h.bracket(rows[a], rows[b]))
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    )


# ---------------------------------------------------------------------------
# Dense references for the sharp maps, the pairing identity of the residual and
# the dual bases of a splitting: the implementations that built dense matrices
# and paired dense vectors, kept as oracles for the sparse column paths.


def dense_null_rows(rows, n: int) -> list[Vector]:
    """`dense_nullspace` of the dense rows with n columns, no rows included."""
    return dense_nullspace(rows) if rows else list(identity_matrix(n))


def dense_stabilizer_tests(h: HomLieAlgebra, s: SparseTensor | None, q: Subspace, form_rows=None) -> dict:
    """{check: iterator of (index, vector)}: every vector that a stabilizer
    condition requires to lie in q, by the index `stabilizer_report` names it
    with, in increasing order of index, all dense and each computed when it
    is reached: phi(row_a) over q's canonical rows; [c_a, c_b] over the
    pairing-complement rows c, the null rows of the covectors row^T G;
    S#xi_a and [S#xi_a, S#xi_b] over the annihilator rows xi, the null rows
    of q's canonical rows."""
    n = h.dim
    pairs = lambda vs: (((a, b), h.bracket(vs[a], vs[b])) for a in range(len(vs)) for b in range(a + 1, len(vs)))
    tests = {"twist_stable": (((a,), dense_mat_vec(h.phi, row)) for a, row in enumerate(q.rows))}
    if form_rows is not None:
        gram = dense_of_columns(form_rows, n)
        tests["coisotropic"] = pairs(dense_null_rows([dense_mat_vec(gram, row) for row in q.rows], n))
    if s is not None:
        images = [dense_mat_vec(dense_sharp_matrix(h, s), xi) for xi in dense_null_rows(q.rows, n)]
        tests["s_sharp_image"] = (((a,), w) for a, w in enumerate(images))
        tests["sharp_brackets"] = pairs(images)
    return tests


def dense_stabilizer_report(h: HomLieAlgebra, s: SparseTensor | None, q: Subspace, form_rows=None) -> CheckReport:
    """`stabilizer_report` from `dense_stabilizer_tests`, each vector tested
    by `dense_contains` in turn: a condition fails at the first one outside q."""
    failures = []
    for check, tested in dense_stabilizer_tests(h, s, q, form_rows).items():
        first = next(((index, w) for index, w in tested if not dense_contains(q, w)), None)
        if first is not None:
            failures.append(failure(check, *first))
    return CheckReport("stabilizer_conditions", failures)


def assert_stabilizer_witnesses(report: CheckReport, h: HomLieAlgebra, s, q: Subspace, form_rows=None) -> None:
    """Each failure of a `stabilizer_report` names a vector of
    `dense_stabilizer_tests` that lies outside q by `dense_contains`, and
    carries it as its residual; every vector of a lower index lies in q."""
    tests = dense_stabilizer_tests(h, s, q, form_rows)
    for f in report.failures:
        for index, w in tests[f.check]:
            if index == f.index:
                assert not dense_contains(q, w) and f.residual == render_vector(w), f
                break
            assert dense_contains(q, w), (f, index)
        else:
            raise AssertionError(f"{f} names no tested vector")


def dense_sharp_matrix(h: HomLieAlgebra, t: SparseTensor) -> Matrix:
    """Matrix of xi -> sum_ab t_ab <phi* xi, e_a> e_b, i.e. (transpose t)(transpose phi)."""
    rows = [[ZERO] * h.dim for _ in range(h.dim)]
    for (a, b), v in t.entries.items():
        for c in range(h.dim):
            p = h.phi[c][a]
            if p != 0:
                rows[b][c] += v * p
    return tuple(tuple(row) for row in rows)


def dense_hcyb_pairing_check(h: HomLieAlgebra, residual: SparseTensor, r: SparseTensor):
    """The pairing identity of `hcyb_pairing_check` with dense r+ and r-, given
    the residual of r (`dense_hcyb` is the residual's own oracle), on every
    basis triple of covectors."""
    if not check_involutive(h):
        return CheckReport("hcyb_pairing", applicable=False, reason="twist is not involutive")
    if r.apply_per_slot((h.phi, h.phi)) != r:
        return CheckReport("hcyb_pairing", applicable=False, reason="r is not fixed by the twist")
    phi_t = transpose(h.phi)
    r_mat = tuple(tuple(r.get((i, j)) for j in range(h.dim)) for i in range(h.dim))
    # r+ = (transpose r)(transpose phi); r- = -(r)(transpose phi)
    r_plus = mat_mul(transpose(r_mat), phi_t)
    r_minus = tuple(tuple(-v for v in row) for row in mat_mul(r_mat, phi_t))
    basis = [unit_vector(h.dim, i) for i in range(h.dim)]
    failures = []
    for a, xi in enumerate(basis):
        for b, eta in enumerate(basis):
            for c, zeta in enumerate(basis):
                lhs = residual.get((a, b, c))
                rhs = (
                    dense_vec_dot(xi, h.bracket(dense_mat_vec(r_minus, eta), dense_mat_vec(r_minus, zeta)))
                    + dense_vec_dot(eta, h.bracket(dense_mat_vec(r_minus, zeta), dense_mat_vec(r_plus, xi)))
                    + dense_vec_dot(zeta, h.bracket(dense_mat_vec(r_plus, xi), dense_mat_vec(r_plus, eta)))
                )
                if lhs != rhs:
                    failures.append(failure("pairing", (a, b, c), lhs - rhs))
    return CheckReport("hcyb_pairing", failures)


def dense_dual_basis(t: ManinTriple) -> DualBasisPair:
    """Dual bases of the two halves, every pairing a dense double loop."""
    xi_rows, x_candidates = t.part2.rows, t.part1.rows
    m = len(xi_rows)
    pairing = tuple(tuple(dense_pair(t.form, xi_rows[a], x_candidates[b]) for b in range(m)) for a in range(m))
    coeffs = inverse(pairing)
    x_basis = [
        tuple(sum((coeffs[b][j] * x_candidates[b][i] for b in range(m)), ZERO) for i in range(t.dim))
        for j in range(m)
    ]
    gram = tuple(tuple(dense_pair(t.form, xi_rows[a], x_basis[b]) for b in range(m)) for a in range(m))
    return DualBasisPair(tuple(x_basis), tuple(xi_rows), gram)


def dense_r_from_splitting(t: ManinTriple) -> SparseTensor:
    """sum_i xi_i (x) x_i over the dense dual bases."""
    pair = dense_dual_basis(t)
    out = SparseTensor.zero(2, t.dim)
    for xi, x in zip(pair.xi_basis, pair.x_basis):
        for a in range(t.dim):
            for b in range(t.dim):
                out.add_into((a, b), xi[a] * x[b])
    return out


def dense_special_linear_data(k: int) -> RootData:
    """Frozen reference for `special_linear_data`: each commutator of basis
    matrices solved for its coordinates by a dense row reduction.

    Trace-form data of the rank k-1 special linear algebra, for an int k >= 2.

    Basis order: Cartan elements H_i = E_ii - E_(i+1)(i+1), then negative root
    vectors -E_ji, then positive root vectors E_ij (positive roots i < j in
    lexicographic order), so each matched pair satisfies [E_-a, E_a] = H_a.
    """
    if type(k) is not int or k < 2:
        raise ValueError(f"k must be an int of at least 2, got {k!r}")
    roots = [(i, j) for i in range(k) for j in range(i + 1, k)]
    basis_mats: list[list[list[Fraction]]] = []
    for i in range(k - 1):
        m = [[ZERO] * k for _ in range(k)]
        m[i][i] = ONE
        m[i + 1][i + 1] = -ONE
        basis_mats.append(m)
    for (i, j) in roots:
        m = [[ZERO] * k for _ in range(k)]
        m[j][i] = -ONE
        basis_mats.append(m)
    for (i, j) in roots:
        m = [[ZERO] * k for _ in range(k)]
        m[i][j] = ONE
        basis_mats.append(m)
    dim = len(basis_mats)
    flat = matrix([[m[r][c] for m in basis_mats] for r in range(k) for c in range(k)])
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            forward = mat_mul(basis_mats[a], basis_mats[b])
            backward = mat_mul(basis_mats[b], basis_mats[a])
            target = tuple(forward[r][c] - backward[r][c] for r in range(k) for c in range(k))
            augmented = tuple(row + (t,) for row, t in zip(flat, target))
            reduced, pivots = rref(augmented)
            coords = [ZERO] * dim
            for row, piv in zip(reduced, pivots):
                if piv == dim:
                    raise AssertionError("commutator escaped the span")
                coords[piv] = row[dim]
            entry = {c: v for c, v in enumerate(coords) if v != 0}
            if entry:
                brackets[(a, b)] = entry
    trace_form = tuple(
        tuple(
            sum((basis_mats[a][r][c] * basis_mats[b][c][r] for r in range(k) for c in range(k)), ZERO)
            for b in range(dim)
        )
        for a in range(dim)
    )
    algebra = HomLieAlgebra.create(dim, brackets, form=trace_form, name=f"sl{k}")
    n_roots = len(roots)
    return RootData(
        rank=k,
        algebra=algebra,
        cartan=tuple(range(k - 1)),
        negatives=tuple(range(k - 1, k - 1 + n_roots)),
        positives=tuple(range(k - 1 + n_roots, dim)),
    )


# ---------------------------------------------------------------------------
# Dense views of sparse columns


def dense_of_columns(cols, n: int) -> Matrix:
    """The dense matrix with n rows whose sparse columns are cols."""
    return tuple(tuple(col.get(r, ZERO) for col in cols) for r in range(n))


# ---------------------------------------------------------------------------
# The half-space tests and the text writer as they were before the closure and
# image tests summed in integer numerators and the writer read the sparse
# rows: `homlie._brackets_outside` (with the summing path of
# `homlie._pair_brackets`), `core._images_outside` (with
# `core._apply_columns`), `Subspace.contains_sparse` on Fraction values, the
# reports built on them, and the writer of dense rows, one rendered value per
# entry, frozen so the new paths can be compared with them report for report
# and byte for byte.


def frozen_contains_sparse(space: Subspace, xs) -> bool:
    den, rows = _numerators(space.echelon)
    rows = {next(iter(row)): tuple(row.items()) for row in rows}
    nums = _integer_row(xs)
    residual = {c: x * den for c, x in nums.items()}
    for p, x in nums.items():
        for c, y in rows.get(p, ()):
            residual[c] = residual.get(c, 0) - x * y
    return not any(residual.values())


def frozen_apply_columns(cols, xs) -> dict[int, Fraction]:
    moved: dict[int, Fraction] = {}
    for i, x in xs.items():
        col = cols[i]
        if type(x) is not Fraction or not x or len(col) != 1:
            break
        ((a, y),) = col.items()
        if y != 1 or a in moved:
            break
        moved[a] = x
    else:
        return moved
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
    den = den_x * den_c
    return {a: Fraction(n, den) for a, n in out.items()}


def frozen_pair_brackets(h: HomLieAlgebra, vectors) -> dict[tuple[int, int], dict]:
    den_v, holders = _holders(vectors)
    den_c, table = h._bracket_numerators
    out: dict[tuple[int, int], dict[int, int]] = {}
    for i, j in h.brackets:
        cs = table[i, j]
        for a, x in holders.get(i, ()):
            for b, y in holders.get(j, ()):
                if a != b:
                    index, scale = ((a, b), x * y) if a < b else ((b, a), -x * y)
                    w = out.setdefault(index, {})
                    for k, c in cs:
                        _accumulate(w, k, scale * c)
    den = den_v * den_v * den_c
    return {index: {k: Fraction(n, den) for k, n in w.items()} for index, w in out.items() if w}


def frozen_brackets_outside(h: HomLieAlgebra, rows, q: Subspace) -> list[tuple[tuple[int, int], dict]]:
    return [(index, w) for index, w in frozen_pair_brackets(h, rows).items() if not frozen_contains_sparse(q, w)]


def frozen_images_outside(cols, space: Subspace, target: Subspace) -> list[tuple[int, dict]]:
    images = ((a, frozen_apply_columns(cols, row)) for a, row in enumerate(space.echelon))
    return [(a, image) for a, image in images if not frozen_contains_sparse(target, image)]


def frozen_part_report(t: ManinTriple, part: Subspace, label: str) -> CheckReport:
    failures = []
    h = t.algebra
    for (a, b), value in _pairings(t.algebra.form_rows, part.echelon).items():
        if a <= b:
            failures.append(failure("isotropic", (a, b), value))
    for index, w in frozen_brackets_outside(h, part.echelon, part):
        failures.append(failure("subalgebra", index, _dense(h, w)))
    for a, image in [] if h.untwisted else frozen_images_outside(h.phi_columns, part, part):
        failures.append(failure("twist_stable", (a,), _dense(h, image)))
    return CheckReport(label, failures)


def _frozen_row_text(row: Vector) -> str:
    return " ".join(str(x) for x in row)


def _frozen_algebra_lines(h: HomLieAlgebra) -> list[str]:
    header = f"algebra dim={h.dim}"
    if h.name:
        header += f" name={h.name}"
    lines = [header]
    for i, j in sorted(h.brackets):
        terms = " ".join(f"{k}:{v}" for k, v in sorted(h.brackets[i, j].items()))
        lines.append(f"bracket {i} {j} : {terms}")
    lines += (f"phi {_frozen_row_text(row)}" for row in h.phi)
    if h.form is not None:
        lines += (f"form {_frozen_row_text(row)}" for row in h.form)
    return lines


def frozen_format_algebra(h: HomLieAlgebra) -> str:
    return "\n".join(_frozen_algebra_lines(h)) + "\n"


def frozen_format_triple(t: ManinTriple) -> str:
    lines = _frozen_algebra_lines(t.algebra)
    lines += (f"part1 {_frozen_row_text(row)}" for row in t.part1.rows)
    lines += (f"part2 {_frozen_row_text(row)}" for row in t.part2.rows)
    return "\n".join(lines) + "\n"


def frozen_format_subspace(s: Subspace) -> str:
    return "\n".join([f"subspace dim={s.ambient_dim}", *map(_frozen_row_text, s.rows)]) + "\n"


# ---------------------------------------------------------------------------
# The canonical element as it was built before it was summed in integer
# numerators: one Fraction product and one `SparseTensor.add_into` per term,
# frozen so that the integer form can be compared with it in entry order.


def frozen_r_from_splitting(t: ManinTriple) -> SparseTensor:
    out = SparseTensor.zero(2, t.dim)
    for xi, x in zip(*_dual_rows(t)):
        for a, xa in xi.items():
            for b, xb in sorted(x.items()):
                out.add_into((a, b), xa * xb)
    return out
