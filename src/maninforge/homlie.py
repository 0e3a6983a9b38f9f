"""Twisted (hom-)Lie algebras over exact rationals: the algebra type, its axioms
and homomorphisms as structured checkers, and direct sums."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Container, Mapping, Sequence

from .core import (
    Matrix,
    ONE,
    SparseTensor,
    Subspace,
    Vector,
    ZERO,
    _apply_columns,
    _columns_shape_error,
    _common_denominator,
    _dense_vector,
    _dimension,
    _gauss_jordan,
    _images_outside,
    _in_span,
    _l1_bounds,
    _null_rows,
    _numerators,
    _pack,
    _rank,
    _signed_fields,
    _sparse,
    _square,
    _square_columns,
    _transpose_sparse,
    _unit_columns,
    mat_vec,
    matrix,
    rational,
    sparse_columns,
    transpose,
)
from .reporting import CheckReport, Failure, _render_fields, failure

BracketTable = dict[tuple[int, int], dict[int, Fraction]]


def _check_bracket_table(dim: int, brackets: Mapping[tuple[int, int], Mapping[int, Fraction]]) -> None:
    """Raise unless every key is (i, j) with ints 0 <= i < j < dim, every
    coefficient map nonempty, every value index an int in range(dim), and every
    value a nonzero int or Fraction."""
    for key, coeffs in brackets.items():
        i, j = key
        if not (type(i) is int and type(j) is int and all(type(k) is int for k in coeffs)):
            raise ValueError(f"bracket key {key!r}: key and value indices {list(coeffs)!r} must be ints")
        if not 0 <= i < j < dim:
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        if not coeffs:
            raise ValueError(f"bracket key {key}: the coefficient map is empty; a zero bracket has no key")
        for k, v in coeffs.items():
            if not 0 <= k < dim:
                raise ValueError(f"bracket value index {k} out of range")
            if type(v) is not Fraction and type(v) is not int:
                raise ValueError(f"bracket key {key}: value {v!r} at index {k} is not an int or a Fraction")
            if not v:
                raise ValueError(f"bracket key {key}: value at index {k} is zero; only nonzero values are stored")


def _normalize_brackets(
    dim: int, brackets: Mapping[tuple[int, int], Mapping[int, int | str | Fraction]]
) -> BracketTable:
    """The table with values made Fractions and zero values dropped; the
    constructor checks keys and indices."""
    table: BracketTable = {}
    for key, coeffs in brackets.items():
        cleaned = {k: rational(v) for k, v in coeffs.items() if rational(v) != 0}
        if cleaned:
            table[key] = cleaned
    return table


@dataclass
class HomLieAlgebra:
    """A dim-dimensional algebra with antisymmetric bracket and a twist map phi.

    Structure constants are stored sparsely for i < j only; [b_j, b_i] is derived
    by antisymmetry and [b_i, b_i] = 0. An optional symmetric bilinear form (Gram
    matrix) makes the algebra a candidate quadratic algebra.

    The twist and the form are stored once, sparse: phi_columns[i] is phi(b_i)
    as {row: entry} and form_rows[i] is {j: <b_i, b_j>} (None without a form),
    nonzero entries only, indices increasing.  `create` and `unchecked` take
    dense matrices; `phi` and `form` are dense views, built on first use, and
    so are `_bracket_numerators`, the integer view of the bracket table, and
    `_bracket_bounds`, its top key mass and entry.
    Callers must not mutate the stored dicts, as for `Subspace`: the cached
    views would go stale, `direct_sum` and `negate_form` rely on their
    arguments having passed the constructor's check, and `negate_form` shares
    the algebra's own dicts.

    >>> h = HomLieAlgebra.unchecked(2, {}, phi=[[1, 0], [0, -1]], form=[[0, 2], [2, 0]])
    >>> h.phi_columns
    ({0: Fraction(1, 1)}, {1: Fraction(-1, 1)})
    >>> h.form_rows
    ({1: Fraction(2, 1)}, {0: Fraction(2, 1)})
    >>> h.untwisted, HomLieAlgebra.unchecked(2, {}).untwisted
    (False, True)
    >>> h.phi
    ((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(-1, 1)))
    """

    dim: int
    brackets: BracketTable
    phi_columns: tuple[dict[int, Fraction], ...]
    form_rows: tuple[dict[int, Fraction], ...] | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        _dimension(self.dim, "dim")
        _check_bracket_table(self.dim, self.brackets)
        self.phi_columns = tuple(self.phi_columns)
        self.form_rows = None if self.form_rows is None else tuple(self.form_rows)
        for what, vectors in (("phi", self.phi_columns), ("form", self.form_rows)):
            if vectors is not None:
                _square_columns(vectors, self.dim, what)
        for vector, position, vectors in (
            ("phi column", "row", self.phi_columns),
            ("form row", "column", self.form_rows or ()),
        ):
            for a, v in enumerate(vectors):
                if not all(v.values()):
                    zero = next(b for b, x in v.items() if not x)
                    raise ValueError(f"{vector} {a} has a zero entry at {position} {zero}; store nonzero entries only")

    @classmethod
    def _of_checked(
        cls,
        dim: int,
        brackets: BracketTable,
        phi_columns: Sequence[dict[int, Fraction]],
        form_rows: Sequence[dict[int, Fraction]] | None,
        untwisted: bool | None,
        name: str | None = None,
    ) -> HomLieAlgebra:
        """Set the fields without `__post_init__`, for data that keeps every
        property it checks (see `direct_sum`, `fileio._parse_algebra_body` and
        `manin._power_base`), with `untwisted` already known, or None to read
        it from the columns on first use."""
        h = cls.__new__(cls)
        h.dim, h.brackets, h.name = dim, brackets, name
        h.phi_columns = tuple(phi_columns)
        h.form_rows = None if form_rows is None else tuple(form_rows)
        if untwisted is not None:
            h.untwisted = untwisted
        return h

    @cached_property
    def untwisted(self) -> bool:
        """True when the twist is the identity, read from its columns in O(dim)."""
        return all(len(col) == 1 and col.get(i) == 1 for i, col in enumerate(self.phi_columns))

    @cached_property
    def _bracket_numerators(self) -> tuple[int, dict[tuple[int, int], tuple[tuple[int, int], ...]]]:
        """The bracket table over one common denominator, the one integer view
        that the integer kernels read: (den, table), table[i, j] = ((k, c), ...)
        meaning [b_i, b_j] = sum c/den b_k, for each key (i, j) in both orders,
        (i, j) before (j, i) and the keys in the order of `brackets`."""
        den, numerators = _numerators(list(self.brackets.values()))
        table = {}
        for (i, j), cs in zip(self.brackets, numerators):
            table[i, j] = tuple(cs.items())
            table[j, i] = tuple((k, -c) for k, c in cs.items())
        return den, table

    @cached_property
    def _bracket_bounds(self) -> tuple[int, int]:
        """(top l1 mass of a key, top entry) of `_bracket_numerators`, from one
        walk of each key i < j: the bracket's part of the packed-row bounds of
        `check_hom_jacobi` and `check_quadratic`."""
        return _l1_bounds(map(self._bracket_numerators[1].__getitem__, self.brackets))

    @cached_property
    def phi(self) -> Matrix:
        """Dense view of the twist, for I/O and for callers that want a matrix."""
        return transpose(tuple(_dense(self, col) for col in self.phi_columns))

    @cached_property
    def form(self) -> Matrix | None:
        """Dense view of the form (None without one), likewise."""
        return None if self.form_rows is None else tuple(_dense(self, row) for row in self.form_rows)

    @classmethod
    def create(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, int | str | Fraction]],
        phi: Sequence[Sequence[int | str | Fraction]] | None = None,
        form: Sequence[Sequence[int | str | Fraction]] | None = None,
        name: str | None = None,
    ) -> HomLieAlgebra:
        """Build and validate: the twisted Jacobi identity is enforced at load time."""
        algebra = cls.unchecked(dim, brackets, phi, form, name)
        report = check_hom_jacobi(algebra)
        if not report.passed:
            first = report.failures[0]
            raise ValueError(
                f"twisted Jacobi identity fails at basis triple {first.index}: {first.residual}"
            )
        return algebra

    @classmethod
    def unchecked(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, int | str | Fraction]],
        phi: Sequence[Sequence[int | str | Fraction]] | None = None,
        form: Sequence[Sequence[int | str | Fraction]] | None = None,
        name: str | None = None,
    ) -> HomLieAlgebra:
        """Build without validity checks, for negative tests and for constructions
        whose validity a separate certifier re-establishes.  Shapes are still
        checked: dim a non-negative int, and phi and the form (when given) dim x dim."""
        _dimension(dim, "dim")
        phi_columns = _unit_columns(dim) if phi is None else sparse_columns(_square(matrix(phi), dim, "phi"))
        form_rows = None if form is None else tuple(map(_sparse, _square(matrix(form), dim, "form")))
        return cls(dim, _normalize_brackets(dim, brackets), phi_columns, form_rows, name)

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """Sparse coordinates of [b_i, b_j] for any index pair."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the bracket to coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(
                f"bracket takes two vectors of length dim={self.dim}, got lengths {len(x)} and {len(y)}"
            )
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    out[k] += xi * yj * c
        return tuple(out)


def _accumulate(out: dict, key, value: int | Fraction) -> None:
    """Add value at key, dropping the entry if it cancels to zero."""
    total = out.get(key, 0) + value
    if total == 0:
        out.pop(key, None)
    else:
        out[key] = total


def _holders(vectors: Sequence[Mapping[int, Fraction]]) -> tuple[int, dict[int, list[tuple[int, int]]]]:
    """(den, index -> [(position, numerator)]) over a family of sparse vectors,
    its entries over their one common denominator den."""
    den, numerators = _numerators(vectors)
    holders: dict[int, list[tuple[int, int]]] = {}
    for a, v in enumerate(numerators):
        for i, x in v.items():
            holders.setdefault(i, []).append((a, x))
    return den, holders


def _bracket_sums(
    h: HomLieAlgebra, vectors: Sequence[Mapping[int, Fraction]]
) -> tuple[int, dict[tuple[int, int], dict[int, int]]]:
    """(den, sums): [v_a, v_b] = {k: n / den} over sums[a, b].items() for
    a < b, in integer numerators, accumulated from the bracket keys through
    the vectors holding each index: two vectors that no key reaches cost
    nothing.  den = den_v^2 * den_c, the denominators of the family and of the
    bracket table.  A total that cancels is dropped as it goes; a pair that
    some key reaches but whose bracket cancels keeps an empty dict.  The
    summing stage of `_pair_brackets` and `_brackets_outside`."""
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
                        total = w.get(k, 0) + scale * c
                        if total:
                            w[k] = total
                        else:
                            w.pop(k, None)
    return den_v * den_v * den_c, out


def _pair_brackets(h: HomLieAlgebra, vectors: Sequence[Mapping[int, Fraction]]) -> dict[tuple[int, int], dict]:
    """{(a, b): [v_a, v_b]} for a < b over a family of sparse vectors, zero
    brackets absent, every value a nonzero Fraction: summed by
    `_bracket_sums`, each nonzero total divided once."""
    den, out = _bracket_sums(h, vectors)
    return {index: {k: Fraction(n, den) for k, n in w.items()} for index, w in out.items() if w}


def _brackets_outside(
    h: HomLieAlgebra, rows: Sequence[Mapping], target: tuple
) -> list[tuple[tuple[int, int], int, dict[int, int]]]:
    """((a, b), den, sums) for each bracket [row_a, row_b] of two of the
    sparse rows, a < b, that does not lie in the span with numerator rows
    target, (den_q, {pivot: ((column, numerator), ...)}) as
    `core._pivot_numerators` gives them: the one bracket-closure test, of a
    `Subspace` (its `_numerator_rows`) or of rows never divided (the kept
    rows of `rmatrix._lagrangian_legs`).  Each bracket is summed by
    `_bracket_sums` and tested in those integer numerators (`_in_span`, at any
    scale), and none is divided: a caller that reports a bracket divides it,
    `_quotients(den, sums)`, and gets the bracket `_pair_brackets` returns, in
    its order."""
    den, out = _bracket_sums(h, rows)
    return [(index, den, w) for index, w in out.items() if w and not _in_span(target, w)]


def _twist_outside(h: HomLieAlgebra, q: Subspace) -> list[tuple[int, int, dict[int, int]]]:
    """(a, den, sums) for each canonical row a of q that the twist moves out of
    q, phi(row_a) = `_quotients(den, sums)`, by `_images_outside`.  The
    identity twist keeps every subspace with nothing to compute: Id(w) = w."""
    return [] if h.untwisted else _images_outside(h.phi_columns, q.echelon, q._numerator_rows)


def _pairings(
    form_rows: Sequence[Mapping], left: Sequence[Mapping], right: Sequence[Mapping] | None = None
) -> dict:
    """The nonzero {(a, b): <left_a, right_b>} under the form with sparse rows
    form_rows, right defaulting to left, accumulated from the form's nonzero
    entries in the rows of the indices that left holds.  The sums are of
    integer numerators over den_g * den_l * den_r, the denominators of the form
    and of the two families; a total that cancels is dropped as it goes, and
    each nonzero one is divided once, so every value returned is a nonzero
    Fraction.  Every family, a relabelling included, is summed."""
    den_l, left_holders = _holders(left)
    den_r, right_holders = (den_l, left_holders) if right is None or right is left else _holders(right)
    den_g, g_rows = _numerators(form_rows)
    out: dict[tuple[int, int], int] = {}
    for i, xs in left_holders.items():
        for j, g in g_rows[i].items():
            if j in right_holders:
                for a, x in xs:
                    xg = x * g
                    for b, y in right_holders[j]:
                        _accumulate(out, (a, b), xg * y)
    den = den_g * den_l * den_r
    return {index: Fraction(n, den) for index, n in out.items()}


def _require_tensor(h: HomLieAlgebra, t: SparseTensor) -> None:
    """Raise unless t is a degree-2 tensor over the algebra."""
    if (t.degree, t.dim) != (2, h.dim):
        raise ValueError(
            f"expected a tensor of degree 2 and dimension {h.dim}, got degree {t.degree} and dimension {t.dim}"
        )


def _phi_fixed(h: HomLieAlgebra, t: SparseTensor) -> bool:
    """True when (phi (x) phi)t = t for a degree-2 t, in integer numerators:
    phi applied to the slot-0 index of `_by_slot`'s (Id (x) phi)t, over den,
    gives (phi (x) phi)t over den * den_phi, compared with t over that."""
    if h.untwisted:
        return True
    (left, _), den = _by_slot(h, t)
    den_p, phi = _numerators(h.phi_columns)
    twisted: dict[tuple[int, int], int] = {}
    for a, row in left.items():
        for e, p in phi[a].items():
            for c, v in row:
                _accumulate(twisted, (e, c), p * v)
    return twisted == {index: v.numerator * (den * den_p // v.denominator) for index, v in t.entries.items()}


def _by_slot(h: HomLieAlgebra, t: SparseTensor) -> tuple[tuple[dict, dict], int]:
    """Slot 0 of (Id (x) phi)t and slot 1 of (phi (x) Id)t, each as index there
    -> [(other index, numerator)], and the one denominator of both: the
    entries of a degree-2 t with phi applied to the slot that a bracket on the
    indexed slot leaves alone, over a common denominator.

    A twist that is not the identity is applied in integer numerators, t's
    over den_t and phi's columns over den_phi, so den = den_t * den_phi:
    (Id (x) phi)t at (a, c) is sum_b t_ab phi[b][c], summed under its slot-0
    index a, and (phi (x) Id)t at (c, b) is sum_a t_ab phi[a][c], summed
    under its slot-1 index b.  A total that cancels is dropped as it goes, so
    each list holds the nonzero entries in the order that a Fraction sum over
    the whole tensor keeps them.

    >>> h = HomLieAlgebra.unchecked(2, {}, phi=[[0, Fraction(1, 2)], [1, 0]])
    >>> _by_slot(h, SparseTensor(2, 2, {(0, 1): Fraction(1, 3), (1, 1): ONE}))
    (({0: [(0, 1)], 1: [(0, 3)]}, {1: [(1, 2), (0, 3)]}), 6)
    """
    den, numerators = _common_denominator(list(t.entries.values()))
    by_slot: tuple[dict, dict] = ({}, {})
    if h.untwisted:  # both slots read t itself
        for (a, b), v in zip(t.entries, numerators):
            by_slot[0].setdefault(a, []).append((b, v))
            by_slot[1].setdefault(b, []).append((a, v))
        return by_slot, den
    den_p, phi = _numerators(h.phi_columns)
    left: dict[int, dict[int, int]] = {}
    right: dict[int, dict[int, int]] = {}
    for (a, b), v in zip(t.entries, numerators):
        w = left.setdefault(a, {})
        for c, p in phi[b].items():
            _accumulate(w, c, v * p)
        w = right.setdefault(b, {})
        for c, p in phi[a].items():
            _accumulate(w, c, v * p)
    for slot, sums in zip(by_slot, (left, right)):
        slot.update((i, list(w.items())) for i, w in sums.items() if w)
    return by_slot, den * den_p


def _ad_sums(
    h: HomLieAlgebra, t: SparseTensor, ks: Container[int] | None = None
) -> tuple[int, dict[int, dict[tuple[int, int], int]]]:
    """(den, sums): ad_k t = {index: n / den} over sums[k].items(), the
    integer stage of `_ad_basis`.  A k that some key reaches but whose action
    cancels keeps an empty dict.

    >>> h = HomLieAlgebra.unchecked(3, {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: 1}})
    >>> _ad_sums(h, SparseTensor(2, 3, {(1, 2): Fraction(1, 2)}), {0, 1})
    (2, {0: {}, 1: {(1, 0): 1}})
    """
    (slot0, slot1), den_t = _by_slot(h, t)
    den_c, table = h._bracket_numerators
    sums: dict[int, dict[tuple[int, int], int]] = {}
    for (k, a), cs in table.items():
        if ks is None or k in ks:
            w = sums.setdefault(k, {})
            for c, x in cs:
                for m, v in slot0.get(a, ()):
                    _accumulate(w, (c, m), x * v)
                for m, v in slot1.get(a, ()):
                    _accumulate(w, (m, c), x * v)
    return den_t * den_c, sums


def _ad_basis(
    h: HomLieAlgebra, t: SparseTensor, ks: Container[int] | None = None
) -> dict[int, dict[tuple[int, int], Fraction]]:
    """{k: ad_k t} for the nonzero twisted adjoint actions of the basis vectors
    e_k (k in ks when given) on a degree-2 tensor,
    ad_x t = sum_ab t_ab ([x, e_a] (x) phi(e_b) + phi(e_a) (x) [x, e_b]).
    Accumulated by `_ad_sums` from the bracket keys (k, a), in both orders,
    through the entries of t indexed by slot: an index that no key reaches
    costs nothing.  The sums are of integer numerators over den_t * den_c,
    the denominators of `_by_slot` and of the bracket table; a total that
    cancels is dropped as it goes, and each nonzero one is divided once, so
    every value returned is a nonzero Fraction."""
    den, sums = _ad_sums(h, t, ks)
    return {k: {index: Fraction(n, den) for index, n in w.items()} for k, w in sums.items() if w}


def _dense(h: HomLieAlgebra, xs: Mapping[int, Fraction]) -> Vector:
    return _dense_vector(xs, h.dim)


def _difference(xs: Mapping, ys: Mapping) -> dict:
    """Sparse xs - ys, the entries that cancel dropped."""
    out = dict(xs)
    for k, v in ys.items():
        _accumulate(out, k, -v)
    return out


def _residual(h: HomLieAlgebra, lhs: dict[int, Fraction], rhs: dict[int, Fraction]) -> Vector:
    """Dense lhs - rhs, for the failure report of an identity that did not hold."""
    return _dense(h, _difference(lhs, rhs))


def check_hom_jacobi(h: HomLieAlgebra) -> CheckReport:
    """Twisted Jacobi on all basis triples:
    J(i, j, k) = [phi(b_i),[b_j,b_k]] + [phi(b_j),[b_k,b_i]] + [phi(b_k),[b_i,b_j]] = 0.

    J is alternating: it is cyclic, and swapping two indices negates it exactly
    (the bracket is antisymmetric), so it vanishes on a repeated index and is
    computed once per triple i < j < k, each of the six orderings of a failing
    triple reported with its signed residual.

    Lemma.  With N(x; y, z) = [phi(b_x), [b_y, b_z]], for i < j < k
    J(i, j, k) = N(i; j, k) - N(j; i, k) + N(k; i, j), and
    N(x; y, z) = sum p c [b_a, b_m] over the targets m (coefficient c) of the
    key (y, z), the keys (a, m) and the rows a (entry p) of phi(b_x).  So J is
    the sum of these terms over the keys (y, z), y < z, and the x outside
    {y, z}, each added to the sorted triple of x, y and z with sign -1 when
    y < x < z and +1 otherwise: only triples that some nested bracket reaches
    cost anything.  A direct sum of n copies has no key and no twist entry
    across copies, so the work is linear in n.

    The terms are summed in integer numerators over den_phi * den_c^2, the
    denominators of the twist's columns and of the bracket table, by rows:
    row (i, j, k) is one int holding coordinate n of J(i, j, k) in field n.
    Each key a < m is packed once over its coefficients, (m, a) by negation,
    and each packed key (a, m) is scaled once by each entry p at row a of a
    column phi(b_x).  So each visit (key (y, z), target m, partner (a, m), x
    with phi(b_x) holding a) adds +-c times its scaled partner to its row:
    one int add per visit.

    Bound.  Let P be the top l1 mass of a twist column's numerators, C the top
    l1 mass of a key and E the top entry of the table.  Coordinate n of
    N(x; y, z) is sum_m c_m sum_a p_a e_(a,m,n), at most C P E in size, and
    that of J a signed sum of three of them; so every field's total T
    satisfies |T| <= 3 P C E, and with W = bitlen(3 P C E) + 1 each row
    decodes uniquely by `core._signed_fields`, once, each value divided
    once.  Each failing triple's two residuals are rendered once, from its
    nonzero fields and their negatives: no Fraction for a zero coordinate."""
    d = h.dim
    den_c, table = h._bracket_numerators
    den_p, phi = _numerators(h.phi_columns)
    phi_rows = _transpose_sparse(phi, d)
    key_mass, entry = h._bracket_bounds
    width = (3 * _l1_bounds(map(dict.items, phi))[0] * key_mass * entry).bit_length() + 1
    # twisted[m]: (x, p times packed (a, m)) over the keys (a, m) and the
    # entries p at row a of the columns phi(b_x)
    twisted: list[list] = [[] for _ in range(d)]
    for a, m in h.brackets:
        packed = _pack(table[a, m], width)
        into = twisted[m].append
        for x, p in phi_rows[a].items():
            into((x, p * packed))
        into = twisted[a].append
        for x, p in phi_rows[m].items():
            into((x, -p * packed))
    rows: dict[int, int] = {}
    get = rows.get
    dd = d * d
    for y, z in h.brackets:
        yd = y * d
        yz = yd + z
        yzd = yz * d
        for m, c in table[y, z]:
            for x, q in twisted[m]:
                if x < y:  # row (x, y, z)
                    at = x * dd + yz
                    rows[at] = get(at, 0) + c * q
                elif x < z:  # row (y, x, z), negated
                    if x != y:
                        at = (yd + x) * d + z
                        rows[at] = get(at, 0) - c * q
                elif x > z:  # row (y, z, x)
                    at = yzd + x
                    rows[at] = get(at, 0) + c * q
    den = den_p * den_c * den_c
    failures = []
    for at, n in rows.items():
        if n:
            ij, k = divmod(at, d)
            i, j = divmod(ij, d)
            fields = list(_signed_fields(n, width, den))
            even_text, odd_text = _render_fields(fields, d), _render_fields([(c, -x) for c, x in fields], d)
            failures += [failure("hom_jacobi", index, even_text) for index in ((i, j, k), (j, k, i), (k, i, j))]
            failures += [failure("hom_jacobi", index, odd_text) for index in ((j, i, k), (i, k, j), (k, j, i))]
    return CheckReport("hom_jacobi", failures)


def _bracket_failures(f_cols: Sequence[Mapping], h1: HomLieAlgebra, h2: HomLieAlgebra, check: str) -> list[Failure]:
    """Where f[b_i, b_j] = [f(b_i), f(b_j)] fails on a basis pair i < j of h1, for
    the map with sparse columns f_cols into h2.  Both sides vanish unless
    (i, j) is a bracket key of h1 or the brackets of the columns
    (`_pair_brackets`) reach it."""
    images = _pair_brackets(h2, f_cols)
    failures = []
    for index in h1.brackets.keys() | images.keys():
        lhs = _apply_columns(f_cols, h1.brackets.get(index, {}))
        rhs = images.get(index, {})
        if lhs != rhs:
            failures.append(failure(check, index, _residual(h2, lhs, rhs)))
    return failures


def check_twist_morphism(h: HomLieAlgebra) -> CheckReport:
    """phi is multiplicative: phi[x, y] = [phi(x), phi(y)] on all basis pairs.
    The identity twist passes with nothing to compute: Id[x, y] = [x, y]."""
    cols = h.phi_columns
    failures = [] if h.untwisted else _bracket_failures(cols, h, h, "twist_morphism")
    return CheckReport("twist_morphism", failures)


def check_involutive(h: HomLieAlgebra) -> bool:
    """True when the twist squares to the identity."""
    cols = h.phi_columns
    return h.untwisted or all(_apply_columns(cols, col) == {i: ONE} for i, col in enumerate(cols))


def _intertwining_failures(f_cols: list[dict[int, Fraction]], h1: HomLieAlgebra, h2: HomLieAlgebra) -> list[Failure]:
    """Where the map with sparse columns f_cols (h1.dim of them, entries indexed
    by h2's basis) fails f . phi1 = phi2 . f on a basis vector of h1, and
    f[b_i, b_j] = [f(b_i), f(b_j)] on a basis pair.  When both twists are the identity the first holds with nothing to
    compute: f . Id = Id . f."""
    failures = []
    phi1_cols, phi2_cols = h1.phi_columns, h2.phi_columns
    for i in range(0 if h1.untwisted and h2.untwisted else h1.dim):
        lhs = _apply_columns(f_cols, phi1_cols[i])
        rhs = _apply_columns(phi2_cols, f_cols[i])
        if lhs != rhs:
            failures.append(failure("twist_intertwine", (i,), _residual(h2, lhs, rhs)))
    return failures + _bracket_failures(f_cols, h1, h2, "bracket_preserved")


def check_homomorphism(f: list[dict[int, Fraction]], h1: HomLieAlgebra, h2: HomLieAlgebra) -> CheckReport:
    """The map with sparse columns f (one {row: entry} per basis vector of h1)
    intertwines twists and brackets: f . phi1 = phi2 . f and f[x,y] = [f(x), f(y)].
    Every map, a relabelling included, takes the one path of
    `_intertwining_failures`: the twist on each basis vector, then the
    brackets of the columns (`_bracket_failures`).  Kept for ROADMAP item 17's
    corpus, which compares it with its dense reference."""
    problem = _columns_shape_error(f, h2.dim, h1.dim)
    if problem:
        raise ValueError(f"map must be {h2.dim}x{h1.dim} (target dim x source dim) as sparse columns: {problem}")
    return CheckReport("homomorphism", _intertwining_failures(f, h1, h2))


def check_quadratic(h: HomLieAlgebra) -> CheckReport:
    """The form is symmetric, nondegenerate (else the kernel basis is reported),
    invariant <[x,y],z> = <x,[y,z]>, and twist-self-adjoint <phi x, y> = <x, phi y>.

    Symmetry is compared, and the invariance residual summed, in integer
    numerators: the form's over den_g, and the residual over den_g * den_c with
    den_c the bracket table's.  The two twist pairings come from `_pairings`,
    and their difference runs in Fractions; the identity twist is self-adjoint
    with nothing to compute, <x, y> = <x, y>.  Nondegeneracy is the rank
    of the form's rows, `_rank`, in ints; only a degenerate form is reduced
    by `_gauss_jordan`, for the kernel basis it reports.

    The residual R(a, b, k) = <[b_a, b_b], b_k> - <b_a, [b_b, b_k]> is kept
    by rows: row (a, b) is one int holding R(a, b, k) in field k.  With
    G[c] = sum_k g_ck 2^(W*k), row c of the form packed, the left slot puts
    sum_c C_ab^c G[c] in row (a, b) for each key a < b, and its negative in
    row (b, a); with M[a, c] = sum_b C_ab^c 2^(W*b), the right slot adds
    -g_ic M[a, c] to row (i, a) for each entry g_ic of column c of the form
    (the form need not be symmetric).  Both land in one accumulator, so
    their terms cancel there.

    Bound.  Let C be the top l1 mass of a key and c the table's top entry,
    G the top l1 mass of a form row and g the form's top entry.  The left
    term of field k of row (a, b) is sum_c C_ab^c g_ck, at most C g in size,
    and the right one sum_c g_ac C_bk^c, at most G c; so every total T
    satisfies |T| <= C g + G c, and with W = bitlen(C g + G c) + 1 each row
    decodes uniquely by `core._signed_fields`, each nonzero entry divided
    once."""
    if h.form_rows is None:
        raise ValueError("algebra carries no bilinear form to check")
    failures = []
    g_rows = h.form_rows
    den_g, n_rows = _numerators(g_rows)
    n_cols = _transpose_sparse(n_rows, h.dim)
    asymmetric = {
        (min(i, j), max(i, j)) for i, row in enumerate(n_rows) for j in row if row[j] != n_cols[i].get(j)
    }
    for i, j in sorted(asymmetric):
        failures.append(failure("symmetric", (i, j), g_rows[i].get(j, ZERO) - g_rows[j].get(i, ZERO)))
    if _rank(g_rows) < h.dim:  # only a degenerate form is reduced, for its kernel
        for v in _null_rows(_gauss_jordan(g_rows), h.dim):
            failures.append(failure("nondegenerate", None, _dense(h, v)))
    if not h.untwisted:
        phi_cols, units = h.phi_columns, _unit_columns(h.dim)
        # <phi b_i, b_j> - <b_i, phi b_j>
        twist = _difference(_pairings(g_rows, phi_cols, units), _pairings(g_rows, units, phi_cols))
        failures += [failure("twist_self_adjoint", index, value) for index, value in twist.items()]
    # Residual <[b_a,b_b],b_k> - <b_a,[b_b,b_k]>, in packed rows (a, b) over k.
    d = h.dim
    den_c, table = h._bracket_numerators
    key_mass, entry = h._bracket_bounds
    row_mass, top_g = _l1_bounds(map(dict.items, n_rows))
    width = (key_mass * top_g + row_mass * entry).bit_length() + 1
    form = [_pack(row.items(), width) for row in n_rows]
    rows: dict[int, int] = {}
    moved: list[dict[int, int]] = [{} for _ in range(d)]  # moved[c][a] = M[a, c] = sum_b C_ab^c 2^(W*b)
    for a, b in h.brackets:  # the key (b, a) is the negative of (a, b)
        shift_a, shift_b = width * a, width * b
        left = 0
        for c, v in table[a, b]:
            left += v * form[c]
            by_a = moved[c]
            by_a[a] = by_a.get(a, 0) + (v << shift_b)
            by_a[b] = by_a.get(b, 0) - (v << shift_a)
        rows[a * d + b], rows[b * d + a] = left, -left
    get = rows.get
    for c, by_a in enumerate(moved):  # right slot: row (i, a) gets -g_ic M[a, c]
        column = n_cols[c].items()
        for a, packed in by_a.items():
            for i, g in column:
                row = i * d + a
                rows[row] = get(row, 0) - g * packed
    den = den_g * den_c
    for ab, n in rows.items():
        if n:
            a, b = divmod(ab, d)
            failures += [failure("invariant", (a, b, k), value) for k, value in _signed_fields(n, width, den)]
    return CheckReport("quadratic", failures)


def _require_algebra(function: str, position: int, h: object) -> None:
    """Raise unless h, argument `position` (1-based) of function, is a HomLieAlgebra."""
    if not isinstance(h, HomLieAlgebra):
        raise ValueError(f"{function} argument {position} must be a HomLieAlgebra, got {type(h).__name__}")


def direct_sum(*algebras: HomLieAlgebra) -> HomLieAlgebra:
    """Componentwise bracket and twist on the concatenated coordinate space;
    forms (when all are present) combine block-diagonally.  The twist's columns
    and the form's rows are each summand's, shifted by its offset.

    Lemma (a sum of checked algebras needs no check).  Each summand passed the
    constructor's check when it was built.  Shifting its indices by its offset
    keeps keys i < j, puts keys and value indices in range(dim) (the offsets
    tile it), and leaves the values, nonzero ints or Fractions, as they are;
    the twist and the form stay square, block by block.  So the result is
    built without re-checking, and its twist is the identity exactly when
    every summand's is: column offset + i is {offset + i: 1} exactly when
    column i of the summand is {i: 1}."""
    for position, h in enumerate(algebras, 1):
        _require_algebra("direct_sum", position, h)
    dim = sum(h.dim for h in algebras)
    brackets: BracketTable = {}
    phi_columns: list[dict[int, Fraction]] = []
    form_rows: list[dict[int, Fraction]] | None = [] if all(h.form_rows is not None for h in algebras) else None
    offset = 0
    for h in algebras:
        for (i, j), coeffs in h.brackets.items():
            brackets[(i + offset, j + offset)] = {k + offset: v for k, v in coeffs.items()}
        phi_columns += ({k + offset: v for k, v in col.items()} for col in h.phi_columns)
        if form_rows is not None:
            form_rows += ({k + offset: v for k, v in row.items()} for row in h.form_rows)
        offset += h.dim
    untwisted = all(h.untwisted for h in algebras)
    return HomLieAlgebra._of_checked(dim, brackets, phi_columns, form_rows, untwisted)


def negate_form(h: HomLieAlgebra) -> HomLieAlgebra:
    """The same bracket and twist with the bilinear form negated; a checked
    algebra's negated rows keep their nonzero exact entries, so, as in
    `direct_sum`, nothing is re-checked."""
    _require_algebra("negate_form", 1, h)
    if h.form_rows is None:
        raise ValueError("algebra carries no bilinear form")
    negated = [{j: -g for j, g in row.items()} for row in h.form_rows]
    return HomLieAlgebra._of_checked(h.dim, h.brackets, h.phi_columns, negated, h.untwisted)
