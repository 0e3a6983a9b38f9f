"""Quadratic twisted Lie algebras with Lagrangian splittings: the triple type,
its certifier, the `Chain` that gives a power's slot structure and the reader
of a stored power, dual bases and the induced r-matrix, self-dual doubles
built from a cobracket, and the worked split/diagonal constructions for
special linear data."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Mapping, Sequence

from .core import (
    Matrix,
    ONE,
    Subspace,
    SparseTensor,
    Vector,
    ZERO,
    _apply_columns,
    _column_image,
    _columns_shape_error,
    _inverse_rows,
    _numerators,
    _quotients,
    _rank,
    _span,
    _unit_columns,
    mat_vec,
    subspace_equal,
)
from .homlie import (
    BracketTable,
    HomLieAlgebra,
    check_hom_jacobi,
    check_twist_morphism,
    direct_sum,
    negate_form,
    _accumulate,
    _ad_basis,
    _brackets_outside,
    _dense,
    _form_failures,
    _intertwining_failures,
    _kernel_failures,
    _pairings,
    _require_tensor,
    _twist_outside,
)
from .reporting import CheckReport, combine, failure


@dataclass
class ManinTriple:
    """A quadratic algebra split into two Lagrangian halves."""

    algebra: HomLieAlgebra
    part1: Subspace
    part2: Subspace
    name: str | None = None

    @classmethod
    def of(
        cls,
        algebra: HomLieAlgebra,
        part1_rows: Sequence[Sequence[int | str | Fraction]],
        part2_rows: Sequence[Sequence[int | str | Fraction]],
        name: str | None = None,
    ) -> ManinTriple:
        return cls(
            algebra,
            Subspace.span(algebra.dim, part1_rows),
            Subspace.span(algebra.dim, part2_rows),
            name,
        )

    def __post_init__(self) -> None:
        for label, part in (("part1", self.part1), ("part2", self.part2)):
            if part.ambient_dim != self.algebra.dim:
                raise ValueError(f"{label} has ambient dimension {part.ambient_dim}, expected {self.algebra.dim}")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def form(self) -> Matrix:
        _form_rows(self)  # raises without a form
        return self.algebra.form


def _form_rows(t: ManinTriple) -> tuple[dict[int, Fraction], ...]:
    """The sparse rows of the triple's form, after checking that there is one."""
    if t.algebra.form_rows is None:
        raise ValueError("triple's algebra carries no bilinear form")
    return t.algebra.form_rows


def _part_report(
    h: HomLieAlgebra, part: Subspace, label: str, pairings: Mapping[tuple[int, int], Fraction]
) -> CheckReport:
    """Isotropy, bracket closure, and twist stability of one half: `pairings`
    holds the nonzero pairings of its canonical rows, as `_pairings` gives
    them, each reported at a <= b; the brackets and twisted rows that leave
    the half come from `_brackets_outside` and `_twist_outside`, each of
    those divided once, since each is reported."""
    failures = [failure("isotropic", (a, b), value) for (a, b), value in pairings.items() if a <= b]
    for index, den, w in _brackets_outside(h, part.echelon, part._numerator_rows):
        failures.append(failure("subalgebra", index, _dense(h, _quotients(den, w))))
    for a, den, image in _twist_outside(h, part):
        failures.append(failure("twist_stable", (a,), _dense(h, _quotients(den, image))))
    return CheckReport(label, failures)


def _splitting_report(t: ManinTriple, direct: bool) -> CheckReport:
    """Halves of equal dimension whose sum is the whole even-dimensional space;
    `direct` tells whether the two halves' rows span it, as the caller
    decided."""
    h = t.algebra
    shape_failures = []
    if h.dim % 2 != 0:
        shape_failures.append(failure("even_dimension", (h.dim,)))
    if t.part1.dim != h.dim // 2:
        shape_failures.append(failure("part1_dim", (t.part1.dim,)))
    if t.part2.dim != h.dim // 2:
        shape_failures.append(failure("part2_dim", (t.part2.dim,)))
    if not direct:
        shape_failures.append(failure("direct_sum"))
    return CheckReport("splitting", shape_failures)


def _six_checks(t: ManinTriple) -> CheckReport:
    """The whole structure checked on every coordinate: valid quadratic ambient
    algebra, halves of equal dimension in direct sum, each isotropic, closed
    under the bracket, twist-stable.

    One `_pairings` call over both halves' canonical rows u_1..u_k, w_1..w_l
    gives the pairings within each half, which the half reports name, and
    the cross pairing P = (<u_a, w_b>).  Nondegeneracy and the direct sum are
    then read off P when the lemma below applies, with one `_rank` of k rows;
    otherwise the form's rows are ranked (`homlie._kernel_failures`, which
    names the kernel) and so are the halves' d rows.

    Lemma (the form pairs the halves).  Let the form be symmetric, the halves
    isotropic, and k = l = d/2.  Then the form is nondegenerate and
    g1 + g2 = V is direct exactly when P is invertible.
    - If P is invertible, let x = sum_a s_a u_a + sum_b t_b w_b = 0.  Pairing
      x with w_c on the right gives (s^T P)_c, since g2 is isotropic, and
      pairing u_c with x gives (P t)_c, since g1 is; so s = t = 0.  The d rows
      are independent, so they are a basis of V, and g1 + g2 = V is direct.
      In that basis the form's Gram matrix is [[0, P], [P^T, 0]], by isotropy
      and symmetry, and it is invertible, so the form is nondegenerate.
    - If the form is nondegenerate and g1 + g2 = V is direct, (u, w) is a
      basis and the Gram matrix [[0, P], [P^T, 0]] is invertible, so P is.
    So when every hypothesis holds and P has rank d/2, both checks pass; in
    every other case the two ranks decide them and name what fails."""
    h, u, w = t.algebra, t.part1.echelon, t.part2.echelon
    jacobi, twist = check_hom_jacobi(h), check_twist_morphism(h)
    form = _form_failures(h)  # raises without a form
    k = len(u)
    within: tuple[dict, dict] = ({}, {})  # the pairings within half 1, and within half 2
    cross: list[dict[int, Fraction]] = [{} for _ in u]  # row a of P
    for (a, b), value in _pairings(h.form_rows, u + w).items():
        if a < k:
            if b < k:
                within[0][a, b] = value
            else:
                cross[a][b - k] = value
        elif b >= k:
            within[1][a - k, b - k] = value
    symmetric = all(f.check != "symmetric" for f in form)
    if symmetric and 2 * k == h.dim == 2 * len(w) and not any(within) and _rank(cross) == k:
        kernel, direct = [], True
    else:
        kernel, direct = _kernel_failures(h), _rank(u + w) == h.dim
    return combine(
        "manin_triple",
        [
            jacobi,
            twist,
            CheckReport("quadratic", form + kernel),
            _part_report(h, t.part1, "part1", within[0]),
            _part_report(h, t.part2, "part2", within[1]),
            _splitting_report(t, direct),
        ],
    )


def check_manin_triple(t: ManinTriple) -> CheckReport:
    """Certify the whole structure: valid quadratic ambient algebra, halves of equal
    dimension in direct sum, each isotropic, closed under the bracket, twist-stable.

    A triple whose stored data is exactly a power `nuble(base, n)`, n >= 2
    (`_power_base` reads that from the data), is certified by certifying its
    base, recursively for a power of a power.  In every other case, and when
    the base fails, the six checks run on every coordinate (`_six_checks`),
    and they name the failures.

    Lemma (a power of a triple is a triple).  Let the base (g, g1, g2) pass,
    and let the power's slots carry the signs and the halves the pieces of
    `Chain.BASE.power(n)`.
    - Jacobi and the twist.  Bracket and twist act componentwise, and the
      bracket of two slots is zero; so a basis triple across slots has zero
      Jacobi sum, a pair across slots has [phi x, phi y] = phi [x, y] = 0, and
      within a slot both identities are the base's.
    - The form.  It is the base form times the slot's sign, block by block,
      so it is symmetric and nondegenerate, and invariant and
      twist-self-adjoint block by block, with zero pairings across slots.
    - The halves.  A half's pieces lie on disjoint slots, so they pair to zero
      and bracket to zero with each other.  A label is a base half, isotropic,
      closed and twist-stable in its slot.  An edge joins two slots of
      opposite sign by the diagonal (x, x): it is isotropic, since
      <x, y> - <x, y> = 0, closed, since [(x, x), (y, y)] = ([x, y], [x, y]),
      and twist-stable, since phi (x, x) = (phi x, phi x).
    - Transversality.  Each slot lies in one piece per half, an edge holds
      d = dim g rows for its two slots and a label d/2 for its one, so each
      half has dimension nd/2.  A vector in both halves agrees on the two
      slots of every edge of either half, and the two halves' edges join
      every slot to the next, so it is (x, ..., x); its label slots put x in
      g2 (slot 1) and in g1 (slot n), and g1 + g2 is direct, so x = 0.
    So each of the six checks passes on the power when it passes on the
    base, and the passing report is the same."""
    found = _power_base(t)
    if found is not None:
        report = check_manin_triple(found[0])
        if report.passed:
            return report
    return _six_checks(t)


# ---------------------------------------------------------------------------
# Powers: the chain of a power, and the reader of a stored power

def _require_count(name: str, value: int) -> None:
    """Raise unless value is an int (a bool is not) of at least 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class Chain:
    """The slot structure of a power of a triple, in 1-based slots of one base
    block each: signs[s - 1] is slot s's form sign, and halves holds each
    half's pieces, in slot order.  A piece (lo, hi, k) is an edge, k = 0, the
    diagonal rows joining slots lo < hi, or a label, base half k in slot
    lo == hi.  Each slot is in one piece per half.  `BASE` is the chain of a
    triple itself, and `power` nests.

    >>> Chain.BASE.power(3)
    Chain(signs=(1, -1, 1), halves=(((1, 2, 0), (3, 3, 1)), ((1, 1, 2), (2, 3, 0))))
    >>> Chain.BASE.power(2).power(2)
    Chain(signs=(1, -1, -1, 1), halves=(((1, 3, 0), (2, 4, 0)), ((1, 1, 2), (2, 2, 1), (3, 4, 0))))
    """

    signs: tuple[int, ...]
    halves: tuple[tuple[tuple[int, int, int], ...], ...]
    BASE: ClassVar[Chain]

    def power(self, n: int) -> Chain:
        """The chain of the n-fold power of a triple with this chain, for an
        int n >= 1.  Outer slot r holds inner slot c at (r - 1)m + c, with
        sign (-1)^(r+1) times c's.  Edge (r, r+1), in half 1 for odd r and
        half 2 for even r, is the m slot edges ((r, c), (r + 1, c)).  Inner
        half 2 fills outer slot 1, and inner half 1 fills slot n, in the half
        whose edges leave it free.  The pieces stay in slot order, the order
        of the built rows."""
        _require_count("n", n)
        m = len(self.signs)
        edges = lambda r: [((r - 1) * m + c, r * m + c, 0) for c in range(1, m + 1)]
        shifted = lambda pieces, r: [((r - 1) * m + lo, (r - 1) * m + hi, k) for lo, hi, k in pieces]
        half1 = [piece for r in range(1, n, 2) for piece in edges(r)]
        half2 = shifted(self.halves[1], 1) + [piece for r in range(2, n, 2) for piece in edges(r)]
        (half1 if n % 2 else half2).extend(shifted(self.halves[0], n))
        signs = tuple(x if r % 2 else -x for r in range(1, n + 1) for x in self.signs)
        return Chain(signs, (tuple(half1), tuple(half2)))

    def rows(self, t: ManinTriple, half: int) -> list[dict[int, Fraction]]:
        """The sparse rows of half 1 or 2 of the power of t with this chain,
        piece by piece: an edge's d = dim t rows {lo_i: 1, hi_i: 1}, a label's
        base half's canonical rows, in Fractions, shifted into its slot."""
        d = t.dim
        rows: list[dict[int, Fraction]] = []
        for lo, hi, k in self.halves[half - 1]:
            a, b = (lo - 1) * d, (hi - 1) * d
            if k:
                part = (t.part1, t.part2)[k - 1].echelon
                rows += ({a + i: x if type(x) is Fraction else Fraction(x) for i, x in row.items()} for row in part)
            else:
                rows += ({a + i: ONE, b + i: ONE} for i in range(d))
        return rows

    @property
    def labels(self) -> dict[int, tuple[int, int]]:
        """Base half k -> (half, slot): the half, 1 or 2, whose label puts
        base half k in that slot."""
        return {k: (half, lo) for half, pieces in enumerate(self.halves, 1) for lo, _, k in pieces if k}

    def moved(self, images: Sequence[int]) -> Chain:
        """The chain that the slot permutation s -> images[s - 1] + 1 makes of
        this one: each sign moves with its slot, an edge goes to the edge of
        its image slots and a label to its image slot, and each half's pieces
        are sorted back into slot order."""
        signs = [0] * len(self.signs)
        for s, j in enumerate(images):
            signs[j] = self.signs[s]
        move = lambda lo, hi, k: (*sorted((images[lo - 1] + 1, images[hi - 1] + 1)), k)
        halves = tuple(tuple(sorted(move(*piece) for piece in pieces)) for pieces in self.halves)
        return Chain(tuple(signs), halves)

    def dot(self) -> str:
        """Deterministic DOT text of the colored chain graph: a circle u<s>
        per slot, a triangle per label (h' for base half 2, h for base half
        1), style=filled on every vertex in a slot of negative sign, then both
        halves' edges in slot order."""
        fill = lambda s: " style=filled" if self.signs[s - 1] < 0 else ""
        lines = ["graph chains {"]
        lines += (f'  u{s} [label="u{s}" shape=circle{fill(s)}];' for s in range(1, len(self.signs) + 1))
        labels = self.labels
        for k, node, label in ((2, "hp", "h'"), (1, "h", "h")):
            s = labels[k][1]
            lines.append(f'  {node}{s} [label="{label}" shape=triangle{fill(s)}];')
        lines += (f"  u{lo} -- u{hi};" for lo, hi, k in sorted(p for pieces in self.halves for p in pieces) if not k)
        return "\n".join(lines) + "\n}\n"


Chain.BASE = Chain((1,), (((1, 1, 1),), ((1, 1, 2),)))


def _slot_rows(rows: Sequence[dict[int, Fraction]], s: int, d: int) -> list[dict[int, Fraction]] | None:
    """The canonical rows whose pivots lie in 1-based slot s of width d,
    shifted into block 0, or None when one of them leaves the slot."""
    lo, hi = (s - 1) * d, s * d
    out = []
    for row in rows:
        if lo <= next(iter(row)) < hi:
            if max(row) >= hi:
                return None
            out.append({c - lo: x for c, x in row.items()})
    return out


def _repeats(vectors: Sequence[dict[int, Fraction]], d: int, signs: tuple[int, ...]) -> bool:
    """Whether vectors 0..d-1 lie in block 0, and vector sd + i is vector i
    shifted by sd and times signs[s], for every slot s."""
    if any(c >= d for v in vectors[:d] for c in v):
        return False
    expected = {1: list(vectors[:d]), -1: [{c: -x for c, x in v.items()} for v in vectors[:d]]}
    for s in range(1, len(signs)):
        off = s * d
        block = [{c - off: x for c, x in v.items()} for v in vectors[off : off + d]]
        if block != expected[signs[s]]:
            return False
        expected[signs[s]] = block  # the same rows, holding the values that later slots share
    return True


def _power_base(t: ManinTriple) -> tuple[ManinTriple, int] | None:
    """(base, n) when the stored data of t is exactly that of `nuble(base, n)`
    for some n >= 2, else None; read in time linear in the stored entries,
    with no elimination and no power built.

    - Part 1's first canonical row is the row {0: 1, d: 1} of the power's
      first edge (1, 2), and d divides dim; so n = dim / d.
    - The base halves are read from the two labels of `Chain.BASE.power(n)`
      (`Chain.labels`): the rows of a label's half whose pivots lie in the
      label's slot, none leaving it.
    - Block 0's twist columns, form rows and bracket keys lie in block 0, and
      are the base's.  Every slot's are block 0's, shifted, the form's times
      the slot's sign; the power has n times block 0's bracket keys, each in
      one slot, so slot by slot its table is block 0's.
    - Both halves' canonical rows are `Chain.rows(base, half)`, the rows
      that `nuble` builds.
    Twist, form and bracket table then equal those `direct_sum` builds, key
    order aside, so t has the data of `nuble(base, n)`.  The base's algebra
    is built by `HomLieAlgebra._of_checked`: its table, columns and rows are
    the checked algebra's own, with every index in range(d).  A triple that
    is no power is refused at its first row, its labels or the first slot
    that differs, with no work quadratic in dim."""
    h, rows = t.algebra, t.part1.echelon
    if h.form_rows is None or not rows or len(rows[0]) != 2:
        return None
    (pivot, _), (d, x) = rows[0].items()
    if pivot != 0 or x != 1 or h.dim % d:
        return None
    n = h.dim // d
    chain = Chain.BASE.power(n)
    parts = (t.part1, t.part2)
    labels = {k: _slot_rows(parts[half - 1].echelon, s, d) for k, (half, s) in chain.labels.items()}
    if None in labels.values():
        return None
    if not (_repeats(h.phi_columns, d, (1,) * n) and _repeats(h.form_rows, d, chain.signs)):
        return None
    table = h.brackets
    block = {key: coeffs for key, coeffs in table.items() if key[1] < d}
    if len(table) != n * len(block) or any(k >= d for coeffs in block.values() for k in coeffs):
        return None
    for (i, j), coeffs in table.items():
        off = i - i % d
        if j >= d and (j - off >= d or {k - off: v for k, v in coeffs.items()} != block.get((i - off, j - off))):
            return None
    algebra = HomLieAlgebra._of_checked(d, block, h.phi_columns[:d], h.form_rows[:d], None)
    base = ManinTriple(algebra, Subspace(d, tuple(labels[1])), Subspace(d, tuple(labels[2])))
    if any(list(part.echelon) != chain.rows(base, half) for half, part in enumerate(parts, 1)):
        return None
    return base, n


@dataclass(frozen=True)
class DualBasisPair:
    """Bases x_i of part 1 and xi_i of part 2 with <xi_i, x_j> = delta_ij;
    `gram` holds the re-computed pairings as a certificate (the identity)."""

    x_basis: tuple[Vector, ...]
    xi_basis: tuple[Vector, ...]
    gram: Matrix


def _dual_rows(t: ManinTriple) -> tuple[tuple[dict[int, Fraction], ...], list[dict[int, Fraction]]]:
    """(xi, x): part 2's canonical rows, and the sparse basis of part 1 dual to
    them, x_j the combination of part 1's rows given by column j of the
    inverse of the pairing matrix <xi_a, row_b>, all sparse."""
    if t.part1.dim != t.part2.dim:
        raise ValueError("halves have different dimensions")
    xi_rows, x_rows = t.part2.echelon, t.part1.echelon
    columns: list[dict[int, Fraction]] = [{} for _ in x_rows]  # of the pairing matrix
    for (a, b), value in _pairings(_form_rows(t), xi_rows, x_rows).items():
        columns[b][a] = value
    # The inverse's columns are the rows of the inverse of the transpose.
    return xi_rows, [_apply_columns(x_rows, col) for col in _inverse_rows(columns, len(x_rows))]


def dual_basis(t: ManinTriple) -> DualBasisPair:
    """Dual bases of the two halves under the ambient form, dense, with the
    pairing matrix of the result as certificate.  Kept for ROADMAP item 7,
    whose candidate canonical element of a twisted triple pairs dual bases
    under <phi^-1 x, y>; the untwisted canonical element needs no dense basis
    (`r_from_splitting`, and the lemma of `rmatrix.check_quasi_triangular`)."""
    xi_rows, x_basis = _dual_rows(t)
    pairs = _pairings(_form_rows(t), xi_rows, x_basis)
    gram = tuple(tuple(pairs.get((a, b), ZERO) for b in range(len(x_basis))) for a in range(len(xi_rows)))
    return DualBasisPair(tuple(_dense(t.algebra, x) for x in x_basis), t.part2.rows, gram)


def r_from_splitting(t: ManinTriple) -> SparseTensor:
    """The canonical element sum_i xi_i (x) x_i of the splitting.

    The products are summed in integer numerators, the xi rows' over den_xi
    and the x rows' over den_x (`_numerators`), so the sum is over
    den_xi * den_x; a total that cancels is dropped as it goes, as
    `SparseTensor.add_into` drops it, so the entries come in the order that a
    Fraction sum keeps them, and each is divided once.  The indices are the
    rows' own, in range(dim), and the values nonzero Fractions, so the result
    is built by `SparseTensor._of_checked`."""
    xi_rows, x_rows = _dual_rows(t)
    den_xi, xis = _numerators(xi_rows)
    den_x, xs = _numerators(x_rows)
    sums: dict[tuple[int, int], int] = {}
    for xi, x in zip(xis, xs):
        x = sorted(x.items())
        for a, u in xi.items():
            for b, v in x:
                _accumulate(sums, (a, b), u * v)
    den = den_xi * den_x
    return SparseTensor._of_checked(2, t.dim, {index: Fraction(n, den) for index, n in sums.items()})


def check_manin_isomorphism(f: list[dict[int, Fraction]], t1: ManinTriple, t2: ManinTriple) -> CheckReport:
    """The map with sparse columns f (one {row: entry} per basis vector of t1) is
    a triple isomorphism: it preserves bracket, form and twist, and maps each
    half onto its mate.  The form residual f^T g2 f - g1 is the pairing of f's
    columns under g2 (`_pairings`), less g1, each entry compared before it is
    subtracted; each half's image is row-reduced and compared with its mate's
    canonical rows.  Every map, a relabelling included, takes this one path,
    which names every failure."""
    h1, h2 = t1.algebra, t2.algebra
    if h1.dim != h2.dim or _columns_shape_error(f, h2.dim, h1.dim):
        return CheckReport("manin_isomorphism", [failure("shape", (h1.dim, h2.dim, len(f)))])
    failures = _intertwining_failures(f, h1, h2)
    residual = _pairings(_form_rows(t2), f, f)
    for i, form_row in enumerate(_form_rows(t1)):
        for j, g in form_row.items():
            pulled = residual.get((i, j))
            if pulled is None:
                residual[i, j] = -g
            elif pulled == g:
                del residual[i, j]
            else:
                residual[i, j] = pulled - g
    for index, value in residual.items():
        failures.append(failure("form_preserved", index, value))
    for label, source, target in (("part1_image", t1.part1, t2.part1), ("part2_image", t1.part2, t2.part2)):
        if not subspace_equal(_column_image(f, h2.dim, source), target):
            failures.append(failure(label))
    return CheckReport("manin_isomorphism", failures)


# ---------------------------------------------------------------------------
# Self-dual double of an algebra with a cobracket


def coboundary_cobracket(g: HomLieAlgebra, lam: SparseTensor) -> BracketTable:
    """Dual structure constants of the cobracket x -> ad_x(lam) of a skew tensor
    (untwisted algebras): [f_a, f_b]* = sum_k (ad_{b_k} lam)_{ab} f_k for a < b,
    lam read from its entries above the diagonal.  It derives acceptance
    criterion 8's standard dual table, and ROADMAP item 17's corpus runs it
    against its dense reference."""
    _require_tensor(g, lam)
    if not g.untwisted:
        raise ValueError("the double construction needs an untwisted algebra")
    upper = SparseTensor(2, g.dim, {(a, b): v for (a, b), v in lam.entries.items() if a < b})
    table: BracketTable = {}
    for k, w in sorted(_ad_basis(g, upper - upper.swap()).items()):
        for (a, b), v in w.items():
            if a < b:
                table.setdefault((a, b), {})[k] = v
    return table


def double_from_bialgebra(
    g: HomLieAlgebra,
    cobracket_dual: Mapping[tuple[int, int], Mapping[int, int | str | Fraction]],
) -> ManinTriple:
    """Bracket on g + g* extending both brackets so the canonical pairing is invariant:
    [x + xi, y + eta] = [x,y] - ad*_eta x + ad*_xi y + [xi,eta]* + ad*_x eta - ad*_y xi.

    The ambient algebra is built without validation: its twisted Jacobi identity
    holds exactly when the cobracket is compatible, and the certifier decides that.
    """
    if not g.untwisted:
        raise ValueError("the double construction needs an untwisted algebra")
    if not check_hom_jacobi(g).passed:
        raise ValueError("base bracket is not a Lie bracket")
    # Rejects non-Lie dual tables up front (Jacobi on g* alone, not compatibility).
    dual = HomLieAlgebra.create(g.dim, cobracket_dual).brackets
    d = g.dim
    brackets: BracketTable = {k: dict(v) for k, v in g.brackets.items()}
    for (a, b), coeffs in dual.items():
        brackets[(d + a, d + b)] = {d + k: v for k, v in coeffs.items()}
    # [b_i, f_j] = ad*_{b_i} f_j - ad*_{f_j} b_i, read from each key of g's table
    # (the f_k terms) and of the dual table (the b_l terms), in both orders.
    cross: BracketTable = {}
    for (p, q), coeffs in g.brackets.items():
        for k, i, sign in ((p, q, ONE), (q, p, -ONE)):
            for j, c in coeffs.items():
                _accumulate(cross.setdefault((i, d + j), {}), d + k, sign * c)
    for (p, q), coeffs in dual.items():
        for l, j, sign in ((p, q, ONE), (q, p, -ONE)):
            for i, c in coeffs.items():
                _accumulate(cross.setdefault((i, d + j), {}), l, -sign * c)
    brackets.update((index, cross[index]) for index in sorted(cross) if cross[index])
    form_rows = [{(i + d) % (2 * d): ONE} for i in range(2 * d)]  # <b_i, f_j> = delta_ij
    ambient = HomLieAlgebra(2 * d, brackets, _unit_columns(2 * d), form_rows)
    part1 = Subspace(2 * d, tuple({i: ONE} for i in range(d)))
    part2 = Subspace(2 * d, tuple({d + i: ONE} for i in range(d)))
    return ManinTriple(ambient, part1, part2, name="bialgebra-double")


# ---------------------------------------------------------------------------
# Special linear root data and the worked triples


@dataclass(frozen=True)
class RootData:
    """A special linear algebra presented by root-space data: trace-form algebra,
    Cartan indices, and matched negative/positive root-vector indices with
    [E_-a, E_a] = H_a."""

    rank: int
    algebra: HomLieAlgebra
    cartan: tuple[int, ...]
    negatives: tuple[int, ...]
    positives: tuple[int, ...]


def special_linear_data(k: int) -> RootData:
    """Trace-form data of the rank k-1 special linear algebra, for an int k >= 2.

    Basis order: Cartan elements H_i = E_ii - E_(i+1)(i+1), then negative root
    vectors -E_ji, then positive root vectors E_ij (positive roots i < j in
    lexicographic order), so each matched pair satisfies [E_-a, E_a] = H_a.

    Lemma (matrix units).  E_ab E_cd = [b = c] E_ad.  So the commutator of two
    basis matrices, each a sum of at most two units, and the trace form
    tr(E_ab E_cd) = [b = c][a = d] are read off unit by unit.  The commutator's
    coordinates are its entries: an off-diagonal unit E_ij (i < j) is the
    root vector at its index, E_ji is minus the root vector -E_ji, and a
    traceless diagonal sum_r d_r E_rr equals sum_i (d_0 + ... + d_i) H_i, whose
    entry at r is the difference of consecutive partial sums, d_r, and at
    r = k-1 is -(d_0 + ... + d_(k-2)) = d_(k-1).
    """
    if type(k) is not int or k < 2:
        raise ValueError(f"k must be an int of at least 2, got {k!r}")
    roots = [(i, j) for i in range(k) for j in range(i + 1, k)]
    n_roots = len(roots)
    units = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(k - 1)]  # basis matrices as {(row, column): entry}
    units += [{(j, i): -1} for i, j in roots] + [{(i, j): 1} for i, j in roots]
    dim = len(units)
    root_index = {}  # off-diagonal unit -> (its root vector's index, the sign of the unit in it)
    for n, (i, j) in enumerate(roots):
        root_index[j, i], root_index[i, j] = (k - 1 + n, -1), (k - 1 + n_roots + n, 1)
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            commutator: dict[tuple[int, int], int] = {}
            for (r, s), x in units[a].items():
                for (t, u), y in units[b].items():
                    if s == t:
                        commutator[r, u] = commutator.get((r, u), 0) + x * y
                    if u == r:
                        commutator[t, s] = commutator.get((t, s), 0) - x * y
            coords, partial = {}, 0
            for i in range(k - 1):
                partial += commutator.get((i, i), 0)
                if partial:
                    coords[i] = partial
            for unit, v in commutator.items():
                if v and unit in root_index:
                    index, sign = root_index[unit]
                    coords[index] = sign * v
            if coords:
                brackets[a, b] = dict(sorted(coords.items()))
    trace_form = [[sum(x * y.get((s, r), 0) for (r, s), x in u.items()) for y in units] for u in units]
    algebra = HomLieAlgebra.create(dim, brackets, form=trace_form, name=f"sl{k}")
    return RootData(
        rank=k,
        algebra=algebra,
        cartan=tuple(range(k - 1)),
        negatives=tuple(range(k - 1, k - 1 + n_roots)),
        positives=tuple(range(k - 1 + n_roots, dim)),
    )


def lambda_st(data: RootData) -> SparseTensor:
    """The standard skew tensor (1/2) sum over positive roots of E_-a ^ E_a."""
    out = SparseTensor.zero(2, data.algebra.dim)
    half = Fraction(1, 2)
    for neg, pos in zip(data.negatives, data.positives):
        out.add_into((neg, pos), half)
        out.add_into((pos, neg), -half)
    return out


def hyperbolic_triple() -> ManinTriple:
    """Two-dimensional commutative quadratic algebra <p, q> = 1 split along p and q."""
    algebra = HomLieAlgebra.unchecked(2, {}, form=[[0, 1], [1, 0]], name="hyperbolic")
    return ManinTriple.of(algebra, [[1, 0]], [[0, 1]], name="hyperbolic")


def triple_g_plus_h(data: RootData) -> ManinTriple:
    """Ambient g + Cartan with form <x1,x2> - <y1,y2>; half 1 spanned by
    (E_a, 0) and (h, h), half 2 by (E_-a, 0) and (h, -h)."""
    g = data.algebra
    c = len(data.cartan)
    cartan_form = [[-g.form_rows[a].get(b, ZERO) for b in data.cartan] for a in data.cartan]
    abelian = HomLieAlgebra.unchecked(c, {}, form=cartan_form)
    ambient = direct_sum(g, abelian)
    d = g.dim
    part1_rows = [{p: ONE} for p in data.positives] + [{h: ONE, d + k: ONE} for k, h in enumerate(data.cartan)]
    part2_rows = [{n: ONE} for n in data.negatives] + [{h: ONE, d + k: -ONE} for k, h in enumerate(data.cartan)]
    return ManinTriple(ambient, _span(d + c, part1_rows), _span(d + c, part2_rows), name="g-plus-h")


def triple_double(data: RootData) -> ManinTriple:
    """Ambient g + g with form <x1,x2> - <y1,y2>; half 1 the diagonal, half 2
    spanned by (E_a, 0), (0, E_-a), and (h, -h)."""
    g = data.algebra
    ambient = direct_sum(g, negate_form(g))
    d = g.dim
    part1_rows = [{i: ONE, d + i: ONE} for i in range(d)]
    part2_rows = [{p: ONE} for p in data.positives] + [{d + n: ONE} for n in data.negatives]
    part2_rows += [{h: ONE, d + h: -ONE} for h in data.cartan]
    return ManinTriple(ambient, _span(2 * d, part1_rows), _span(2 * d, part2_rows), name="double")
