"""Twisted classical Yang-Baxter machinery: the residual map, the sharp map of a
degree-2 tensor, invariance of the symmetric part, the graded bracket on
low-degree multivectors, and the quasi-triangularity classifier."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import (
    SparseTensor,
    ONE,
    _common_denominator,
    _eliminated,
    _numerators,
    _pack,
    _pivot_numerators,
    _rank,
    _signed_fields,
    _symmetric_sums,
    _unit_columns,
    is_antisymmetric,
    is_symmetric,
)
from .homlie import HomLieAlgebra, _accumulate, _ad_basis, _ad_sums, _bracket_sums, _by_slot, _pair_brackets, _phi_fixed
from .homlie import _brackets_outside, _require_tensor, check_involutive
from .reporting import CheckReport, failure


def hcyb(h: HomLieAlgebra, r: SparseTensor) -> SparseTensor:
    """The twisted Yang-Baxter residual of a degree-2 tensor r = sum_i x_i (x) y_i:
    sum_ij [x_i,x_j] (x) phi(y_i) (x) phi(y_j) + phi(x_i) (x) [y_i,x_j] (x) phi(y_j)
    + phi(x_i) (x) phi(x_j) (x) [y_i,y_j].

    Each term (s, t, pos) brackets slot s of one entry with slot t of another
    into position pos, and phi acts on the two slots left over; so the entries
    are read from r with phi applied to the slot that is not bracketed.  The
    pairs of entries are enumerated from the bracket keys (i, j), in both
    orders, through those entries indexed by slot: pairs that meet no key
    cost nothing.

    The sums are of integer numerators over den_r^2 * den_c, the denominators
    of `_by_slot` and of the bracket table, and they are kept by rows: row
    (a, b) of the residual is one int, the sum over c of its field c times
    2^(W*c).  Slot-0 entries (w, x) indexed at j are packed the same way into
    S0[j] = sum x 2^(W*w), and a key's coefficients (k, c) into
    C[i, j] = sum c 2^(W*k).  So the three positions add whole rows to one
    accumulator: for a coefficient (k, c) and a first entry (u, v), position 0
    adds c*v*S0[j] to row (k, u) and position 1 adds c*v*S0[j] to row (u, k);
    for first and second entries (u, v) and (w, x), position 2 adds
    v*x*C[i, j] to row (u, w).  One int add stands for the terms over the
    packed index: w in positions 0 and 1, k in position 2.

    Lemma (position 2 needs each key once).  The table stores the key (j, i)
    as the negative of (i, j), and position 2 reads slot 1 for both entries.
    So for first and second entries (u, v) in slot 1 at i and (w, x) in
    slot 1 at j, the key (j, i) adds -v*x*C[i, j] to row (w, u) exactly when
    (i, j) adds v*x*C[i, j] to row (u, w).  Each stored key i < j is summed
    once, into an accumulator H over rows (u, w), and row (u, w) of the
    residual gets H(u, w) - H(w, u); on the diagonal u = w the two cancel
    exactly, so it gets nothing.  Every row is the same int as when both
    orders are summed, so the bound and the decoding below do not change.

    Bound.  Let B be the sum, over keys and positions, of
    sum|c| * sum|v| * sum|x|, the coefficients of the key and the numerators
    of its first and second entries; B is the sum of |term| over all terms,
    so it bounds every field's total, and with W = bitlen(B) + 1 each row
    decodes uniquely by `core._signed_fields`.

    Only the nonzero rows are decoded, in increasing (a, b), and the decoder
    gives each row's fields in increasing c, so the entries come in
    increasing index order; a residual that cancels, as for a canonical r,
    decodes nothing.  Those entries are valid as built, so the residual is
    made by `SparseTensor._of_checked`, with no second check."""
    _require_tensor(h, r)
    (slot0, slot1), den_r = _by_slot(h, r)
    den_c, table = h._bracket_numerators
    d = h.dim
    mass0 = {j: sum([abs(x) for _, x in es]) for j, es in slot0.items()}.get
    mass1 = {j: sum([abs(x) for _, x in es]) for j, es in slot1.items()}.get
    bound = 0
    for (i, j), cs in table.items():
        # positions 0, 1 and 2 pair first entries of slots 0, 1, 1 with second ones of slots 0, 0, 1
        weight = (mass0(i, 0) + mass1(i, 0)) * mass0(j, 0) + mass1(i, 0) * mass1(j, 0)
        if weight:
            bound += weight * sum([abs(c) for _, c in cs])
    width = bound.bit_length() + 1
    packed0 = {j: _pack(es, width) for j, es in slot0.items()}
    rows: dict[int, int] = {}
    get = rows.get
    for (i, j), cs in table.items():  # positions 0 and 1, each key in both orders
        packed = packed0.get(j)
        if packed:
            first0, first1 = slot0.get(i, ()), slot1.get(i, ())
            for k, c in cs:
                cp, kd = c * packed, k * d
                for u, v in first0:  # position 0: row (k, u)
                    row = kd + u
                    rows[row] = get(row, 0) + v * cp
                for u, v in first1:  # position 1: row (u, k)
                    row = u * d + k
                    rows[row] = get(row, 0) + v * cp
    # position 2: see the lemma; each key i < j once, into rows (u, w) of `half`
    half: dict[int, int] = {}
    hget = half.get
    for i, j in h.brackets:
        first1, second1 = slot1.get(i), slot1.get(j)
        if first1 and second1:
            coefficients = _pack(table[i, j], width)
            for u, v in first1:
                vc, ud = v * coefficients, u * d
                for w, x in second1:
                    row = ud + w
                    half[row] = hget(row, 0) + x * vc
    for row, n in half.items():
        u, w = divmod(row, d)
        if n and u != w:
            mirror = w * d + u
            rows[row], rows[mirror] = get(row, 0) + n, get(mirror, 0) - n
    den = den_r * den_r * den_c
    entries = {}
    for row in sorted(row for row, n in rows.items() if n):
        a, b = divmod(row, d)
        for c, value in _signed_fields(rows[row], width, den):
            entries[a, b, c] = value
    return SparseTensor._of_checked(3, d, entries)


def cyb(h: HomLieAlgebra, r: SparseTensor) -> SparseTensor:
    """The untwisted Yang-Baxter residual: the same map with the twist replaced by Id.

    Lemma (the identity-twist copy needs no check).  h passed the
    constructor's check when it was built, and the copy keeps its bracket
    table and form; the identity's columns {i: 1} are square, in range and
    nonzero.  So, as in `direct_sum`, the copy is built without re-checking,
    and its twist is the identity."""
    if not h.untwisted:
        h = HomLieAlgebra._of_checked(h.dim, h.brackets, _unit_columns(h.dim), h.form_rows, untwisted=True)
    return hcyb(h, r)


def _sharp_sums(h: HomLieAlgebra, t: SparseTensor) -> tuple[int, list[dict[int, int]]]:
    """(den, cols): column c of t# is {b: n / den} over cols[c].items(), the
    integer stage of `_sharp_columns`.  Column c is sum_ab t_ab phi[c][a] e_b,
    read from column a of phi, over den = den_t * den_phi, the denominators
    of t and of the twist; a total that cancels is dropped as it goes.

    >>> h = HomLieAlgebra.unchecked(2, {}, phi=[[0, Fraction(1, 2)], [1, 0]])
    >>> _sharp_sums(h, SparseTensor(2, 2, {(0, 1): Fraction(1, 3), (1, 1): ONE}))
    (6, [{1: 3}, {1: 2}])
    """
    den_t, numerators = _common_denominator(list(t.entries.values()))
    den_p, phi = _numerators(h.phi_columns)
    cols: list[dict[int, int]] = [{} for _ in range(h.dim)]
    for (a, b), n in zip(t.entries, numerators):
        for c, p in phi[a].items():
            _accumulate(cols[c], b, n * p)
    return den_t * den_p, cols


def _sharp_columns(h: HomLieAlgebra, t: SparseTensor) -> list[dict[int, Fraction]]:
    """Sparse columns of t#: xi -> sum_ab t_ab <phi* xi, e_a> e_b, summed by
    `_sharp_sums`, each nonzero total divided once."""
    den, cols = _sharp_sums(h, t)
    return [{b: Fraction(n, den) for b, n in col.items()} for col in cols]


def _s_sharp_sums(h: HomLieAlgebra, s: SparseTensor) -> tuple[int, list[dict[int, int]]]:
    """(den, cols): the symmetric part's sharp map in integer columns, by
    `_sharp_sums`, after checking s."""
    _require_tensor(h, s)
    if not is_symmetric(s):
        raise ValueError("sharp of the symmetric part needs a symmetric tensor")
    return _sharp_sums(h, s)


def check_hom_ad_invariant(h: HomLieAlgebra, s: SparseTensor) -> CheckReport:
    """Invariance of the symmetric part: for every basis x,
    ad_x s = sum_i [x, x_i] (x) phi(y_i) + phi(x_i) (x) [x, y_i] = 0, each
    nonzero ad_x s from `_ad_basis` reported at its basis index."""
    _require_tensor(h, s)
    failures = [
        failure("hom_ad_invariant", (k,), SparseTensor(2, h.dim, w)) for k, w in sorted(_ad_basis(h, s).items())
    ]
    return CheckReport("hom_ad_invariant", failures)


# ---------------------------------------------------------------------------
# Graded bracket on multivectors of degree <= 3


def _is_antisymmetric3(t: SparseTensor) -> bool:
    for (i, j, k), v in t.entries.items():
        if len({i, j, k}) < 3:
            return False
        if t.get((j, i, k)) != -v or t.get((i, k, j)) != -v or t.get((j, k, i)) != v:
            return False
        if t.get((k, i, j)) != v or t.get((k, j, i)) != -v:
            return False
    return True


def _wedge_into(out: dict, t2: Mapping[tuple[int, int], int], v: Mapping[int, int], coeff: int) -> None:
    """Add coeff * (t2 ^ v) to a degree-3 sum of integer numerators, for an
    antisymmetric t2 and a vector v, both sparse in integer numerators: each
    term coeff * t2_ab * v_c, a < b, at the six slot orders of (a, b, c),
    signed by their parity, in the order (a, b, c), (b, c, a), (c, a, b),
    (b, a, c), (a, c, b), (c, b, a); a total that cancels is dropped as it
    goes.

    >>> out = {}
    >>> _wedge_into(out, {(0, 1): 2, (1, 0): -2}, {2: 3, 0: 1}, -1)
    >>> out
    {(0, 1, 2): -6, (1, 2, 0): -6, (2, 0, 1): -6, (1, 0, 2): 6, (0, 2, 1): 6, (2, 1, 0): 6}
    """
    for (a, b), x in t2.items():
        if a < b:  # each unordered pair once; the (b, a) entry is its negative
            for c, y in v.items():
                n = coeff * x * y
                for index, m in (
                    ((a, b, c), n), ((b, c, a), n), ((c, a, b), n),
                    ((b, a, c), -n), ((a, c, b), -n), ((c, b, a), -n),
                ):
                    total = out.get(index, 0) + m
                    if total:
                        out[index] = total
                    else:
                        del out[index]


def _bracket_1_2(
    h: HomLieAlgebra, x: Mapping[int, Fraction], t2: SparseTensor
) -> tuple[int, dict[tuple[int, int], int]]:
    """(den, sums): [[x, t2]] = sum_k x_k ad_k t2 = {index: n / den} over
    sums.items(), over the support of x: the actions ad_k of `_ad_sums`
    times x's numerators, den = den_x * den_ad, a total that cancels dropped
    as it goes.  On e_1 ^ e_2 of sl2, (1/2) e_1 gives (1/2) e_1 ^ [e_1, e_2]:

    >>> _bracket_1_2(sl2_lie(), {1: Fraction(1, 2)}, SparseTensor(2, 3, {(1, 2): 1, (2, 1): -1}))
    (2, {(0, 1): -1, (1, 0): 1})
    """
    den_x, (xs,) = _numerators([x])
    den_ad, actions = _ad_sums(h, t2, x.keys())
    sums: dict[tuple[int, int], int] = {}
    for k, w in actions.items():
        xk = xs[k]
        for index, n in w.items():
            _accumulate(sums, index, xk * n)
    return den_x * den_ad, sums


def _divided(degree: int, dim: int, den: int, sums: dict[tuple[int, ...], int]) -> SparseTensor:
    """The tensor {index: n / den} of nonzero integer numerators, one Fraction
    per entry.  The indices are read from tensors of the same degree and dim
    and the values are nonzero Fractions, so it is built by
    `SparseTensor._of_checked`."""
    return SparseTensor._of_checked(degree, dim, {index: Fraction(n, den) for index, n in sums.items()})


def hom_schouten(h: HomLieAlgebra, a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """Graded bracket of antisymmetric multivectors for degree pairs
    (1,1), (1,2), (2,1), (2,2), (1,3), (3,1); larger pairs are rejected.

    [[A, x]] = -[[x, A]] for a vector x; the rest is read from the twisted
    adjoint actions ad_k of `_ad_sums`, phi from its sparse columns:
    [[x, B]] = sum_k x_k ad_k B, which is [x, e_p] ^ phi(e_q) + phi(e_p) ^ [x, e_q] on e_p ^ e_q,
    [[A, e_p ^ e_q]] = [[A, e_p]] ^ phi(e_q) - [[A, e_q]] ^ phi(e_p) with [[A, e_p]] = -ad_p A, and
    [[x, e_p ^ e_q ^ e_r]] = [[x, e_p ^ e_q]] ^ phi(e_r) + phi(e_p) ^ phi(e_q) ^ [x, e_r].

    The sums are of integer numerators: the actions', phi's columns' and
    B's entries' over their denominators, each degree-3 term added at its six
    signed slot orders by `_wedge_into`; one Fraction is built per nonzero
    entry of the result."""
    if a.dim != h.dim or b.dim != h.dim:
        raise ValueError("multivector dimension mismatch")
    if a.degree >= 2 and not (is_antisymmetric(a) if a.degree == 2 else _is_antisymmetric3(a)):
        raise ValueError("first argument is not antisymmetric")
    if b.degree >= 2 and not (is_antisymmetric(b) if b.degree == 2 else _is_antisymmetric3(b)):
        raise ValueError("second argument is not antisymmetric")
    pair = (a.degree, b.degree)
    if pair not in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        raise ValueError(f"degree pair {pair} is not supported")
    if a.degree > b.degree == 1:
        return -hom_schouten(h, b, a)
    vector = lambda t: {i: x for (i,), x in t.entries.items()}
    if pair == (1, 1):
        xy = _pair_brackets(h, [vector(a), vector(b)]).get((0, 1), {})
        return SparseTensor(1, h.dim, {(k,): v for k, v in xy.items()})
    if pair == (1, 2):
        return _divided(2, h.dim, *_bracket_1_2(h, vector(a), b))
    den_p, phi = _numerators(h.phi_columns)
    den_b, values = _common_denominator(list(b.entries.values()))
    out: dict[tuple[int, int, int], int] = {}
    if pair == (1, 3):
        x = vector(a)
        # [x, e_r] for the third indices r of B, from one kernel call, over den_e = den_x^2 * den_c
        rs = sorted({r for p, q, r in b.entries if p < q < r})
        den_e, pairs = _bracket_sums(h, [x, *({r: ONE} for r in rs)])
        x_e = {r: pairs.get((0, 1 + n), {}) for n, r in enumerate(rs)}
        # [[x, e_p ^ e_q]] is over den_x * den_t * den_c, den_t (that of `_by_slot`) 1 or den_phi,
        # and phi(e_p) ^ phi(e_q) over den_phi^2: both terms are brought to den = den_e * den_phi^2
        den = den_e * den_p * den_p
        for (p, q, r), v in zip(b.entries, values):
            if p < q < r:
                pq = SparseTensor(2, h.dim, {(p, q): ONE, (q, p): -ONE})
                den_1, inner = _bracket_1_2(h, x, pq)
                _wedge_into(out, inner, phi[r], v * (den // (den_1 * den_p)))
                square: dict[tuple[int, int], int] = {}  # (phi (x) phi)(e_p ^ e_q)
                for i, j, sign in ((p, q, 1), (q, p, -1)):
                    for k, y in phi[i].items():
                        for m, z in phi[j].items():
                            _accumulate(square, (k, m), sign * y * z)
                _wedge_into(out, square, x_e[r], v)
        return _divided(3, h.dim, den * den_b, out)
    # [[A, e_p]] = -ad_p A, from one kernel call over the indices p of B
    den_ad, ad_a = _ad_sums(h, a, {i for idx in b.entries for i in idx})
    for (p, q), v in zip(b.entries, values):
        if p < q:
            _wedge_into(out, ad_a.get(p, {}), phi[q], -v)
            _wedge_into(out, ad_a.get(q, {}), phi[p], v)
    return _divided(3, h.dim, den_ad * den_p * den_b, out)


# ---------------------------------------------------------------------------
# Classification and cross-checks


@dataclass(frozen=True)
class RMatrixReport:
    """Classification of a candidate r: twist-fixedness, invariance of the
    symmetric part, the exact residual, the verdict, and factorizability."""

    phi_fixed: bool
    s_invariant: bool
    hcyb_residual: SparseTensor
    verdict: str  # "quasi-triangular" | "skew-only" | "fails"
    factorizable: bool


def _lagrangian_legs(d: int, numerators: Mapping[tuple[int, int], int]) -> tuple[dict, dict] | None:
    """(g1, g2), the leg spaces of r read from its integer numerators,
    {(a, b): r_ab * den_r}, as the primitive int rows that `core._eliminated`
    keeps, {pivot: row}; None unless dim g1 = d/2.  g1 is the span of the rows
    of r's matrix A (A[a][b] = r_ab, the second-slot vectors), and g2 that of
    its columns (the first-slot vectors), eliminated only at g1's pivots (see
    `check_quasi_triangular`'s pivot-column lemma).  A scale does not move a
    span, so nothing is divided."""
    rows: dict[int, dict[int, int]] = {}
    for (a, b), n in numerators.items():
        rows.setdefault(a, {})[b] = n
    g1 = _eliminated(rows.values())
    if 2 * len(g1) != d:
        return None
    columns: dict[int, dict[int, int]] = {p: {} for p in g1}
    for (a, b), n in numerators.items():
        column = columns.get(b)
        if column is not None:
            column[a] = n
    return g1, _eliminated(columns.values())


def check_quasi_triangular(h: HomLieAlgebra, r: SparseTensor) -> RMatrixReport:
    """Classify r: quasi-triangular when the residual vanishes, the symmetric part
    is invariant, and phi(x)phi(y)-fixedness holds; skew-only when additionally the
    symmetric part is zero; fails otherwise.

    r's entries are read once, as integer numerators over their one common
    denominator den.  The symmetric part s = (r + r^T)/2 is kept as the
    int-valued tensor 2 den s from `core._symmetric_sums`, and each test of s
    reads it, since each is scale-free: s is invariant when every action of
    `_ad_sums` on it is empty, and zero ("skew-only") when it is empty.  s is
    symmetric and over h by construction, so the checks of `_s_sharp_sums`
    are not repeated, and no failure tensor is built for a lack of
    invariance, which the report states as a flag.

    s is factorizable when its sharp map has full rank.  On an untwisted
    algebra with s nonzero the legs g1 and g2 of r are eliminated first
    (`_lagrangian_legs`), in r's numerators; where dim g1 = d/2, the rank is
    read off them by the rank-d/2 lemma below, one elimination of their d
    kept rows together.  Anywhere else it is `_rank` of the sharp map's
    integer columns (`_sharp_sums`).

    Before `hcyb` runs, the residual is read off r itself where the double
    lemma below applies, closure being `_brackets_outside` (the closure test
    of `manin._part_report`) on each leg's kept rows against their canonical
    rows in numerators (`core._pivot_numerators`), tested at any scale by
    `core._in_span`: then it is the empty degree-3 tensor, and the report is
    the one `hcyb` would give.  Anywhere else `hcyb` sums it, as for any r.
    So a passing classification of an untwisted r that the lemma certifies
    runs two eliminations of r and one of the legs, and builds no Fraction.

    Lemma (pivot columns).  Each row of A lies in g1, and the kept rows K_p
    of g1 vanish at each other's pivots p, so row a of A is
    sum_p (A[a][p] / K_p[p]) K_p: A = C K, with C the columns of A at the
    pivots, each scaled.  So A's column space, g2, is the span of the
    dim g1 columns of A at g1's pivots, and only those are eliminated.

    Lemma (factorizability at rank d/2).  Let phi = Id, so that the columns
    of S# are the rows of S = r + r_21 = A + A^T, and rank A = d/2.  With U
    and W the d x d/2 matrices whose columns are bases of g2 and g1,
    A = U M W^T for an invertible M, and taking M into U,
    S = U W^T + W U^T = [U W] [[0, I], [I, 0]] [U W]^T.  The middle factor is
    invertible, so S is nondegenerate exactly when [U W] is, that is, when
    g1 (+) g2 = V: when the d kept rows of g1 and g2 together have rank d.

    Lemma (the double; Drinfeld 1983, Semenov-Tian-Shansky, "What is a
    classical r-matrix?", 1983).  Let phi = Id, S = r + r_21 = 2s invariant and
    nondegenerate, and g1 (the span of r's second-slot vectors) and g2 (that
    of its first-slot vectors) both of dimension d/2 and closed under the
    bracket.  Then r solves the classical Yang-Baxter equation, so its
    residual is zero.
    - Each column of S is a column of r's matrix plus a row, so Im S lies in
      g1 + g2; S is nondegenerate, so g1 + g2 = d, and with the dimensions
      d = g1 (+) g2.
    - r lies in g2 (x) g1, so S = r + r_21 has no g1 (x) g1 and no
      g2 (x) g2 part.  So S#, read as a map from covectors, sends the
      annihilator of g1 into g1 and that of g2 into g2, onto each by the
      dimensions; for B = S^-1, B(S#xi, S#eta) = <xi, S#eta>, which is 0
      when xi and eta both annihilate the same half.  So both halves are
      Lagrangian for B.  B is invariant because S is: ad_x S + S ad_x^T = 0
      gives B ad_x + ad_x^T B = 0, and with B symmetric and the bracket
      antisymmetric, B([x, y], z) = B(x, [y, z]).
    - So (d, B, g1, g2) is a Manin triple, S is the Casimir element of B,
      and r, its g2 (x) g1 part, is the canonical element sum_i xi_i (x) x_i
      over dual bases x_i of g1 and xi_i of g2.  Expanding [xi_i, xi_j] in
      g2, [x_i, x_j] in g1 and [x_i, xi_j] over both bases, the residual's
      coefficient of xi_a (x) x_b (x) x_c is
      B([xi_b, xi_c], x_a) + B([x_a, xi_c], xi_b), that of
      xi_a (x) xi_b (x) x_c is B([x_a, xi_c], x_b) + B([x_a, x_b], xi_c), and
      no other occurs; invariance and antisymmetry cancel both.
    The proof uses antisymmetry of the bracket, which the table stores by
    construction, and invariance, closure and the dimensions; not the Jacobi
    identity, which no part of this report checks.  It says nothing on a
    non-identity twist (ROADMAP item 7 leaves the canonical element of a
    twisted triple open), and nothing when a hypothesis fails: then `hcyb`
    decides, whatever the lemma's converse."""
    _require_tensor(h, r)
    d = h.dim
    numerators = dict(zip(r.entries, _common_denominator(list(r.entries.values()))[1]))
    twice = SparseTensor._of_checked(2, d, _symmetric_sums(numerators))  # 2 den s
    phi_fixed = _phi_fixed(h, r)
    s_invariant = not any(_ad_sums(h, twice)[1].values())
    legs = _lagrangian_legs(d, numerators) if h.untwisted and not twice.is_zero else None
    if twice.is_zero:
        factorizable = False
    elif legs is None:
        factorizable = _rank(_sharp_sums(h, twice)[1]) == d
    else:
        factorizable = len(_eliminated([*legs[0].values(), *legs[1].values()])) == d
    if (
        legs is not None
        and s_invariant
        and factorizable
        and not any(_brackets_outside(h, list(g.values()), _pivot_numerators(g)) for g in legs)
    ):
        residual = SparseTensor.zero(3, d)
    else:
        residual = hcyb(h, r)
    ok = phi_fixed and s_invariant and residual.is_zero
    if not ok:
        verdict = "fails"
    elif twice.is_zero:
        verdict = "skew-only"
    else:
        verdict = "quasi-triangular"
    return RMatrixReport(phi_fixed, s_invariant, residual, verdict, factorizable)


def hcyb_pairing_check(h: HomLieAlgebra, r: SparseTensor) -> CheckReport:
    """Exact identity check: the residual paired with xi (x) eta (x) zeta equals
    <xi,[r-(eta),r-(zeta)]> + <eta,[r-(zeta),r+(xi)]> + <zeta,[r+(xi),r+(eta)]>.
    Both sides are trilinear, so they are compared as tensors, on every basis
    triple (a, b, c); a failure names it with the exact difference there.  Needs
    an involutive twist fixing r; otherwise inapplicable.  r+ is the sharp map
    of r and r- that of -swap(r).  The right side comes from one `_pair_brackets`
    call over the columns m_b = r-(e_b) and p_a = r+(e_a): at (a, b, c) it is
    [m_b, m_c]_a + [m_c, p_a]_b + [p_a, p_b]_c."""
    _require_tensor(h, r)
    if not check_involutive(h):
        return CheckReport("hcyb_pairing", applicable=False, reason="twist is not involutive")
    if not _phi_fixed(h, r):
        return CheckReport("hcyb_pairing", applicable=False, reason="r is not fixed by the twist")
    d = h.dim
    rhs = SparseTensor.zero(3, d)
    # vectors 0..d-1 are the columns of r-, vectors d..2d-1 those of r+
    for (u, v), w in _pair_brackets(h, [*_sharp_columns(h, -r.swap()), *_sharp_columns(h, r)]).items():
        for k, x in w.items():
            if v < d:  # [m_u, m_v]
                rhs.add_into((k, u, v), x)
                rhs.add_into((k, v, u), -x)
            elif u < d:  # [m_u, p_(v-d)]
                rhs.add_into((v - d, k, u), x)
            else:  # [p_(u-d), p_(v-d)]
                rhs.add_into((u - d, v - d, k), x)
                rhs.add_into((v - d, u - d, k), -x)
    difference = hcyb(h, r) - rhs
    failures = [failure("pairing", index, value) for index, value in difference.items()]
    return CheckReport("hcyb_pairing", failures)


def additivity_check(h: HomLieAlgebra, lam: SparseTensor, s: SparseTensor) -> CheckReport:
    """Residual splits over skew + symmetric parts when the symmetric part is
    invariant and the sum is twist-fixed; otherwise inapplicable."""
    _require_tensor(h, lam)
    _require_tensor(h, s)
    if not is_antisymmetric(lam):
        raise ValueError("first argument must be antisymmetric")
    if not is_symmetric(s):
        raise ValueError("second argument must be symmetric")
    if not check_hom_ad_invariant(h, s).passed:
        return CheckReport(
            "hcyb_additivity", applicable=False, reason="symmetric part is not invariant"
        )
    total = lam + s
    if not _phi_fixed(h, total):
        return CheckReport(
            "hcyb_additivity", applicable=False, reason="sum is not fixed by the twist"
        )
    residual = hcyb(h, total) - hcyb(h, lam) - hcyb(h, s)
    failures = [] if residual.is_zero else [failure("additivity", None, residual)]
    return CheckReport("hcyb_additivity", failures)


# ---------------------------------------------------------------------------
# The worked three-dimensional example


# [e1,e2] = -2e2, [e1,e3] = 2e3, [e2,e3] = e1: the bracket of both sl2 examples.
_SL2_BRACKETS = {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: 1}}


def sl2_twisted() -> HomLieAlgebra:
    """Three-dimensional simple algebra [e1,e2]=-2e2, [e1,e3]=2e3, [e2,e3]=e1
    with the involutive twist diag(1, -1, -1)."""
    return HomLieAlgebra.create(3, _SL2_BRACKETS, phi=[[1, 0, 0], [0, -1, 0], [0, 0, -1]], name="sl2-twisted")


def sl2_lie() -> HomLieAlgebra:
    """The same bracket with the identity twist (the untwisted case)."""
    return HomLieAlgebra.create(3, _SL2_BRACKETS, name="sl2")


def sl2_r() -> SparseTensor:
    """The worked candidate r = e2 (x) e3 + (1/4) e1 (x) e1."""
    return SparseTensor.from_entries(2, 3, {(1, 2): 1, (0, 0): Fraction(1, 4)})
