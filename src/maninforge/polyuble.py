"""Iterated doubles of a split quadratic algebra: the n-fold alternating-sign
power built from its two Lagrangian chains (the `manin.Chain` of the power,
which the triple certifier reads too, and whose colored graph `Chain.dot`
prints), and the snake reindexing that identifies the mn-fold power with the
n-fold power of the m-fold one."""
from __future__ import annotations

from .core import Permutation, Subspace
from .homlie import direct_sum, negate_form
from .manin import Chain, ManinTriple, _require_count, check_manin_isomorphism
from .reporting import CheckReport


def nuble(t: ManinTriple, n: int) -> ManinTriple:
    """The n-fold power: componentwise bracket and twist, alternating-sign form
    sum_j (-1)^(j+1) <a_j, a_j'>, split into the two diagonal chains of
    `Chain.BASE.power(n)`, whose pieces give the halves' rows (`Chain.rows`).

    Lemma (the halves need no elimination).  A half's pieces lie on disjoint
    slots, in slot order.  Edge row i of (s, s+1) has pivot lo+i, entry 1,
    and one more entry, at lo+d+i in slot s+1, where no other row is nonzero;
    the base rows are canonical, shifted.  So the rows, in the order built,
    are the half's reduced echelon basis.  The `Subspace` constructor checks
    all of this, so a wrong lemma raises.

    Lemma (the power of a triple is a triple).  Bracket and twist act slot by
    slot, the form is the base's times each slot's sign, and each half is the
    sum of its pieces on disjoint slots, edges joining slots of opposite
    sign.  So the power passes every check exactly when the base does, for
    every n; `manin.check_manin_triple` states the lemma check by check, and
    certifies a power that `manin._power_base` reads from its stored data by
    certifying the base."""
    chain = Chain.BASE.power(n)  # checks n first, by name
    h = t.algebra
    negated = negate_form(h)
    ambient = direct_sum(*(h if sign > 0 else negated for sign in chain.signs))
    part1, part2 = (Subspace(n * h.dim, chain.rows(t, half)) for half in (1, 2))
    return ManinTriple(ambient, part1, part2, name=f"{t.name or 'triple'}^{n}")


def uble_of_uble(t: ManinTriple, m: int, n: int) -> ManinTriple:
    """The n-fold power of the m-fold power, by literal composition."""
    _require_count("m", m)
    _require_count("n", n)
    return nuble(nuble(t, m), n)


def snake_permutation(m: int, n: int) -> Permutation:
    """Where each of the mn source slots lands when the flat chain is folded into
    an n-row, m-column boustrophedon: column c reads downward for odd c and upward
    for even c; the slot at (row r, column c) flattens to (r-1)m + c.

    >>> snake_permutation(2, 2).images  # slots 1..4 -> (1,1),(2,1),(2,2),(1,2)
    (0, 2, 3, 1)
    """
    _require_count("m", m)
    _require_count("n", n)
    # Source slot c*n + j (0-based) is row j of column c, read upward in odd columns.
    return Permutation(tuple((n - 1 - j if c % 2 else j) * m + c for c in range(m) for j in range(n)))


def verify_snake_iso(t: ManinTriple, m: int, n: int) -> CheckReport:
    """Certify that the snake map is an isomorphism of split quadratic algebras
    from the mn-fold power onto the n-fold power of the m-fold power, from the
    two powers' `Chain`s, `Chain.BASE.power(mn)` and
    `Chain.BASE.power(m).power(n)`, building neither power.

    Lemma (a block relabelling is certified by the chains).  Let sigma move
    the block of each slot of one power of t, unchanged, to a slot of another.
    - Bracket and twist.  Both powers act componentwise, by t's bracket and
      twist in every slot, so sigma keeps both.
    - Form.  Each power's form is t's form times the slot's sign, block by
      block.  So sigma keeps the form when it keeps every slot's sign (and
      only then, for a nonzero form).
    - Halves.  Each half is the direct sum of its pieces, which lie on
      disjoint slots: sigma maps it onto its mate when it maps pieces onto
      pieces (and only then, for distinct nonzero base halves, since the
      pieces are the blocks of that sum).  An edge's rows are symmetric in
      its two slots, so the edge goes to the edge of its image slots.
    `nuble` builds the powers from these chains, so the snake is certified
    when `Chain.moved` carries the flat chain onto the nested one.  If it
    does not, `check_manin_isomorphism` on both built powers names every
    failure."""
    perm = snake_permutation(m, n)  # checks m and n first, by name
    if t.algebra.form_rows is None:
        raise ValueError("algebra carries no bilinear form")
    if Chain.BASE.power(m * n).moved(perm.images) == Chain.BASE.power(m).power(n):
        return CheckReport("manin_isomorphism", [])
    return check_manin_isomorphism(perm.columns(t.dim), nuble(t, m * n), uble_of_uble(t, m, n))
