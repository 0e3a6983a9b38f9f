"""Iterated doubles of a split quadratic algebra: the n-fold alternating-sign
power built from its two Lagrangian chains (`manin._chain`, which the triple
certifier reads too), the snake reindexing that identifies the mn-fold power
with the n-fold power of the m-fold one, and the colored chain graphs that
encode both splittings."""
from __future__ import annotations

from dataclasses import dataclass

from .core import Permutation, Subspace
from .homlie import direct_sum, negate_form
from .manin import Chain, ManinTriple, _chain, _piece_rows, check_manin_isomorphism
from .reporting import CheckReport


def _require_count(name: str, value: int) -> None:
    """Raise unless value is an int (a bool is not) of at least 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def nuble(t: ManinTriple, n: int) -> ManinTriple:
    """The n-fold power: componentwise bracket and twist, alternating-sign form
    sum_j (-1)^(j+1) <a_j, a_j'>, split into the two diagonal chains of
    `_chain(n)`, whose pieces give the halves' rows.

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
    _require_count("n", n)
    h = t.algebra
    negated = negate_form(h)
    signs, halves = _chain(n)
    ambient = direct_sum(*(h if sign > 0 else negated for sign in signs))
    part1, part2 = (Subspace(n * h.dim, _piece_rows(t, pieces)) for pieces in halves)
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


def _carries(images: tuple[int, ...], source: Chain, target: Chain) -> bool:
    """Whether the slot permutation s -> images[s - 1] + 1 keeps every slot's
    sign and carries each half's pieces of source onto target's: an edge to
    the edge of its image slots, a label to its base half in its image slot."""
    (signs, halves), (target_signs, target_halves) = source, target
    move = lambda s: images[s - 1] + 1
    moved = tuple(tuple(sorted((*sorted((move(lo), move(hi))), k) for lo, hi, k in pieces)) for pieces in halves)
    return all(target_signs[j] == sign for j, sign in zip(images, signs)) and moved == target_halves


def verify_snake_iso(t: ManinTriple, m: int, n: int) -> CheckReport:
    """Certify that the snake map is an isomorphism of split quadratic algebras
    from the mn-fold power onto the n-fold power of the m-fold power, from the
    two powers' chains (`_chain`), building neither power.

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
    `nuble` builds the powers from these chains, so `_carries` certifies the
    snake.  If it fails, `check_manin_isomorphism` on both built powers names
    every failure."""
    perm = snake_permutation(m, n)  # checks m and n first, by name
    if t.algebra.form_rows is None:
        raise ValueError("algebra carries no bilinear form")
    if _carries(perm.images, _chain(m * n), _chain(n, _chain(m))):
        return CheckReport("manin_isomorphism", [])
    return check_manin_isomorphism(perm.columns(t.dim), nuble(t, m * n), uble_of_uble(t, m, n))


# ---------------------------------------------------------------------------
# Chain graphs


@dataclass(frozen=True)
class ChainVertex:
    """One graph vertex: the 1-based slot it occupies, its sign color, and its shape."""

    index: int
    color: str  # "open" (positive form sign) or "filled" (negative)
    shape: str  # "circle", "left-triangle" (first half), "right-triangle" (second half)


@dataclass(frozen=True)
class ChainGraph:
    """Vertices and edges of both splitting chains of the n-fold power."""

    n: int
    vertices: tuple[ChainVertex, ...]
    edges: tuple[tuple[int, int], ...]


def render_graph(n: int) -> ChainGraph:
    """The colored chain diagram of the n-fold power, read from `_chain(n)`:
    circles for the full-algebra slots, colored by sign, triangles where a
    label puts a bare half in a slot, and both halves' edges."""
    _require_count("n", n)
    signs, halves = _chain(n)
    color = lambda s: "open" if signs[s - 1] > 0 else "filled"
    vertices = [ChainVertex(s, color(s), "circle") for s in range(1, n + 1)]
    labels = {k: s for pieces in halves for s, _, k in pieces if k}
    for k, shape in ((2, "right-triangle"), (1, "left-triangle")):
        vertices.append(ChainVertex(labels[k], color(labels[k]), shape))
    edges = sorted((lo, hi) for pieces in halves for lo, hi, k in pieces if not k)
    return ChainGraph(n, tuple(vertices), tuple(edges))


def chain_graph_dot(g: ChainGraph) -> str:
    """Deterministic DOT text: circle nodes u<j>, triangle nodes for the bare
    halves, style=filled on every negative-sign vertex."""
    lines = ["graph chains {"]
    for v in g.vertices:
        if v.shape == "circle":
            node, label = f"u{v.index}", f"u{v.index}"
            shape = "circle"
        elif v.shape == "right-triangle":
            node, label = f"hp{v.index}", "h'"
            shape = "triangle"
        else:
            node, label = f"h{v.index}", "h"
            shape = "triangle"
        style = ' style=filled' if v.color == "filled" else ""
        lines.append(f'  {node} [label="{label}" shape={shape}{style}];')
    for (a, b) in g.edges:
        lines.append(f"  u{a} -- u{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
