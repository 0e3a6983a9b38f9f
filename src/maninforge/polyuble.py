"""Iterated doubles of a split quadratic algebra: the n-fold alternating-sign
power with its two Lagrangian chains, the snake reindexing that identifies the
mn-fold power with the n-fold power of the m-fold one, and the colored chain
graphs that encode both splittings."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import ONE, Permutation, Subspace
from .homlie import direct_sum, negate_form
from .manin import ManinTriple, _relabels, check_manin_isomorphism
from .reporting import CheckReport


def _edge_rows(d: int, s: int) -> list[dict[int, Fraction]]:
    """Sparse diagonal rows joining ambient slots s and s+1 (1-based slots, block size d)."""
    lo = (s - 1) * d
    return [{lo + i: ONE, lo + d + i: ONE} for i in range(d)]


def _embed_rows(d: int, s: int, part: Subspace) -> list[dict[int, Fraction]]:
    """The stored rows of a subspace of the base, in Fractions, placed into ambient slot s (1-based)."""
    offset = (s - 1) * d
    return [{offset + i: x if type(x) is Fraction else Fraction(x) for i, x in row.items()} for row in part.echelon]


def _require_count(name: str, value: int) -> None:
    """Raise unless value is an int (a bool is not) of at least 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def nuble(t: ManinTriple, n: int) -> ManinTriple:
    """The n-fold power: componentwise bracket and twist, alternating-sign form
    sum_j (-1)^(j+1) <a_j, a_j'>, split into the two diagonal chains.

    Lemma (the halves need no elimination).  A half's edges (s, s+1) all
    have s of one parity, so no two share a slot, and its base rows sit in the
    one slot that its edges leave free, in slot order with them.  Edge row i
    of (s, s+1) has pivot lo+i, entry 1, and one more entry, at lo+d+i in
    slot s+1, where no other row is nonzero; the base rows are canonical,
    shifted.  So the rows, in the order built, are the half's reduced echelon
    basis.  The `Subspace` constructor checks all of this, so a wrong lemma
    raises."""
    _require_count("n", n)
    h = t.algebra
    d = h.dim
    negated = negate_form(h)
    copies = [negated if j % 2 else h for j in range(n)]
    ambient = direct_sum(*copies)
    # Edge (s, s+1) joins slots s and s+1: odd s in the first chain, even s in
    # the second.  The base's second half fills slot 1; its first half fills
    # slot n, in the chain whose edges leave slot n free.
    part1_rows = [row for s in range(1, n, 2) for row in _edge_rows(d, s)]
    part2_rows = _embed_rows(d, 1, t.part2) + [row for s in range(2, n, 2) for row in _edge_rows(d, s)]
    (part1_rows if n % 2 else part2_rows).extend(_embed_rows(d, n, t.part1))
    base = t.name or "triple"
    return ManinTriple(ambient, Subspace(n * d, part1_rows), Subspace(n * d, part2_rows), name=f"{base}^{n}")


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
    images = [0] * (m * n)
    for s in range(1, m * n + 1):
        c = (s + n - 1) // n
        j = s - (c - 1) * n
        r = j if c % 2 == 1 else n + 1 - j
        images[s - 1] = (r - 1) * m + c - 1
    return Permutation(tuple(images))


def verify_snake_iso(t: ManinTriple, m: int, n: int) -> CheckReport:
    """Certify that the snake map is an isomorphism of split quadratic algebras
    from the mn-fold power onto the n-fold power of the m-fold power.

    The map moves the block of slot s, unchanged, to slot snake(s): it
    relabels coordinates, so `_relabels` certifies it from the powers' stored
    data.  Only when that decides nothing does `check_manin_isomorphism` run,
    which names the failures."""
    perm = snake_permutation(m, n)  # checks m and n first, by name
    d = t.algebra.dim
    flat, nested = nuble(t, m * n), uble_of_uble(t, m, n)
    if _relabels([j * d + b for j in perm.images for b in range(d)], flat, nested):
        return CheckReport("manin_isomorphism", [])
    return check_manin_isomorphism(perm.columns(d), flat, nested)


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


def _slot_color(s: int) -> str:
    return "open" if s % 2 == 1 else "filled"


def render_graph(n: int) -> ChainGraph:
    """The colored chain diagram of the n-fold power: circles for the full-algebra
    slots, triangles where a bare half occupies a slot, edges for diagonal pairs."""
    _require_count("n", n)
    vertices = [ChainVertex(s, _slot_color(s), "circle") for s in range(1, n + 1)]
    vertices.append(ChainVertex(1, _slot_color(1), "right-triangle"))
    vertices.append(ChainVertex(n, _slot_color(n), "left-triangle"))
    edges: list[tuple[int, int]] = []
    if n % 2 == 1:
        edges += [(s, s + 1) for s in range(1, n - 1, 2)]
        edges += [(s, s + 1) for s in range(2, n, 2)]
    else:
        edges += [(s, s + 1) for s in range(1, n, 2)]
        edges += [(s, s + 1) for s in range(2, n - 1, 2)]
    return ChainGraph(n, tuple(vertices), tuple(sorted(edges)))


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
