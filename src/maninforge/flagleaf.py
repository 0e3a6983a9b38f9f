"""Weyl-group and matrix-level maps for iterated flag-variety products: signed
longest-element representatives, the chain map from group tuples to pairs, its
staged factorization, twisted-coset equality, and the index bijection between
double-leaf labels and chain labels."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Matrix, ONE, Permutation, ZERO, determinant, identity_matrix, inverse, mat_mul, matrix


# ---------------------------------------------------------------------------
# Weyl elements (permutations with group structure)


@dataclass(frozen=True)
class WeylElement:
    """Element of the symmetric group on the letters 1..k, one per k x k
    matrix group; k and the rank k - 1 are read from the permutation."""

    perm: Permutation

    @property
    def letters(self) -> int:
        return self.perm.n

    @property
    def rank(self) -> int:
        """The number of simple reflections."""
        return self.perm.n - 1

    def __mul__(self, other: WeylElement) -> WeylElement:
        if self.letters != other.letters:
            raise ValueError("rank mismatch")
        return WeylElement(self.perm.compose(other.perm))

    def inv(self) -> WeylElement:
        return WeylElement(self.perm.inverse())

    def apply(self, letter: int) -> int:
        """Image of a 1-based letter."""
        return self.perm(letter - 1) + 1

    @property
    def is_identity(self) -> bool:
        return self.perm.images == tuple(range(self.letters))


def weyl_identity(k: int) -> WeylElement:
    """Identity of the symmetric group on k letters."""
    return WeylElement(Permutation.identity(k))


def weyl_simple(k: int, i: int) -> WeylElement:
    """Simple transposition swapping letters i and i+1 (1-based, 1 <= i < k)."""
    if not 1 <= i <= k - 1:
        raise ValueError(f"simple reflection index must be in 1..{k - 1}")
    images = list(range(k))
    images[i - 1], images[i] = images[i], images[i - 1]
    return WeylElement(Permutation(tuple(images)))


def weyl_longest(k: int) -> WeylElement:
    """Longest element: letter i goes to k + 1 - i."""
    return WeylElement(Permutation(tuple(k - 1 - i for i in range(k))))


def weyl_from_word(k: int, word: tuple[int, ...]) -> WeylElement:
    """Product of simple reflections, rightmost applied first."""
    out = weyl_identity(k)
    for i in word:
        out = out * weyl_simple(k, i)
    return out


def all_weyl_elements(k: int) -> tuple[WeylElement, ...]:
    """Every element of the symmetric group on k letters, in lexicographic order."""
    return tuple(
        WeylElement(Permutation(images))
        for images in itertools.permutations(range(k))
    )


# ---------------------------------------------------------------------------
# Matrix-level group elements


@dataclass(frozen=True)
class GroupElement:
    """Determinant-one square matrix over the rationals."""

    matrix: Matrix

    @classmethod
    def of(cls, rows) -> GroupElement:
        m = matrix(rows)
        k = len(m)
        if any(len(row) != k for row in m):
            raise ValueError("group elements must be square matrices")
        if determinant(m) != 1:
            raise ValueError("group elements must have determinant one")
        return cls(m)

    @property
    def size(self) -> int:
        return len(self.matrix)

    def __mul__(self, other: GroupElement) -> GroupElement:
        return GroupElement(mat_mul(self.matrix, other.matrix))

    def inv(self) -> GroupElement:
        return GroupElement(inverse(self.matrix))


def group_identity(k: int) -> GroupElement:
    """The identity element of GL(k)."""
    return GroupElement(identity_matrix(k))


def w0_matrix(k: int) -> GroupElement:
    """Signed antidiagonal representative of the longest element: entry
    (i, k-1-i) is (-1)^i, giving determinant one for every k."""
    rows = [[ZERO] * k for i in range(k)]
    for i in range(k):
        rows[i][k - 1 - i] = ONE if i % 2 == 0 else -ONE
    return GroupElement.of(rows)


def is_upper_triangular(g: GroupElement) -> bool:
    """Whether every entry below the diagonal of g is zero."""
    m = g.matrix
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(i))


def is_lower_triangular(g: GroupElement) -> bool:
    """Whether every entry above the diagonal of g is zero."""
    m = g.matrix
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(i + 1, len(m)))


def is_pair_B_Bminus(q: tuple[GroupElement, GroupElement]) -> bool:
    """Membership test for a pair of an upper and a lower triangular element."""
    return is_upper_triangular(q[0]) and is_lower_triangular(q[1])


# ---------------------------------------------------------------------------
# The chain map and its staged factorization


def _validate_chain_input(n: int, gs: tuple[GroupElement, ...]) -> None:
    if n < 1 or len(gs) != 2 * n:
        raise ValueError("expected 2n group elements with n >= 1")
    size = gs[0].size
    if any(g.size != size for g in gs):
        raise ValueError("all group elements must share one matrix size")


def psi_map(
    n: int, gs: tuple[GroupElement, ...], w0: GroupElement | None = None
) -> tuple[tuple[GroupElement, GroupElement], ...]:
    """Map a tuple (g_1, ..., g_2n) to n pairs: the first pair is
    (g_1, g_1 g_2 ... g_2n w0); pair j >= 2 is (g_j, w0 g_{2n+2-j}^{-1} w0)."""
    _validate_chain_input(n, gs)
    if w0 is None:
        w0 = w0_matrix(gs[0].size)
    total = gs[0]
    for g in gs[1:]:
        total = total * g
    pairs = [(gs[0], total * w0)]
    for j in range(2, n + 1):
        pairs.append((gs[j - 1], w0 * gs[2 * n + 2 - j - 1].inv() * w0))
    return tuple(pairs)


@dataclass(frozen=True)
class PsiStages:
    """Intermediate tuples of the staged factorization of the chain map."""

    stage1: tuple[GroupElement, ...]
    stage2: tuple[GroupElement, ...]
    stage3: tuple[tuple[GroupElement, GroupElement], ...]
    stage4: tuple[tuple[GroupElement, GroupElement], ...]


def psi_stages(
    n: int, gs: tuple[GroupElement, ...], w0: GroupElement | None = None
) -> PsiStages:
    """Factor the chain map through partial products: stage 1 takes partial
    products, stage 2 appends the longest-element representative to the second
    half, stage 3 folds the tuple into pairs, stage 4 takes stepwise quotients
    (with the square of the representative restoring the central factor).  The
    final stage reproduces the chain map exactly."""
    _validate_chain_input(n, gs)
    if w0 is None:
        w0 = w0_matrix(gs[0].size)
    partial = []
    acc = group_identity(gs[0].size)
    for g in gs:
        acc = acc * g
        partial.append(acc)
    stage1 = tuple(partial)
    stage2 = tuple(
        p if j < n else p * w0 for j, p in enumerate(stage1)
    )
    stage3 = tuple((stage1[j], stage1[2 * n - 1 - j] * w0) for j in range(n))
    w0sq = w0 * w0
    quotients = [stage3[0]]
    for j in range(1, n):
        h_prev, k_prev = stage3[j - 1]
        h_cur, k_cur = stage3[j]
        quotients.append((h_prev.inv() * h_cur, w0sq * k_prev.inv() * k_cur))
    return PsiStages(stage1, stage2, stage3, tuple(quotients))


# ---------------------------------------------------------------------------
# Twisted-coset equality


def _slot_inv(x):
    if isinstance(x, tuple):
        return tuple(e.inv() for e in x)
    return x.inv()


def _slot_mul(x, y):
    if isinstance(x, tuple):
        return tuple(a * b for a, b in zip(x, y))
    return x * y


def twisted_coset_equal(a, b, membership) -> bool:
    """Equality of twisted-coset labels: the stepwise quotients q_1 = a_1^{-1} b_1,
    q_j = a_j^{-1} q_{j-1} b_j must each pass the slot's membership test."""
    if len(a) != len(b):
        raise ValueError("tuples must have equal length")
    q = None
    for j, (aj, bj) in enumerate(zip(a, b)):
        if q is None:
            q = _slot_mul(_slot_inv(aj), bj)
        else:
            q = _slot_mul(_slot_mul(_slot_inv(aj), q), bj)
        if not membership(j, q):
            return False
    return True


# ---------------------------------------------------------------------------
# Leaf index labels and the bijection between them


@dataclass(frozen=True)
class DoubleLeafIndex:
    """Label (u_1..u_n; v_1..v_n; w) of a leaf of the double chain."""

    u: tuple[WeylElement, ...]
    v: tuple[WeylElement, ...]
    w: WeylElement


@dataclass(frozen=True)
class LeafIndex:
    """Label ((u_1, ..., u_2n), w) of a leaf of the folded chain."""

    u: tuple[WeylElement, ...]
    w: WeylElement


def leaf_index_map(idx: DoubleLeafIndex) -> LeafIndex:
    """Bijection sending (u, v, w) to the interleaved label
    ((u_1, w w0, u_2, w0 v_n^{-1} w0, ..., u_n, w0 v_2^{-1} w0), v_1 w0)."""
    n = len(idx.u)
    if len(idx.v) != n or n == 0:
        raise ValueError("labels need equal, positive numbers of first/second words")
    k = idx.w.letters
    if any(e.letters != k for e in idx.u) or any(e.letters != k for e in idx.v):
        raise ValueError("rank mismatch among label entries")
    w0 = weyl_longest(k)
    words: list[WeylElement] = []
    for j in range(1, n + 1):
        words.append(idx.u[j - 1])
        if j == 1:
            words.append(idx.w * w0)
        else:
            words.append(w0 * idx.v[n + 2 - j - 1].inv() * w0)
    return LeafIndex(tuple(words), idx.v[0] * w0)


def leaf_index_inverse(idx: LeafIndex) -> DoubleLeafIndex:
    """Inverse bijection recovering (u, v, w) from the interleaved label."""
    if len(idx.u) % 2 != 0 or not idx.u:
        raise ValueError("the interleaved label needs an even, positive word count")
    n = len(idx.u) // 2
    k = idx.w.letters
    w0 = weyl_longest(k)
    u = tuple(idx.u[2 * j - 2] for j in range(1, n + 1))
    w = idx.u[1] * w0
    v = [idx.w * w0]
    slots: dict[int, WeylElement] = {}
    for j in range(2, n + 1):
        slots[n + 2 - j] = w0 * idx.u[2 * j - 1].inv() * w0
    for pos in range(2, n + 1):
        v.append(slots[pos])
    return DoubleLeafIndex(u, tuple(v), w)


def enumerate_double_indices(k: int, n: int):
    """All double-chain labels over the symmetric group on k letters: every
    choice of n + n words plus one extra element."""
    elements = all_weyl_elements(k)
    for u in itertools.product(elements, repeat=n):
        for v in itertools.product(elements, repeat=n):
            for w in elements:
                yield DoubleLeafIndex(u, v, w)
