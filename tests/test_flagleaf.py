"""Tests for the Weyl-group chain labels, the matrix-level chain map, and the
leaf-label bijection."""

import random
from fractions import Fraction

import pytest

from maninforge.core import Permutation
from maninforge.flagleaf import (
    DoubleLeafIndex,
    GroupElement,
    LeafIndex,
    WeylElement,
    all_weyl_elements,
    enumerate_double_indices,
    group_identity,
    is_lower_triangular,
    is_pair_B_Bminus,
    is_upper_triangular,
    leaf_index_inverse,
    leaf_index_map,
    psi_map,
    psi_stages,
    twisted_coset_equal,
    w0_matrix,
    weyl_from_word,
    weyl_identity,
    weyl_longest,
    weyl_simple,
)


def rand_sl2(rng: random.Random) -> GroupElement:
    """Random 2x2 determinant-one matrix with small rational entries."""
    while True:
        a = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        b = Fraction(rng.randint(-3, 3))
        c = Fraction(rng.randint(-3, 3))
        if a != 0:
            return GroupElement.of([[a, b], [c, (1 + b * c) / a]])


def rand_upper(rng: random.Random) -> GroupElement:
    """Random invertible upper-triangular 2x2 matrix of determinant one."""
    a = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    return GroupElement.of([[a, Fraction(rng.randint(-3, 3))], [0, 1 / a]])


def borel_pairs(j: int, q) -> bool:
    return is_pair_B_Bminus(q)


# ---------------------------------------------------------------------------
# Weyl elements
# ---------------------------------------------------------------------------


def test_weyl_identity_and_letters():
    e = weyl_identity(3)
    assert e.rank == 2
    assert e.letters == 3
    assert e.is_identity
    assert e * e == e


def test_weyl_element_reads_rank_and_letters_from_its_permutation():
    """A separately stored rank could disagree with the permutation: then an
    identity read as not the identity, and a product raised an IndexError."""
    e = WeylElement(Permutation((0, 1)))
    assert (e.rank, e.letters, e.is_identity) == (1, 2, True)
    assert e == weyl_identity(2)
    s = weyl_simple(6, 2)
    assert (s.rank, s.letters) == (5, 6)
    assert (s * s).is_identity and s.inv() == s
    with pytest.raises(ValueError, match="rank mismatch"):
        s * e


def test_weyl_simple_swaps_adjacent_letters():
    s1 = weyl_simple(3, 1)
    assert s1.apply(1) == 2
    assert s1.apply(2) == 1
    assert s1.apply(3) == 3
    assert s1 * s1 == weyl_identity(3)


def test_weyl_simple_index_validation():
    with pytest.raises(ValueError):
        weyl_simple(3, 0)
    with pytest.raises(ValueError):
        weyl_simple(3, 3)


def test_weyl_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        weyl_simple(3, 1) * weyl_simple(4, 1)


def test_weyl_from_word_is_left_to_right_product():
    s1, s2 = weyl_simple(3, 1), weyl_simple(3, 2)
    assert weyl_from_word(3, ()) == weyl_identity(3)
    assert weyl_from_word(3, (1, 2)) == s1 * s2
    assert weyl_from_word(3, (1, 2, 1)) == weyl_longest(3)
    assert weyl_from_word(3, (2, 1, 2)) == weyl_longest(3)


def test_weyl_longest_reverses_letters():
    w0 = weyl_longest(4)
    assert w0.perm.images == (3, 2, 1, 0)
    assert w0 * w0 == weyl_identity(4)


def test_longest_conjugation_flips_simple_reflections():
    for k in (2, 3, 4):
        w0 = weyl_longest(k)
        for i in range(1, k):
            assert w0 * weyl_simple(k, i) * w0 == weyl_simple(k, k - i)


def test_all_weyl_elements_enumeration():
    elems = all_weyl_elements(3)
    assert len(elems) == 6
    assert len(set(elems)) == 6
    assert elems[0] == weyl_identity(3)
    assert all(e.letters == 3 for e in elems)


def test_weyl_inverse_law():
    for a in all_weyl_elements(3):
        assert a * a.inv() == weyl_identity(3)
        assert a.inv() * a == weyl_identity(3)


# ---------------------------------------------------------------------------
# matrix-group elements
# ---------------------------------------------------------------------------


def test_group_element_requires_square_unimodular():
    with pytest.raises(ValueError):
        GroupElement.of([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        GroupElement.of([[2, 0], [0, 1]])
    g = GroupElement.of([[2, 0], [0, Fraction(1, 2)]])
    assert g.size == 2


def test_group_inverse_and_identity():
    g = GroupElement.of([[1, 3], [0, 1]])
    assert g * g.inv() == group_identity(2)
    assert group_identity(2) * g == g


def test_w0_matrix_antidiagonal_signs():
    assert w0_matrix(2).matrix == ((0, 1), (-1, 0))
    assert w0_matrix(3).matrix == ((0, 0, 1), (0, -1, 0), (1, 0, 0))


def test_w0_matrix_squares_to_center():
    w0 = w0_matrix(2)
    assert (w0 * w0).matrix == ((-1, 0), (0, -1))
    w0 = w0_matrix(3)
    assert (w0 * w0) == group_identity(3)


def test_triangularity_predicates():
    upper = GroupElement.of([[2, 5], [0, Fraction(1, 2)]])
    lower = GroupElement.of([[1, 0], [7, 1]])
    assert is_upper_triangular(upper)
    assert not is_lower_triangular(upper)
    assert is_lower_triangular(lower)
    assert not is_upper_triangular(lower)
    assert is_pair_B_Bminus((upper, lower))
    assert not is_pair_B_Bminus((lower, upper))


# ---------------------------------------------------------------------------
# chain map
# ---------------------------------------------------------------------------


def test_chain_map_input_validation():
    g = group_identity(2)
    with pytest.raises(ValueError):
        psi_map(0, ())
    with pytest.raises(ValueError):
        psi_map(2, (g, g, g))
    with pytest.raises(ValueError):
        psi_map(1, (g, group_identity(3)))


def test_chain_map_on_identities():
    e = group_identity(2)
    out = psi_map(1, (e, e))
    assert out == ((e, w0_matrix(2)),)


def test_chain_map_worked_pair():
    g1 = GroupElement.of([[1, 1], [0, 1]])
    g2 = GroupElement.of([[1, 0], [2, 1]])
    out = psi_map(1, (g1, g2))
    assert len(out) == 1
    first, second = out[0]
    assert first == g1
    assert second.matrix == ((-1, 3), (-1, 2))


def test_chain_map_second_pair_rule():
    rng = random.Random(11)
    gs = tuple(rand_sl2(rng) for _ in range(4))
    w0 = w0_matrix(2)
    out = psi_map(2, gs)
    assert out[0] == (gs[0], gs[0] * gs[1] * gs[2] * gs[3] * w0)
    assert out[1] == (gs[1], w0 * gs[3].inv() * w0)


def test_stage_decomposition_matches_chain_map():
    rng = random.Random(23)
    for n in (1, 2):
        for _ in range(15):
            gs = tuple(rand_sl2(rng) for _ in range(2 * n))
            stages = psi_stages(n, gs)
            # stage 1: running partial products
            acc = group_identity(2)
            for j, g in enumerate(gs):
                acc = acc * g
                assert stages.stage1[j] == acc
            # stage 2: second half carries the longest-element representative
            w0 = w0_matrix(2)
            for j in range(2 * n):
                expected = stages.stage1[j] if j < n else stages.stage1[j] * w0
                assert stages.stage2[j] == expected
            # stage 3: fold into pairs
            for j in range(n):
                assert stages.stage3[j] == (
                    stages.stage1[j],
                    stages.stage1[2 * n - 1 - j] * w0,
                )
            # stage 4: stepwise quotients reproduce the chain map
            assert stages.stage4 == psi_map(n, gs)


def test_chain_map_with_explicit_representative():
    g = GroupElement.of([[1, 1], [0, 1]])
    rep = GroupElement.of([[0, 2], [Fraction(-1, 2), 0]])
    out = psi_map(1, (g, g), w0=rep)
    assert out[0][1] == g * g * rep


# ---------------------------------------------------------------------------
# twisted-coset comparison
# ---------------------------------------------------------------------------


def test_twisted_coset_equal_trivial_and_length_check():
    rng = random.Random(5)
    out = psi_map(2, tuple(rand_sl2(rng) for _ in range(4)))
    assert twisted_coset_equal(out, out, borel_pairs)
    with pytest.raises(ValueError):
        twisted_coset_equal(out, out[:1], borel_pairs)


def test_chain_map_constant_on_twisted_input_classes():
    """Twisting the input chain by upper-triangular elements moves the output
    only within its twisted coset."""
    rng = random.Random(7)
    for n in (1, 2):
        for _ in range(10):
            gs = [rand_sl2(rng) for _ in range(2 * n)]
            bs = [rand_upper(rng) for _ in range(2 * n)]
            twisted = [gs[0] * bs[0]]
            for j in range(1, 2 * n):
                twisted.append(bs[j - 1].inv() * gs[j] * bs[j])
            std = psi_map(n, tuple(gs))
            alt = psi_map(n, tuple(twisted))
            assert twisted_coset_equal(std, alt, borel_pairs)


def test_chain_map_independent_of_torus_rescaled_representative():
    rng = random.Random(13)
    w0 = w0_matrix(2)
    for n in (1, 2):
        for _ in range(10):
            gs = tuple(rand_sl2(rng) for _ in range(2 * n))
            u = Fraction(rng.choice((2, 3)), rng.choice((1, 2)))
            torus = GroupElement.of([[u, 0], [0, 1 / u]])
            std = psi_map(n, gs)
            alt = psi_map(n, gs, w0=torus * w0)
            assert twisted_coset_equal(std, alt, borel_pairs)


def test_lower_triangular_twist_leaves_the_coset():
    g1 = GroupElement.of([[1, 1], [0, 1]])
    g2 = GroupElement.of([[1, 0], [2, 1]])
    low = GroupElement.of([[1, 0], [3, 1]])
    std = psi_map(1, (g1, g2))
    alt = psi_map(1, (g1 * low, g2))
    assert not twisted_coset_equal(std, alt, borel_pairs)


# ---------------------------------------------------------------------------
# leaf-label bijection
# ---------------------------------------------------------------------------


def test_leaf_index_map_worked_example():
    s1, s2 = weyl_simple(3, 1), weyl_simple(3, 2)
    w0 = weyl_longest(3)
    idx = DoubleLeafIndex(u=(s1, s2), v=(s2, w0), w=s1)
    out = leaf_index_map(idx)
    assert out.u == (s1, s1 * w0, s2, w0)
    assert out.w == s2 * w0
    assert leaf_index_inverse(out) == idx


def test_leaf_index_map_validation():
    e = weyl_identity(2)
    with pytest.raises(ValueError):
        leaf_index_map(DoubleLeafIndex((), (), e))
    with pytest.raises(ValueError):
        leaf_index_map(DoubleLeafIndex((e,), (e, e), e))
    with pytest.raises(ValueError):
        leaf_index_map(DoubleLeafIndex((e,), (weyl_identity(3),), e))


def test_leaf_index_inverse_validation():
    e = weyl_identity(2)
    with pytest.raises(ValueError):
        leaf_index_inverse(LeafIndex((), e))
    with pytest.raises(ValueError):
        leaf_index_inverse(LeafIndex((e, e, e), e))


@pytest.mark.parametrize(
    "k, n, count",
    [(2, 1, 8), (2, 2, 32), (2, 3, 128), (3, 1, 216)],
)
def test_leaf_label_bijection_counts(k, n, count):
    indices = list(enumerate_double_indices(k, n))
    assert len(indices) == count
    images = [leaf_index_map(idx) for idx in indices]
    assert len(set(images)) == count
    for idx, image in zip(indices, images):
        assert len(image.u) == 2 * n
        assert leaf_index_inverse(image) == idx
