"""Signed permutation matrices and their induced homology actions.

Determinants are cross-checked against an inversion-count oracle and the
composite against dense matrix multiplication, both written from scratch
here.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from extmcg import ambient_geom as ag


def dense_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def det_by_inversions(m):
    """Product of signs times the parity of the permutation, counted pairwise."""
    perm = [col for col, _ in m.image]
    sign = 1
    for _, s in m.image:
        sign *= s
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return sign * (-1) ** (inversions % 2)


def random_signed_perm(rng, size):
    cols = list(range(size))
    rng.shuffle(cols)
    return ag.SignedPermMatrix(
        size, tuple((c, rng.choice([1, -1])) for c in cols))


def test_validation():
    with pytest.raises(ag.InvalidMatrixError):
        ag.SignedPermMatrix(2, ((0, 1),))  # wrong row count
    with pytest.raises(ag.InvalidMatrixError):
        ag.SignedPermMatrix(2, ((0, 1), (0, 1)))  # repeated column
    with pytest.raises(ag.InvalidMatrixError):
        ag.SignedPermMatrix(2, ((0, 2), (1, 1)))  # bad sign
    with pytest.raises(ag.InvalidMatrixError):
        ag.SignedPermMatrix(2, ((0, 1), (2, 1)))  # column out of range
    # not plain ints: a float column once failed later, in order()
    for size, image in ((1, ((0.0, 1),)), (2.0, ((0, 1), (1, 1))), (2, ((True, 1), (0, 1))),
                        (1, ((0, True),)), (1, ((0, 1.0),)), (1, ((0, -1.0),))):
        with pytest.raises(ag.InvalidMatrixError):
            ag.SignedPermMatrix(size, image)


@pytest.mark.parametrize("image", [5, None])
def test_validation_refuses_an_image_that_is_not_a_sequence(image):
    with pytest.raises(ag.InvalidMatrixError):
        ag.SignedPermMatrix(1, image)


@pytest.mark.parametrize("entry", [(0,), (0, 1, 1), 5, None])
def test_validation_refuses_an_entry_that_is_not_a_pair(entry):
    with pytest.raises(ag.InvalidMatrixError, match="^bad image entry"):
        ag.SignedPermMatrix(1, (entry,))


def test_a_product_of_different_sizes_is_refused():
    a = ag.SignedPermMatrix(2, ((1, 1), (0, 1)))
    b = ag.SignedPermMatrix(3, ((0, 1), (1, 1), (2, 1)))
    with pytest.raises(ag.InvalidMatrixError, match="^sizes differ$"):
        a * b


@given(st.integers(0, 2 ** 64))
@settings(max_examples=200, deadline=None)
def test_determinant_against_inversion_count(seed):
    rng = random.Random(seed)
    m = random_signed_perm(rng, rng.randrange(1, 10))
    assert m.determinant() == det_by_inversions(m)


@given(st.integers(0, 2 ** 64))
@settings(max_examples=200, deadline=None)
def test_composition_matches_dense_product(seed):
    rng = random.Random(seed)
    size = rng.randrange(1, 8)
    m1 = random_signed_perm(rng, size)
    m2 = random_signed_perm(rng, size)
    assert (m1 * m2).rows == dense_mul(m1.rows, m2.rows)
    assert (m1 * m2).determinant() == m1.determinant() * m2.determinant()


def order_by_powers(m):
    """Smallest n >= 1 with m^n the identity, by repeated multiplication."""
    one = ag.identity(m.size)
    acc, n = m, 1
    while acc != one:
        acc, n = acc * m, n + 1
    return n


def test_order_against_power_loop():
    rng = random.Random(5)
    for _ in range(2000):
        m = random_signed_perm(rng, rng.randrange(1, 9))
        assert m.order() == order_by_powers(m)
    assert ag.identity(4).order() == 1
    cycle17 = ag.SignedPermMatrix(17, tuple(((i + 1) % 17, 1) for i in range(17)))
    assert cycle17.order() == 17
    # a 3-cycle whose signs multiply to -1 returns to minus itself after 3 steps
    negated3 = ag.SignedPermMatrix(3, ((1, 1), (2, 1), (0, -1)))
    assert negated3.order() == order_by_powers(negated3) == 6


def test_json_roundtrip():
    m = ag.build_omega(3)
    assert ag.SignedPermMatrix.from_json(m.to_json()) == m
    with pytest.raises(ag.ParseError):  # a missing key is malformed input
        ag.SignedPermMatrix.from_json({"size": 2})
    with pytest.raises(ag.InvalidMatrixError):
        ag.SignedPermMatrix.from_json({"size": 2, "entries": [[0, 0, 1]]})
    with pytest.raises(ag.InvalidMatrixError):
        ag.SignedPermMatrix.from_json(
            {"size": 2, "entries": [[0, 0, 1], [0, 1, 1]]})


@pytest.mark.parametrize("entries", [
    [[0, "a", 1], [1, 1, 1]],  # string column
    [[0, 1.0, 1], [1, 0, 1]],  # float column
    [[0, 0, True], [1, 1, 1]],  # boolean sign
])
def test_from_json_rejects_non_integer_entries(entries):
    # a wrong JSON type is malformed input, not a bad matrix
    with pytest.raises(ag.ParseError):
        ag.SignedPermMatrix.from_json({"size": 2, "entries": entries})
    with pytest.raises(ag.ParseError):
        ag.SignedPermMatrix.from_json({"size": True, "entries": [[0, 0, 1]]})


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_build_omega(p):
    m = ag.build_omega(p)
    assert m.size == 2 * p + 3
    assert m.determinant() == 1
    assert m.order() == 4
    assert m.image[0] == (0, (-1) ** p)
    desc = ag.restrict_to_product(m, p, p)
    assert desc.swaps_factors
    assert ag.induced_homology_action(desc).rows == ((0, -1), (1, 0))
    # squaring reflects one coordinate in each factor: -identity on homology
    sq = ag.restrict_to_product(m * m, p, p)
    assert not sq.swaps_factors
    assert (sq.first_block_det, sq.second_block_det) == (-1, -1)
    assert ag.induced_homology_action(sq).rows == ((-1, 0), (0, -1))
    with pytest.raises(ag.BlockSizeError):
        ag.build_omega(0)


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_build_omega_hat(p):
    m = ag.build_omega_hat(p)
    assert m.determinant() == 1
    assert m.order() == 2
    desc = ag.restrict_to_product(m, p, p)
    assert desc.swaps_factors
    assert (desc.first_block_det, desc.second_block_det) == (1, 1)
    assert ag.induced_homology_action(desc).rows == ((0, 1), (1, 0))


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_build_omega_hat_rejects_odd(p):
    # with the blocks swapped plainly, det = (-1)^p; odd p would leave
    # an orientation-reversing matrix
    with pytest.raises(ag.BlockSizeError):
        ag.build_omega_hat(p)


def test_build_omega_prime():
    m = ag.build_omega_prime(4, 4)
    assert m.determinant() == 1
    assert m.order() == 2
    desc = ag.restrict_to_product(m, 4, 4)
    assert not desc.swaps_factors
    assert (desc.first_block_det, desc.second_block_det) == (-1, -1)
    assert ag.induced_homology_action(desc).rows == ((-1, 0), (0, -1))
    # unequal blocks: restriction works, induced 2x2 action does not exist
    uneq = ag.build_omega_prime(2, 5)
    desc = ag.restrict_to_product(uneq, 2, 5)
    assert desc.block_sizes == (3, 6)
    assert (desc.first_block_det, desc.second_block_det) == (-1, -1)
    with pytest.raises(ag.BlockSizeError):
        ag.induced_homology_action(desc)
    with pytest.raises(ag.BlockSizeError):
        ag.build_omega_prime(1, 4)
    with pytest.raises(ag.BlockSizeError):
        ag.build_omega_prime(5, 4)


def test_builders_refuse_a_block_dimension_past_the_cap():
    cap = ag.MAX_BLOCK_DIM
    assert ag.build_omega(cap).size == 2 * cap + 3
    assert ag.build_omega_prime(2, cap).size == cap + 5
    for build in (lambda: ag.build_omega(cap + 1), lambda: ag.build_omega_hat(cap + 2),
                  lambda: ag.build_omega_prime(2, cap + 1)):
        with pytest.raises(ag.UnsupportedSizeError, match=f"exceeds the cap of {cap}$"):
            build()
    # the block-shape rules still come first
    with pytest.raises(ag.BlockSizeError):
        ag.build_omega_hat(cap + 1)


def test_restrict_to_product_rejections():
    m = ag.build_omega(2)
    with pytest.raises(ag.BlockSizeError):
        ag.restrict_to_product(m, 2, 3)  # size mismatch
    # coordinate 0 moved away
    swap0 = ag.SignedPermMatrix(5, ((1, 1), (0, 1), (2, 1), (3, 1), (4, 1)))
    with pytest.raises(ag.NotBlockStructuredError):
        ag.restrict_to_product(swap0, 1, 1)
    # a-block smeared across both blocks
    smear = ag.SignedPermMatrix(5, ((0, 1), (1, 1), (3, 1), (2, 1), (4, 1)))
    with pytest.raises(ag.NotBlockStructuredError):
        ag.restrict_to_product(smear, 1, 1)
    # both blocks into the a-columns is impossible for a permutation of
    # equal blocks, but unequal splits can misalign
    with pytest.raises(ag.NotBlockStructuredError):
        ag.restrict_to_product(ag.build_omega(2), 1, 3)


@pytest.mark.parametrize("p,q", [([3], 3), ("3", 3), (3.0, 3), (3, 3.0), (True, 5)])
def test_restrict_to_product_refuses_block_dimensions_that_are_not_ints(p, q):
    """Block dimensions follow the plain-int rule: a list or str raised a
    bare TypeError, a float reached range(), and True stood for 1."""
    with pytest.raises(ag.BlockSizeError, match="positive ints"):
        ag.restrict_to_product(ag.build_omega(3), p, q)


def test_homology_action_algebra():
    quarter = ag.SignedPermMatrix(2, ((1, -1), (0, 1)))
    assert quarter.rows == ((0, -1), (1, 0))
    assert (quarter * quarter).rows == ((-1, 0), (0, -1))
    swap = ag.SignedPermMatrix(2, ((1, 1), (0, 1)))
    minus = ag.SignedPermMatrix(2, ((0, -1), (1, -1)))
    closure = ag.homology_group_closure([swap, minus])
    assert len(closure) == 4
    assert all((m * m).rows == ((1, 0), (0, 1)) for m in closure)
    # the quarter turn generates the cyclic group of order 4
    assert len(ag.homology_group_closure([quarter])) == 4
    # all 2x2 signed permutations: the dihedral group of order 8
    everything = ag.homology_group_closure([quarter, swap])
    assert len(everything) == 8
    assert [m.rows for m in everything] == sorted(m.rows for m in everything)


def test_even_actions_generate_klein_four():
    p = 4
    acts = [ag.induced_homology_action(ag.restrict_to_product(m, p, p))
            for m in (ag.build_omega_hat(p), ag.build_omega_prime(p, p))]
    assert all(isinstance(a, ag.SignedPermMatrix) and a.size == 2 for a in acts)
    closure = ag.homology_group_closure(acts)
    assert sorted(m.rows for m in closure) == [
        ((-1, 0), (0, -1)), ((0, -1), (-1, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 1))]


@pytest.mark.parametrize("build, message", [
    (lambda: ag.build_omega(True), "p = True must be at least 1"),
    (lambda: ag.build_omega(3.0), "p = 3.0 must be at least 1"),
    (lambda: ag.build_omega_hat(4.0), "p = 4.0 must be even and at least 2"),
    (lambda: ag.build_omega_hat("4"), "p = 4 must be even and at least 2"),
    (lambda: ag.build_omega_prime(2, 3.0), "need 2 <= p <= q, got p = 2, q = 3.0"),
])
def test_builders_refuse_a_dimension_that_is_not_a_plain_int(build, message):
    """True once built the p = 1 matrix, and a float raised a bare
    TypeError from range()."""
    with pytest.raises(ag.BlockSizeError) as refused:
        build()
    assert str(refused.value) == message


def test_induced_action_checks_a_hand_built_descriptor():
    # a descriptor checks nothing, so its determinants are checked here
    with pytest.raises(ag.InvalidMatrixError):
        ag.induced_homology_action(ag.ProductMapDescriptor((2, 2), False, 5, 1))


@pytest.mark.parametrize("p, q", [(1, 1), (2, 2), (2, 5), (5, 2)])
def test_restrict_to_product_refuses_each_pair_of_rows_crossing_the_blocks(p, q):
    """The identity with an a-row and a b-row exchanged, for every such pair."""
    size = p + q + 3
    for i in range(1, p + 2):
        for j in range(p + 2, size):
            image = list(ag.identity(size).image)
            image[i], image[j] = image[j], image[i]
            with pytest.raises(ag.NotBlockStructuredError, match="across block boundaries"):
                ag.restrict_to_product(ag.SignedPermMatrix(size, image), p, q)
