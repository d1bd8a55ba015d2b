"""Quadratic refinements, Arf, and the symplectic census.

The headline counts are all re-derived here by brute force: the k <= 2
symplectic groups by filtering every binary matrix, the Arf census by
counting value tables, the stabilizers by definition-level filtering.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from extmcg import f2_forms as ff


# independent dense helpers; deliberately no bit tricks shared with the library


def dense_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) & 1
                       for j in range(n)) for i in range(n))


def dense_transpose(a):
    return tuple(zip(*a))


def preserves_form(mat, gram):
    return dense_mul(dense_transpose(mat), dense_mul(gram, mat)) == gram


def brute_force_sp(k):
    """Filter all 2^(4k^2) binary matrices; feasible for k <= 2."""
    n = 2 * k
    gram = ff.standard_space(k).gram
    out = []
    for bits in itertools.product((0, 1), repeat=n * n):
        mat = tuple(bits[i * n:(i + 1) * n] for i in range(n))
        if preserves_form(mat, gram):
            out.append(mat)
    return sorted(out)


@pytest.mark.parametrize("k", [1, 2])
def test_enumerate_sp_matches_brute_force(k):
    expected = brute_force_sp(k)
    got = [s.matrix for s in ff.enumerate_sp(k)]
    assert got == expected
    assert len(got) == ff.sp_order(k) == {1: 6, 2: 720}[k]


def test_sp_order_formula():
    # 2^(k^2) * prod (4^i - 1)
    assert [ff.sp_order(k) for k in (1, 2, 3)] == [6, 720, 1451520]


@pytest.mark.slow
def test_enumerate_sp3_census():
    elems = ff.enumerate_sp(3)
    assert len(elems) == 1451520
    assert len(set(elems)) == len(elems)
    space = ff.standard_space(3)
    step = 997  # coprime stride, touches a spread-out sample
    for i in range(0, len(elems), step):
        assert ff.is_symplectic(elems[i].matrix, space)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_arf_census_counts(k):
    """2^(2k-1) + 2^(k-1) refinements of Arf 0, the rest Arf 1."""
    space = ff.standard_space(k)
    zeros = sum(1 for q in ff.all_refinements(space) if ff.arf(q) == 0)
    assert zeros == 2 ** (2 * k - 1) + 2 ** (k - 1)
    assert 2 ** (2 * k) - zeros == 2 ** (2 * k - 1) - 2 ** (k - 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_arf_equals_majority_everywhere(k):
    space = ff.standard_space(k)
    for q in ff.all_refinements(space):
        assert ff.arf(q) == ff.arf_by_majority(q)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadratic_identity_exhaustive(k):
    """q(x + y) = q(x) + q(y) + <x, y> on every pair, every refinement."""
    space = ff.standard_space(k)
    n = 1 << space.dim
    ptab = [[space.pair_masks(x, y) for y in range(n)] for x in range(n)]
    for q in ff.all_refinements(space):
        t = q.value_table
        assert all(t[x ^ y] == t[x] ^ t[y] ^ ptab[x][y]
                   for x in range(n) for y in range(n))


def test_value_table_matches_definition():
    # independent evaluation: expand v in basis vectors left to right
    space = ff.standard_space(2)
    q = ff.QuadraticRefinement(space, (1, 0, 1, 1))
    for mask in range(16):
        acc_vec = 0
        acc_val = 0
        for i in range(4):
            if (mask >> i) & 1:
                acc_val ^= q.basis_values[i] ^ space.pair_masks(acc_vec, 1 << i)
                acc_vec ^= 1 << i
        assert q.value_table[mask] == acc_val
    assert q.value_table[0] == 0


def test_eval_mask_on_small_vectors():
    space = ff.standard_space(1)
    q = ff.QuadraticRefinement(space, (1, 1))
    assert q.eval_mask(0b00) == 0
    assert q.eval_mask(0b01) == 1
    assert q.eval_mask(0b10) == 1
    # q(e1 + e2) = 1 + 1 + <e1, e2> = 1
    assert q.eval_mask(0b11) == 1


@pytest.mark.parametrize("mask", [-1, 0b100, 0b100000])
def test_masks_outside_the_space_are_rejected(mask):
    space = ff.standard_space(1)
    q = ff.QuadraticRefinement(space, (1, 1))
    with pytest.raises(ff.DimensionMismatchError):
        space.pair_masks(mask, 0b10)
    with pytest.raises(ff.DimensionMismatchError):
        space.pair_masks(0b10, mask)
    with pytest.raises(ff.DimensionMismatchError):
        q.eval_mask(mask)
    # the top mask of the space is still inside it
    assert space.pair_masks(0b11, 0b10) == 1 and q.eval_mask(0b11) == 1


def random_invertible(rng, n):
    """GF(2) invertible matrix, rows as ints, from a seeded PRNG."""
    rows = []
    basis = []
    while len(rows) < n:
        cand = rng.randrange(1, 1 << n)
        probe = cand
        for b in basis:
            probe = min(probe, probe ^ b)
        if probe:
            rows.append(cand)
            basis.append(probe)
    return rows


@pytest.mark.parametrize("k", [1, 4, 5, 9])
def test_pair_masks_matches_dense_form(k):
    """<u, v> = u^T G v, on a random congruent Gram; dimensions past 8 too."""
    import random
    rng = random.Random(k)
    n = 2 * k
    p_rows = random_invertible(rng, n)
    p = tuple(tuple((p_rows[i] >> j) & 1 for j in range(n)) for i in range(n))
    j0 = ff.standard_space(k).gram
    gram = dense_mul(dense_transpose(p), dense_mul(j0, p))
    space = ff.SymplecticSpaceF2(gram)
    for _ in range(300):
        u, v = rng.randrange(1 << n), rng.randrange(1 << n)
        dense = sum(((u >> i) & 1) * gram[i][j] * ((v >> j) & 1)
                    for i in range(n) for j in range(n)) & 1
        assert space.pair_masks(u, v) == dense


@given(st.integers(1, 6), st.integers(0, 2 ** 64))
@settings(max_examples=60, deadline=None)
def test_symplectic_basis_on_congruent_grams(k, seed):
    """Random change of basis P: the greedy pairing still splits P^T J P."""
    import random
    n = 2 * k
    p_rows = random_invertible(random.Random(seed), n)
    p = tuple(tuple((p_rows[i] >> j) & 1 for j in range(n)) for i in range(n))
    j0 = ff.standard_space(k).gram
    gram = dense_mul(dense_transpose(p), dense_mul(j0, p))
    space = ff.SymplecticSpaceF2(gram)
    pairs = space.basis_masks
    assert len(pairs) == k
    flat = [v for pair in pairs for v in pair]
    for i, u in enumerate(flat):
        for j, v in enumerate(flat):
            want = 1 if (i // 2 == j // 2 and i != j) else 0
            assert space.pair_masks(u, v) == want
    # spanning: masks must be linearly independent
    basis = []
    for v in flat:
        probe = v
        for b in basis:
            probe = min(probe, probe ^ b)
        assert probe
        basis.append(probe)


@given(st.integers(1, 5), st.integers(0, 2 ** 64), st.booleans())
@settings(max_examples=40, deadline=None)
def test_eval_mask_matches_value_table(k, seed, congruent):
    """The closed form q(v) = v^T U v + sum of q(e_i) agrees with the
    doubling table on every mask, standard or congruent Gram, to dim 10."""
    import random
    rng = random.Random(seed)
    n = 2 * k
    space = ff.standard_space(k)
    if congruent:
        p_rows = random_invertible(rng, n)
        p = tuple(tuple((p_rows[i] >> j) & 1 for j in range(n)) for i in range(n))
        space = ff.SymplecticSpaceF2(dense_mul(dense_transpose(p), dense_mul(space.gram, p)))
    q = ff.QuadraticRefinement(space, tuple(rng.randrange(2) for _ in range(n)))
    table = q.value_table
    assert all(q.eval_mask(m) == table[m] for m in range(1 << n))


@given(st.integers(1, 5), st.integers(0, 2 ** 64))
@settings(max_examples=40, deadline=None)
def test_arf_matches_majority_on_congruent_grams(k, seed):
    """The basis route, read through the space's cached per-vector terms,
    agrees with the majority vote on P^T J P, to dimension 10."""
    import random
    rng = random.Random(seed)
    n = 2 * k
    p_rows = random_invertible(rng, n)
    p = tuple(tuple((p_rows[i] >> j) & 1 for j in range(n)) for i in range(n))
    space = ff.SymplecticSpaceF2(
        dense_mul(dense_transpose(p), dense_mul(ff.standard_space(k).gram, p)))
    q = ff.QuadraticRefinement(space, tuple(rng.randrange(2) for _ in range(n)))
    assert ff.arf(q) == ff.arf_by_majority(q)


def test_arf_builds_no_value_table():
    q = ff.QuadraticRefinement(ff.standard_space(3), (1, 0, 1, 1, 0, 1))
    assert ff.arf(q) == 1
    assert "value_table" not in vars(q)
    # dimension 40: a 2^40 table could not be built
    bv = tuple((i * 7 + i // 3) % 2 for i in range(40))
    q = ff.QuadraticRefinement(ff.standard_space(20), bv)
    assert ff.arf(q) == sum(bv[2 * i] * bv[2 * i + 1] for i in range(20)) % 2
    assert "value_table" not in vars(q)


def test_stabilizer_and_orbit_at_k1():
    space = ff.standard_space(1)
    q0 = ff.QuadraticRefinement(space, (0, 0))
    stab = ff.stabilizer(q0)
    assert [s.matrix for s in stab] == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    assert sorted(t.basis_values for t in ff.orbit(q0)) == [(0, 0), (0, 1), (1, 0)]
    q1 = ff.QuadraticRefinement(space, (1, 1))
    assert [t.basis_values for t in ff.orbit(q1)] == [(1, 1)]
    assert len(ff.stabilizer(q1)) == 6


def test_orbit_stabilizer_census_at_k2():
    space = ff.standard_space(2)
    q0 = ff.QuadraticRefinement(space, (0, 0, 0, 0))
    q1 = ff.QuadraticRefinement(space, (1, 1, 0, 0))
    assert ff.arf(q0) == 0 and ff.arf(q1) == 1
    orb0, orb1 = ff.orbit(q0), ff.orbit(q1)
    assert (len(orb0), len(orb1)) == (10, 6)
    assert len(ff.stabilizer(q0)) == 72
    assert len(ff.stabilizer(q1)) == 120
    assert 10 * 72 == 6 * 120 == 720
    # the two orbits partition all sixteen refinements
    seen = {t.basis_values for t in orb0} | {t.basis_values for t in orb1}
    assert len(seen) == 16
    assert all(ff.arf(t) == 0 for t in orb0)
    assert all(ff.arf(t) == 1 for t in orb1)


def test_stabilizer_by_definition():
    """Cross-check the library stabilizer against a definition-level filter."""
    space = ff.standard_space(2)
    q = ff.QuadraticRefinement(space, (0, 0, 0, 0))
    table = q.value_table
    direct = [s for s in ff.enumerate_sp(2)
              if all(table[s.apply_mask(v)] == table[v] for v in range(16))]
    assert [s.matrix for s in direct] == [s.matrix for s in ff.stabilizer(q)]


def test_transport_composition():
    space = ff.standard_space(2)
    q = ff.QuadraticRefinement(space, (1, 0, 1, 0))
    sp = ff.enumerate_sp(2)
    s, t = sp[17], sp[391]
    assert ff.transport(ff.transport(q, s), t) == ff.transport(q, s * t)


SP_BY_K = {k: ff.enumerate_sp(k) for k in (1, 2)}


@given(st.integers(1, 2), st.data())
@settings(max_examples=50, deadline=None)
def test_transport_preserves_arf(k, data):
    space = ff.standard_space(k)
    values = tuple(data.draw(st.integers(0, 1)) for _ in range(2 * k))
    q = ff.QuadraticRefinement(space, values)
    sp = SP_BY_K[k]
    s = sp[data.draw(st.integers(0, len(sp) - 1))]
    assert ff.arf(ff.transport(q, s)) == ff.arf(q)


def test_transport_by_direct_evaluation():
    space = ff.standard_space(2)
    q = ff.QuadraticRefinement(space, (0, 1, 1, 0))
    s = ff.enumerate_sp(2)[100]
    moved = ff.transport(q, s)
    for v in range(16):
        assert moved.value_table[v] == q.value_table[s.apply_mask(v)]


def test_space_validation():
    with pytest.raises(ff.DegenerateFormError):
        ff.SymplecticSpaceF2(((0, 0), (0, 0)))  # degenerate
    with pytest.raises(ff.DegenerateFormError):
        ff.SymplecticSpaceF2(((0,),))  # odd dimension
    with pytest.raises(ff.DegenerateFormError):
        ff.SymplecticSpaceF2(((1, 1), (1, 0)))  # nonzero diagonal
    with pytest.raises(ff.DegenerateFormError):
        ff.SymplecticSpaceF2(((0, 1), (0, 0)))  # not symmetric
    with pytest.raises(ff.DegenerateFormError):
        ff.SymplecticSpaceF2(
            ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))


def test_refinement_validation():
    space = ff.standard_space(1)
    with pytest.raises(ff.DimensionMismatchError):
        ff.QuadraticRefinement(space, (0, 0, 0))
    with pytest.raises(ValueError):
        ff.QuadraticRefinement(space, (0, 2))


def test_size_limits():
    with pytest.raises(ff.UnsupportedSizeError):
        ff.enumerate_sp(0)
    with pytest.raises(ff.UnsupportedSizeError):
        ff.enumerate_sp(4)
    big = ff.QuadraticRefinement(ff.standard_space(4), (0,) * 8)
    with pytest.raises(ff.UnsupportedSizeError):
        ff.stabilizer(big)
    bigger = ff.QuadraticRefinement(ff.standard_space(6), (0,) * 12)
    with pytest.raises(ff.UnsupportedSizeError):
        ff.orbit(bigger)


def test_sp_element_validation():
    space = ff.standard_space(1)
    good = ff.SpElement(((0, 1), (1, 0)))
    assert ff.is_symplectic(good.matrix, space)
    assert not ff.is_symplectic(((1, 1), (1, 1)), space)  # singular
    with pytest.raises(ff.DimensionMismatchError):
        good * ff.SpElement(((1, 0, 0, 0), (0, 1, 0, 0),
                             (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(ValueError):
        ff.SpElement(((0, 1, 0), (1, 0, 0)))  # not square
    with pytest.raises(ValueError):
        ff.SpElement(((0, 2), (1, 0)))


def test_is_symplectic_rejects_entries_outside_0_1():
    """Entries that reduce mod 2 to a symplectic matrix are still not 0/1,
    as SpElement also requires."""
    space = ff.standard_space(1)
    for mat in (((3, 0), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (2, 1)), ((1, "0"), (0, 1))):
        assert not ff.is_symplectic(mat, space)
    assert ff.is_symplectic(((1, 0), (0, 1)), space)
    with pytest.raises(ValueError):
        ff.SpElement(((3, 0), (0, 1)))


def test_sp_element_matrix_roundtrip():
    for s in ff.enumerate_sp(2):
        again = ff.SpElement(s.matrix)
        assert again == s and hash(again) == hash(s)
        assert again.columns == s.columns
        for j in range(4):
            assert s.apply_mask(1 << j) == sum(s.matrix[i][j] << i for i in range(4))


def test_from_columns_checks_its_masks():
    """A column outside 0..2^n-1 used to be kept, and then lost in `matrix`."""
    s = ff.SpElement.from_columns([2, 1])
    assert s == ff.SpElement(((0, 1), (1, 0))) and ff.SpElement(s.matrix) == s
    for bad in ((5, 1), (2, -1), (2, 1.0), ("2", 1), (2, None), (1, 2, 8)):
        with pytest.raises(ff.DimensionMismatchError, match="not a mask"):
            ff.SpElement.from_columns(bad)


def test_transport_rejects_non_symplectic():
    q1 = ff.QuadraticRefinement(ff.standard_space(1), (1, 0))
    with pytest.raises(ValueError, match="pairing"):
        ff.transport(q1, ff.SpElement(((1, 1), (1, 1))))  # singular
    q2 = ff.QuadraticRefinement(ff.standard_space(2), (1, 0, 0, 1))
    swap = ff.SpElement(((0, 0, 1, 0), (0, 1, 0, 0),
                         (1, 0, 0, 0), (0, 0, 0, 1)))  # e0 <-> e2: invertible
    assert not preserves_form(swap.matrix, q2.space.gram)
    with pytest.raises(ValueError, match="pairing"):
        ff.transport(q2, swap)


def refinement_with_arf(k, value):
    """(1, 1, 0, ..., 0) has Arf 1 and the zero refinement Arf 0."""
    bits = (value, value) + (0,) * (2 * k - 2)
    return ff.QuadraticRefinement(ff.standard_space(k), bits)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_orbit_sizes_by_arf(k):
    """Each Arf class is one orbit: 2^(2k-1) + 2^(k-1) for Arf 0, minus for Arf 1."""
    for value, sign in ((0, 1), (1, -1)):
        q = refinement_with_arf(k, value)
        assert ff.arf(q) == value
        orb = ff.orbit(q)
        assert len(orb) == 2 ** (2 * k - 1) + sign * 2 ** (k - 1)
        assert len({t.basis_values for t in orb}) == len(orb)
        assert q.basis_values in {t.basis_values for t in orb}
        assert all(ff.arf(t) == value for t in orb)


def orbit_by_definition(q, group):
    return {ff.transport(q, s).basis_values for s in group}


@pytest.mark.parametrize("k", [1, 2])
def test_orbit_matches_full_group(k):
    """The transvection search reaches exactly the transports under all of Sp(2k, 2)."""
    group = ff.enumerate_sp(k)
    for q in ff.all_refinements(ff.standard_space(k)):
        got = [t.basis_values for t in ff.orbit(q)]
        assert got == sorted(orbit_by_definition(q, group))


@pytest.mark.slow
def test_orbit_matches_full_group_k3():
    group = ff.enumerate_sp(3)
    for value in (0, 1):
        q = refinement_with_arf(3, value)
        assert {t.basis_values for t in ff.orbit(q)} == orbit_by_definition(q, group)
