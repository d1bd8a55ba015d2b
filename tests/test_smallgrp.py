"""Small-group engine: tables, coset enumeration, isomorphism, complements.

Oracles: subgroup lattices are recomputed by filtering every subset,
isomorphism for tiny orders by trying every bijection and otherwise by an
exhaustive backtracking search, complements by an independent scan of the
subgroup lattice, element orders by walking the powers, the centre by
testing every pair, Todd-Coxeter tables by following one word per
element from every coset, coset tables by the definition (complete,
inverse entries agree, every relator closes at every coset) and by a
digest of the tables that the earlier two-pass enumeration returned, and
table validation by a triple loop over every reduced Latin square of
order 4, 5 and 6, as given and renamed so that the identity is the last
element, and over one order-64 Latin square that only associativity
rejects.
"""

import functools
import hashlib
import itertools
import math
import random
from types import SimpleNamespace

import pytest

from extmcg import smallgrp as sg


def ref_element_order(g, a):
    """The least n >= 1 with a^n the identity, by walking the powers of a."""
    n, x = 1, a
    while x != g.identity:
        x = g.mul(x, a)
        n += 1
    return n


def ref_order_profile(g):
    return tuple(sorted(ref_element_order(g, a) for a in range(g.order)))


def ref_center(g):
    """The elements that commute with every element."""
    return frozenset(a for a in range(g.order)
                     if all(g.mul(a, b) == g.mul(b, a) for b in range(g.order)))


def test_standard_groups():
    assert sg.cyclic(1).order == 1
    assert ref_element_order(sg.cyclic(12), 1) == 12
    assert ref_order_profile(sg.klein()) == (1, 2, 2, 2)
    assert ref_order_profile(sg.dihedral(8)) == (1, 2, 2, 2, 2, 2, 4, 4)
    assert ref_order_profile(sg.quaternion(8)) == (1, 2, 4, 4, 4, 4, 4, 4)
    assert ref_order_profile(sg.dihedral(8)).count(2) == 5  # five involutions
    assert ref_order_profile(sg.quaternion(8)).count(2) == 1  # only -1
    assert not sg.dihedral(8).is_abelian()
    assert sg.klein().is_abelian()
    assert ref_center(sg.dihedral(8)) == frozenset({0, 4})
    assert len(ref_center(sg.quaternion(8))) == 2


def test_size_limits():
    with pytest.raises(sg.UnsupportedSizeError):
        sg.cyclic(0)
    with pytest.raises(sg.UnsupportedSizeError):
        sg.cyclic(65)
    with pytest.raises(sg.UnsupportedSizeError):
        sg.dihedral(5)
    with pytest.raises(sg.UnsupportedSizeError):
        sg.quaternion(16)


def test_a_product_past_order_64_is_refused():
    with pytest.raises(sg.UnsupportedSizeError, match="^product order exceeds 64$"):
        sg.direct_product(sg.cyclic(8), sg.cyclic(9))


def test_table_validation():
    with pytest.raises(sg.InvalidTableError):
        sg.MulTableGroup(((0, 1), (1, 1)))  # repeated entry in a row
    with pytest.raises(sg.InvalidTableError):
        # subtraction mod 3: Latin, but 0 is only a right identity
        sg.MulTableGroup(((0, 2, 1), (1, 0, 2), (2, 1, 0)))
    # order-5 loop: Latin square, two-sided identity, every element its own
    # inverse -- yet (1*2)*4 = 1 while 1*(2*4) = 4, so only associativity
    # can reject it (an associative all-involution table would be an
    # elementary abelian 2-group, impossible at order 5)
    loop = ((0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0))
    with pytest.raises(sg.InvalidTableError):
        sg.MulTableGroup(loop)


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1, so
    that 0 is a two-sided identity, by backtracking over the other cells
    in row order."""
    rows = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    in_col = [{j} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            yield tuple(map(tuple, rows))
            return
        i, j = cells[c]
        row = rows[i]
        for v in range(n):
            if v not in in_col[j] and v not in row[:j]:
                row[j] = v
                in_col[j].add(v)
                yield from fill(c + 1)
                in_col[j].discard(v)

    return list(fill(0))


def first_non_associative_triple(table):
    n = len(table)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return a, b, c
    return None


@pytest.mark.parametrize("n,squares,groups", [(4, 4, 4), (5, 56, 6), (6, 9408, 80)])
def test_table_validation_on_every_reduced_latin_square(n, squares, groups):
    """A reduced Latin square is a group table exactly when it is
    associative.  The group tables with identity 0 number the sum of
    (n - 1)! / |Aut G| over the groups of order n: 3 + 1 at order 4 (Z4,
    Z2^2), 6 at order 5, 60 + 20 at order 6 (Z6, S3).  Each rejection names
    the first failing triple in (a, b, c) order."""
    latin = reduced_latin_squares(n)
    assert len(latin) == squares
    accepted = 0
    for table in latin:
        triple = first_non_associative_triple(table)
        if triple is None:
            assert sg.MulTableGroup(table).identity == 0
            accepted += 1
        else:
            with pytest.raises(sg.InvalidTableError) as err:
                sg.MulTableGroup(table)
            assert str(err.value) == "not associative at ({},{},{})".format(*triple)
    assert accepted == groups


def relabelled(table, sigma):
    """The same operation with each element x renamed sigma[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return tuple(map(tuple, out))


@pytest.mark.parametrize("n,groups,commutative,rejected", [
    (4, 4, 4, 0), (5, 6, 6, 0), (6, 80, 456, 396)])
def test_table_validation_with_the_identity_last(n, groups, commutative, rejected):
    """Every reduced Latin square renamed by x -> n - 1 - x, so that the
    identity is element n - 1 and the order of the other elements is
    reversed.  The verdict and the first failing triple are those of the
    triple loop over the renamed table, for the commutative squares (456
    at order 6, 396 of them not associative) as for the others."""
    sigma = list(range(n - 1, -1, -1))
    accepted = seen_commutative = seen_rejected = 0
    for square in reduced_latin_squares(n):
        table = relabelled(square, sigma)
        is_commutative = table == tuple(zip(*table))
        seen_commutative += is_commutative
        triple = first_non_associative_triple(table)
        if triple is None:
            assert sg.MulTableGroup(table).identity == n - 1
            accepted += 1
        else:
            seen_rejected += is_commutative
            with pytest.raises(sg.InvalidTableError) as err:
                sg.MulTableGroup(table)
            assert str(err.value) == "not associative at ({},{},{})".format(*triple)
    assert (accepted, seen_commutative, seen_rejected) == (groups, commutative, rejected)


@pytest.mark.parametrize("table", [
    ((0, 1.0), (1, 0)),        # a float equal to an index
    ((0, True), (True, 0)),    # bool is not an element index
    ((0, "1"), (1, 0)),
    ((0, 2), (1, 0)),          # out of range
    ((0, -1), (1, 0)),
    ((0, 1), (1,)),            # ragged
    5,                         # no rows at all
    (5, 5),                    # rows without a length
    ((0, 1), 5),
])
def test_table_entries_must_be_plain_indices(table):
    with pytest.raises(sg.InvalidTableError, match="table is not square over element indices"):
        sg.MulTableGroup(table)


@pytest.mark.parametrize("table,message", [
    (((0, 1.0), (1, 1)), "table is not square over element indices"),
    (((0, 0), (0, 1)), "a row repeats an element (not a bijection)"),
    (((1, 0), (1, 0)), "a column repeats an element (not a bijection)"),
])
def test_the_first_broken_table_rule_is_named(table, message):
    """The rules are checked over the whole table one after another, so
    a table that breaks two gets the message of the one checked first:
    entries, then rows, then columns, then the identity."""
    with pytest.raises(sg.InvalidTableError) as err:
        sg.MulTableGroup(table)
    assert str(err.value) == message


def test_list_tables_are_accepted():
    """List input is stored as a tuple of tuples: the group equals and
    hashes as the builder's, and a later change to the input misses it."""
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    g = sg.MulTableGroup(rows)
    assert g.order == 3 and g.identity == 0
    assert sg.is_isomorphic(g, sg.cyclic(3)) == (True, (0, 1, 2))
    assert g == sg.cyclic(3) and hash(g) == hash(sg.cyclic(3))
    rows[1][1], rows[1][2] = 0, 2
    rows.append([0, 0, 0])
    assert g.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1)) and g == sg.cyclic(3)


def test_first_failing_triple_at_order_64():
    """Z64 with 2 and 34 swapped in the cells (1,1), (1,33), (33,1) and
    (33,33) is still a Latin square with identity 0, so only associativity
    rejects it, and the message names the first failing triple."""
    rows = [list(row) for row in sg.cyclic(64).table]
    for a, b in [(1, 1), (1, 33), (33, 1), (33, 33)]:
        rows[a][b] = {2: 34, 34: 2}[rows[a][b]]
    table = tuple(map(tuple, rows))
    assert all(sorted(row) == list(range(64)) for row in table)
    assert all(sorted(col) == list(range(64)) for col in zip(*table))
    assert table[0] == tuple(range(64)) and all(row[0] == i for i, row in enumerate(table))
    triple = first_non_associative_triple(table)
    assert triple == (1, 1, 2)
    with pytest.raises(sg.InvalidTableError, match=r"^not associative at \(1,1,2\)$"):
        sg.MulTableGroup(table)


def brute_force_subgroups(g):
    out = set()
    elems = range(g.order)
    for r in range(1, g.order + 1):
        for subset in itertools.combinations(elems, r):
            s = set(subset)
            if g.identity not in s:
                continue
            if all(g.mul(a, b) in s for a in s for b in s) and \
               all(g.inverse(a) in s for a in s):
                out.add(frozenset(s))
    return out


@pytest.mark.parametrize("build,count", [
    (lambda: sg.dihedral(8), 10),
    (lambda: sg.quaternion(8), 6),
    (lambda: sg.cyclic(6), 4),
    (lambda: sg.klein(), 5),
])
def test_all_subgroups_against_brute_force(build, count):
    g = build()
    subs = sg.all_subgroups(g)
    assert subs == brute_force_subgroups(g)
    assert len(subs) == count


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def gaussian_binomial_2(n, k):
    """Number of k-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def elementary_abelian_2(rank):
    g = sg.cyclic(2)
    for _ in range(rank - 1):
        g = sg.direct_product(g, sg.cyclic(2))
    return g


@pytest.mark.parametrize("build,count", [
    (lambda: sg.cyclic(64), len(divisors(64))),
    (lambda: sg.cyclic(48), len(divisors(48))),
    # rotation subgroups <r^d> for d | 32, plus <r^d, r^i s> for 0 <= i < d
    (lambda: sg.dihedral(64), len(divisors(32)) + sum(divisors(32))),
    (lambda: elementary_abelian_2(5), sum(gaussian_binomial_2(5, k) for k in range(6))),
    (lambda: elementary_abelian_2(6), sum(gaussian_binomial_2(6, k) for k in range(7))),
    (sg.build_E_even, 35),
])
def test_all_subgroups_up_to_order_64(build, count):
    g = build()
    subs = sg.all_subgroups(g)
    assert len(subs) == count
    assert all(g.is_subgroup(s) for s in subs)
    assert all(len(g.closure([a])) == ref_element_order(g, a) for a in range(g.order))


def reference_join_subgroups(g):
    """The join search without its coset rule: every subgroup H joins every
    cyclic generator outside H."""
    cyclic_gens = {g.closure([a]): a for a in range(g.order)}
    gens = {frozenset({g.identity}): ()}
    queue = list(gens)
    for sub in queue:
        for a in cyclic_gens.values():
            if a not in sub:
                seed = gens[sub] + (a,)
                bigger = g.closure(seed)
                if bigger not in gens:
                    gens[bigger] = seed
                    queue.append(bigger)
    return set(gens)


def test_all_subgroups_matches_the_join_search_without_coset_rule():
    """Skipping a generator in an already joined right coset loses nothing,
    also where left and right cosets differ (the non-abelian products)."""
    for name, g in builder_groups(24).items():
        assert sg.all_subgroups(g) == reference_join_subgroups(g), name


@pytest.mark.parametrize("rank,calls", [(3, 43), (4, 256), (5, 2109)])
def test_all_subgroups_joins_once_per_coset(monkeypatch, rank, calls):
    """One `generate` call per element for the cyclic subgroups, then one join
    per coset of each subgroup other than itself: 2^k + sum over j < k of
    G(k, j) * (2^(k-j) - 1) calls on Z2^k, where a join for every generator
    outside the subgroup made 85, 781 and 9,549."""
    count = [0]
    generate = sg.generate

    def counted(*args):
        count[0] += 1
        return generate(*args)

    g = elementary_abelian_2(rank)
    monkeypatch.setattr(sg, "generate", counted)
    sg.all_subgroups(g)
    assert calls == 2 ** rank + sum(gaussian_binomial_2(rank, j) * (2 ** (rank - j) - 1)
                                    for j in range(rank))
    assert count[0] == calls


def brute_force_isomorphic(g, h):
    if g.order != h.order:
        return False
    for perm in itertools.permutations(range(g.order)):
        if perm[g.identity] != h.identity:
            continue
        if all(perm[g.mul(a, b)] == h.mul(perm[a], perm[b])
               for a in range(g.order) for b in range(g.order)):
            return True
    return False


def test_is_isomorphic_against_brute_force():
    c6 = sg.cyclic(6)
    s3 = sg.dihedral(6)
    z2xz3 = sg.direct_product(sg.cyclic(2), sg.cyclic(3))
    k4 = sg.klein()
    c4 = sg.cyclic(4)
    pairs = [(c6, s3), (c6, z2xz3), (k4, c4), (s3, s3),
             (sg.cyclic(2), sg.cyclic(2)), (k4, sg.direct_product(sg.cyclic(2), sg.cyclic(2)))]
    for g, h in pairs:
        assert sg.is_isomorphic(g, h)[0] == brute_force_isomorphic(g, h)


def test_isomorphism_witness_is_a_homomorphism():
    g = sg.dihedral(8)
    h = sg.semidirect_product(sg.cyclic(4), sg.cyclic(2),
                              {0: (0, 1, 2, 3), 1: (0, 3, 2, 1)})
    ok, witness = sg.is_isomorphic(g, h)
    assert ok
    assert sorted(witness) == list(range(8))
    for a in range(8):
        for b in range(8):
            assert witness[g.mul(a, b)] == h.mul(witness[a], witness[b])


def test_not_isomorphic():
    assert sg.is_isomorphic(sg.dihedral(8), sg.quaternion(8)) == (False, None)
    assert not sg.is_isomorphic(sg.cyclic(8), sg.dihedral(8))[0]
    assert not sg.is_isomorphic(sg.cyclic(4), sg.klein())[0]


def cyclic_action(n, m, u):
    """Z_m acting on Z_n by x -> b * u^x; u must be a unit with u^m = 1 mod n."""
    return {x: tuple(b * pow(u, x, n) % n for b in range(n)) for x in range(m)}


def builder_groups(max_order):
    """Groups from every public builder up to max_order, keyed by a name:
    cyclic, Klein, dihedral and quaternion groups, every semidirect product
    Z_n ⋊ Z_m by a unit of Z_n, Klein extensions and build_E_even, then the
    direct product of each pair of those."""
    base = {f"Z{n}": sg.cyclic(n) for n in range(1, max_order + 1)}
    base["K4"] = sg.klein()
    base.update((f"D{m}", sg.dihedral(m)) for m in range(6, max_order + 1, 2))
    base["Q8"] = sg.quaternion(8)
    for n in range(3, max_order // 2 + 1):
        for m in range(2, max_order // n + 1):
            for u in range(2, n):
                if math.gcd(u, n) == 1 and pow(u, m, n) == 1:
                    base[f"Z{n}:{u}Z{m}"] = sg.semidirect_product(
                        sg.cyclic(n), sg.cyclic(m), cyclic_action(n, m, u))
    swap = (0, 2, 1, 3)
    base["K4:Z2"] = sg.semidirect_product(sg.klein(), sg.cyclic(2),
                                          {0: (0, 1, 2, 3), 1: swap})
    if max_order >= 12:
        base["K4:Z3"] = sg.semidirect_product(
            sg.klein(), sg.cyclic(3), {0: (0, 1, 2, 3), 1: (0, 2, 3, 1), 2: (0, 3, 1, 2)})
    if max_order >= 16:
        base["K4:Z4"] = sg.semidirect_product(
            sg.klein(), sg.cyclic(4), {x: (0, 1, 2, 3) if x % 2 == 0 else swap for x in range(4)})
        base["E_even"] = sg.build_E_even()
    groups = dict(base)
    for (a, g), (b, h) in itertools.combinations_with_replacement(sorted(base.items()), 2):
        if 1 < g.order and 1 < h.order and g.order * h.order <= max_order:
            groups[f"{a}x{b}"] = sg.direct_product(g, h)
    return groups


def equal_order_pairs(groups, lo, hi):
    """Every ordered pair (a, b) of names whose groups have one order in lo..hi."""
    return [(a, b) for a, g in groups.items() for b, h in groups.items()
            if lo <= g.order == h.order <= hi]


def reference_generating_set(g):
    gens, span = [], g.closure([])
    for a in range(g.order):
        if a not in span:
            gens.append(a)
            span = g.closure(gens)
            if len(span) == g.order:
                break
    return gens


def reference_is_isomorphic(g, h):
    """Exhaustive backtracking: every generator gets an image of its element
    order before any check, and the map is closed and checked only then.
    Returns the first isomorphism in index order, as is_isomorphic must."""
    if g.order != h.order:
        return False, None
    g_orders = [ref_element_order(g, a) for a in range(g.order)]
    h_orders = [ref_element_order(h, a) for a in range(h.order)]
    if sorted(g_orders) != sorted(h_orders):
        return False, None
    gens = reference_generating_set(g)

    def extend(images):
        phi = {g.identity: h.identity}
        frontier = [g.identity]
        pairs = list(zip(gens, images))
        while frontier:
            x = frontier.pop()
            for a, b in pairs:
                y, fy = g.mul(x, a), h.mul(phi[x], b)
                if y in phi:
                    if phi[y] != fy:
                        return None
                else:
                    phi[y] = fy
                    frontier.append(y)
        if len(set(phi.values())) != g.order:
            return None
        out = tuple(phi[i] for i in range(g.order))
        if all(out[g.mul(a, b)] == h.mul(out[a], out[b])
               for a in range(g.order) for b in range(g.order)):
            return out
        return None

    def search(images):
        if len(images) == len(gens):
            return extend(images)
        want = g_orders[gens[len(images)]]
        for b in range(h.order):
            if h_orders[b] == want:
                found = search(images + [b])
                if found is not None:
                    return found
        return None

    witness = search([])
    return witness is not None, witness


def assert_isomorphism(g, h, witness):
    assert sorted(witness) == list(range(g.order))
    assert all(witness[g.mul(a, b)] == h.mul(witness[a], witness[b])
               for a in range(g.order) for b in range(g.order))


def test_is_isomorphic_large_abelian():
    z2_6 = elementary_abelian_2(6)
    ok, witness = sg.is_isomorphic(z2_6, z2_6)
    assert ok
    assert_isomorphism(z2_6, z2_6, witness)
    z4, k4 = sg.cyclic(4), sg.klein()
    g = sg.direct_product(sg.direct_product(z4, z4), k4)
    h = sg.direct_product(k4, sg.direct_product(z4, z4))
    for a, b in ((g, h), (h, g)):
        ok, witness = sg.is_isomorphic(a, b)
        assert ok
        assert_isomorphism(a, b, witness)


def test_z4xz4_is_not_z4_semidirect_z4():
    z4 = sg.cyclic(4)
    abelian = sg.direct_product(z4, z4)
    split = sg.semidirect_product(z4, z4, cyclic_action(4, 4, 3))
    # same element-order counts (1, 3 involutions, 12 of order 4)
    assert ref_order_profile(abelian) == ref_order_profile(split)
    assert sg.is_isomorphic(abelian, split) == (False, None)
    assert sg.is_isomorphic(split, abelian) == (False, None)


def order_16_groups():
    """Order-16 groups from direct_product and semidirect_product, each with
    the name of its isomorphism class (12 of the 14 classes)."""
    c, dp, sd = sg.cyclic, sg.direct_product, sg.semidirect_product
    k4, swap = sg.klein(), {0: (0, 1, 2, 3), 1: (0, 2, 1, 3)}
    d8_alt = sd(k4, c(2), swap)
    return [
        ("Z16", sd(c(16), c(1), {0: tuple(range(16))})),
        ("Z8xZ2", dp(c(8), c(2))), ("Z8xZ2", dp(c(2), c(8))),
        ("Z4xZ4", dp(c(4), c(4))),
        ("Z4xZ2^2", dp(c(4), k4)), ("Z4xZ2^2", dp(k4, c(4))),
        ("Z4xZ2^2", dp(dp(c(2), c(4)), c(2))),
        ("Z2^4", dp(k4, k4)), ("Z2^4", dp(c(2), dp(k4, c(2)))),
        ("D16", sd(c(8), c(2), cyclic_action(8, 2, 7))),
        ("SD16", sd(c(8), c(2), cyclic_action(8, 2, 3))),
        ("M16", sd(c(8), c(2), cyclic_action(8, 2, 5))),
        ("Z4:Z4", sd(c(4), c(4), cyclic_action(4, 4, 3))),
        ("D8xZ2", dp(sg.dihedral(8), c(2))), ("D8xZ2", dp(c(2), d8_alt)),
        ("D8xZ2", dp(sd(c(4), c(2), cyclic_action(4, 2, 3)), c(2))),
        ("D8xZ2", sg.build_E_even()),
        ("Q8xZ2", dp(sg.quaternion(8), c(2))), ("Q8xZ2", dp(c(2), sg.quaternion(8))),
        ("K4:Z4", sd(k4, c(4), {x: swap[x % 2] for x in range(4)})),
    ]


def test_is_isomorphic_on_order_16_products():
    groups = order_16_groups()
    assert len({label for label, _ in groups}) == 12
    for (la, g), (lb, h) in itertools.product(groups, repeat=2):
        ok, witness = sg.is_isomorphic(g, h)
        assert ok == (la == lb), (la, lb)
        if ok:
            assert_isomorphism(g, h, witness)
        else:
            assert witness is None


def test_is_isomorphic_matches_exhaustive_backtracking():
    groups = builder_groups(16)
    pairs = equal_order_pairs(groups, 1, 16)
    assert len(pairs) > 400
    for a, b in pairs:
        assert sg.is_isomorphic(groups[a], groups[b]) == \
            reference_is_isomorphic(groups[a], groups[b]), (a, b)


@pytest.mark.slow
def test_is_isomorphic_matches_exhaustive_backtracking_to_order_32():
    groups = builder_groups(32)
    for a, b in equal_order_pairs(groups, 17, 32):
        assert sg.is_isomorphic(groups[a], groups[b]) == \
            reference_is_isomorphic(groups[a], groups[b]), (a, b)


def test_parse_presentation():
    pres = sg.parse_presentation("gens: a,b; rels: a^2, b^3, [a,b]")
    assert pres.generators == ("a", "b")
    assert len(pres.relators) == 3
    with pytest.raises(sg.PresentationError):
        sg.parse_presentation("rels: a^2")
    with pytest.raises(sg.PresentationError):
        sg.parse_presentation("gens: a; rels: b^2")
    with pytest.raises(sg.PresentationError):
        sg.parse_presentation("gens: a; rels: a^")


@pytest.mark.parametrize("text, message", [
    ("gens: a; rels: [a]", "bad commutator '[a]'"),
    ("gens: a; rels: [a,z]", "unknown generator in '[a,z]'"),
    ("gen: a; rels: a^2", "expected 'gens: ...; rels: ...'"),
    ("gens: ; rels: a^2", "no generators"),
])
def test_parse_presentation_names_what_is_malformed(text, message):
    with pytest.raises(sg.PresentationError) as refused:
        sg.parse_presentation(text)
    assert str(refused.value) == message


def test_parse_presentation_reads_spaces_inside_a_commutator():
    """Relators are separated by ", ", so "[a, b]" was once refused as
    unknown generator '[a,'."""
    want = sg.parse_presentation("gens: a,b; rels: a^2, [a,b]")
    for text in ("gens: a,b; rels: a^2, [a, b]", "gens: a,b; rels: a^2, [ a , b ]"):
        assert sg.parse_presentation(text) == want
    with pytest.raises(sg.PresentationError, match=r"^bad commutator '\[a\]'$"):
        sg.parse_presentation("gens: a; rels: [ a ]")


def test_parse_presentation_reads_a_commutator_with_an_exponent():
    """[x,y]^n expands like x^n, and a negative exponent gives the inverse
    word, letters reversed and each inverted; "[a,b]^2" was once refused
    as unknown generator '[a,b]'."""
    expand = {"[a,b]^2": "a b a^-1 b^-1 a b a^-1 b^-1", "[a,b]^-1": "b a b^-1 a^-1",
              "[a,b]^-2": "b a b^-1 a^-1 b a b^-1 a^-1", "[a, b]^1": "[a,b]", "[a,b]^0": ""}
    for short, long in expand.items():
        assert (sg.parse_presentation(f"gens: a,b; rels: a^2, {short}")
                == sg.parse_presentation(f"gens: a,b; rels: a^2, {long}")), short
    with pytest.raises(sg.PresentationError, match=r"^bad exponent in '\[a,b\]\^x'$"):
        sg.parse_presentation("gens: a,b; rels: [a,b]^x")
    with pytest.raises(sg.PresentationError, match=r"^bad commutator '\[a\]'$"):
        sg.parse_presentation("gens: a; rels: [a]^2")
    assert sg.todd_coxeter(sg.parse_presentation("gens: a,b; rels: a^2, b^2, [a,b]^2")).order == 8


def test_parse_presentation_caps_the_letters_of_a_commutator_power():
    """Each power of [x,y] is four letters against MAX_RELATOR_LETTERS."""
    cap = sg.MAX_RELATOR_LETTERS
    pres = sg.parse_presentation(f"gens: a,b; rels: [a,b]^-{cap // 4}")
    assert sum(map(len, pres.relators)) == cap
    for text in ("gens: a,b; rels: [a,b]^3000", f"gens: a,b; rels: a, [a,b]^{cap // 4}"):
        with pytest.raises(sg.UnsupportedSizeError, match=f"cap of {cap} letters"):
            sg.parse_presentation(text)


@pytest.mark.parametrize("letter", [
    (0.0, 1), (0, 1.0), (True, 1), (0, True), (1, -1.0), (2, 1), (-1, 1), (0, 2), (0, 0)])
def test_presentation_refuses_a_letter_that_is_not_two_plain_ints(letter):
    """A float index once built and then failed inside the coset table; a
    float sign gave the torsion (3.0,)."""
    with pytest.raises(sg.PresentationError, match="^bad letter"):
        sg.Presentation(("a", "b"), ((letter,) * 2, ((0, 1),) * 3))


@pytest.mark.parametrize("letter", [(0, 1, 2), (0,), 5, None])
def test_presentation_refuses_a_letter_that_is_not_a_pair(letter):
    with pytest.raises(sg.PresentationError, match="^bad letter"):
        sg.Presentation(("a",), ((letter,),))


@pytest.mark.parametrize("generators,relators", [(("a",), (5,)), (5, ()), (("a",), 5)])
def test_presentation_refuses_arguments_that_are_not_sequences(generators, relators):
    with pytest.raises(sg.PresentationError):
        sg.Presentation(generators, relators)


def test_presentation_refuses_a_generator_name_that_is_not_a_str():
    """A list name raised a bare TypeError from the duplicate check, and
    an int name was stored."""
    for generators in (([1],), (5,)):
        with pytest.raises(sg.PresentationError, match="must be strings"):
            sg.Presentation(generators, ())


def test_parse_presentation_caps_the_expanded_relators():
    """An exponent is refused before it is expanded: a^99999999999 would
    otherwise need a list of that many letters."""
    cap = sg.MAX_RELATOR_LETTERS
    pres = sg.parse_presentation(f"gens: a,b; rels: a^{cap - 4}, [a,b]")
    assert sum(map(len, pres.relators)) == cap
    for text in ("gens: a; rels: a^99999999999", f"gens: a; rels: a^-{cap + 1}",
                 f"gens: a,b; rels: a^{cap - 3}, [a,b]",
                 f"gens: a; rels: a^{cap // 2} a^{cap // 2 + 1}"):
        with pytest.raises(sg.UnsupportedSizeError, match=f"cap of {cap} letters"):
            sg.parse_presentation(text)


# the order-16 model ((Z2 x Z2) ⋊ Z2) x Z2 of `build_E_even`
E_EVEN_PRESENTATION = sg.parse_presentation(
    "gens: a,b,u,r; rels: a^2, b^2, u^2, r^2, [a,b], [a,r], [b,r], [u,r], a u b^-1 u^-1")

KNOWN_ORDERS = [
    ("gens: a; rels: a^5", 5),
    ("gens: a; rels: a^1", 1),
    ("gens: a,b; rels: a^2, b^2, [a,b]", 4),
    ("gens: s,t; rels: s^2, t^2, s t s t s t", 6),
    ("gens: a,b; rels: a^4, a^2 b^-2, b a b^-1 a", 8),
    ("gens: a,b; rels: a^3, b^4, [a,b]", 12),
]


@pytest.mark.parametrize("text,order", KNOWN_ORDERS)
def test_todd_coxeter_known_orders(text, order):
    assert sg.todd_coxeter(sg.parse_presentation(text)).order == order


def test_todd_coxeter_identifies_groups():
    s3 = sg.todd_coxeter(sg.parse_presentation(
        "gens: s,t; rels: s^2, t^2, s t s t s t"))
    assert sg.is_isomorphic(s3, sg.dihedral(6))[0]
    q8 = sg.todd_coxeter(sg.parse_presentation(
        "gens: a,b; rels: a^4, a^2 b^-2, b a b^-1 a"))
    assert sg.is_isomorphic(q8, sg.quaternion(8))[0]
    assert not sg.is_isomorphic(q8, sg.dihedral(8))[0]


def test_todd_coxeter_exercise_presentation():
    """The order-8 presentation with three involutions and a swap."""
    g = sg.todd_coxeter(sg.D8_PRESENTATION)
    assert g.order == 8
    assert not g.is_abelian()
    assert sg.is_isomorphic(g, sg.dihedral(8))[0]
    assert not sg.is_isomorphic(g, sg.quaternion(8))[0]


def test_todd_coxeter_full_model_presentation():
    g = sg.todd_coxeter(E_EVEN_PRESENTATION)
    assert g.order == 16
    assert sg.is_isomorphic(g, sg.build_E_even())[0]
    assert sg.is_isomorphic(
        g, sg.direct_product(sg.dihedral(8), sg.cyclic(2)))[0]


def abelianized(pres):
    """The presentation with every pairwise commutator of generators added."""
    n = len(pres.generators)
    commutators = tuple(((i, 1), (j, 1), (i, -1), (j, -1))
                        for i in range(n) for j in range(i + 1, n))
    return sg.Presentation(pres.generators, pres.relators + commutators)


def abelian_group(torsion):
    """The direct product of cyclic groups of these orders, as a table."""
    group = sg.cyclic(1)
    for d in torsion:
        group = sg.direct_product(group, sg.cyclic(d))
    return group


def test_abelianizations():
    ab_d8 = sg.todd_coxeter(abelianized(sg.D8_PRESENTATION))
    assert ab_d8.order == 4
    assert sg.is_isomorphic(ab_d8, sg.klein())[0]
    ab_e = sg.todd_coxeter(abelianized(E_EVEN_PRESENTATION))
    assert ab_e.order == 8
    assert sg.is_isomorphic(
        ab_e, sg.direct_product(sg.klein(), sg.cyclic(2)))[0]


# every finite presentation the tests and the golden CLI records use
FINITE_PRESENTATIONS = [
    "gens: a; rels: a^1",
    "gens: a; rels: a^2",
    "gens: a; rels: a^5",
    "gens: a; rels: a^7",
    "gens: a,b; rels: a^2, b^2, [a,b]",
    "gens: a,b; rels: a^2, b^3, [a,b]",
    "gens: a,b; rels: a^3, b^4, [a,b]",
    "gens: s,t; rels: s^2, t^2, s t s t s t",
    "gens: a,b; rels: a^4, a^2 b^-2, b a b^-1 a",
    "gens: a, b; rels: a^2, b^4, a b a b",
]


@pytest.mark.parametrize("pres", [sg.parse_presentation(t) for t in FINITE_PRESENTATIONS]
                         + [sg.D8_PRESENTATION, E_EVEN_PRESENTATION])
def test_abelian_invariants_match_todd_coxeter(pres):
    """The Smith form of the relator exponent sums against the table that
    coset enumeration builds for the abelianized presentation."""
    ab = sg.abelian_invariants(pres)
    torsion = ab.torsion
    assert ab == sg.FinAbGroup(0, torsion)  # the checked constructor agrees
    table = sg.todd_coxeter(abelianized(pres))
    assert table.order == math.prod(torsion)
    assert sg.is_isomorphic(table, abelian_group(torsion))[0]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def seeded_relator_matrices():
    """12 random 3 x 3 exponent matrices whose determinant is 1..64, each
    as (presentation, |determinant|)."""
    rng = random.Random(16)
    out = []
    while len(out) < 12:
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        det = abs(_det3(rows))
        if not 1 <= det <= 64:
            continue
        relators = tuple(tuple((g, 1 if e > 0 else -1) for g, e in enumerate(row)
                               for _ in range(abs(e))) for row in rows)
        out.append((sg.Presentation(("a", "b", "c"), relators), det))
    return out


def test_abelian_invariants_on_seeded_relator_matrices():
    """Random 3 x 3 exponent matrices whose determinant is at most 64: the
    invariants describe the group that coset enumeration finds."""
    for pres, det in seeded_relator_matrices():
        ab = sg.abelian_invariants(pres)
        torsion = ab.torsion
        assert ab == sg.FinAbGroup(0, torsion) and math.prod(torsion) == det
        assert sg.is_isomorphic(sg.todd_coxeter(abelianized(pres)), abelian_group(torsion))[0]


@pytest.mark.parametrize("text,want", [
    # rows (6, 4, 0), (4, 6, 10), (2, 0, 14): the gcd of the entries is 2,
    # of the 2 x 2 minors 4, and the determinant 360, so 2 | 2 | 90
    ("gens: a,b,c; rels: a^6 b^4, a^4 b^6 c^10, a^2 c^14", sg.FinAbGroup(0, (2, 2, 90))),
    # diagonal (6, 4) is not in divisibility order: Z6 + Z4 = Z2 + Z12
    ("gens: a,b; rels: a^6, b^4", sg.FinAbGroup(0, (2, 12))),
    ("gens: a,b,c; rels: a^-9 b^6, b^-15", sg.FinAbGroup(1, (3, 45))),
    ("gens: a,b; rels: a^2 b^-2 a^-2 b^2", sg.FinAbGroup(2, ())),
    ("gens: a,b; rels: ", sg.FinAbGroup(2, ())),
])
def test_abelian_invariants_need_several_pivots(text, want):
    assert sg.abelian_invariants(sg.parse_presentation(text)) == want


GAMMA_V2_WITH_T5 = sg.Presentation(sg.GAMMA_V2_PRESENTATION.generators,
                                   sg.GAMMA_V2_PRESENTATION.relators + (((1, 1),) * 5,))


def test_gamma_v2_abelianization():
    """Gamma_V2 is infinite: Z4 + Z.  With T^5 added it becomes finite,
    Z4 + Z5 = Z20 in invariant factors."""
    assert sg.abelian_invariants(sg.GAMMA_V2_PRESENTATION) == sg.FinAbGroup(1, (4,))
    assert sg.abelian_invariants(GAMMA_V2_WITH_T5) == sg.FinAbGroup(0, (20,))
    assert sg.todd_coxeter(abelianized(GAMMA_V2_WITH_T5)).order == 20


def test_todd_coxeter_capacity():
    infinite = sg.parse_presentation("gens: V,T; rels: V^4, V^2 T V^-2 T^-1")
    with pytest.raises(sg.CosetCapacityError):
        sg.todd_coxeter(infinite, max_cosets=2000)


def ref_todd_coxeter_table(pres, max_cosets=100_000):
    """The table of the presented group, one word walk per entry: each
    element gets the word of its first visit in a breadth-first search of
    the coset table from the identity, and entry (i, j) follows word j
    from coset i."""
    table = sg._coset_table(pres, max_cosets)
    words, order = {0: []}, [0]
    for c in order:
        for x, d in enumerate(table[c]):
            if d not in words:
                words[d] = words[c] + [x]
                order.append(d)

    def follow(c, word):
        for x in word:
            c = table[c][x]
        return c

    n = len(table)
    return tuple(tuple(follow(i, words[j]) for j in range(n)) for i in range(n))


# every presentation this file hands to todd_coxeter, the finite ones of
# the golden records, and the largest order a table may have
TODD_COXETER_PRESENTATIONS = (
    [sg.parse_presentation(text) for text, _ in KNOWN_ORDERS]
    + [sg.parse_presentation(t) for t in FINITE_PRESENTATIONS + ["gens: a; rels: a^64"]]
    + [sg.D8_PRESENTATION, E_EVEN_PRESENTATION]
    + [abelianized(pres) for pres in
       [sg.parse_presentation(t) for t in FINITE_PRESENTATIONS]
       + [sg.D8_PRESENTATION, E_EVEN_PRESENTATION, GAMMA_V2_WITH_T5]
       + [pres for pres, _ in seeded_relator_matrices()]])


@pytest.mark.parametrize("pres", TODD_COXETER_PRESENTATIONS)
def test_todd_coxeter_table_matches_the_word_walk(pres):
    assert sg.todd_coxeter(pres).table == ref_todd_coxeter_table(pres)


@pytest.mark.parametrize("n", [65, 200])
def test_todd_coxeter_refuses_an_order_above_64_without_a_table(monkeypatch, n):
    def no_table(table):
        raise AssertionError("a table was built")

    monkeypatch.setattr(sg, "MulTableGroup", no_table)
    with pytest.raises(sg.UnsupportedSizeError) as refused:
        sg.todd_coxeter(sg.parse_presentation(f"gens: a; rels: a^{n}"))
    assert str(refused.value) == f"order {n} outside supported range 1..64"


def test_one_generator_orders_come_from_the_abelianization(monkeypatch):
    """A group with one generator is cyclic, so a finite abelianization
    gives its order: a^65, a^4000 and a^10000 are refused with no coset
    enumeration, and a^64 still enumerates.  A free abelianization proves
    the group infinite, so it is refused with no coset enumeration too."""
    calls = []

    def counted(pres, max_cosets):
        calls.append(pres)
        return real(pres, max_cosets)

    real = sg._coset_table
    monkeypatch.setattr(sg, "_coset_table", counted)
    for n in (65, 4000, 10000):
        with pytest.raises(sg.UnsupportedSizeError) as refused:
            sg.todd_coxeter(sg.parse_presentation(f"gens: a; rels: a^{n}"))
        assert str(refused.value) == f"order {n} outside supported range 1..64"
    assert calls == []
    assert sg.todd_coxeter(sg.parse_presentation("gens: a; rels: a^64")).order == 64
    assert len(calls) == 1
    with pytest.raises(sg.CosetCapacityError):
        sg.todd_coxeter(sg.parse_presentation("gens: a; rels: a^3 a^-3"), max_cosets=50)
    assert len(calls) == 1


@pytest.mark.parametrize("text,n", [
    ("gens: a,b; rels: a^4000, b", 4000),
    ("gens: a,b; rels: a^2000, b^2, [a,b]", 4000),
    ("gens: a,b; rels: a^65, b", 65),
])
def test_a_large_finite_abelianization_is_refused_before_enumeration(monkeypatch, text, n):
    """A group is at least as large as its abelianization, so one of order
    above 64 refuses the presentation with no coset table."""
    def no_coset_table(pres, max_cosets):
        raise AssertionError("cosets were enumerated")

    monkeypatch.setattr(sg, "_coset_table", no_coset_table)
    with pytest.raises(sg.UnsupportedSizeError) as refused:
        sg.todd_coxeter(sg.parse_presentation(text))
    assert str(refused.value) == f"order at least {n} outside supported range 1..64"


@pytest.mark.parametrize("pres", TODD_COXETER_PRESENTATIONS)
def test_the_abelianization_order_divides_the_group_order(pres):
    """The fact the refusal rests on: G^ab is a quotient of G."""
    ab = sg.abelian_invariants(pres)
    assert ab.free_rank == 0
    assert sg.todd_coxeter(pres).order % math.prod(ab.torsion) == 0


@pytest.mark.parametrize("pres", [
    sg.GAMMA_V2_PRESENTATION,
    sg.parse_presentation("gens: a,b; rels: a^2"),
    sg.parse_presentation("gens: a; rels: a^3 a^-3"),
])
def test_a_free_abelianization_still_reaches_the_cap(pres):
    assert sg.abelian_invariants(pres).free_rank >= 1
    with pytest.raises(sg.CosetCapacityError):
        sg.todd_coxeter(pres, max_cosets=200)


@pytest.mark.parametrize("free_rank,torsion,text", [
    (0, (), "trivial"),
    (1, (), "Z"),
    (0, (2, 2), "Z2 + Z2"),
    (1, (4,), "Z4 + Z"),
    (2, (2, 12), "Z2 + Z12 + Z + Z"),
])
def test_fin_ab_group_prints_its_summands(free_rank, torsion, text):
    assert str(sg.FinAbGroup(free_rank, torsion)) == text


@pytest.mark.parametrize("free_rank,torsion", [
    (0, (2.5,)),
    (0, (4.0,)),
    (0, ("4",)),
    (True, ()),
    (1.0, ()),
    (0, 5),  # torsion that is not a sequence
])
def test_fin_ab_group_takes_plain_ints_only(free_rank, torsion):
    with pytest.raises(ValueError):
        sg.FinAbGroup(free_rank, torsion)


def test_fin_ab_group_stores_list_torsion_as_a_tuple():
    listed = sg.FinAbGroup(0, [2, 4])
    assert listed == sg.FinAbGroup(0, (2, 4)) and listed.torsion == (2, 4)
    assert hash(listed) == hash(sg.FinAbGroup(0, (2, 4)))


def seeded_presentations(count=600):
    """Presentations on one to three generators: a power relator a^2..a^6
    for some generators, then one to three relators of 2 to 10 random
    letters."""
    rng = random.Random(22)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        rels = [((g, 1),) * rng.randint(2, 6) for g in range(n) if rng.random() < 0.6]
        rels += [tuple((rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(2, 10)))
                 for _ in range(rng.randint(1, 3))]
        out.append(sg.Presentation(("a", "b", "c")[:n], tuple(rels)))
    return out


# (presentation, coset cap): every presentation this file hands to
# todd_coxeter, with the cap it gets there, and 600 seeded ones under a cap
# of 200, which about a quarter of them reach
ENUMERATION_CORPUS = (
    [(pres, 100_000) for pres in TODD_COXETER_PRESENTATIONS]
    + [(sg.GAMMA_V2_PRESENTATION, 2000)]
    + [(sg.parse_presentation(f"gens: a; rels: a^{n}"), 100_000) for n in (65, 200)]
    + [(pres, 200) for pres in seeded_presentations()])


@functools.cache
def enumeration_outcomes():
    """Each corpus entry's coset table, or the text of its CosetCapacityError."""
    out = []
    for pres, cap in ENUMERATION_CORPUS:
        try:
            out.append(sg._coset_table(pres, cap))
        except sg.CosetCapacityError as exc:
            out.append(str(exc))
    return out


# sha256 of the outcomes, one repr a line, as recorded from the enumeration
# that still rescanned every relator at every coset after its main loop:
# every table, its coset numbering and every refusal must stay the same
ENUMERATION_DIGEST = "2e1aded529570928b3bb5ef462064f235cdc1c203a123c91f3033cd513c7271f"


def test_coset_enumeration_matches_the_recorded_digest():
    text = "\n".join(map(repr, enumeration_outcomes()))
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_DIGEST


def test_coset_tables_close_every_relator_at_every_coset():
    """From the definition: letter 2g is generator g and 2g+1 its inverse;
    every entry is a coset, the inverse letter leads back, and each relator
    read from any coset returns to it."""
    closed = 0
    for (pres, _), table in zip(ENUMERATION_CORPUS, enumeration_outcomes()):
        if isinstance(table, str):
            assert table.startswith("exceeded ")
            continue
        closed += 1
        n = len(table)
        for c, row in enumerate(table):
            assert len(row) == 2 * len(pres.generators)
            for x, d in enumerate(row):
                assert 0 <= d < n and table[d][x ^ 1] == c, (pres, c, x)
        for rel in pres.relators:
            letters = [2 * g + (s < 0) for g, s in rel]
            for c in range(n):
                d = c
                for x in letters:
                    d = table[d][x]
                assert d == c, (pres, rel, c)
    assert closed > len(ENUMERATION_CORPUS) // 2


def test_certified_tables_equal_the_word_walk_and_the_full_check():
    """Every corpus presentation whose enumeration closes: at 64 cosets or
    fewer, the table the coset graph certifies is the word-walk table, and
    the full check rebuilds the same group from it; past 64 it is refused."""
    certified = 0
    for (pres, cap), table in zip(ENUMERATION_CORPUS, enumeration_outcomes()):
        if isinstance(table, str):
            continue
        if len(table) > 64:
            with pytest.raises(sg.UnsupportedSizeError):
                sg.todd_coxeter(pres, cap)
            continue
        g = sg.todd_coxeter(pres, cap)
        assert g.table == ref_todd_coxeter_table(pres, cap), pres
        assert sg.MulTableGroup(g.table) == g, pres
        certified += 1
    assert certified > len(ENUMERATION_CORPUS) // 2


# S3 = <t, s> acting on the three right cosets of <s>: letters t, t^-1, s,
# s^-1; complete, consistent and connected, but coset 0 is fixed by s
S3_ON_THREE_COSETS = [[1, 2, 0, 0], [2, 0, 2, 2], [0, 1, 1, 1]]
S3_PRESENTATION = sg.parse_presentation("gens: t,s; rels: t^3, s^2, s t s t")


def test_a_coset_graph_that_is_not_regular_is_refused(monkeypatch):
    """Every check but the regularity one passes: the letter columns are
    inverse permutations and the graph is connected.  With t first, every
    Schreier generator of t is trivial, so only the last generator, s,
    shows that the action is not regular."""
    monkeypatch.setattr(sg, "_coset_table", lambda pres, max_cosets: S3_ON_THREE_COSETS)
    with pytest.raises(sg.InvalidTableError, match="not a regular"):
        sg.todd_coxeter(S3_PRESENTATION)


def test_a_disconnected_coset_graph_is_an_invalid_table(monkeypatch, capsys):
    """Two cosets, each fixed by a: the letter columns are inverse
    permutations, but the search never leaves coset 0.  That is a fault of
    the enumerator, not malformed input, so the CLI exits 1, not 2."""
    from extmcg import cli

    monkeypatch.setattr(sg, "_coset_table", lambda pres, max_cosets: [[0, 0], [1, 1]])
    with pytest.raises(sg.InvalidTableError, match="^coset graph is not connected$"):
        sg.todd_coxeter(sg.parse_presentation("gens: a; rels: a^2"))
    assert cli.main(["coset-enum", "gens: a; rels: a^2"]) == 1
    assert "coset graph is not connected" in capsys.readouterr().err


def test_every_corrupted_entry_of_a_regular_coset_table_is_refused(monkeypatch):
    """S3's own coset table, with any one entry changed to any other coset,
    an inverse letter off the search tree included, is refused."""
    table = sg._coset_table(S3_PRESENTATION, 100)
    assert sg.todd_coxeter(S3_PRESENTATION).order == len(table) == 6
    corrupted = []
    monkeypatch.setattr(sg, "_coset_table", lambda pres, max_cosets: corrupted)
    for c, row in enumerate(table):
        for x, d in enumerate(row):
            for e in range(len(table)):
                if e != d:
                    corrupted[:] = [list(r) for r in table]
                    corrupted[c][x] = e
                    with pytest.raises(sg.InvalidTableError):
                        sg.todd_coxeter(S3_PRESENTATION)


@pytest.mark.parametrize("text,ab", [
    ("gens: V,T; rels: V^4, V^2 T V^-2 T^-1", "Z4 + Z"),
    ("gens: a,b; rels: a^2", "Z2 + Z"),
    ("gens: a; rels: a^3 a^-3", "Z"),
])
def test_a_free_abelianization_defines_no_coset(monkeypatch, text, ab):
    """No cap closes an infinite group, so the refusal names the
    abelianization that proves it infinite and enumerates nothing."""
    calls = []
    real = sg._coset_table

    def counted(pres, max_cosets):
        calls.append(pres)
        return real(pres, max_cosets)

    monkeypatch.setattr(sg, "_coset_table", counted)
    with pytest.raises(sg.CosetCapacityError) as refused:
        sg.todd_coxeter(sg.parse_presentation(text), max_cosets=2000)
    assert str(refused.value) == (f"abelianization {ab} has a free summand, so the "
                                  "group is infinite and no coset cap can close it")
    assert calls == []


@pytest.mark.parametrize("cap", ["10", None, 2.5, True, 0, -1])
def test_todd_coxeter_refuses_a_cap_that_is_not_a_positive_int(monkeypatch, cap):
    """Refused before the abelianization is computed; the smallest cap,
    1, still encloses the trivial group."""
    pres = sg.parse_presentation("gens: a; rels: a")
    assert sg.todd_coxeter(pres, max_cosets=1).order == 1

    def no_work(pres):
        raise AssertionError("the presentation was read")

    monkeypatch.setattr(sg, "abelian_invariants", no_work)
    with pytest.raises(sg.UnsupportedSizeError) as refused:
        sg.todd_coxeter(pres, max_cosets=cap)
    assert str(refused.value) == f"max_cosets must be an int at least 1, got {cap!r}"


def test_direct_product_structure():
    g = sg.direct_product(sg.cyclic(3), sg.cyclic(4))
    assert g.order == 12
    assert g.is_abelian()
    assert sg.is_isomorphic(g, sg.cyclic(12))[0]
    # factors commute and embed: (a, e) * (e, b) agrees with pair indexing
    a, b = 1 * 4, 2  # a = element (1,0), b = (0,2)
    assert g.mul(a, b) == g.mul(b, a) == 1 * 4 + 2


def test_semidirect_product():
    inv = {0: (0, 1, 2), 1: (0, 2, 1)}
    s3 = sg.semidirect_product(sg.cyclic(3), sg.cyclic(2), inv)
    assert s3.order == 6
    assert not s3.is_abelian()
    assert sg.is_isomorphic(s3, sg.dihedral(6))[0]


def reference_semidirect_table(n, h, action):
    """The product table filled one entry at a time through an index
    function: pair (a, x) has index a*|h| + x."""
    def idx(a, x):
        return a * h.order + x

    size = n.order * h.order
    table = [[0] * size for _ in range(size)]
    for a in range(n.order):
        for x in range(h.order):
            for b in range(n.order):
                for y in range(h.order):
                    table[idx(a, x)][idx(b, y)] = idx(n.table[a][action[x][b]], h.table[x][y])
    return tuple(tuple(row) for row in table)


def test_semidirect_rows_match_the_entrywise_table(monkeypatch):
    """Every product builder_groups makes, and one direct product of order
    64, has the table the entry-by-entry construction gives; a direct
    product's is the one under the trivial action."""
    made = []
    real_semidirect, real_direct = sg.semidirect_product, sg.direct_product

    def semidirect(n, h, action):
        g = real_semidirect(n, h, action)
        made.append((n, h, action, g))
        return g

    def direct(n, h):
        g = real_direct(n, h)
        made.append((n, h, {x: tuple(range(n.order)) for x in range(h.order)}, g))
        return g

    monkeypatch.setattr(sg, "semidirect_product", semidirect)
    monkeypatch.setattr(sg, "direct_product", direct)
    builder_groups(32)
    sg.direct_product(sg.dihedral(8), sg.quaternion(8))
    assert len(made) > 100 and made[-1][3].order == 64
    for n, h, action, g in made:
        assert g.table == reference_semidirect_table(n, h, action), (n.order, h.order)


def test_semidirect_accepts_list_images():
    """An action whose images are lists builds the group its tuple images
    build."""
    c3, c4 = sg.cyclic(3), sg.cyclic(4)
    for n, h, action in [(c3, sg.cyclic(2), {0: (0, 1, 2), 1: (0, 2, 1)}),
                         (c4, c4, cyclic_action(4, 4, 3))]:
        as_lists = {x: list(perm) for x, perm in action.items()}
        assert sg.semidirect_product(n, h, as_lists) == sg.semidirect_product(n, h, action)


def test_semidirect_rejects_bad_actions():
    c3, c2 = sg.cyclic(3), sg.cyclic(2)
    with pytest.raises(sg.InvalidActionError):
        sg.semidirect_product(c3, c2, {0: (0, 1, 2), 1: (0, 0, 1)})  # not a bijection
    with pytest.raises(sg.InvalidActionError):
        sg.semidirect_product(c3, c2, {0: (0, 1, 2), 1: (1, 0, 2)})  # moves identity
    c4 = sg.cyclic(4)
    bad_hom = {0: (0, 1, 2), 1: (0, 2, 1), 2: (0, 2, 1), 3: (0, 1, 2)}
    with pytest.raises(sg.InvalidActionError):
        sg.semidirect_product(c3, c4, bad_hom)  # action(1)^2 != action(2)
    with pytest.raises(sg.InvalidActionError):
        sg.semidirect_product(c3, c2, {1: (0, 2, 1)})  # missing key


def reference_action_is_valid(n, h, action):
    """The definition, pair by pair: every image is an automorphism of n,
    and action[x y] is action[x] after action[y] for every x and y in h."""
    nr, hr = range(n.order), range(h.order)
    return all(perm[n.table[a][b]] == n.table[perm[a]][perm[b]]
               for perm in action.values() for a in nr for b in nr) and \
        all(tuple(action[x][action[y][a]] for a in nr) == tuple(action[h.table[x][y]])
            for x in hr for y in hr)


def accepted_actions(n, h, maps):
    """How many of the maps semidirect_product accepts, asserting for each
    that it accepts exactly when the pairwise definition holds."""
    accepted = 0
    for perms in maps:
        action = dict(enumerate(perms))
        try:
            sg.semidirect_product(n, h, action)
            ok = True
        except sg.InvalidActionError:
            ok = False
        assert ok == reference_action_is_valid(n, h, action), perms
        accepted += ok
    return accepted


@pytest.mark.parametrize("n,h,homs", [
    (sg.cyclic(3), sg.cyclic(2), 2),
    (sg.cyclic(3), sg.klein(), 4),
    (sg.klein(), sg.cyclic(2), 4),
    (sg.klein(), sg.cyclic(3), 3),
    (sg.cyclic(4), sg.cyclic(2), 2),
    (sg.klein(), sg.cyclic(1), 1),
], ids=["Z3-Z2", "Z3-Z2^2", "Z2^2-Z2", "Z2^2-Z3", "Z4-Z2", "Z2^2-Z1"])
def test_semidirect_checks_on_generators_accept_exactly_the_actions(n, h, homs):
    """semidirect_product checks the action on a generating set of h.  For
    every map from h to the permutations of n's indices (16,332 maps over
    the six pairs), it accepts exactly when the pairwise definition holds:
    for the homomorphisms into Aut(n), counted here.  The trivial h has no
    generators, so only the check that its identity acts trivially applies."""
    maps = itertools.product(itertools.permutations(range(n.order)), repeat=h.order)
    assert accepted_actions(n, h, maps) == homs


@pytest.mark.parametrize("h", [
    sg.klein(), sg.semidirect_product(sg.cyclic(3), sg.cyclic(2), {0: (0, 1, 2), 1: (0, 2, 1)})
], ids=["Z2^2", "S3"])
def test_semidirect_checks_every_generator_of_a_non_abelian_action(h):
    """Above, wherever h has two generators its images commute, so a check
    of one generator only, or of each composition in reverse order, would
    pass there.  Here h has two generators and acts on Z2^2, whose
    automorphisms are its six permutations fixing 0, a copy of S3.  Every
    map into them sending the identity to the identity is tested (216 and
    7,776 maps); 10 are homomorphisms (the trivial one, 9 or 3 onto a Z2,
    and 0 or 6 isomorphisms)."""
    n = sg.klein()
    auts = [p for p in itertools.permutations(range(4)) if p[0] == 0]
    maps = ((tuple(range(4)), *rest) for rest in itertools.product(auts, repeat=h.order - 1))
    assert accepted_actions(n, h, maps) == 10


@pytest.mark.parametrize("action", [
    {0: (0, 1), 1: (0, 1.0)},     # a float equal to an index
    {0: (0, 1), 1: (0, True)},    # bool is not an element index
    {0: (0, 1), 1: (0, "1")},
    {0: (0, 1), 1: 5},            # an image without entries
    {0: (0, 1), 1: None},
    {0: (0, 1), 1.0: (0, 1)},     # keys follow the same rule
    {0: (0, 1), True: (0, 1)},
    5,                            # not a mapping at all
    {0, 1},                       # the keys without their images
])
def test_semidirect_rejects_non_index_actions(action):
    with pytest.raises(sg.InvalidActionError):
        sg.semidirect_product(sg.cyclic(2), sg.cyclic(2), action)


def test_quotients():
    d8 = sg.dihedral(8)
    q = sg.quotient(d8, ref_center(d8))
    assert sg.is_isomorphic(q, sg.klein())[0]
    with pytest.raises(sg.InvalidSubgroupError):
        sg.quotient(d8, {0, 1})  # reflection subgroup is not normal


def test_products_equal_their_validated_tables():
    """semidirect_product and direct_product skip the table check, so every
    group of the catalog, each product among them, equals the group that
    MulTableGroup.__new__ validates from its table, identity included."""
    groups = builder_groups(32)
    assert sum(":" in name or "x" in name for name in groups) > 100
    # the product's identity comes from its factors': here neither is element 0
    z3 = identity_last(sg.cyclic(3))
    groups["D8'xZ3'"] = sg.direct_product(identity_last(sg.dihedral(8)), z3)
    groups["Z3':Z2'"] = sg.semidirect_product(z3, identity_last(sg.cyclic(2)),
                                              {0: (1, 0, 2), 1: (0, 1, 2)})
    assert groups["D8'xZ3'"].identity == 23 and groups["Z3':Z2'"].identity == 5
    for name, g in groups.items():
        assert sg.MulTableGroup(g.table) == g, name


def identity_last(g):
    """g with each element x renamed n - 1 - x, so the identity is last."""
    return sg.MulTableGroup(relabelled(g.table, range(g.order - 1, -1, -1)))


def alternating_4():
    return sg.semidirect_product(sg.klein(), sg.cyclic(3),
                                 {0: (0, 1, 2, 3), 1: (0, 2, 3, 1), 2: (0, 3, 1, 2)})


@pytest.mark.parametrize("build,normals", [
    (lambda: sg.dihedral(8), 6),
    (lambda: sg.dihedral(12), 7),
    (lambda: sg.quaternion(8), 6),
    (alternating_4, 3),
    (sg.build_E_even, 19),
    (lambda: sg.cyclic(12), 6),
    (lambda: identity_last(sg.dihedral(8)), 6),
])
def test_quotients_equal_their_validated_tables(build, normals):
    """quotient skips the table check: the quotient by every normal
    subgroup equals the group validated from its table, also when the
    identity is not element 0."""
    g = build()
    subs = [n for n in sg.all_subgroups(g) if g.is_normal(n)]
    assert len(subs) == normals
    for n in subs:
        q = sg.quotient(g, n)
        assert q.order * len(n) == g.order
        assert sg.MulTableGroup(q.table) == q, sorted(n)


def test_products_and_quotients_need_table_groups():
    """The unchecked product and quotient tables rest on checked factors,
    so a look-alike group is refused before any work."""
    c2 = sg.cyclic(2)
    fake = SimpleNamespace(order=2, table=c2.table, identity=0)
    trivial = {0: (0, 1), 1: (0, 1)}
    for call in (lambda: sg.semidirect_product(fake, c2, trivial),
                 lambda: sg.semidirect_product(c2, fake, trivial),
                 lambda: sg.direct_product(fake, c2),
                 lambda: sg.direct_product(c2, fake),
                 lambda: sg.quotient(fake, {0}),
                 lambda: sg.is_isomorphic(5, sg.klein()),
                 lambda: sg.is_isomorphic(c2, fake),
                 lambda: sg.has_complement(5, [0])):
        with pytest.raises(TypeError):
            call()


def test_inverse_and_is_abelian_match_their_definitions():
    for name, g in builder_groups(32).items():
        e, rng = g.identity, range(g.order)
        assert all(g.mul(a, g.inverse(a)) == e == g.mul(g.inverse(a), a) for a in rng), name
        assert g.is_abelian() == all(g.mul(a, b) == g.mul(b, a) for a in rng for b in rng), name


def brute_force_has_complement(g, normal):
    nset = frozenset(normal)
    want = g.order // len(nset)
    for h in sg.all_subgroups(g):
        if len(h) == want and h & nset == {g.identity}:
            return True
    return False


def test_has_complement_against_lattice_scan():
    e = sg.build_E_even()
    kernel = e.closure([sg.E_EVEN_GENS["delta1"], sg.E_EVEN_GENS["delta2"]])
    d8 = sg.dihedral(8)
    q8 = sg.quaternion(8)
    c12 = sg.cyclic(12)
    cases = [
        (e, kernel),
        (d8, ref_center(d8)),
        (q8, ref_center(q8)),
        (c12, c12.closure([3])),   # C4 normal, complement C3
        (c12, c12.closure([6])),   # C2 inside C4: no complement
        (sg.klein(), frozenset({0, 1})),
    ]
    for g, n in cases:
        assert sg.has_complement(g, n) == brute_force_has_complement(g, n)
    assert sg.has_complement(e, kernel) is True
    assert sg.has_complement(d8, ref_center(d8)) is False
    assert sg.has_complement(q8, ref_center(q8)) is False


def test_has_complement_on_every_normal_subgroup():
    for name, g in builder_groups(16).items():
        for n in sg.all_subgroups(g):
            if g.is_normal(n):
                assert sg.has_complement(g, n) == brute_force_has_complement(g, n), \
                    (name, sorted(n))


def test_generating_set_picks_the_greedy_representatives():
    """From the identity, and from a normal subgroup N as has_complement
    uses it: in index order, each element outside the span of the base
    and the elements picked before it, until the span is everything."""
    for name, g in builder_groups(16).items():
        assert sg._generating_set(g) == reference_generating_set(g), name
        for n in sg.all_subgroups(g):
            if g.is_normal(n):
                reps, span = [], n
                for a in range(g.order):
                    if len(span) == g.order:
                        break
                    if a not in span:
                        reps.append(a)
                        span = g.closure(n.union(reps))
                assert sg._generating_set(g, n) == reps, (name, sorted(n))


@pytest.mark.slow
@pytest.mark.parametrize("n", range(1, 65))
def test_has_complement_in_cyclic_groups(n):
    g = sg.cyclic(n)
    for d in divisors(n):
        sub = g.closure([n // d % n])  # the subgroup of order d
        assert sg.has_complement(g, sub) == brute_force_has_complement(g, sub) \
            == (math.gcd(d, n // d) == 1)


@pytest.mark.slow
def test_has_complement_of_dihedral_rotations():
    g = sg.dihedral(64)
    rotations = g.closure([2])
    assert len(rotations) == 32
    assert sg.has_complement(g, rotations) is brute_force_has_complement(g, rotations) is True


def test_build_E_even_structure():
    e = sg.build_E_even()
    assert e.order == 16
    d1 = sg.E_EVEN_GENS["delta1"]
    d2 = sg.E_EVEN_GENS["delta2"]
    u = sg.E_EVEN_GENS["u"]
    r = sg.E_EVEN_GENS["r"]
    assert all(ref_element_order(e, x) == 2 for x in (d1, d2, u, r))
    # the swap conjugates one factor generator to the other
    assert e.mul(e.mul(u, d1), u) == d2
    # r is central
    assert all(e.mul(r, x) == e.mul(x, r) for x in range(16))
    kernel = e.closure([d1, d2])
    assert kernel == frozenset({0, 4, 8, 12})
    assert e.is_normal(kernel)
    assert sg.is_isomorphic(sg.quotient(e, kernel), sg.klein())[0]
    assert sg.is_isomorphic(
        e, sg.direct_product(sg.dihedral(8), sg.cyclic(2)))[0]
    assert not sg.is_isomorphic(
        e, sg.direct_product(sg.quaternion(8), sg.cyclic(2)))[0]
    assert not sg.is_isomorphic(e, sg.cyclic(16))[0]


@pytest.mark.parametrize("elems", [
    {0, 2, -2}, {0, 4}, {0, 2, 6},
    [0, 2.0], [0, True, 2, 3], [False, 2], [0, "2"], [0, None],
    5, [[1]],  # not iterable, a member that does not hash
])
def test_indices_outside_the_group_make_no_subgroup(elems):
    """-2 would pick row 2 through negative indexing and 4 or 6 would run
    past the table.  Members follow the table rule, a plain int (no bool,
    no float): 2.0 raised TypeError, and True or False stood for 1 or 0."""
    c4 = sg.cyclic(4)
    assert not c4.is_subgroup(elems)
    assert not c4.is_normal(elems)
    with pytest.raises(sg.InvalidSubgroupError):
        sg.quotient(c4, elems)
    with pytest.raises(sg.InvalidSubgroupError):
        sg.has_complement(c4, elems)


@pytest.mark.parametrize("build", [lambda: sg.dihedral(8), lambda: sg.quaternion(8)])
def test_subsets_are_read_once(build):
    """An iterator is read once: as a list and as an iterator every subset
    gives the same answers and, when normal, the same quotient."""
    g = build()
    for bits in range(1 << g.order):
        subset = [a for a in range(g.order) if (bits >> a) & 1]
        assert g.is_subgroup(iter(subset)) == g.is_subgroup(subset), subset
        assert g.is_normal(iter(subset)) == g.is_normal(subset), subset
        if g.is_normal(subset):
            assert sg.quotient(g, iter(subset)) == sg.quotient(g, subset), subset
            assert sg.has_complement(g, iter(subset)) == sg.has_complement(g, subset), subset


def test_closure_and_subgroup_predicates():
    d8 = sg.dihedral(8)
    rot = d8.closure([2])  # rotation r
    assert rot == frozenset({0, 2, 4, 6})
    assert d8.is_subgroup(rot)
    assert d8.is_normal(rot)
    refl = {0, 1}
    assert d8.is_subgroup(refl)
    assert not d8.is_normal(refl)
    assert not d8.is_subgroup({0, 2})  # not closed: 2*2 = 4 missing
