"""Small-group engine: tables, coset enumeration, isomorphism, complements.

Oracles: subgroup lattices are recomputed by filtering every subset,
isomorphism for tiny orders by trying every bijection, complements by an
independent scan of the subgroup lattice.
"""

import itertools

import pytest

from extmcg import smallgrp as sg


def test_standard_groups():
    assert sg.cyclic(1).order == 1
    assert sg.cyclic(12).element_order(1) == 12
    assert sg.klein().order_profile() == (1, 2, 2, 2)
    assert sg.dihedral(8).order_profile() == (1, 2, 2, 2, 2, 2, 4, 4)
    assert sg.quaternion(8).order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)
    assert sg.dihedral(8).order_profile().count(2) == 5  # five involutions
    assert sg.quaternion(8).order_profile().count(2) == 1  # only -1
    assert not sg.dihedral(8).is_abelian()
    assert sg.klein().is_abelian()
    assert sg.dihedral(8).center() == frozenset({0, 4})
    assert len(sg.quaternion(8).center()) == 2


def test_size_limits():
    with pytest.raises(sg.UnsupportedSizeError):
        sg.cyclic(0)
    with pytest.raises(sg.UnsupportedSizeError):
        sg.cyclic(65)
    with pytest.raises(sg.UnsupportedSizeError):
        sg.dihedral(5)
    with pytest.raises(sg.UnsupportedSizeError):
        sg.quaternion(16)


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
    assert all(len(g.closure([a])) == g.element_order(a) for a in range(g.order))


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


@pytest.mark.parametrize("text,order", [
    ("gens: a; rels: a^5", 5),
    ("gens: a; rels: a^1", 1),
    ("gens: a,b; rels: a^2, b^2, [a,b]", 4),
    ("gens: s,t; rels: s^2, t^2, s t s t s t", 6),
    ("gens: a,b; rels: a^4, a^2 b^-2, b a b^-1 a", 8),
    ("gens: a,b; rels: a^3, b^4, [a,b]", 12),
])
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
    g = sg.todd_coxeter(sg.E_EVEN_PRESENTATION)
    assert g.order == 16
    assert sg.is_isomorphic(g, sg.build_E_even())[0]
    assert sg.is_isomorphic(
        g, sg.direct_product(sg.dihedral(8), sg.cyclic(2)))[0]


def test_abelianizations():
    ab_d8 = sg.todd_coxeter(sg.abelianized(sg.D8_PRESENTATION))
    assert ab_d8.order == 4
    assert sg.is_isomorphic(ab_d8, sg.klein())[0]
    ab_e = sg.todd_coxeter(sg.abelianized(sg.E_EVEN_PRESENTATION))
    assert ab_e.order == 8
    assert sg.is_isomorphic(
        ab_e, sg.direct_product(sg.klein(), sg.cyclic(2)))[0]


def test_todd_coxeter_capacity():
    infinite = sg.parse_presentation("gens: V,T; rels: V^4, V^2 T V^-2 T^-1")
    with pytest.raises(sg.CosetCapacityError):
        sg.todd_coxeter(infinite, max_cosets=2000)


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


def test_quotients():
    d8 = sg.dihedral(8)
    q = sg.quotient(d8, d8.center())
    assert sg.is_isomorphic(q, sg.klein())[0]
    with pytest.raises(sg.InvalidSubgroupError):
        sg.quotient(d8, {0, 1})  # reflection subgroup is not normal


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
        (d8, d8.center()),
        (q8, q8.center()),
        (c12, c12.closure([3])),   # C4 normal, complement C3
        (c12, c12.closure([6])),   # C2 inside C4: no complement
        (sg.klein(), frozenset({0, 1})),
    ]
    for g, n in cases:
        assert sg.has_complement(g, n) == brute_force_has_complement(g, n)
    assert sg.has_complement(e, kernel) is True
    assert sg.has_complement(d8, d8.center()) is False
    assert sg.has_complement(q8, q8.center()) is False


def test_build_E_even_structure():
    e = sg.build_E_even()
    assert e.order == 16
    d1 = sg.E_EVEN_GENS["delta1"]
    d2 = sg.E_EVEN_GENS["delta2"]
    u = sg.E_EVEN_GENS["u"]
    r = sg.E_EVEN_GENS["r"]
    assert all(e.element_order(x) == 2 for x in (d1, d2, u, r))
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
