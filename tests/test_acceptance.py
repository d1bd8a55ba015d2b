"""Acceptance gate: the eight headline claims, one test and one line each.

Each criterion is backed by a named check in extmcg.verify; the whole
bundle runs once per session and every test prints its own PASS/FAIL
line (visible with pytest -v -s or in the failure report).  The tests
after them pin how a crashed check is reported, probe the bit-parallel
quadratic-identity, Arf-invariance and form-preservation kernels
directly, break each check's input to see it FAIL, pin the closure pairs
to the word sample the round trip reads, and guard against the
brute-force routes (coset enumeration of Gamma_V2, one `transport` or
`is_symplectic` per element), duplicate group-table builds, Sp(2k,2)
bucketings, standard spaces, checked refinements or word draws, inputs
kept past the run that built them and reference cycles coming back.
"""

import gc
import random
import weakref
from itertools import product

import pytest

from extmcg import ambient_geom as ag, classifier, cli, f2_forms as ff
from extmcg import homotopy_tables as ht, sl2z, smallgrp, verify
from test_word_kernel import ref_is_normal_form

NAMES = ["membership-characterization", "symplectic-census", "coset-enumeration",
         "word-algebra", "ambient-matrices", "classification-table",
         "homotopy-tables", "property-suites"]


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in verify.run_all()}


def _report(num, title, res):
    line = f"{'PASS' if res.passed else 'FAIL'} criterion {num}: {title}"
    print(line)
    assert res.passed, f"{line}\n{res.detail}"


def test_criterion_1_stabilizer_and_membership(results):
    _report(1, "Arf-0 stabilizer is {identity, swap}; in a [-5,5] box "
               "membership holds iff the mod-2 class is Id or V",
            results["membership-characterization"])


def test_criterion_2_symplectic_counts(results):
    _report(2, "|Sp(4,2)| = 720 with orbit/stabilizer split 10x72 and 6x120",
            results["symplectic-census"])


def test_criterion_3_coset_enumeration(results):
    _report(3, "three-involution presentation closes at order 8 = D8 (not Q8); "
               "full model has order 16 = D8 x Z2 with Klein quotient by <delta1, delta2>",
            results["coset-enumeration"])


def test_criterion_4_word_problem(results):
    _report(4, "relations hold, 1000 roundtrips succeed, normal forms up to "
               "length 6 are collision-free",
            results["word-algebra"])


def test_criterion_5_ambient_matrices(results):
    _report(5, "rotation matrices have det +1 and the stated orders and "
               "induced actions; even actions generate a Klein group",
            results["ambient-matrices"])


def test_criterion_6_classification_table(results):
    _report(6, "classification table matches the expected rows for all "
               "supported families",
            results["classification-table"])


def test_criterion_7_homotopy_tables(results):
    _report(7, "homotopy lookup tables agree on every residue including the "
               "p = 6 exception; out-of-domain queries raise",
            results["homotopy-tables"])


def test_criterion_8_property_suites(results):
    _report(8, "quadratic identity exhausted to dim 8, transport invariance, "
               "majority oracle, closure, and table re-validation all hold",
            results["property-suites"])


def test_random_normal_word_draws_unchanged():
    """The hoisted exponent tuple draws the same words as the list the
    generator used to build on every T factor, and every word is a normal
    form: check_word_algebra compares decompose(eval_word(w)) with w
    itself, which only a normal form can pass."""
    def old_word(rng, max_tokens):
        n = rng.randint(0, max_tokens)
        tokens = []
        gen = rng.choice(("V", "T"))
        for _ in range(n):
            if gen == "V":
                tokens.append(("V", 1))
            else:
                tokens.append(("T", rng.choice([e for e in range(-9, 10) if e])))
            gen = "T" if gen == "V" else "V"
        return tokens, rng.choice((1, -1))

    new_rng, old_rng = random.Random(2024), random.Random(2024)
    for _ in range(50):
        w = verify.random_normal_word(new_rng, 20)
        assert (list(w.tokens), w.sign) == old_word(old_rng, 20)
        assert ref_is_normal_form(w)


def test_crashed_check_keeps_its_result_name(monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_quadratic_identity_holds", boom)
    results = verify.run_all()
    assert [r.name for r in results] == NAMES
    crashed = results[-1]
    assert not crashed.passed
    assert crashed.detail.startswith("raised RuntimeError('boom')")
    assert all(r.passed for r in results[:-1])
    assert cli.main(["verify-all"]) == 1
    assert "FAIL property-suites [-]: raised RuntimeError('boom')" in capsys.readouterr().out


def value_tables(k, space=None):
    space = space or ff.standard_space(k)
    return [ff.QuadraticRefinement(space, bits).value_table
            for bits in product((0, 1), repeat=space.dim)]


def holds(space, tables):
    """The identity kernel on these value tables, each packed into the
    bitset the kernel reads (bit y holds q(y))."""
    return verify._quadratic_identity_holds(
        space, (sum(t << y for y, t in enumerate(table)) for table in tables))


def congruent_space(k):
    """P^T J P for J standard and P the upper triangle of ones: congruent
    to the standard space but not equal to it, so space.image(e_i) is not
    the standard partner of e_i."""
    n = 2 * k
    gram = ff.standard_space(k).gram
    return ff.SymplecticSpaceF2(tuple(
        tuple(sum(gram[a][b] for a in range(i + 1) for b in range(j + 1)) & 1
              for j in range(n)) for i in range(n)))


def flipped(table, y):
    return table[:y] + (table[y] ^ 1,) + table[y + 1:]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_identity_kernel_accepts_every_refinement(k):
    space = ff.standard_space(k)
    tables = value_tables(k)
    assert holds(space, iter(tables))
    # one table at a time, as a block of its own
    assert all(holds(space, [t]) for t in tables[::37])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_identity_kernel_rejects_every_single_flip(k):
    space = ff.standard_space(k)
    for table in value_tables(k):
        for y in range(len(table)):
            assert not holds(space, [flipped(table, y)])


@pytest.mark.parametrize("k", [2, 3])
def test_identity_kernel_on_a_congruent_space(k):
    """The row XORed into each basis vector's constant comes from
    space.image(e_i); on a non-standard Gram every refinement passes and a
    standard-space table of another form fails."""
    space = congruent_space(k)
    assert space.gram != ff.standard_space(k).gram
    tables = value_tables(k, space)
    assert holds(space, iter(tables))
    assert all(holds(space, [t]) for t in tables)
    assert not holds(space, value_tables(k)[:1])


def test_identity_kernel_rejects_every_single_flip_on_a_congruent_space():
    space = congruent_space(2)
    for table in value_tables(2, space):
        for y in range(len(table)):
            assert not holds(space, [flipped(table, y)])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_identity_kernel_rejects_tables_of_another_form(k):
    """q + x_a x_b refines the form plus E_ab + E_ba: it breaks the identity
    only on pairs with x_a or x_b set, so only the tests at e_a and e_b can
    catch it, the last two basis vectors when a and b are the top
    coordinates."""
    space = ff.standard_space(k)
    n = space.dim
    tables = value_tables(k)[:3]
    for a in range(n):
        for b in range(a + 1, n):
            other = tuple(t ^ (v >> a & v >> b & 1) for v, t in enumerate(tables[-1]))
            assert not holds(space, [other])
            assert not holds(space, tables + [other])


def test_identity_kernel_rejects_sampled_flips_at_dim_8():
    rng = random.Random(8)
    space = ff.standard_space(4)
    tables = value_tables(4)
    for _ in range(40):
        table = rng.choice(tables)
        assert not holds(space, [flipped(table, rng.randrange(256))])
    # a flip in one block of the full 256-table bundle
    for _ in range(3):
        r, y = rng.randrange(256), rng.randrange(256)
        bundle = tables[:r] + [flipped(tables[r], y)] + tables[r + 1:]
        assert not holds(space, bundle)
    # the block edges: y = 0 sets q(0), which the kernel tests once up
    # front, and y = 255 is the top bit of a block, which `inner` leaves
    # out of the constancy test; in the first and the last block.  The
    # complement of a refinement passes the constancy test at every x,
    # so only the q(0) test rejects it.
    for r in (0, 255):
        complement = tuple(t ^ 1 for t in tables[r])
        for bad in (flipped(tables[r], 0), flipped(tables[r], 255), complement):
            assert not holds(space, [bad])
            assert not holds(space, tables[:r] + [bad] + tables[r + 1:])


def ref_pairing(space):
    """<x, y> for every pair of vectors, summed from the Gram matrix entry
    by entry."""
    n, gram = space.dim, space.gram
    return [[sum(gram[i][j] for i in range(n) if x >> i & 1
                 for j in range(n) if y >> j & 1) & 1 for y in range(1 << n)]
            for x in range(1 << n)]


def ref_identity_holds(pairing, table):
    """q(x ^ y) == q(x) ^ q(y) ^ <x, y> at every pair (x, y)."""
    size = len(table)
    return all(table[x ^ y] == table[x] ^ table[y] ^ pairing[x][y]
               for x in range(size) for y in range(size))


@pytest.mark.parametrize("congruent", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_identity_kernel_matches_the_all_pairs_oracle(k, congruent):
    """Seeded tables against the identity tested at every pair: valid
    tables with 1-3 flips (two flips can make another refinement at k =
    1), sums of two refinements (linear, so they fail wherever <x, y> =
    1) and q + x_a x_b, each alone and in place of one table of the full
    bundle."""
    space = congruent_space(k) if congruent else ff.standard_space(k)
    rng = random.Random(100 * k + congruent)
    tables = value_tables(k, space)
    size = len(tables[0])
    cases = rng.sample(tables, 4)
    for _ in range(24):
        table = rng.choice(tables)
        for y in rng.sample(range(size), rng.randint(1, 3)):
            table = flipped(table, y)
        cases.append(table)
    for _ in range(8):
        p, q = rng.sample(tables, 2)
        cases.append(tuple(a ^ b for a, b in zip(p, q)))
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            table = rng.choice(tables)
            cases.append(tuple(t ^ (v >> a & v >> b & 1) for v, t in enumerate(table)))
    pairing = ref_pairing(space)
    verdicts = set()
    for table in cases:
        want = ref_identity_holds(pairing, table)
        verdicts.add(want)
        assert holds(space, [table]) == want
        r = rng.randrange(len(tables))
        assert holds(space, tables[:r] + [table] + tables[r + 1:]) == want
    assert verdicts == {False, True}


def test_property_suites_fail_on_a_corrupted_value_table(monkeypatch):
    """One entry of one dimension-8 refinement's value bitset is wrong:
    only the identity kernel reads those bitsets, and it must catch it."""
    build = ff.QuadraticRefinement._value_bits.func
    target = (0, 1, 1, 0, 1, 0, 0, 1)

    def corrupted(q):
        bits = build(q)
        return bits ^ 1 << 200 if q.basis_values == target else bits

    monkeypatch.setattr(ff.QuadraticRefinement, "_value_bits", property(corrupted))
    result = verify.check_property_suites()
    assert result.name == "property-suites"
    assert not result.passed
    assert "quadratic identity fails at k=4" in result.detail


def _corrupt_census_enumeration(monkeypatch, corrupt):
    """The first enumeration of Sp(4,2) of a run, the census's own or the
    property suite's, comes back corrupted; later calls (stabilizer) see
    the real group."""
    real = ff.enumerate_sp
    pending = [True]

    def enumerate_sp(k):
        elements = real(k)
        if k == 2 and pending:
            pending.pop()
            return corrupt(elements)
        return elements

    monkeypatch.setattr(ff, "enumerate_sp", enumerate_sp)


def test_symplectic_census_fails_on_a_duplicate(monkeypatch):
    _corrupt_census_enumeration(monkeypatch, lambda sp: sp[:-1] + [sp[0]])
    res = verify.check_symplectic_census()
    assert not res.passed
    assert "duplicates in Sp(4,2)" in res.detail
    assert "non-symplectic" not in res.detail


def test_symplectic_census_fails_on_a_non_symplectic_element(monkeypatch):
    singular = ff.SpElement.from_columns((1, 1, 4, 8))
    assert not ff.is_symplectic(singular.matrix, ff.standard_space(2))
    _corrupt_census_enumeration(monkeypatch, lambda sp: sp[:-1] + [singular])
    res = verify.check_symplectic_census()
    assert not res.passed
    assert "non-symplectic matrix in enumeration" in res.detail
    assert "duplicates" not in res.detail


def test_symplectic_census_names_an_orbit_that_meets_the_other_arf_value(monkeypatch):
    """The Arf 0 orbit with its last refinement swapped for (1, 1, 0, 0),
    of Arf 1: sizes and the stabilizer product still hold, so only the
    orbit's Arf values fail, and the detail names them."""
    real_orbit = ff.orbit
    other = ff.QuadraticRefinement(ff.standard_space(2), (1, 1, 0, 0))
    assert ff.arf(other) == 1
    monkeypatch.setattr(ff, "orbit", lambda q: real_orbit(q)[:-1] + [other])
    res = verify.check_symplectic_census()
    assert not res.passed
    assert res.detail.split("; ") == [
        "|Sp(2,2)| = 6, |Sp(4,2)| = 720", "Arf split 10/6",
        "Arf 0 orbit holds Arf values [0, 1]", "Arf 0: orbit 10 x stabilizer 72",
        "Arf 1: orbit 6 x stabilizer 120"]


def test_property_suites_catch_an_element_that_changes_arf(monkeypatch):
    """One element of Sp(4,2) replaced by the singular map with columns
    (e0, e0, e2, e3): q = (1, 0, 0, 0) has Arf 0, but q(S a_0) q(S b_0) =
    q(e0) = 1.  The bit-sliced kernel reads the enumerated group, so the
    suite must fail."""
    singular = ff.SpElement.from_columns((1, 1, 4, 8))
    _corrupt_census_enumeration(monkeypatch, lambda sp: sp[:500] + [singular] + sp[501:])
    result = verify.check_property_suites()
    assert not result.passed
    assert "transport changes Arf at k=2" in result.detail
    assert "majority oracle disagrees" not in result.detail


@pytest.mark.parametrize("k", [1, 2])
def test_arf_kernel_matches_the_per_call_loop(k):
    """Every refinement against every element of Sp(2k, 2): bit i of the
    kernel's bitset is arf(transport(q, S)) for S the i-th element."""
    space = ff.standard_space(k)
    sp = ff.enumerate_sp(k)
    refinements = ff.all_refinements(space)
    kernel = verify._transported_arfs(verify._images_by_basis(space, sp), refinements)
    assert len(kernel) == len(refinements) == 4 ** k
    for q, arfs in zip(refinements, kernel):
        assert arfs == sum(ff.arf(ff.transport(q, s)) << i for i, s in enumerate(sp))
        assert arfs == ((1 << len(sp)) - 1 if ff.arf(q) else 0)


def test_arf_kernel_matches_the_per_call_loop_off_the_group():
    """On maps that are not symplectic the Arf bits vary from element to
    element; the kernel still reads sum_i q(S a_i) q(S b_i) for each, the
    per-call value of arf on the pulled-back basis values."""
    space = ff.standard_space(2)
    rng = random.Random(11)
    maps = [ff.SpElement.from_columns(tuple(rng.randrange(16) for _ in range(4)))
            for _ in range(300)]
    refinements = ff.all_refinements(space)
    by_image = verify._images_by_basis(space, maps)
    for q, arfs in zip(refinements, verify._transported_arfs(by_image, refinements)):
        table = q.value_table
        want = 0
        for i, s in enumerate(maps):
            moved = ff.QuadraticRefinement(space, tuple(table[c] for c in s.columns))
            want |= ff.arf(moved) << i
        assert arfs == want


def _form_bits_match_is_symplectic(space, elements):
    """Bit i of the form kernel is is_symplectic of element i; returns the
    number of elements that preserve the form."""
    bits = verify._form_preserving(space, verify._images_by_basis(space, elements))
    assert bits >> len(elements) == 0
    for i, s in enumerate(elements):
        assert bits >> i & 1 == ff.is_symplectic(s.matrix, space), s
    return bits.bit_count()


@pytest.mark.parametrize("k", [1, 2])
def test_form_kernel_accepts_the_whole_group(k):
    sp = ff.enumerate_sp(k)
    assert _form_bits_match_is_symplectic(ff.standard_space(k), sp) == len(sp)


def test_form_kernel_matches_is_symplectic_on_random_maps():
    """About 1 % of the 65,536 column maps of dimension 4 are symplectic."""
    rng = random.Random(17)
    maps = [ff.SpElement.from_columns(tuple(rng.randrange(16) for _ in range(4)))
            for _ in range(2000)]
    assert 5 <= _form_bits_match_is_symplectic(ff.standard_space(2), maps) <= 50


def test_form_kernel_on_a_congruent_space():
    """The form of congruent_space(2) is P^T J P for P the upper triangle
    of ones, so it is preserved by P^-1 S P for every S in Sp(4,2) and by
    few of the S themselves; the kernel reads the Gram matrix, not the
    standard pairs."""
    space = congruent_space(2)
    p = ff.SpElement.from_columns((1, 3, 7, 15))
    p_inv = ff.SpElement.from_columns((1, 3, 6, 12))
    assert (p * p_inv).columns == (1, 2, 4, 8)
    sp = ff.enumerate_sp(2)
    conjugates = [p_inv * s * p for s in sp]
    assert _form_bits_match_is_symplectic(space, conjugates) == 720
    assert _form_bits_match_is_symplectic(space, sp) < 720


def test_form_kernel_flags_elements_of_another_dimension():
    space = ff.standard_space(2)
    sp = ff.enumerate_sp(2)
    six = ff.SpElement.from_columns((1, 2, 4, 8, 16, 32))
    mixed = sp[:3] + [ff.enumerate_sp(1)[0], six] + sp[3:5]
    assert verify._form_preserving(space, verify._images_by_basis(space, mixed)) == 0b1100111
    assert _form_bits_match_is_symplectic(space, mixed) == 5


def _gamma_v2_with_t5():
    pres = smallgrp.GAMMA_V2_PRESENTATION
    return smallgrp.Presentation(pres.generators, pres.relators + (((1, 1),) * 5,))


def test_coset_enumeration_fails_on_a_finite_abelianization(monkeypatch):
    """With T^5 added, Gamma_V2's abelianization is Z4 + Z5 = Z20, finite:
    the check must not call the group infinite."""
    monkeypatch.setattr(smallgrp, "GAMMA_V2_PRESENTATION", _gamma_v2_with_t5())
    res = verify.check_coset_enumeration()
    assert res.name == "coset-enumeration"
    assert not res.passed
    assert res.detail.endswith("abelianization Z20 is finite")


def test_verify_all_runs_no_brute_force(monkeypatch):
    """One run_all makes no Todd-Coxeter call on Gamma_V2 and no
    `is_symplectic` call, and the property suite neither a `transport`
    nor a `_pull_back` call: the proofs are direct."""
    real_tc, real_transport, real_pull_back = smallgrp.todd_coxeter, ff.transport, ff._pull_back
    gamma_calls, transport_calls, pull_calls, symplectic_calls = [], [], [], []

    def todd_coxeter(pres, *args, **kwargs):
        if pres == smallgrp.GAMMA_V2_PRESENTATION:
            gamma_calls.append(pres)
        return real_tc(pres, *args, **kwargs)

    def transport(q, s):
        transport_calls.append(s)
        return real_transport(q, s)

    def pull_back(q, columns):
        pull_calls.append(columns)
        return real_pull_back(q, columns)

    def is_symplectic(mat, space):
        symplectic_calls.append(mat)
        return True

    monkeypatch.setattr(smallgrp, "todd_coxeter", todd_coxeter)
    monkeypatch.setattr(ff, "transport", transport)
    monkeypatch.setattr(ff, "_pull_back", pull_back)
    monkeypatch.setattr(ff, "is_symplectic", is_symplectic)
    assert all(r.passed for r in verify.run_all())
    assert gamma_calls == []
    assert symplectic_calls == []
    assert pull_calls  # the census's orbits still pull back
    transport_calls.clear()
    pull_calls.clear()
    assert verify.check_property_suites().passed
    assert transport_calls == [] and pull_calls == []


def _count_builds(monkeypatch):
    """Record the order of every group table built from here on, and the
    k of every Sp(2k,2) listing."""
    real_new, real_enumerate = smallgrp.MulTableGroup.__new__, ff.enumerate_sp
    built, listed = [], []

    def counted(cls, table):
        built.append(len(table))
        return real_new(cls, table)

    def enumerate_sp(k):
        listed.append(k)
        return real_enumerate(k)

    monkeypatch.setattr(smallgrp.MulTableGroup, "__new__", staticmethod(counted))
    monkeypatch.setattr(ff, "enumerate_sp", enumerate_sp)
    return built, listed


def test_warm_run_all_builds_at_most_34_group_tables(monkeypatch):
    """A warm run_all builds at most 34 group tables (48 before, 100
    before that): no descriptor is verified twice, the property suite
    quotients the E_even it already holds, and the tables and Sp(2k,2)
    listings two checks read are built once per run.  A duplicate build
    coming back fails here; so does a run that reuses an earlier run's."""
    verify.run_all()
    built, listed = _count_builds(monkeypatch)
    per_run = []
    for _ in range(2):
        assert all(r.passed for r in verify.run_all())
        per_run.append((len(built), list(listed)))
        built.clear()
        listed.clear()
    assert per_run[0] == per_run[1]
    tables, listings = per_run[0]
    assert 0 < tables <= 34
    assert listings == [1, 2]


def _count_gf2_builds(monkeypatch):
    """Count, from here on, the `_images_by_basis` bucketings and the
    SymplecticSpaceF2 and QuadraticRefinement values built through their
    public, checking constructors (`_trusted` builds are not counted)."""
    counts = {"buckets": 0, "spaces": 0, "refinements": 0}
    real_buckets = verify._images_by_basis
    real_space, real_refinement = ff.SymplecticSpaceF2.__new__, ff.QuadraticRefinement.__new__

    def images_by_basis(space, elements):
        counts["buckets"] += 1
        return real_buckets(space, elements)

    def space(cls, gram):
        counts["spaces"] += 1
        return real_space(cls, gram)

    def refinement(cls, space, basis_values):
        counts["refinements"] += 1
        return real_refinement(cls, space, basis_values)

    monkeypatch.setattr(verify, "_images_by_basis", images_by_basis)
    monkeypatch.setattr(ff.SymplecticSpaceF2, "__new__", staticmethod(space))
    monkeypatch.setattr(ff.QuadraticRefinement, "__new__", staticmethod(refinement))
    return counts


def test_warm_run_all_builds_each_gf2_object_once(monkeypatch):
    """A warm run_all buckets Sp(2,2) and Sp(4,2) once each for both
    bit-sliced kernels (3 bucketings before), builds 6 standard spaces:
    k = 1..4 for verify and one inside each enumerate_sp (15 before), and
    builds 1 refinement through the public constructor, the membership
    check's (377 before): all_refinements stores its refinements
    unchecked, and they equal the checked ones."""
    verify.run_all()
    counts = _count_gf2_builds(monkeypatch)
    assert all(r.passed for r in verify.run_all())
    assert counts == {"buckets": 2, "spaces": 6, "refinements": 1}
    for k in (1, 2):
        space = ff.standard_space(k)
        checked = [ff.QuadraticRefinement(space, bits) for bits in product((0, 1), repeat=2 * k)]
        assert ff.all_refinements(space) == checked


def test_run_all_keeps_no_shared_inputs(monkeypatch):
    """The inputs run_all shares between checks live in a dict it drops
    on return: verify's globals are the same objects afterwards, and the
    Sp(2k,2) listings and the word sample of the run are freed at once."""
    real_enumerate, real_sample = ff.enumerate_sp, verify._word_sample
    refs = []

    class Listing(list):
        pass

    def enumerate_sp(k):
        listing = Listing(real_enumerate(k))
        refs.append(("sp", weakref.ref(listing)))
        return listing

    def word_sample():
        sample = Listing(real_sample())
        refs.append(("words", weakref.ref(sample)))
        return sample

    monkeypatch.setattr(ff, "enumerate_sp", enumerate_sp)
    monkeypatch.setattr(verify, "_word_sample", word_sample)
    before = dict(vars(verify))
    assert all(r.passed for r in verify.run_all())
    assert vars(verify).keys() == before.keys()
    assert all(vars(verify)[name] is value for name, value in before.items())
    assert [kind for kind, _ in refs] == ["sp", "sp", "words"]
    assert all(ref() is None for _, ref in refs)


def _count_draws(monkeypatch):
    """Record the max_tokens of every word verify draws from here on."""
    real, draws = verify.random_normal_word, []

    def random_normal_word(rng, max_tokens=20):
        draws.append(max_tokens)
        return real(rng, max_tokens)

    monkeypatch.setattr(verify, "random_normal_word", random_normal_word)
    return draws


def test_warm_run_all_draws_one_word_sample(monkeypatch):
    """A warm run_all draws the 620 random words of one word sample (its
    other 380 words are the short normal forms), and each of the two
    checks that read it, called alone, draws its own and passes."""
    verify.run_all()
    draws = _count_draws(monkeypatch)
    assert all(r.passed for r in verify.run_all())
    assert draws == [20] * 620
    for check in (verify.check_word_algebra, verify.check_property_suites):
        draws.clear()
        assert check().passed
        assert draws == [20] * 620


def test_closure_reads_the_cyclic_pairs_of_the_word_sample(monkeypatch):
    """The round trip's words are the 380 normal forms of letter length
    <= 6, in enumeration order, then 620 words of the seeded stream, and
    the closure test asks is_member about m_i * m_(i+1 mod 1000), then
    m_i^-1, for the matrices m_i of those same words, in order, and about
    nothing else."""
    rng = random.Random(20260813)
    words = list(sl2z.normal_forms_up_to(6))
    assert len(words) == 380
    words += [verify.random_normal_word(rng, 20) for _ in range(620)]
    matrices = [sl2z.eval_word(w) for w in words]
    assert verify._word_sample() == list(zip(words, matrices))
    real_is_member, seen = sl2z.is_member, []

    def is_member(m):
        seen.append(m.rows)
        return real_is_member(m)

    monkeypatch.setattr(sl2z, "is_member", is_member)
    assert verify.check_property_suites().passed
    assert seen == [x.rows for i, m in enumerate(matrices)
                    for x in (m * matrices[(i + 1) % 1000], m.inverse())]


def test_property_suites_fail_when_inverse_leaves_the_group(monkeypatch):
    """inverse() left-multiplied by (1 1 / 0 1) adds the bottom row to the
    top, which makes the top row product odd for every member (both
    entries of the new top row are odd mod 2 in the Id and V classes):
    every closure pair fails."""
    real_inverse = sl2z.UniModMat2.inverse
    shear = sl2z.UniModMat2(1, 1, 0, 1)

    def inverse(self):
        return shear * real_inverse(self)

    monkeypatch.setattr(sl2z.UniModMat2, "inverse", inverse)
    res = verify.check_property_suites()
    assert res.name == "property-suites"
    assert not res.passed
    assert "closure failures 1000/1000" in res.detail


def test_property_suites_alone_build_their_own_inputs(monkeypatch):
    """Called alone, the property suite builds and validates its 23 tables
    (plus the three factors build_E_even validates on the way; its inner
    product, like every product and quotient, is built unchecked) and
    lists Sp(2,2) and Sp(4,2) itself."""
    built, listed = _count_builds(monkeypatch)
    res = verify.check_property_suites()
    assert res.passed
    assert "23 group tables validated" in res.detail
    assert listed == [1, 2]
    factors = [4, 2, 2]  # klein, cyclic(2), cyclic(2)
    orders = list(range(1, 13)) + [4, 8] + factors + [16, 6, 8, 10, 12, 16, 16, 8, 8]
    assert sorted(built) == sorted(orders)


def test_property_suites_fail_on_a_trusted_table_that_is_no_group(monkeypatch):
    """The products and the quotient are built unchecked, so the property
    suite rebuilds them through the full check: an E_even that names a
    wrong identity fails it."""
    e = smallgrp.build_E_even()
    monkeypatch.setattr(smallgrp, "build_E_even",
                        lambda: smallgrp.MulTableGroup._trusted(e.table, 1))
    res = verify.check_property_suites()
    assert not res.passed
    assert "a product or quotient differs from its validated table" in res.detail


def test_property_suites_fail_on_a_coset_table_that_is_no_group(monkeypatch):
    """todd_coxeter builds its certified table unchecked, so the property
    suite rebuilds it through the full check: an order-8 table whose rows
    3 and 5 trade one entry is no group, and fails it."""
    rows = [list(row) for row in smallgrp.dihedral(8).table]
    rows[3][0], rows[5][0] = rows[5][0], rows[3][0]
    table = tuple(map(tuple, rows))
    monkeypatch.setattr(smallgrp, "todd_coxeter",
                        lambda pres: smallgrp.MulTableGroup._trusted(table, 0))
    res = verify.check_property_suites()
    assert not res.passed
    assert "InvalidTableError" in res.detail


def test_run_all_leaves_no_reference_cycles():
    """The recursive searches (`_extend_bases`, `is_isomorphic`,
    `normal_forms_up_to`) hold no reference to themselves after they
    return, so their working lists are freed at once, not by the cyclic
    collector."""
    z2 = smallgrp.cyclic(2)
    z2_6 = z2
    for _ in range(5):
        z2_6 = smallgrp.direct_product(z2_6, z2)
    gc.collect()
    gc.disable()
    try:
        assert all(r.passed for r in verify.run_all())
        assert smallgrp.is_isomorphic(z2_6, z2_6)[0]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_coset_enumeration_fails_when_the_kernel_is_not_klein(monkeypatch):
    """With u in place of delta2 the generated subgroup is the order-8
    dihedral part of the model, not the Klein kernel."""
    monkeypatch.setitem(smallgrp.E_EVEN_GENS, "delta2", smallgrp.E_EVEN_GENS["u"])
    res = verify.check_coset_enumeration()
    assert res.name == "coset-enumeration"
    assert not res.passed
    assert "quotient by <delta1, delta2> is Klein: False" in res.detail


@pytest.mark.parametrize("corrupt, sign", [
    (lambda w: sl2z.GenWord._trusted(w.tokens + (("V", 4),), w.sign), 1),
    (lambda w: sl2z.GenWord._trusted(w.tokens, -w.sign), -1),
], ids=["same-matrix-other-word", "sign-flipped"])
def test_word_algebra_fails_when_decompose_is_not_a_left_inverse(monkeypatch, corrupt, sign):
    """decompose(eval_word(w)) must be w itself: a word of the same matrix
    that is not w (w V^4) fails, and so does the opposite sign."""
    real_decompose = sl2z.decompose

    def decompose(m):
        return corrupt(real_decompose(m))

    w = sl2z.GenWord((("T", 3), ("V", 1)), -1)
    m = sl2z.eval_word(w)
    assert sl2z.eval_word(corrupt(w)) == (m if sign == 1 else -m)
    monkeypatch.setattr(sl2z, "decompose", decompose)
    res = verify.check_word_algebra()
    assert res.name == "word-algebra"
    assert not res.passed
    assert "roundtrip failures 1000/1000" in res.detail


def test_word_algebra_fails_when_a_relator_fails(monkeypatch):
    """The check evaluates the relators itself, through
    sl2z.failing_relator, and names the failing one in its own detail."""
    monkeypatch.setattr(verify.sl2z, "IDENTITY", verify.sl2z.V)
    res = verify.check_word_algebra()
    assert res.name == "word-algebra"
    assert not res.passed
    assert res.detail == ("V^4 is not the identity; roundtrip failures 0/1000; "
                          "380 normal forms of length <= 6, no collisions")


def test_word_algebra_fails_when_two_short_forms_collide(monkeypatch):
    """The normal forms of length <= 6 must give distinct matrices: with
    T^2 evaluated as T, the round trip of T^2 gives back T, and the check
    fails and names T^2, the one short form whose round trip fails."""
    real_eval_word = sl2z.eval_word
    t1, t2 = sl2z.GenWord((("T", 1),), 1), sl2z.GenWord((("T", 2),), 1)
    monkeypatch.setattr(sl2z, "eval_word",
                        lambda w: real_eval_word(t1 if w == t2 else w))
    res = verify.check_word_algebra()
    assert not res.passed
    assert res.detail == ("relations hold; roundtrip failures 1/1000; "
                          "380 normal forms of length <= 6, "
                          "T^2 fails the round trip")


def _counted_builder(monkeypatch, name):
    """Swap the _BUILDERS entry for `name` for one that records its calls."""
    build = classifier.GroupDescriptor._BUILDERS[name]
    calls = []

    def counted():
        calls.append(name)
        return build()

    monkeypatch.setitem(classifier.GroupDescriptor._BUILDERS, name, counted)
    return calls


def test_classification_table_verifies_each_descriptor_once(monkeypatch):
    """The five D8xZ2 rows share one descriptor value, so each call makes
    one fresh comparison build, not five."""
    verify.check_classification_table()  # the shared realizations are built
    calls = _counted_builder(monkeypatch, "D8xZ2")
    for expected in (1, 2):
        assert verify.check_classification_table().passed
        assert len(calls) == expected


def test_classification_table_names_every_row_with_a_wrong_realization(monkeypatch):
    """Two even-p rows carry a D8xZ2 descriptor realized by Z16: the check
    fails and names both rows and no other, and that descriptor, verified
    once, costs one more fresh build beside the canonical one."""
    verify.check_classification_table()
    calls = _counted_builder(monkeypatch, "D8xZ2")
    wrong = classifier.GroupDescriptor("D8xZ2", smallgrp.cyclic(16))
    faulty = {classifier.KnotFamily.equal_product(6), classifier.KnotFamily.equal_product(10)}
    real_classify = classifier.classify

    def classify(family):
        r = real_classify(family)
        if family not in faulty:
            return r
        return classifier.ClassificationResult(r.family, r.image, r.kernel, wrong, r.splits,
                                               r.citations, r.notes)

    monkeypatch.setattr(classifier, "classify", classify)
    res = verify.check_classification_table()
    assert res.name == "classification-table"
    assert not res.passed
    assert res.detail == ("21 rows checked; equal-product(6,): bad realization; "
                          "equal-product(10,): bad realization")
    assert len(calls) == 2


def test_membership_enumeration_matches_the_brute_force_box(monkeypatch):
    """Solving ad - bc = 1 for d lists the same 308 matrices, in the same
    order, as filtering all 11^4 integer matrices with entries in [-5, 5]."""
    span = range(-5, 6)
    box = [((a, b), (c, d)) for a, b, c, d in product(span, repeat=4) if a * d - b * c == 1]
    assert len(box) == 308
    real_is_member, seen = sl2z.is_member, []

    def is_member(m):
        seen.append(m.rows)
        return real_is_member(m)

    monkeypatch.setattr(sl2z, "is_member", is_member)
    res = verify.check_membership_and_stabilizer()
    assert res.passed
    assert res.detail.startswith("308 unimodular matrices checked;")
    assert seen == box


def test_membership_fails_when_is_member_is_wrong_on_one_member(monkeypatch):
    real_is_member = sl2z.is_member

    def is_member(m):
        return False if m.rows == ((1, 2), (0, 1)) else real_is_member(m)

    monkeypatch.setattr(sl2z, "is_member", is_member)
    res = verify.check_membership_and_stabilizer()
    assert res.name == "membership-characterization"
    assert not res.passed
    assert res.detail == "mismatch at ((1, 2), (0, 1))"


def _wrong_at(monkeypatch, module, name, args, value):
    """module.name returns `value` when called with `args`, and what it
    returned before on every other call."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: value if a == args else real(*a))


def _classify_with_wrong_splits(monkeypatch):
    real_classify = classifier.classify
    faulty = classifier.KnotFamily.adjacent_product(14)

    def classify(family):
        r = real_classify(family)
        if family != faulty:
            return r
        return classifier.ClassificationResult(r.family, r.image, r.kernel, r.total, False,
                                               r.citations, r.notes)

    monkeypatch.setattr(classifier, "classify", classify)


def _census_without_one(monkeypatch, name):
    real = getattr(ff, name)
    monkeypatch.setattr(ff, name, lambda *a: real(*a)[1:])


FAIL_BRANCHES = {
    "s_pi": (verify.check_homotopy_tables,
             lambda mp: _wrong_at(mp, ht, "s_pi_p_so_p", (11,), ht.Z2), "s_pi at p=11"),
    "pi_plus": (verify.check_homotopy_tables,
                lambda mp: _wrong_at(mp, ht, "pi_p_so_p_plus", (10, 2), ht.Z2),
                "pi_plus at p=10"),
    "p=6": (verify.check_homotopy_tables,
            lambda mp: _wrong_at(mp, ht, "s_pi_p_so_p", (6,), ht.Z2),
            "p=6 exception missing"),
    "residue-5": (verify.check_homotopy_tables,
                  lambda mp: _wrong_at(mp, ht, "pi_p_so_p_residue5", (13,), ht.TRIVIAL),
                  "isolated residue-5 entry wrong"),
    "omega": (verify.check_ambient_matrices,
              lambda mp: _wrong_at(mp, ag, "build_omega", (5,), ag.build_omega_prime(5, 5)),
              "omega p=5 FAIL"),
    "even-builders": (verify.check_ambient_matrices,
                      lambda mp: _wrong_at(mp, ag, "build_omega_hat", (6,),
                                           ag.build_omega_prime(6, 6)),
                      "even builders p=6 FAIL"),
    "classification-row": (verify.check_classification_table, _classify_with_wrong_splits,
                           "adjacent-product(14,): got ('Z2', 'Z2', 'Z2xZ2', False)"),
    "arf-split": (verify.check_symplectic_census,
                  lambda mp: _census_without_one(mp, "all_refinements"), "Arf split 9/6"),
    "orbit-stabilizer": (verify.check_symplectic_census,
                         lambda mp: _census_without_one(mp, "stabilizer"),
                         "Arf 0: orbit 10 x stabilizer 71"),
    "majority": (verify.check_property_suites,
                 lambda mp: mp.setattr(ff, "arf_by_majority", lambda q: 1 - ff.arf(q)),
                 "majority oracle disagrees at k=1"),
    "todd-coxeter": (verify.check_property_suites,
                     lambda mp: mp.setattr(smallgrp, "todd_coxeter", lambda pres: (
                         smallgrp.MulTableGroup._trusted(smallgrp.dihedral(8).table, 1))),
                     "the Todd-Coxeter table differs from its validated table"),
}


@pytest.mark.parametrize("check, patch, detail", FAIL_BRANCHES.values(), ids=FAIL_BRANCHES)
def test_each_fail_branch_names_its_fault(monkeypatch, check, patch, detail):
    """Each fault fails its check, and the check's detail names it."""
    patch(monkeypatch)
    res = check()
    assert not res.passed
    assert detail in res.detail.split("; ")
