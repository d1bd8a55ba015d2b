"""Acceptance gate: the eight headline claims, one test and one line each.

Each criterion is backed by a named check in extmcg.verify; the whole
bundle runs once per session and every test prints its own PASS/FAIL
line (visible with pytest -v -s or in the failure report).  The tests
after them pin how a crashed check is reported and probe the
bit-parallel quadratic-identity kernel of the property suite directly.
"""

import random
from itertools import product

import pytest

from extmcg import cli, f2_forms as ff, smallgrp, verify

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
    generator used to build on every T factor."""
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
    assert verify._quadratic_identity_holds(space, iter(tables))
    # one table at a time, as a block of its own
    assert all(verify._quadratic_identity_holds(space, [t]) for t in tables[::37])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_identity_kernel_rejects_every_single_flip(k):
    space = ff.standard_space(k)
    for table in value_tables(k):
        for y in range(len(table)):
            assert not verify._quadratic_identity_holds(space, [flipped(table, y)])


@pytest.mark.parametrize("k", [2, 3])
def test_identity_kernel_on_a_congruent_space(k):
    """The rows XORed in at each Gray step come from space.image(e_i); on a
    non-standard Gram every refinement passes and a standard-space table
    of another form fails."""
    space = congruent_space(k)
    assert space.gram != ff.standard_space(k).gram
    tables = value_tables(k, space)
    assert verify._quadratic_identity_holds(space, iter(tables))
    assert all(verify._quadratic_identity_holds(space, [t]) for t in tables)
    assert not verify._quadratic_identity_holds(space, value_tables(k)[:1])


def test_identity_kernel_rejects_every_single_flip_on_a_congruent_space():
    space = congruent_space(2)
    for table in value_tables(2, space):
        for y in range(len(table)):
            assert not verify._quadratic_identity_holds(space, [flipped(table, y)])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_identity_kernel_rejects_tables_of_another_form(k):
    """q + x_a x_b refines the form plus E_ab + E_ba: it breaks the identity
    only on pairs with x_a or x_b set, late in the walk over x when a and
    b are the top coordinates."""
    space = ff.standard_space(k)
    n = space.dim
    tables = value_tables(k)[:3]
    for a in range(n):
        for b in range(a + 1, n):
            other = tuple(t ^ (v >> a & v >> b & 1) for v, t in enumerate(tables[-1]))
            assert not verify._quadratic_identity_holds(space, [other])
            assert not verify._quadratic_identity_holds(space, tables + [other])


def test_identity_kernel_rejects_sampled_flips_at_dim_8():
    rng = random.Random(8)
    space = ff.standard_space(4)
    tables = value_tables(4)
    for _ in range(40):
        table = rng.choice(tables)
        assert not verify._quadratic_identity_holds(space, [flipped(table, rng.randrange(256))])
    # a flip in one block of the full 256-table bundle
    for _ in range(3):
        r, y = rng.randrange(256), rng.randrange(256)
        bundle = tables[:r] + [flipped(tables[r], y)] + tables[r + 1:]
        assert not verify._quadratic_identity_holds(space, bundle)


def test_property_suites_fail_on_a_corrupted_value_table(monkeypatch):
    """One entry of one dimension-8 refinement's table is wrong: only the
    identity kernel reads those tables, and it must catch it."""
    build = ff.QuadraticRefinement.value_table.func
    target = (0, 1, 1, 0, 1, 0, 0, 1)

    def corrupted(q):
        table = build(q)
        return flipped(table, 200) if q.basis_values == target else table

    monkeypatch.setattr(ff.QuadraticRefinement, "value_table", property(corrupted))
    result = verify.check_property_suites()
    assert result.name == "property-suites"
    assert not result.passed
    assert "quadratic identity fails at k=4" in result.detail


def _corrupt_census_enumeration(monkeypatch, corrupt):
    """The census's own enumeration of Sp(4,2), the first one of a run,
    comes back corrupted; later calls (stabilizer) see the real group."""
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


def test_coset_enumeration_fails_when_the_kernel_is_not_klein(monkeypatch):
    """With u in place of delta2 the generated subgroup is the order-8
    dihedral part of the model, not the Klein kernel."""
    monkeypatch.setitem(smallgrp.E_EVEN_GENS, "delta2", smallgrp.E_EVEN_GENS["u"])
    res = verify.check_coset_enumeration()
    assert res.name == "coset-enumeration"
    assert not res.passed
    assert "quotient by <delta1, delta2> is Klein: False" in res.detail


def test_word_algebra_fails_when_a_relator_fails(monkeypatch):
    """The relators are checked once, by sl2z.verify_presentation; its
    failure is the check's own FAIL line."""
    monkeypatch.setattr(verify.sl2z, "IDENTITY", verify.sl2z.V)
    res = verify.check_word_algebra()
    assert res.name == "word-algebra"
    assert not res.passed
    assert res.detail == "raised AssertionError('V^4 is not the identity')"
