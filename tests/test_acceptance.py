"""Acceptance gate: the eight headline claims, one test and one line each.

Each criterion is backed by a named check in extmcg.verify; the whole
bundle runs once per session and every test prints its own PASS/FAIL
line (visible with pytest -v -s or in the failure report).
"""

import random

import pytest

from extmcg import verify


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
               "full model has order 16 = D8 x Z2",
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
