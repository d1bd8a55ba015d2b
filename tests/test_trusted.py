"""Values the library builds itself skip the public constructors' checks.

Trusted results must equal what the public constructors give for the same
fields, `transport` must check every element it is given, whatever built
it, only `transport` and `orbit` pull a refinement back without that
check, and only the product and quotient builders and `todd_coxeter`
make group tables without the full check.
"""

import copy
import pickle
import random
import re
from pathlib import Path

import pytest

from extmcg import f2_forms as ff
from extmcg import sl2z
from extmcg import verify
from test_word_kernel import ref_normal_form

# the hyperbolic pairs (e0, e2) and (e1, e3): not the standard space's form
OTHER_GRAM = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))


def preserves(mat, gram):
    """S^T G S = G over GF(2), entry by entry."""
    n = len(gram)
    return all(sum(mat[i][a] * gram[i][j] * mat[j][b] for i in range(n) for j in range(n)) % 2
               == gram[a][b] for a in range(n) for b in range(n))


def moved(q, s):
    """transport(q, s) through the public constructor: q'(e_j) = q(S e_j)."""
    return ff.QuadraticRefinement(q.space, tuple(q.value_table[c] for c in s.columns))


def assert_same(value, public):
    assert type(value) is type(public)
    assert value == public and hash(value) == hash(public) and repr(value) == repr(public)


@pytest.fixture
def count_checks(monkeypatch):
    calls = []
    check = ff._preserves_form

    def counted(columns, space):
        calls.append(columns)
        return check(columns, space)

    monkeypatch.setattr(ff, "_preserves_form", counted)
    return calls


def test_enumerated_elements_are_checked_against_another_form():
    space = ff.SymplecticSpaceF2(OTHER_GRAM)
    standard = ff.standard_space(2)
    q = ff.QuadraticRefinement(space, (1, 0, 1, 1))
    p = ff.QuadraticRefinement(standard, (1, 0, 1, 1))
    kept = broken = 0
    for s in ff.enumerate_sp(2):
        if preserves(s.matrix, OTHER_GRAM):
            kept += 1
            assert_same(ff.transport(q, s), moved(q, s))
        else:
            broken += 1
            with pytest.raises(ValueError, match="pairing"):
                ff.transport(q, s)
        # whether or not the other form refused it, the standard one takes it
        assert_same(ff.transport(p, s), moved(p, s))
    assert kept and broken and kept + broken == 720


def test_product_with_a_user_element_is_checked(count_checks):
    q = ff.QuadraticRefinement(ff.standard_space(2), (0, 1, 1, 0))
    s = ff.enumerate_sp(2)[300]
    swap = ff.SpElement(((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)))
    for bad in (swap * s, s * swap):
        with pytest.raises(ValueError, match="pairing"):
            ff.transport(q, bad)
    assert len(count_checks) == 2
    good = ff.SpElement(s.matrix) * s
    assert_same(ff.transport(q, good), moved(q, good))
    assert len(count_checks) == 3
    # a product of two elements that preserve the form is checked as well
    assert_same(ff.transport(q, s * ff.SpElement(s.matrix)), moved(q, s * s))
    assert len(count_checks) == 4


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_transport_the_same(clone, count_checks):
    q = ff.QuadraticRefinement(ff.standard_space(2), (1, 1, 0, 1))
    s = ff.SpElement(ff.enumerate_sp(2)[42].matrix)
    want = ff.transport(q, s)
    again = clone(s)
    assert again == s and type(again).__slots__ == ("columns",)
    assert_same(ff.transport(q, again), want)
    assert count_checks == [s.columns, s.columns]


def test_every_transport_call_checks_the_form_once(count_checks):
    """Enumerated or built by the caller, each element is checked on every
    `transport` call: no element carries a record of an earlier check."""
    refinements = ff.all_refinements(ff.standard_space(2))
    elements = ff.enumerate_sp(2) + [ff.SpElement(ff.enumerate_sp(2)[7].matrix)]
    for s in elements:
        for q in refinements:
            assert_same(ff.transport(q, s), moved(q, s))
    assert count_checks == [s.columns for s in elements for _ in refinements]


def test_orbit_transvections_are_not_rechecked(count_checks):
    q = ff.QuadraticRefinement(ff.standard_space(3), (1, 1, 0, 0, 1, 0))
    assert len(ff.orbit(q)) == 28
    assert count_checks == []


def words(seed, count=200):
    """Seeded words in normal form and out of it, signs and V powers included."""
    rng = random.Random(seed)
    for _ in range(count):
        yield verify.random_normal_word(rng, 12)
        tokens = tuple((rng.choice("VT"), rng.randint(-5, 5)) for _ in range(rng.randint(0, 8)))
        yield sl2z.GenWord(tokens, rng.choice((1, -1)))


def public_matrix(m):
    return sl2z.UniModMat2(m.a, m.b, m.c, m.d)


def public_word(w):
    return sl2z.GenWord(w.tokens, w.sign)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trusted_sl2z_results_match_public_ones(seed):
    rng = random.Random(seed)
    previous = sl2z.IDENTITY
    for w in words(seed):
        assert_same(w, public_word(w))
        m = sl2z.eval_word(w)
        assert_same(m, public_matrix(m))
        for out in (m * previous, previous * m, m.inverse(), -m, m ** rng.randint(-3, 3)):
            assert_same(out, public_matrix(out))
        d = sl2z.decompose(m)
        assert d == ref_normal_form(w)
        assert_same(d, public_word(d))
        previous = m
    for w in sl2z.normal_forms_up_to(3):
        assert_same(w, public_word(w))


def test_trusted_f2_results_match_public_ones():
    rng = random.Random(5)
    for k in (1, 2):
        sp = ff.enumerate_sp(k)
        refinements = ff.all_refinements(ff.standard_space(k))
        for _ in range(100):
            s, t = rng.choice(sp), rng.choice(sp)
            for elem in (s, s * t):
                assert_same(elem, ff.SpElement(elem.matrix))
            q = rng.choice(refinements)
            assert_same(ff.transport(q, s), moved(q, s))


def test_trusted_values_stay_frozen():
    m = sl2z.eval_word(sl2z.parse_word("V T^3"))
    w = sl2z.decompose(m)
    s = ff.enumerate_sp(1)[2]
    t = ff.transport(ff.QuadraticRefinement(ff.standard_space(1), (1, 0)), s)
    for value, field in ((m, "a"), (w, "sign"), (s, "columns"), (t, "basis_values")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        s._form = None


SRC = Path(__file__).resolve().parent.parent / "src"


def test_only_products_and_quotients_build_unchecked_group_tables():
    """Every `MulTableGroup._trusted(` call in src/, by module and enclosing
    function; `_product` builds the tables of both products, and
    `todd_coxeter` the tables its coset graph certifies.  A table built
    without the full check must be a group by construction from checked
    inputs or by a certificate; a new such builder is added here on
    purpose, with a test that its tables equal their validated rebuilds."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        function = None
        for line in path.read_text().splitlines():
            defined = re.match(r"\s*def (\w+)", line)
            if defined:
                function = defined.group(1)
            if "MulTableGroup._trusted(" in line:
                sites.append((path.stem, function))
    assert sites == [("smallgrp", "todd_coxeter"), ("smallgrp", "_product"),
                     ("smallgrp", "quotient")]


def test_only_transport_and_orbit_pull_back():
    """Every `_pull_back(` call site in src/, by module and enclosing
    function.  `_pull_back` runs no form check: `transport` checks first,
    and `orbit` pulls back only along the transvections it builds itself.
    A new caller is added here on purpose, with a reason it needs no check."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        function = None
        for line in path.read_text().splitlines():
            defined = re.match(r"\s*def (\w+)", line)
            if defined:
                function = defined.group(1)
            elif "_pull_back(" in line:
                sites.append((path.stem, function))
    assert sites == [("f2_forms", "transport"), ("f2_forms", "orbit")]
