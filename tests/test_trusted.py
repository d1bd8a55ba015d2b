"""Values the library builds itself skip the public constructors' checks.

Trusted results must equal what the public constructors give for the same
fields, and the form memo on SpElement must never let a matrix that
breaks a form through `transport`.
"""

import copy
import pickle
import random

import pytest

from extmcg import f2_forms as ff
from extmcg import sl2z
from extmcg import verify

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


def test_memo_on_another_form_still_checks():
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
        # the memo may now name the other form; the standard one still works
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
    # an element with the memo times one without keeps no memo
    assert_same(ff.transport(q, s * ff.SpElement(s.matrix)), moved(q, s * s))
    assert len(count_checks) == 4


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_forget_the_memo(clone, count_checks):
    q = ff.QuadraticRefinement(ff.standard_space(2), (1, 1, 0, 1))
    s = ff.SpElement(ff.enumerate_sp(2)[42].matrix)
    want = ff.transport(q, s)
    assert s._form == q.space.row_masks and len(count_checks) == 1
    again = clone(s)
    assert again == s and again._form is None
    assert_same(ff.transport(q, again), want)
    assert len(count_checks) == 2


def test_enumerated_elements_are_not_rechecked(count_checks):
    refinements = ff.all_refinements(ff.standard_space(2))
    for s in ff.enumerate_sp(2):
        for q in refinements:
            ff.transport(q, s)
    assert count_checks == []
    user = ff.SpElement(ff.enumerate_sp(2)[7].matrix)
    for q in refinements:
        assert_same(ff.transport(q, user), moved(q, user))
    assert len(count_checks) == 1


def test_orbit_transvections_are_not_rechecked(count_checks):
    q = ff.QuadraticRefinement(ff.standard_space(3), (1, 1, 0, 0, 1, 0))
    assert len(ff.orbit(q)) == 28
    assert count_checks == []


def test_property_suites_catch_a_transport_that_changes_arf(monkeypatch):
    real = ff.transport
    target = ff.enumerate_sp(2)[500]

    def flip_one(q, s):
        t = real(q, s)
        if s == target:
            return ff.QuadraticRefinement(t.space, (t.basis_values[0] ^ 1,) + t.basis_values[1:])
        return t

    monkeypatch.setattr(ff, "transport", flip_one)
    result = verify.check_property_suites()
    assert not result.passed
    assert "transport changes Arf at k=2" in result.detail


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
        for out in (sl2z.normal_form(w), sl2z.decompose(m)):
            assert_same(out, public_word(out))
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
