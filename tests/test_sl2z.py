"""Membership, words, normal forms and decomposition in the even-products group.

The membership characterization is checked exhaustively over a box of
integer matrices; decomposition is checked by roundtrip against random
normal-form words, which also certifies canonicality, and against the
normal form and normal-form test of `test_word_kernel`.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from extmcg import sl2z
from test_word_kernel import ref_is_normal_form, ref_normal_form


def test_matrix_validation():
    with pytest.raises(sl2z.InvalidMatrixError):
        sl2z.UniModMat2(1, 1, 1, 0)  # det -1
    with pytest.raises(sl2z.InvalidMatrixError):
        sl2z.UniModMat2(2, 0, 0, 2)  # det 4
    with pytest.raises(sl2z.InvalidMatrixError):
        sl2z.UniModMat2(1, 0, 0, 0)


def test_matrix_arithmetic():
    m = sl2z.UniModMat2(2, -1, 1, 0)
    assert m * m.inverse() == sl2z.IDENTITY
    assert m.inverse() * m == sl2z.IDENTITY
    assert m ** 0 == sl2z.IDENTITY
    assert m ** 3 == m * m * m
    assert m ** -2 == (m.inverse()) ** 2
    assert -(-m) == m
    assert sl2z.UniModMat2.from_json(m.to_json()) == m
    with pytest.raises(sl2z.ParseError):  # a wrong shape is malformed input
        sl2z.UniModMat2.from_json({"rows": [[1, 0]]})


def test_generator_relations():
    v, t = sl2z.V, sl2z.T
    assert v ** 4 == sl2z.IDENTITY
    assert v ** 2 * t == t * v ** 2
    assert v ** 2 == -sl2z.IDENTITY


def test_membership_examples():
    assert sl2z.is_member(sl2z.IDENTITY)
    assert not sl2z.is_member(sl2z.UniModMat2(1, 1, 0, 1))
    tv = sl2z.T * sl2z.V
    assert tv == sl2z.UniModMat2(2, -1, 1, 0)
    assert sl2z.is_member(tv)
    assert sl2z.is_member(-sl2z.IDENTITY)


def test_require_member_names_the_odd_product():
    with pytest.raises(sl2z.NonMemberError, match="a\\*b"):
        sl2z.require_member(sl2z.UniModMat2(1, 1, 0, 1))
    with pytest.raises(sl2z.NonMemberError, match="c\\*d"):
        sl2z.require_member(sl2z.UniModMat2(1, 0, 1, 1))


def test_reduce_mod2_examples():
    assert sl2z.reduce_mod2(sl2z.T) == sl2z.Mod2Class.ID
    assert sl2z.reduce_mod2(sl2z.V) == sl2z.Mod2Class.V
    # parity pattern (1 1 / 1 0), realized by a determinant +1 matrix
    assert sl2z.reduce_mod2(sl2z.UniModMat2(1, 1, 1, 2)) == sl2z.Mod2Class.OTHER
    assert sl2z.reduce_mod2(-sl2z.IDENTITY) == sl2z.Mod2Class.ID


def test_membership_iff_mod2_exhaustive():
    """Every unimodular matrix with entries in [-5, 5]."""
    classes = {sl2z.Mod2Class.ID, sl2z.Mod2Class.V}
    checked = 0
    for a, b, c, d in itertools.product(range(-5, 6), repeat=4):
        if a * d - b * c != 1:
            continue
        m = sl2z.UniModMat2(a, b, c, d)
        assert sl2z.is_member(m) == (sl2z.reduce_mod2(m) in classes)
        checked += 1
    assert checked > 100


def random_normal_word(rng, max_tokens):
    tokens = []
    gen = rng.choice(["V", "T"])
    for _ in range(rng.randrange(max_tokens + 1)):
        tokens.append(("V", 1) if gen == "V" else ("T", rng.choice(
            [e for e in range(-9, 10) if e])))
        gen = "T" if gen == "V" else "V"
    return sl2z.GenWord(tuple(tokens), rng.choice([1, -1]))


def test_parse_and_str_roundtrip():
    for text, tokens, sign in [
        ("e", (), 1),
        ("- e", (), -1),
        ("V", (("V", 1),), 1),
        ("V T^3", (("V", 1), ("T", 3)), 1),
        ("- V T^-2 V", (("V", 1), ("T", -2), ("V", 1)), -1),
        ("-V T", (("V", 1), ("T", 1)), -1),
        ("T^0", (("T", 0),), 1),
        ("V^2", (("V", 2),), 1),
    ]:
        w = sl2z.parse_word(text)
        assert w.tokens == tokens and w.sign == sign
    rng = random.Random(7)
    for _ in range(200):
        w = random_normal_word(rng, 8)
        assert sl2z.parse_word(str(w)) == w


@pytest.mark.parametrize("bad", ["", "x", "V^", "V^x", "e V", "V e", "^3", "--V"])
def test_parse_rejects(bad):
    with pytest.raises(sl2z.WordSyntaxError):
        sl2z.parse_word(bad)


@pytest.mark.parametrize("bad", ["-", " - ", "-\t"])
def test_parse_rejects_a_sign_without_a_word(bad):
    """A sign needs a word after it, as the empty input does: "- e" and
    "-e" are minus the identity, "-" alone is refused."""
    with pytest.raises(sl2z.WordSyntaxError, match="'- e'"):
        sl2z.parse_word(bad)
    assert sl2z.parse_word("- e") == sl2z.parse_word("-e") == sl2z.GenWord((), -1)


def test_eval_word_examples():
    assert sl2z.eval_word(sl2z.parse_word("V^4")) == sl2z.IDENTITY
    assert (sl2z.eval_word(sl2z.parse_word("V^2 T"))
            == sl2z.eval_word(sl2z.parse_word("T V^2")))
    assert sl2z.eval_word(sl2z.parse_word("e")) == sl2z.IDENTITY
    assert sl2z.eval_word(sl2z.parse_word("V V")) == -sl2z.IDENTITY
    assert sl2z.eval_word(sl2z.parse_word("- e")) == -sl2z.IDENTITY


def reference_eval(w):
    """Left-to-right product of validated generator powers, then the sign."""
    acc = sl2z.IDENTITY
    for gen, exp in w.tokens:
        acc = acc * sl2z.GENERATORS[gen] ** exp
    return acc if w.sign == 1 else -acc


def test_eval_word_matches_generator_powers():
    """Non-normal exponents included: V^0, V^2, V^-3, V^4, T^0, negative T."""
    fixed = ["V^0", "V^2", "V^-3", "V^4", "- V^4", "T^0", "T^-5", "- T^-1 V^-3",
             "V^4 T^0 V^2 T^-2", "V^1000000001", "- T^123456789 V^-6"]
    words = [sl2z.parse_word(text) for text in fixed]
    rng = random.Random(20261017)
    choices = {"V": [0, 1, 2, 3, 4, 5, -1, -2, -3, -4, -7],
               "T": [0, 1, 2, -1, -2, -9, 14]}
    for _ in range(400):
        gens = [rng.choice("VT") for _ in range(rng.randrange(12))]
        words.append(sl2z.GenWord(tuple((g, rng.choice(choices[g])) for g in gens),
                                  rng.choice([1, -1])))
    for w in words:
        m = sl2z.eval_word(w)
        assert m == reference_eval(w), str(w)
        assert sl2z.decompose(m) == ref_normal_form(w), str(w)
    assert sl2z.eval_word(sl2z.parse_word("- V^4")) == -sl2z.IDENTITY
    assert sl2z.eval_word(sl2z.parse_word("V^-3")) == sl2z.V


@pytest.mark.parametrize("e", range(-9, 10))
def test_eval_word_of_a_v_power_is_the_repeated_product(e):
    """V^e against |e| factors V, or V^-1 for negative e, multiplied one at
    a time, alone and after T^3."""
    step = sl2z.V if e > 0 else sl2z.V.inverse()
    want = sl2z.IDENTITY
    for _ in range(abs(e)):
        want = want * step
    assert sl2z.eval_word(sl2z.GenWord((("V", e),))) == want
    assert sl2z.eval_word(sl2z.GenWord((("T", 3), ("V", e)))) == sl2z.T * sl2z.T * sl2z.T * want


def test_normal_form_examples():
    """decompose(eval_word(w)) is the normal form of w, and so is the
    reference."""
    for text, want in [
        ("T T^-1", sl2z.GenWord((), 1)),
        ("V V", sl2z.GenWord((), -1)),
        ("V V V", sl2z.GenWord((("V", 1),), -1)),
        ("V^4", sl2z.GenWord((), 1)),
        ("T^2 T^3", sl2z.GenWord((("T", 5),), 1)),
        ("V T^0 V", sl2z.GenWord((), -1)),
        ("V^-1", sl2z.GenWord((("V", 1),), -1)),
    ]:
        w = sl2z.parse_word(text)
        assert sl2z.decompose(sl2z.eval_word(w)) == want == ref_normal_form(w), text


@given(st.integers(0, 2 ** 64))
@settings(max_examples=300, deadline=None)
def test_normal_form_idempotent_and_invariant(seed):
    rng = random.Random(seed)
    tokens = tuple((rng.choice(["V", "T"]), rng.randrange(-4, 5))
                   for _ in range(rng.randrange(9)))
    w = sl2z.GenWord(tokens, rng.choice([1, -1]))
    n = sl2z.decompose(sl2z.eval_word(w))
    assert n == ref_normal_form(w)
    assert ref_is_normal_form(n)
    assert sl2z.decompose(sl2z.eval_word(n)) == ref_normal_form(n) == n
    assert sl2z.eval_word(n) == sl2z.eval_word(w)
    assert ref_is_normal_form(w) == (ref_normal_form(w) == w)


@given(st.integers(0, 2 ** 64))
@settings(max_examples=300, deadline=None)
def test_decompose_roundtrip_and_canonical(seed):
    rng = random.Random(seed)
    w = random_normal_word(rng, 20)
    m = sl2z.eval_word(w)
    d = sl2z.decompose(m)
    assert ref_is_normal_form(d)
    assert sl2z.eval_word(d) == m
    # same matrix, same word: decomposition canonicalizes
    assert d == ref_normal_form(w)


@given(st.integers(0, 2 ** 64))
@settings(max_examples=200, deadline=None)
def test_membership_closure(seed):
    rng = random.Random(seed)
    m1 = sl2z.eval_word(random_normal_word(rng, 10))
    m2 = sl2z.eval_word(random_normal_word(rng, 10))
    assert sl2z.is_member(m1 * m2)
    assert sl2z.is_member(m1.inverse())


def test_decompose_examples():
    assert sl2z.decompose(sl2z.V) == sl2z.GenWord((("V", 1),), 1)
    assert sl2z.decompose(sl2z.T ** 3) == sl2z.GenWord((("T", 3),), 1)
    tv = sl2z.UniModMat2(2, -1, 1, 0)
    assert sl2z.eval_word(sl2z.decompose(tv)) == tv
    with pytest.raises(sl2z.NonMemberError):
        sl2z.decompose(sl2z.UniModMat2(1, 1, 0, 1))


def test_normal_forms_up_to_counts():
    lengths = [sum(1 for _ in sl2z.normal_forms_up_to(b)) for b in range(5)]
    # 2 signs x (1, +V, +T^{+-1}, ...) -- strictly growing, no repeats
    assert lengths[0] == 2
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    words = list(sl2z.normal_forms_up_to(4))
    assert len(set(words)) == len(words)
    assert all(ref_is_normal_form(w) for w in words)
    with pytest.raises(ValueError):
        list(sl2z.normal_forms_up_to(13))


def test_verify_presentation_injectivity():
    """Distinct normal forms of the presentation give distinct matrices."""
    assert sum(1 for _ in sl2z.normal_forms_up_to(6)) == 380
    words = list(sl2z.normal_forms_up_to(8))
    assert len(words) == 1532
    assert len({sl2z.eval_word(w) for w in words}) == 1532


@pytest.mark.parametrize("rels, word", [("V^4, V^2", "V^2"),
                                        ("V^2 T V^-1 T^-1, V^4", "V^2 T V^-1 T^-1"),
                                        ("V^4, V^2 T V^2 T", "V^2 T V^2 T")])
def test_a_wrong_relator_is_caught(monkeypatch, rels, word):
    """The word-algebra check and the GammaV2 descriptor evaluate the
    relators of smallgrp.GAMMA_V2_PRESENTATION through one routine, which
    names the first relator that is not the identity, each run written as
    a power."""
    from extmcg import classifier, smallgrp, verify

    wrong = smallgrp.parse_presentation(f"gens: V,T; rels: {rels}")
    assert str(sl2z.failing_relator(wrong)) == word
    monkeypatch.setattr(smallgrp, "GAMMA_V2_PRESENTATION", wrong)
    res = verify.check_word_algebra()
    assert not res.passed
    assert res.detail.startswith(f"{word} is not the identity; ")
    assert not classifier.GroupDescriptor("GammaV2", wrong).verify_realization()


@pytest.mark.parametrize("entries", [(True, 0, 0, True), (1, False, 0, 1),
                                     (1, 0, False, 1), (True, 2, 0, 1)])
def test_matrix_rejects_boolean_entries(entries):
    with pytest.raises(sl2z.InvalidMatrixError, match="not an integer"):
        sl2z.UniModMat2(*entries)


@pytest.mark.parametrize("tokens, sign", [((("T", True),), 1), ((("V", False),), 1),
                                          ((), True), ((("V", 1),), True), ((), 1.0),
                                          ((("V", 1),), -1.0), (((["V"], 1),), 1)])
def test_word_rejects_boolean_exponent_and_sign(tokens, sign):
    with pytest.raises(sl2z.WordSyntaxError):
        sl2z.GenWord(tokens, sign)


def test_word_tokens_are_stored_as_pairs():
    """A list of tokens becomes a tuple of pairs, so the word hashes."""
    w = sl2z.GenWord([("V", 1)])
    assert w.tokens == (("V", 1),) and hash(w) == hash(sl2z.GenWord((("V", 1),)))


@pytest.mark.parametrize("tokens", [(("V", 1, 2),), (("V",),), ("V", 1), ["V1"], "VT", "",
                                    [["V", 1]], 5])
def test_word_rejects_tokens_that_are_not_pairs(tokens):
    with pytest.raises(sl2z.WordSyntaxError, match="not a"):
        sl2z.GenWord(tokens)
