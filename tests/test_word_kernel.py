"""Differential test of the word kernel in `sl2z`.

`eval_word`, `UniModMat2.__mul__` and `decompose` run on closed-form
plain-int steps.  They are compared here against references written in
this file: on plain 4-tuples (a, b, c, d), a matrix product and a word
multiplied out one letter at a time; on words, a normal form reached by
cancelling factors on a stack, and a test of the normal-form shape.  The
other word tests import the two word references from here.
"""

import random

import pytest

from extmcg import sl2z

V = (0, -1, 1, 0)
V_INV = (0, 1, -1, 0)
T = (1, 2, 0, 1)
T_INV = (1, -2, 0, 1)
ONE = (1, 0, 0, 1)


def ref_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def letters(tokens):
    """The word spelled out as single letters "V", "v" (V^-1), "T", "t" (T^-1)."""
    out = []
    for gen, exp in tokens:
        out += [gen if exp > 0 else gen.lower()] * abs(exp)
    return out


def ref_eval(tokens, sign):
    acc = ONE
    mats = {"V": V, "v": V_INV, "T": T, "t": T_INV}
    for letter in letters(tokens):
        acc = ref_mul(acc, mats[letter])
    return tuple(sign * e for e in acc)


def ref_normal_form(w):
    """The normal form of a word, from the relations alone: V^4 = Id, so
    V^e is V^(e mod 4), spelled out letter by letter; V V = -Id is a
    central sign flip; powers of T add, and T^0 is dropped."""
    sign, stack = w.sign, []  # stack entries: "V" or a nonzero T exponent
    for gen, exp in w.tokens:
        if gen == "V":
            for _ in range(exp % 4):
                if stack and stack[-1] == "V":
                    stack.pop()
                    sign = -sign
                else:
                    stack.append("V")
        elif exp:
            if stack and stack[-1] != "V":
                exp += stack.pop()
            if exp:
                stack.append(exp)
    return sl2z.GenWord(tuple(("V", 1) if f == "V" else ("T", f) for f in stack), sign)


def ref_is_normal_form(w):
    """V and T alternate, every V has exponent 1 and no T exponent is 0."""
    return all(exp == 1 if gen == "V" else exp != 0 for gen, exp in w.tokens) and \
        all(x[0] != y[0] for x, y in zip(w.tokens, w.tokens[1:]))


def entries(m):
    return (m.a, m.b, m.c, m.d)


def random_word(rng):
    """A word that is usually not in normal form: repeated generators,
    V powers of any size, zero exponents."""
    tokens = tuple((rng.choice("VT"), rng.randint(-9, 9))
                   for _ in range(rng.randint(0, 12)))
    return tokens, rng.choice((1, -1))


def check_word(tokens, sign):
    w = sl2z.GenWord(tokens, sign)
    got = sl2z.eval_word(w)
    assert entries(got) == ref_eval(tokens, sign), str(w)
    assert sl2z.decompose(got) == ref_normal_form(w), str(w)


@pytest.mark.parametrize("exp", range(-9, 10))
@pytest.mark.parametrize("sign", (1, -1))
def test_v_powers(exp, sign):
    check_word((("V", exp),), sign)
    check_word((("T", 3), ("V", exp), ("T", -1)), sign)
    check_word((("V", 1), ("V", exp)), sign)


@pytest.mark.parametrize("sign", (1, -1))
def test_empty_word_and_t_zero(sign):
    check_word((), sign)
    check_word((("T", 0),), sign)
    check_word((("V", 1), ("T", 0), ("V", -1)), sign)
    assert entries(sl2z.eval_word(sl2z.GenWord((), sign))) == (sign, 0, 0, sign)


@pytest.mark.parametrize("seed", range(5))
def test_seeded_non_normal_words(seed):
    rng = random.Random(7100 + seed)
    for _ in range(200):
        check_word(*random_word(rng))


def test_products_match_plain_tuples():
    rng = random.Random(7200)
    for _ in range(300):
        x = sl2z.eval_word(sl2z.GenWord(*random_word(rng)))
        y = sl2z.eval_word(sl2z.GenWord(*random_word(rng)))
        assert entries(x * y) == ref_mul(entries(x), entries(y))
