"""The subgroup of SL(2,Z) with even row products, and its word algebra.

Membership: an integer matrix (a b / c d) with det +1 belongs iff a*b and
c*d are both even, which is the same as being congruent to the identity
or to the quarter-turn V = (0 -1 / 1 0) mod 2.  The group is generated by
V and T = (1 2 / 0 1); modulo the central -Id it is the free product of
the order-2 image of V with the infinite cyclic image of T, so every
element has a unique alternating normal form with an overall sign.

Words multiply left to right: eval_word([V, T]) is the matrix V * T.

The public constructors check what they are given.  Products, inverses,
evaluated words and decompositions are built from checked values by
`_trusted` and are not checked again.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .errors import InvalidMatrixError, ParseError, _Value


class NonMemberError(ValueError):
    """Unimodular, but a row product is odd."""


class WordSyntaxError(ParseError):
    pass


class UniModMat2(_Value):
    """2x2 integer matrix (a b / c d) with determinant +1."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __new__(cls, a: int, b: int, c: int, d: int):
        for e in (a, b, c, d):
            if not isinstance(e, int) or isinstance(e, bool):
                raise InvalidMatrixError(f"entry {e!r} is not an integer")
        det = a * d - b * c
        if det != 1:
            raise InvalidMatrixError(f"determinant is {det}, must be +1")
        return cls._trusted(a, b, c, d)

    @classmethod
    def _trusted(cls, a: int, b: int, c: int, d: int) -> "UniModMat2":
        m = object.__new__(cls)
        _set_a(m, a)
        _set_b(m, b)
        _set_c(m, c)
        _set_d(m, d)
        return m

    def __mul__(self, other: "UniModMat2") -> "UniModMat2":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return UniModMat2._trusted(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __neg__(self) -> "UniModMat2":
        return UniModMat2._trusted(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "UniModMat2":
        return UniModMat2._trusted(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "UniModMat2":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        acc = UniModMat2._trusted(1, 0, 0, 1)
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    @property
    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def to_json(self) -> dict:
        return {"rows": [[self.a, self.b], [self.c, self.d]]}

    @classmethod
    def from_json(cls, data: dict) -> "UniModMat2":
        rows = data.get("rows")
        if (not isinstance(rows, list) or len(rows) != 2
                or any(not isinstance(r, list) or len(r) != 2 for r in rows)):
            raise ParseError("expected {\"rows\": [[a, b], [c, d]]}")
        return cls(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


_set_a, _set_b, _set_c, _set_d = (UniModMat2.a.__set__, UniModMat2.b.__set__,
                                  UniModMat2.c.__set__, UniModMat2.d.__set__)

IDENTITY = UniModMat2(1, 0, 0, 1)
V = UniModMat2(0, -1, 1, 0)
T = UniModMat2(1, 2, 0, 1)

GENERATORS = {"V": V, "T": T}


def is_member(m: UniModMat2) -> bool:
    """Both row products even?  Raising variant: require_member."""
    return (m.a * m.b) % 2 == 0 and (m.c * m.d) % 2 == 0


def require_member(m: UniModMat2) -> None:
    top = m.a * m.b
    bottom = m.c * m.d
    if top % 2:
        raise NonMemberError(f"top row product a*b = {m.a}*{m.b} = {top} is odd")
    if bottom % 2:
        raise NonMemberError(f"bottom row product c*d = {m.c}*{m.d} = {bottom} is odd")


class Mod2Class:
    ID = "Id"
    V = "V"
    OTHER = "Other"


def reduce_mod2(m: UniModMat2) -> str:
    """Congruence class mod 2: "Id", "V", or "Other"."""
    bits = (m.a % 2, m.b % 2, m.c % 2, m.d % 2)
    if bits == (1, 0, 0, 1):
        return Mod2Class.ID
    if bits == (0, 1, 1, 0):
        return Mod2Class.V
    return Mod2Class.OTHER


class GenWord(_Value):
    """Signed word in V and T: sign * product of gen^exp factors, left to right."""

    __slots__ = _fields = ("tokens", "sign")

    def __new__(cls, tokens: tuple[tuple[str, int], ...], sign: int = 1):
        if type(sign) is not int or sign not in (1, -1):
            raise WordSyntaxError(f"sign must be +-1, got {sign}")
        try:
            tokens = (tokens,) if isinstance(tokens, str) else tuple(tokens)
        except TypeError:
            raise WordSyntaxError(f"tokens {tokens!r} are not a sequence of pairs") from None
        for token in tokens:
            if not isinstance(token, tuple) or len(token) != 2:
                raise WordSyntaxError(f"token {token!r} is not a (generator, exponent) pair")
            gen, exp = token
            if not isinstance(gen, str) or gen not in GENERATORS:
                raise WordSyntaxError(f"unknown generator {gen!r}")
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise WordSyntaxError(f"exponent {exp!r} is not an integer")
        return cls._trusted(tokens, sign)

    @classmethod
    def _trusted(cls, tokens: tuple[tuple[str, int], ...], sign: int) -> "GenWord":
        w = object.__new__(cls)
        _set_tokens(w, tokens)
        _set_sign(w, sign)
        return w

    def __str__(self) -> str:
        parts = ["-"] if self.sign < 0 else []
        for gen, exp in self.tokens:
            parts.append(gen if exp == 1 else f"{gen}^{exp}")
        if not self.tokens:
            parts.append("e")
        return " ".join(parts)


_set_tokens, _set_sign = GenWord.tokens.__set__, GenWord.sign.__set__


def parse_word(text: str) -> GenWord:
    """Parse the whitespace token grammar: optional leading '-', then
    factors V, T, V^<int>, T^<int>; 'e' alone is the empty word, so '- e'
    is -Id and a sign alone is refused."""
    raw = text.split()
    if not raw:
        raise WordSyntaxError("empty input; use 'e' for the identity word")
    sign = 1
    if raw[0].startswith("-"):
        sign = -1
        raw = raw[1:] if raw[0] == "-" else [raw[0][1:], *raw[1:]]
    if not raw:
        raise WordSyntaxError("a sign needs a word after it; use '- e' for -Id")
    if raw == ["e"]:
        return GenWord((), sign)
    tokens = []
    for tok in raw:
        if tok == "e":
            raise WordSyntaxError("'e' is only valid as the entire word")
        head, caret, tail = tok.partition("^")
        if head not in GENERATORS:
            raise WordSyntaxError(f"bad token {tok!r}")
        if caret:
            try:
                exp = int(tail)
            except ValueError:
                raise WordSyntaxError(f"bad exponent in token {tok!r}") from None
        else:
            exp = 1
        tokens.append((head, exp))
    return GenWord(tuple(tokens), sign)


def eval_word(w: GenWord) -> UniModMat2:
    """Multiply the word out, left to right, including the central sign.

    The product runs on plain entries (a b / c d) held in locals.  A
    checked word gives integer entries with determinant +1, so the result
    is built unchecked.  Each factor is a right product in closed form:
    T^k gives (a, b + 2ka, c, d + 2kc), V gives (b, -a, d, -c) and V^-1
    gives (-b, a, -d, c).  A power V^e with |e| >= 2 comes from
    `UniModMat2.__pow__`, square-and-multiply, so V^4 = Id is a product,
    never a rule; it is folded in as a closed-form right product.  The
    word's sign is applied once, at the end.
    """
    a, b, c, d = 1, 0, 0, 1
    for gen, exp in w.tokens:
        if gen == "T":
            b += 2 * exp * a
            d += 2 * exp * c
        elif exp == 1:
            a, b, c, d = b, -a, d, -c
        elif exp == -1:
            a, b, c, d = -b, a, -d, c
        elif exp:
            p = V ** exp
            a, b, c, d = (a * p.a + b * p.c, a * p.b + b * p.d,
                          c * p.a + d * p.c, c * p.b + d * p.d)
    if w.sign == 1:
        return UniModMat2._trusted(a, b, c, d)
    return UniModMat2._trusted(-a, -b, -c, -d)


def decompose(m: UniModMat2) -> GenWord:
    """Write a member as a normal-form word in V and T.

    Euclidean descent on the first column: T powers add even multiples of
    the bottom row to the top, shrinking |a| below |c| (the two have
    opposite parity, so the strict inequality is always reachable), then V
    swaps the rows.  |c| drops strictly each round, so we reach c = 0,
    where the residue is +-T^k.  The left factors are inverted back onto
    the result as they are found: T^k gives T^-k, and V gives V^-1 = -V,
    a V with the sign flipped.  After the first round |a| > |c|, so every
    later round has a nonzero T step; no two factors of one generator are
    adjacent, and the word is already the normal form.
    """
    require_member(m)
    tokens: list[tuple[str, int]] = []
    sign = 1
    a, b, c, d = m.a, m.b, m.c, m.d
    while c != 0:
        if a != 0:
            # a and c have opposite parity, so a / 2c is never a half
            # integer: the nearest k leaves |a| strictly below |c|
            k = -((a + c) // (2 * c))
            if k:
                a, b = a + 2 * k * c, b + 2 * k * d  # T^k * cur
                tokens.append(("T", -k))
        assert abs(a) < abs(c)
        a, b, c, d = -c, -d, a, b  # V * cur
        tokens.append(("V", 1))
        sign = -sign
    # cur = eps * T^k with eps = a in {1, -1}
    k = a * b // 2
    if k:
        tokens.append(("T", k))
    return GenWord._trusted(tuple(tokens), sign * a)


def _grow_normal_forms(tokens: tuple[tuple[str, int], ...], budget: int, last: str | None):
    """The token tuples of the normal forms that extend `tokens` by at most
    `budget` letters, after a last factor `last`.  A module-level function,
    not a closure: a nested generator that names itself is a reference
    cycle that only the cyclic collector frees."""
    yield tokens
    if last != "V" and budget >= 1:
        yield from _grow_normal_forms(tokens + (("V", 1),), budget - 1, "V")
    if last != "T":
        for size in range(1, budget + 1):
            for exp in (size, -size):
                yield from _grow_normal_forms(tokens + (("T", exp),), budget - size, "T")


def normal_forms_up_to(bound: int):
    """Yield every normal-form word of letter length <= bound, each sign.

    Letter length counts V as one letter and T^k as |k| letters; with the
    sign doubled in the list is finite and exhaustive.
    """
    if bound < 0 or bound > 12:
        raise ValueError("bound must be between 0 and 12")
    for tokens in _grow_normal_forms((), bound, None):
        yield GenWord._trusted(tokens, 1)
        yield GenWord._trusted(tokens, -1)


def failing_relator(pres) -> GenWord | None:
    """The first relator of a presentation on generators named V and T
    whose matrix is not the identity, as a word with each run of one
    generator written as a power; None when every relator holds."""
    for rel in pres.relators:
        word = GenWord(tuple((pres.generators[g], sum(s for _, s in run))
                             for g, run in groupby(rel, key=itemgetter(0))))
        if eval_word(word) != IDENTITY:
            return word
    return None
