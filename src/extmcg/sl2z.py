"""The subgroup of SL(2,Z) with even row products, and its word algebra.

Membership: an integer matrix (a b / c d) with det +1 belongs iff a*b and
c*d are both even, which is the same as being congruent to the identity
or to the quarter-turn V = (0 -1 / 1 0) mod 2.  The group is generated by
V and T = (1 2 / 0 1); modulo the central -Id it is the free product of
the order-2 image of V with the infinite cyclic image of T, so every
element has a unique alternating normal form with an overall sign.

Words multiply left to right: eval_word([V, T]) is the matrix V * T.

The public constructors check what they are given.  Products, inverses,
evaluated words, normal forms and decompositions are built from checked
values by `_trusted` and are not checked again.
"""

from __future__ import annotations

from .errors import InvalidMatrixError, ParseError, _Value


class NonMemberError(ValueError):
    """Unimodular, but a row product is odd."""


class WordSyntaxError(ParseError):
    pass


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two 2x2 matrices given as entry tuples (a, b, c, d)."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class UniModMat2(_Value):
    """2x2 integer matrix (a b / c d) with determinant +1."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        for e in (a, b, c, d):
            if not isinstance(e, int):
                raise InvalidMatrixError(f"entry {e!r} is not an integer")
        det = a * d - b * c
        if det != 1:
            raise InvalidMatrixError(f"determinant is {det}, must be +1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def _trusted(cls, a: int, b: int, c: int, d: int) -> "UniModMat2":
        m = object.__new__(cls)
        _set_a(m, a)
        _set_b(m, b)
        _set_c(m, c)
        _set_d(m, d)
        return m

    def __mul__(self, other: "UniModMat2") -> "UniModMat2":
        return UniModMat2._trusted(*_mul(self._astuple, other._astuple))

    def __neg__(self) -> "UniModMat2":
        return UniModMat2._trusted(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "UniModMat2":
        return UniModMat2._trusted(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "UniModMat2":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        acc = IDENTITY
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
            raise InvalidMatrixError("expected {\"rows\": [[a, b], [c, d]]}")
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

    def __init__(self, tokens: tuple[tuple[str, int], ...], sign: int = 1):
        if sign not in (1, -1):
            raise WordSyntaxError(f"sign must be +-1, got {sign}")
        for gen, exp in tokens:
            if gen not in GENERATORS:
                raise WordSyntaxError(f"unknown generator {gen!r}")
            if not isinstance(exp, int):
                raise WordSyntaxError(f"exponent {exp!r} is not an integer")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "sign", sign)

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
    factors V, T, V^<int>, T^<int>; 'e' alone is the empty word."""
    raw = text.split()
    if not raw:
        raise WordSyntaxError("empty input; use 'e' for the identity word")
    sign = 1
    if raw[0] == "-":
        sign = -1
        raw = raw[1:]
    elif raw[0].startswith("-") and raw[0] != "-":
        sign = -1
        raw = [raw[0][1:]] + raw[1:]
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

    The product runs on plain entries.  A checked word gives integer
    entries with determinant +1, so the result is built unchecked.
    T^k is the closed form (1 2k / 0 1); a power of V is computed by
    square-and-multiply, so V^4 = Id is a product, never a rule.
    """
    acc = (1, 0, 0, 1)
    for gen, exp in w.tokens:
        if gen == "T":
            a, b, c, d = acc
            acc = (a, b + 2 * exp * a, c, d + 2 * exp * c)
            continue
        m = (0, -1, 1, 0) if exp > 0 else (0, 1, -1, 0)  # V or V^-1
        exp = abs(exp)
        while exp:
            if exp & 1:
                acc = _mul(acc, m)
            exp >>= 1
            if exp:
                m = _mul(m, m)
    a, b, c, d = acc if w.sign == 1 else (-e for e in acc)
    return UniModMat2._trusted(a, b, c, d)


def normal_form(w: GenWord) -> GenWord:
    """Collapse to the alternating form: V factors with exponent exactly 1,
    nonzero T exponents, central sign pulled out via V^2 = -Id."""
    sign = w.sign
    stack: list[tuple[str, int]] = []

    def push(gen: str, exp: int):
        nonlocal sign
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if gen == "V":
            if exp % 4 in (2, 3):
                sign = -sign
            exp = exp % 4 % 2
        if exp:
            stack.append((gen, exp))

    for gen, exp in w.tokens:
        push(gen, exp)
    return GenWord._trusted(tuple(stack), sign)


def is_normal_form(w: GenWord) -> bool:
    for i, (gen, exp) in enumerate(w.tokens):
        if exp == 0 or (gen == "V" and exp != 1):
            return False
        if i and w.tokens[i - 1][0] == gen:
            return False
    return True


def decompose(m: UniModMat2) -> GenWord:
    """Write a member as a normal-form word in V and T.

    Euclidean descent on the first column: T powers add even multiples of
    the bottom row to the top, shrinking |a| below |c| (the two have
    opposite parity, so the strict inequality is always reachable), then V
    swaps the rows.  |c| drops strictly each round, so we reach c = 0,
    where the residue is +-T^k.  The accumulated left factors are then
    inverted back onto the result.
    """
    require_member(m)
    steps: list[tuple[str, int]] = []  # applied left factors, in order
    a, b, c, d = m.a, m.b, m.c, m.d
    while c != 0:
        if a != 0:
            # a and c have opposite parity, so a / 2c is never a half
            # integer: the nearest k leaves |a| strictly below |c|
            k = -((a + c) // (2 * c))
            if k:
                a, b = a + 2 * k * c, b + 2 * k * d  # T^k * cur
                steps.append(("T", k))
        assert abs(a) < abs(c)
        a, b, c, d = -c, -d, a, b  # V * cur
        steps.append(("V", 1))
    # cur = eps * T^k with eps = a in {1, -1}
    eps = a
    k = eps * b // 2
    tokens = [(gen, -exp) for gen, exp in steps]
    if k:
        tokens.append(("T", k))
    return normal_form(GenWord._trusted(tuple(tokens), 1 if eps == 1 else -1))


def normal_forms_up_to(bound: int, signs: bool = True):
    """Yield every normal-form word of letter length <= bound.

    Letter length counts V as one letter and T^k as |k| letters; with the
    sign doubled in (if requested) the list is finite and exhaustive.
    """
    if bound < 0 or bound > 12:
        raise ValueError("bound must be between 0 and 12")

    def grow(tokens: tuple[tuple[str, int], ...], budget: int, last: str | None):
        yield tokens
        if last != "V" and budget >= 1:
            yield from grow(tokens + (("V", 1),), budget - 1, "V")
        if last != "T":
            for size in range(1, budget + 1):
                for exp in (size, -size):
                    yield from grow(tokens + (("T", exp),), budget - size, "T")

    for tokens in grow((), bound, None):
        yield GenWord._trusted(tokens, 1)
        if signs:
            yield GenWord._trusted(tokens, -1)


def verify_presentation(bound: int) -> int:
    """Exhaustive injectivity check for the presentation <V, T | V^4, V^2 T = T V^2>.

    Evaluates every normal form of letter length <= bound and confirms the
    matrices are pairwise distinct.  Returns the number of words checked.
    Also spot-checks that both defining relators evaluate to the identity.
    """
    if eval_word(GenWord((("V", 4),))) != IDENTITY:
        raise AssertionError("V^4 is not the identity")
    lhs = eval_word(GenWord((("V", 2), ("T", 1))))
    rhs = eval_word(GenWord((("T", 1), ("V", 2))))
    if lhs != rhs:
        raise AssertionError("V^2 does not commute with T")
    seen: dict[tuple, GenWord] = {}
    count = 0
    for w in normal_forms_up_to(bound):
        m = eval_word(w)
        key = (m.a, m.b, m.c, m.d)
        if key in seen:
            raise AssertionError(f"collision: {seen[key]} and {w} both give {key}")
        seen[key] = w
        count += 1
    return count
