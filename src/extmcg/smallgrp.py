"""Small finite groups: presentations, coset enumeration, table groups.

Groups of order at most 64 are stored as explicit multiplication tables
(table[i][j] = index of element_i * element_j).  Presentations feed a
deterministic HLT Todd-Coxeter enumeration of the trivial-subgroup
cosets in one pass: a coincidence maps the coset graph onto a quotient,
which keeps every closed relator cycle closed, so nothing is rescanned.
For a finite presented group the cosets are the elements, which yields
the table, and the coset graph certifies that table without the O(n^3)
check.  An order above 64 is refused right after the enumeration,
before any table is built.  `abelian_invariants` gives the
abelianization from the Smith normal form of the relator exponent sums,
as a `FinAbGroup`.  A group maps onto its abelianization, so one with a
free summand is infinite, and one whose abelianization is finite of
order above 64 is too large: both are refused before any enumeration.
Any other presentation of an infinite group still passes the coset cap,
reported as CosetCapacityError, which shows nothing about finiteness.
"""

from __future__ import annotations

from itertools import chain, product
from math import gcd, prod
from operator import eq

from .errors import ParseError, UnsupportedSizeError, _Value


class PresentationError(ParseError):
    pass


class CosetCapacityError(RuntimeError):
    """Coset cap exceeded, so the presented group may be infinite; or an
    abelianization with a free summand proves it infinite."""


class InvalidTableError(ValueError):
    pass


class InvalidActionError(ValueError):
    pass


class InvalidSubgroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# presentations


class Presentation(_Value):
    """Finite presentation: generator names and relator words.

    A relator is a tuple of (generator_index, exponent_sign) letters, each
    two plain ints (no bool, no float); it multiplies out to the identity.
    """

    __slots__ = _fields = ("generators", "relators")

    def __new__(cls, generators: tuple[str, ...],
                relators: tuple[tuple[tuple[int, int], ...], ...]):
        try:
            generators, relators = tuple(generators), tuple(map(tuple, relators))
        except TypeError:
            raise PresentationError("generators and each relator must be sequences") from None
        if not all(isinstance(name, str) for name in generators):
            raise PresentationError("generator names must be strings")
        if len(set(generators)) != len(generators):
            raise PresentationError("duplicate generator names")
        rels = []
        for rel in relators:
            letters = []
            for letter in rel:
                try:
                    g, s = letter
                except (TypeError, ValueError):
                    raise PresentationError(f"bad letter {letter!r}") from None
                if not (type(g) is type(s) is int and 0 <= g < len(generators) and s in (1, -1)):
                    raise PresentationError(f"bad letter ({g}, {s})")
                letters.append((g, s))
            rels.append(tuple(letters))
        return cls._trusted(generators, tuple(rels))


# the relators of one presentation expand to at most this many letters in
# all, so an exponent such as a^99999999999 is refused before it is expanded
MAX_RELATOR_LETTERS = 10_000


def _parse_factor(tok: str, index: dict[str, int], room: int) -> list[tuple[int, int]]:
    """The letters of one factor; more than `room` of them is refused."""
    if tok.startswith("[") and tok.endswith("]"):
        inner = tok[1:-1].split(",")
        if len(inner) != 2:
            raise PresentationError(f"bad commutator {tok!r}")
        x, y = (t.strip() for t in inner)
        if x not in index or y not in index:
            raise PresentationError(f"unknown generator in {tok!r}")
        a, b = index[x], index[y]
        letters, count = [(a, 1), (b, 1), (a, -1), (b, -1)], 1
    else:
        name, caret, tail = tok.partition("^")
        if name not in index:
            raise PresentationError(f"unknown generator {name!r}")
        exp = 1
        if caret:
            try:
                exp = int(tail)
            except ValueError:
                raise PresentationError(f"bad exponent in {tok!r}") from None
        letters, count = [(index[name], 1 if exp > 0 else -1)], abs(exp)
    if len(letters) * count > room:
        raise UnsupportedSizeError(
            f"relators expand past the cap of {MAX_RELATOR_LETTERS} letters at {tok!r}")
    return letters * count


def parse_presentation(text: str) -> Presentation:
    """Parse "gens: a,b; rels: a^2, b^3, [a,b]" (commutator sugar included)."""
    parts = text.split(";")
    if len(parts) != 2:
        raise PresentationError("expected 'gens: ...; rels: ...'")
    gens_part, rels_part = (p.strip() for p in parts)
    if not gens_part.startswith("gens:") or not rels_part.startswith("rels:"):
        raise PresentationError("expected 'gens: ...; rels: ...'")
    gens = tuple(g.strip() for g in gens_part[len("gens:"):].split(",") if g.strip())
    if not gens:
        raise PresentationError("no generators")
    index = {g: i for i, g in enumerate(gens)}
    relators = []
    body = rels_part[len("rels:"):].strip()
    if body:
        # commutator factors contain commas; split on top-level commas only
        pieces, depth, cur = [], 0, ""
        for ch in body:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if ch == "," and depth == 0:
                pieces.append(cur)
                cur = ""
            else:
                cur += ch
        pieces.append(cur)
        room = MAX_RELATOR_LETTERS
        for piece in pieces:
            word: list[tuple[int, int]] = []
            for tok in piece.split():
                word.extend(_parse_factor(tok, index, room - len(word)))
            room -= len(word)
            if word:
                relators.append(tuple(word))
    return Presentation(gens, tuple(relators))


# ---------------------------------------------------------------------------
# Todd-Coxeter


def _coset_table(pres: Presentation, max_cosets: int) -> list[list[int]]:
    """HLT enumeration of the cosets of the trivial subgroup.

    Letters 2g and 2g+1 stand for generator g and its inverse.  Each live
    coset in turn has every relator scanned from it, defining cosets to
    fill the gap, then gets every missing image defined.  `link` writes an
    entry and its inverse entry and queues a coincidence where one already
    holds another coset; `coincide` merges each into the smaller coset.
    Stale entries resolve through union-find.

    One pass suffices: a coincidence maps the coset graph onto a quotient,
    which keeps every closed relator cycle closed, so no relator needs a
    second scan (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 5.1; Sims, Computation with Finitely Presented Groups, ch. 5).
    Deterministic: cosets are processed in increasing order, relators in
    presentation order, missing images defined in letter order.
    """
    width = 2 * len(pres.generators)
    rels = [tuple(2 * g + (0 if s == 1 else 1) for g, s in rel) for rel in pres.relators]
    table: list[list[int | None]] = [[None] * width]
    parent, queue = [0], []  # union-find parents; coincidences not yet merged

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def link(c: int, x: int, d: int):
        """Record c * x = d and d * x^-1 = c, for live cosets c and d."""
        e = table[c][x]
        if e is None:
            table[c][x] = d
        elif find(e) != d:
            queue.append((e, d))
        e = table[d][x ^ 1]
        if e is None:
            table[d][x ^ 1] = c
        elif find(e) != c:
            queue.append((e, c))

    def coincide():
        while queue:
            c, d = queue.pop()
            a, b = find(c), find(d)
            if a > b:
                a, b = b, a
            if a != b:
                parent[b] = a
                for x, e in enumerate(table[b]):
                    if e is not None:
                        link(a, x, find(e))

    def define(c: int, x: int) -> int:
        if len(table) >= max_cosets:
            raise CosetCapacityError(
                f"exceeded {max_cosets} cosets; raise the cap if the group is finite")
        d = len(table)
        table.append([None] * width)
        parent.append(d)
        link(c, x, d)
        return d

    def scan_and_fill(c: int, rel: tuple[int, ...]):
        """Trace rel from c from both ends, defining cosets until they meet."""
        i, j = 0, len(rel) - 1
        f = b = c
        while True:
            while i <= j and table[f][rel[i]] is not None:
                f = find(table[f][rel[i]])
                i += 1
            while j >= i and table[b][rel[j] ^ 1] is not None:
                b = find(table[b][rel[j] ^ 1])
                j -= 1
            if j <= i:
                break
            f = define(f, rel[i])
            i += 1
        if j == i:
            link(f, rel[i], b)
        elif f != b:
            queue.append((f, b))
        coincide()

    for alpha, row in enumerate(table):  # the table grows while it is walked
        for rel in rels:
            if find(alpha) == alpha:
                scan_and_fill(alpha, rel)
        if find(alpha) == alpha:
            for x in range(width):
                if row[x] is None:
                    define(alpha, x)

    live = [c for c in range(len(table)) if find(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    return [[renum[find(e)] for e in table[c]] for c in live]


def todd_coxeter(pres: Presentation, max_cosets: int = 100_000) -> "MulTableGroup":
    """Multiplication table of the presented group, if it closes under the cap.

    `max_cosets` must be a plain int (no bool, no float) at least 1.  The
    group maps onto its abelianization, so one with a free summand is
    infinite and is refused before any coset is defined, since no cap can
    close it; a finite one of order N > 64 is refused the same way
    (exactly N with one generator, where the group is cyclic).  Coset 0 of
    the trivial subgroup is the identity and every coset is one group
    element, so more than 64 cosets is refused before any table is built.

    The table is built one column at a time: column d lists i * d for
    every element i.  If d is first reached from c by letter x in a
    breadth-first search from the identity, column d is letter x applied
    to column c, and column 0 is the identity permutation.  The coset
    graph itself then certifies the table, in C-level work of order n^2
    per generator (one `bytes.translate` per column), instead of the
    O(n^3) associativity check.  Each generator's two letter columns must
    be inverse permutations, so the letters generate a permutation group G
    on the cosets, transitive as the search reaches every coset.  Column
    d, the letters of d's tree word applied in turn, is the element of G
    that takes coset 0 to d, and the stabilizer of coset 0 is generated by
    the Schreier generators col(c * x)^-1 x col(c), one per coset c and
    generator x (Schreier's lemma; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 4.1).  Requiring col(c * x) = x col(c)
    for every c and x makes each of them trivial, so G acts regularly and
    its elements are the n columns.  As i = col(i) applied to coset 0,
    entry i * d is col(i) then col(d) applied to coset 0: the table is
    that of G, so it is built unchecked, and a coset graph that fails the
    certificate is an InvalidTableError.
    """
    if type(max_cosets) is not int or max_cosets < 1:
        raise UnsupportedSizeError(f"max_cosets must be an int at least 1, got {max_cosets!r}")
    ab = abelian_invariants(pres)
    if ab.free_rank:
        raise CosetCapacityError(
            f"abelianization {ab} has a free summand, so the group is infinite "
            "and no coset cap can close it")
    n = prod(ab.torsion)
    if n > 64:
        bound = "" if len(pres.generators) == 1 else "at least "
        raise UnsupportedSizeError(f"order {bound}{n} outside supported range 1..64")
    table = _coset_table(pres, max_cosets)
    n = len(table)
    _require_order(n)
    # columns are bytes, so letter x acts on a column by one translate;
    # a translate table has 256 entries, and no entry reaches the padding
    pad = bytes(256 - n)
    letters = [bytes(col) + pad for col in zip(*table)]  # letters[x][c] = c * x
    plain = bytes(range(n))
    for p, q in zip(letters[::2], letters[1::2]):
        # q after p fixes every coset, so p is a bijection and q its inverse
        if p[:n].translate(q) != plain:
            raise InvalidTableError("a generator's letter columns are not inverse permutations")
    cols = [plain] + [None] * (n - 1)
    order = [0]
    for c in order:
        for x, d in enumerate(table[c]):
            if cols[d] is None:
                cols[d] = cols[c].translate(letters[x])
                order.append(d)
    if len(order) != n:
        raise InvalidTableError("coset graph is not connected")
    for p in letters[::2]:
        if list(map(cols.__getitem__, p[:n])) != [col.translate(p) for col in cols]:
            raise InvalidTableError("the coset graph is not a regular permutation action")
    return MulTableGroup._trusted(tuple(zip(*cols)), 0)


# ---------------------------------------------------------------------------
# table groups


def _require_order(n: int) -> None:
    if n < 1 or n > 64:
        raise UnsupportedSizeError(f"order {n} outside supported range 1..64")


def generate(seed, mul, identity) -> frozenset:
    """Breadth-first search from `identity`, right-multiplying by the seed.

    In a finite group the monoid this produces is the subgroup the seed
    generates.
    """
    gens = set(seed)
    out, queue = {identity}, [identity]
    for x in queue:
        for a in gens:
            y = mul(x, a)
            if y not in out:
                out.add(y)
                queue.append(y)
    return frozenset(out)


class MulTableGroup(_Value):
    """Finite group as a full multiplication table over indices 0..n-1.

    The identity is found from the table.  Each table is validated in full,
    except products and quotients of checked groups, which are groups by
    construction from checked inputs.
    """

    __slots__ = _fields = ("table", "identity")

    def __new__(cls, table: tuple[tuple[int, ...], ...]):
        # the rules are checked in C over the whole table, each before the
        # next: entries plain ints (no bool, no float) in range, rows and
        # columns bijections, a two-sided identity; a table or row without
        # a length raises TypeError here
        try:
            n = len(table)
            _require_order(n)
            square = set(map(len, table)) == {n}
            # stored frozen: list input equals and hashes as the same group,
            # and a later change to the caller's lists cannot reach it
            table = tuple(map(tuple, table))
        except TypeError:
            square = False
        if not (square and set(map(type, chain.from_iterable(table))) == {int}
                and set(range(n)).issuperset(chain.from_iterable(table))):
            raise InvalidTableError("table is not square over element indices")
        if min(map(len, map(set, table))) < n:
            raise InvalidTableError("a row repeats an element (not a bijection)")
        cols = tuple(zip(*table))
        if min(map(len, map(set, cols))) < n:
            raise InvalidTableError("a column repeats an element (not a bijection)")
        commutative = table == cols  # column i equals row i for every i
        # the identity's row and column are 0..n-1; the rows of a Latin
        # square are distinct, so at most one row is 0..n-1
        plain = tuple(range(n))
        ident = table.index(plain) if plain in table else -1
        if ident < 0 or cols[ident] != plain:
            raise InvalidTableError("no two-sided identity element")
        # a triple through the identity holds; in a commutative table
        # (ab)c = c(ba) and a(bc) = (cb)a, so (a,b,c) holds iff (c,b,a) does
        # and c runs from a up: each triple is decided, the first failure named
        others = [x for x in range(n) if x != ident]
        for i, a in enumerate(others):
            row_a, cs = table[a], others[i:] if commutative else others
            for b in others:
                row_ab, row_b = table[row_a[b]], table[b]
                for c in cs:
                    if row_ab[c] != row_a[row_b[c]]:
                        raise InvalidTableError(f"not associative at ({a},{b},{c})")
        return cls._trusted(table, ident)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.table[a].index(self.identity)  # each row is a permutation

    def is_abelian(self) -> bool:
        return self.table == tuple(zip(*self.table))

    def closure(self, seed) -> frozenset[int]:
        return generate(seed, self.mul, self.identity)

    def _subgroup(self, elems) -> frozenset[int] | None:
        """The subset elems, read once, if it is a subgroup; else None.
        Members follow the table rule: plain ints (no bool, no float) in range."""
        try:
            s = frozenset(elems)
        except TypeError:  # not iterable, or a member that does not hash
            return None
        if self.identity not in s or set(map(type, s)) != {int} \
                or not s.issubset(range(self.order)):
            return None
        return s if all(self.table[a][b] in s for a in s for b in s) else None

    def _normal_subgroup(self, elems) -> frozenset[int] | None:
        """The subset elems, read once, if it is a normal subgroup; else None."""
        s = self._subgroup(elems)
        if s is None:
            return None
        t = self.table
        for g in range(self.order):
            gi = self.inverse(g)
            if any(t[t[g][a]][gi] not in s for a in s):
                return None
        return s

    def is_subgroup(self, elems) -> bool:
        return self._subgroup(elems) is not None

    def is_normal(self, elems) -> bool:
        return self._normal_subgroup(elems) is not None


# the builders make rows and tables from lists: tuple() over a generator
# grows by repeated resizes, which fragments the heap over many builds
def cyclic(n: int) -> MulTableGroup:
    _require_order(n)
    # row i is (i + j) mod n: 0..n-1 rotated left by i
    line = list(range(n))
    return MulTableGroup(tuple([tuple(line[i:] + line[:i]) for i in range(n)]))


def klein() -> MulTableGroup:
    """Z2 x Z2 with elements as bit pairs 0..3 under XOR."""
    return MulTableGroup(tuple([tuple([i ^ j for j in range(4)]) for i in range(4)]))


def dihedral(order: int) -> MulTableGroup:
    """Dihedral group of the given (even) order: rotations r^i, reflections r^i s."""
    if order < 2 or order % 2 or order > 64:
        raise UnsupportedSizeError(f"no dihedral group of order {order} here")
    # element 2i = r^i, element 2i+1 = r^i s; s r s = r^-1, so r^i times
    # r^j or r^j s is r^(i+j) or r^(i+j) s, and r^i s times them is
    # r^(i-j) s or r^(i-j): the rotations and reflections, rotated left
    # by i or read backwards from i, interleaved
    rot, ref = list(range(0, order, 2)), list(range(1, order, 2))
    rows = []
    for i in range(order // 2):
        row = [0] * order
        row[0::2], row[1::2] = rot[i:] + rot[:i], ref[i:] + ref[:i]
        rows.append(tuple(row))
        row[0::2], row[1::2] = ref[i::-1] + ref[:i:-1], rot[i::-1] + rot[:i:-1]
        rows.append(tuple(row))
    return MulTableGroup(tuple(rows))


def quaternion(order: int) -> MulTableGroup:
    """The quaternion group {+-1, +-i, +-j, +-k}; only order 8 exists here."""
    if order != 8:
        raise UnsupportedSizeError("only the order-8 quaternion group is provided")
    # indices: unit 0..3 for 1,i,j,k; +4 for the negatives
    basis = {(0, 0): (0, 1), (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
             (1, 2): (3, 1), (2, 1): (3, -1), (2, 3): (1, 1), (3, 2): (1, -1),
             (3, 1): (2, 1), (1, 3): (2, -1)}

    def mul(x, y):
        ux, sx = x % 4, -1 if x >= 4 else 1
        uy, sy = y % 4, -1 if y >= 4 else 1
        if ux == 0:
            u, s = uy, 1
        elif uy == 0:
            u, s = ux, 1
        else:
            u, s = basis[(ux, uy)]
        sign = sx * sy * s
        return u + (0 if sign == 1 else 4)

    return MulTableGroup(tuple([tuple([mul(x, y) for y in range(8)]) for x in range(8)]))


def direct_product(g: MulTableGroup, h: MulTableGroup) -> MulTableGroup:
    """Componentwise product on pairs; pair (a, b) gets index a*|H| + b.

    The trivial action is a homomorphism into Aut(g) by definition, so it
    is not checked.
    """
    _require_factors(g, h)
    return _product(g, h, [range(g.order)] * h.order)


def semidirect_product(n: MulTableGroup, h: MulTableGroup,
                       action: dict[int, tuple[int, ...]]) -> MulTableGroup:
    """Split extension of n by h: (a, x)(b, y) = (a * action[x](b), x y).

    action maps each element of h to a permutation of n's indices; it must
    send each to an automorphism and be a homomorphism into Aut(n).  Both
    are checked on a generating set S of h: action[s] is an automorphism
    for each s in S, the identity acts trivially, and action[x s] is
    action[x] after action[s] for every x in h and s in S.  Every element
    of a finite group is a product of generators, so that accepts exactly
    the homomorphisms, and their images are then products of automorphisms
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 2).
    Then n ⋊ h is a group by construction, so its table is not checked again.
    """
    _require_factors(n, h)
    if not (isinstance(action, dict) and set(map(type, action)) == {int}
            and set(action) == set(range(h.order))):
        raise InvalidActionError("action must be a dict over every element of the acting group")
    indices = list(range(n.order))
    images = {}  # stored as tuples, so list images compare equal below
    for x, perm in action.items():
        # each image lists plain ints (no bool, no float), as a table row does
        try:
            ok = set(map(type, perm)) == {int} and sorted(perm) == indices
        except TypeError:
            ok = False
        if not ok:
            raise InvalidActionError(f"image of element {x} is not a permutation")
        images[x] = tuple(perm)
    gens, nt = _generating_set(h), n.table
    for s in gens:
        # row a of n read through the image is row image(a) read at the image
        perm = images[s]
        for a, row in enumerate(nt):
            if list(map(perm.__getitem__, row)) != list(map(nt[perm[a]].__getitem__, perm)):
                raise InvalidActionError(f"image of element {s} is not an automorphism")
    if images[h.identity] != tuple(indices) or any(
            images[row[s]] != tuple(map(images[x].__getitem__, images[s]))
            for x, row in enumerate(h.table) for s in gens):
        raise InvalidActionError("action is not a homomorphism into Aut(n)")
    return _product(n, h, [images[x] for x in range(h.order)])


def _require_groups(what: str, *groups) -> None:
    if not all(isinstance(g, MulTableGroup) for g in groups):
        raise TypeError(f"{what} needs MulTableGroup arguments")


def _require_factors(n: MulTableGroup, h: MulTableGroup) -> None:
    # the product table is not checked, so it rests on checked factors
    _require_groups("a product", n, h)
    if n.order * h.order > 64:
        raise UnsupportedSizeError("product order exceeds 64")


def _product(n: MulTableGroup, h: MulTableGroup, images) -> MulTableGroup:
    """n ⋊ h for checked factors and a checked action, images[x] the
    permutation of n's indices that x acts by."""
    # pair (a, x) has index a*|h| + x; row (a, x), column (b, y) holds
    # (a * images[x](b), x y), built one row at a time
    m = h.order
    table = tuple([tuple([n_row[p] * m + z for p in images[x] for z in h_row])
                   for n_row in n.table for x, h_row in enumerate(h.table)])
    return MulTableGroup._trusted(table, n.identity * m + h.identity)


def quotient(g: MulTableGroup, normal) -> MulTableGroup:
    """Quotient by a normal subgroup, cosets indexed by smallest member;
    a group by construction, so its table is not checked again."""
    _require_groups("quotient", g)
    nset = g._normal_subgroup(normal)
    if nset is None:
        raise InvalidSubgroupError("subset is not a normal subgroup")
    coset_of = {}
    reps = []
    for a in range(g.order):
        if a in coset_of:
            continue
        members = sorted(g.table[a][x] for x in nset)
        rep = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = rep
    k = len(reps)
    table = tuple([tuple([coset_of[g.table[reps[i]][reps[j]]] for j in range(k)])
                   for i in range(k)])
    return MulTableGroup._trusted(table, coset_of[g.identity])


# ---------------------------------------------------------------------------
# isomorphism


def _generating_set(g: MulTableGroup, base=()) -> list[int]:
    """Elements that generate g together with `base`: in index order, each
    element not yet in the span, until the span is all of g."""
    gens: list[int] = []
    span = g.closure(base)
    for a in range(g.order):
        if len(span) == g.order:
            break
        if a not in span:
            gens.append(a)
            span = g.closure((*base, *gens))
    return gens


def _element_orders(g: MulTableGroup) -> list[int]:
    """Order of every element.  Each new element's cyclic subgroup is walked
    once; if a has order m, then a^j has order m // gcd(j, m)."""
    t, e = g.table, g.identity
    orders = [0] * len(t)
    for a in range(len(t)):
        if orders[a]:
            continue
        powers, x = [a], a
        while x != e:
            x = t[x][a]
            powers.append(x)
        m = len(powers)
        for j, x in enumerate(powers, 1):
            orders[x] = m // gcd(j, m)
    return orders


def is_isomorphic(g: MulTableGroup, h: MulTableGroup) -> tuple[bool, tuple[int, ...] | None]:
    """Isomorphism test with witness: (True, mapping) or (False, None).

    mapping[i] is the image in h of element i of g.  Cheap invariants
    reject first: the element-order counts, commutativity and the size of
    the centre.  Then a backtrack search over images of a generating set of
    g, with candidates of the same element order, closes the partial map
    after each image and prunes a branch at the first conflict or repeated
    image (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    ch. 9).  Generators and candidates are tried in index order, so the
    witness is the first isomorphism in that order.
    """
    _require_groups("is_isomorphic", g, h)
    n = g.order
    if n != h.order:
        return False, None
    g_orders, h_orders = _element_orders(g), _element_orders(h)
    if sorted(g_orders) != sorted(h_orders):
        return False, None
    g_rows = [bytes(row) for row in g.table]
    h_rows = [bytes(row) for row in h.table]
    g_cols = [bytes(col) for col in zip(*g.table)]
    h_cols = [bytes(col) for col in zip(*h.table)]
    # a group is abelian when every row equals its column, and its centre
    # is the elements whose row does
    if (g_rows == g_cols) != (h_rows == h_cols) or \
            sum(map(eq, g_rows, g_cols)) != sum(map(eq, h_rows, h_cols)):
        return False, None

    gens = _generating_set(g)
    candidates = [[b for b in range(n) if h_orders[b] == g_orders[a]] for a in gens]
    gt, ht = g.table, h.table
    phi = [-1] * n          # the partial map; -1 where not yet defined
    taken = [False] * n     # images already used
    phi[g.identity], taken[h.identity] = h.identity, True
    domain = [g.identity]   # the subgroup phi is defined on, in the order reached
    pairs: list[tuple[int, int]] = []

    def close(a: int, b: int) -> bool:
        """Extend phi to the subgroup with the next generator a sent to b.

        The old domain is already closed under the earlier generators, so
        it needs only the new one; each new element needs them all.
        False at the first conflict or repeated image.
        """
        pairs.append((a, b))
        old = len(domain)
        i = 0
        while i < len(domain):
            x = domain[i]
            fx = phi[x]
            for c, d in (pairs[-1:] if i < old else pairs):
                y, fy = gt[x][c], ht[fx][d]
                if phi[y] < 0:
                    if taken[fy]:
                        return False
                    phi[y], taken[fy] = fy, True
                    domain.append(y)
                elif phi[y] != fy:
                    return False
            i += 1
        return True

    def undo(size: int) -> None:
        pairs.pop()
        for y in domain[size:]:
            taken[phi[y]], phi[y] = False, -1
        del domain[size:]

    pad = bytes(256 - n)
    h_tables = [row + pad for row in h_rows]

    def is_homomorphism() -> bool:
        # row a of g read through phi equals row phi(a) of h read at phi
        image = bytes(phi)
        through = image + pad
        return all(g_rows[a].translate(through) == image.translate(h_tables[phi[a]])
                   for a in range(n))

    def search(i: int) -> bool:
        if i == len(gens):
            return is_homomorphism()
        size = len(domain)
        for b in candidates[i]:
            if close(gens[i], b) and search(i + 1):
                return True
            undo(size)
        return False

    found = search(0)
    del search  # it names itself: break the cycle that would keep the tables
    if found:
        return True, tuple(phi)
    return False, None


# ---------------------------------------------------------------------------
# subgroups and complements


def all_subgroups(g: MulTableGroup) -> set[frozenset[int]]:
    """Breadth-first search over joins with the cyclic subgroups (one kept
    generator each); every subgroup is such a chain of joins.  Each found
    subgroup keeps the generators that built it, which seed its joins.

    A subgroup H makes one join per right coset: after joining a, the coset
    H·a is marked tried, and a later generator in a tried coset is skipped.
    That is sound because <H, h·a> = <H, a> for every h in H, so the skipped
    join would find a subgroup this H has already put in `gens`."""
    cyclic_gens = {g.closure([a]): a for a in range(g.order)}
    gens = {frozenset({g.identity}): ()}
    queue = list(gens)
    for sub in queue:
        tried = set(sub)
        for a in cyclic_gens.values():
            if a not in tried:
                tried.update(g.table[h][a] for h in sub)
                seed = gens[sub] + (a,)
                bigger = g.closure(seed)
                if bigger not in gens:
                    gens[bigger] = seed
                    queue.append(bigger)
    return set(gens)


def has_complement(g: MulTableGroup, normal) -> bool:
    """Is there a subgroup meeting the normal subgroup N trivially with full span?

    Equivalent to the quotient extension splitting.  Picks representatives
    r_1..r_k whose cosets generate G/N.  A complement holds one lift of each
    r_i N, and any lifts generate a subgroup that maps onto G/N, which meets
    N trivially exactly when its order is |G|/|N|.  So the search tries the
    |N|^k choices of lifts and never builds the subgroup lattice.
    """
    _require_groups("has_complement", g)
    nset = g._normal_subgroup(normal)
    if nset is None:
        raise InvalidSubgroupError("subset is not a normal subgroup")
    want = g.order // len(nset)
    reps = _generating_set(g, nset)
    cosets = [[g.table[r][x] for x in nset] for r in reps]
    return any(len(g.closure(lifts)) == want for lifts in product(*cosets))


# ---------------------------------------------------------------------------
# the order-16 group for the even-dimensional classification


D8_PRESENTATION = parse_presentation(
    "gens: a,b,u; rels: a^2, b^2, u^2, [a,b], a u b^-1 u^-1")

# the even-row-product subgroup of SL(2,Z); its abelianization Z4 + Z proves it
# infinite, so Todd-Coxeter refuses it before enumerating
GAMMA_V2_PRESENTATION = parse_presentation("gens: V,T; rels: V^4, V^2 T V^-2 T^-1")

# element indices inside build_E_even(), fixed by the product conventions:
# ((klein ⋊ swap) x reversal): inner pair (k, u) has index k*2+u, outer
# pair (inner, r) has index inner*2+r
E_EVEN_GENS = {"delta1": 4, "delta2": 8, "u": 2, "r": 1}


def build_E_even() -> MulTableGroup:
    """The order-16 group ((Z2 x Z2) ⋊ swap) x Z2.

    The Klein kernel is generated by the two one-sided reflections delta1
    and delta2, u swaps them, and r (reversing both factors at once) is
    central.  Isomorphic to dihedral(8) x cyclic(2).
    """
    kern = klein()
    swap = (0, 2, 1, 3)  # exchanges the two bit generators of klein()
    inner = semidirect_product(kern, cyclic(2), {0: (0, 1, 2, 3), 1: swap})
    return direct_product(inner, cyclic(2))


class FinAbGroup(_Value):
    """Finitely generated abelian group in invariant-factor form.

    torsion is a divisibility chain d_1 | d_2 | ... of plain ints (no bool,
    no float) >= 2, stored as a tuple; free_rank counts the Z summands.
    """

    __slots__ = _fields = ("free_rank", "torsion")

    def __new__(cls, free_rank: int, torsion: tuple[int, ...]):
        try:
            torsion = tuple(torsion)
        except TypeError:
            raise ValueError(f"torsion {torsion!r} is not a sequence of orders") from None
        if type(free_rank) is not int or free_rank < 0:
            raise ValueError(f"free rank {free_rank!r} must be a nonnegative int")
        for i, d in enumerate(torsion):
            if type(d) is not int or d < 2:
                raise ValueError(f"torsion order {d!r} must be an int at least 2")
            if i and torsion[i - 1] != gcd(torsion[i - 1], d):
                raise ValueError("torsion orders must form a divisibility chain")
        return cls._trusted(free_rank, torsion)

    def __str__(self):  # Z4 + Z, Z2 + Z12, or trivial
        return " + ".join([f"Z{d}" for d in self.torsion] + ["Z"] * self.free_rank) or "trivial"


def abelian_invariants(pres: Presentation) -> FinAbGroup:
    """The abelianization of the presented group.

    Row r of the relator matrix holds the exponent sum of each generator
    in relator r; the abelianization is Z^n modulo its rows.  Integer row
    and column operations diagonalize it: the entry of least absolute
    value is the pivot, reduces its row and column, and is split off once
    they are clear; a nonzero remainder is a smaller pivot, so this ends.
    Each diagonal entry d gives a Z/d, each column left without one a Z.
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b) then puts the torsion in
    divisibility order (Smith normal form), with the factors 1 dropped.
    """
    n = len(pres.generators)
    rows = []
    for rel in pres.relators:
        row = [0] * n
        for g, s in rel:
            row[g] += s
        rows.append(row)
    diagonal = []
    while True:
        entries = [(abs(e), r, c) for r, row in enumerate(rows)
                   for c, e in enumerate(row) if e]
        if not entries:
            break
        _, r, c = min(entries)
        pivot_row = rows[r]
        p = pivot_row[c]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c] // p
                rows[i] = [x - f * y for x, y in zip(row, pivot_row)]
        for j, e in enumerate(pivot_row):
            if j != c and e:
                f = e // p
                for row in rows:
                    row[j] -= f * row[c]
        if any(e for j, e in enumerate(pivot_row) if j != c) or any(
                row[c] for i, row in enumerate(rows) if i != r):
            continue
        diagonal.append(abs(p))
        del rows[r]
        for row in rows:
            del row[c]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
    return FinAbGroup._trusted(n - len(diagonal), tuple(d for d in diagonal if d > 1))
