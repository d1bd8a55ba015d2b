"""Symplectic vector spaces over GF(2) and quadratic refinements.

A quadratic refinement of the intersection pairing assigns a bit q(v) to
every vector so that q(x + y) = q(x) + q(y) + <x, y> mod 2.  The Arf
invariant sorts refinements into two classes; it is computed here both
from a symplectic basis and by exhaustive majority vote, and the two
routes are kept separate on purpose so each can check the other.

Vectors are bitmask integers (bit i = coordinate i); matrices and basis
values are exposed as plain 0/1 tuples.  A vector of a 2k-dimensional
space is a mask m with 0 <= m < 2^(2k): `pair_masks` and `eval_mask`
raise DimensionMismatchError for any other, while `image` and `upper`,
which the hot loops call, do not check.  A space pairs masks through its
Gram image, <u, v> = parity(u & J v), and splits off its symplectic
basis once.  A symplectic matrix keeps only its columns as bitmasks
(column j is the image of basis vector j), so applying, composing and
validating it are XORs and popcounts.

A refinement is evaluated in closed form, q(v) = v^T U v plus the sum of
q(e_i) over i in v, with U the strict upper triangle of the Gram matrix
applied through byte tables like J.  The Arf invariant by basis reads
that form from data the space caches once: for each symplectic basis
vector, parity(v & U v) and the set bits of v.  Per refinement it then
adds up basis values only, and builds no table.  The majority vote and
`transport` read the full 2^dim value table instead, which the majority
vote needs anyway and which `transport` reuses across the many elements
it is called with; the two Arf routes therefore share no code for
evaluating q.

Validation happens once, at the boundary.  The public constructors and
`from_columns` check their input.  What the library builds from checked
values, such as the refinement `transport` returns, a product, the
elements of `enumerate_sp` and the transvections, is made by `_trusted`
without a second check.  `transport` must still know that its element
preserves the refinement's form.  Each SpElement therefore carries a memo
beside its columns: the Gram row masks of a form it is known to
preserve, or None.  `enumerate_sp` and the transvections set it, a
product keeps it when both factors carry the same form, and `transport`
runs the full check only when the memo does not match, recording the
form when the check passes.

Orbits of refinements are found by breadth-first search over 3k - 1
transvections that generate Sp(2k, 2), without enumerating the group, up
to dimension 10.  Stabilizers filter the full enumeration of Sp(2k, 2)
and stop at dimension 6.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import UnsupportedSizeError, _Value


class DegenerateFormError(ValueError):
    """Gram matrix is not a nondegenerate alternating form."""


class DimensionMismatchError(ValueError):
    pass


def _byte_tables(columns) -> tuple[list[int], ...]:
    """The matrix with these column masks applied to every value of each
    8-bit slice of a vector; the XOR of one lookup per slice applies it."""
    tables = []
    for base in range(0, len(columns), 8):
        cols = columns[base:base + 8]
        table = [0] * (1 << len(cols))
        for m in range(1, len(table)):
            table[m] = table[m & (m - 1)] ^ cols[(m & -m).bit_length() - 1]
        tables.append(table)
    return tuple(tables)


def _rank_f2(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
            rank += 1
    return rank


class SymplecticSpaceF2(_Value):
    """Even-dimensional GF(2) space with a nondegenerate alternating Gram matrix."""

    _fields = ("gram",)

    def __init__(self, gram: tuple[tuple[int, ...], ...]):
        n = len(gram)
        if n == 0 or n % 2:
            raise DegenerateFormError(f"dimension {n} is not even and positive")
        for row in gram:
            if len(row) != n or any(e not in (0, 1) for e in row):
                raise DegenerateFormError("Gram matrix must be square over {0,1}")
        for i in range(n):
            if gram[i][i]:
                raise DegenerateFormError(f"Gram diagonal entry ({i},{i}) is nonzero")
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise DegenerateFormError("Gram matrix is not symmetric")
        object.__setattr__(self, "gram", gram)
        if _rank_f2(list(self.row_masks)) != n:
            raise DegenerateFormError("Gram matrix is singular over GF(2)")

    @cached_property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        return tuple(sum(e << j for j, e in enumerate(row)) for row in self.gram)

    @cached_property
    def _byte_images(self) -> tuple[list[int], ...]:
        return _byte_tables(self.row_masks)

    @cached_property
    def _byte_uppers(self) -> tuple[list[int], ...]:
        # column j of the strict upper triangle: the rows i < j with G_ij = 1
        return _byte_tables([r & ((1 << j) - 1) for j, r in enumerate(self.row_masks)])

    def image(self, v: int) -> int:
        """J v, the mask with <u, v> = parity(u & J v) for every u."""
        out = 0
        for table in self._byte_images:
            out ^= table[v & 0xFF]
            v >>= 8
        return out

    def upper(self, v: int) -> int:
        """U v for U the strict upper triangle of the Gram matrix, so that
        parity(v & U v) is the sum of <e_i, e_j> over pairs i < j in v."""
        out = 0
        for table in self._byte_uppers:
            out ^= table[v & 0xFF]
            v >>= 8
        return out

    def _check_mask(self, mask: int) -> None:
        """Raise DimensionMismatchError unless 0 <= mask < 2^dim."""
        if not 0 <= mask < 1 << self.dim:
            raise DimensionMismatchError(
                f"mask {mask} outside 0..{(1 << self.dim) - 1} for dimension {self.dim}")

    def pair_masks(self, u: int, v: int) -> int:
        self._check_mask(u)
        self._check_mask(v)
        return (u & self.image(v)).bit_count() & 1

    @cached_property
    def basis_masks(self) -> tuple[tuple[int, int], ...]:
        """Hyperbolic pairs (a_i, b_i) as masks, split off once per space.

        Greedy Gram-Schmidt: take the first vector a of the pool, the first
        b pairing 1 with it, and project the rest of the pool onto the
        complement of <a, b>.  The projections stay a basis of that
        complement, and the form stays nondegenerate on it.
        """
        pool = [1 << i for i in range(self.dim)]
        pairs: list[tuple[int, int]] = []
        while pool:
            a = pool.pop(0)
            ja = self.image(a)
            b = next((v for v in pool if (v & ja).bit_count() & 1), None)
            if b is None:
                raise DegenerateFormError("vector pairs trivially with the whole space")
            pool.remove(b)
            jb = self.image(b)
            pool = [v ^ (a if (v & jb).bit_count() & 1 else 0)
                    ^ (b if (v & ja).bit_count() & 1 else 0) for v in pool]
            pairs.append((a, b))
        return tuple(pairs)

    @cached_property
    def _arf_terms(self) -> tuple[tuple[int, tuple[int, ...], int, tuple[int, ...]], ...]:
        """For each pair (a, b) of basis_masks: parity(a & U a), the set bits
        of a, then the same for b.  q(v) is that parity plus the basis
        values at those bits (see QuadraticRefinement.eval_mask)."""
        def term(v):
            return ((v & self.upper(v)).bit_count() & 1,
                    tuple(i for i in range(self.dim) if v >> i & 1))
        return tuple(term(a) + term(b) for a, b in self.basis_masks)


def standard_space(k: int) -> SymplecticSpaceF2:
    """Hyperbolic space of dimension 2k: Gram is 2x2 antidiagonal blocks."""
    if k < 1:
        raise UnsupportedSizeError(f"k = {k} must be positive")
    n = 2 * k
    gram = [[0] * n for _ in range(n)]
    for i in range(k):
        gram[2 * i][2 * i + 1] = 1
        gram[2 * i + 1][2 * i] = 1
    return SymplecticSpaceF2(tuple(tuple(row) for row in gram))


class QuadraticRefinement(_Value):
    """Quadratic refinement of a space's pairing, determined by its basis values."""

    _fields = ("space", "basis_values")

    def __init__(self, space: SymplecticSpaceF2, basis_values: tuple[int, ...]):
        if len(basis_values) != space.dim:
            raise DimensionMismatchError("basis_values length != dimension")
        for b in basis_values:
            if b not in (0, 1):
                raise ValueError("basis values must be 0 or 1")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "basis_values", basis_values)

    @classmethod
    def _trusted(cls, space: SymplecticSpaceF2,
                 basis_values: tuple[int, ...]) -> "QuadraticRefinement":
        q = object.__new__(cls)
        fields = q.__dict__
        fields["space"] = space
        fields["basis_values"] = basis_values
        return q

    @cached_property
    def value_table(self) -> tuple[int, ...]:
        # q(v + e_i) = q(v) + q(e_i) + <v, e_i>, doubling over i in mask order.
        table = [0]
        for b, row in zip(self.basis_values, self.space.row_masks):
            table += [t ^ b ^ ((row & m).bit_count() & 1) for m, t in enumerate(table)]
        return tuple(table)

    def eval_mask(self, mask: int) -> int:
        """q(v) = v^T U v plus the sum of q(e_i) over i in v; no value table."""
        self.space._check_mask(mask)
        total = (mask & self.space.upper(mask)).bit_count()
        values = self.basis_values
        while mask:
            low = mask & -mask
            total += values[low.bit_length() - 1]
            mask ^= low
        return total & 1


def arf(q: QuadraticRefinement) -> int:
    """Arf invariant: sum of q(a_i) q(b_i) over a symplectic basis.

    Each q(v) is the space's cached parity(v & U v) plus the basis values
    at the set bits of v, the closed form of `eval_mask`.
    """
    values = q.basis_values
    total = 0
    for qa, bits_a, qb, bits_b in q.space._arf_terms:
        for i in bits_a:
            qa ^= values[i]
        for i in bits_b:
            qb ^= values[i]
        total ^= qa & qb
    return total


def arf_by_majority(q: QuadraticRefinement) -> int:
    """Democratic definition: the value q takes on a strict majority of vectors.

    Independent of any basis choice; used to cross-check arf().
    """
    n = q.space.dim
    if n > 16:
        raise UnsupportedSizeError("majority count is exhaustive; dimension too large")
    ones = sum(q.value_table)
    half = 1 << (n - 1)
    if ones == half:
        raise DegenerateFormError("no majority value; pairing must be degenerate")
    return 1 if ones > half else 0


def all_refinements(space: SymplecticSpaceF2) -> list[QuadraticRefinement]:
    return [QuadraticRefinement(space, bits) for bits in product((0, 1), repeat=space.dim)]


class SpElement(_Value):
    """Element of the symplectic group of the standard space.

    Built from a square 0/1 matrix whose columns are the images of the
    standard basis vectors; the matrix acts on column vectors from the
    left.  Only the columns are kept, as bitmasks.

    The constructor and `from_columns` check the shape and entries only;
    whether the element preserves a form is checked by `transport`.  The
    slot `_form`, which is not a field, memoizes that check: the Gram row
    masks of a form the element is known to preserve, or None.  Equality,
    hash and repr ignore it, and copy and pickle bring it back as None.
    """

    __slots__ = ("columns", "_form")
    _fields = ("columns",)

    def __init__(self, matrix: tuple[tuple[int, ...], ...]):
        n = len(matrix)
        if any(len(row) != n or any(e not in (0, 1) for e in row) for row in matrix):
            raise ValueError("matrix must be square with 0/1 entries")
        _set_columns(self, tuple(sum(matrix[i][j] << i for i in range(n)) for j in range(n)))
        _set_form(self, None)

    @classmethod
    def _trusted(cls, columns: tuple[int, ...],
                 form: tuple[int, ...] | None = None) -> "SpElement":
        s = object.__new__(cls)
        _set_columns(s, columns)
        _set_form(s, form)
        return s

    @classmethod
    def from_columns(cls, columns: tuple[int, ...]) -> "SpElement":
        """The element whose column j is the mask columns[j], an int below 2^n."""
        columns = tuple(columns)
        top = (1 << len(columns)) - 1
        for c in columns:
            if not isinstance(c, int) or not 0 <= c <= top:
                raise DimensionMismatchError(f"column {c!r} is not a mask in 0..{top}")
        return cls._trusted(columns)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple((c >> i) & 1 for c in self.columns) for i in range(self.dim))

    @property
    def dim(self) -> int:
        return len(self.columns)

    def apply_mask(self, v: int) -> int:
        out = 0
        for c in self.columns:
            if v & 1:
                out ^= c
            v >>= 1
        return out

    def __mul__(self, other: "SpElement") -> "SpElement":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix dimensions differ")
        form = self._form
        return SpElement._trusted(tuple(self.apply_mask(c) for c in other.columns),
                                  form if form == other._form else None)


_set_columns, _set_form = SpElement.columns.__set__, SpElement._form.__set__


def _preserves_form(columns, space: SymplecticSpaceF2) -> bool:
    """S^T J S = J, one J-image per column: <S e_a, S e_b> = J[a][b].

    Both sides are alternating, so the pairs a < b decide it.
    """
    image, rows = space.image, space.row_masks
    for b, cb in enumerate(columns):
        jb = image(cb)
        want = rows[b]
        for a in range(b):
            if ((columns[a] & jb).bit_count() ^ (want >> a)) & 1:
                return False
    return True


def is_symplectic(mat: tuple[tuple[int, ...], ...], space: SymplecticSpaceF2) -> bool:
    """Check S^T J S = J over GF(2); False unless S is n x n with 0/1 entries."""
    n = space.dim
    if len(mat) != n:
        return False
    for row in mat:
        if len(row) != n:
            return False
        for e in row:
            if e not in (0, 1):
                return False
    return _preserves_form([sum(mat[i][j] << i for i in range(n)) for j in range(n)], space)


def enumerate_sp(k: int) -> list[SpElement]:
    """All elements of Sp(2k, 2) for the standard space, sorted, each exactly once.

    Elements are enumerated by extending symplectic bases: pick the image
    of a_1 (any nonzero vector), the image of b_1 (pairing 1 with it),
    then recurse inside the simultaneous annihilator.  Orders: 6 at k=1,
    720 at k=2, 1451520 at k=3.  The order is that of the matrices, row
    by row.
    """
    if not 1 <= k <= 3:
        raise UnsupportedSizeError(f"k = {k} outside supported range 1..3")
    space = standard_space(k)
    n = 2 * k
    size = 1 << n
    # bitset over vector indices: bit v of ortho[u] says <u, v> = 0
    ortho = [0] * size
    for u in range(size):
        ju = space.image(u)
        for v in range(size):
            if not (v & ju).bit_count() & 1:
                ortho[u] |= 1 << v
    full = (1 << size) - 1
    # sort key: matrix entry (i, j) at bit (n-1-i)*n + (n-1-j), so integer
    # order is the row-by-row order of the matrices; spread[c] is column c
    # placed at j = n-1, and column j is shifted n-1-j further
    spread = [sum(((c >> i) & 1) << (n - 1 - i) * n for i in range(n)) for c in range(size)]

    out: list[tuple[int, tuple[int, ...]]] = []
    cols: list[int] = []

    def iter_bits(bitset: int):
        while bitset:
            low = bitset & -bitset
            yield low.bit_length() - 1
            bitset ^= low

    def extend(candidates: int, key: int):
        j = len(cols)
        if j == n:
            out.append((key, tuple(cols)))
            return
        for a in iter_bits(candidates & ~1):  # nonzero vectors only
            partners = candidates & ~ortho[a]
            rest_a = candidates & ortho[a]
            key_a = key | spread[a] << (n - 1 - j)
            cols.append(a)
            for b in iter_bits(partners):
                cols.append(b)
                extend(rest_a & ortho[b], key_a | spread[b] << (n - 2 - j))
                cols.pop()
            cols.pop()

    extend(full, 0)
    out.sort()
    form = space.row_masks
    return [SpElement._trusted(c, form) for _, c in out]


def sp_order(k: int) -> int:
    n = 1
    for i in range(1, k + 1):
        n *= ((1 << (2 * i)) - 1) * (1 << (2 * i - 1))
    return n


def transport(q: QuadraticRefinement, s: SpElement) -> QuadraticRefinement:
    """Pull back a refinement along a symplectic matrix: q'(v) = q(S v).

    The element must preserve q's form.  That is checked in full unless
    the element's memo already names the form, and recorded after a pass.
    """
    space, columns = q.space, s.columns
    if len(columns) != space.dim:
        raise DimensionMismatchError("matrix does not match refinement dimension")
    form = space.row_masks
    if s._form != form:
        if not _preserves_form(columns, space):
            raise ValueError("matrix does not preserve the pairing")
        _set_form(s, form)
    return QuadraticRefinement._trusted(space, tuple(map(q.value_table.__getitem__, columns)))


def _require_standard(q: QuadraticRefinement, what: str, max_dim: int) -> int:
    if q.space.dim > max_dim:
        raise UnsupportedSizeError(f"{what} enumeration capped at dimension {max_dim}")
    k = q.space.dim // 2
    if q.space.gram != standard_space(k).gram:
        raise ValueError(f"{what} enumeration expects the standard space")
    return k


def stabilizer(q: QuadraticRefinement) -> list[SpElement]:
    """All symplectic matrices with q(S v) = q(v) for every v.  Dimension <= 6."""
    k = _require_standard(q, "stabilizer", 6)
    return [s for s in enumerate_sp(k) if transport(q, s).basis_values == q.basis_values]


def _transvection(space: SymplecticSpaceF2, w: int) -> SpElement:
    """The symplectic map v -> v + <v, w> w."""
    jw = space.image(w)
    return SpElement._trusted(tuple((1 << j) ^ (w if (jw >> j) & 1 else 0)
                                    for j in range(space.dim)), space.row_masks)


def orbit(q: QuadraticRefinement) -> list[QuadraticRefinement]:
    """Distinct transports of q under the full symplectic group, sorted.

    Breadth-first search over the transvections along w = a_i, b_i and
    a_i + a_{i+1}, which generate Sp(2k, 2); those along the a_i and b_i
    alone generate only Sp(2, 2)^k.  Dimension <= 10.
    """
    k = _require_standard(q, "orbit", 10)
    axes = [1 << i for i in range(2 * k)] + [0b101 << 2 * i for i in range(k - 1)]
    moves = [_transvection(q.space, w) for w in axes]
    seen = {q.basis_values: q}
    frontier = [q]
    while frontier:
        reached = []
        for p in frontier:
            for s in moves:
                t = transport(p, s)
                if t.basis_values not in seen:
                    seen[t.basis_values] = t
                    reached.append(t)
        frontier = reached
    return [seen[bv] for bv in sorted(seen)]
