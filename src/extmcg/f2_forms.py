"""Symplectic vector spaces over GF(2) and quadratic refinements.

A quadratic refinement of the intersection pairing assigns a bit q(v) to
every vector so that q(x + y) = q(x) + q(y) + <x, y> mod 2.  The Arf
invariant sorts refinements into two classes; it is computed here both
from a symplectic basis and by exhaustive majority vote, and the two
routes are kept separate on purpose so each can check the other.

Vectors are bitmask integers (bit i = coordinate i); matrices and basis
values are exposed as plain 0/1 tuples.  A vector of a 2k-dimensional
space is a mask m with 0 <= m < 2^(2k): `pair_masks`, `eval_mask`,
`apply_mask`, `image` and `upper` raise DimensionMismatchError for any
other, while `_image` and `_upper`, which the hot loops call on masks
they built or checked, do not check.  A space pairs masks through its
Gram image, <u, v> = parity(u & J v), and splits off its symplectic
basis once.  A symplectic matrix keeps only its columns as bitmasks
(column j is the image of basis vector j).  Every GF(2)
matrix is applied by one routine, `_apply`: the XOR of its column masks
over the set bits of the vector.

A refinement is evaluated in closed form, q(v) = v^T U v plus the sum of
q(e_i) over i in v, with U the strict upper triangle of the Gram matrix;
`_apply` gives both U v and that sum.  The Arf invariant by basis reads
that form from data the space caches once: parity(v & U v) for each
symplectic basis vector v.  Per refinement it then
adds up basis values only, and builds no table.  Every other reader
evaluates q everywhere, through the value bitset: one int whose bit v
holds q(v), doubled once per refinement, one shift and XOR per
coordinate with two bitsets the space caches per coordinate.  The
majority vote counts its bits, `stabilizer` restricts the basis search
with it, and the quadratic-identity and Arf-invariance kernels of
`verify` read it whole.  The public `value_table` unpacks it once into
0/1 entries, which `_pull_back` indexes by column for `transport` and
`orbit`, reusing the table across the many elements it is called with.
The two Arf routes therefore share no code for evaluating q.

Validation happens once, at the boundary.  The public constructors and
`from_columns` check their input.  What the library builds from checked
values, such as the refinement `transport` returns, a product and the
elements of the basis search, is made by `_trusted` without a second
check.  An SpElement is only its columns and names no form, so
`transport` checks on every call that its element preserves q's form,
then pulls q back through `_pull_back`.  `orbit` calls `_pull_back`
directly on the columns of the transvections it builds itself.

Orbits of refinements are found by breadth-first search over 3k - 1
transvections that generate Sp(2k, 2), without enumerating the group, up
to dimension 10.  Stabilizers restrict the search that enumerates
Sp(2k, 2) to columns S e_j with q(S e_j) = q(e_j), which make q o S = q;
both stop at dimension 6.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import UnsupportedSizeError, _Value


_BITS = bytes.maketrans(b"01", b"\0\1")


def _all_bits(values) -> bool:
    """Every entry is a plain int 0 or 1: no bool, no float equal to one.
    Both tests run in C; the second only sees ints, which hash."""
    return {*map(type, values)} <= {int} and {*values} <= {0, 1}


class DegenerateFormError(ValueError):
    """Gram matrix is not a nondegenerate alternating form."""


class DimensionMismatchError(ValueError):
    pass


def _check_mask(mask: int, dim: int) -> None:
    """Raise DimensionMismatchError unless 0 <= mask < 2^dim."""
    if not 0 <= mask < 1 << dim:
        raise DimensionMismatchError(
            f"mask {mask} outside 0..{(1 << dim) - 1} for dimension {dim}")


def _apply(columns, v: int) -> int:
    """The matrix with these column masks applied to the mask v: the XOR of
    columns[i] over the set bits i of v."""
    out = 0
    while v:
        low = v & -v
        out ^= columns[low.bit_length() - 1]
        v ^= low
    return out


class SymplecticSpaceF2(_Value):
    """Even-dimensional GF(2) space with a nondegenerate alternating Gram matrix."""

    _fields = ("gram",)

    def __new__(cls, gram: tuple[tuple[int, ...], ...]):
        # a Gram matrix or row without a length raises TypeError here
        try:
            n = len(gram)
            if n == 0 or n % 2:
                raise DegenerateFormError(f"dimension {n} is not even and positive")
            square = all(len(row) == n and _all_bits(row) for row in gram)
        except TypeError:
            square = False
        if not square:
            raise DegenerateFormError("Gram matrix must be square over {0,1}")
        for i in range(n):
            if gram[i][i]:
                raise DegenerateFormError(f"Gram diagonal entry ({i},{i}) is nonzero")
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise DegenerateFormError("Gram matrix is not symmetric")
        space = cls._trusted(tuple(map(tuple, gram)))
        space.basis_masks  # raises DegenerateFormError unless nondegenerate
        return space

    @cached_property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        return tuple(sum(e << j for j, e in enumerate(row)) for row in self.gram)

    @cached_property
    def _upper_columns(self) -> tuple[int, ...]:
        # column j of the strict upper triangle: the rows i < j with G_ij = 1
        return tuple(r & ((1 << j) - 1) for j, r in enumerate(self.row_masks))

    def image(self, v: int) -> int:
        """J v, the mask with <u, v> = parity(u & J v) for every u; J = J^T."""
        _check_mask(v, self.dim)
        return self._image(v)

    def _image(self, v: int) -> int:
        # `image` for a mask the caller has checked or built itself
        return _apply(self.row_masks, v)

    def upper(self, v: int) -> int:
        """U v for U the strict upper triangle of the Gram matrix, so that
        parity(v & U v) is the sum of <e_i, e_j> over pairs i < j in v."""
        _check_mask(v, self.dim)
        return self._upper(v)

    def _upper(self, v: int) -> int:
        # `upper` for a mask the caller has checked or built itself
        return _apply(self._upper_columns, v)

    def pair_masks(self, u: int, v: int) -> int:
        _check_mask(u, self.dim)
        _check_mask(v, self.dim)
        return (u & self._image(v)).bit_count() & 1

    @cached_property
    def basis_masks(self) -> tuple[tuple[int, int], ...]:
        """Hyperbolic pairs (a_i, b_i) as masks, split off once per space.

        Greedy Gram-Schmidt: take the first vector a of the pool, the first
        b pairing 1 with it, and project the rest of the pool onto the
        complement of <a, b>.  The projections stay a basis of that
        complement, so the search succeeds exactly when the form is
        nondegenerate: a vector pairing trivially with the rest of the
        pool lies in the radical.
        """
        pool = [1 << i for i in range(self.dim)]
        pairs: list[tuple[int, int]] = []
        while pool:
            a = pool.pop(0)
            ja = self._image(a)
            b = next((v for v in pool if (v & ja).bit_count() & 1), None)
            if b is None:
                raise DegenerateFormError("Gram matrix is singular over GF(2)")
            pool.remove(b)
            jb = self._image(b)
            pool = [v ^ (a if (v & jb).bit_count() & 1 else 0)
                    ^ (b if (v & ja).bit_count() & 1 else 0) for v in pool]
            pairs.append((a, b))
        return tuple(pairs)

    @cached_property
    def _doubling(self) -> tuple[tuple[int, int], ...]:
        """For each i, two bitsets over the vectors m < 2^i (bit m for m):
        all of them, and those with <m, e_i> = 1.  Each is grown one
        coordinate j at a time: m + 2^j pairs with e_i as m does, plus G_ij."""
        steps = []
        for i, row in enumerate(self.row_masks):
            odd = 0
            for j in range(i):
                odd |= (odd ^ (steps[j][0] if row >> j & 1 else 0)) << (1 << j)
            steps.append(((1 << (1 << i)) - 1, odd))
        return tuple(steps)

    @cached_property
    def _arf_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """For each pair (a, b) of basis_masks: parity(a & U a), a, then the
        same for b.  q(v) is that parity plus the basis values at the set
        bits of v (see QuadraticRefinement.eval_mask)."""
        def term(v):
            return (v & self._upper(v)).bit_count() & 1, v
        return tuple(term(a) + term(b) for a, b in self.basis_masks)


# `standard_space` builds a 2k x 2k Gram matrix, so a larger k is refused
# before anything is built
MAX_STANDARD_K = 64


def standard_space(k: int) -> SymplecticSpaceF2:
    """Hyperbolic space of dimension 2k: Gram is 2x2 antidiagonal blocks."""
    if k < 1:
        raise UnsupportedSizeError(f"k = {k} must be positive")
    if k > MAX_STANDARD_K:
        raise UnsupportedSizeError(f"k = {k} exceeds the cap of {MAX_STANDARD_K}")
    n = 2 * k
    gram = [[0] * n for _ in range(n)]
    for i in range(k):
        gram[2 * i][2 * i + 1] = 1
        gram[2 * i + 1][2 * i] = 1
    return SymplecticSpaceF2(gram)


class QuadraticRefinement(_Value):
    """Quadratic refinement of a space's pairing, determined by its basis values."""

    _fields = ("space", "basis_values")

    def __new__(cls, space: SymplecticSpaceF2, basis_values: tuple[int, ...]):
        # basis values without a length raise TypeError here
        try:
            fits = len(basis_values) == space.dim
        except TypeError:
            fits = False
        if not fits:
            raise DimensionMismatchError("basis_values length != dimension")
        if not _all_bits(basis_values):
            raise ValueError("basis values must be 0 or 1")
        return cls._trusted(space, tuple(basis_values))

    @classmethod
    def _trusted(cls, space: SymplecticSpaceF2,
                 basis_values: tuple[int, ...]) -> "QuadraticRefinement":
        q = object.__new__(cls)
        fields = q.__dict__
        fields["space"] = space
        fields["basis_values"] = basis_values
        return q

    @cached_property
    def _value_bits(self) -> int:
        """The value bitset: bit v holds q(v), for every vector v."""
        # q(v + e_i) = q(v) + q(e_i) + <v, e_i>: step i fills v in
        # [2^i, 2^(i+1)) from v - 2^i in one XOR
        bits = 0
        for i, (b, (below, odd)) in enumerate(zip(self.basis_values, self.space._doubling)):
            bits |= (bits ^ odd ^ (below if b else 0)) << (1 << i)
        return bits

    @cached_property
    def value_table(self) -> tuple[int, ...]:
        """q(v) at index v, for every vector v: the value bitset unpacked."""
        return tuple(f"{self._value_bits:0{1 << self.space.dim}b}"[::-1].encode().translate(_BITS))

    def eval_mask(self, mask: int) -> int:
        """q(v) = v^T U v plus the sum of q(e_i) over i in v; no value table."""
        _check_mask(mask, self.space.dim)
        total = (mask & self.space._upper(mask)).bit_count() ^ _apply(self.basis_values, mask)
        return total & 1


def arf(q: QuadraticRefinement) -> int:
    """Arf invariant: sum of q(a_i) q(b_i) over a symplectic basis.

    Each q(v) is the space's cached parity(v & U v) plus the basis values
    at the set bits of v, the closed form of `eval_mask`.
    """
    values = q.basis_values
    total = 0
    for qa, a, qb, b in q.space._arf_terms:
        total ^= (qa ^ _apply(values, a)) & (qb ^ _apply(values, b))
    return total


def arf_by_majority(q: QuadraticRefinement) -> int:
    """Democratic definition: the value q takes on a strict majority of vectors.

    Independent of any basis choice; used to cross-check arf().
    """
    n = q.space.dim
    if n > 16:
        raise UnsupportedSizeError("majority count is exhaustive; dimension too large")
    # q is 1 on 2^(2k-1) +- 2^(k-1) of the 2^(2k) vectors (n = 2k), never on half
    return 1 if q._value_bits.bit_count() > 1 << (n - 1) else 0


def all_refinements(space: SymplecticSpaceF2) -> list[QuadraticRefinement]:
    return [QuadraticRefinement(space, bits) for bits in product((0, 1), repeat=space.dim)]


class SpElement(_Value):
    """Element of the symplectic group of the standard space.

    Built from a square 0/1 matrix whose columns are the images of the
    standard basis vectors; the matrix acts on column vectors from the
    left.  Only the columns are kept, as bitmasks.

    The constructor and `from_columns` check the shape and entries only;
    whether the element preserves a form is checked by `transport`.
    """

    __slots__ = _fields = ("columns",)

    def __new__(cls, matrix: tuple[tuple[int, ...], ...]):
        # a matrix or row without a length raises TypeError here
        try:
            n = len(matrix)
            square = all(len(row) == n and _all_bits(row) for row in matrix)
        except TypeError:
            square = False
        if not square:
            raise ValueError("matrix must be square with 0/1 entries")
        return cls._trusted(tuple(sum(matrix[i][j] << i for i in range(n)) for j in range(n)))

    @classmethod
    def _trusted(cls, columns: tuple[int, ...]) -> "SpElement":
        s = object.__new__(cls)
        _set_columns(s, columns)
        return s

    @classmethod
    def from_columns(cls, columns: tuple[int, ...]) -> "SpElement":
        """The element whose column j is the mask columns[j], an int below 2^n."""
        try:
            columns = tuple(columns)
        except TypeError:
            raise DimensionMismatchError(f"columns {columns!r} are not a mask sequence") from None
        top = (1 << len(columns)) - 1
        for c in columns:
            if type(c) is not int or not 0 <= c <= top:
                raise DimensionMismatchError(f"column {c!r} is not a mask in 0..{top}")
        return cls._trusted(columns)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        cols = self.columns
        return tuple(tuple([(c >> i) & 1 for c in cols]) for i in range(len(cols)))

    @property
    def dim(self) -> int:
        return len(self.columns)

    def apply_mask(self, v: int) -> int:
        """S v, for a mask 0 <= v < 2^n."""
        _check_mask(v, len(self.columns))
        return _apply(self.columns, v)

    def __mul__(self, other: "SpElement") -> "SpElement":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix dimensions differ")
        return SpElement._trusted(tuple([_apply(self.columns, c) for c in other.columns]))


_set_columns = SpElement.columns.__set__


def _preserves_form(columns, space: SymplecticSpaceF2) -> bool:
    """S^T J S = J, one J-image per column: <S e_a, S e_b> = J[a][b].

    Both sides are alternating, so the pairs a < b decide it.
    """
    image, rows = space._image, space.row_masks
    for b, cb in enumerate(columns):
        jb = image(cb)
        want = rows[b]
        for a in range(b):
            if ((columns[a] & jb).bit_count() ^ (want >> a)) & 1:
                return False
    return True


def is_symplectic(mat: tuple[tuple[int, ...], ...], space: SymplecticSpaceF2) -> bool:
    """Check S^T J S = J over GF(2); False unless S is n x n with int 0/1 entries."""
    try:
        columns = SpElement(mat).columns
    except ValueError:
        return False
    return len(columns) == space.dim and _preserves_form(columns, space)


def _extend_bases(space: SymplecticSpaceF2, want) -> list[SpElement]:
    """The symplectic maps of the standard space with column j in the vector
    bitset want[j], sorted by matrix rows, each exactly once.

    Symplectic bases are extended: pick the image of a_1 (nonzero), the image
    of b_1 (pairing 1 with it), then recurse inside their annihilator.
    """
    n = space.dim
    size = 1 << n
    # bitset over vector indices: bit v of ortho[u] says <u, v> = 0
    ortho = [0] * size
    for u in range(size):
        ju = space._image(u)
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
        for a in iter_bits(candidates & want[j] & ~1):  # nonzero vectors only
            partners = candidates & ~ortho[a] & want[j + 1]
            rest_a = candidates & ortho[a]
            key_a = key | spread[a] << (n - 1 - j)
            cols.append(a)
            for b in iter_bits(partners):
                cols.append(b)
                extend(rest_a & ortho[b], key_a | spread[b] << (n - 2 - j))
                cols.pop()
            cols.pop()

    extend(full, 0)
    del extend  # it names itself: break the cycle that would keep `out`
    out.sort()
    return [SpElement._trusted(c) for _, c in out]


def enumerate_sp(k: int) -> list[SpElement]:
    """All elements of Sp(2k, 2) for the standard space, sorted, each exactly once."""
    if not 1 <= k <= 3:
        raise UnsupportedSizeError(f"k = {k} outside supported range 1..3")
    return _extend_bases(standard_space(k), (-1,) * (2 * k))


def sp_order(k: int) -> int:
    n = 1
    for i in range(1, k + 1):
        n *= ((1 << (2 * i)) - 1) * (1 << (2 * i - 1))
    return n


def transport(q: QuadraticRefinement, s: SpElement) -> QuadraticRefinement:
    """Pull back a refinement along a symplectic matrix: q'(v) = q(S v).

    The element must preserve q's form; that is checked in full on every
    call, whatever built the element.
    """
    columns = s.columns
    if len(columns) != q.space.dim:
        raise DimensionMismatchError("matrix does not match refinement dimension")
    if not _preserves_form(columns, q.space):
        raise ValueError("matrix does not preserve the pairing")
    return _pull_back(q, columns)


def _pull_back(q: QuadraticRefinement, columns: tuple[int, ...]) -> QuadraticRefinement:
    """q o S for the columns of an S known to preserve q's form."""
    return QuadraticRefinement._trusted(q.space, tuple(map(q.value_table.__getitem__, columns)))


def _require_standard(q: QuadraticRefinement, what: str, max_dim: int) -> int:
    if q.space.dim > max_dim:
        raise UnsupportedSizeError(f"{what} enumeration capped at dimension {max_dim}")
    k = q.space.dim // 2
    if q.space.gram != standard_space(k).gram:
        raise ValueError(f"{what} enumeration expects the standard space")
    return k


def stabilizer(q: QuadraticRefinement) -> list[SpElement]:
    """All symplectic matrices with q(S v) = q(v) for every v.  Dimension <= 6."""
    _require_standard(q, "stabilizer", 6)
    ones = q._value_bits
    return _extend_bases(q.space, [ones if b else ~ones for b in q.basis_values])


def _transvection(space: SymplecticSpaceF2, w: int) -> tuple[int, ...]:
    """The columns of the symplectic map v -> v + <v, w> w."""
    jw = space._image(w)
    return tuple((1 << j) ^ (w if (jw >> j) & 1 else 0) for j in range(space.dim))


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
            for cols in moves:
                t = _pull_back(p, cols)
                if t.basis_values not in seen:
                    seen[t.basis_values] = t
                    reached.append(t)
        frontier = reached
    return [seen[bv] for bv in sorted(seen)]
