"""Signed permutation matrices for rotations of a sphere around an
embedded product of spheres.

Coordinates 0..p+q+2 split as x0 | a-block (1..p+1) | b-block (p+2..p+q+2);
a point of the product is (a, b) with |a| = |b| = 1.  Matrices act on row
vectors by right multiplication, so image[i] = (column, sign) says
coordinate i is sent to the given column with the given sign.  R denotes
a single-coordinate reflection, so e.g. (a, b) -> (R(b), a) means the
blocks swap and the incoming first coordinate flips sign.

The degree of the sphere map each block performs equals the determinant
of its signed permutation block, which is what drives the induced action
on middle-dimensional homology: a 2x2 SignedPermMatrix in the basis of
the two factor cycles.
"""

from __future__ import annotations

import operator
from math import lcm

from . import smallgrp
from .errors import InvalidMatrixError, ParseError, UnsupportedSizeError, _Value


class NotBlockStructuredError(ValueError):
    """Matrix does not map the coordinate blocks to coordinate blocks."""


class BlockSizeError(ValueError):
    pass


class SignedPermMatrix(_Value):
    """Orthogonal matrix with one +-1 entry per row and column."""

    __slots__ = _fields = ("size", "image")  # image: row -> (column, sign)

    def __new__(cls, size: int, image: tuple[tuple[int, int], ...]):
        try:
            image = tuple(image)
        except TypeError:
            raise InvalidMatrixError(f"image {image!r} is not a sequence") from None
        if type(size) is not int or size < 1 or len(image) != size:
            raise InvalidMatrixError("image must list one (column, sign) per row")
        entries, cols = [], set()
        for entry in image:
            try:
                col, sign = entry
            except (TypeError, ValueError):
                raise InvalidMatrixError(f"bad image entry {entry!r}") from None
            if not (type(col) is type(sign) is int and 0 <= col < size and sign in (1, -1)):
                raise InvalidMatrixError(f"bad image entry ({col}, {sign})")
            cols.add(col)
            entries.append((col, sign))
        if len(cols) != size:
            raise InvalidMatrixError("two rows hit the same column")
        return cls._trusted(size, tuple(entries))

    def __mul__(self, other: "SignedPermMatrix") -> "SignedPermMatrix":
        """Matrix product self * other: on row vectors, self acts first."""
        if self.size != other.size:
            raise InvalidMatrixError("sizes differ")
        image = other.image
        return SignedPermMatrix._trusted(
            self.size, tuple([(image[col][0], sign * image[col][1]) for col, sign in self.image]))

    def _cycles(self):
        """(length, product of signs) for each cycle of the permutation."""
        seen = [False] * self.size
        for start in range(self.size):
            length, sign, j = 0, 1, start
            while not seen[j]:
                seen[j] = True
                j, s = self.image[j]
                length += 1
                sign *= s
            if length:
                yield length, sign

    def order(self) -> int:
        """A cycle of length L returns to itself times its sign product
        after L steps, so it has order L, or 2L when the signs multiply
        to -1."""
        return lcm(*(length if sign == 1 else 2 * length
                     for length, sign in self._cycles()))

    def determinant(self) -> int:
        """The product of all signs, negated for each even-length cycle."""
        det = 1
        for length, sign in self._cycles():
            det *= sign if length % 2 else -sign
        return det

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix, row by row."""
        return tuple(tuple(sign if j == col else 0 for j in range(self.size))
                     for col, sign in self.image)

    def to_json(self) -> dict:
        return {"size": self.size,
                "entries": [[i, col, sign] for i, (col, sign) in enumerate(self.image)]}

    @classmethod
    def from_json(cls, data: dict) -> "SignedPermMatrix":
        size, entries = data.get("size"), data.get("entries")
        # bool is an int subclass, so true/false would pass as 1/0
        if type(size) is not int or not isinstance(entries, list):
            raise ParseError("expected {\"size\": n, \"entries\": [[row, col, sign], ...]}")
        if len(entries) != size:
            raise InvalidMatrixError("entries must list each row exactly once")
        image = [None] * size
        for ent in entries:
            if (not isinstance(ent, list) or len(ent) != 3
                    or not all(type(x) is int for x in ent)):
                raise ParseError("each entry must be three integers [row, col, sign]")
            row, col, sign = ent
            if not 0 <= row < size or image[row] is not None:
                raise InvalidMatrixError(f"bad or repeated row in entry {ent!r}")
            image[row] = (col, sign)
        return cls(size, tuple(image))


def identity(size: int) -> SignedPermMatrix:
    return SignedPermMatrix(size, tuple((i, 1) for i in range(size)))


# the builders make one entry per coordinate, 2p + 3 or p + q + 3 of them,
# so a larger block dimension is refused before anything is built
MAX_BLOCK_DIM = 10_000


def _require_block_dim(d: int) -> None:
    if d > MAX_BLOCK_DIM:
        raise UnsupportedSizeError(f"block dimension {d} exceeds the cap of {MAX_BLOCK_DIM}")


def _swap(p: int, x0_sign: int, b_first_sign: int) -> SignedPermMatrix:
    """Size 2p+3: x0 scales by x0_sign, the a-block moves to the b-columns
    with sign +1, and the b-block moves to the a-columns with its first
    coordinate scaled by b_first_sign."""
    _require_block_dim(p)
    image = [(0, x0_sign)] + [(col, 1) for col in range(p + 2, 2 * p + 3)]
    image += [(1, b_first_sign)] + [(col, 1) for col in range(2, p + 2)]
    return SignedPermMatrix._trusted(2 * p + 3, tuple(image))


def build_omega(p: int) -> SignedPermMatrix:
    """Order-4 rotation of the (2p+2)-sphere restricting to (a, b) -> (R(b), a).

    x0 scales by (-1)^p and the incoming first b-coordinate is negated, so
    the determinant is +1 for every p.
    """
    if type(p) is not int or p < 1:
        raise BlockSizeError(f"p = {p} must be at least 1")
    return _swap(p, (-1) ** p, -1)


def build_omega_hat(p: int) -> SignedPermMatrix:
    """Involution of the (2p+2)-sphere restricting to the factor swap (a, b) -> (b, a).

    Needs even p: x0 is negated and the blocks swap with all signs +1,
    so the determinant is (-1)^p and only even p keeps it +1.
    """
    if type(p) is not int or p < 2 or p % 2:
        raise BlockSizeError(f"p = {p} must be even and at least 2")
    return _swap(p, -1, 1)


def build_omega_prime(p: int, q: int) -> SignedPermMatrix:
    """Diagonal involution of the (p+q+2)-sphere restricting to (a, b) -> (R(a), R(b)).

    Negates the first coordinate of each block; determinant +1.  Allows
    p = q (both blocks reflected at once) as well as p < q.
    """
    if not (type(p) is type(q) is int and 2 <= p <= q):
        raise BlockSizeError(f"need 2 <= p <= q, got p = {p}, q = {q}")
    _require_block_dim(q)
    return SignedPermMatrix._trusted(
        p + q + 3, tuple([(i, -1 if i in (1, p + 2) else 1) for i in range(p + q + 3)]))


class ProductMapDescriptor(_Value):
    """How a block-structured matrix moves the two sphere factors.

    first_block_det / second_block_det are the determinants of the signed
    permutation blocks feeding the first / second output factor; these are
    the degrees of the corresponding sphere maps.
    """

    __slots__ = _fields = ("block_sizes", "swaps_factors", "first_block_det",
                           "second_block_det")


def restrict_to_product(m: SignedPermMatrix, p: int, q: int) -> ProductMapDescriptor:
    """Split a signed permutation of the ambient coordinates into block data.

    Coordinate 0 must map to itself (up to sign) and each block must map
    entirely onto one block; anything else is not a symmetry of the
    embedded product and raises NotBlockStructuredError.
    """
    if not (type(p) is type(q) is int and p >= 1 and q >= 1):
        raise BlockSizeError(f"block dimensions must be positive ints, got {p!r} and {q!r}")
    if m.size != p + q + 3:
        raise BlockSizeError(f"matrix size {m.size} != p + q + 3 = {p + q + 3}")
    if m.image[0][0] != 0:
        raise NotBlockStructuredError("coordinate 0 does not map to itself")
    # no other row reaches column 0, so a row not landing in an a-column
    # lands in a b-column
    in_a = [col <= p + 1 for col, _ in m.image[1:]]
    swaps = not in_a[0]
    if in_a != [not swaps] * (p + 1) + [swaps] * (q + 1):
        raise NotBlockStructuredError("a block maps across block boundaries")

    def block_det(entries, col_base: int) -> int:
        sub = tuple([(col - col_base, sign) for col, sign in entries])
        return SignedPermMatrix._trusted(len(sub), sub).determinant()

    # the first factor's columns are fed by the b-rows when the blocks swap
    a_part, b_part = m.image[1:p + 2], m.image[p + 2:]
    into_a, into_b = (b_part, a_part) if swaps else (a_part, b_part)
    return ProductMapDescriptor((p + 1, q + 1), swaps, block_det(into_a, 1),
                                block_det(into_b, p + 2))


def induced_homology_action(desc: ProductMapDescriptor) -> SignedPermMatrix:
    """Action on the rank-2 middle homology of an equal-dimension product.

    A non-swapping map scales the two generating cycles by the block
    degrees; a swapping map exchanges them, weighted the same way.
    """
    if desc.block_sizes[0] != desc.block_sizes[1]:
        raise BlockSizeError("induced 2x2 action needs equal factor dimensions")
    d1, d2 = desc.first_block_det, desc.second_block_det
    if desc.swaps_factors:
        return SignedPermMatrix(2, ((1, d1), (0, d2)))
    return SignedPermMatrix(2, ((0, d1), (1, d2)))


def homology_group_closure(mats: list[SignedPermMatrix]) -> list[SignedPermMatrix]:
    """The group generated by 2x2 homology actions, sorted by rows; it has
    at most 8 elements, the order of the 2x2 signed permutations."""
    return sorted(smallgrp.generate(mats, operator.mul, identity(2)),
                  key=operator.attrgetter("rows"))
