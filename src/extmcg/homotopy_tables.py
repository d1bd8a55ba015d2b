"""Stable and near-stable homotopy of the rotation groups, as lookup tables.

Only the handful of rows the classification needs are encoded: the
image-of-stabilization groups SPi_p(SO(p)) by residue of p mod 8 (with the
single exceptional value at p = 6), the unstable rows pi_p(SO(p+1)) and
pi_p(SO(p+2)) for even p, and one isolated entry, the kernel term of the
adjacent-dimension family.  Only `verify.check_homotopy_tables` and the
tests read them: `classify` calls none of them, and the adjacent-product
row of `classifier._CASES` cites `so-tables` instead.  Out-of-domain
queries raise OutOfDomainError rather than extrapolate.
"""

from __future__ import annotations

from .smallgrp import FinAbGroup


class OutOfDomainError(ValueError):
    pass


TRIVIAL = FinAbGroup(0, ())
Z = FinAbGroup(1, ())
Z2 = FinAbGroup(0, (2,))
Z2_Z2 = FinAbGroup(0, (2, 2))


def _require_int(name: str, value) -> None:
    # bool is an int subclass, and 7.0 would read the row of 7
    if type(value) is not int:
        raise OutOfDomainError(f"{name} = {value!r} must be an int")


# image of pi_p(SO(p)) in pi_p(SO(p+1)), by p mod 8 (generic rows)
_S_PI_BY_RESIDUE = {
    0: Z2_Z2,
    1: Z2,
    2: Z2,
    3: Z,
    4: Z2,
    5: TRIVIAL,
    6: Z2,
    7: Z,
}


def s_pi_p_so_p(p: int) -> FinAbGroup:
    """SPi_p(SO(p)) for p >= 3; the lone exception is p = 6, which is trivial."""
    _require_int("p", p)
    if p < 3:
        raise OutOfDomainError(f"p = {p} is below the tabulated range (p >= 3)")
    if p == 6:
        return TRIVIAL
    return _S_PI_BY_RESIDUE[p % 8]


def pi_p_so_p_plus(p: int, shift: int) -> FinAbGroup:
    """pi_p(SO(p + shift)) for even p >= 4 and shift in {1, 2}."""
    _require_int("p", p)
    _require_int("shift", shift)
    if p < 4 or p % 2:
        raise OutOfDomainError(f"p = {p} must be even and at least 4")
    if shift == 1:
        return Z2_Z2 if p % 8 == 0 else Z2
    if shift == 2:
        return Z2 if p % 8 == 0 else TRIVIAL
    raise OutOfDomainError(f"shift = {shift} must be 1 or 2")


def pi_p_so_p_residue5(p: int) -> FinAbGroup:
    """pi_p(SO(p)) itself, tabulated only at p congruent to 5 mod 8, p >= 13.

    The kernel term for products of spheres in adjacent dimensions p-2,
    p-1 with p = 6 mod 8, where the index p - 1 lands on this residue;
    `classify` does not call it (see the module docstring).
    """
    _require_int("p", p)
    if p < 13 or p % 8 != 5:
        raise OutOfDomainError(f"p = {p} not tabulated (need p = 5 mod 8, p >= 13)")
    return Z2

