"""Lookup tables for rotation-group homotopy: every tabulated row, the
p = 6 exception, out-of-domain rejections and the FinAbGroup checks.
"""

import pytest

from extmcg import homotopy_tables as ht


def test_constants():
    assert (ht.TRIVIAL.free_rank, ht.TRIVIAL.torsion) == (0, ())
    assert (ht.Z.free_rank, ht.Z.torsion) == (1, ())
    assert (ht.Z2.free_rank, ht.Z2.torsion) == (0, (2,))
    assert (ht.Z2_Z2.free_rank, ht.Z2_Z2.torsion) == (0, (2, 2))


def test_validation():
    with pytest.raises(ValueError):
        ht.FinAbGroup(-1, ())
    with pytest.raises(ValueError):
        ht.FinAbGroup(0, (1,))
    with pytest.raises(ValueError):
        ht.FinAbGroup(0, (2, 3))  # 2 does not divide 3


RESIDUE_TABLE = {0: ht.Z2_Z2, 1: ht.Z2, 2: ht.Z2, 3: ht.Z,
                 4: ht.Z2, 5: ht.TRIVIAL, 6: ht.Z2, 7: ht.Z}


@pytest.mark.parametrize("p", range(3, 35))
def test_s_pi_table(p):
    want = ht.TRIVIAL if p == 6 else RESIDUE_TABLE[p % 8]
    assert ht.s_pi_p_so_p(p) == want


def test_s_pi_exceptional_value():
    # p = 6 sits on residue 6 which generically gives Z2, but the entry
    # is trivial there
    assert ht.s_pi_p_so_p(6) == ht.TRIVIAL
    assert ht.s_pi_p_so_p(14) == ht.Z2


@pytest.mark.parametrize("p", range(4, 35, 2))
def test_pi_plus_table(p):
    assert ht.pi_p_so_p_plus(p, 1) == (ht.Z2_Z2 if p % 8 == 0 else ht.Z2)
    assert ht.pi_p_so_p_plus(p, 2) == (ht.Z2 if p % 8 == 0 else ht.TRIVIAL)


def test_residue5_entry():
    for p in (13, 21, 29):
        assert ht.pi_p_so_p_residue5(p) == ht.Z2


@pytest.mark.parametrize("call", [
    lambda: ht.s_pi_p_so_p(2),
    lambda: ht.s_pi_p_so_p(0),
    lambda: ht.pi_p_so_p_plus(5, 1),
    lambda: ht.pi_p_so_p_plus(2, 1),
    lambda: ht.pi_p_so_p_plus(4, 3),
    lambda: ht.pi_p_so_p_residue5(12),
    lambda: ht.pi_p_so_p_residue5(5),
])
def test_out_of_domain(call):
    with pytest.raises(ht.OutOfDomainError):
        call()

