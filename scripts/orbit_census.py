#!/usr/bin/env python3
"""Census of quadratic refinements under the symplectic group.

For each k, splits all 2^(2k) refinements of the standard space into
orbits and reports Arf values, orbit sizes and stabilizer orders, and
checks that the Arf 0 and Arf 1 classes are single orbits of sizes
2^(2k-1) + 2^(k-1) and 2^(2k-1) - 2^(k-1).  Orbits come from the
transvection search, so they need no enumeration of the group.

Sp(2k,2) is enumerated only for k <= 3 (1451520 elements at k = 3).
Stabilizers are enumerated for k <= 3 (40320 and 51840 elements at
k = 3); from k = 4 on the stabilizer order is derived as
|Sp(2k,2)| / |orbit| and labelled as such.

Usage:
    python3 scripts/orbit_census.py [--max-k 2]    # up to 5
"""

import argparse
import sys
import time

from extmcg import f2_forms as ff


def census(k) -> bool:
    space = ff.standard_space(k)
    if k <= 3:
        t0 = time.time()
        sp = ff.enumerate_sp(k)
        print(f"k = {k}: |Sp({2 * k},2)| = {len(sp)} "
              f"({time.time() - t0:.2f}s, formula {ff.sp_order(k)})")
        del sp
    else:
        print(f"k = {k}: |Sp({2 * k},2)| = {ff.sp_order(k)} (formula, not enumerated)")
    seen = set()
    sizes = {}
    for q in ff.all_refinements(space):
        if q.basis_values in seen:
            continue
        orb = ff.orbit(q)
        seen.update(t.basis_values for t in orb)
        value = ff.arf(q)
        sizes.setdefault(value, []).append(len(orb))
        if k <= 3:
            stab, how = len(ff.stabilizer(q)), ""
        else:
            stab, how = ff.sp_order(k) // len(orb), " (derived)"
        print(f"  arf {value}: orbit {len(orb):3d} x stabilizer "
              f"{stab:4d}{how} = {len(orb) * stab}")
    want = {0: [2 ** (2 * k - 1) + 2 ** (k - 1)], 1: [2 ** (2 * k - 1) - 2 ** (k - 1)]}
    if sizes != want:
        print(f"census mismatch at k = {k}: orbit sizes by Arf {sizes}, want {want}",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-k", type=int, default=2, choices=(1, 2, 3, 4, 5))
    args = ap.parse_args()
    ok = True
    for k in range(1, args.max_k + 1):
        ok = census(k) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
