"""Acceptance suite: one check per gating criterion, runnable from the
test suite (tests/test_acceptance.py) and from the command line
(`extmcg verify-all`).  Each check is self-contained, deterministic
(seeded randomness only) and reports a pass/fail line with the statement
tags it exercises.
"""

from __future__ import annotations

import functools
import random
from itertools import product

from . import ambient_geom, classifier, f2_forms, homotopy_tables, sl2z, smallgrp
from .errors import _Value


class CheckResult(_Value):
    __slots__ = _fields = ("name", "passed", "detail", "citations")

    def __init__(self, name: str, passed: bool, detail: str, citations: tuple[str, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "citations", citations)


def _check(name: str, *citations: str):
    """Decorate a check body that returns (passed, detail): the check
    reports under `name` with these statement tags, and a body that raises
    is reported under the same name as a failed result."""
    def decorate(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            try:
                passed, detail = body()
            except Exception as exc:  # report, never hide, a crashed check
                return CheckResult(name, False, f"raised {exc!r}", ())
            return CheckResult(name, bool(passed), detail, citations)
        return check
    return decorate


_T_EXPONENTS = tuple(e for e in range(-9, 10) if e)


def random_normal_word(rng: random.Random, max_tokens: int = 20) -> sl2z.GenWord:
    """Uniform-ish random normal-form word with up to max_tokens factors.

    Its letters come from a fixed valid alphabet, so it is built unchecked.
    """
    n = rng.randint(0, max_tokens)
    tokens = []
    gen = rng.choice(("V", "T"))
    for _ in range(n):
        if gen == "V":
            tokens.append(("V", 1))
        else:
            exp = rng.choice(_T_EXPONENTS)
            tokens.append(("T", exp))
        gen = "T" if gen == "V" else "V"
    return sl2z.GenWord._trusted(tuple(tokens), rng.choice((1, -1)))


@_check("membership-characterization", "mod2-membership", "arf-zero-standard")
def check_membership_and_stabilizer():
    """Parity membership test == mod-2 characterization, exhaustively on
    entries in [-5, 5]; stabilizer of the vanishing refinement in Sp(2,2)
    is exactly the two mod-2 classes."""
    span = range(-5, 6)
    tested = 0
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    if a * d - b * c != 1:
                        continue
                    m = sl2z.UniModMat2(a, b, c, d)
                    tested += 1
                    member = sl2z.is_member(m)
                    cls = sl2z.reduce_mod2(m)
                    if member != (cls in (sl2z.Mod2Class.ID, sl2z.Mod2Class.V)):
                        return False, f"mismatch at {m.rows}"
    q = f2_forms.QuadraticRefinement(f2_forms.standard_space(1), (0, 0))
    stab = sorted(s.matrix for s in f2_forms.stabilizer(q))
    want = [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    ok = stab == sorted(want)
    return ok, f"{tested} unimodular matrices checked; stabilizer {stab}"


@_check("symplectic-census", "sp-census")
def check_symplectic_census():
    """Sp(2,2) and Sp(4,2) orders, Arf class sizes, orbit and stabilizer
    orders, and the orbit-stabilizer products."""
    sp1 = f2_forms.enumerate_sp(1)
    sp2 = f2_forms.enumerate_sp(2)
    details = []
    ok = len(sp1) == 6 and len(sp2) == 720
    details.append(f"|Sp(2,2)| = {len(sp1)}, |Sp(4,2)| = {len(sp2)}")
    space = f2_forms.standard_space(2)
    if len({s.matrix for s in sp2}) != 720:
        ok = False
        details.append("duplicates in Sp(4,2)")
    if not all(f2_forms.is_symplectic(s.matrix, space) for s in sp2):
        ok = False
        details.append("non-symplectic matrix in enumeration")
    refinements = f2_forms.all_refinements(space)
    by_arf = {0: [], 1: []}
    for q in refinements:
        by_arf[f2_forms.arf(q)].append(q)
    sizes = (len(by_arf[0]), len(by_arf[1]))
    if sizes != (10, 6):
        ok = False
    details.append(f"Arf split {sizes[0]}/{sizes[1]}")
    for arf_value, stab_want, orbit_want in ((0, 72, 10), (1, 120, 6)):
        q = by_arf[arf_value][0]
        stab = len(f2_forms.stabilizer(q))
        orb = f2_forms.orbit(q)
        if stab != stab_want or len(orb) != orbit_want or stab * len(orb) != 720:
            ok = False
        if {f2_forms.arf(t) for t in orb} != {arf_value}:
            ok = False
        details.append(f"Arf {arf_value}: orbit {len(orb)} x stabilizer {stab}")
    return ok, "; ".join(details)


@_check("coset-enumeration", "d8-presentation", "gammav2-presentation")
def check_coset_enumeration():
    """The three-involution presentation closes at order 8 and is dihedral
    (not quaternion); the order-16 model matches D8 x Z2; the infinite
    presentation hits the coset cap."""
    g = smallgrp.todd_coxeter(smallgrp.D8_PRESENTATION, max_cosets=10_000)
    details = [f"presented group order {g.order}"]
    ok = g.order == 8 and not g.is_abelian()
    iso_d8, _ = smallgrp.is_isomorphic(g, smallgrp.dihedral(8))
    iso_q8, _ = smallgrp.is_isomorphic(g, smallgrp.quaternion(8))
    ok = ok and iso_d8 and not iso_q8
    details.append(f"dihedral {iso_d8}, quaternion {iso_q8}")
    model = smallgrp.build_E_even()
    target = smallgrp.direct_product(smallgrp.dihedral(8), smallgrp.cyclic(2))
    iso_model, _ = smallgrp.is_isomorphic(model, target)
    ok = ok and model.order == 16 and iso_model
    details.append(f"model order {model.order}, matches D8 x Z2: {iso_model}")
    try:
        smallgrp.todd_coxeter(smallgrp.GAMMA_V2_PRESENTATION, max_cosets=10_000)
        ok = False
        details.append("infinite presentation unexpectedly closed")
    except smallgrp.CosetCapacityError:
        details.append("infinite presentation hit the cap as expected")
    return ok, "; ".join(details)


@_check("word-algebra", "gammav2-presentation")
def check_word_algebra():
    """Defining relations hold on actual matrices; decompose is a left
    inverse of eval_word on 1000 seeded random normal forms; normal forms
    of letter length <= 6 evaluate injectively."""
    details = []
    v4 = sl2z.eval_word(sl2z.GenWord((("V", 4),)))
    comm = (sl2z.V * sl2z.V * sl2z.T, sl2z.T * sl2z.V * sl2z.V)
    ok = v4 == sl2z.IDENTITY and comm[0] == comm[1]
    details.append("relations hold" if ok else "defining relations FAIL")
    rng = random.Random(20260813)
    failures = 0
    for _ in range(1000):
        w = random_normal_word(rng, max_tokens=20)
        m = sl2z.eval_word(w)
        again = sl2z.decompose(m)
        if sl2z.eval_word(again) != m or not sl2z.is_normal_form(again):
            failures += 1
    ok = ok and failures == 0
    details.append(f"roundtrip failures {failures}/1000")
    count = sl2z.verify_presentation(6)
    details.append(f"{count} normal forms of length <= 6, no collisions")
    return ok, "; ".join(details)


@_check("ambient-matrices", "omega-action", "omega-hat-action", "omega-prime-action")
def check_ambient_matrices():
    """Rotation builders: determinants, orders and induced homology
    actions for odd p in 3..9 and even p in 4..8; the two even actions
    generate a Klein four-group."""
    details = []
    ok = True
    for p in (3, 5, 7, 9):
        omega = ambient_geom.build_omega(p)
        act = ambient_geom.induced_homology_action(
            ambient_geom.restrict_to_product(omega, p, p))
        good = (omega.determinant() == 1 and omega.order() == 4
                and act.rows == ((0, -1), (1, 0)))
        ok = ok and good
        if not good:
            details.append(f"omega p={p} FAIL")
    details.append("omega p in 3..9: det +1, order 4, quarter turn")
    for p in (4, 6, 8):
        hat = ambient_geom.build_omega_hat(p)
        act_hat = ambient_geom.induced_homology_action(
            ambient_geom.restrict_to_product(hat, p, p))
        prime = ambient_geom.build_omega_prime(p, p)
        act_prime = ambient_geom.induced_homology_action(
            ambient_geom.restrict_to_product(prime, p, p))
        good = (hat.determinant() == 1 and hat.order() == 2
                and act_hat.rows == ((0, 1), (1, 0))
                and prime.determinant() == 1 and prime.order() == 2
                and act_prime.rows == ((-1, 0), (0, -1)))
        ok = ok and good
        if not good:
            details.append(f"even builders p={p} FAIL")
    details.append("omega-hat / omega-prime p in 4..8: det +1, order 2")
    hat4 = ambient_geom.induced_homology_action(
        ambient_geom.restrict_to_product(ambient_geom.build_omega_hat(4), 4, 4))
    prime4 = ambient_geom.induced_homology_action(
        ambient_geom.restrict_to_product(ambient_geom.build_omega_prime(4, 4), 4, 4))
    closure = ambient_geom.homology_group_closure([hat4, prime4])
    klein_like = (len(closure) == 4
                  and all((m * m).rows == ((1, 0), (0, 1)) for m in closure))
    ok = ok and klein_like
    details.append(f"even actions generate order {len(closure)}, exponent 2")
    return ok, "; ".join(details)


def _expected_rows():
    rows = []
    for n in range(5, 10):
        rows.append((classifier.KnotFamily.unknot_sphere(n),
                     ("trivial", "trivial", "trivial", True)))
    odd = ("GammaV2", "trivial", "GammaV2", True)
    even = ("Z2xZ2", "Z2xZ2", "D8xZ2", True)
    per_p = {1: odd, 2: ("Z2xZ2", None, None, None), 3: odd, 4: even, 5: odd,
             6: even, 7: odd, 8: even, 9: odd, 10: even, 11: odd, 12: even}
    for p, expect in per_p.items():
        rows.append((classifier.KnotFamily.equal_product(p), expect))
    for p, q in ((2, 3), (2, 5), (3, 7)):
        rows.append((classifier.KnotFamily.unequal_product(p, q),
                     ("Z2", None, None, None)))
    rows.append((classifier.KnotFamily.adjacent_product(14),
                 ("Z2", "Z2", "Z2xZ2", True)))
    return rows


@_check("classification-table", "unknot-trivial", "odd-total", "even-total",
        "dim2-image", "unequal-image", "adjacent-split")
def check_classification_table():
    """classify() reproduces the hand-written expectation table."""
    bad = []
    rows = _expected_rows()
    for family, want in rows:
        result = classifier.classify(family)
        res = result.to_json()
        got = (res["image"], res["kernel"], res["total"], res["splits"])
        if got != want:
            bad.append(f"{family.kind}{family.params}: got {got}")
        for field in (result.image, result.kernel, result.total):
            if isinstance(field, classifier.GroupDescriptor):
                if not field.verify_realization():
                    bad.append(f"{family.kind}{family.params}: bad realization")
    return not bad, f"{len(rows)} rows checked" + ("; " + "; ".join(bad) if bad else "")


@_check("homotopy-tables", "so-tables")
def check_homotopy_tables():
    """Both lookup tables on every residue, the p = 6 exception, and
    out-of-domain rejections."""
    t = homotopy_tables
    residues = {0: t.Z2_Z2, 1: t.Z2, 2: t.Z2, 3: t.Z, 4: t.Z2, 5: t.TRIVIAL,
                6: t.Z2, 7: t.Z}
    ok = True
    details = []
    for p in range(3, 35):
        want = t.TRIVIAL if p == 6 else residues[p % 8]
        if t.s_pi_p_so_p(p) != want:
            ok = False
            details.append(f"s_pi at p={p}")
    for p in range(4, 35, 2):
        want1 = t.Z2_Z2 if p % 8 == 0 else t.Z2
        want2 = t.Z2 if p % 8 == 0 else t.TRIVIAL
        if t.pi_p_so_p_plus(p, 1) != want1 or t.pi_p_so_p_plus(p, 2) != want2:
            ok = False
            details.append(f"pi_plus at p={p}")
    if t.s_pi_p_so_p(6) != t.TRIVIAL:
        ok = False
        details.append("p=6 exception missing")
    if t.pi_p_so_p_residue5(13) != t.Z2:
        ok = False
        details.append("isolated residue-5 entry wrong")
    raises = 0
    for call in (lambda: t.s_pi_p_so_p(2), lambda: t.pi_p_so_p_plus(5, 1),
                 lambda: t.pi_p_so_p_plus(4, 3), lambda: t.pi_p_so_p_plus(2, 1),
                 lambda: t.pi_p_so_p_residue5(12), lambda: t.hom_to(-1, t.Z2)):
        try:
            call()
        except t.OutOfDomainError:
            raises += 1
    ok = ok and raises == 6
    details.append(f"tables agree on p in 3..34; {raises}/6 domain errors raised")
    return ok, "; ".join(details)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _quadratic_identity_holds(space: f2_forms.SymplecticSpaceF2, tables) -> bool:
    """q(x ^ y) == q(x) ^ q(y) ^ <x, y> for every pair (x, y) of vectors
    and every value table q in `tables`, all tables at once.

    The tables are read one at a time and packed into one int T: table r
    fills block r (bits r * 2^dim up to (r + 1) * 2^dim), bit y of a
    block holding q(y).  x runs through all vectors in Gray-code order,
    so T_x, with bit y of each block holding q(x ^ y), follows from the
    previous T_x by one butterfly swap: the two halves of every
    2^(i+1)-bit sub-block trade places for the bit i of x that changed.
    The row {y : <x, y> = 1} is built from space.image(x) by doubling and
    replicated over the blocks, q(x) is spread over its block, and one
    comparison per x covers every y of every table.
    """
    dim = space.dim
    size = 1 << dim
    packed = count = 0
    for table in tables:
        packed |= int(bytes(table[::-1]).translate(_DIGITS), 2) << count * size
        count += 1
    width = count * size
    starts = int(("0" * (size - 1) + "1") * count, 2)  # bit 0 of each block
    lows = [int(("0" * (1 << i) + "1" * (1 << i)) * (width >> i + 1), 2)
            for i in range(dim)]
    moved = packed
    x = 0
    for g in range(size):
        if g:
            i = (g & -g).bit_length() - 1
            half, low = 1 << i, lows[i]
            moved = (moved >> half) & low | (moved & low) << half
            x ^= half
        row = 0
        jx = space.image(x)
        for i in range(dim):
            half = 1 << i
            row |= (row ^ ((1 << half) - 1 if jx >> i & 1 else 0)) << half
        row *= starts
        qx = packed >> x & starts
        if moved ^ packed ^ ((qx << size) - qx) != row:
            return False
    return True


@_check("property-suites", "arf-census", "mod2-membership", "gammav2-presentation")
def check_property_suites():
    """Quadratic-identity exhaustion through dimension 8 (every pair of
    vectors of every refinement, bit-parallel), membership closure (1000
    random pairs), Arf transport invariance over all of Sp(4,2),
    normal-form roundtrip (1000 words, covered again here at a different
    seed), the majority oracle at k <= 2, and re-validation of the 23
    group tables it builds."""
    rng = random.Random(987654321)
    ok = True
    details = []
    bad = 0
    for k in (1, 2, 3, 4):
        space = f2_forms.standard_space(k)
        value_tables = (f2_forms.QuadraticRefinement(space, bits).value_table
                        for bits in product((0, 1), repeat=space.dim))
        if not _quadratic_identity_holds(space, value_tables):
            ok = False
            details.append(f"quadratic identity fails at k={k}")
    details.append("quadratic identity exhausted on dims 2..8")
    tables = [smallgrp.cyclic(n) for n in range(1, 13)]
    tables += [smallgrp.klein(), smallgrp.quaternion(8), smallgrp.build_E_even()]
    tables += [smallgrp.dihedral(n) for n in (6, 8, 10, 12, 16)]
    tables.append(smallgrp.direct_product(smallgrp.dihedral(8), smallgrp.cyclic(2)))
    tables.append(smallgrp.todd_coxeter(smallgrp.D8_PRESENTATION))
    e = smallgrp.build_E_even()
    tables.append(smallgrp.quotient(e, e.closure([smallgrp.E_EVEN_GENS["r"]])))
    # construction re-runs the Latin-square / identity / inverse /
    # associativity validation in MulTableGroup.__init__
    details.append(f"{len(tables)} group tables validated")
    for _ in range(1000):
        m1 = sl2z.eval_word(random_normal_word(rng, 12))
        m2 = sl2z.eval_word(random_normal_word(rng, 12))
        if not (sl2z.is_member(m1 * m2) and sl2z.is_member(m1.inverse())):
            bad += 1
    ok = ok and bad == 0
    details.append(f"closure failures {bad}/1000")
    for k in (1, 2):
        space = f2_forms.standard_space(k)
        sp = f2_forms.enumerate_sp(k)
        for q in f2_forms.all_refinements(space):
            a = f2_forms.arf(q)
            if f2_forms.arf_by_majority(q) != a:
                ok = False
                details.append(f"majority oracle disagrees at k={k}")
                break
            if any(f2_forms.arf(f2_forms.transport(q, s)) != a for s in sp):
                ok = False
                details.append(f"transport changes Arf at k={k}")
                break
    details.append("Arf transport-invariant over Sp(2,2) and Sp(4,2); "
                   "majority oracle agrees on all refinements")
    bad = 0
    for _ in range(1000):
        w = random_normal_word(rng, 20)
        m = sl2z.eval_word(w)
        if sl2z.eval_word(sl2z.decompose(m)) != m:
            bad += 1
    ok = ok and bad == 0
    details.append(f"roundtrip failures {bad}/1000")
    return ok, "; ".join(details)


ALL_CHECKS = (
    check_membership_and_stabilizer,
    check_symplectic_census,
    check_coset_enumeration,
    check_word_algebra,
    check_ambient_matrices,
    check_classification_table,
    check_homotopy_tables,
    check_property_suites,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        tag = ",".join(r.citations) if r.citations else "-"
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name} [{tag}]: {r.detail}")
    return "\n".join(lines)
