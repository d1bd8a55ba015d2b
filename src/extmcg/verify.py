"""Acceptance suite: one check per gating criterion, runnable from the
test suite (tests/test_acceptance.py) and from the command line
(`extmcg verify-all`).  Each check is deterministic (seeded randomness
only), builds everything it uses when called alone, and reports a
pass/fail line with the statement tags it exercises; `run_all` builds
what two checks read once per run.
"""

from __future__ import annotations

import functools
import random

from . import ambient_geom, classifier, f2_forms, homotopy_tables, sl2z, smallgrp
from .errors import _Value


class CheckResult(_Value):
    __slots__ = _fields = ("name", "passed", "detail", "citations")


def _check(name: str, *citations: str):
    """Decorate a check body that takes an inputs dict (see `_built`) and
    returns (passed, detail): the check reports under `name` with these
    statement tags, and a body that raises is reported under the same name
    as a failed result.  Called with no argument, the check hands its body
    a fresh dict, so it builds everything it uses."""
    def decorate(body):
        @functools.wraps(body)
        def check(inputs: dict | None = None) -> CheckResult:
            try:
                passed, detail = body({} if inputs is None else inputs)
            except Exception as exc:  # report, never hide, a crashed check
                return CheckResult(name, False, f"raised {exc!r}", ())
            return CheckResult(name, bool(passed), detail, citations)
        return check
    return decorate


def _built(inputs: dict, build, *args):
    """build(*args), made once per `inputs`: the dict that `run_all` hands
    every check for one run, or a check's own when it is called alone.
    The key is the builder and its arguments, so two checks that read the
    same standard space, its refinements, its Sp(2k,2) listing and
    buckets (`_listing`), a group table or `_word_sample` share one build."""
    key = (build, *args)
    value = inputs.get(key)
    if value is None:
        value = inputs[key] = build(*args)
    return value


_T_TOKENS = tuple(("T", e) for e in range(-9, 10) if e)
_DRAWS = 620  # random words in `_word_sample`, after the short normal forms


def random_normal_word(rng: random.Random, max_tokens: int = 20) -> sl2z.GenWord:
    """Uniform-ish random normal-form word with up to max_tokens factors.

    The length is uniform on 0..max_tokens (`randint`), the first
    generator and the sign are fair coins, the factors alternate between
    V and T, and each T exponent is uniform on -9..9 without 0 (one
    `choice` each).  Its letters come from a fixed valid alphabet, so it
    is built unchecked.
    """
    n = rng.randint(0, max_tokens)
    v_first = rng.choice(("V", "T")) == "V"
    tokens = [("V", 1)] * n
    # the T factors take every other place, from place 1 after a first V
    tokens[v_first::2] = [rng.choice(_T_TOKENS) for _ in range(v_first, n, 2)]
    return sl2z.GenWord._trusted(tuple(tokens), rng.choice((1, -1)))


@_check("membership-characterization", "mod2-membership", "arf-zero-standard")
def check_membership_and_stabilizer(inputs):
    """Parity membership test == mod-2 characterization, exhaustively on
    entries in [-5, 5]; stabilizer of the vanishing refinement in Sp(2,2)
    is exactly the two mod-2 classes.

    ad - bc = 1 is solved for d in lexicographic order of (a, b, c): for
    a != 0 the one candidate is (1 + bc) / a, kept when the division is
    exact and it lies in the span; for a = 0 every d qualifies exactly
    when bc = -1."""
    span = range(-5, 6)
    tested = 0
    for a in span:
        for b in span:
            for c in span:
                if a:
                    d, rest = divmod(1 + b * c, a)
                    solutions = (d,) if not rest and d in span else ()
                else:
                    solutions = span if b * c == -1 else ()
                for d in solutions:
                    m = sl2z.UniModMat2(a, b, c, d)
                    tested += 1
                    member = sl2z.is_member(m)
                    cls = sl2z.reduce_mod2(m)
                    if member != (cls in (sl2z.Mod2Class.ID, sl2z.Mod2Class.V)):
                        return False, f"mismatch at {m.rows}"
    q = f2_forms.QuadraticRefinement(_built(inputs, f2_forms.standard_space, 1), (0, 0))
    stab = sorted(s.matrix for s in f2_forms.stabilizer(q))
    want = [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    ok = stab == sorted(want)
    return ok, f"{tested} unimodular matrices checked; stabilizer {stab}"


@_check("symplectic-census", "sp-census")
def check_symplectic_census(inputs):
    """Sp(2,2) and Sp(4,2) orders, no duplicate in Sp(4,2), every one of
    its 720 elements preserving the form (one bit-sliced pass over the
    group, `_form_preserving`, not one `is_symplectic` per element), Arf
    class sizes, orbit and stabilizer orders, and the orbit-stabilizer
    products."""
    sp1, _ = _built(inputs, _listing, _built(inputs, f2_forms.standard_space, 1))
    space = _built(inputs, f2_forms.standard_space, 2)
    sp2, by_image = _built(inputs, _listing, space)
    details = []
    ok = len(sp1) == 6 and len(sp2) == 720
    details.append(f"|Sp(2,2)| = {len(sp1)}, |Sp(4,2)| = {len(sp2)}")
    if len({s.columns for s in sp2}) != 720:
        ok = False
        details.append("duplicates in Sp(4,2)")
    if _form_preserving(space, by_image) != (1 << len(sp2)) - 1:
        ok = False
        details.append("non-symplectic matrix in enumeration")
    refinements = _built(inputs, f2_forms.all_refinements, space)
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
        found = {f2_forms.arf(t) for t in orb}
        if found != {arf_value}:
            ok = False
            details.append(f"Arf {arf_value} orbit holds Arf values {sorted(found)}")
        details.append(f"Arf {arf_value}: orbit {len(orb)} x stabilizer {stab}")
    return ok, "; ".join(details)


@_check("coset-enumeration", "d8-presentation", "gammav2-presentation")
def check_coset_enumeration(inputs):
    """The three-involution presentation closes at order 8 and is dihedral
    (not quaternion); the order-16 model matches D8 x Z2, and its
    homology-trivial subgroup <delta1, delta2> has order 4 with Klein
    quotient; Gamma_V2 is infinite because its abelianization, the Smith
    normal form of its relator exponent sums, has a free summand.  No
    coset enumeration runs on Gamma_V2: reaching a coset cap proves
    nothing."""
    g = _built(inputs, smallgrp.todd_coxeter, smallgrp.D8_PRESENTATION)
    details = [f"presented group order {g.order}"]
    ok = g.order == 8 and not g.is_abelian()
    d8 = _built(inputs, smallgrp.dihedral, 8)
    iso_d8, _ = smallgrp.is_isomorphic(g, d8)
    iso_q8, _ = smallgrp.is_isomorphic(g, _built(inputs, smallgrp.quaternion, 8))
    ok = ok and iso_d8 and not iso_q8
    details.append(f"dihedral {iso_d8}, quaternion {iso_q8}")
    model = _built(inputs, smallgrp.build_E_even)
    target = _built(inputs, smallgrp.direct_product, d8, _built(inputs, smallgrp.cyclic, 2))
    iso_model, _ = smallgrp.is_isomorphic(model, target)
    gens = smallgrp.E_EVEN_GENS
    kernel = model.closure({gens["delta1"], gens["delta2"]})
    klein_quotient = len(kernel) == 4 and smallgrp.is_isomorphic(
        smallgrp.quotient(model, kernel), _built(inputs, smallgrp.klein))[0]
    ok = ok and model.order == 16 and iso_model and klein_quotient
    details.append(f"model order {model.order}, matches D8 x Z2: {iso_model}; "
                   f"quotient by <delta1, delta2> is Klein: {klein_quotient}")
    h1 = smallgrp.abelian_invariants(smallgrp.GAMMA_V2_PRESENTATION)
    ok = ok and h1.free_rank >= 1
    details.append(f"abelianization {h1}, so infinite" if h1.free_rank
                   else f"abelianization {h1} is finite")
    return ok, "; ".join(details)


def _word_sample() -> list[tuple[sl2z.GenWord, sl2z.UniModMat2]]:
    """The 380 normal forms of letter length <= 6, then 620 seeded random
    normal forms of up to 20 factors, each with its matrix:
    check_word_algebra round-trips the words and check_property_suites
    closes over the matrices."""
    words = list(sl2z.normal_forms_up_to(6))
    rng = random.Random(20260813)
    words += [random_normal_word(rng, 20) for _ in range(_DRAWS)]
    return [(w, sl2z.eval_word(w)) for w in words]


@_check("word-algebra", "gammav2-presentation")
def check_word_algebra(inputs):
    """The relators of `smallgrp.GAMMA_V2_PRESENTATION` hold on the actual
    matrices (the detail names the first that fails), and decompose is a
    left inverse of eval_word on the 1000 words of `_word_sample`:
    decompose(eval_word(w)) is w itself, tokens and sign.  Normal forms
    are unique, so a word of the same matrix that is not w (w V^4, say)
    fails; and a map with a left inverse is injective, so the 380 short
    normal forms that open the sample share no matrix (the detail names
    the first of them whose round trip fails)."""
    relator = sl2z.failing_relator(smallgrp.GAMMA_V2_PRESENTATION)
    sample = _built(inputs, _word_sample)
    failed = [i for i, (w, m) in enumerate(sample) if sl2z.decompose(m) != w]
    forms = len(sample) - _DRAWS
    short = (f"{sample[failed[0]][0]} fails the round trip" if failed and failed[0] < forms
             else "no collisions")
    relations = "relations hold" if relator is None else f"{relator} is not the identity"
    return (relator is None and not failed,
            f"{relations}; roundtrip failures {len(failed)}/1000; {forms} normal "
            f"forms of length <= 6, {short}")


@_check("ambient-matrices", "omega-action", "omega-hat-action", "omega-prime-action")
def check_ambient_matrices(inputs):
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
        if p == 4:
            even_actions = [act_hat, act_prime]
    details.append("omega-hat / omega-prime p in 4..8: det +1, order 2")
    closure = ambient_geom.homology_group_closure(even_actions)
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
def check_classification_table(inputs):
    """classify() reproduces the hand-written expectation table; each
    distinct descriptor (name and realization) is verified once, and every
    row that carries a bad one is named."""
    bad = []
    verified = {}
    rows = _expected_rows()
    for family, want in rows:
        result = classifier.classify(family)
        res = result.to_json()
        got = (res["image"], res["kernel"], res["total"], res["splits"])
        if got != want:
            bad.append(f"{family.kind}{family.params}: got {got}")
        for field in (result.image, result.kernel, result.total):
            if isinstance(field, classifier.GroupDescriptor):
                if field not in verified:
                    verified[field] = field.verify_realization()
                if not verified[field]:
                    bad.append(f"{family.kind}{family.params}: bad realization")
    return not bad, f"{len(rows)} rows checked" + ("; " + "; ".join(bad) if bad else "")


@_check("homotopy-tables", "so-tables")
def check_homotopy_tables(inputs):
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
                 lambda: t.pi_p_so_p_residue5(12)):
        try:
            call()
        except t.OutOfDomainError:
            raises += 1
    ok = ok and raises == 5
    details.append(f"tables agree on p in 3..34; {raises}/5 domain errors raised")
    return ok, "; ".join(details)


def _quadratic_identity_holds(space: f2_forms.SymplecticSpaceF2, value_bits) -> bool:
    """q(x ^ y) == q(x) ^ q(y) ^ <x, y> for every pair (x, y) of vectors
    and every q in `value_bits`, given by its value bitset (bit y holds
    q(y)), all of them at once.

    The bitsets are joined into one int P: bitset r fills block r, whole
    bytes from bit r * stride, where stride is 2^dim or, at dim 2, 8.
    With T_x holding q(x ^ y) at bit y of each block and R_x holding
    <x, y>, F_x = T_x ^ R_x ^ P has bit y q(x ^ y) ^ <x, y> ^ q(y) and bit
    0 q(x) ^ q(0).  x = y = 0 forces q(0) = 0, so after one test of bit 0
    of every block the identity holds at x exactly when F_x is constant on
    the 2^dim value bits of each block: (F ^ F >> 1) & inner is 0, for
    `inner` every value bit but the top one of each block.

    It holds at every x once it holds at each basis vector e_i.  By
    induction on the set bits of x: if it holds at x, the identity at
    (e_i, x ^ y), at (x, y) and at (e_i, x) gives q(x ^ e_i ^ y) = q(x ^
    e_i) ^ q(y) ^ <x ^ e_i, y>, since the form is bilinear.  Flipping bit
    i of y trades the two halves of every 2^(i+1)-bit sub-block (the
    butterfly B_i), so T_(e_i) = B_i(P), and R_(e_i) is the row of
    space.image(e_i) built by doubling and copied into every block, so
    F_(e_i) = B_i(P) ^ P ^ R_(e_i) takes about nine full-width
    operations.  Any dim - 1 of these tests already imply
    the last (q differs from a refinement by a function whose derivatives
    along them are constant, so it has degree at most 1); all dim are
    kept so that the proof is the plain induction.
    """
    dim = space.dim
    size = 1 << dim
    nbytes = max(size >> 3, 1)
    blocks = b"".join([bits.to_bytes(nbytes, "little") for bits in value_bits])
    packed = int.from_bytes(blocks, "little")
    stride = nbytes << 3
    starts = ((1 << len(blocks) * 8) - 1) // ((1 << stride) - 1)  # bit 0 of each block
    if packed & starts:
        return False
    inner = ((1 << size - 1) - 1) * starts
    for i in range(dim):
        half = 1 << i
        low = ((1 << size) - 1) // ((1 << 2 * half) - 1) * ((1 << half) - 1) * starts
        je = space._image(half)
        row = 0
        for j in range(dim):
            row |= (row ^ ((1 << (1 << j)) - 1 if je >> j & 1 else 0)) << (1 << j)
        f = ((packed >> half) & low | (packed & low) << half) ^ packed ^ row * starts
        if (f ^ f >> 1) & inner:
            return False
    return True


def _images_by_basis(space: f2_forms.SymplecticSpaceF2, elements) -> list[list[int]]:
    """One bucketing pass over `elements`: for each basis vector w of
    space.basis_masks, in the order a_1, b_1, ..., a_k, b_k, and each
    vector v, the bitset over `elements` whose bit i says S w = v for
    S = elements[i].

    S w is the XOR of the columns of S at the set bits of w.  An element
    whose dimension is not the space's lands in no bucket, so every
    bitset built from these reads 0 at its bit.
    """
    n = space.dim
    supports = [[j for j in range(n) if w >> j & 1]
                for pair in space.basis_masks for w in pair]
    by_image = [[0] * (1 << n) for _ in supports]
    for index, s in enumerate(elements):
        columns = s.columns
        if len(columns) != n:
            continue
        bit = 1 << index
        for row, support in zip(by_image, supports):
            v = 0
            for j in support:
                v ^= columns[j]
            row[v] |= bit
    return by_image


def _listing(space: f2_forms.SymplecticSpaceF2):
    """Sp(2k,2) for the standard space of dimension 2k, from `enumerate_sp`,
    and its `_images_by_basis` buckets over space, which both bit-sliced
    kernels read: one `_built` value, so a run buckets each listing once."""
    elements = f2_forms.enumerate_sp(space.dim // 2)
    return elements, _images_by_basis(space, elements)


def _form_preserving(space: f2_forms.SymplecticSpaceF2, by_image) -> int:
    """From the `_images_by_basis(space, elements)` buckets, the bitset
    over `elements` whose bit i says that S = elements[i] preserves the
    form, <S u, S w> = <u, w> for all u, w, every element at once.

    By bilinearity the pairs of basis vectors u, w of space.basis_masks
    decide it.  The coordinate bitset X_w[c] holds the S with coordinate
    c of S w set.  <x, y> is the sum over the Gram entries G_cd = 1,
    c < d, of x_c y_d + x_d y_c, so the S with <S u, S w> = 1 are the XOR
    over those entries of X_u[c] & X_w[d] and X_u[d] & X_w[c].  That
    bitset must be all ones where <u, w> = 1 and zero elsewhere.  An
    element of another dimension lands in no bucket, so its bit is 0.
    """
    n = space.dim
    basis = [w for pair in space.basis_masks for w in pair]
    coords = []
    for row in by_image:
        coord = []
        for c in range(n):
            hit = 0
            for v in range(1 << c, 1 << n):
                if v >> c & 1:
                    hit |= row[v]
            coord.append(hit)
        coords.append(coord)
    edges = [(c, d) for c, r in enumerate(space.row_masks)
             for d in range(c + 1, n) if r >> d & 1]
    good = sum(by_image[0])  # each element of this dimension is in one bucket
    for a, (u, xu) in enumerate(zip(basis, coords)):
        ju = space._image(u)
        for w, xw in zip(basis[a + 1:], coords[a + 1:]):
            pairs = 0
            for c, d in edges:
                pairs ^= xu[c] & xw[d] ^ xu[d] & xw[c]
            good &= pairs if (w & ju).bit_count() & 1 else ~pairs
    return good


def _transported_arfs(by_image, refinements) -> list[int]:
    """From the `_images_by_basis(space, elements)` buckets, for each
    refinement q of space, the bitset whose bit i is arf(q o S) for
    S = elements[i], every element at once.

    arf(q o S) is the sum over the hyperbolic pairs (a_i, b_i) of
    space.basis_masks of q(S a_i) q(S b_i).  Q(w), the bitset of the S
    with q(S w) = 1, is the OR of the buckets of w over the set bits v of
    q's value bitset; the Arf bitset is the XOR of the Q(a_i) & Q(b_i).
    """
    out = []
    for q in refinements:
        ones = q._value_bits
        values = [v for v in range(ones.bit_length()) if ones >> v & 1]
        hits = []
        for row in by_image:
            hit = 0
            for v in values:
                hit |= row[v]
            hits.append(hit)
        arfs = 0
        for qa, qb in zip(hits[::2], hits[1::2]):
            arfs ^= qa & qb
        out.append(arfs)
    return out


@_check("property-suites", "arf-census", "mod2-membership", "gammav2-presentation")
def check_property_suites(inputs):
    """Quadratic identity through dimension 8 on every pair of vectors of
    every refinement (each basis vector against every vector, bit-parallel,
    which proves it at every pair; see `_quadratic_identity_holds`),
    membership closure (m_i m_(i+1 mod 1000) and m_i^-1 for the 1000
    matrices of `_word_sample`), Arf invariance under all of
    Sp(2,2) and Sp(4,2) (every element of every refinement, bit-sliced
    over the elements), the majority oracle at k <= 2, and re-validation
    of the 23 group tables it builds: MulTableGroup.__new__ validates each
    once per run, here or, for the four that check_coset_enumeration also
    reads, there; the two products, the quotient and the Todd-Coxeter
    table, built unchecked, are rebuilt through it here.  The word round
    trip is check_word_algebra's alone; the per-call route, `_pull_back` then
    `arf`, runs under `orbit` in check_symplectic_census."""
    ok = True
    details = []
    for k in (1, 2, 3, 4):
        space = _built(inputs, f2_forms.standard_space, k)
        value_bits = (q._value_bits for q in _built(inputs, f2_forms.all_refinements, space))
        if not _quadratic_identity_holds(space, value_bits):
            ok = False
            details.append(f"quadratic identity fails at k={k}")
    details.append("quadratic identity exhausted on dims 2..8")
    e = _built(inputs, smallgrp.build_E_even)
    tables = [_built(inputs, smallgrp.cyclic, n) for n in range(1, 13)]
    tables += [_built(inputs, smallgrp.klein), _built(inputs, smallgrp.quaternion, 8), e]
    tables += [_built(inputs, smallgrp.dihedral, n) for n in (6, 8, 10, 12, 16)]
    tables.append(_built(inputs, smallgrp.direct_product,
                         _built(inputs, smallgrp.dihedral, 8), _built(inputs, smallgrp.cyclic, 2)))
    tables.append(_built(inputs, smallgrp.todd_coxeter, smallgrp.D8_PRESENTATION))
    tables.append(smallgrp.quotient(e, e.closure([smallgrp.E_EVEN_GENS["r"]])))
    # __new__ checks Latin rows, identity and associativity; inverses follow
    if not all(smallgrp.MulTableGroup(t.table) == t for t in (e, tables[-3], tables[-1])):
        ok = False
        details.append("a product or quotient differs from its validated table")
    if smallgrp.MulTableGroup(tables[-2].table) != tables[-2]:
        ok = False
        details.append("the Todd-Coxeter table differs from its validated table")
    details.append(f"{len(tables)} group tables validated")
    sample = [m for _, m in _built(inputs, _word_sample)]
    bad = sum(not (sl2z.is_member(m1 * m2) and sl2z.is_member(m1.inverse()))
              for m1, m2 in zip(sample, sample[1:] + sample[:1]))
    ok = ok and bad == 0
    details.append(f"closure failures {bad}/1000")
    for k in (1, 2):
        space = _built(inputs, f2_forms.standard_space, k)
        sp, by_image = _built(inputs, _listing, space)
        everywhere = (1 << len(sp)) - 1
        refinements = _built(inputs, f2_forms.all_refinements, space)
        for q, arfs in zip(refinements, _transported_arfs(by_image, refinements)):
            a = f2_forms.arf(q)
            if f2_forms.arf_by_majority(q) != a:
                ok = False
                details.append(f"majority oracle disagrees at k={k}")
                break
            if arfs != (everywhere if a else 0):
                ok = False
                details.append(f"transport changes Arf at k={k}")
                break
    details.append("Arf transport-invariant over Sp(2,2) and Sp(4,2); "
                   "majority oracle agrees on all refinements")
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
    """Every check, in order, handed one inputs dict for this run: each
    standard space and its refinements, each Sp(2k,2) listing with its
    `_images_by_basis` buckets, and each group table and `_word_sample`
    that two checks read is built once per run.  The dict is dropped on
    return, so each run builds afresh and nothing outlives it."""
    inputs = {}
    return [check(inputs) for check in ALL_CHECKS]


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        tag = ",".join(r.citations) if r.citations else "-"
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name} [{tag}]: {r.detail}")
    return "\n".join(lines)
