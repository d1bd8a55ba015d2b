"""Workload generators and answer keys.

A workload is a list of ops.  Each op is plain JSON-able data: a kind, the
arguments the benchmark generated from the seed, and the expected answer,
which is derived from how the arguments were generated (product formulas,
catalog labels, the benchmark's own 2x2 arithmetic), never from the
function under test.  ``prepare`` turns an op into a zero-argument callable
that makes exactly the library call being timed; ``check`` compares its
result with the answer key.

Inputs that carry lazily cached state (``QuadraticRefinement.value_table``,
``SymplecticSpaceF2.row_masks``) are built inside the timed call, so a
later pass never sees a warm cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass

from extmcg import classifier, f2_forms, sl2z, smallgrp, verify



@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    expect: object

    def describe(self) -> list:
        return [self.kind, self.args, self.expect]


class OpTimeout(BaseException):
    """Raised by the SIGALRM handler when an op passes its time limit.

    A BaseException, so library ``except Exception`` blocks cannot swallow it.
    """


# ---------------------------------------------------------------------------
# arithmetic the answer keys rest on (independent of the library)


def sp_order(k: int) -> int:
    """|Sp(2k, 2)| = 2^(k^2) * prod_{i=1..k} (4^i - 1)."""
    n = 2 ** (k * k)
    for i in range(1, k + 1):
        n *= 4 ** i - 1
    return n


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def gaussian_binomial_2(k: int, j: int) -> int:
    num = den = 1
    for i in range(j):
        num *= 2 ** (k - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def invariant_factors(orders) -> tuple[int, ...]:
    """Divisibility chain of a direct sum of cyclic groups, via primary parts."""
    primary: dict[int, list[int]] = {}
    for n in orders:
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                primary.setdefault(p, []).append(q)
            p += 1
    chains = [sorted(v, reverse=True) for v in primary.values()]
    depth = max((len(c) for c in chains), default=0)
    return tuple(sorted(math.prod(c[i] for c in chains if i < len(c)) for i in range(depth)))


def mat_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def word_matrix(tokens, sign):
    acc = ((1, 0), (0, 1))
    for gen, exp in tokens:
        factor = ((0, -1), (1, 0)) if gen == "V" else ((1, 2 * exp), (0, 1))
        acc = mat_mul(acc, factor)
    return tuple(tuple(sign * e for e in row) for row in acc)


def word_text(tokens, sign) -> str:
    parts = ["-"] if sign < 0 else []
    parts += [g if e == 1 else f"{g}^{e}" for g, e in tokens]
    return " ".join(parts or ["e"])


def normal_word(rng: random.Random, n_tokens: int):
    """Alternating V / T^k word with k in +-1..+-9, and a random sign."""
    gen = rng.choice("VT")
    tokens = []
    for _ in range(n_tokens):
        tokens.append(["V", 1] if gen == "V" else ["T", rng.choice([-1, 1]) * rng.randint(1, 9)])
        gen = "T" if gen == "V" else "V"
    return tokens, rng.choice((1, -1))


def arf_of_standard(bits) -> int:
    return sum(bits[2 * i] & bits[2 * i + 1] for i in range(len(bits) // 2)) % 2


def orbit_size(k: int, arf_value: int) -> int:
    return 2 ** (2 * k - 1) + (-1) ** arf_value * 2 ** (k - 1)


# ---------------------------------------------------------------------------
# the group catalog: recipes built with the library's public builders


def build(recipe):
    kind = recipe[0]
    if kind == "cyclic":
        return smallgrp.cyclic(recipe[1])
    if kind == "dihedral":
        return smallgrp.dihedral(recipe[1])
    if kind == "klein":
        return smallgrp.klein()
    if kind == "quaternion":
        return smallgrp.quaternion(8)
    if kind == "e_even":
        return smallgrp.build_E_even()
    if kind == "direct":
        return smallgrp.direct_product(build(recipe[1]), build(recipe[2]))
    if kind == "cyc_semi":  # Z_n x| Z_m, the generator of Z_m acting by x -> a x
        n, m, a = recipe[1:]
        action = {x: tuple(pow(a, x, n) * b % n for b in range(n)) for x in range(m)}
        return smallgrp.semidirect_product(smallgrp.cyclic(n), smallgrp.cyclic(m), action)
    if kind == "klein_semi":  # Z2^2 x| Z2 (swap) or Z2^2 x| Z3 (rotation: A4)
        perm, m = ((0, 2, 1, 3), 2) if recipe[1] == "swap" else ((0, 2, 3, 1), 3)
        action, cur = {}, tuple(range(4))
        for x in range(m):
            action[x] = cur
            cur = tuple(perm[c] for c in cur)
        return smallgrp.semidirect_product(smallgrp.klein(), smallgrp.cyclic(m), action)
    raise ValueError(f"unknown recipe {recipe!r}")


def abelian_orders(recipe):
    """Cyclic orders of an abelian recipe, or None if the recipe is not abelian."""
    kind = recipe[0]
    if kind == "cyclic":
        return [recipe[1]]
    if kind == "klein" or recipe == ("dihedral", 4):
        return [2, 2]
    if recipe == ("dihedral", 2):
        return [2]
    if kind == "direct":
        a, b = abelian_orders(recipe[1]), abelian_orders(recipe[2])
        return a + b if a is not None and b is not None else None
    return None


def order_of(recipe) -> int:
    kind = recipe[0]
    if kind in ("cyclic", "dihedral"):
        return recipe[1]
    if kind == "direct":
        return order_of(recipe[1]) * order_of(recipe[2])
    if kind == "cyc_semi":
        return recipe[1] * recipe[2]
    return {"klein": 4, "quaternion": 8, "e_even": 16}.get(kind) or (8 if recipe[1] == "swap" else 12)


def Z(n):
    return ("cyclic", n)


def D(n):
    return ("dihedral", n)


def X(*parts):
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ("direct", p, out)
    return out


Q8 = ("quaternion",)
V4 = ("klein",)

# label -> (recipe, isomorphism-class key); abelian keys are computed
CATALOG: dict[str, tuple[tuple, str | None]] = {}
for _n in range(1, 65):
    CATALOG[f"Z{_n}"] = (Z(_n), None)
for _n in range(2, 65, 2):
    CATALOG[f"D{_n}"] = (D(_n), None if _n <= 4 else f"D{_n}")
for _k in range(2, 7):
    CATALOG[f"Z2^{_k}"] = (X(*[Z(2)] * _k), None)
for _orders in ((2, 3), (2, 4), (2, 8), (4, 4), (2, 16), (4, 8), (2, 2, 4), (2, 2, 3),
                (2, 6), (2, 32), (4, 16), (8, 8), (2, 4, 8), (4, 4, 4), (3, 3), (3, 6),
                (6, 6), (3, 9), (5, 5), (3, 15), (7, 7), (2, 2, 2, 8), (2, 2, 2, 4)):
    CATALOG["x".join(f"Z{o}" for o in _orders)] = (X(*map(Z, _orders)), None)
CATALOG.update({
    "V4": (V4, None),
    "Q8": (Q8, "Q8"),
    "E_even": (("e_even",), "D8xZ2"),
    "D6xZ2": (X(D(6), Z(2)), "D12"),
    "D10xZ2": (X(D(10), Z(2)), "D20"),
    "D14xZ2": (X(D(14), Z(2)), "D28"),
    "D8xZ2": (X(D(8), Z(2)), "D8xZ2"),
    "D12xZ2": (X(D(12), Z(2)), "D12xZ2"),
    "D6xZ2xZ2": (X(D(6), Z(2), Z(2)), "D12xZ2"),
    "Q8xZ2": (X(Q8, Z(2)), "Q8xZ2"),
    "D8xZ4": (X(D(8), Z(4)), "D8xZ4"),
    "D8xZ2xZ2": (X(D(8), Z(2), Z(2)), "D8xZ2xZ2"),
    "D16xZ2": (X(D(16), Z(2)), "D16xZ2"),
    "D32xZ2": (X(D(32), Z(2)), "D32xZ2"),
    "Q8xZ4": (X(Q8, Z(4)), "Q8xZ4"),
    "D8xD8": (X(D(8), D(8)), "D8xD8"),
    "Q8xQ8": (X(Q8, Q8), "Q8xQ8"),
    "D6xZ3": (X(D(6), Z(3)), "D6xZ3"),
    "D6xD6": (X(D(6), D(6)), "D6xD6"),
    "Z4:Z2": (("cyc_semi", 4, 2, 3), "D8"),
    "(Z4:Z2)xZ2": (X(("cyc_semi", 4, 2, 3), Z(2)), "D8xZ2"),
    "V4:Z2": (("klein_semi", "swap"), "D8"),
    "A4": (("klein_semi", "rotate"), "A4"),
    "SD16": (("cyc_semi", 8, 2, 3), "SD16"),
    "M16": (("cyc_semi", 8, 2, 5), "M16"),
    "Z8:Z2": (("cyc_semi", 8, 2, 7), "D16"),
    "SD32": (("cyc_semi", 16, 2, 7), "SD32"),
    "M32": (("cyc_semi", 16, 2, 9), "M32"),
    "Z16:Z2": (("cyc_semi", 16, 2, 15), "D32"),
    "Dic12": (("cyc_semi", 3, 4, 2), "Dic12"),
    "Z4:Z4": (("cyc_semi", 4, 4, 3), "Z4:Z4"),
    "F20": (("cyc_semi", 5, 4, 2), "F20"),
    "F21": (("cyc_semi", 7, 3, 2), "F21"),
    "Z9:Z2": (("cyc_semi", 9, 2, 8), "D18"),
    "Z5:Z2": (("cyc_semi", 5, 2, 4), "D10"),
    "Z3:Z8": (("cyc_semi", 3, 8, 2), "Z3:Z8"),
    "Z13:Z3": (("cyc_semi", 13, 3, 3), "Z13:Z3"),
})


def class_key(label: str) -> str:
    recipe, key = CATALOG[label]
    if key is None:
        key = "Z" + "xZ".join(map(str, invariant_factors(abelian_orders(recipe)) or (1,)))
    return key


# Pairs of equal order, run in both orientations.  The answer is whether the
# two catalog labels name the same isomorphism class.
ISO_PAIRS = (
    ("D8", "Z4:Z2"), ("D8", "V4:Z2"), ("D12", "D6xZ2"), ("D16", "Z8:Z2"),
    ("D20", "D10xZ2"), ("D18", "Z9:Z2"), ("D10", "Z5:Z2"), ("D28", "D14xZ2"),
    ("D32", "Z16:Z2"), ("D8xZ2", "E_even"), ("E_even", "(Z4:Z2)xZ2"),
    ("Z6", "Z2xZ3"), ("V4", "D4"), ("Z2xZ6", "Z2xZ2xZ3"), ("D12xZ2", "D6xZ2xZ2"),
    ("Z3xZ15", "Z45"), ("Z64", "Z64"), ("D64", "D64"), ("D32xZ2", "D32xZ2"),
    ("Z4xZ4", "Z4:Z4"), ("Z4xZ4", "Q8xZ2"), ("Z4:Z4", "Q8xZ2"), ("Z2xZ8", "M16"),
    ("Z2xZ16", "M32"), ("D8", "Q8"), ("SD16", "D16"), ("SD16", "M16"), ("Dic12", "D12"),
    ("A4", "D12"), ("Dic12", "Z12"), ("F20", "D20"), ("F21", "Z21"), ("Z4xZ4", "Z2xZ8"),
    ("Z2^3", "Z2xZ4"), ("SD32", "D32"), ("Z3:Z8", "Z24"),
)

# The Todd-Coxeter inputs: presentation text and the order it presents.
GAMMA = "gens: V,T; rels: V^4, V^2 T V^-2 T^-1"
GAMMA_CAP = 2000


def dihedral_presentation(n):
    return f"gens: r,s; rels: r^{n}, s^2, s r s r", 2 * n


def cyclic_presentation(n):
    return f"gens: a; rels: a^{n}", n


def elementary_presentation(k):
    gens = [f"a{i}" for i in range(k)]
    rels = [f"{g}^2" for g in gens]
    rels += [f"[{a},{b}]" for i, a in enumerate(gens) for b in gens[i + 1:]]
    return f"gens: {','.join(gens)}; rels: {', '.join(rels)}", 2 ** k


FIXED_PRESENTATIONS = (
    ("gens: i,j; rels: i^4, i^2 j^-2, j^-1 i j i", 8),
    ("gens: a,b,u; rels: a^2, b^2, u^2, [a,b], a u b^-1 u^-1", 8),
    ("gens: a,b,u,r; rels: a^2, b^2, u^2, r^2, [a,b], [a,r], [b,r], [u,r], "
     "a u b^-1 u^-1", 16),
)


def classify_row(kind: str, params) -> list:
    """(image, kernel, total, splits): this benchmark's copy of the table."""
    if kind == "unknot-sphere":
        return ["trivial", "trivial", "trivial", True]
    if kind == "unequal-product":
        return ["Z2", None, None, None]
    if kind == "adjacent-product":
        return ["Z2", "Z2", "Z2xZ2", True]
    p = params[0]
    if p == 2:
        return ["Z2xZ2", None, None, None]
    if p % 2:
        return ["GammaV2", "trivial", "GammaV2", True]
    return ["Z2xZ2", "Z2xZ2", "D8xZ2", True]


def cross_check_names(p: int) -> list[str]:
    if p % 2:
        return ["stabilizer-matches-mod2-image", "omega-induces-v"]
    return ["induced-actions-generate-klein", "model-is-d8xz2", "model-quotient-is-klein"]


def family_of(kind: str, params):
    return {"unknot-sphere": classifier.KnotFamily.unknot_sphere,
            "equal-product": classifier.KnotFamily.equal_product,
            "unequal-product": classifier.KnotFamily.unequal_product,
            "adjacent-product": classifier.KnotFamily.adjacent_product}[kind](*params)


# ---------------------------------------------------------------------------
# op lists


def pick(rng, lo, hi, pred=lambda n: True):
    return rng.choice([n for n in range(lo, hi + 1) if pred(n)])


def groups_ops(rng: random.Random) -> list[Op]:
    ops = [Op("build", (label,), order_of(recipe)) for label, (recipe, _) in CATALOG.items()]
    for lo, hi in ((3, 8), (9, 16), (17, 32)):
        text, order = dihedral_presentation(pick(rng, lo, hi))
        ops.append(Op("todd_coxeter", (text, 100_000), order))
    for lo, hi in ((2, 16), (17, 64)):
        text, order = cyclic_presentation(pick(rng, lo, hi))
        ops.append(Op("todd_coxeter", (text, 100_000), order))
    for k in range(1, 6):
        ops.append(Op("todd_coxeter", elementary_presentation(k)[:1] + (100_000,), 2 ** k))
    for text, order in FIXED_PRESENTATIONS:
        ops.append(Op("todd_coxeter", (text, 100_000), order))
    ops.append(Op("todd_coxeter", (GAMMA, GAMMA_CAP), "CosetCapacityError"))
    for a, b in ISO_PAIRS:
        same = class_key(a) == class_key(b)
        ops += [Op("is_isomorphic", (a, b), same), Op("is_isomorphic", (b, a), same)]
    # subgroup counts: tau(n) for Z_n, tau(n) + sigma(n) for D_2n, Gaussian
    # binomials for Z2^k; the largest cases are fixed, smaller ones seeded
    cyc = [64, 48] + [pick(rng, lo, hi) for lo, hi in ((2, 16), (17, 32))]
    dih = [64] + [pick(rng, lo, hi, lambda n: n % 2 == 0) for lo, hi in ((6, 16), (18, 24))]
    ops += [Op("all_subgroups", (f"Z{n}",), len(divisors(n))) for n in cyc]
    ops += [Op("all_subgroups", (f"D{m}",), len(divisors(m // 2)) + sum(divisors(m // 2)))
            for m in dih]
    ops += [Op("all_subgroups", (f"Z2^{k}",), sum(gaussian_binomial_2(k, j) for j in range(k + 1)))
            for k in (3, 4, 5)]
    # complements: rotations in D_2n (yes), a subgroup of order m in Z_n
    # (iff gcd(m, n/m) = 1), the normal factor of a semidirect product (yes),
    # the centre of Q8 (no)
    m = pick(rng, 6, 20, lambda n: n % 2 == 0)
    ops.append(Op("has_complement", (f"D{m}", "rotations"), True))
    n = pick(rng, 4, 32, lambda n: len(divisors(n)) > 2)
    d = rng.choice(divisors(n)[1:-1])
    ops.append(Op("has_complement", (f"Z{n}", d), math.gcd(d, n // d) == 1))
    ops.append(Op("has_complement", ("E_even", "klein"), True))
    ops.append(Op("has_complement", ("F20", "normal_factor"), True))
    ops.append(Op("has_complement", ("Q8", "centre"), False))
    # quotients: D_2n / <r^k> is dihedral of order 2k; Z_n / (order d) is Z_{n/d}
    n = pick(rng, 6, 32, lambda n: len(divisors(n)) > 2)
    k = rng.choice(divisors(n)[1:-1])
    ops.append(Op("quotient", (f"D{2 * n}", k), [2 * k, k <= 2]))
    n = pick(rng, 4, 64, lambda n: len(divisors(n)) > 2)
    d = rng.choice(divisors(n)[1:-1])
    ops.append(Op("quotient", (f"Z{n}", d), [n // d, True]))
    families = [("unknot-sphere", (pick(rng, 5, 40),)) for _ in range(3)]
    families += [("equal-product", (1,)), ("equal-product", (2,))]
    families += [("equal-product", (pick(rng, 3, 40, lambda p: p % 2 == par),))
                 for par in (1, 1, 0, 0)]
    for _ in range(2):
        p = pick(rng, 2, 30)
        families.append(("unequal-product", (p, pick(rng, p + 1, 40))))
    families += [("adjacent-product", (8 * rng.randint(1, 5) + 6,)) for _ in range(2)]
    ops += [Op("classify", (kind, params), classify_row(kind, params)) for kind, params in families]
    for par in (1, 1, 0, 0):
        p = pick(rng, 3, 40, lambda p: p % 2 == par)
        ops.append(Op("cross_validate", (p,), cross_check_names(p)))
    rng.shuffle(ops)
    return ops


def sweep_ops(rng: random.Random) -> list[Op]:
    ops = [Op("enumerate_sp", (3,), sp_order(3))]
    for k in range(4, 9):
        for kind in ("arf", "arf", "arf_by_majority", "arf_by_majority"):
            bits = [rng.randrange(2) for _ in range(2 * k)]
            ops.append(Op(kind, (bits,), arf_of_standard(bits)))
    for n_tokens in (40, 80, 120, 160, 200):
        for _ in range(24):
            tokens, sign = normal_word(rng, n_tokens)
            m = word_matrix(tokens, sign)
            ops.append(Op("eval_word", (tokens, sign), m))
            ops.append(Op("decompose", (m,), [tokens, sign]))
    rng.shuffle(ops)
    return ops


# the eight acceptance checks, by the names their results carry
ACCEPTANCE_NAMES = ["membership-characterization", "symplectic-census", "coset-enumeration",
                    "word-algebra", "ambient-matrices", "classification-table",
                    "homotopy-tables", "property-suites"]


def acceptance_ops(rng: random.Random) -> list[Op]:
    return [Op("run_all", (), ACCEPTANCE_NAMES)]


# cli: malformed inputs whose documented answer is exit 2 with a one-line message
CLI_MALFORMED = (
    ["member", "{bad json"], ["eval-word", "V^x"], ["coset-enum", "gens a"],
    ["isomorphic", "foo:3", "klein"], ["arf", '{"basis_values": [1, 0, 1]}'],
    ["isomorphic", "cyclic:x", "klein"], ["arf", "[1, 2]"], ["induced-action"],
    ["classify", "--family", "equal-product"], ["decompose", "nope"],
)

# Known defects (ROADMAP aim 3): each should exit 2 with a one-line message,
# or finish.  They fail at the time this benchmark was written, so they run
# only in the separate `known-defects` probe, never in the four workloads.
CLI_DEFECTS = (
    ["member", "[1,2]"], ["member", '{"rows":[[true,0],[0,true]]}'],
    ["arf", '{"basis_values":5}'], ["isomorphic", '{"table":5}', "klein"],
    ["arf", '{"basis_values":[0,0],"gram":5}'],
    ["induced-action", '{"size":3,"entries":[[0,"a",1],[1,1,1],[2,2,1]]}', "--p", "1"],
    ["coset-enum", "gens: a; rels: a^2", "--max-cosets", "-5"],
)


def cli_ops(rng: random.Random) -> list[Op]:
    """One pass: three rounds of 30 well-formed calls in a fixed mix of
    kinds, and the 10 malformed inputs."""
    ops = []
    for _ in range(3):
        cli_round(rng, ops)
    ops += [Op("cli", (list(argv),), {"code": 2, "out": None, "first": None, "json": None})
            for argv in CLI_MALFORMED]
    rng.shuffle(ops)
    return ops


def cli_round(rng: random.Random, ops: list[Op]):
    """Append 30 well-formed calls over 13 subcommands, with their answers."""

    def call(argv, code=0, out=None, first=None, js=None):
        ops.append(Op("cli", (argv,), {"code": code, "out": out, "first": first, "json": js}))

    def refinement(k):
        bits = [rng.randrange(2) for _ in range(2 * k)]
        return bits, json.dumps({"basis_values": bits})

    for k in (1, 2, 3):
        bits, blob = refinement(k)
        call(["arf", blob], out=str(arf_of_standard(bits)))
    for k in (1, 2):
        bits, blob = refinement(k)
        call(["orbit", blob], first=f"order {orbit_size(k, arf_of_standard(bits))}")
        bits, blob = refinement(k)
        call(["stabilizer", blob],
             first=f"order {sp_order(k) // orbit_size(k, arf_of_standard(bits))}")
    k = rng.randint(1, 2)
    call(["enumerate-sp", "--k", str(k), "--count", "--json"], js={"order": sp_order(k)})
    for _ in range(3):
        tokens, sign = normal_word(rng, rng.randint(2, 12))
        m = word_matrix(tokens, sign)
        member = rng.random() < 0.5
        if not member:  # (1 1 / 0 1) lies outside the even-row-product subgroup
            m = mat_mul(((1, 1), (0, 1)), m)
        call(["member", json.dumps({"rows": m})], out="true" if member else "false")
    for _ in range(2):
        tokens, sign = normal_word(rng, rng.randint(2, 12))
        v_count = sum(g == "V" for g, _ in tokens)
        call(["mod2", json.dumps({"rows": word_matrix(tokens, sign)})],
             out="V" if v_count % 2 else "Id")
    for _ in range(3):
        tokens, sign = normal_word(rng, rng.randint(2, 16))
        call(["decompose", json.dumps({"rows": word_matrix(tokens, sign)})],
             out=word_text(tokens, sign))
    for _ in range(3):
        tokens, sign = normal_word(rng, rng.randint(1, 12))
        (a, b), (c, d) = word_matrix(tokens, sign)
        call(["eval-word", word_text(tokens, sign)], out=f"{a} {b} / {c} {d}")
    text, order = dihedral_presentation(rng.randint(3, 12))
    call(["coset-enum", text], out=f"order {order}")
    text, order = cyclic_presentation(rng.randint(2, 24))
    call(["coset-enum", text, "--json"], js={"order": order})
    call(["coset-enum", GAMMA, "--max-cosets", "500"], code=1)
    shorthand = [("klein", "V4"), ("quaternion:8", "Q8"), ("e-even", "E_even")]
    shorthand += [(f"cyclic:{n}", f"Z{n}") for n in (2, 4, 6, 8, 12, 16)]
    shorthand += [(f"dihedral:{n}", f"D{n}") for n in (4, 8, 12, 16)]
    for _ in range(2):
        (a, la), (b, lb) = rng.sample(shorthand, 2)
        call(["isomorphic", a, b], out="true" if class_key(la) == class_key(lb) else "false")
    p = rng.choice((3, 5, 7, 9))
    call(["build-omega", "--p", str(p)], first=f"size {2 * p + 3}, determinant 1, order 4")
    p = rng.choice((3, 5, 7))
    call(["induced-action", "--variant", "plain", "--p", str(p)], out="0 -1 / 1 0")
    variant, rows = rng.choice((("hat", "0 1 / 1 0"), ("prime", "-1 0 / 0 -1")))
    call(["induced-action", "--variant", variant, "--p", str(rng.choice((4, 6, 8)))], out=rows)
    for kind, flag, params in (("unknot-sphere", "--n", (pick(rng, 5, 30),)),
                               ("equal-product", "--p", (pick(rng, 1, 30),)),
                               ("adjacent-product", "--p", (8 * rng.randint(1, 4) + 6,))):
        image, kernel, total, splits = classify_row(kind, params)
        call(["classify", "--family", kind, flag, str(params[0]), "--json"],
             js={"image": image, "kernel": kernel, "total": total, "splits": splits})


def known_defect_ops(rng: random.Random) -> list[Op]:
    ops = [Op("is_isomorphic", ("Z2^6", "Z2^6"), True)]
    ops += [Op("cli", (list(argv),), {"code": 2, "out": None, "first": None, "json": None})
            for argv in CLI_DEFECTS]
    return ops


def warmup_ops(workload: str) -> list[Op]:
    """One smallest-size op of each kind the workload runs."""
    if workload == "acceptance":
        return acceptance_ops(random.Random(0))
    if workload == "sweep":
        return [Op("enumerate_sp", (1,), 6), Op("arf", ([0, 0],), 0),
                Op("arf_by_majority", ([1, 1],), 1),
                Op("eval_word", ([["V", 1]], 1), ((0, -1), (1, 0))),
                Op("decompose", (((0, -1), (1, 0)),), [[["V", 1]], 1])]
    if workload == "groups":
        return [Op("build", ("Z1",), 1), Op("todd_coxeter", cyclic_presentation(2)[:1] + (100,), 2),
                Op("is_isomorphic", ("Z2", "D2"), True), Op("all_subgroups", ("Z2",), 2),
                Op("has_complement", ("D6", "rotations"), True), Op("quotient", ("Z4", 2), [2, True]),
                Op("classify", ("unknot-sphere", (5,)), classify_row("unknot-sphere", (5,))),
                Op("cross_validate", (3,), cross_check_names(3))]
    ok = {"code": 0, "out": None, "first": None, "json": None}
    argvs = (["arf", '{"basis_values": [0, 0]}'], ["orbit", '{"basis_values": [1, 1]}'],
             ["stabilizer", '{"basis_values": [1, 1]}'], ["enumerate-sp", "--k", "1", "--count"],
             ["member", '{"rows": [[1, 0], [0, 1]]}'], ["mod2", '{"rows": [[1, 0], [0, 1]]}'],
             ["decompose", '{"rows": [[1, 0], [0, 1]]}'], ["eval-word", "e"],
             ["coset-enum", "gens: a; rels: a^2"], ["isomorphic", "klein", "klein"],
             ["build-omega", "--p", "3"], ["induced-action", "--variant", "plain", "--p", "3"],
             ["classify", "--family", "unknot-sphere", "--n", "5"])
    return [Op("cli", (list(argv),), ok) for argv in argvs] + [
        Op("cli", (["member", "{bad json"],), dict(ok, code=2))]


GENERATORS = {"acceptance": acceptance_ops, "groups": groups_ops, "sweep": sweep_ops,
              "cli": cli_ops, "known-defects": known_defect_ops}


def generate(workload: str, seed: int) -> list[Op]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def op_list_digest(ops: list[Op]) -> str:
    blob = json.dumps([op.describe() for op in ops], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# running one op and checking its answer


@dataclass
class CliResult:
    code: int
    out: str
    err: str


class Runner:
    """Turns ops into timed callables for one run.

    Group tables and parsed presentations are built once per run, before
    timing; they hold no lazily cached state.  ``cli_mode`` is "process"
    (one cold ``python -m extmcg.cli`` child per op) or "inline"
    (``cli.main`` in this process, for the traced run and set-up).
    """

    def __init__(self, root, cli_mode: str = "process"):
        self.root = root
        self.cli_mode = cli_mode
        self.env = child_env(root)
        self.groups: dict[str, smallgrp.MulTableGroup] = {}
        self.cli_peak_kb = 0
        self._files = None

    def close(self):
        if self._files:
            for f in self._files:
                f.close()
            self._files = None

    def group(self, label):
        if label not in self.groups:
            self.groups[label] = build(CATALOG[label][0])
        return self.groups[label]

    def prepare(self, op: Op):
        a = op.args
        kind = op.kind
        if kind == "run_all":
            return lambda: verify.run_all()
        if kind == "build":
            recipe = CATALOG[a[0]][0]
            return lambda: build(recipe)
        if kind == "todd_coxeter":
            pres, cap = smallgrp.parse_presentation(a[0]), a[1]

            def call():
                try:
                    return smallgrp.todd_coxeter(pres, max_cosets=cap).order
                except smallgrp.CosetCapacityError:
                    return "CosetCapacityError"
            return call
        if kind == "is_isomorphic":
            g, h = self.group(a[0]), self.group(a[1])
            return lambda: smallgrp.is_isomorphic(g, h)
        if kind == "all_subgroups":
            g = self.group(a[0])
            return lambda: smallgrp.all_subgroups(g)
        if kind == "has_complement":
            g, normal = self.group(a[0]), self.normal_subgroup(*a)
            return lambda: smallgrp.has_complement(g, normal)
        if kind == "quotient":
            g, normal = self.group(a[0]), self.normal_subgroup(*a)
            return lambda: smallgrp.quotient(g, normal)
        if kind == "classify":
            family = family_of(*a)
            return lambda: classifier.classify(family)
        if kind == "cross_validate":
            family = classifier.KnotFamily.equal_product(a[0])
            return lambda: classifier.cross_validate(family)
        if kind == "enumerate_sp":
            return lambda: f2_forms.enumerate_sp(a[0])
        if kind in ("arf", "arf_by_majority"):
            bits, k = tuple(a[0]), len(a[0]) // 2
            if kind == "arf":
                return lambda: f2_forms.arf(
                    f2_forms.QuadraticRefinement(f2_forms.standard_space(k), bits))
            return lambda: f2_forms.arf_by_majority(
                f2_forms.QuadraticRefinement(f2_forms.standard_space(k), bits))
        if kind == "eval_word":
            word = sl2z.GenWord(tuple(map(tuple, a[0])), a[1])
            return lambda: sl2z.eval_word(word)
        if kind == "decompose":
            (p, q), (r, s) = a[0]
            m = sl2z.UniModMat2(p, q, r, s)
            return lambda: sl2z.decompose(m)
        if kind == "cli":
            argv = list(a[0])
            if self.cli_mode == "inline":
                return lambda: run_cli_inline(argv)
            return lambda: self.run_cli_process(argv)
        raise ValueError(f"unknown op kind {kind!r}")

    @staticmethod
    def normal_subgroup(label, which):
        """The normal subgroup an op names, from the builders' index conventions."""
        if which == "rotations":  # dihedral: element 2i is r^i
            return frozenset(range(0, int(label[1:]), 2))
        if which == "klein":  # build_E_even: the Klein kernel sits at indices 4k
            return frozenset((0, 4, 8, 12))
        if which == "normal_factor":  # semidirect product: (a, x) has index a*|H| + x
            return frozenset(range(0, 20, 4))
        if which == "centre":  # quaternion: 0 is 1 and 4 is -1
            return frozenset((0, 4))
        n = int(label[1:])
        if label.startswith("D"):  # <r^k> in D_n
            return frozenset(2 * j for j in range(0, n // 2, which))
        return frozenset(range(0, n, n // which))  # the subgroup of order `which` in Z_n

    def run_cli_process(self, argv) -> CliResult:
        if self._files is None:
            self._files = (tempfile.TemporaryFile(dir=self.root / "perfbench" / "out"),
                           tempfile.TemporaryFile(dir=self.root / "perfbench" / "out"))
        out, err = self._files
        for f in self._files:
            f.seek(0)
            f.truncate()
        proc = subprocess.Popen([sys.executable, "-m", "extmcg.cli", *argv], cwd=self.root,
                                env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # the op's time limit: stop the child, then re-raise
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cli_peak_kb = max(self.cli_peak_kb, usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return CliResult(proc.returncode, out.read().decode(), err.read().decode())


def child_env(root) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli_inline(argv) -> CliResult:
    import contextlib
    import io
    import traceback

    from extmcg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter would do with an uncaught error
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def is_isomorphism(g, h, phi) -> bool:
    n = g.order
    return (sorted(phi) == list(range(n))
            and all(phi[g.table[a][b]] == h.table[phi[a]][phi[b]]
                    for a in range(n) for b in range(n)))


def is_symplectic_std(matrix) -> bool:
    """S^T J S = J for the standard form, by this benchmark's own arithmetic."""
    n = len(matrix)
    cols = [[matrix[i][j] for i in range(n)] for j in range(n)]

    def pair(u, v):
        return sum(u[2 * i] * v[2 * i + 1] + u[2 * i + 1] * v[2 * i] for i in range(n // 2)) % 2

    return all(pair(cols[a], cols[b]) == (1 if a ^ 1 == b else 0)
               for a in range(n) for b in range(n))


def check(runner: Runner, op: Op, result) -> bool:
    e, a, kind = op.expect, op.args, op.kind
    if kind == "run_all":
        return [r.name for r in result] == e and all(r.passed for r in result)
    if kind == "build":
        return result.order == e
    if kind == "todd_coxeter":
        return result == e
    if kind == "is_isomorphic":
        ok, phi = result
        if ok != e:
            return False
        return not ok or is_isomorphism(runner.group(a[0]), runner.group(a[1]), phi)
    if kind == "all_subgroups":
        return len(result) == e
    if kind == "has_complement":
        return result is e
    if kind == "quotient":
        t = result.table
        abelian = all(t[x][y] == t[y][x] for x in range(len(t)) for y in range(len(t)))
        return [result.order, abelian] == e
    if kind == "classify":
        js = result.to_json()
        return [js["image"], js["kernel"], js["total"], js["splits"]] == e
    if kind == "cross_validate":
        return [c.name for c in result] == e and all(c.passed for c in result)
    if kind == "enumerate_sp":
        if len(result) != e:
            return False
        if any(not x.matrix < y.matrix for x, y in zip(result, result[1:])):
            return False
        sample = random.Random(len(result)).sample(range(len(result)), min(64, len(result)))
        return all(is_symplectic_std(result[i].matrix) for i in sample)
    if kind in ("arf", "arf_by_majority"):
        return result == e
    if kind == "eval_word":
        return [list(r) for r in result.rows] == [list(r) for r in e]
    if kind == "decompose":
        return [[g, x] for g, x in result.tokens] == [list(t) for t in e[0]] and result.sign == e[1]
    if kind == "cli":
        return check_cli(e, result)
    raise ValueError(f"unknown op kind {kind!r}")


def check_cli(e: dict, r: CliResult) -> bool:
    if r.code != e["code"]:
        return False
    if r.code:  # a one-line message on stderr, nothing on stdout, no traceback
        lines = r.err.splitlines()
        return (not r.out and len(lines) == 1 and lines[0].startswith("error: ")
                and "Traceback" not in r.err)
    if r.err:
        return False
    if e["out"] is not None and r.out.strip() != e["out"]:
        return False
    if e["first"] is not None and r.out.splitlines()[:1] != [e["first"]]:
        return False
    if e["json"] is not None:
        try:
            payload = json.loads(r.out)
        except json.JSONDecodeError:
            return False
        return all(payload.get(k) == v for k, v in e["json"].items())
    return True
