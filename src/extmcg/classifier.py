"""Classification of extendable mapping class groups for the supported
families of standardly embedded sphere products.

Every result cites tags from STATEMENTS, a registry of the mathematical
facts this library encodes; fields the encoded statements do not
determine are explicit Unknown values carrying a reason, never guesses.
Groups of homotopy spheres (Theta_n) stay symbolic: nothing here computes
or looks up their orders.  Only `smallgrp` loads with this module; the
other algebra modules load in the functions that use them.
"""

from __future__ import annotations

import functools

from . import smallgrp
from .errors import _Value


class UnsupportedFamilyError(ValueError):
    pass


class FamilyParameterError(ValueError):
    pass


# ---------------------------------------------------------------------------
# registry of encoded statements


STATEMENTS: dict[str, str] = {
    "unknot-trivial":
        "For n >= 5, every extendable mapping class of the standardly "
        "embedded n-sphere in the (n+2)-sphere is trivial.",
    "torus-even-products":
        "The extendable mapping class group of the standardly embedded torus "
        "in the 4-sphere consists exactly of the SL(2,Z) matrices "
        "(a b / c d) with a*b and c*d both even.",
    "odd-image":
        "For odd p >= 3, the image of the extendable mapping class group of "
        "S^p x S^p in S^(2p+2) on middle homology is the subgroup of SL(2,Z) "
        "of matrices congruent to the identity or the quarter turn V mod 2.",
    "odd-kernel":
        "For odd p >= 3, an extendable class of S^p x S^p in S^(2p+2) acting "
        "trivially on middle homology is pseudo-isotopic to the identity.",
    "odd-total":
        "For odd p >= 1, the extendable mapping class group of S^p x S^p in "
        "S^(2p+2) is isomorphic to the even-row-product subgroup of SL(2,Z).",
    "even-kernel":
        "For even p >= 4, the extendable classes of S^p x S^p in S^(2p+2) "
        "acting trivially on homology form a Klein four-group generated by "
        "the two one-sided coordinate reflections.",
    "even-image":
        "For even p >= 4, the homology image of the extendable mapping class "
        "group of S^p x S^p in S^(2p+2) is the Klein four-group generated by "
        "the factor swap and -identity.",
    "even-total":
        "For even p >= 4, the extendable mapping class group of S^p x S^p in "
        "S^(2p+2) is the direct product of the dihedral group of order eight "
        "with a cyclic group of order two.",
    "even-sequence":
        "For even p >= 4, the extendable mapping class group of S^p x S^p is "
        "an extension of its Klein four homology image by its Klein four "
        "homology-trivial kernel, of order 16.",
    "even-splits-computed":
        "In the order-16 model ((Z2 x Z2) x| swap) x Z2 of the even case, the "
        "homology-trivial Klein subgroup has a complement; the extension "
        "splits.  Verified by exhaustive subgroup search on the model, not "
        "asserted as part of the encoded classification.",
    "dim2-image":
        "For S^2 x S^2 in S^6, both generators of the pseudo-isotopy mapping "
        "class group Z2 + Z2 admit representatives that extend to the "
        "6-sphere, so the homology image of the extendable group is all of "
        "Z2 + Z2.",
    "unequal-image":
        "For 2 <= p < q, the image of the extendable mapping class group of "
        "S^p x S^q in S^(p+q+2) on the two middle homology generators is the "
        "order-2 group generated by simultaneous reversal of both.",
    "adjacent-split":
        "For the product of spheres of adjacent dimensions p-2 and p-1 in "
        "S^(2p-1), with p = 6 mod 8 and p >= 9, the extendable mapping class "
        "group is a split extension of Z2 by Z2, hence Klein four.",
    "so-tables":
        "SPi_p(SO(p)) for p >= 3 depends only on p mod 8, namely Z2+Z2, Z2, "
        "Z2, Z, Z2, 0, Z2, Z for residues 0..7, except that it is trivial at "
        "p = 6.  For even p >= 4, pi_p(SO(p+1)) is Z2+Z2 at p = 0 mod 8 and "
        "Z2 otherwise; pi_p(SO(p+2)) is Z2 at p = 0 mod 8 and 0 otherwise.",
    "arf-zero-standard":
        "The quadratic refinement carried by the standardly embedded product "
        "of equal-dimensional spheres vanishes on the two standard basis "
        "cycles and has Arf invariant zero; homology actions of extendable "
        "classes preserve it.",
    "arf-census":
        "A 2k-dimensional nondegenerate symplectic space over GF(2) has "
        "2^(2k) quadratic refinements, of which 2^(2k-1) + 2^(k-1) have Arf "
        "invariant 0; the Arf invariant is the value a refinement takes on a "
        "strict majority of vectors.",
    "sp-census":
        "Sp(2,2) has order 6 and Sp(4,2) order 720; the refinements of Arf 0 "
        "and 1 form single orbits, with stabilizer orders 72 and 120 at k=2.",
    "gammav2-presentation":
        "The even-row-product subgroup of SL(2,Z) is generated by "
        "V = (0 -1 / 1 0) and T = (1 2 / 0 1) with defining relations "
        "V^4 = Id and V^2 T = T V^2; modulo +-Id it is the free product of "
        "Z2 and Z.",
    "mod2-membership":
        "An SL(2,Z) matrix has both row products even exactly when its mod-2 "
        "reduction is the identity or the quarter turn V.",
    "d8-presentation":
        "The group presented by gens a, b, u with relations a^2, b^2, u^2, "
        "ab = ba, au = ub is the dihedral group of order eight.",
    "omega-action":
        "The ambient rotation restricting to (a, b) -> (R(b), a) has "
        "determinant +1 and order 4, and induces the quarter turn "
        "(0 -1 / 1 0) on middle homology.",
    "omega-hat-action":
        "For even p, the ambient involution restricting to the factor swap "
        "(a, b) -> (b, a) has determinant +1 and induces (0 1 / 1 0).",
    "omega-prime-action":
        "The diagonal ambient involution restricting to (a, b) -> "
        "(R(a), R(b)) has determinant +1; for equal factor dimensions it "
        "induces -identity on middle homology.",
}


# ---------------------------------------------------------------------------
# families


class KnotFamily(_Value):
    """A supported family of standardly embedded sphere (products), checked
    here whoever builds it: an unknown kind raises UnsupportedFamilyError,
    and params that are not a list or tuple of the kind's plain ints (no
    bool, float or str), or break its rule, raise FamilyParameterError."""

    __slots__ = _fields = ("kind", "params")

    # each kind: its dimension names, its rule on them with the message for
    # a family that breaks it, and its embedded manifold
    _KINDS = {
        "unknot-sphere": (("n",), lambda n: n >= 5, "n = {n} must be at least 5",
                          lambda n: f"S^{n} in S^{n + 2}"),
        "equal-product": (("p",), lambda p: p >= 1, "p = {p} must be at least 1",
                          lambda p: f"S^{p} x S^{p} in S^{2 * p + 2}"),
        "unequal-product": (("p", "q"), lambda p, q: 2 <= p < q,
                            "need 2 <= p < q, got p = {p}, q = {q}",
                            lambda p, q: f"S^{p} x S^{q} in S^{p + q + 2}"),
        "adjacent-product": (("p",), lambda p: p >= 9 and p % 8 == 6,
                             "p = {p} must be at least 9 and congruent to 6 mod 8",
                             lambda p: f"S^{p - 2} x S^{p - 1} in S^{2 * p - 1}"),
    }

    def __new__(cls, kind: str, params: tuple[int, ...]):
        if not isinstance(kind, str) or kind not in cls._KINDS:
            raise UnsupportedFamilyError(f"unknown family kind {kind!r}")
        names, rule, breach, _ = cls._KINDS[kind]
        if not isinstance(params, (tuple, list)) or len(params) != len(names):
            raise FamilyParameterError(
                f"{kind} takes the dimensions ({', '.join(names)}), got {params!r}")
        dims = dict(zip(names, params))
        for name, value in dims.items():
            if type(value) is not int:
                raise FamilyParameterError(f"{name} = {value!r} must be an integer")
        if not rule(*params):
            raise FamilyParameterError(breach.format(**dims))
        return cls._trusted(kind, tuple(params))

    @classmethod
    def unknot_sphere(cls, n: int) -> "KnotFamily":
        return cls("unknot-sphere", (n,))

    @classmethod
    def equal_product(cls, p: int) -> "KnotFamily":
        return cls("equal-product", (p,))

    @classmethod
    def unequal_product(cls, p: int, q: int) -> "KnotFamily":
        return cls("unequal-product", (p, q))

    @classmethod
    def adjacent_product(cls, p: int) -> "KnotFamily":
        return cls("adjacent-product", (p,))

    def describe(self) -> str:
        return self._KINDS[self.kind][3](*self.params)


# ---------------------------------------------------------------------------
# group descriptors


class Unknown(_Value):
    __slots__ = _fields = ("reason",)


class GroupDescriptor(_Value):
    """Named group with an attached concrete realization.

    Finite names carry a multiplication table; the infinite matrix group
    carries its presentation (relators checkable against actual matrices).
    """

    __slots__ = _fields = ("name", "realization")

    _BUILDERS = {
        "trivial": lambda: smallgrp.cyclic(1),
        "Z2": lambda: smallgrp.cyclic(2),
        "Z2xZ2": lambda: smallgrp.klein(),
        "D8xZ2": lambda: smallgrp.direct_product(smallgrp.dihedral(8), smallgrp.cyclic(2)),
        "GammaV2": lambda: smallgrp.GAMMA_V2_PRESENTATION,
    }

    @classmethod
    def of(cls, name: str) -> "GroupDescriptor":
        if name not in cls._BUILDERS:
            raise UnsupportedFamilyError(f"no canonical realization for {name!r}")
        return cls(name, _canonical(name))

    def order(self) -> int | None:
        if isinstance(self.realization, smallgrp.MulTableGroup):
            return self.realization.order
        return None

    def verify_realization(self) -> bool:
        """Realization matches the name: table isomorphism for finite names;
        for the infinite one, the library's presentation, whose relators
        hold on the actual matrices."""
        if self.name == "GammaV2":
            from . import sl2z

            return (self.realization == smallgrp.GAMMA_V2_PRESENTATION
                    and sl2z.failing_relator(self.realization) is None
                    and sl2z.is_member(sl2z.V) and sl2z.is_member(sl2z.T))
        if not isinstance(self.realization, smallgrp.MulTableGroup):
            return False
        # a fresh build, not the shared one of _canonical, so a table that
        # no longer matches its name is compared with what the name builds
        ok, _ = smallgrp.is_isomorphic(self.realization, self._BUILDERS[self.name]())
        return ok


@functools.cache
def _canonical(name: str) -> smallgrp.MulTableGroup | smallgrp.Presentation:
    """The realization of a canonical name, built once per process and
    shared by every descriptor of that name; realizations are immutable."""
    return GroupDescriptor._BUILDERS[name]()


# ---------------------------------------------------------------------------
# classification results


class ClassificationResult(_Value):
    __slots__ = _fields = ("family", "image", "kernel", "total", "splits", "citations",
                           "notes")

    def __new__(cls, family: KnotFamily, image: GroupDescriptor | Unknown,
                kernel: GroupDescriptor | Unknown, total: GroupDescriptor | Unknown,
                splits: bool | Unknown, citations: tuple[str, ...],
                notes: tuple[str, ...] = ()):
        if not citations:
            raise ValueError("a classification must cite at least one statement")
        for tag in citations:
            if tag not in STATEMENTS:
                raise ValueError(f"citation {tag!r} is not a registered statement")
        parts = [kernel, image, total]
        if all(isinstance(g, GroupDescriptor) for g in parts):
            orders = [g.order() for g in parts]
            if all(o is not None for o in orders) and orders[0] * orders[1] != orders[2]:
                raise ValueError(
                    f"orders are inconsistent: |kernel| * |image| = "
                    f"{orders[0]} * {orders[1]} != |total| = {orders[2]}")
        return cls._trusted(family, image, kernel, total, splits, citations, notes)

    def to_json(self) -> dict:
        out: dict = {"family": {"kind": self.family.kind,
                                "params": list(self.family.params)},
                     "manifold": self.family.describe()}
        for label in ("image", "kernel", "total", "splits"):
            value = getattr(self, label)
            if isinstance(value, Unknown):
                out[label] = None
                out[f"{label}_reason"] = value.reason
            else:
                out[label] = value.name if isinstance(value, GroupDescriptor) else value
        out["citations"] = list(self.citations)
        out["notes"] = list(self.notes)
        return out


@functools.cache
def _even_model_splits() -> bool:
    group = smallgrp.build_E_even()
    gens = smallgrp.E_EVEN_GENS
    kernel = group.closure({gens["delta1"], gens["delta2"]})
    return smallgrp.has_complement(group, kernel)


# The paper's cases, (kind, case) -> (image, kernel, total, splits, citations,
# notes): a str names a canonical group, built by `GroupDescriptor.of` when
# read, an Unknown stays as written, and a callable splits is computed.
_CASES = {
    ("unknot-sphere", None): ("trivial", "trivial", "trivial", True, ("unknot-trivial",), ()),
    ("equal-product", 1): (
        "GammaV2", "trivial", "GammaV2", True, ("torus-even-products", "odd-total"),
        ("the classes are exactly their matrices here, so the homology action is "
         "injective with the stated image",)),
    ("equal-product", 2): (
        "Z2xZ2", Unknown("homology-trivial extendable classes in dimension 2 are not "
                         "determined here"),
        Unknown("only the homology image is determined in dimension 2"),
        Unknown("extension structure unknown in dimension 2"), ("dim2-image",),
        ("both pseudo-isotopy generators extend to the ambient 6-sphere",)),
    ("equal-product", "odd"): (
        "GammaV2", "trivial", "GammaV2", True, ("odd-image", "odd-kernel", "odd-total"), ()),
    ("equal-product", "even"): (
        "Z2xZ2", "Z2xZ2", "D8xZ2", _even_model_splits,
        ("even-image", "even-kernel", "even-total", "even-sequence", "even-splits-computed"),
        ("splits is computed on the order-16 model by subgroup search, not quoted from "
         "the classification",)),
    ("unequal-product", None): (
        "Z2", Unknown("homology-trivial extendable classes are not determined for "
                      "unequal dimensions"),
        Unknown("only the homology image is determined for unequal dimensions"),
        Unknown("extension structure unknown for unequal dimensions"), ("unequal-image",), ()),
    ("adjacent-product", None): ("Z2", "Z2", "Z2xZ2", True, ("adjacent-split", "so-tables"), ()),
}


def _case(family: KnotFamily) -> tuple:
    """The key of `family`'s row of _CASES: equal products by p = 1, p = 2,
    odd or even p, every other kind by its kind alone."""
    kind = family.kind
    if kind == "equal-product":
        p = family.params[0]
        return kind, (p if p in (1, 2) else "odd" if p % 2 else "even")
    return kind, None


def classify(family: KnotFamily) -> ClassificationResult:
    """Image / kernel / total of the homology action on extendable classes."""
    *groups, splits, citations, notes = _CASES[_case(family)]
    image, kernel, total = (GroupDescriptor.of(g) if isinstance(g, str) else g for g in groups)
    return ClassificationResult(family, image, kernel, total,
                                splits() if callable(splits) else splits, citations, notes)


# ---------------------------------------------------------------------------
# cross-validation against the other modules


class CrossCheck(_Value):
    __slots__ = _fields = ("name", "passed", "detail")


def _mod2_matrix(m: sl2z.UniModMat2) -> tuple[tuple[int, ...], ...]:
    return ((m.a % 2, m.b % 2), (m.c % 2, m.d % 2))


def cross_validate(family: KnotFamily) -> list[CrossCheck]:
    """Consistency of the classification with the algebra modules.

    Odd equal products: the mod-2 matrix classes of the image group must
    be exactly the symplectic stabilizer of the vanishing refinement, and
    the ambient rotation must induce a member matrix.  Even equal
    products: the order-16 model must match D8 x Z2 and the two ambient
    involutions must generate the declared Klein image.

    Every check here is also made by `verify-all`.  Outside the tests,
    only the benchmark's `groups` workload calls this; it and `CrossCheck`
    go when that workload's op list next changes (ROADMAP item 1).
    """
    from . import ambient_geom, f2_forms, sl2z

    if family.kind != "equal-product":
        raise UnsupportedFamilyError("cross validation covers equal products only")
    p = family.params[0]
    checks: list[CrossCheck] = []

    if p % 2:
        q = f2_forms.QuadraticRefinement(f2_forms.standard_space(1), (0, 0))
        stab = {s.matrix for s in f2_forms.stabilizer(q)}
        classes = {_mod2_matrix(sl2z.IDENTITY), _mod2_matrix(sl2z.V)}
        checks.append(CrossCheck(
            "stabilizer-matches-mod2-image",
            stab == classes,
            f"stabilizer {sorted(stab)} vs mod-2 classes {sorted(classes)}"))
        omega = ambient_geom.build_omega(p)
        action = ambient_geom.induced_homology_action(
            ambient_geom.restrict_to_product(omega, p, p))
        (a, b), (c, d) = action.rows
        mat = sl2z.UniModMat2(a, b, c, d)
        checks.append(CrossCheck(
            "omega-induces-v",
            mat == sl2z.V and sl2z.is_member(mat),
            f"induced action {mat.rows}"))
    else:
        hat = ambient_geom.induced_homology_action(
            ambient_geom.restrict_to_product(ambient_geom.build_omega_hat(p), p, p))
        prime = ambient_geom.induced_homology_action(
            ambient_geom.restrict_to_product(ambient_geom.build_omega_prime(p, p), p, p))
        closure = ambient_geom.homology_group_closure([hat, prime])
        expected = {((0, 1), (1, 0)), ((1, 0), (0, 1)),
                    ((-1, 0), (0, -1)), ((0, -1), (-1, 0))}
        checks.append(CrossCheck(
            "induced-actions-generate-klein",
            {m.rows for m in closure} == expected and all(
                (m * m).rows == ((1, 0), (0, 1)) for m in closure),
            f"closure of size {len(closure)}"))
        if p >= 4:
            model = smallgrp.build_E_even()
            target = smallgrp.direct_product(smallgrp.dihedral(8), smallgrp.cyclic(2))
            ok, _ = smallgrp.is_isomorphic(model, target)
            checks.append(CrossCheck(
                "model-is-d8xz2", ok, f"model order {model.order}"))
            gens = smallgrp.E_EVEN_GENS
            kernel = model.closure({gens["delta1"], gens["delta2"]})
            quot = smallgrp.quotient(model, kernel)
            ok_k, _ = smallgrp.is_isomorphic(quot, smallgrp.klein())
            checks.append(CrossCheck(
                "model-quotient-is-klein",
                model.is_normal(kernel) and len(kernel) == 4 and ok_k,
                f"kernel {sorted(kernel)}, quotient order {quot.order}"))
    return checks
