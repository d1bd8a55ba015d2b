"""Classification table and cross-module checks.

The expected rows are written out here independently of the library's own
verification module, descriptor realizations are re-verified, and every
cited statement tag must resolve.
"""

import json
from pathlib import Path

import pytest

from extmcg import classifier as cf
from extmcg import cli, smallgrp, verify


def test_family_validation():
    with pytest.raises(cf.FamilyParameterError):
        cf.KnotFamily.unknot_sphere(4)
    with pytest.raises(cf.FamilyParameterError):
        cf.KnotFamily.equal_product(0)
    with pytest.raises(cf.FamilyParameterError):
        cf.KnotFamily.unequal_product(2, 2)
    with pytest.raises(cf.FamilyParameterError):
        cf.KnotFamily.unequal_product(1, 4)
    with pytest.raises(cf.FamilyParameterError):
        cf.KnotFamily.adjacent_product(13)
    with pytest.raises(cf.FamilyParameterError):
        cf.KnotFamily.adjacent_product(6)  # right residue, too small


@pytest.mark.parametrize("factory,args", [
    ("unknot_sphere", (7.5,)),
    ("unknot_sphere", (7.0,)),
    ("equal_product", (True,)),
    ("equal_product", ("4",)),
    ("unequal_product", (2, 5.0)),
    ("unequal_product", ("2", 5)),
    ("adjacent_product", ("6",)),
    ("adjacent_product", (14.0,)),
])
def test_family_dimensions_must_be_plain_ints(factory, args):
    """A float or bool would compare like an int and classify silently; a
    str would raise TypeError."""
    with pytest.raises(cf.FamilyParameterError, match="must be an integer"):
        getattr(cf.KnotFamily, factory)(*args)


@pytest.mark.parametrize("kind, params, error", [
    (5, (4,), cf.UnsupportedFamilyError),
    (["equal-product"], (4,), cf.UnsupportedFamilyError),
    ("unknot-sphere", (2,), cf.FamilyParameterError),
    ("equal-product", (True,), cf.FamilyParameterError),
    ("equal-product", (), cf.FamilyParameterError),
    ("equal-product", ("4",), cf.FamilyParameterError),
    ("equal-product", 4, cf.FamilyParameterError),
    ("unequal-product", (3,), cf.FamilyParameterError),
    ("adjacent-product", (13,), cf.FamilyParameterError),
], ids=["int-kind", "list-kind", "unknot-n=2", "bool-p", "no-params", "str-p",
        "int-params", "unequal-one-param", "adjacent-p=13"])
def test_hand_built_families_are_checked_at_construction(kind, params, error):
    """A family built directly meets the factories' rules: none of these
    reaches classify, which once called S^2 in S^4 trivial by the n >= 5
    statement and S^True x S^True in S^4 the p = 1 case."""
    with pytest.raises(error):
        cf.KnotFamily(kind, params)


def test_hand_built_family_equals_the_factorys():
    assert cf.KnotFamily("equal-product", [4]) == cf.KnotFamily.equal_product(4)


def test_describe():
    assert cf.KnotFamily.unknot_sphere(7).describe() == "S^7 in S^9"
    assert cf.KnotFamily.equal_product(4).describe() == "S^4 x S^4 in S^10"
    assert cf.KnotFamily.unequal_product(2, 5).describe() == "S^2 x S^5 in S^9"
    assert cf.KnotFamily.adjacent_product(14).describe() == \
        "S^12 x S^13 in S^27"


EXPECTED = [
    ("unknot-sphere", (5,), "trivial", "trivial", "trivial", True),
    ("unknot-sphere", (9,), "trivial", "trivial", "trivial", True),
    ("equal-product", (1,), "GammaV2", "trivial", "GammaV2", True),
    ("equal-product", (2,), "Z2xZ2", None, None, None),
    ("equal-product", (3,), "GammaV2", "trivial", "GammaV2", True),
    ("equal-product", (4,), "Z2xZ2", "Z2xZ2", "D8xZ2", True),
    ("equal-product", (5,), "GammaV2", "trivial", "GammaV2", True),
    ("equal-product", (6,), "Z2xZ2", "Z2xZ2", "D8xZ2", True),
    ("equal-product", (7,), "GammaV2", "trivial", "GammaV2", True),
    ("equal-product", (8,), "Z2xZ2", "Z2xZ2", "D8xZ2", True),
    ("equal-product", (11,), "GammaV2", "trivial", "GammaV2", True),
    ("equal-product", (12,), "Z2xZ2", "Z2xZ2", "D8xZ2", True),
    ("unequal-product", (2, 5), "Z2", None, None, None),
    ("unequal-product", (3, 7), "Z2", None, None, None),
    ("adjacent-product", (14,), "Z2", "Z2", "Z2xZ2", True),
    ("adjacent-product", (22,), "Z2", "Z2", "Z2xZ2", True),
]


@pytest.mark.parametrize("kind,params,image,kernel,total,splits", EXPECTED)
def test_classification_rows(kind, params, image, kernel, total, splits):
    family = cf.KnotFamily(kind, params)
    got = cf.classify(family).to_json()
    assert got["image"] == image
    assert got["kernel"] == kernel
    assert got["total"] == total
    assert got["splits"] == splits
    assert got["citations"]
    if kernel is None:
        assert got["kernel_reason"]
        assert got["splits_reason"]


@pytest.mark.parametrize("kind,params", [(k, p) for k, p, *_ in EXPECTED])
def test_realizations_verify(kind, params):
    result = cf.classify(cf.KnotFamily(kind, params))
    for part in (result.image, result.kernel, result.total):
        if isinstance(part, cf.GroupDescriptor):
            assert part.verify_realization()


def test_citations_resolve():
    for kind, params, *_ in EXPECTED:
        result = cf.classify(cf.KnotFamily(kind, params))
        for tag in result.citations:
            assert tag in cf.STATEMENTS
            assert len(cf.STATEMENTS[tag]) > 20


def test_classify_rejects_unknown_kind():
    with pytest.raises(cf.UnsupportedFamilyError):
        cf.classify(cf.KnotFamily("moebius", (3,)))


def test_describe_rejects_unknown_kind():
    """An unknown kind has no manifold text, as it has no classification;
    it does not fall through to another kind's text."""
    with pytest.raises(cf.UnsupportedFamilyError, match="unknown family kind 'moebius'"):
        cf.KnotFamily("moebius", (3,)).describe()


def test_group_descriptors():
    for name in ("trivial", "Z2", "Z2xZ2", "D8xZ2", "GammaV2"):
        d = cf.GroupDescriptor.of(name)
        assert d.verify_realization()
        if name == "GammaV2":
            assert d.order() is None
        else:
            assert d.order() >= 1
    with pytest.raises(cf.UnsupportedFamilyError):
        cf.GroupDescriptor.of("E8")
    # realization and name disagreeing is caught
    lying = cf.GroupDescriptor("Z2", smallgrp.klein())
    assert not lying.verify_realization()
    # V^2 = -Id is not a relator of the matrix group
    wrong = cf.GroupDescriptor("GammaV2", smallgrp.parse_presentation("gens: V,T; rels: V^2"))
    assert not wrong.verify_realization()
    # V^4 holds on the matrices, but without V^2 T V^-2 T^-1 this is Z4 * Z
    missing = cf.GroupDescriptor("GammaV2", smallgrp.parse_presentation("gens: V,T; rels: V^4"))
    assert not missing.verify_realization()
    assert not cf.GroupDescriptor("GammaV2", smallgrp.klein()).verify_realization()


def test_a_finite_name_realized_by_a_presentation_does_not_verify():
    """Only GammaV2 is realized by a presentation; a finite name needs a
    table."""
    pres = smallgrp.parse_presentation("gens: a; rels: a^2")
    assert not cf.GroupDescriptor("Z2", pres).verify_realization()


@pytest.mark.parametrize("name", ["trivial", "Z2", "Z2xZ2", "D8xZ2"])
def test_realization_is_shared_and_verified_afresh(monkeypatch, name):
    """Descriptors of one name are distinct values sharing one realization;
    verify_realization still calls the builder, counted through _BUILDERS."""
    a, b = cf.GroupDescriptor.of(name), cf.GroupDescriptor.of(name)
    assert a is not b and a == b
    assert a.realization is b.realization
    build = cf.GroupDescriptor._BUILDERS[name]
    calls = []

    def counted():
        calls.append(name)
        return build()

    monkeypatch.setitem(cf.GroupDescriptor._BUILDERS, name, counted)
    assert a.verify_realization()
    assert a.verify_realization()
    assert len(calls) == 2
    assert cf.GroupDescriptor.of(name).realization is a.realization
    assert len(calls) == 2


def test_classify_json_is_golden_cold_and_warm(capsys):
    """classify --json for the 21 rows of the acceptance table, once with
    the shared realizations and the even-model split cleared and once
    warm, matches the golden CLI records."""
    golden = {tuple(r["argv"]): r["stdout"]
              for r in json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())}
    flags = {"unknot-sphere": ("--n",), "unequal-product": ("--p", "--q")}
    rows = verify._expected_rows()
    assert len(rows) == 21
    for family, _ in rows:
        argv = ["classify", "--family", family.kind]
        for flag, value in zip(flags.get(family.kind, ("--p",)), family.params):
            argv += [flag, str(value)]
        argv.append("--json")
        cf._canonical.cache_clear()
        cf._even_model_splits.cache_clear()
        for _ in range(2):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == golden[tuple(argv)]


def test_result_validation():
    fam = cf.KnotFamily.equal_product(4)
    triv = cf.GroupDescriptor.of("trivial")
    with pytest.raises(ValueError):
        cf.ClassificationResult(fam, triv, triv, triv, True, citations=())
    with pytest.raises(ValueError):
        cf.ClassificationResult(fam, triv, triv, triv, True,
                                citations=("not-a-tag",))
    z2 = cf.GroupDescriptor.of("Z2")
    with pytest.raises(ValueError):
        # 1 * 2 != 4
        cf.ClassificationResult(fam, z2, triv, cf.GroupDescriptor.of("Z2xZ2"),
                                True, citations=("even-total",))


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_cross_validate_odd(p):
    checks = cf.cross_validate(cf.KnotFamily.equal_product(p))
    names = {c.name for c in checks}
    assert "stabilizer-matches-mod2-image" in names
    assert "omega-induces-v" in names
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("p,count", [(2, 1), (4, 3), (6, 3)])
def test_cross_validate_even(p, count):
    checks = cf.cross_validate(cf.KnotFamily.equal_product(p))
    assert len(checks) == count
    assert checks[0].name == "induced-actions-generate-klein"
    assert all(c.passed for c in checks)


def test_cross_validate_unsupported():
    with pytest.raises(cf.UnsupportedFamilyError):
        cf.cross_validate(cf.KnotFamily.unknot_sphere(5))
