"""The library's frozen value classes and its shared error classes.

Every value class compares by class and fields, hashes as its field
tuple, refuses assignment and prints as ``Name(field=value, ...)``; the
repr texts below are those the classes printed as frozen dataclasses.
"""

import copy
import pickle
import re
from pathlib import Path

import pytest

from extmcg import ambient_geom as ag
from extmcg import classifier as cl
from extmcg import errors
from extmcg import f2_forms as ff
from extmcg import homotopy_tables as ht
from extmcg import sl2z
from extmcg import smallgrp as sg
from extmcg import verify as vf


def _family():
    return cl.KnotFamily.equal_product(4)


def _z2():
    return cl.GroupDescriptor.of("Z2")


Z2_TEXT = ("GroupDescriptor(name='Z2', "
           "realization=MulTableGroup(table=((0, 1), (1, 0)), identity=0))")

# (class, a builder called twice, the repr)
VALUES = [
    (sl2z.UniModMat2, lambda: sl2z.UniModMat2(1, 2, 0, 1),
     "UniModMat2(a=1, b=2, c=0, d=1)"),
    (sl2z.GenWord, lambda: sl2z.GenWord((("V", 1), ("T", -2))),
     "GenWord(tokens=(('V', 1), ('T', -2)), sign=1)"),
    (ff.SymplecticSpaceF2, lambda: ff.standard_space(1),
     "SymplecticSpaceF2(gram=((0, 1), (1, 0)))"),
    (ff.QuadraticRefinement, lambda: ff.QuadraticRefinement(ff.standard_space(1), (1, 0)),
     "QuadraticRefinement(space=SymplecticSpaceF2(gram=((0, 1), (1, 0))), "
     "basis_values=(1, 0))"),
    (ff.SpElement, lambda: ff.SpElement(((0, 1), (1, 0))),
     "SpElement(columns=(2, 1))"),
    (sg.Presentation, lambda: sg.Presentation(("a",), (((0, 1), (0, 1)),)),
     "Presentation(generators=('a',), relators=(((0, 1), (0, 1)),))"),
    (sg.MulTableGroup, lambda: sg.cyclic(2),
     "MulTableGroup(table=((0, 1), (1, 0)), identity=0)"),
    (ag.SignedPermMatrix, lambda: ag.SignedPermMatrix(2, ((1, -1), (0, 1))),
     "SignedPermMatrix(size=2, image=((1, -1), (0, 1)))"),
    (ag.ProductMapDescriptor, lambda: ag.ProductMapDescriptor((2, 2), True, 1, -1),
     "ProductMapDescriptor(block_sizes=(2, 2), swaps_factors=True, first_block_det=1, "
     "second_block_det=-1)"),
    (cl.KnotFamily, _family,
     "KnotFamily(kind='equal-product', params=(4,))"),
    (cl.Unknown, lambda: cl.Unknown("why"), "Unknown(reason='why')"),
    (cl.GroupDescriptor, _z2, Z2_TEXT),
    (cl.ClassificationResult,
     lambda: cl.ClassificationResult(_family(), _z2(), cl.Unknown("k"), _z2(),
                                     cl.Unknown("s"), ("so-tables",)),
     "ClassificationResult(family=KnotFamily(kind='equal-product', params=(4,)), "
     f"image={Z2_TEXT}, kernel=Unknown(reason='k'), total={Z2_TEXT}, "
     "splits=Unknown(reason='s'), citations=('so-tables',), notes=())"),
    (cl.CrossCheck, lambda: cl.CrossCheck("n", True, "d"),
     "CrossCheck(name='n', passed=True, detail='d')"),
    (ht.FinAbGroup, lambda: ht.FinAbGroup(1, (2, 4)),
     "FinAbGroup(free_rank=1, torsion=(2, 4))"),
    (vf.CheckResult, lambda: vf.CheckResult("n", False, "d", ("a",)),
     "CheckResult(name='n', passed=False, detail='d', citations=('a',))"),
]


def test_every_value_class_is_listed():
    modules = (sl2z, ff, sg, ag, cl, ht, vf)
    found = {obj for mod in modules for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, errors._Value)
             and obj is not errors._Value}
    assert found == {cls for cls, _, _ in VALUES} and len(VALUES) == 16


@pytest.mark.parametrize("cls, build, text", VALUES, ids=[c.__name__ for c, _, _ in VALUES])
def test_value_semantics(cls, build, text):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    fields = tuple(getattr(a, f) for f in cls._fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a != fields and a.__eq__(fields) is NotImplemented
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_fields_cannot_be_deleted():
    family = cl.KnotFamily.equal_product(4)
    with pytest.raises(AttributeError, match="cannot delete field 'kind'"):
        del family.kind
    assert family.kind == "equal-product"


# (name, a value built from lists, the same value built from tuples)
LIST_BUILT = [
    ("QuadraticRefinement", lambda: ff.QuadraticRefinement(ff.standard_space(1), [0, 1]),
     lambda: ff.QuadraticRefinement(ff.standard_space(1), (0, 1))),
    ("SymplecticSpaceF2", lambda: ff.SymplecticSpaceF2([[0, 1], [1, 0]]),
     lambda: ff.standard_space(1)),
    ("refinement-of-list-space",
     lambda: ff.QuadraticRefinement(ff.SymplecticSpaceF2([[0, 1], [1, 0]]), [1, 1]),
     lambda: ff.QuadraticRefinement(ff.standard_space(1), (1, 1))),
    ("Presentation", lambda: sg.Presentation(["a"], [[[0, 1], [0, 1]]]),
     lambda: sg.Presentation(("a",), (((0, 1), (0, 1)),))),
    ("SignedPermMatrix", lambda: ag.SignedPermMatrix(2, [[1, -1], [0, 1]]),
     lambda: ag.SignedPermMatrix(2, ((1, -1), (0, 1)))),
]


@pytest.mark.parametrize("from_lists, from_tuples", [b[1:] for b in LIST_BUILT],
                         ids=[b[0] for b in LIST_BUILT])
def test_list_input_is_stored_as_tuples(from_lists, from_tuples):
    """A list once stayed a list: the value did not hash, compared unequal
    to the one built from tuples, and `orbit` refused it."""
    a, b = from_lists(), from_tuples()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    if isinstance(a, ff.QuadraticRefinement):
        assert ff.orbit(a) == ff.orbit(b) and ff.stabilizer(a) == ff.stabilizer(b)


def test_defaults_and_keywords():
    assert sl2z.GenWord(tokens=(("T", 3),)).sign == 1
    assert sl2z.UniModMat2(d=1, c=0, b=2, a=1) == sl2z.UniModMat2(1, 2, 0, 1)
    result = cl.ClassificationResult(family=_family(), image=_z2(), kernel=_z2(),
                                     total=cl.GroupDescriptor.of("Z2xZ2"), splits=True,
                                     citations=("so-tables",))
    assert result.notes == ()
    with pytest.raises(TypeError):
        sg.MulTableGroup(((0,),), identity=0)
    with pytest.raises(TypeError):
        sl2z.UniModMat2(1, 2, 0)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_values_are_stored_by_trusted_alone():
    """Every `object.__setattr__(` call in src/, by module and enclosing
    function, and every value class's `__init__`.  A value class checks
    its arguments in `__new__` (a record without checks keeps the base
    class's) and stores them through `_trusted`; copies and unpickled
    values are built there too, so the base class's `_trusted` is the one
    generic store, and `__init__` is never a second way in."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        function = None
        for line in path.read_text().splitlines():
            defined = re.match(r"\s*def (\w+)", line)
            if defined:
                function = defined.group(1)
            if "object.__setattr__(" in line:
                sites.append((path.stem, function))
    assert sites == [("errors", "_trusted")]
    assert [cls for cls, _, _ in VALUES if cls.__init__ is not object.__init__] == []


@pytest.mark.parametrize("build", [
    lambda: cl.Unknown(),
    lambda: cl.Unknown("why", "again"),
    lambda: vf.CheckResult("n", False, "d"),
    lambda: ag.ProductMapDescriptor((2, 2), True, 1, -1, 0),
    lambda: cl.CrossCheck(name="n", passed=True, detail="d"),
], ids=["none", "two-for-one", "three-for-four", "five-for-four", "keywords"])
def test_records_take_one_positional_value_per_field(build):
    with pytest.raises(TypeError):
        build()


def test_one_class_per_shared_error():
    assert sl2z.InvalidMatrixError is ag.InvalidMatrixError is errors.InvalidMatrixError
    assert ff.UnsupportedSizeError is sg.UnsupportedSizeError is errors.UnsupportedSizeError
    with pytest.raises(ag.InvalidMatrixError, match="determinant is 2, must be"):
        sl2z.UniModMat2(2, 0, 0, 1)
    with pytest.raises(ff.UnsupportedSizeError, match="order 65 outside"):
        sg.cyclic(65)
