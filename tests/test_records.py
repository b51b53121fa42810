"""Value semantics of the package's frozen records: equality, hashing, repr,
immutability, keyword construction and validation messages.  A record is a
tuple of its fields, yet equal to no plain tuple and to no record of
another class."""

import copy
import pickle

import pytest

from hilbhasse.field import ContextMismatchError, FieldCtx
from hilbhasse.record import FrozenRecord
from hilbhasse.schubert import GroupElem
from hilbhasse.weyl import Character, CocharDatum, WeylElem
from hilbhasse.zipgroup import ZipGroupElem
from hilbhasse.zips import HilbertZip, ZipReport, check_equivalence
from oracles import OrbitPartition

F2 = FieldCtx(2)
F2_REPR = "FieldCtx(p=2, k=1, modulus=x)"
ONE = f"GroupElem({F2_REPR}, [((F2(1), F2(0)), (F2(0), F2(1)))])"
LOW = f"GroupElem({F2_REPR}, [((F2(1), F2(0)), (F2(1), F2(1)))])"


def _elem(*factors):
    return GroupElem.from_indices(F2, factors)


# per class: a builder taking keywords, keywords of one value, keywords of
# another value, and the exact repr of the first
CASES = {
    "Character": (Character, dict(a=[1, -1], c=0), dict(a=(1, 1), c=0),
                  "Character(a=(1, -1), c=0)"),
    "CocharDatum": (CocharDatum, dict(n=2, p=3, sigma=[0, 1], z=WeylElem.longest(2)),
                    dict(n=2, p=3, sigma=(1, 0), z=WeylElem.longest(2)),
                    "CocharDatum(n=2, p=3, sigma=(0, 1), z=WeylElem(--))"),
    "HilbertZip": (HilbertZip, dict(ctx=F2, n=1, omega=[(1, 0)], conj=[(0, 1)]),
                   dict(ctx=F2, n=1, omega=[(1, 0)], conj=[(1, 0)]),
                   f"HilbertZip(ctx={F2_REPR}, n=1, omega=((1, 0),), conj=((0, 1),))"),
    "ZipReport": (ZipReport, dict(flags=(True, False), m_max=1), dict(flags=(True, False), m_max=0),
                  "ZipReport(flags=(True, False), m_max=1)"),
    "ZipGroupElem": (ZipGroupElem, dict(a=_elem((1, 0, 1, 1)), b=_elem((1, 0, 0, 1))),
                     dict(a=_elem((1, 0, 0, 1)), b=_elem((1, 0, 0, 1))),
                     f"ZipGroupElem(a={LOW}, b={ONE})"),
    "OrbitPartition": (OrbitPartition, dict(classes=((_elem((1, 0, 0, 1)),),),
                                            labels=(WeylElem((1,)),)),
                       dict(classes=((_elem((1, 0, 0, 1)),),), labels=(WeylElem((-1,)),)),
                       f"OrbitPartition(classes=(({ONE},),), labels=(WeylElem(+),))"),
}


@pytest.mark.parametrize("name", CASES)
def test_records_are_frozen_values(name):
    cls, fields, other_fields, text = CASES[name]
    x, y = cls(**fields), cls(*fields.values())
    assert x is not y and x == y and hash(x) == hash(y)
    assert not x != y
    assert repr(x) == repr(y) == text
    assert x != cls(**other_fields)
    plain = tuple(getattr(x, f) for f in fields)
    assert x != plain and plain != x and not x == plain and not plain == x
    assert all(x != case[0](**case[1]) for other, case in CASES.items() if other != name)
    twin = tuple.__new__(type(f"Other{name}", (FrozenRecord,),
                              {"__slots__": (), "_fields": cls._fields}), x)
    assert x != twin and twin != x and not x == twin and not twin == x
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.other = None
    assert pickle.loads(pickle.dumps(x)) == x
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(y, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert x == y


def test_zip_report_has_no_instance_dict():
    assert not hasattr(ZipReport((True,), 1), "__dict__")


def test_stored_level_is_outside_equality_hash_and_repr():
    _, fields, _, text = CASES["HilbertZip"]
    z = HilbertZip(**fields)
    seeded = tuple.__new__(HilbertZip, (F2, 1, z.omega, z.conj, 0))  # as enumerate_zips builds it
    assert seeded._level == 0 and z._level is None
    assert seeded == z and hash(seeded) == hash(z) and repr(seeded) == text


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2)])
def test_zip_rebuilds_from_its_fields_over_extension_fields(p, k):
    # the fields are the normalized index pairs, and the constructor takes
    # them as indices: over F_4 the index 3 is u + 1, not the int 3 = 1
    ctx = FieldCtx(p, k)
    top = (1, ctx.q - 1)
    z = HilbertZip(ctx, 2, [top, (0, 1)], [top, (1, ctx.p)])
    fields = tuple(getattr(z, name) for name in HilbertZip._fields)
    for again in (HilbertZip(*fields), pickle.loads(pickle.dumps(z)), copy.copy(z)):
        assert again == z
        assert (again.omega, again.conj) == ((top, (0, 1)), (top, (1, ctx.p)))
        assert check_equivalence(again) == check_equivalence(z) == ZipReport((True, False), 1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Character((1,), 0), ValueError, "parity violated: sum(a)=1 vs c=0"),
    (lambda: CocharDatum(2, 4, (0, 1), WeylElem.longest(2)), ValueError, "p must be prime, got 4"),
    (lambda: CocharDatum(2, 3, (0, 0), WeylElem.longest(2)), ValueError,
     "not a permutation of 0..1: (0, 0)"),
    (lambda: CocharDatum(2, 3, (0, 1), WeylElem.longest(1)), ValueError,
     "rank mismatch between z and n"),
    (lambda: HilbertZip(F2, 2, [(1, 0)], [(1, 0), (1, 0)]), ValueError,
     "omega must hold 2 lines"),
    (lambda: HilbertZip(F2, 1, [(1, 0)], [[1, 0]]), ValueError,
     "conj[0] = [1, 0] is not a 2-tuple"),
    (lambda: HilbertZip(F2, 1, [(True, 0)], [(1, 0)]), ValueError,
     "omega[0] = (True, 0) is not two ints in range(2)"),
    (lambda: HilbertZip(F2, 1, [(1, 2)], [(1, 0)]), ValueError,
     "omega[0] = (1, 2) is not two ints in range(2)"),
    (lambda: HilbertZip(F2, 1, [(1, 0)], [(0, 0)]), ValueError,
     "conj[0] = (0, 0) is not normalized to (1, t) or (0, 1)"),
    (lambda: HilbertZip(FieldCtx(3), 1, [(2, 1)], [(1, 0)]), ValueError,
     "omega[0] = (2, 1) is not normalized to (1, t) or (0, 1)"),
    (lambda: ZipGroupElem(_elem((1, 0, 0, 1)), _elem((1, 0, 0, 1), (1, 0, 0, 1))), ValueError,
     "factor count mismatch"),
    (lambda: ZipGroupElem(_elem((1, 0, 0, 1)), GroupElem.identity(FieldCtx(3), 1)),
     ContextMismatchError, "pair members over different fields"),
    (lambda: ZipGroupElem(_elem((1, 1, 0, 1)), _elem((1, 0, 0, 1))), ValueError,
     "left factor 0 is not lower triangular"),
    (lambda: ZipGroupElem(_elem((1, 0, 0, 1)), _elem((1, 0, 1, 1))), ValueError,
     "right factor 0 is not upper triangular"),
    (lambda: ZipGroupElem(GroupElem.identity(FieldCtx(3), 1),
                          GroupElem.from_indices(FieldCtx(3), ((2, 0, 0, 2),))),
     ValueError, "diagonal of right factor 0 is not the Frobenius of the left diagonal"),
])
def test_records_keep_their_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
