"""The value contract of braidoka's immutable records: equality and hashing
by fields within one class, frozen fields, copy and pickle, the dataclass
`repr` form, validation on construction, and one `__post_init__` call per
construction (the benchmark's tracer counts constructions through it)."""

import copy
import math
import pickle

import pytest

from braidoka._value import int_field
from braidoka.braid import BraidWord, GarsideNormalForm, LinkingNumbers
from braidoka.errors import DegreeTooSmall
from braidoka.families import IndexReport, LaurentFamily
from braidoka.lattice import BranchLocus, LatticeSpec
from braidoka.oka import (
    EPrimeSet,
    GOReducible,
    GOSphereHolomorphic,
    NotGO,
    NotGOSphereAntiholomorphic,
    Oka3Classified,
    Oka3Violation,
    SurfaceHom,
    SurfaceSignature,
)
from braidoka.perms import Permutation
from braidoka.sl2z import SL2Matrix
from braidoka.three import CommutatorPair, CommutatorScanReport, ThreeBraidClass
from braidoka.words import FreeWord, PeripheralPower


def _word():
    return FreeWord(((1, 1), (2, -2)))


# every record class, with a function giving fresh but equal constructor
# arguments in field order
ARGS = {
    BraidWord: lambda: (3, (1, -2)),
    LinkingNumbers: lambda: (3, ((1, 2, 1), (1, 3, 0), (2, 3, 2))),
    GarsideNormalForm: lambda: (3, -1, (Permutation((2, 1, 3)),)),
    LaurentFamily: lambda: (3, {0: {2: -1.0}}),
    IndexReport: lambda: (4, 256, 0.5),
    LatticeSpec: lambda: (1 + 0j, 1j),
    BranchLocus: lambda: ((1 + 0j, 2j, -1 + 0j),),
    SurfaceSignature: lambda: (1, 1),
    SurfaceHom: lambda: (SurfaceSignature(1, 1), "F2", {1: _word(), 2: FreeWord.gen(2)}),
    Oka3Classified: lambda: ("periodicDelta",),
    Oka3Violation: lambda: (_word(), 3, 0.96),
    EPrimeSet: lambda: (SurfaceSignature(1, 1), ((_word(), "commutator"),)),
    GOReducible: lambda: ("a1", _word()),
    GOSphereHolomorphic: lambda: ((1, 2, 3),),
    NotGOSphereAntiholomorphic: lambda: ((1, 2, 3),),
    NotGO: lambda: (None, "no"),
    Permutation: lambda: ((2, 3, 1),),
    SL2Matrix: lambda: (2, 1, 1, 1),
    ThreeBraidClass: lambda: ("pseudoAnosov", 3, 0, False, False, None, None, None, 0.96, 1.63),
    CommutatorPair: lambda: ((1,), (2,), 3, 0.0, 0.0, False, True, 1.0, 2.0),
    CommutatorScanReport: lambda: (2, 21, ()),
    FreeWord: lambda: (((1, 1), (2, -2)),),
    PeripheralPower: lambda: ("a1", 3, False),
}
# a field holds a dict, so the record cannot be hashed
UNHASHABLE = {LaurentFamily, SurfaceHom}
CLASSES = list(ARGS)


def _fields(cls):
    return list(vars(cls)["__annotations__"])


def test_every_record_class_is_listed():
    assert len(CLASSES) == 23
    for cls in CLASSES:
        assert len(_fields(cls)) == len(ARGS[cls]())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records(cls):
    a, b = cls(*ARGS[cls]()), cls(*ARGS[cls]())
    assert a is not b
    assert a == b and not a != b
    assert [getattr(a, f) for f in _fields(cls)] == [getattr(b, f) for f in _fields(cls)]
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_other_class_with_same_fields_is_not_equal(cls):
    a = cls(*ARGS[cls]())
    other = type("Other", (cls,), {})(*ARGS[cls]())
    assert a != other and not a == other
    assert a != tuple(getattr(a, f) for f in _fields(cls))


def test_sphere_verdicts_with_one_triple_differ():
    assert GOSphereHolomorphic((1, 2, 3)) != NotGOSphereAntiholomorphic((1, 2, 3))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    a = cls(*ARGS[cls]())
    before = [getattr(a, f) for f in _fields(cls)]
    for f in _fields(cls):
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, f) for f in _fields(cls)] == before
    assert a == cls(*ARGS[cls]())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    a = cls(*ARGS[cls]())
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a


def test_defaults_and_keywords():
    assert BraidWord(3).letters == () and FreeWord().blocks == ()
    assert not PeripheralPower("a2", -1).trivial
    c = ThreeBraidClass(kind="reducible", trace=2, exponent_sum=1, k=1, ell=0)
    assert (c.central, c.reducible_flag, c.base, c.entropy) == (False, False, None, 0.0)
    assert (c.k, c.ell, c.module) == (1, 0, math.inf)


def test_repr_keeps_the_dataclass_form():
    assert repr(IndexReport(4, 256, 0.5)) == (
        "IndexReport(index=4, samples_used=256, min_abs_discriminant=0.5)")
    assert repr(GOReducible("a1", _word())) == "GOReducible(peripheral='a1', root=FreeWord(a1 a2^-2))"
    assert repr(SurfaceSignature(1, 1)) == "SurfaceSignature(genus=1, holes=1)"
    # classes with their own repr keep it
    assert repr(SL2Matrix(2, 1, 1, 1)) == "SL2Matrix[[2,1],[1,1]]"
    assert repr(BraidWord(3, (1, -2))) == "BraidWord(B3: 1 -2)"


@pytest.mark.parametrize("make, error", [
    (lambda: SL2Matrix(1, 1, 1, 1), ValueError),
    (lambda: Permutation((1, 1)), ValueError),
    (lambda: BraidWord(1), ValueError),
    (lambda: BraidWord(3, (3,)), ValueError),
    (lambda: SurfaceSignature(0, 0), ValueError),
    (lambda: LatticeSpec(0, 1j), ValueError),
    (lambda: LatticeSpec(1, 1), ValueError),
    (lambda: LaurentFamily(1, {}), DegreeTooSmall),
    (lambda: LaurentFamily(3, {3: {0: 1.0}}), ValueError),
    (lambda: FreeWord(((0, 1),)), ValueError),
    (lambda: SurfaceHom(SurfaceSignature(1, 1), "F2", {1: _word()}), ValueError),
    (lambda: SurfaceHom(SurfaceSignature(0, 2), "B3", {1: _word()}), ValueError),
])
def test_bad_input_raises(make, error):
    with pytest.raises(error):
        make()


def test_construction_normalizes_fields():
    assert BraidWord(3, [1, 2]).letters == (1, 2)
    assert FreeWord(((1, 2), (1, -2), (2, 1))).blocks == ((2, 1),)
    spec = LatticeSpec(2, 1j)
    assert type(spec.alpha) is complex and spec.alpha == 2


@pytest.mark.parametrize("cls", [BraidWord, Permutation, SL2Matrix, FreeWord],
                         ids=lambda c: c.__name__)
def test_post_init_runs_once_per_construction(cls, monkeypatch):
    calls = []
    orig = cls.__post_init__

    def counting(self):
        calls.append(self)
        orig(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    a = cls(*ARGS[cls]())
    assert calls == [a]
    cls(*ARGS[cls]())
    assert len(calls) == 2


def test_garside_normal_form_repr():
    nf = GarsideNormalForm(3, -1, (Permutation((2, 1, 3)), Permutation((1, 3, 2))))
    assert repr(nf) == "GarsideNormalForm(B3, Delta^-1, [(2, 1, 3), (1, 3, 2)])"


def test_int_field_reads_an_integral_float():
    # JSON numbers such as 3.0 read as integers; 2.5 is an input error
    assert int_field(3.0, '"degree"') == 3 and type(int_field(3.0, '"degree"')) is int
    with pytest.raises(ValueError, match='"degree" must be an integer, got 2.5'):
        int_field(2.5, '"degree"')
    fam = LaurentFamily.from_json({"degree": 3.0, "coeffs": {"0": {"2": [-1.0, 0.0]}}})
    assert fam == LaurentFamily.from_json({"degree": 3, "coeffs": {"0": {"2": [-1.0, 0.0]}}})
