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
    Oka3Violation: lambda: (_word(), 3),
    EPrimeSet: lambda: (SurfaceSignature(1, 1), ((_word(), "commutator"),)),
    GOReducible: lambda: ("a1", _word()),
    GOSphereHolomorphic: lambda: ((1, 2, 3),),
    NotGOSphereAntiholomorphic: lambda: ((1, 2, 3),),
    NotGO: lambda: (None,),
    Permutation: lambda: ((2, 3, 1),),
    SL2Matrix: lambda: (2, 1, 1, 1),
    ThreeBraidClass: lambda: ("pseudoAnosov", 3, 0, None, None),
    CommutatorPair: lambda: ((1,), (2,), 1, 2, (2, 1, 1, 1), (1, 0, 2, 1)),
    CommutatorScanReport: lambda: (2, ()),
    FreeWord: lambda: (((1, 1), (2, -2)),),
    PeripheralPower: lambda: ("a1", 3),
}
# a field holds a dict, so the record cannot be hashed
UNHASHABLE = {LaurentFamily, SurfaceHom}
CLASSES = list(ARGS)


def _fields(cls):
    # the sphere verdicts inherit their one field from a shared base
    return list(cls._fields)


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
    c = ThreeBraidClass(kind="reducible", trace=2, exponent_sum=1, k=1, ell=0)
    assert (c.base, c.entropy) == (None, 0.0)
    assert (c.k, c.ell, c.module) == (1, 0, math.inf)
    assert c.as_dict() == {"kind": "reducible", "trace": 2, "exponentSum": 1, "k": 1, "ell": 0,
                           "entropy": 0.0, "module": None}


def test_derived_values_are_read_off_the_fields():
    # entropy, module, the periodic base, the central and reducible keys,
    # a scan row's entropies, purity and Markov triple, the commutator
    # trace, the words a scan examines and the notGO reason follow from
    # the other fields or are constant, so no constructor takes them
    h = math.log((3 + math.sqrt(5)) / 2)
    c = ThreeBraidClass(*ARGS[ThreeBraidClass]())
    assert (c.entropy, c.module, c.base) == (h, math.pi / (2 * h), None)
    assert Oka3Violation(_word(), -3).entropy == h
    pair = CommutatorPair(*ARGS[CommutatorPair]())
    # traces 3, 2 and tr m1 m2 = 5, so m2 m1^-1 and m2 m1^-2 have trace 1
    row = pair.as_dict()
    assert pair.commutator_trace == row["commutatorTrace"] == -2
    assert (row["entropyB1"], row["entropyB2"], row["entropyB2B1inv"], row["entropyB2B1inv2"]) == (
        h, 0.0, 0.0, 0.0)
    assert (row["b1Pure"], row["b2Pure"], row["markov"]) == (False, True, [0, 1, 1])
    assert [CommutatorScanReport(m, ()).words_scanned for m in range(4)] == [0, 4, 16, 52]
    assert NotGO(None).reason == NotGO.reason == "test element image is not a peripheral power"
    assert [(cls((1, 2, 3)).verdict, cls((1, 2, 3)).go_property)
            for cls in (GOSphereHolomorphic, NotGOSphereAntiholomorphic)] == [
        ("sphereHolomorphic", True), ("sphereAntiholomorphic", False)]
    for trace, central, base in ((2, True, "delta"), (-2, True, "delta"), (1, False, "sigma12"),
                                 (-1, False, "sigma12"), (0, False, "delta")):
        d = ThreeBraidClass("periodic", trace, 0, 0).as_dict()
        assert (d["central"], d["reducible"], d["module"], d["base"]) == (central, central, None, base)
    for build in (lambda: ThreeBraidClass("periodic", 2, 0, central=True),
                  lambda: ThreeBraidClass("periodic", 2, 0, reducible_flag=True),
                  lambda: ThreeBraidClass("pseudoAnosov", 3, 0, entropy=h),
                  lambda: ThreeBraidClass("pseudoAnosov", 3, 0, module=1.63),
                  lambda: Oka3Violation(_word(), 3, entropy=h),
                  lambda: PeripheralPower(None, 0, trivial=True),
                  lambda: CommutatorPair(*ARGS[CommutatorPair](), commutator_trace=-2),
                  lambda: ThreeBraidClass("periodic", 1, 2, 1, base="sigma12"),
                  lambda: CommutatorPair(*ARGS[CommutatorPair](), markov=(0, 1, 1)),
                  lambda: CommutatorScanReport(2, 16, ()),
                  lambda: NotGO(None, "no")):
        with pytest.raises(TypeError):
            build()


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
