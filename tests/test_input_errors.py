"""Input-error raises that a caller can reach, one row each: the call, the
error it raises and a fragment of its message.

Each row is a raise that no other in-process test runs; the CLI's
subprocess tests do not count, since their lines run in a child process.
"""

import sys
import tracemalloc

import pytest

from braidoka._purekernels import sweep3_stats
from braidoka.braid import MAX_STRANDS, BraidWord, LinkingNumbers, delta
from braidoka.errors import (
    NotAbelianTransitive,
    ResourceLimit,
    SignatureOutOfRange,
    StrandMismatch,
    WrongStrandCount,
)
from braidoka.families import (
    MAX_DEGREE,
    LaurentFamily,
    discriminant_from_coeffs,
    discriminant_index,
    nbraid_entropy_lower,
    nbraid_module_upper,
    penner_bound,
    thm1_verdict,
)
from braidoka.lattice import LatticeSpec, e_values, wp, wp_prime
from braidoka.oka import SurfaceHom, SurfaceSignature
from braidoka.perms import Permutation, abelian_transitive_generator, lemma5_generators
from braidoka.sl2z import SL2Matrix, rl_factorization, theta
from braidoka.three import (
    centralizer_check,
    classify3,
    conformal_module3,
    conj3,
    entropy3,
    zero_entropy_commutator_scan,
)
from braidoka.words import FreeWord, peripheral_word

_HOM = {"genus": 1, "holes": 1, "target": "F2", "images": {"e1": "a1", "e2": "a2"}}


def _within_a_megabyte(call):
    """Run call under tracemalloc; fail if its peak allocation reaches
    1 MB.  The generator-count check built set(range(1, x + 1)): 291 MB
    peak at 3,000,000 holes, and at 10^12 more than memory holds."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20, peak


def _many_holes(target, image):
    return lambda: _within_a_megabyte(lambda: SurfaceHom.from_json(
        {"genus": 0, "holes": 10**12, "target": target, "images": {"e1": image}}))

def _at_the_default_digit_limit(call):
    """call() with the interpreter's int-to-str digit limit at its default,
    4300, whatever the test run set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        call()
    finally:
        sys.set_int_max_str_digits(old)


def _over_the_digit_limit(parse, text):
    return lambda: _at_the_default_digit_limit(lambda: parse(text.format("7" * 4400)))

_B4 = BraidWord(4, (1, 3))
_CYCLE = Permutation((2, 3, 1))

ROWS = [
    (lambda: SurfaceHom.from_json([]), ValueError, "must be a JSON object"),
    (lambda: SurfaceHom.from_json({"genus": 1, "holes": 1, "target": "F2"}),
     ValueError, 'needs "images"'),
    (lambda: SurfaceHom.from_json({**_HOM, "target": "Z"}), ValueError, "unknown target 'Z'"),
    # the constructor kept any target, and the decisions then named the
    # homomorphism wrong-valued instead of the target unknown
    (lambda: SurfaceHom(SurfaceSignature(1, 1), "B4", {1: FreeWord.gen(1), 2: FreeWord.gen(2)}),
     ValueError, "unknown target 'B4'"),
    (lambda: SurfaceHom.from_json({**_HOM, "images": ["a1"]}),
     ValueError, '"images" must be an object'),
    (lambda: SurfaceHom.from_json({**_HOM, "images": {"e1": 1}}),
     ValueError, 'images["e1"] must be a word as text'),
    (_many_holes("F2", "a1"), ValueError, "need images for generators 1..999999999999"),
    (_many_holes("B3", "1"), ValueError, "generators 1..999999999999"),
    (lambda: LaurentFamily.from_json({"degree": 3}), ValueError, 'needs a "coeffs" object'),
    (lambda: LaurentFamily.from_json({"degree": 3, "coeffs": {"0": [1, 0]}}),
     ValueError, 'coeffs["0"] must be an object'),
    (lambda: LaurentFamily.from_json({"degree": 3, "coeffs": {"0": {"2": [1]}}}),
     ValueError, 'coeffs["0"]["2"] must be a pair [re, im]'),
    (lambda: BraidWord(3, (1,)) * _B4, StrandMismatch, "B_3 vs B_4"),
    (lambda: BraidWord(MAX_STRANDS + 1, (1, 1)), ResourceLimit,
     "B_1001 has more than MAX_STRANDS = 1000 strands"),
    (lambda: LinkingNumbers(3, ((1, 2, 5),))[(1, 3)], KeyError, "(1, 3)"),
    (lambda: LinkingNumbers(4, ()).tuple3(), ValueError, "only defined for B_3"),
    (lambda: discriminant_from_coeffs([1, 0, 2]), ValueError, "must be monic"),
    (lambda: thm1_verdict(1, 30.0, 3), ValueError, "degree must be >= 2"),
    (lambda: LaurentFamily(MAX_DEGREE + 1, {0: {0: 1.0}}), ResourceLimit,
     "family degree 65 is above MAX_DEGREE = 64"),
    (lambda: nbraid_module_upper(2), SignatureOutOfRange, "needs n >= 3"),
    (lambda: LatticeSpec(1, 1 - 1j), ValueError, "positive imaginary part"),
    (lambda: LatticeSpec.from_generators(1, 0), ValueError, "generators must be nonzero"),
    # a shortest vector f so short that Im tau' = Im tau / |f|^2 overflows a
    # float: OverflowError tracebacks once, and for 1e-320j an error that
    # blamed zeta
    (lambda: wp(0.3 + 0.1j, 1e-310 + 1e-310j), ValueError, "tau gives a lattice vector too short"),
    (lambda: wp_prime(0.3 + 0.1j, 1e-310 + 1e-310j), ValueError,
     "vector too short for a finite value (1.41e-310)"),
    (lambda: e_values(1e-310 + 1e-310j), ValueError, "too short for a finite value (1.41e-310)"),
    (lambda: wp(0.5, 1e-320j), ValueError, "too short for a finite value (1e-320)"),
    (lambda: Permutation.transposition(3, 3), ValueError, "index 3 out of range for S_3"),
    # both were accepted and compared equal to Permutation((1, 2)); with
    # float images then and inv raised "tuple indices must be integers"
    (lambda: Permutation((1.0, 2.0)), ValueError, "must be an int, not a bool, got 1.0"),
    (lambda: Permutation((True, 2)), ValueError, "must be an int, not a bool, got True"),
    # all were accepted: normal_form then raised TypeError on 1.5 and 3.0,
    # classify3 KeyError(1.5) and eprime_generate TypeError on 1.0, while
    # 1.0 and True joined the runs of 1 and compared equal to (1, 2)
    (lambda: BraidWord(3, (1.5,)), ValueError, "a braid letter must be an int, not a bool, got 1.5"),
    (lambda: BraidWord(3, (1.0, 2)), ValueError, "a braid letter must be an int, not a bool, got 1.0"),
    (lambda: BraidWord(3, (True, 2)), ValueError, "a braid letter must be an int, not a bool, got True"),
    (lambda: BraidWord(3.0, (1,)), ValueError, "a strand count must be an int, not a bool, got 3.0"),
    # all were accepted: normal_form of sigma(3, 1.5) raised TypeError,
    # sigma(3, 1, 2.0) compared equal to BraidWord(3, (1, 1)) and the power
    # kept the exponent 2.0 in its run
    (lambda: BraidWord.sigma(3, 1.5), ValueError, "a braid generator must be an int, not a bool, got 1.5"),
    (lambda: BraidWord.sigma(3, 1, 2.0), ValueError, "a braid exponent must be an int, not a bool, got 2.0"),
    (lambda: BraidWord.sigma(3, True), ValueError, "a braid generator must be an int, not a bool, got True"),
    (lambda: BraidWord(3, (1,)) ** 2.0, ValueError, "a braid power must be an int, not a bool, got 2.0"),
    (lambda: BraidWord(3, (1, 2)) ** True, ValueError, "a braid power must be an int, not a bool, got True"),
    # all were accepted, and the bool key compared equal to the homomorphism
    # keyed 1, 2 while keeping True in its images
    (lambda: FreeWord.gen(1.5), ValueError, "a free-word generator must be an int, not a bool, got 1.5"),
    (lambda: FreeWord(((1, 2.0),)), ValueError, "a free-word exponent must be an int, not a bool, got 2.0"),
    (lambda: FreeWord(((True, 1),)), ValueError, "a free-word generator must be an int, not a bool, got True"),
    (lambda: FreeWord.gen(1) ** 2.0, ValueError, "a free-word power must be an int, not a bool, got 2.0"),
    # ** 2.0 raised TypeError, from `&` in the square-and-multiply and from
    # tuple indexing in the cycle rotation, and ** True passed as ** 1
    (lambda: SL2Matrix(1, 1, 0, 1) ** 2.0, ValueError, "a matrix power must be an int, not a bool, got 2.0"),
    (lambda: SL2Matrix(1, 1, 0, 1) ** True, ValueError, "a matrix power must be an int, not a bool, got True"),
    (lambda: _CYCLE ** 2.0, ValueError, "a permutation power must be an int, not a bool, got 2.0"),
    (lambda: _CYCLE ** True, ValueError, "a permutation power must be an int, not a bool, got True"),
    (lambda: SurfaceHom(SurfaceSignature(1, 1), "F2", {True: FreeWord.gen(1), 2: FreeWord.gen(2)}),
     ValueError, "an image key must be an int, not a bool, got True"),
    (lambda: SurfaceSignature(1.0, 1), ValueError, "genus must be an int, not a bool, got 1.0"),
    (lambda: SurfaceSignature(1, True), ValueError, "holes must be an int, not a bool, got True"),
    (lambda: abelian_transitive_generator([Permutation((2, 1))], 3),
     ValueError, "on 2 points, expected 3"),
    (lambda: lemma5_generators(Permutation((2, 1)), _CYCLE),
     NotAbelianTransitive, "must lie in S_3"),
    (lambda: lemma5_generators(Permutation((2, 1, 3)), Permutation((1, 3, 2))),
     NotAbelianTransitive, "images do not commute"),
    (lambda: rl_factorization(SL2Matrix(1, 1, 0, 1)), ValueError, "needs |trace| > 2"),
    (lambda: peripheral_word("a3"), ValueError, "unknown peripheral 'a3'"),
    # int alone raised its own ValueError here, which names no token
    (_over_the_digit_limit(BraidWord.parse, "1^{} -2"), ValueError,
     "a braid exponent has 4400 digits, more than the limit of 4300"),
    (_over_the_digit_limit(BraidWord.parse, "{}"), ValueError,
     "a braid letter has 4400 digits, more than the limit of 4300"),
    (_over_the_digit_limit(FreeWord.parse, "a1^{}"), ValueError,
     "a free-word exponent has 4400 digits, more than the limit of 4300"),
    (_over_the_digit_limit(FreeWord.parse, "a{}"), ValueError,
     "a free-word generator has 4400 digits, more than the limit of 4300"),
    (_over_the_digit_limit(lambda key: SurfaceHom.from_json({**_HOM, "images": {key: "a1"}}), "e{}"),
     ValueError, "an images key has 4400 digits, more than the limit of 4300"),
]


@pytest.mark.parametrize("call, error, fragment", ROWS, ids=[row[2] for row in ROWS])
def test_input_error(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


# every B_3 procedure is gated by one test, `_theta._b3`, and the error
# names the procedure that was called; conj3 gates both words before it
# compares exponent sums, which differ here (2 against 1)
B3_GATES = [
    ("theta", lambda: theta(_B4)),
    ("entropy3", lambda: entropy3(_B4)),
    ("conformal_module3", lambda: conformal_module3(_B4)),
    ("classify3", lambda: classify3(_B4)),
    ("conj3", lambda: conj3(_B4, BraidWord(3, (1,)))),
    ("conj3", lambda: conj3(BraidWord(3, (1,)), _B4)),
    ("centralizer_check", lambda: centralizer_check(_B4, 1)),
    ("SurfaceHom", lambda: SurfaceHom(SurfaceSignature(1, 1), "B3", {1: BraidWord(3), 2: _B4})),
]


@pytest.mark.parametrize("name, call", B3_GATES, ids=[
    "theta", "entropy3", "conformal_module3", "classify3", "conj3-first", "conj3-second",
    "centralizer_check", "SurfaceHom"])
def test_b3_gate_names_its_caller(name, call):
    with pytest.raises(WrongStrandCount) as info:
        call()
    assert str(info.value) == f"{name} needs B_3, got B_4"


_FAMILY = LaurentFamily.power_family(3, 1)

# (entry point, its call with one integer parameter set to v, the name of
# that parameter).  At 2.5, 2.0 or True each call once returned an answer
# (centralizer_check True, thm1_verdict(2.0, 30.0, 6) "reducible",
# penner_bound a number, the scan a report of maxlen True, the family a
# record of degree 2.5, sweep3_stats(True) the counts of maxlen 1), or
# raised a TypeError, in the scan, in discriminant_index of a family with a
# z exponent of 2.5, in delta, in the transposition and in sweep3_stats
INT_PARAMETERS = [
    ("centralizer_check", lambda v: centralizer_check(BraidWord(3, (1,)), v), "k"),
    ("thm1_verdict-n", lambda v: thm1_verdict(v, 30.0, 6), "n"),
    ("thm1_verdict-index", lambda v: thm1_verdict(7, 300.0, v), "index"),
    ("zero_entropy_commutator_scan", zero_entropy_commutator_scan, "maxlen"),
    ("sweep3_stats", sweep3_stats, "maxlen"),
    ("penner_bound-g", lambda v: penner_bound(v, 4), "g"),
    ("penner_bound-m", lambda v: penner_bound(1, v), "m"),
    ("nbraid_entropy_lower", nbraid_entropy_lower, "n"),
    ("nbraid_module_upper", nbraid_module_upper, "n"),
    ("LaurentFamily-degree", lambda v: LaurentFamily(v, {0: {1: -1.0}}), "degree"),
    ("LaurentFamily-zeta-power", lambda v: LaurentFamily(3, {v: {1: -1.0}}), "a zeta power"),
    ("LaurentFamily-z-exponent", lambda v: LaurentFamily(3, {0: {v: -1.0}}), "a z exponent"),
    ("discriminant_index", lambda v: discriminant_index(_FAMILY, v), "samples"),
    ("delta", delta, "n"),
    ("transposition-n", lambda v: Permutation.transposition(v, 1), "n"),
    ("transposition-i", lambda v: Permutation.transposition(3, v), "i"),
]


@pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize("call, name", [row[1:] for row in INT_PARAMETERS],
                         ids=[row[0] for row in INT_PARAMETERS])
def test_integer_parameter_is_an_int_not_a_bool(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an int, not a bool, got {value!r}"
