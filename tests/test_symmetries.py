"""Symmetry oracles: B_3 and F2 verdicts checked against the problem's own
symmetries, with no reference code in the loop.

* `classify3`'s kind, |trace| and entropy are unchanged under the flip
  sigma_1 <-> sigma_2, under the mirror sigma_i -> sigma_i^-1 and under
  word reversal.  The flip and the mirror act on theta images by
  conjugation in GL(2, Z), and the reversal by a transpose after one
  (theta(sigma_1)^T = theta(sigma_2^-1)), so each keeps the trace and
  whether the image is central.
* `oka3_decide`'s verdict, and the model type of a classified pair, are
  unchanged under the Nielsen moves (b1, b2) -> (b1, b1 b2) and
  (b1 b2, b2): both pairs generate one group, and its docstring's proof
  makes classification a property of the image group.
* The commutator scan's rows are closed under swapping b1 and b2, which
  swaps the paired values and keeps markov and entropyB2B1inv (tr m2 m1^-1
  = tr m1 m2^-1), and under the flip of both words, whose image pair is a
  row with the same values and word counts: the flip conjugates theta by
  a matrix of GL(2, Z), keeps every trace and the pure braids, and maps
  the reduced words of each length onto themselves.
* `go_surface_decide`'s verdict kind is unchanged when an automorphism of
  F2 that permutes 0, 1 and infinity (a Moebius map of the thrice-punctured
  sphere) is applied to every image: a1 <-> a2, and a1 -> a2,
  a2 -> (a1 a2)^-1.  Complex conjugation, a_i -> a_i^-1, swaps
  sphereHolomorphic and sphereAntiholomorphic and fixes the other kinds,
  and an inner automorphism changes nothing but the reducible verdict's
  root, which it conjugates.  Each of these maps sends the peripherals
  a1, a2, (a1 a2)^-1 to conjugates of peripherals or their inverses, so
  it keeps which images are conjugate into a peripheral power, and a
  notGO verdict keeps its witness, the first E' element whose image is
  not.

The inputs are the parity corpus's generators at the seeds of their
chunks 0 and 1 (`classify3`: `class_base` conjugated by `conjugator`;
`oka3_decide`: `oka3_case`), the scan at maxlen 0 to 7, and the 3,000
homomorphisms of `go_surface_case` at the seeds of its chunks 0 to 29.
The file runs in under 3 s (about 2.2 s of test time, Python 3.11, 2-core
VM).
"""

import functools
import random

import pytest

from braidoka import _theta
from braidoka._word import BraidWord
from braidoka.errors import ResourceLimit
from braidoka.oka import (
    TARGET_B3,
    TARGET_F2,
    SurfaceHom,
    SurfaceSignature,
    go_surface_decide,
    oka3_decide,
)
from braidoka.three import classify3, zero_entropy_commutator_scan
from braidoka.words import POW_MAXBLOCKS, FreeWord

from parity_corpus import (
    CASES_PER_CHUNK,
    THETA_CLASSES,
    class_base,
    conjugator,
    free_word,
    go_surface_case,
    oka3_case,
)


def flip(b):
    return BraidWord._from_runs(3, tuple((3 - i, k) for i, k in b.runs))


def mirror(b):
    return BraidWord._from_runs(3, tuple((i, -k) for i, k in b.runs))


def reverse(b):
    return BraidWord._from_runs(3, b.runs[::-1])


def _classify_words(index):
    rng = random.Random(26_000 + index)
    for j in range(CASES_PER_CHUNK):
        b = class_base(rng, THETA_CLASSES[j % 5])
        u = conjugator(rng, j // 5)
        yield u * b * u.inv()


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("move", [flip, mirror, reverse])
def test_classify3_invariants(move, index):
    for b in _classify_words(index):
        got, moved = classify3(b), classify3(move(b))
        assert (moved.kind, abs(moved.trace), moved.entropy) == (
            got.kind, abs(got.trace), got.entropy), b.runs


def _oka3(b1, b2, mirrored):
    verdict = oka3_decide(SurfaceHom(SurfaceSignature(1, 1), TARGET_B3, {1: b1, 2: b2}),
                          mirrored).as_dict()
    return verdict["verdict"], verdict.get("type")


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("mirrored", [False, True], ids=["standard", "mirrored"])
def test_oka3_verdict_is_nielsen_invariant(mirrored, index):
    rng = random.Random(30_000 + index)
    kinds = set()
    for j in range(CASES_PER_CHUNK):
        b1, b2 = oka3_case(rng, j)
        got = _oka3(b1, b2, mirrored)
        kinds.add(got)
        assert _oka3(b1, b1 * b2, mirrored) == got, (b1.runs, b2.runs)
        assert _oka3(b1 * b2, b2, mirrored) == got, (b1.runs, b2.runs)
    # the sample reaches every model type and a violation
    assert {t for v, t in kinds if v == "classified"} == {
        "periodicSigma12", "periodicDelta", "reducibleSigma1Delta2"}
    assert ("violation", None) in kinds


def _flipped_image(letters):
    return _theta.theta_abcd(flip(BraidWord(3, tuple(letters))).runs)


@pytest.mark.parametrize("maxlen", range(0, 8))
def test_scan_is_closed_under_swap_and_flip(maxlen):
    rows = {(p.m1, p.m2): p.as_dict() for p in zero_entropy_commutator_scan(maxlen).pairs}
    swapped = {"b1": "b2", "b1Words": "b2Words", "entropyB1": "entropyB2", "b1Pure": "b2Pure"}
    swapped.update({v: k for k, v in swapped.items()})
    for (m1, m2), row in rows.items():
        other = rows[m2, m1]
        assert {swapped.get(k, k): v for k, v in row.items() if k != "entropyB2B1inv2"} == {
            k: v for k, v in other.items() if k != "entropyB2B1inv2"}, row
        flipped = rows[_flipped_image(row["b1"]), _flipped_image(row["b2"])]
        assert {k: v for k, v in flipped.items() if k not in ("b1", "b2")} == {
            k: v for k, v in row.items() if k not in ("b1", "b2")}, row
    assert maxlen < 2 or rows


_A1, _A2 = FreeWord.gen(1), FreeWord.gen(2)
_SWAP_HOLOMORPHY = {"sphereHolomorphic": "sphereAntiholomorphic",
                    "sphereAntiholomorphic": "sphereHolomorphic"}
# F2 automorphisms as the images of (a1, a2); "inner" conjugates by a word
# drawn per case
_F2_MAPS = {
    "swap": (_A2, _A1),
    "cycle": (_A2, (_A1 * _A2).inv()),
    "conjugation": (_A1.inv(), _A2.inv()),
}
# cases of `_go_surface_cases` whose images under the map have a power of
# more than POW_MAXBLOCKS blocks: the cycle sends a2^k to ((a1 a2)^-1)^k,
# two blocks per factor, and a third of the cases carry exponents to 10^9
_MAX_SKIPPED = {"swap": 0, "cycle": 658, "conjugation": 0, "inner": 0}


def _substitute(w, images):
    out = FreeWord.identity()
    for g, e in w.blocks:
        out = out * images[g - 1] ** e
    return out


@functools.cache
def _go_surface_cases():
    """(homomorphism, its verdict, a conjugator) for the 3,000 cases."""
    cases = []
    for index in range(30):
        rng, crng = random.Random(24_000 + index), random.Random(31_000 + index)
        for j in range(CASES_PER_CHUNK):
            hom = go_surface_case(rng, j)
            cases.append((hom, go_surface_decide(hom).as_dict(), free_word(crng, 2, 3, 64)))
    return cases


def test_go_surface_sample_reaches_every_kind():
    assert {got["verdict"] for _, got, _ in _go_surface_cases()} == {
        "reducible", "notGO", "sphereHolomorphic", "sphereAntiholomorphic"}


@pytest.mark.parametrize("name", ["swap", "cycle", "conjugation", "inner"])
def test_go_surface_verdict_under_automorphisms(name):
    skipped = 0
    for hom, got, c in _go_surface_cases():
        images = _F2_MAPS.get(name) or (c * _A1 * c.inv(), c * _A2 * c.inv())
        try:
            moved = {k: _substitute(v, images) for k, v in hom.images.items()}
        except ResourceLimit as e:
            assert "POW_MAXBLOCKS" in str(e)
            skipped += 1
            continue
        verdict = go_surface_decide(SurfaceHom(hom.signature, TARGET_F2, moved)).as_dict()
        if name == "inner":
            assert {k: v for k, v in verdict.items() if k != "root"} == {
                k: v for k, v in got.items() if k != "root"}, hom.images
            continue
        want = _SWAP_HOLOMORPHY.get(got["verdict"], got["verdict"]) if name == "conjugation" \
            else got["verdict"]
        assert (verdict["verdict"], verdict.get("witness")) == (want, got.get("witness")), hom.images
    assert skipped <= _MAX_SKIPPED[name], f"{skipped} images past POW_MAXBLOCKS, {POW_MAXBLOCKS}"
