"""Symmetry oracles: B_3, B_n, F2, lattice and family results checked
against the problem's own symmetries, with no reference code in the loop.

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
* In B_n, tau (conjugation by Delta, sigma_i -> sigma_(n-i)) keeps Delta,
  simple elements and left-weightedness, so `normal_form` of tau b has the
  power of b's and each factor p turned, i -> n + 1 - p(n + 1 - i); tau and
  the mirror sigma_i -> sigma_i^-1 are automorphisms, so `braid_eq` gives
  the same verdict on both images of a pair.
* `e_values` under the modular group: tau -> tau + 1 keeps the lattice and
  swaps the half periods tau/2 and (1 + tau)/2, so it swaps e2 and e3,
  exactly, since the reduction reads the same reduced lattice; tau -> -1/tau
  scales the lattice by -1/tau and swaps 1/2 and tau/2, so the values are
  tau^2 (e2, e1, e3).  `branch_locus` of alpha (Z + tau Z) is alpha^-2 times
  `e_values(tau)` by homogeneity.
* The winding index of f(z^m, zeta), every z-exponent multiplied by m, is m
  times that of f: its discriminant is disc(f)(z^m), which winds m times
  as often around 0 on |z| = 1.

The inputs are the parity corpus's generators at the seeds of their
chunks 0 and 1 (`classify3`: `class_base` conjugated by `conjugator`;
`oka3_decide`: `oka3_case`), the scan at maxlen 0 to 7, the 3,000
homomorphisms of `go_surface_case` at the seeds of its chunks 0 to 29, 400
seeded words in B_3-B_8 with a relation rewrite of each or of a word one
letter away, 500 seeded tau with a scale each, and 150 seeded power
families zeta^n - z^k of degree 2 and 3 with small extra terms.  The file
runs in about 3 s of test time (Python 3.11, 2-core VM).
"""

import functools
import random

import pytest

from braidoka import _theta
from braidoka._word import BraidWord
from braidoka.braid import braid_eq, normal_form
from braidoka.errors import ResourceLimit
from braidoka.families import LaurentFamily, discriminant_index
from braidoka.lattice import LatticeSpec, branch_locus, e_values
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

from braid_helpers import one_letter_change, reduced_word, relation_rewrite
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
    return BraidWord._from_runs(b.strands, tuple((i, -k) for i, k in b.runs))


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


def turn(b):
    """tau(b): conjugation by Delta, sigma_i -> sigma_(n-i)."""
    n = b.strands
    return BraidWord._from_runs(n, tuple((n - i, k) for i, k in b.runs))


def test_normal_form_and_braid_eq_under_tau_and_the_mirror():
    rng = random.Random(34_000)
    verdicts = set()
    for j in range(400):
        n = 3 + j % 6
        b = reduced_word(rng, n, rng.randint(0, 30))
        nf, turned = normal_form(b), normal_form(turn(b))
        assert turned.power == nf.power, b.runs
        assert [f.images for f in turned.factors] == [
            tuple(n + 1 - f.images[n - 1 - i] for i in range(n)) for f in nf.factors], b.runs
        other = relation_rewrite(rng, b if j % 2 == 0 else one_letter_change(rng, b))
        same = braid_eq(b, other)
        verdicts.add(same)
        assert braid_eq(turn(b), turn(other)) == same, (b.runs, other.runs)
        assert braid_eq(mirror(b), mirror(other)) == same, (b.runs, other.runs)
    assert verdicts == {True, False}


def _taus():
    rng = random.Random(33_000)
    for _ in range(500):
        yield (complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 2.5)),
               complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))


def _relative_error(got, want):
    return max(abs(x - y) for x, y in zip(got, want)) / max(map(abs, want))


def test_half_period_values_under_the_modular_group():
    for tau, _ in _taus():
        e1, e2, e3 = e_values(tau)
        assert e_values(tau + 1) == (e1, e3, e2), tau
        s = tau * tau
        assert _relative_error(e_values(-1 / tau), (s * e2, s * e1, s * e3)) < 1e-13, tau


def test_branch_locus_is_homogeneous_in_the_scale():
    for tau, alpha in _taus():
        want = tuple(e / alpha**2 for e in e_values(tau))
        assert _relative_error(branch_locus(LatticeSpec(alpha, tau)).e, want) < 1e-14, (alpha, tau)


def z_power(fam, m):
    """f(z^m, zeta): every z-exponent of fam multiplied by m."""
    return LaurentFamily(fam.degree, {k: {m * e: c for e, c in poly.items()}
                                      for k, poly in fam.coeffs.items()})


def _power_family(rng, degree):
    """zeta^n - z^k, 1 <= k <= 6, with one or two extra terms c z^e, |e| <= 2,
    |Re c|, |Im c| <= 0.3, small against z^k on |z| = 1, so no zero of the
    discriminant comes near the circle and none raises SeparabilityFailure."""
    coeffs = {0: {rng.randint(1, 6): -1 + 0j}}
    for _ in range(rng.randint(1, 2)):
        coeffs.setdefault(rng.randrange(degree), {})[rng.randint(-2, 2)] = complex(
            rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
    return LaurentFamily(degree, coeffs)


def test_index_under_a_z_power():
    rng = random.Random(32_000)
    indices = set()
    for j in range(150):
        fam, m = _power_family(rng, 2 + j % 2), 2 + j // 2 % 2
        index = discriminant_index(fam).index
        indices.add(index)
        assert discriminant_index(z_power(fam, m)).index == m * index, (fam.coeffs, m)
    assert len(indices) >= 8, sorted(indices)


# Families whose discriminant has double zeros within 0.005 of the
# circle: the index of f is right, and that of f(z^2) is not.  Its first
# pass of 256 samples keeps every step below pi/2, because the principal
# argument reads a turn of nearly 2 pi across a double zero as a small
# step; sampled finely, the reference oracle gives 2 index(f).  Such
# families were 6 of about 1,350 seeded ones of degree 2 and 3 whose extra
# terms reach modulus 1, the four below among them.
@pytest.mark.xfail(strict=True, reason="the step test misses a turn across a near double zero")
@pytest.mark.parametrize("coeffs", [
    {1: {3: 1.1196590680636103 + 1.174657987649201j, -3: 1.4705563854088712 + 0.7485477472897308j}},
    {0: {6: -1 + 0j, 2: 0.28066154690631273 - 0.9469458993670474j}},
    {0: {2: -1 + 0j, -2: 0.2819262945365504 - 0.9786647721494499j}},
    {0: {1: -1 + 0j, 2: 0.30884166468018126 - 0.9599104203866871j}},
], ids=["degree-2", "degree-3-k6", "degree-3-k2", "degree-3-k1"])
def test_index_under_a_z_power_near_a_double_zero(coeffs):
    fam = LaurentFamily(2 if 1 in coeffs else 3, coeffs)
    assert discriminant_index(z_power(fam, 2)).index == 2 * discriminant_index(fam).index
