import itertools
import json
import random
import time
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from braidoka import _purekernels, _theta, cli, oka
from braidoka._theta import mat_inv, mat_mul
from braidoka.braid import BraidWord, delta
from braidoka.errors import (
    DegenerateSignature,
    ResourceLimit,
    WrongSignature,
    WrongStrandCount,
    WrongTarget,
)
from braidoka.oka import (
    EPRIME_MAXRANK,
    GOReducible,
    GOSphereHolomorphic,
    NotGO,
    NotGOSphereAntiholomorphic,
    Oka3Classified,
    Oka3Violation,
    PERIODIC_DELTA,
    PERIODIC_SIGMA12,
    REDUCIBLE_SIGMA1_DELTA2,
    SurfaceHom,
    SurfaceSignature,
    TAG_COMMUTATOR,
    TAG_GENERATOR,
    TAG_HANDLE_MIX,
    TAG_HOLE_PATTERN,
    TAG_PAIR,
    TAG_TRIPLE,
    TARGET_B3,
    TARGET_F2,
    e0_set,
    eprime_generate,
    go_surface_decide,
    hole_product_inverse,
    oka3_decide,
    oka3_decide_both,
)
from braidoka.words import FreeWord, commutator, free_conjugate, is_conjugate_into_peripheral
from conftest import all_free_words
from e0_reference import e0_screen_matrices_reference, oka3_decide_reference
import go_reference

a1, a2 = FreeWord.gen(1), FreeWord.gen(2)


def hom11(b1, b2):
    return SurfaceHom(SurfaceSignature(1, 1), TARGET_B3, {1: b1, 2: b2})


def fhom(sig, images):
    return SurfaceHom(sig, TARGET_F2, images)


class TestE0:
    def test_standard_set(self):
        got = [w.text(prefix="e") for w in e0_set()]
        assert got == ["e1", "e2", "e2 e1^-1", "e2 e1^-2", "e1 e2 e1^-1 e2^-1"]

    def test_commutator_element(self):
        e5 = e0_set()[4]
        assert e5 == commutator(FreeWord.gen(1), FreeWord.gen(2))
        # exponent sums vanish generator-wise
        assert sum(e for _, e in e5.blocks) == 0

    def test_mirrored_set(self):
        got = [w.text(prefix="e") for w in e0_set(mirrored=True)]
        assert got == ["e1", "e2", "e1 e2^-1", "e1 e2^-2", "e1 e2 e1^-1 e2^-1"]

    def test_each_call_returns_a_fresh_list(self):
        first = e0_set()
        first.clear()
        assert len(e0_set()) == 5 and e0_set(True) is not e0_set(True)


_b3_words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=6).map(
    lambda letters: BraidWord(3, tuple(letters)))
# the periodic and reducible models: sigma1 (parabolic), sigma1 sigma2 and
# Delta (elliptic), whose powers run over the central images too
_bases = st.sampled_from((BraidWord.sigma(3, 1), BraidWord.parse("1 2", 3), delta(3)))


@st.composite
def _b3_pairs(draw):
    """Pairs of B_3 images: powers of one conjugated base (commuting), of
    two bases, or a random word with a conjugated power."""
    def element(u, base):
        return u * base ** draw(st.integers(-6, 6)) * u.inv()

    kind = draw(st.integers(0, 2))
    if kind == 0:
        u, base = draw(_b3_words), draw(_bases)
        return element(u, base), element(u, base)
    first = draw(_b3_words) if kind == 2 else element(draw(_b3_words), draw(_bases))
    return first, element(draw(_b3_words), draw(_bases))


class TestOka3:
    def test_periodic_sigma12(self):
        s12 = BraidWord.parse("1 2", 3)
        r = oka3_decide(hom11(s12**2, s12**5))
        assert isinstance(r, Oka3Classified) and r.type_ == PERIODIC_SIGMA12

    def test_calegari_walker_violation(self):
        r = oka3_decide(hom11(BraidWord.parse("-2 1", 3), BraidWord.parse("2 -1", 3)))
        assert isinstance(r, Oka3Violation)
        assert r.witness == FreeWord.gen(1)
        assert r.trace == 3 and r.entropy > 0

    def test_reducible(self):
        r = oka3_decide(hom11(BraidWord.parse("1 1 1", 3), delta(3) ** 4))
        assert isinstance(r, Oka3Classified) and r.type_ == REDUCIBLE_SIGMA1_DELTA2

    def test_periodic_delta(self):
        r = oka3_decide(hom11(delta(3), delta(3) ** 3))
        assert isinstance(r, Oka3Classified) and r.type_ == PERIODIC_DELTA

    def test_wrong_signature(self):
        hom = SurfaceHom(
            SurfaceSignature(0, 3),
            TARGET_B3,
            {1: BraidWord(3), 2: BraidWord(3)},
        )
        with pytest.raises(WrongSignature):
            oka3_decide(hom)
        with pytest.raises(WrongTarget, match="B3-valued"):
            oka3_decide(fhom(SurfaceSignature(1, 1), {1: a1, 2: a2}))

    def test_both_variants_report(self):
        s12 = BraidWord.parse("1 2", 3)
        rep = oka3_decide_both(hom11(s12, s12**2))
        assert rep["agree"] is True
        assert rep["standard"]["verdict"] == "classified"

    def test_no_contradiction_on_random_passing_homs(self):
        # rejection-sample homomorphisms that pass the zero-entropy screen;
        # the commutator assertion inside oka3_decide must never fire
        from braidoka import _backend

        rng = random.Random(123)
        words = [
            BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 6))))
            for _ in range(4000)
        ]
        passing = 0
        tried = 0
        while passing < 300 and tried < 200_000:
            tried += 1
            b1, b2 = rng.choice(words), rng.choice(words)
            if _backend.e0_screen(b1.runs, b2.runs) != 0:
                continue
            r = oka3_decide(hom11(b1, b2))
            assert isinstance(r, Oka3Classified)
            passing += 1
        assert passing == 300

    @settings(max_examples=300)
    @given(_b3_pairs(), st.booleans())
    def test_classified_exactly_when_e1_e2_and_their_commutator_pass(self, pair, swap):
        # fact (E) of the commutator scan: e1, e2 and [e1, e2] passing
        # force the images to commute, so the other two E0 classes and the
        # commutation check decide nothing more, in either variant
        b1, b2 = pair[::-1] if swap else pair
        m1, m2 = _theta.theta_abcd(b1.runs), _theta.theta_abcd(b2.runs)
        comm = mat_mul(mat_mul(m1, m2), mat_mul(mat_inv(m1), mat_inv(m2)))
        passes = all(abs(m[0] + m[3]) <= 2 for m in (m1, m2, comm))
        for mirrored in (False, True):
            verdict = oka3_decide(hom11(b1, b2), mirrored)
            assert isinstance(verdict, Oka3Classified) == passes, (b1, b2, mirrored)
        # so the variants part only over a witness
        both = oka3_decide_both(hom11(b1, b2))
        if not both["agree"]:
            assert both["standard"]["verdict"] == both["mirrored"]["verdict"] == "violation"


def _outcome(decide, *args):
    try:
        return decide(*args)
    except Exception as exc:  # the exception is part of the compared outcome
        return type(exc), str(exc)


def _random_b3(rng, maxlen):
    return BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, maxlen))))


def _model_pair(rng):
    """Two commuting images from one abelian model, conjugated by one word."""
    model = rng.randrange(3)
    if model == 0:
        s12 = BraidWord.parse("1 2", 3)
        b1, b2 = s12 ** rng.randint(-5, 5), s12 ** rng.randint(-5, 5)
    elif model == 1:
        b1, b2 = delta(3) ** rng.randint(-3, 3), delta(3) ** rng.randint(-3, 3)
    else:
        b1, b2 = (BraidWord.sigma(3, 1, rng.choice((-1, 1)) * rng.randint(1, 6))
                  * delta(3) ** (2 * rng.randint(-1, 1)) for _ in range(2))
    u = _random_b3(rng, 5)
    return u * b1 * u.inv(), u * b2 * u.inv()


# B_3 words as runs sigma_i^k, k up to +-10^6, so twelve runs give theta
# entries of up to about 240 bits
b3_runs = st.lists(st.tuples(st.sampled_from((1, 2)),
                             st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))),
                   max_size=12)


class TestOka3Parity:
    """oka3_decide on theta images against the braid-word reference."""

    @settings(max_examples=400, deadline=None)
    @given(b3_runs, b3_runs, st.sampled_from(("any", "commuting", "small traces")),
           st.sampled_from((-2, -1, 1, 2)), st.sampled_from((-5, -4, -2, -1, 1, 2, 4, 5)),
           st.booleans())
    # sigma_1 with sigma_1 sigma_2, conjugated by a word of 60-bit entries:
    # index 4 in one variant, 5 in the other, whichever generator comes first
    @example([], [(1, 10**6), (2, -999_999), (1, 3)], "small traces", 1, 1, False)
    @example([], [(1, 10**6), (2, -999_999), (1, 3)], "small traces", 1, 1, True)
    def test_screen_matches_the_product_form(self, r1, r2, shape, a, b, swap):
        # the traces read off (tr m1, tr m2, tr m1 m2) against the E0 images
        # multiplied out.  A commuting pair (m2 = m1^2) reaches the passing
        # screen, and sigma_1^a with (sigma_1 sigma_2)^b or sigma_1^b sigma_2,
        # both conjugated by r2 and in either order, indices 3-5 with
        # entries of hundreds of bits
        if shape == "commuting":
            r2 = r1 * 2
        elif shape == "small traces":
            inv = [(i, -k) for i, k in reversed(r2)]
            r1, r2 = (r2 + r + inv for r in ([(1, a)], [(1, 1), (2, 1)] * b if b % 2
                                             else [(1, b), (2, 1)]))
            if swap:
                r1, r2 = r2, r1
        m1, m2 = _theta.theta_abcd(r1), _theta.theta_abcd(r2)
        for mirrored in (False, True):
            assert (_theta.e0_screen_matrices(m1, m2, mirrored)
                    == e0_screen_matrices_reference(m1, m2, mirrored))

    def test_violation_witness_is_the_e0_word_at_the_screen_index(self):
        # the witness is read from a precomputed tuple, not a rebuilt E0
        rng = random.Random(37)
        seen = set()
        for _ in range(600):
            b1, b2 = _random_b3(rng, 8), _random_b3(rng, 8)
            m1, m2 = _theta.theta_abcd(b1.runs), _theta.theta_abcd(b2.runs)
            for mirrored in (False, True):
                index, trace = _theta.e0_screen_matrices(m1, m2, mirrored)
                if index:
                    r = oka3_decide(hom11(b1, b2), mirrored)
                    assert r.witness == e0_set(mirrored)[index - 1] and r.trace == trace
                    seen.add((mirrored, index))
        assert seen == {(mirrored, i) for mirrored in (False, True) for i in range(1, 6)}

    def test_matches_reference(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(1500):
            b1, b2 = _model_pair(rng) if rng.random() < 0.5 else (
                _random_b3(rng, 8), _random_b3(rng, 8))
            hom = hom11(b1, b2)
            for mirrored in (False, True):
                got = _outcome(oka3_decide, hom, mirrored)
                assert got == _outcome(oka3_decide_reference, hom, mirrored), (b1, b2, mirrored)
                seen.add(got.type_ if isinstance(got, Oka3Classified)
                         else e0_set(mirrored).index(got.witness) + 1)
            ref = oka3_decide_reference(hom)
            index = e0_set().index(ref.witness) + 1 if isinstance(ref, Oka3Violation) else 0
            assert _purekernels.e0_screen(b1.runs, b2.runs) == index
        assert seen == {1, 2, 3, 4, 5, PERIODIC_SIGMA12, PERIODIC_DELTA, REDUCIBLE_SIGMA1_DELTA2}

    def test_wrong_strand_count(self):
        # the map is refused where it is built, before any decision reads it
        b4 = BraidWord.parse("1 3", 4)
        for images in ((b4, delta(3)), (delta(3), b4), (b4, b4)):
            with pytest.raises(WrongStrandCount, match="SurfaceHom needs B_3, got B_4"):
                hom11(*images)


class TestEPrime:
    def test_torus_with_hole(self):
        ep = eprime_generate(SurfaceSignature(1, 1))
        assert ep.count == 3
        assert [t for _, t in ep.elements] == [TAG_GENERATOR, TAG_GENERATOR, TAG_COMMUTATOR]

    def test_three_holed_sphere(self):
        ep = eprime_generate(SurfaceSignature(0, 3))
        assert ep.count == 7
        tags = [t for _, t in ep.elements]
        assert tags.count(TAG_GENERATOR) == 3
        assert tags.count(TAG_PAIR) == 3

    def test_cylinder(self):
        ep = eprime_generate(SurfaceSignature(0, 2))
        assert ep.count == 1
        assert ep.words() == [FreeWord.gen(1)]

    def test_degenerate(self):
        with pytest.raises(DegenerateSignature):
            eprime_generate(SurfaceSignature(0, 1))

    def test_count_bound_sweep(self):
        # every signature of free rank 1-32 (288): the words are pairwise
        # distinct, and their count is the closed form of eprime_generate's
        # docstring, below the bound x^3
        def closed_form(g, m):
            x = 2 * g + m - 1
            if g:
                return 3 * g + (m - 1) + comb(x, 2) - g + 4 * g * (x - 2) + comb(m - 1, 2)
            return 1 if m == 2 else m + comb(m, 2) + comb(m, 3)

        signatures = [SurfaceSignature(g, x - 2 * g + 1)
                      for x in range(1, EPRIME_MAXRANK + 1) for g in range(x // 2 + 1)]
        assert len(signatures) == 288
        t0 = time.perf_counter()
        for sig in signatures:
            ep = eprime_generate(sig)
            assert ep.count == len({w.blocks for w in ep.words()}), sig
            assert ep.count == closed_form(sig.genus, sig.holes) <= ep.bound, sig
        assert time.perf_counter() - t0 < 5

    def test_hole_product_inverse(self):
        em = hole_product_inverse(SurfaceSignature(0, 3))
        assert em == (FreeWord.gen(1) * FreeWord.gen(2)).inv()

    def test_matches_reference(self):
        # every element, tag and order, and the DegenerateSignature of (0, 1)
        for g in range(0, 4):
            for m in range(1, 7):
                sig = SurfaceSignature(g, m)
                got = _outcome(eprime_generate, sig)
                assert got == _outcome(go_reference.eprime_generate, sig), (g, m)

    def test_equal_signatures_share_one_cached_set(self):
        ep = eprime_generate(SurfaceSignature(2, 3))
        assert eprime_generate(SurfaceSignature(2, 3)) is ep
        assert ep == go_reference.eprime_generate(SurfaceSignature(2, 3))
        # exceptions are not cached: the degenerate signature raises each time
        for _ in range(3):
            with pytest.raises(DegenerateSignature):
                eprime_generate(SurfaceSignature(0, 1))

    def test_rank_cap_raises_before_generating(self, capsys):
        at_cap = eprime_generate(SurfaceSignature(0, EPRIME_MAXRANK + 1))
        assert at_cap.signature.free_rank == EPRIME_MAXRANK
        for sig in (SurfaceSignature(0, EPRIME_MAXRANK + 2), SurfaceSignature(10**6, 1)):
            t0 = time.perf_counter()
            with pytest.raises(ResourceLimit, match="EPRIME_MAXRANK"):
                eprime_generate(sig)
            assert time.perf_counter() - t0 < 0.01
        assert cli.main(["eprime", "--genus", "1000000", "--holes", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["errorType"] == "ResourceLimit"
        # above the cap a cyclic image is still decided; any other needs E'
        sig = SurfaceSignature(0, EPRIME_MAXRANK + 2)
        images = {j: a1 ** j for j in range(1, sig.free_rank + 1)}
        assert go_surface_decide(fhom(sig, images)) == GOReducible("a1", a1)
        images[1] = a2
        with pytest.raises(ResourceLimit):
            go_surface_decide(fhom(sig, images))

    def test_simple_closed_curve_classes_are_nontrivial_for_positive_genus(self):
        ep = eprime_generate(SurfaceSignature(2, 2))
        for w, tag in ep.elements:
            assert not w.is_identity(), (w, tag)


_PERIPHERALS = (a1, a2, (a1 * a2).inv())
_PATTERNS = ((a1, a2), (a2, a1), (a1.inv(), a2.inv()), (a2.inv(), a1.inv()))


def _random_f2(rng, maxlen):
    return FreeWord(tuple(
        (rng.randint(1, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, maxlen))))


def _constructed_f2_hom(rng, kind):
    """An F2 monodromy built to be reducible (all images powers of one
    conjugated peripheral), a sphere pattern (a conjugated boundary triple,
    rotated, spread over the holes), or arbitrary (random words and
    peripheral powers, mostly notGO)."""
    if kind == "reducible":
        g, m = rng.choice(((1, 1), (1, 2), (2, 1), (0, 2), (0, 3), (0, 4), (1, 3)))
        c = _random_f2(rng, 4)
        root = c * rng.choice(_PERIPHERALS) * c.inv()
        images = {j: root ** rng.randint(-3, 3) for j in range(1, 2 * g + m)}
    elif kind == "sphere":
        g, m = 0, rng.randint(3, 6)
        c = _random_f2(rng, 4)
        t1, t2 = rng.choice(_PATTERNS)
        triple = [c * t1 * c.inv(), c * t2 * c.inv(), c * (t1 * t2).inv() * c.inv()]
        rot = rng.randrange(3)
        triple = triple[rot:] + triple[:rot]
        images = {j: FreeWord.identity() for j in range(1, m)}
        # the last hole is the product inverse, so it carries the third word
        for j, w in zip(sorted(rng.sample(range(1, m + 1), 3)), triple):
            if j < m:
                images[j] = w
        if rng.random() < 0.2:
            j = rng.randrange(1, m)
            images[j] = images[j] ** rng.choice((-1, 2))
    else:
        g, m = rng.choice(((1, 1), (1, 2), (0, 3), (0, 4), (2, 1)))
        images = {j: _random_f2(rng, 5) if rng.random() < 0.5
                  else rng.choice(_PERIPHERALS) ** rng.randint(-2, 2)
                  for j in range(1, 2 * g + m)}
    return fhom(SurfaceSignature(g, m), images)


class TestGoSurfaceParity:
    """go_surface_decide on reduced blocks against the letter-level
    reference of tests/go_reference.py."""

    def test_matches_reference(self):
        rng = random.Random(47)
        seen = set()
        for k in range(2400):
            hom = _constructed_f2_hom(rng, ("reducible", "sphere", "notGO")[k % 3])
            got = _outcome(go_surface_decide, hom)
            ref = _outcome(go_reference.go_surface_decide, hom)
            assert got == ref, hom
            if not isinstance(got, tuple):
                assert got.as_dict() == ref.as_dict(), hom
                seen.add(got.as_dict()["verdict"])
        assert seen == {"reducible", "sphereHolomorphic", "sphereAntiholomorphic", "notGO"}

    def test_every_short_three_holed_sphere_matches_reference(self):
        # every genus-0, 3-hole homomorphism with images of at most 3 letters
        words = all_free_words(3)
        verdicts = Counter()
        t0 = time.perf_counter()
        for u, v in itertools.product(words, repeat=2):
            hom = fhom(SurfaceSignature(0, 3), {1: u, 2: v})
            got = _outcome(go_surface_decide, hom)
            assert got == _outcome(go_reference.go_surface_decide, hom), hom
            verdicts[got.as_dict()["verdict"]] += 1
        assert time.perf_counter() - t0 < 10
        assert verdicts == {"notGO": 2612, "reducible": 145,
                            "sphereHolomorphic": 26, "sphereAntiholomorphic": 26}

    def test_huge_exponents_budget(self):
        # the letter-level decision took 7.9 s at 10^6 and ran out of memory
        # at 10^9
        n = 10**9
        c = a2 * a1.inv()
        cases = [
            (SurfaceSignature(1, 1), {1: FreeWord.gen(1, n), 2: FreeWord.gen(1, 2 * n)}, "a1"),
            (SurfaceSignature(0, 3), {1: c * FreeWord.gen(2, -n) * c.inv(),
                                      2: c * FreeWord.gen(2, 3 * n) * c.inv()}, "a2"),
        ]
        for sig, images, peripheral in cases:
            hom = fhom(sig, images)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                r = go_surface_decide(hom)
                best = min(best, time.perf_counter() - t0)
            assert best < 0.01
            assert isinstance(r, GOReducible) and r.peripheral == peripheral
        r = go_surface_decide(fhom(SurfaceSignature(1, 1), {1: a1**n, 2: a2**n}))
        assert isinstance(r, NotGO) and r.witness == commutator(a1, a2)

    def test_block_images_match_reference(self):
        # go_surface_decide reduces the concatenated block images of an E'
        # element once
        rng = random.Random(53)
        for k in range(600):
            hom = _constructed_f2_hom(rng, ("reducible", "sphere", "notGO")[k % 3])
            gens = range(1, hom.signature.free_rank + 1)
            w = FreeWord(tuple((rng.choice(gens), rng.choice((-1, 1)) * rng.randint(1, 4))
                               for _ in range(rng.randint(0, 5))))
            got = FreeWord(tuple(b for block in w.blocks for b in hom._block_image(*block)))
            assert got == go_reference.word_image(hom, w), (hom, w)

    def test_block_image_huge_exponent_budget(self):
        c = a2 * a1.inv()
        hom = fhom(SurfaceSignature(1, 1), {1: a1, 2: c * a2**3 * c.inv()})
        n = 10**9
        for block, want in (((1, n), FreeWord.gen(1, n)),
                            ((2, -n), c * FreeWord.gen(2, -3 * n) * c.inv())):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                got = FreeWord(hom._block_image(*block))
                best = min(best, time.perf_counter() - t0)
            assert got == want and best < 0.005

    def test_extra_generators_rejected(self):
        sig = SurfaceSignature(1, 1)
        with pytest.raises(ValueError, match="a3"):
            fhom(sig, {1: FreeWord.parse("a3"), 2: FreeWord.parse("a3^2")})
        with pytest.raises(ValueError, match="a4"):
            fhom(sig, {1: a1, 2: a2 * FreeWord.gen(4) * a1})
        with pytest.raises(ValueError):
            SurfaceHom.from_json({"genus": 0, "holes": 3, "target": "F2",
                                  "images": {"e1": "a1", "e2": "a2 a5^-2"}})

    @pytest.mark.parametrize("field, value", [("genus", True), ("holes", False),
                                              ("genus", "1_0"), ("genus", " 1")])
    def test_json_signature_is_a_strict_integer(self, field, value):
        # int() read true as 1 and "1_0" as 10
        data = {"genus": 1, "holes": 1, "target": "B3", "images": {"e1": "1", "e2": "2"}}
        with pytest.raises(ValueError, match=f'"{field}" must be an integer'):
            SurfaceHom.from_json({**data, field: value})

    @pytest.mark.parametrize("images, message", [
        ({"e1": "1", "a1": "2", "e2": "1"}, 'images key "a1" must be e<k>'),
        ({"eae1": "1", "e2": "1"}, 'images key "eae1" must be e<k>'),
        ({"e1": "1", "e2": "1", "e02": "2"}, 'images keys "e2" and "e02" name one generator'),
    ])
    def test_json_image_keys_are_e_and_an_index(self, images, message):
        # keys once lost their leading e and a letters, so "a1" replaced "e1"
        with pytest.raises(ValueError, match=message):
            SurfaceHom.from_json({"genus": 1, "holes": 1, "target": "B3", "images": images})
        good = SurfaceHom.from_json({"genus": 1, "holes": 1, "target": "B3",
                                     "images": {"e2": "1", "e1": "2"}})
        assert good.images == {1: BraidWord(3, (2,)), 2: BraidWord(3, (1,))}


_NOT_PERIPHERAL = (a1 * a2**2, commutator(a1, a2), a1**2 * a2**2, a1 * a2.inv())


def _genus0_pattern_hom(rng, variant):
    """A conjugated sphere pattern (either orientation, rotated) on three of
    4-6 holes, the other holes trivial.  "generator" replaces one image by a
    conjugated non-peripheral word, so a generator before the virtual one
    fails; "virtual" squares one live image when the last hole is live, so
    the virtual generator's image fails; "square" squares one when it is
    not, so four monodromies are live and the pairs and triples after the
    virtual generator are screened."""
    m = rng.randint(4, 6)
    c = _random_f2(rng, 4)
    t1, t2 = rng.choice(_PATTERNS)
    triple = [c * t1 * c.inv(), c * t2 * c.inv(), c * (t1 * t2).inv() * c.inv()]
    rot = rng.randrange(3)
    triple = triple[rot:] + triple[:rot]
    last_live = variant == "virtual" or (variant != "square" and rng.random() < 0.5)
    holes = rng.sample(range(1, m), 2 if last_live else 3)
    live = sorted(holes) + ([m] if last_live else [])
    images = {j: FreeWord.identity() for j in range(1, m)}
    for j, w in zip(live, triple):
        if j < m:
            images[j] = w
    if variant == "generator":
        d = _random_f2(rng, 3)
        images[rng.randrange(1, m)] = d * rng.choice(_NOT_PERIPHERAL) * d.inv()
    elif variant in ("virtual", "square"):
        j = rng.choice(holes)
        images[j] = images[j] ** 2
    return fhom(SurfaceSignature(0, m), images)


class TestGenusZeroScreen:
    """The genus-0 E' screen stops at the m generators when at most three
    boundary monodromies are nontrivial; every other E' image is then a
    product that the boundary already decides."""

    @staticmethod
    def _count_matches(monkeypatch):
        # each E' image is reduced once and matched once through _peripheral
        matched = []
        real = oka._peripheral

        def counting(blocks):
            matched.append(blocks)
            return real(blocks)

        monkeypatch.setattr(oka, "_peripheral", counting)
        return matched

    def test_three_live_holes_screen_the_generators_alone(self, monkeypatch):
        c = a2 * a1.inv()
        sig = SurfaceSignature(0, 5)
        hom = fhom(sig, {1: c * a1 * c.inv(), 2: FreeWord.identity(),
                         3: c * a2 * c.inv(), 4: FreeWord.identity()})
        want = go_reference.go_surface_decide(hom)
        assert eprime_generate(sig).count == 25
        matched = self._count_matches(monkeypatch)
        assert go_surface_decide(hom) == want == GOSphereHolomorphic((1, 3, 5))
        assert len(matched) == 5

    def test_four_live_holes_go_on_past_the_generators(self, monkeypatch):
        sig = SurfaceSignature(0, 5)
        elements = eprime_generate(sig).elements
        cases = [({1: a1, 2: a2, 3: a1, 4: a2}, 8), ({1: a1, 2: a1.inv(), 3: a2, 4: a2.inv()}, 7)]
        homs = [fhom(sig, images) for images, _ in cases]
        wants = [go_reference.go_surface_decide(hom) for hom in homs]
        matched = self._count_matches(monkeypatch)
        for hom, want, (_, index) in zip(homs, wants, cases):
            # every peripheral generator passes, so the pairs are screened
            # up to the reference's witness
            assert want.witness == elements[index][0] and elements[index][1] == TAG_PAIR
            matched.clear()
            assert go_surface_decide(hom) == want
            assert len(matched) == index + 1

    def test_patterns_with_trivial_holes_match_reference(self):
        rng = random.Random(61)
        variants = ("sphere", "generator", "virtual", "square")
        verdicts, places = Counter(), set()
        t0 = time.perf_counter()
        for k in range(2000):
            hom = _genus0_pattern_hom(rng, variants[k % 4])
            got = _outcome(go_surface_decide, hom)
            assert got == _outcome(go_reference.go_surface_decide, hom), hom
            verdicts[got.as_dict()["verdict"]] += 1
            if isinstance(got, NotGO):
                m = hom.signature.holes
                index = eprime_generate(hom.signature).words().index(got.witness)
                places.add((index > m - 1) - (index < m - 1))
        assert time.perf_counter() - t0 < 10
        assert set(verdicts) == {"sphereHolomorphic", "sphereAntiholomorphic", "notGO"}
        # witnesses before, at and after the virtual generator e_m
        assert places == {-1, 0, 1}


class TestSphereLemmas:
    """The lemmas of go_surface_decide's step 3 (its docstring), checked on
    enumerations: G2 on pairs of peripheral powers, G3 on 4-hole spheres."""

    def test_three_element_lemma(self):
        # (G2) x = p^k, y = c p'^k' c^-1 over every reduced c of at most 4
        # letters: when x, y do not commute and xy is conjugate to a
        # peripheral power, x, y, (xy)^-1 lie in three classes with one
        # exponent s = +-1, and the reference finds a rotated, conjugated
        # sphere pattern
        exps = (-3, -2, -1, 1, 2, 3)
        verdicts = Counter()
        t0 = time.perf_counter()
        for p, k, q, k2, c in itertools.product(
                _PERIPHERALS, exps, _PERIPHERALS, exps, all_free_words(4)):
            x, y = p**k, c * q**k2 * c.inv()
            if x * y == y * x or is_conjugate_into_peripheral(x * y) is None:
                continue
            hits = [is_conjugate_into_peripheral(w) for w in (x, y, (x * y).inv())]
            assert len({h.peripheral for h in hits}) == 3, (x, y)
            assert len({h.power for h in hits}) == 1 and abs(hits[0].power) == 1, (x, y)
            hom = fhom(SurfaceSignature(0, 3), {1: x, 2: y})
            got = go_surface_decide(hom)
            assert got == go_reference.go_surface_decide(hom), (x, y)
            verdicts[got.as_dict()["verdict"], hits[0].power] += 1
        assert time.perf_counter() - t0 < 3
        assert verdicts == {("sphereHolomorphic", 1): 182, ("sphereAntiholomorphic", -1): 182}

    def test_four_live_holes_fail_at_a_pair_or_triple(self):
        # (G3) images c p^k c^-1 with |c| <= 1 and k = +-1, +-2 (40 distinct
        # words) on e1, e2, e3, kept when the virtual image is peripheral
        # too: every generator passes, so a failure is a pair or a triple,
        # and no case reaches step 3 with four live monodromies
        words = {(c * p**k * c.inv()).blocks for c in all_free_words(1)
                 for p in _PERIPHERALS for k in (-2, -1, 1, 2)}
        sig = SurfaceSignature(0, 4)
        elements = dict(eprime_generate(sig).elements)
        verdicts = Counter()
        t0 = time.perf_counter()
        for images in itertools.product(map(FreeWord, sorted(words)), repeat=3):
            if is_conjugate_into_peripheral((images[0] * images[1] * images[2]).inv()) is None:
                continue
            got = go_surface_decide(fhom(sig, dict(enumerate(images, 1))))
            if isinstance(got, NotGO):
                assert elements[got.witness] in (TAG_PAIR, TAG_TRIPLE), images
            verdicts[got.as_dict()["verdict"]] += 1
        assert time.perf_counter() - t0 < 3
        assert verdicts == {"notGO": 6720, "reducible": 640,
                            "sphereHolomorphic": 24, "sphereAntiholomorphic": 24}


class TestPositiveGenusLemmas:
    """The lemmas G4-G6 of go_surface_decide's positive-genus case (its
    docstring), checked on enumerations: an image that passes E' is
    cyclic, and the first witness lies in the family the lemmas name."""

    @staticmethod
    def _words(exponents):
        """1 and every c p^k c^-1 with |c| <= 1 and k in exponents (20
        distinct words for k = +-1, 40 for k = +-1, +-2): each passes the
        generator screen."""
        return [FreeWord.identity()] + [FreeWord(b) for b in sorted(
            {(c * p**k * c.inv()).blocks for c in all_free_words(1)
             for p in _PERIPHERALS for k in exponents})]

    def test_handle_commutator_lemma(self):
        # (G4) every (1, 1) image pair of at most 4 letters: the commutator
        # passes exactly when the images commute, and then the image is
        # cyclic, so E' of (1, 1), {e1, e2, [e1, e2]}, decides it
        words = all_free_words(4)
        passes = [is_conjugate_into_peripheral(w) is not None for w in words]
        sig = SurfaceSignature(1, 1)
        e1, e2 = FreeWord.gen(1), FreeWord.gen(2)
        verdicts = Counter()
        t0 = time.perf_counter()
        for (x, px), (y, py) in itertools.product(zip(words, passes), repeat=2):
            commute = x * y == y * x
            assert (is_conjugate_into_peripheral(commutator(x, y)) is not None) == commute
            got = go_surface_decide(fhom(sig, {1: x, 2: y}))
            want = (e1 if not px else e2 if not py else
                    None if commute else commutator(e1, e2))
            if want is None:
                assert isinstance(got, GOReducible), (x, y)
            else:
                assert got.witness == want, (x, y)
            verdicts[got.as_dict()["verdict"]] += 1
        assert time.perf_counter() - t0 < 3
        assert verdicts == {"notGO": 25584, "reducible": 337}

    def test_handle_mix_lemma(self):
        # (G5) a nontrivial handle whose images commute, and another image
        # that does not commute with their root: some pair or handle-mix
        # word of the two fails.  Every (1, 2) homomorphism over
        # _words(+-1, +-2) whose handle passes G4, where those six words
        # follow the generators and the commutator, and every (2, 1) one
        # over _words(+-1) whose two handles pass G4 (a handle that fails
        # G4 fails at its commutator, as the (1, 1) enumeration shows)
        tags = Counter()
        t0 = time.perf_counter()
        for sig, exponents in ((SurfaceSignature(1, 2), (-2, -1, 1, 2)),
                               (SurfaceSignature(2, 1), (-1, 1))):
            words = self._words(exponents)
            commute = [[x * y == y * x for y in words] for x in words]
            n = len(words)
            handles = [(i, j) for i in range(n) for j in range(n) if commute[i][j]]
            rest = [(i,) for i in range(n)] if sig.genus == 1 else handles
            elements = dict(eprime_generate(sig).elements)
            for h, r in itertools.product(handles, rest):
                got = go_surface_decide(fhom(sig, {j: words[i] for j, i in enumerate(h + r, 1)}))
                if all(commute[i][j] for i in h + r for j in h + r):
                    assert isinstance(got, GOReducible), h + r
                else:
                    assert elements[got.witness] in (TAG_PAIR, TAG_HANDLE_MIX), h + r
                    tags[sig.genus, elements[got.witness]] += 1
        assert time.perf_counter() - t0 < 3
        assert set(tags) == {(g, tag) for g in (1, 2) for tag in (TAG_PAIR, TAG_HANDLE_MIX)}

    def test_hole_pattern_lemma(self):
        # (G6) trivial handles and two hole images u, v that do not commute:
        # the pair uv fails, or it passes and the hole-pattern word, with
        # image u^2 v, fails.  Every (1, 3) homomorphism with a trivial
        # handle and hole images from _words(+-1, +-2)
        sig = SurfaceSignature(1, 3)
        one = FreeWord.identity()
        pair, pattern = FreeWord.parse("a3 a4"), FreeWord.parse("a3 a1 a3 a2 a4")
        tags = Counter()
        t0 = time.perf_counter()
        for u, v in itertools.product(self._words((-2, -1, 1, 2)), repeat=2):
            got = go_surface_decide(fhom(sig, {1: one, 2: one, 3: u, 4: v}))
            if u * v == v * u:
                assert isinstance(got, GOReducible), (u, v)
                continue
            uv_passes = is_conjugate_into_peripheral(u * v) is not None
            assert got.witness == (pattern if uv_passes else pair), (u, v)
            tags[dict(eprime_generate(sig).elements)[got.witness]] += 1
        assert time.perf_counter() - t0 < 1
        assert set(tags) == {TAG_PAIR, TAG_HOLE_PATTERN}

    @pytest.mark.parametrize("sig, images, witness, tag", [
        ((1, 1), ("a1 a2^2", "a1"), "e1", TAG_GENERATOR),
        ((1, 1), ("a1", "a2"), "e1 e2 e1^-1 e2^-1", TAG_COMMUTATOR),
        ((1, 2), ("a1^2", "", "a2"), "e1 e3", TAG_PAIR),
        ((1, 2), ("a1", "a1", "a2"), "e1^2 e2 e3", TAG_HANDLE_MIX),
        ((1, 2), ("", "a1", "a2"), "e1 e2^2 e3", TAG_HANDLE_MIX),
        ((1, 3), ("", "", "a1", "a2"), "e3 e1 e3 e2 e4", TAG_HOLE_PATTERN),
        ((0, 6), ("a1", "a2", "a2^-1 a1^-1", "a1", "a2"), "e1 e2 e4", TAG_TRIPLE),
    ], ids=["generator", "commutator", "pair", "handle-mix-a-squared", "handle-mix-b-squared",
            "hole-pattern", "triple"])
    def test_each_family_is_a_first_witness(self, sig, images, witness, tag):
        # (0, 6): all pairs pass, as the six live monodromies are the
        # three peripherals twice, but x x y is no peripheral power (G3)
        sig = SurfaceSignature(*sig)
        hom = fhom(sig, {j: FreeWord.parse(w) for j, w in enumerate(images, 1)})
        got = go_surface_decide(hom)
        assert got == go_reference.go_surface_decide(hom)
        assert got.witness.text(prefix="e") == witness
        assert dict(eprime_generate(sig).elements)[got.witness] == tag


class TestGoSurface:
    def test_images_are_the_records_own(self):
        # a change to the argument after construction leaves the record and
        # its verdict as they were
        images = {1: a1, 2: a2}
        hom = fhom(SurfaceSignature(0, 3), images)
        verdict = go_surface_decide(hom)
        images[1], images[3] = "junk", a1
        assert hom.images == {1: a1, 2: a2} and go_surface_decide(hom) == verdict
        assert isinstance(verdict, GOSphereHolomorphic)

    def test_cyclic_image(self):
        r = go_surface_decide(fhom(SurfaceSignature(1, 1), {1: a1**2, 2: a1**5}))
        assert isinstance(r, GOReducible)
        assert r.peripheral == "a1" and r.root == a1

    def test_cyclic_peripheral_image_needs_no_eprime(self, monkeypatch):
        # a cyclic peripheral image is decided before E' is screened
        def refuse(sig):
            raise AssertionError("E' was generated for a cyclic peripheral image")

        c = a2 * a1.inv()
        root = c * (a1 * a2).inv() * c.inv()
        cases = [
            fhom(SurfaceSignature(1, 1), {1: a1**2, 2: a1**-5}),
            fhom(SurfaceSignature(2, 1), {1: root, 2: root**-2, 3: FreeWord.identity(), 4: root**3}),
            fhom(SurfaceSignature(0, 4), {1: c * a2 * c.inv(), 2: c * a2**-1 * c.inv(),
                                          3: FreeWord.identity()}),
            fhom(SurfaceSignature(1, 2), {j: FreeWord.identity() for j in (1, 2, 3)}),
        ]
        want = [go_reference.go_surface_decide(hom) for hom in cases]
        monkeypatch.setattr(oka, "eprime_generate", refuse)
        assert [go_surface_decide(hom) for hom in cases] == want
        assert [type(r) for r in want] == [GOReducible] * 4
        with pytest.raises(DegenerateSignature):
            go_surface_decide(fhom(SurfaceSignature(0, 1), {}))

    def test_commutator_witness(self):
        r = go_surface_decide(fhom(SurfaceSignature(1, 1), {1: a1, 2: a2}))
        assert isinstance(r, NotGO)
        assert r.witness == commutator(FreeWord.gen(1), FreeWord.gen(2))

    def test_sphere_holomorphic(self):
        r = go_surface_decide(fhom(SurfaceSignature(0, 3), {1: a1, 2: a2}))
        assert isinstance(r, GOSphereHolomorphic) and r.triple == (1, 2, 3)

    def test_sphere_antiholomorphic(self):
        r = go_surface_decide(
            fhom(SurfaceSignature(0, 3), {1: a1.inv(), 2: a2.inv()})
        )
        assert isinstance(r, NotGOSphereAntiholomorphic) and r.triple == (1, 2, 3)

    def test_sphere_pattern_conjugated(self):
        c = a2 * a1.inv() * a2 * a2
        r = go_surface_decide(
            fhom(
                SurfaceSignature(0, 3),
                {1: c * a1 * c.inv(), 2: c * a2 * c.inv()},
            )
        )
        assert isinstance(r, GOSphereHolomorphic)

    def test_sphere_with_trivial_hole(self):
        r = go_surface_decide(
            fhom(SurfaceSignature(0, 4), {1: a2, 2: FreeWord.identity(), 3: a1})
        )
        assert isinstance(r, GOSphereHolomorphic) and r.triple == (1, 3, 4)

    def test_trivial_monodromy(self):
        r = go_surface_decide(
            fhom(SurfaceSignature(1, 1), {1: FreeWord.identity(), 2: FreeWord.identity()})
        )
        assert isinstance(r, GOReducible) and r.root.is_identity()

    def test_wrong_target(self):
        hom = SurfaceHom(
            SurfaceSignature(1, 1),
            TARGET_B3,
            {1: BraidWord(3), 2: BraidWord(3)},
        )
        with pytest.raises(WrongTarget):
            go_surface_decide(hom)
        with pytest.raises(ValueError, match="F2 target needs FreeWord images"):
            fhom(SurfaceSignature(1, 1), {1: a1, 2: BraidWord(3)})

    def test_peripheral_power_mix_not_go(self):
        # both images peripheral but along different peripherals on a
        # 4-holed sphere with powers > 1: not reducible, not a covering
        r = go_surface_decide(fhom(SurfaceSignature(0, 4), {1: a1**2, 2: a2, 3: a2.inv()}))
        assert isinstance(r, NotGO)

    def test_pair_product_order_insensitive(self):
        # the verdict on e'e'' matches the verdict on e''e' because the two
        # products are conjugate words
        rng = random.Random(5)
        pool = [a1, a2, a1 * a2, a2.inv(), a1.inv() * a2.inv()]
        for _ in range(40):
            u = rng.choice(pool) ** rng.randint(1, 3)
            v = rng.choice(pool) ** rng.randint(1, 3)
            assert free_conjugate(u * v, v * u)
            lhs = is_conjugate_into_peripheral(u * v)
            rhs = is_conjugate_into_peripheral(v * u)
            assert (lhs is None) == (rhs is None)
            if lhs is not None:
                assert (lhs.peripheral, lhs.power) == (rhs.peripheral, rhs.power)

    def test_positive_genus_classification_exhaustive_small(self):
        # two-generator torus monodromies drawn from peripheral powers:
        # every outcome must be GOReducible or NotGO, never a contradiction
        pool = [
            FreeWord.identity(),
            a1,
            a1**-2,
            a2,
            a2**3,
            (a1 * a2).inv(),
            a1 * a2,
            a2 * a1 * a2.inv(),
        ]
        for u in pool:
            for v in pool:
                r = go_surface_decide(fhom(SurfaceSignature(1, 1), {1: u, 2: v}))
                assert isinstance(r, (GOReducible, NotGO))
