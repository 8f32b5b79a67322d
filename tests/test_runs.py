"""Braid words held as runs sigma_i^k: each consumer against its letter-by-
letter oracle and against the same word given one run per letter, the
`i^k` syntax, powers, and the letter caps."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from braidoka import oka, sl2z, three
from braidoka.braid import (
    MAX_LETTERS,
    POW_MAXRUNS,
    BraidWord,
    _dynnikov,
    braid_eq,
    exponent_sum,
    linking_numbers,
    normal_form,
    permutation,
)
from braidoka.errors import NotPure, ResourceLimit

from braid_helpers import dynnikov_letters, strand_walk, theta_letters

KMAX = 400


@st.composite
def run_words(draw, min_strands=2, max_strands=6, kmax=KMAX, max_runs=8, even=False):
    """(n, letters) of a word of up to max_runs runs sigma_i^k, |k| <= kmax
    (k even when even is set, which makes the word pure)."""
    n = draw(st.integers(min_strands, max_strands))
    letters: tuple[int, ...] = ()
    for _ in range(draw(st.integers(0, max_runs))):
        i = draw(st.integers(1, n - 1))
        k = draw(st.integers(1, kmax // 2 if even else kmax))
        k = 2 * k if even else k
        letters += (i if draw(st.booleans()) else -i,) * k
    return n, letters


def unit_runs(b: BraidWord) -> BraidWord:
    """b with one run per letter, not merged: each consumer must give the
    same answer as on the maximal runs."""
    return BraidWord._from_runs(
        b.strands, tuple((abs(x), 1 if x > 0 else -1) for x in b.letters))


class TestRepresentation:
    @given(run_words())
    def test_runs_are_maximal_and_spell_the_letters(self, nw):
        n, letters = nw
        b = BraidWord(n, letters)
        assert b.letters == letters
        assert all(k for _, k in b.runs)
        assert all(i != j or (k > 0) != (m > 0) for (i, k), (j, m) in zip(b.runs, b.runs[1:]))
        assert sum(abs(k) for _, k in b.runs) == len(letters)

    @given(run_words())
    def test_text_parses_back(self, nw):
        n, letters = nw
        b = BraidWord(n, letters)
        assert BraidWord.parse(b.text(), n) == b
        assert BraidWord.parse(" ".join(map(str, letters)), n) == b

    @given(run_words(), run_words(), st.data())
    def test_products_and_inverses_spell_the_letters(self, nw1, nw2, data):
        n, l1 = nw1
        l2 = tuple(x for x in nw2[1] if abs(x) < n)
        b1, b2 = BraidWord(n, l1), BraidWord(n, l2)
        assert (b1 * b2).letters == l1 + l2 and b1 * b2 == BraidWord(n, l1 + l2)
        assert b1.inv().letters == tuple(-x for x in reversed(l1))
        k = data.draw(st.integers(-5, 5))
        expected = (l1 if k >= 0 else b1.inv().letters) * abs(k)
        assert (b1 ** k).letters == expected and b1 ** k == BraidWord(n, expected)

    def test_parse_reads_runs(self):
        b = BraidWord.parse("1^3 -2^2 2^-1 -1^-2, 1")
        assert b.strands == 3
        assert b.runs == ((1, 3), (2, -3), (1, 3))
        assert b.letters == (1, 1, 1, -2, -2, -2, 1, 1, 1)
        assert BraidWord.parse("3^5", None).strands == 4
        assert repr(BraidWord.parse("1^3 -2")) == "BraidWord(B3: 1^3 -2)"

    @pytest.mark.parametrize("text, message", [
        ("1^0", "a braid exponent must be nonzero"),
        ("1^x", "a braid exponent must be an integer"),
        ("1^", "a braid exponent must be an integer"),
        ("1^2_0", "a braid exponent must be an integer"),
        ("^2", "a braid letter must be an integer"),
        ("1^2^3", "a braid exponent must be an integer"),
        ("0^2", "letter 0 out of range for B_2"),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(ValueError, match=message.replace("^", r"\^")):
            BraidWord.parse(text)

    def test_parse_checks_the_strand_count(self):
        with pytest.raises(ValueError, match="letter -3 out of range for B_3"):
            BraidWord.parse("1 -3^4", 3)

    def test_every_construction_calls_post_init(self, monkeypatch):
        # perfbench's tracer counts constructions by wrapping __post_init__
        calls = []
        orig = BraidWord.__post_init__
        monkeypatch.setattr(BraidWord, "__post_init__", lambda self: (calls.append(self), orig(self)))
        a = BraidWord(3, (1, 1, -2))
        made = [a, BraidWord.parse("1^2 2"), BraidWord.sigma(3, 2, -4), a * a, a.inv(),
                a ** 3, a ** -2, BraidWord.sigma(3, 1, 7) ** 10**50]
        assert all(any(c is m for c in calls) for m in made)


class TestPowers:
    def test_one_run_takes_its_power_in_closed_form(self):
        b = BraidWord.sigma(3, 1, 5) ** 10**100
        assert b.runs == ((1, 5 * 10**100),)
        assert (BraidWord.sigma(4, 3, -2) ** -7).runs == ((3, 14),)
        assert (BraidWord.sigma(3, 2) ** 0).runs == ()
        assert (BraidWord(3) ** 5).runs == ()

    def test_runs_meet_at_the_joins(self):
        b = BraidWord.parse("1 2 1")
        assert (b ** 3).runs == ((1, 1), (2, 1), (1, 2), (2, 1), (1, 2), (2, 1), (1, 1))

    def test_power_cap(self):
        b = BraidWord.parse("1 2")
        assert len((b ** (POW_MAXRUNS // 2)).runs) == POW_MAXRUNS
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimit, match="POW_MAXRUNS"):
            b ** (POW_MAXRUNS // 2 + 1)
        with pytest.raises(ResourceLimit):
            b ** -10**100
        assert time.perf_counter() - t0 < 0.01


class TestConsumersOnRuns:
    """Each consumer against a letter-by-letter oracle, and on the same word
    with one run per letter."""

    @given(run_words(3, 3))
    def test_theta_and_exponent_sum(self, nw):
        _, letters = nw
        b = BraidWord(3, letters)
        assert sl2z.theta(b).entries() == theta_letters(letters)
        assert exponent_sum(b) == sum(1 if x > 0 else -1 for x in letters)
        assert sl2z.theta(unit_runs(b)) == sl2z.theta(b)
        assert exponent_sum(unit_runs(b)) == exponent_sum(b)

    @given(run_words())
    def test_permutation(self, nw):
        n, letters = nw
        b = BraidWord(n, letters)
        pos, _ = strand_walk(n, letters)
        assert permutation(b).images == tuple(pos.index(i) + 1 for i in range(1, n + 1))
        assert permutation(unit_runs(b)) == permutation(b)

    @given(st.one_of(run_words(), run_words(even=True)))
    def test_linking_numbers(self, nw):
        n, letters = nw
        b = BraidWord(n, letters)
        pos, counts = strand_walk(n, letters)
        if pos != tuple(range(1, n + 1)):
            with pytest.raises(NotPure):
                linking_numbers(b)
            return
        lk = linking_numbers(b)
        assert all(v == counts.get((i, j), 0) // 2 for i, j, v in lk.values)
        assert linking_numbers(unit_runs(b)) == lk

    @given(run_words(), st.data())
    def test_dynnikov(self, nw, data):
        n, letters = nw
        b = BraidWord(n, letters)
        start = data.draw(st.sampled_from([[0, 1] * n, None]))
        v = start or data.draw(st.lists(st.integers(-2**40, 2**40), min_size=2 * n, max_size=2 * n))
        assert _dynnikov(b.runs, v) == dynnikov_letters(letters, v)
        assert _dynnikov(unit_runs(b).runs, v) == _dynnikov(b.runs, v)

    @settings(max_examples=60)
    @given(run_words(3, 3, kmax=60, max_runs=6), run_words(3, 3, kmax=60, max_runs=4),
           st.integers(-3, 3))
    def test_b3_decisions(self, nw, nu, k):
        b, u = BraidWord(3, nw[1]), BraidWord(3, nu[1])
        c = u * b * u.inv()
        assert three.classify3(b) == three.classify3(unit_runs(b)) == three.classify3(c)
        assert three.entropy3(b) == three.entropy3(unit_runs(b))
        assert three.conj3(b, c) and three.conj3(unit_runs(b), unit_runs(c))
        if k:
            s = BraidWord.sigma(3, 1, k)
            assert three.centralizer_check(b, k) == braid_eq(b * s, s * b) \
                == three.centralizer_check(unit_runs(b), k)
        hom = oka.SurfaceHom(oka.SurfaceSignature(1, 1), oka.TARGET_B3, {1: b, 2: u})
        unit = oka.SurfaceHom(oka.SurfaceSignature(1, 1), oka.TARGET_B3,
                              {1: unit_runs(b), 2: unit_runs(u)})
        for mirrored in (False, True):
            assert oka.oka3_decide(hom, mirrored) == oka.oka3_decide(unit, mirrored)

    @settings(max_examples=60)
    @given(run_words(2, 5, kmax=12, max_runs=6), st.data())
    def test_braid_eq_agrees_with_normal_form(self, nw, data):
        n, letters = nw
        b = BraidWord(n, letters)
        i = data.draw(st.integers(1, n - 1))
        k = data.draw(st.integers(-12, 12).filter(bool))
        # an equal word (a run and its inverse inserted at a cut point) or
        # one letter more
        cut = data.draw(st.integers(0, len(letters)))
        s = (i if k > 0 else -i,) * abs(k)
        if data.draw(st.booleans()):
            other = BraidWord(n, letters[:cut] + s + tuple(-x for x in s) + letters[cut:])
        else:
            other = BraidWord(n, letters[:cut] + s[:1] + letters[cut:])
        same = normal_form(b) == normal_form(other)
        assert braid_eq(b, other) == same
        assert normal_form(unit_runs(b)) == normal_form(b)


class TestLongRuns:
    """B_3 decisions cost O(1) per run; the letter-by-letter steps are capped."""

    def test_b3_decisions_on_huge_exponents(self):
        big = 10**100
        b = BraidWord.parse(f"1^{big} -2")  # theta = [[1 + K, K], [1, 1]]
        u = BraidWord.parse("2 1^7 -2 1")
        c = u * b * u.inv()
        t0 = time.perf_counter()
        verdict = three.classify3(b)
        assert three.conj3(b, c) and not three.conj3(b, c * BraidWord.sigma(3, 1, 12))
        assert three.classify3(c) == verdict
        elapsed = time.perf_counter() - t0
        assert verdict.trace == big + 2 and verdict.exponent_sum == big - 1
        assert math.isclose(verdict.entropy, math.log(big), rel_tol=1e-9)
        assert elapsed < 0.005
        assert braid_eq(b * b.inv(), BraidWord(3))
        assert three.centralizer_check(BraidWord.sigma(3, 1, -big), big)

    def test_normal_form_and_letters_are_capped(self):
        b = BraidWord.sigma(4, 1, MAX_LETTERS + 1)
        for f in (normal_form, lambda w: w.letters):
            t0 = time.perf_counter()
            with pytest.raises(ResourceLimit, match="MAX_LETTERS"):
                f(b)
            assert time.perf_counter() - t0 < 0.01
        assert len(BraidWord.sigma(4, 1, 100).letters) == 100

    def test_dynnikov_is_capped_on_long_runs(self):
        b = BraidWord.parse("1^1000000000 3", 4)
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimit, match="MAX_LETTERS"):
            braid_eq(b, b)
        assert time.perf_counter() - t0 < 0.01
        # single-letter runs are steps the input already pays for
        w = BraidWord(4, (1, 3) * (MAX_LETTERS // 2 + 1))
        assert _dynnikov(w.runs, [0, 1] * 4)

    def test_dynnikov_of_a_long_run_equals_its_letters(self):
        n = 5
        rng = random.Random(8)
        v = [rng.randint(-10**6, 10**6) for _ in range(2 * n)]
        for i, k in ((1, 3000), (2, -2500), (4, 1777)):
            letters = (i if k > 0 else -i,) * abs(k)
            assert _dynnikov(((i, k),), v) == dynnikov_letters(letters, v)
