"""The 3-braid sweep: per-state counting against the word-by-word reference,
the tracked permutation against theta mod 2, and the resource limit."""

import time

import pytest

from braidoka import _purekernels
from braidoka._purekernels import SWEEP3_MAXLEN, sweep3_stats
from braidoka.braid import BraidWord
from braidoka.errors import ResourceLimit

import sweep_reference


def _words(maxlen):
    return (4 ** (maxlen + 1) - 1) // 3


@pytest.mark.parametrize("maxlen", range(0, 10))
def test_matches_reference(maxlen):
    assert sweep3_stats(maxlen) == sweep_reference.sweep3_stats(maxlen)


def test_three_cycles_are_the_odd_traces():
    # SL(2,F_2) = S_3 sends exactly the elements of odd trace to 3-cycles, so
    # counting words by theta mod 2 alone gives the number of words whose
    # tracked permutation is a 3-cycle
    gens = [
        tuple(x % 2 for x in _purekernels.theta_abcd(BraidWord(3, (let,)).runs))
        for let in (1, -1, 2, -2)
    ]
    level = {(1, 0, 0, 1): 1}
    odd = 0
    for maxlen in range(13):
        odd += sum(n for (a, _, _, d), n in level.items() if (a + d) % 2)
        assert sweep3_stats(maxlen)["three_cycles"] == odd
        nxt = {}
        for m, n in level.items():
            for g in gens:
                key = tuple(x % 2 for x in _purekernels.mat_mul(m, g))
                nxt[key] = nxt.get(key, 0) + n
        level = nxt


def test_maxlen_12_budget():
    # 22M words: the word-by-word reference takes about 27 s here
    t0 = time.perf_counter()
    stats = sweep3_stats(12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0, f"{elapsed:.3f}s over the 3 s budget"
    assert stats["total"] == _words(12)
    assert stats["periodic"] + stats["reducible"] + stats["pseudo_anosov"] == stats["total"]
    assert stats["violations"] == 0
    assert stats["min_pa_abs_trace"] == 3


def test_limit_is_feasible():
    stats = sweep3_stats(SWEEP3_MAXLEN)
    assert stats["total"] == _words(SWEEP3_MAXLEN)
    assert stats["violations"] == 0
    with pytest.raises(ResourceLimit):
        sweep3_stats(SWEEP3_MAXLEN + 1)


def test_negative_maxlen_rejected():
    with pytest.raises(ValueError):
        sweep3_stats(-1)
