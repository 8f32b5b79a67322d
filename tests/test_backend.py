"""Parity between the compiled kernels and the pure-Python fallback, and the
dispatcher's routing to the pure kernels."""

import random

import pytest

from braidoka import _backend, _purekernels

compiled = pytest.importorskip("braidoka._kernels") if _backend.HAVE_COMPILED else None

needs_compiled = pytest.mark.skipif(
    not _backend.HAVE_COMPILED, reason="compiled kernels not built"
)


def random_word(rng, maxlen):
    return tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, maxlen)))


@needs_compiled
def test_theta_parity():
    rng = random.Random(0)
    for _ in range(1000):
        w = random_word(rng, 24)
        assert compiled.theta_abcd(w) == _purekernels.theta_abcd(w)


@needs_compiled
def test_e0_screen_parity():
    rng = random.Random(1)
    for _ in range(1000):
        l1, l2 = random_word(rng, 6), random_word(rng, 6)
        assert compiled.e0_screen(l1, l2) == _purekernels.e0_screen(l1, l2)


@needs_compiled
def test_sweep_parity():
    for maxlen in range(0, 7):
        assert compiled.sweep3_stats(maxlen) == _purekernels.sweep3_stats(maxlen)


def test_backend_long_word_falls_back_to_exact():
    # beyond the int64 guard the dispatcher must route to the pure kernel
    w = (1,) * 100
    got = _backend.theta_abcd(w)
    assert got == (1, 100, 0, 1)


def test_sweep_totals():
    stats = _backend.sweep3_stats(8)
    assert stats["total"] == sum(4**k for k in range(9))
    assert stats["periodic"] + stats["reducible"] + stats["pseudo_anosov"] == stats["total"]
