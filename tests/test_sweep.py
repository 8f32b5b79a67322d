"""The 3-braid sweep: orbit counting against the word-by-word, per-state and
Klein-four references, the Klein four-group and +-I lemmas it rests on, the
tracked permutation against theta mod 2, and the resource limit."""

import time

import pytest
from hypothesis import given, strategies as st

from braidoka import _purekernels
from braidoka._purekernels import _FLIP, _PERM_STEP, _PERMS, SWEEP3_MAXLEN, mat_mul, sweep3_stats
from braidoka.braid import BraidWord, permutation
from braidoka.errors import ResourceLimit

import sweep_reference


def _words(maxlen):
    return (4 ** (maxlen + 1) - 1) // 3


@pytest.mark.parametrize("maxlen", range(0, SWEEP3_MAXLEN + 1))
def test_matches_reference(maxlen):
    # the word walk visits 4^maxlen leaves, so it stops at 9
    stats = sweep3_stats(maxlen)
    assert stats == sweep_reference.sweep3_stats_per_state(maxlen)
    assert stats == sweep_reference.sweep3_stats_klein(maxlen)
    if maxlen <= 9:
        assert stats == sweep_reference.sweep3_stats(maxlen)


# The Klein four-group of sweep3_stats' lemma, as (matrix g, the relabelling
# of the letters 1, -1, 2, -2 that conjugation by g performs)
_D = (1, 0, 0, -1)
_J = (0, 1, 1, 0)
_KLEIN = {
    "D": (_D, {1: -1, -1: 1, 2: -2, -2: 2}),
    "J": (_J, {1: -2, -1: 2, 2: -1, -2: 1}),
    "DJ": (mat_mul(_D, _J), {1: 2, -1: -2, 2: 1, -2: -1}),
}


def _theta(letters):
    return _purekernels.theta_abcd(BraidWord(3, tuple(letters)).runs)


def _conjugate(g, m):
    # g m g^-1, with g^-1 = adj(g) / det(g) and det(g) = +-1
    a, b, c, d = g
    det = a * d - b * c
    return mat_mul(mat_mul(g, m), (d * det, -b * det, -c * det, a * det))


@pytest.mark.parametrize("name", list(_KLEIN))
def test_klein_group_permutes_the_generator_images(name):
    g, relabel = _KLEIN[name]
    assert _conjugate(g, (1, 0, 0, 1)) == (1, 0, 0, 1)
    for letter, image in relabel.items():
        assert _conjugate(g, _theta([letter])) == _theta([image])
        assert _conjugate(g, _theta([image])) == _theta([letter])  # an involution


def test_flip_is_conjugation_by_1_3():
    swap = {1: 3, 2: 2, 3: 1}
    for p, perm in enumerate(_PERMS):
        assert _PERMS[_FLIP[p]] == tuple(swap[perm[swap[i] - 1]] for i in (1, 2, 3))


def _cycle_type(letters):
    return sorted(map(len, permutation(BraidWord(3, tuple(letters))).cycles(include_fixed=True)))


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30))
def test_relabelled_words_keep_trace_and_cycle_type(letters):
    word = _theta(letters)
    for g, relabel in _KLEIN.values():
        image = [relabel[x] for x in letters]
        m = _theta(image)
        assert m == _conjugate(g, word)
        assert m[0] + m[3] == word[0] + word[3]
        assert _cycle_type(image) == _cycle_type(letters)


# The full twist Delta^2 = (sigma_1 sigma_2)^3, central in B_3, with theta
# image -I; the kernel's sign lemma negates states
_FULL_TWIST = (1, 2, 1, 2, 1, 2)
_LETTERS = (1, -1, 2, -2)


def _negate(state):
    a, b, c, d, p = state
    return (-a, -b, -c, -d, p)


def _step(state, i):
    # the kernel's product of a state by the letter _LETTERS[i], as
    # sweep3_stats writes it out
    a, b, c, d, p = state
    m = ((a, a + b, c, c + d), (a, b - a, c, d - c), (a - b, b, c - d, d), (a + b, b, c + d, d))[i]
    return (*m, _PERM_STEP[p][i])


def _state(letters):
    p = 0
    for x in letters:
        p = _PERM_STEP[p][_LETTERS.index(x)]
    return (*_theta(letters), p)


@given(st.lists(st.sampled_from(_LETTERS), max_size=30))
def test_full_twist_negates_theta_and_keeps_cycle_type(letters):
    twisted = [*letters, *_FULL_TWIST]
    assert _theta(_FULL_TWIST) == (-1, 0, 0, -1)
    assert _theta(twisted) == tuple(-x for x in _theta(letters))
    assert _cycle_type(twisted) == _cycle_type(letters)
    assert _state(twisted) == _negate(_state(letters))


@given(st.lists(st.sampled_from(_LETTERS), max_size=30))
def test_negation_commutes_with_the_letter_steps(letters):
    state = _state(letters)
    for i, x in enumerate(_LETTERS):
        assert _step(state, i) == _state([*letters, x])
        assert _step(_negate(state), i) == _negate(_step(state, i))


@given(st.lists(st.sampled_from(_LETTERS), max_size=30))
def test_negation_keeps_abs_trace_and_the_parabolic_test(letters):
    a, b, c, d, p = state = _state(letters)
    na, nb, nc, nd, np_ = _negate(state)
    assert abs(na + nd) == abs(a + d)
    assert (nb == nc == 0) == (b == c == 0)
    assert np_ == p


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
    # 22M words: about 0.007 s on a 2-core VM, where the word-by-word
    # reference takes about 30 s, the per-state reference 0.042 s and the
    # Klein-four one 0.013 s
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
