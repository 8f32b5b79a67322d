import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from braidoka import braid
from braidoka.braid import (
    BraidWord,
    _dynnikov,
    _t_left_weight,
    braid_eq,
    commutator,
    delta,
    exponent_sum,
    linking_numbers,
    normal_form,
    permutation,
)
from braidoka.errors import InternalInconsistency, NotPure, StrandMismatch
from braidoka.perms import Permutation

from braid_helpers import (
    alphabet,
    block_word,
    conjugate_linking_tuple3,
    enumerate_words,
    negative_word,
    nf_to_braid_word,
    one_letter_change,
    reduced_word,
    relation_rewrite,
)
from nf_reference import (
    _t_closure_step,
    _t_finishing_set,
    _t_inv,
    _t_slide,
    _t_starting_set,
    _t_tau,
    check_factors,
    reference_normal_form,
)


def w3(text):
    return BraidWord.parse(text, 3)


def test_parse_and_inference():
    b = BraidWord.parse("1 2 -1")
    assert b.strands == 3 and b.letters == (1, 2, -1)
    assert BraidWord.parse("3 1", None).strands == 4
    with pytest.raises(ValueError):
        BraidWord.parse("5", 3)
    assert BraidWord.parse("+1 -2").letters == (1, -2)


@pytest.mark.parametrize("text", ["1_0", "\u0661", "1.0", "+", "--1"])
def test_parse_reads_only_sign_and_ascii_digits(text):
    # int() reads "1_0" as 10 and the Arabic-Indic one as 1
    with pytest.raises(ValueError, match="a braid letter must be an integer"):
        BraidWord.parse(text)


def test_permutation_examples():
    assert permutation(w3("1")) == Permutation.transposition(3, 1)
    assert permutation(w3("1 2")).is_n_cycle()
    assert permutation(delta(3) ** 2).is_identity()


def test_one_walk_projections():
    # permutation and the purity test of linking_numbers each walk the
    # strands once; compare them with the composed letter transpositions
    rng = random.Random(41)
    pure = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 40))]
        if rng.random() < 0.3:  # every letter squared: a pure braid
            letters = [x for x in letters[:20] for _ in (0, 1)]
        b = BraidWord(n, tuple(letters))
        expected = Permutation(tuple(range(1, n + 1)))
        for x in letters:
            expected = expected.then(Permutation.transposition(n, abs(x)))
        assert permutation(b) == expected
        if expected.is_identity():
            pure += 1
            lk = linking_numbers(b)
            assert 2 * sum(v for _, _, v in lk.values) == exponent_sum(b)
        else:
            with pytest.raises(NotPure):
                linking_numbers(b)
    assert 100 < pure < 300


def test_exponent_sum():
    assert exponent_sum(w3("1 2 1")) == 3
    assert exponent_sum(delta(3) ** 4) == 12
    rng = random.Random(1)
    for _ in range(30):
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(8))
        b1, b2 = BraidWord(3, letters), BraidWord(3, letters[::-1])
        assert exponent_sum(commutator(b1, b2)) == 0


class TestNormalForm:
    def test_braid_relation_gives_delta(self):
        nf = normal_form(w3("1 2 1"))
        assert nf == normal_form(w3("2 1 2"))
        assert nf.power == 1 and nf.factors == ()

    def test_trivial(self):
        assert normal_form(w3("1 -1")).is_trivial()

    def test_calegari_walker(self):
        lhs = commutator(w3("-2 1"), w3("2 -1"))
        rhs = w3("-2 -2 -2 -2 -2 -2") * delta(3) ** 2
        assert normal_form(lhs) == normal_form(rhs)

    def test_b4_commutator(self):
        b1 = BraidWord.parse("-1 -1", 4)
        b2 = BraidWord.parse("2 1 3 2", 4).inv()
        lhs = commutator(b1, b2)
        rhs = BraidWord.parse("-1 -1 3 3", 4)
        assert normal_form(lhs) == normal_form(rhs)
        assert not normal_form(lhs).is_trivial()

    def test_left_weighted_factors_nontrivial(self):
        rng = random.Random(7)
        for n in (3, 4, 5):
            ident = Permutation(tuple(range(1, n + 1)))
            w0 = Permutation(tuple(range(n, 0, -1)))
            for _ in range(40):
                letters = tuple(
                    rng.choice([i for k in range(1, n) for i in (k, -k)])
                    for _ in range(rng.randint(0, 10))
                )
                nf = normal_form(BraidWord(n, letters))
                assert all(f != ident and f != w0 for f in nf.factors)

    def test_round_trip_preserves_invariants(self):
        rng = random.Random(11)
        for n in (3, 4):
            for _ in range(50):
                letters = tuple(
                    rng.choice([i for k in range(1, n) for i in (k, -k)])
                    for _ in range(rng.randint(0, 12))
                )
                b = BraidWord(n, letters)
                back = nf_to_braid_word(normal_form(b))
                assert exponent_sum(back) == exponent_sum(b)
                assert permutation(back) == permutation(b)
                assert normal_form(back) == normal_form(b)


def _check_step(a, b):
    """The in-place step on lists of the pair (a, b) and their inverses
    against the two oracles of nf_reference: it moves exactly when the pair
    is not left-weighted, leaves all four lists untouched when it does not,
    and keeps the inverses beside the factors."""
    lists = [list(a), list(_t_inv(a)), list(b), list(_t_inv(b))]
    before = [x[:] for x in lists]
    moved = _t_left_weight(*lists)
    got = (tuple(lists[0]), tuple(lists[2]))
    assert got == _t_slide(a, b)[:2] == _t_closure_step(a, b), (a, b)
    assert moved == (not _t_starting_set(b) <= _t_finishing_set(a)), (a, b)
    if not moved:
        assert lists == before, (a, b)
    assert tuple(lists[1]) == _t_inv(got[0]) and tuple(lists[3]) == _t_inv(got[1]), (a, b)


class TestNormalFormParity:
    """normal_form against the slide-to-fixed-point reference in nf_reference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
    def test_matches_reference(self, n):
        rng = random.Random(1000 + n)
        for make in (reduced_word, negative_word, block_word):
            for length in range(0, 121, 3 if n <= 5 else 12):
                b = make(rng, n, length)
                assert normal_form(b) == reference_normal_form(b), b

    def test_step_matches_slide_on_small_groups(self):
        # every pair (a, b) in S_n x S_n, n = 2..5
        pairs = 0
        for n in range(2, 6):
            perms = list(itertools.permutations(range(1, n + 1)))
            for a, b in itertools.product(perms, perms):
                _check_step(a, b)
                pairs += 1
        assert pairs == 15016

    @pytest.mark.parametrize("n", [8, 16])
    def test_step_matches_slide_on_seeded_pairs(self, n):
        rng = random.Random(4000 + n)
        for _ in range(2000):
            _check_step(tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, n + 1), n)))

    def test_final_check_fires(self, monkeypatch):
        # the runs of s1 s1^-1 become the factors s2, s1 s2 after the Delta^-1
        # marker moves to the front, and that pair is not left-weighted
        word = BraidWord(3, (1, -1))
        assert normal_form(word).is_trivial()
        monkeypatch.setattr(braid, "_t_left_weight", lambda a, ai, b, bi: False)
        with pytest.raises(InternalInconsistency):
            normal_form(word)

    @pytest.mark.parametrize("n, length, make", [(8, 1000, block_word), (16, 300, reduced_word)])
    def test_long_word_budget(self, n, length, make):
        # on a 2-core VM with Python 3.11 these take about 0.045 s (B_8) and
        # 0.02 s (B_16); the superquadratic reference takes 2.4 s and 1.0 s
        b = make(random.Random(77), n, length)
        t0 = time.perf_counter()
        nf = normal_form(b)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, f"{elapsed:.3f}s over the 0.5 s budget"
        assert permutation(nf_to_braid_word(nf)) == permutation(b)


@st.composite
def braid_words(draw, max_strands=6, max_len=30):
    n = draw(st.integers(2, max_strands))
    letters = draw(st.lists(st.sampled_from(alphabet(n)), max_size=max_len))
    return BraidWord(n, tuple(letters))


class TestNormalFormProperties:
    @given(braid_words())
    def test_times_inverse_is_trivial(self, b):
        assert normal_form(b * b.inv()).is_trivial()

    @given(braid_words())
    def test_idempotent(self, b):
        nf = normal_form(b)
        assert normal_form(nf_to_braid_word(nf)) == nf

    @given(braid_words(), st.randoms(use_true_random=False))
    def test_relation_rewrite_invariant(self, b, rnd):
        assert normal_form(relation_rewrite(rnd, b)) == normal_form(b)

    @given(braid_words())
    def test_length_is_exponent_sum(self, b):
        nf = normal_form(b)
        n = b.strands
        lengths = sum(
            f(i) > f(j) for f in nf.factors for i in range(1, n + 1) for j in range(i + 1, n + 1)
        )
        assert nf.power * n * (n - 1) // 2 + lengths == exponent_sum(b)


@st.composite
def tau_words(draw):
    """A word of up to 60 letters in B_2-B_16, of every letter or of
    inverse letters only, so its Delta^-1 markers come in both parities."""
    n = draw(st.integers(2, 16))
    letters = alphabet(n) if draw(st.booleans()) else [-i for i in range(1, n)]
    return BraidWord(n, tuple(draw(st.lists(st.sampled_from(letters), max_size=60))))


class TestTauFrame:
    """tau, conjugation by Delta, keeps simple elements, Delta and
    left-weightedness, which normal_form relies on when it inserts each run
    turned by the markers before it and turns the output once."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_inverse_letter_is_delta_inverse_then_one_factor(self, n):
        # one marker: an output turn that is dropped, or taken at the wrong
        # parity, gives the factor of sigma_(n-i)^-1 instead
        for i in range(1, n):
            factor = permutation(delta(n) * BraidWord.sigma(n, i, -1))
            nf = normal_form(BraidWord.sigma(n, i, -1))
            assert nf.power == -1, (n, i)
            assert nf.factors == ((factor,) if n > 2 else ()), (n, i)

    @given(tau_words())
    def test_normal_form_commutes_with_tau(self, b):
        n = b.strands
        turned = BraidWord(n, tuple(n - x if x > 0 else -n - x for x in b.letters))
        nf, nf_turned = normal_form(b), normal_form(turned)
        assert nf_turned.power == nf.power
        assert nf_turned.factors == tuple(Permutation(_t_tau(f.images)) for f in nf.factors)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_step_commutes_with_tau(self, n):
        # every pair of S_n up to n = 4, 2,000 seeded pairs beyond
        if n <= 4:
            every = list(itertools.permutations(range(1, n + 1)))
            pairs = itertools.product(every, every)
        else:
            rng = random.Random(4100 + n)
            pairs = [(tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, n + 1), n)))
                     for _ in range(2000)]
        for a, b in pairs:
            lists = [list(a), list(_t_inv(a)), list(b), list(_t_inv(b))]
            turned = [list(_t_tau(x)) for x in lists]
            moved = _t_left_weight(*lists)
            assert _t_left_weight(*turned) == moved, (a, b)
            assert turned == [list(_t_tau(x)) for x in lists], (a, b)


@st.composite
def run_words(draw):
    """A word in B_2-B_16 of up to 60 letters, or of up to four runs
    sigma_i^(+-k) of alternating sign with k up to 64 (six such runs in
    B_16 take up to 0.9 s)."""
    n = draw(st.integers(2, 16))
    if draw(st.booleans()):
        return BraidWord(n, tuple(draw(st.lists(st.sampled_from(alphabet(n)), max_size=60))))
    runs = draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, 64)), max_size=4))
    sign = draw(st.sampled_from((1, -1)))
    return BraidWord._from_runs(n, tuple((i, k * sign * (-1) ** j) for j, (i, k) in enumerate(runs)))


class TestOutputFactors:
    """The output factors checked without the inverses normal_form holds;
    the parity chunks normal_form/0 and normal_form/1 check theirs the same
    way (parity_corpus.nf_line)."""

    @settings(deadline=None)
    @given(run_words())
    def test_factors_hold_without_the_held_inverses(self, b):
        check_factors(normal_form(b))


class TestBraidEq:
    def test_relation(self):
        assert braid_eq(w3("1 2 1"), w3("2 1 2"))

    def test_b4_identity(self):
        b1 = BraidWord.parse("-1 -1", 4)
        b2 = BraidWord.parse("2 1 3 2", 4).inv()
        assert braid_eq(commutator(b1, b2), BraidWord.parse("-1 -1 3 3", 4))

    def test_distinct_generators(self):
        assert not braid_eq(w3("1"), w3("2"))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            braid_eq(w3("1"), BraidWord.parse("1", 4))

    def test_braid_relations_all_strands(self):
        for n in range(2, 7):
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert normal_form(BraidWord(n, (i, j))) == normal_form(BraidWord(n, (j, i)))
                if i + 1 < n:
                    assert normal_form(BraidWord(n, (i, i + 1, i))) == normal_form(
                        BraidWord(n, (i + 1, i, i + 1))
                    )

    def test_center_commutes(self):
        z = delta(3) ** 2
        # exhaustive over length <= 8 through the faithful fast path, plus a
        # random slice through the Garside path
        for b in enumerate_words(3, 8, include_identity=True):
            assert braid_eq(b * z, z * b)
        rng = random.Random(3)
        for _ in range(60):
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(8))
            b = BraidWord(3, letters)
            assert normal_form(b * z) == normal_form(z * b)

    def test_fast_path_matches_garside(self):
        rng = random.Random(5)
        for _ in range(10_000):
            l1 = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 12)))
            l2 = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 12)))
            b1, b2 = BraidWord(3, l1), BraidWord(3, l2)
            assert braid_eq(b1, b2) == (normal_form(b1) == normal_form(b2))

    def test_b2_by_exponent_sum(self):
        # B_2 = <Delta> with Delta = sigma_1, so both calls read the
        # exponent sum, whatever the size of a run: stepping the letters
        # raised ResourceLimit above MAX_LETTERS = 2^18
        k = 10**30
        b = BraidWord.parse(f"1^{k}", 2)
        assert braid_eq(b, BraidWord.parse(f"1 -1 1^{k - 1} 1", 2))
        assert not braid_eq(b, BraidWord.parse(f"1^{k + 1}", 2))
        assert (normal_form(b).power, normal_form(b).factors) == (k, ())
        assert normal_form(b.inv()).power == -k
        # the letter-level oracles agree on every short word
        words = list(enumerate_words(2, 6, freely_reduced=False, include_identity=True))
        for b1 in words:
            assert normal_form(b1) == reference_normal_form(b1), b1
            for b2 in words:
                assert braid_eq(b1, b2) == _dyn_eq(b1, b2), (b1, b2)


def _dyn_eq(b1, b2):
    start = [0, 1] * b1.strands
    return _dynnikov(b1.runs, start) == _dynnikov(b2.runs, start)


@st.composite
def dynnikov_vectors(draw, min_strands=2):
    """(n, v) with v in Z^(2n), entries up to +-2^70."""
    n = draw(st.integers(min_strands, 8))
    v = draw(st.lists(st.integers(-2**70, 2**70), min_size=2 * n, max_size=2 * n))
    return n, v


def _act(letters, v):
    """_dynnikov on a letter tuple, as the word of its runs."""
    return _dynnikov(BraidWord(len(v) // 2, letters).runs, v)


class TestDynnikovAction:
    """The letter maps of `_dynnikov` satisfy the relations of B_n on
    arbitrary integer vectors, so they define an action of B_n on Z^(2n)."""

    @given(dynnikov_vectors(), st.data())
    def test_inverse_letters_cancel(self, nv, data):
        n, v = nv
        i = data.draw(st.integers(1, n - 1))
        assert _act((i, -i), v) == v
        assert _act((-i, i), v) == v

    @given(dynnikov_vectors(min_strands=3), st.data(), st.sampled_from((1, -1)))
    def test_braid_relation(self, nv, data, sign):
        n, v = nv
        i = sign * data.draw(st.integers(1, n - 2))
        j = i + sign
        assert _act((i, j, i), v) == _act((j, i, j), v)

    @given(dynnikov_vectors(min_strands=4), st.data(), st.sampled_from((1, -1)),
           st.sampled_from((1, -1)))
    def test_far_commutation(self, nv, data, si, sj):
        n, v = nv
        i = data.draw(st.integers(1, n - 3))
        j = data.draw(st.integers(i + 2, n - 1))
        assert _act((si * i, sj * j), v) == _act((sj * j, si * i), v)

    def test_every_letter_moves_the_start(self):
        for n in range(2, 17):
            start = [0, 1] * n
            for i in range(1, n):
                for let in (i, -i):
                    assert _act((let,), start) != start, (n, let)


class TestBraidEqParity:
    """braid_eq against normal-form equality on the normal-form parity word
    sets; for B_3 the theta path, the Dynnikov action and the normal form
    are compared three ways."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
    def test_matches_normal_form(self, n):
        rng = random.Random(2000 + n)
        seen = {True: 0, False: 0}
        for make in (reduced_word, negative_word, block_word):
            for length in range(0, 121, 3 if n <= 5 else 12):
                b = make(rng, n, length)
                pairs = ((relation_rewrite(rng, b), True), (one_letter_change(rng, b), False),
                         (make(rng, n, rng.randint(0, 120)), None))
                for other, expected in pairs:
                    nf_equal = normal_form(b) == normal_form(other)
                    assert braid_eq(b, other) == nf_equal, (b, other)
                    if n == 3:  # braid_eq took the theta path
                        assert _dyn_eq(b, other) == nf_equal, (b, other)
                    if expected is not None:
                        assert nf_equal == expected, (b, other)
                    seen[nf_equal] += 1
        assert seen[True] and seen[False]

    def test_long_word_budget(self):
        # on a 2-core VM with Python 3.11 the four Dynnikov images take about
        # 0.015 s; the normal forms of b and its rewrite alone take 2.4 s
        rng = random.Random(78)
        b = block_word(rng, 8, 3200)
        same, other = relation_rewrite(rng, b, moves=200), one_letter_change(rng, b)
        t0 = time.perf_counter()
        equal, unequal = braid_eq(b, same), braid_eq(b, other)
        elapsed = time.perf_counter() - t0
        assert equal and not unequal
        assert elapsed < 0.1, f"{elapsed:.3f}s over the 0.1 s budget"


class TestLinking:
    def test_sigma1_squared(self):
        assert linking_numbers(w3("1 1")).tuple3() == (0, 0, 1)

    def test_full_twist(self):
        assert linking_numbers(delta(3) ** 2).tuple3() == (1, 1, 1)

    def test_commutator_unordered(self):
        b = commutator(w3("1 2"), w3("1 1"))
        assert linking_numbers(b).unordered() == (-1, 0, 1)

    def test_rejects_non_pure(self):
        with pytest.raises(NotPure):
            linking_numbers(w3("1"))

    def test_reduced_model_tuples(self):
        # sigma_1^{2k} Delta^{2l} has tuple (l, l, k + l)
        for k in (-2, 0, 1, 3):
            for ell in (-1, 0, 2):
                b = w3(" ".join(["1"] * (2 * k) if k >= 0 else ["-1"] * (-2 * k)) or "1 -1")
                b = BraidWord(3, (1,) * (2 * k) if k >= 0 else (-1,) * (-2 * k))
                b = b * delta(3) ** (2 * ell)
                assert linking_numbers(b).tuple3() == (ell, ell, k + ell)

    def test_conjugation_permutes_tuple(self):
        rng = random.Random(9)
        done = 0
        while done < 200:
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 10)))
            b = BraidWord(3, letters)
            if not permutation(b).is_identity():
                continue
            w = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 5))))
            lhs = linking_numbers(w.inv() * b * w).tuple3()
            assert lhs == conjugate_linking_tuple3(linking_numbers(b).tuple3(), w)
            done += 1


def test_enumerate_words_counts():
    words = list(enumerate_words(3, 3))
    assert len(words) == 4 + 12 + 36
    assert len(set(w.letters for w in words)) == len(words)
    raw = list(enumerate_words(3, 2, freely_reduced=False, include_identity=True))
    assert len(raw) == 1 + 4 + 16
