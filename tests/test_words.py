import random
import time

import pytest
from hypothesis import given, strategies as st

from braidoka._value import _same_cycle
from braidoka.errors import IdentityInput, ResourceLimit
from braidoka.words import (
    POW_MAXBLOCKS,
    FreeWord,
    _core,
    _peripheral,
    PERIPHERAL_A1,
    PERIPHERAL_A1A2_INV,
    PERIPHERAL_A2,
    commutator,
    free_conjugate,
    is_conjugate_into_peripheral,
    peripheral_word,
    primitive_root,
)

import go_reference
from conftest import all_free_words, brute_force_free_conjugate

a1 = FreeWord.gen(1)
a2 = FreeWord.gen(2)


letters_strategy = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=24
)


def word_from(letters):
    return FreeWord(tuple(letters))


class TestReduce:
    def test_cancellation(self):
        assert word_from([(1, 1), (1, -1)]).is_identity()

    def test_single_cancellation(self):
        w = word_from([(1, 1), (2, 1), (2, -1), (1, 1)])
        assert w == FreeWord(((1, 2),))

    def test_already_reduced(self):
        w = commutator(a1, a2)
        assert w.blocks == ((1, 1), (2, 1), (1, -1), (2, -1))

    @given(letters_strategy)
    def test_idempotent_and_length(self, letters):
        w = word_from(letters)
        assert sum(abs(e) for _, e in w.blocks) <= len(letters)

    @given(letters_strategy)
    def test_w_winv_trivial(self, letters):
        w = word_from(letters)
        assert (w * w.inv()).is_identity()
        assert (w.inv() * w).is_identity()

    def test_parse_and_text(self):
        w = FreeWord.parse("a1 a2^-2 a1^3")
        assert w.blocks == ((1, 1), (2, -2), (1, 3))
        assert FreeWord.parse(w.text()) == w
        assert FreeWord.parse("e2^5") == FreeWord.gen(2, 5)
        # a zero exponent is no block
        assert FreeWord.parse("a1^0 a2") == FreeWord.parse("a2")
        with pytest.raises(ValueError):
            FreeWord.parse("b1")

    def test_text_reads_back(self):
        # text writes the identity as "1", which parse reads as the identity
        assert FreeWord.identity().text() == "1" and FreeWord.parse("1") == FreeWord.identity()
        assert FreeWord.parse("a1 1 a2") == FreeWord.parse("a1 a2")
        rng = random.Random(47)
        for _ in range(500):
            w = FreeWord(tuple((rng.randint(1, 4), rng.choice((1, -1)) * rng.randint(1, 10**rng.randint(0, 12)))
                               for _ in range(rng.randint(0, 8))))
            for prefix in ("a", "e"):
                assert FreeWord.parse(w.text(prefix)) == w, w

    @pytest.mark.parametrize("text", ["a\u0661", "a1^\u0662", "a1_0", "a1^2_0"])
    def test_parse_reads_only_ascii_digits(self, text):
        # \d also matched the Arabic-Indic digits, so "a\u0661" read as a1
        with pytest.raises(ValueError, match="cannot parse free-word token"):
            FreeWord.parse(text)

    def test_every_construction_calls_post_init(self, monkeypatch):
        # the operations build through the unchecked FreeWord._from_blocks,
        # and perfbench's tracer counts constructions by wrapping
        # __post_init__, which reduces the blocks
        calls = []
        orig = FreeWord.__post_init__
        monkeypatch.setattr(FreeWord, "__post_init__", lambda self: (calls.append(self), orig(self)))
        w = FreeWord(((1, 2), (2, -1), (1, -2)))
        made = [w, FreeWord.gen(2), FreeWord.parse("a1 a2"), w * w, w.inv(), w ** 3, w ** -2,
                primitive_root(w ** 2)[0], primitive_root(a1 ** 4)[0]]
        assert all(any(c is m for c in calls) for m in made)
        assert (w * w.inv()).blocks == () and (w ** 3).blocks == ((1, 2), (2, -3), (1, -2))


class TestPower:
    @given(letters_strategy, st.integers(-5, 5))
    def test_matches_repeated_product(self, letters, n):
        w = word_from(letters)
        expected = FreeWord.identity()
        for _ in range(abs(n)):
            expected = expected * (w if n > 0 else w.inv())
        assert w**n == expected

    def test_huge_power_of_conjugated_block(self):
        # building blocks * n before merging took 2.3 s at n = 10^7
        c = a2 * a1.inv()
        t0 = time.perf_counter()
        assert FreeWord.gen(1) ** 10**100 == FreeWord.gen(1, 10**100)
        w = (c * a1**3 * c.inv()) ** -(10**100)
        assert peripheral_word(PERIPHERAL_A2, 10**100) == FreeWord.gen(2, 10**100)
        assert time.perf_counter() - t0 < 0.01
        assert w == c * FreeWord.gen(1, -3 * 10**100) * c.inv()

    def test_longer_core_is_spelled_out_up_to_the_limit(self):
        # (a1 a2)^-1 has a two-block core, so its n-th power has 2|n| blocks
        c = FreeWord.gen(3)
        u = c * (a1 * a2).inv() * c.inv()
        n = POW_MAXBLOCKS // 2
        for k in (n, -n):
            w = u**k
            assert len(w.blocks) == POW_MAXBLOCKS + 2
            hit = is_conjugate_into_peripheral(w)
            assert (hit.peripheral, hit.power) == (PERIPHERAL_A1A2_INV, k)
        for k in (n + 1, -(n + 1), 10**9):
            with pytest.raises(ResourceLimit):
                u**k
        with pytest.raises(ResourceLimit):
            peripheral_word(PERIPHERAL_A1A2_INV, 10**9)


class TestCore:
    @given(letters_strategy)
    def test_splits_into_cyclically_reduced_core(self, letters):
        w = word_from(letters)
        conj, core = _core(w.blocks)
        assert FreeWord(conj) * FreeWord(core) * FreeWord(conj).inv() == w
        assert FreeWord(core).blocks == core and FreeWord(conj).blocks == conj
        # the cyclic run sequence: its end blocks lie on different generators
        if len(core) > 1:
            assert core[0][0] != core[-1][0]

    def test_end_blocks_on_one_generator_merge(self):
        # a1 a2 a1 is conjugate to a2 a1^2, whose end blocks differ
        assert _core(((1, 1), (2, 1), (1, 1))) == (((1, 1),), ((2, 1), (1, 2)))

    def test_unequal_end_blocks(self):
        # g^a X g^b = g^a (X g^(a+b)) g^-a, whichever end block is longer
        assert _core(((1, 3), (2, 1), (1, -1))) == (((1, 3),), ((2, 1), (1, 2)))
        assert _core(((1, 1), (2, 1), (1, -3))) == (((1, 1),), ((2, 1), (1, -2)))
        assert _core(((1, 2), (2, 5), (1, -2))) == (((1, 2),), ((2, 5),))

    def test_huge_exponents_stay_blocks(self):
        n = 10**9
        w = FreeWord(((2, n), (1, 7), (2, 1 - n)))
        assert _core(w.blocks) == (((2, n),), ((1, 7), (2, 1)))


def rotations(seq):
    return {seq[i:] + seq[:i] for i in range(len(seq))} or {()}


rl_runs = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=4).map(
    lambda pairs: tuple(run for k, l in pairs for run in ((1, k), (2, -l))))
free_blocks = st.lists(st.tuples(st.sampled_from([1, 2, 11, 17]), st.sampled_from([1, -1, 17, -17])),
                       max_size=6).map(tuple)


class TestSameCycle:
    @given(st.one_of(st.tuples(rl_runs, rl_runs), st.tuples(free_blocks, free_blocks)),
           st.integers(0, 11))
    def test_matches_brute_force_rotation(self, pair, shift):
        a, b = pair
        assert _same_cycle(a, b) == (b in rotations(a))
        # a rotation of a itself, so that the True side is drawn as often
        k = shift % len(a) if a else 0
        assert _same_cycle(a, a[k:] + a[:k])

    def test_items_whose_texts_share_a_prefix(self):
        # (1, 1), (1, 17) and (17, 1) read "1 1", "1 11" and "11 1" in hex,
        # and (11, 1) reads "b 1": a match must start and end at an item
        a = ((1, 1), (1, 17), (11, 1))
        assert _same_cycle(a, ((11, 1), (1, 1), (1, 17)))
        assert not _same_cycle(a, ((1, 17), (1, 1), (11, 1)))
        assert not _same_cycle(((1, 17), (17, 1)), ((1, 1), (1, 1)))
        assert not _same_cycle(((1, 1), (1, 1)), ((1, 17), (1, 1)))
        assert not _same_cycle(((1, 17), (17, 1)), ((17, 1), (1, 1)))
        for x in ((1, 1), (1, 17), (17, 1), (11, 1)):
            for y in ((1, 1), (1, 17), (17, 1), (11, 1)):
                assert _same_cycle((x,), (y,)) == (x == y), (x, y)

    def test_empty_sequence(self):
        assert _same_cycle((), ())
        assert not _same_cycle((), ((1, 1),))
        assert not _same_cycle(((1, 1),), ())

    def test_odd_rotations_of_an_rl_word_never_match(self):
        # the partial quotients shifted by an odd number of places, read
        # again from sigma_1, put each exponent under the other generator:
        # while the flat sequence has an even least period, that never
        # matches
        def runs(ks):
            return tuple((1 + i % 2, -k if i % 2 else k) for i, k in enumerate(ks))

        ks = (2, 1, 2, 1, 3, 5)
        word = runs(ks)
        for i in range(len(ks)):
            shifted = runs(ks[i:] + ks[:i])
            assert _same_cycle(word, shifted) == (i % 2 == 0), i
            assert _same_cycle(shifted, word) == (i % 2 == 0), i
        # an odd least period is read twice (`sl2z._period_runs`), and there
        # every odd shift equals an even one, so every shift matches
        ks = (1, 2, 3) * 2
        for i in range(len(ks)):
            assert _same_cycle(runs(ks), runs(ks[i:] + ks[:i])), i

    def test_exponent_beyond_decimal_str_limit(self):
        # decimal str of an int above 4,300 digits raises on Python 3.11+
        big = 10**5000
        assert _same_cycle(((1, big), (2, -1)), ((1, big), (2, -1)))
        assert not _same_cycle(((1, big), (2, -1)), ((1, big + 1), (2, -1)))
        assert _same_cycle(((1, big), (2, -1)), ((2, -1), (1, big)))
        assert not _same_cycle(((1, big), (2, -1)), ((2, -1), (1, -big)))

    def test_long_word_budget(self):
        # comparing every rotation by slicing took 0.46 s at 8,001 letters
        letters = tuple(((1, 1), (2, 1), (1, -1), (3, 1))[k % 4] for k in range(8000))
        t0 = time.perf_counter()
        assert _same_cycle(letters + ((2, -1),), ((2, -1),) + letters)
        assert not _same_cycle(letters + ((2, -1),), ((2, 1),) + letters)
        assert time.perf_counter() - t0 < 0.2


class TestFreeConjugate:
    def test_rotation(self):
        assert free_conjugate(a1 * a2, a2 * a1)

    def test_distinct_generators(self):
        assert not free_conjugate(a1, a2)

    def test_commutator_vs_reversed_commutator(self):
        # a2^-1 a1^-1 a2 a1 is a rotation of the *inverse* commutator; a
        # commutator is not conjugate to its inverse in a free group, and
        # the bounded conjugator search agrees.
        u = commutator(a1, a2)
        v = a2.inv() * a1.inv() * a2 * a1
        assert not free_conjugate(u, v)
        assert not brute_force_free_conjugate(u, v, 4)
        assert free_conjugate(u.inv(), v)

    def test_brute_force_agreement(self):
        words = all_free_words(3)
        for w1 in words[:40]:
            for w2 in words[:40]:
                assert free_conjugate(w1, w2) == brute_force_free_conjugate(w1, w2, 4)

    @given(letters_strategy)
    def test_reflexive(self, letters):
        w = word_from(letters)
        assert free_conjugate(w, w)

    @given(letters_strategy, letters_strategy)
    def test_symmetric(self, l1, l2):
        w1, w2 = word_from(l1), word_from(l2)
        assert free_conjugate(w1, w2) == free_conjugate(w2, w1)

    def test_transitive_spot_checks(self):
        words = all_free_words(3)
        hits = 0
        for u in words[:30]:
            for v in words[:30]:
                if not free_conjugate(u, v):
                    continue
                for w in words[:30]:
                    if free_conjugate(v, w):
                        assert free_conjugate(u, w)
                        hits += 1
        assert hits > 0

    @given(letters_strategy, letters_strategy)
    def test_conjugation_invariance(self, l1, l2):
        w, c = word_from(l1), word_from(l2)
        assert free_conjugate(w, c * w * c.inv())

    @given(letters_strategy, letters_strategy)
    def test_matches_letter_cores(self, l1, l2):
        w1, w2 = word_from(l1), word_from(l2)
        core1, core2 = go_reference.cyclic_reduce(w1)[1], go_reference.cyclic_reduce(w2)[1]
        expected = go_reference.rotation_class(core1) == go_reference.rotation_class(core2)
        assert free_conjugate(w1, w2) == expected

    def test_huge_exponents_budget(self):
        # spelling out the letters of the cores would need 10^9 entries
        n = 10**9
        u = FreeWord(((1, n), (2, -n), (1, 3), (3, 2)))
        c = a2 * a1**5 * FreeWord.gen(3, -n)
        t0 = time.perf_counter()
        assert free_conjugate(u, c * u * c.inv())
        assert free_conjugate(FreeWord(((3, 2), (1, n), (2, -n), (1, 3))), u)
        assert not free_conjugate(FreeWord(((1, n + 3), (2, -n), (3, 2))), u)
        assert not free_conjugate(u, c * u.inv() * c.inv())
        assert not free_conjugate(u, FreeWord(((1, n), (2, -n), (1, 3), (3, 3))))
        assert time.perf_counter() - t0 < 0.01


class TestPrimitiveRoot:
    def test_pure_power(self):
        root, k = primitive_root(a1**4)
        assert root == a1 and k == 4

    def test_conjugated_power(self):
        w = a2 * (a1 * a2) ** 3 * a2.inv()
        root, k = primitive_root(w)
        assert k == 3
        assert root == a2 * a1
        assert root**3 == w

    def test_primitive(self):
        root, k = primitive_root(a1 * a2)
        assert root == a1 * a2 and k == 1

    def test_identity_rejected(self):
        with pytest.raises(IdentityInput):
            primitive_root(FreeWord.identity())

    def test_rotated_core(self):
        # the end blocks of the core a1 a2 a1^2 a2 a1 share a generator
        w = a2 * (a1 * a2 * a1) ** 2 * a2.inv()
        root, k = primitive_root(w)
        assert (root, k) == (a2 * a1 * a2 * a1 * a2.inv(), 2)

    def test_huge_exponents(self):
        n = 10**9
        c = a2 * a1.inv()
        t0 = time.perf_counter()
        assert primitive_root(c * FreeWord.gen(1, -n) * c.inv()) == (c * a1.inv() * c.inv(), n)
        root = FreeWord(((1, n), (2, 1), (1, 1)))
        assert primitive_root(c * root**5 * c.inv()) == (c * root * c.inv(), 5)
        assert time.perf_counter() - t0 < 0.01

    @given(letters_strategy)
    def test_root_power_reconstructs(self, letters):
        w = word_from(letters)
        if w.is_identity():
            return
        root, k = primitive_root(w)
        assert root**k == w
        assert primitive_root(root) == (root, 1)


class TestPeripheral:
    def test_negative_power(self):
        hit = is_conjugate_into_peripheral(a2**-3)
        assert hit.peripheral == PERIPHERAL_A2 and hit.power == -3

    def test_conjugated_boundary_square(self):
        w = a1 * (a2.inv() * a1.inv()) ** 2 * a1.inv()
        hit = is_conjugate_into_peripheral(w)
        assert hit.peripheral == PERIPHERAL_A1A2_INV and hit.power == 2

    def test_commutator_is_not_peripheral(self):
        # a mixed-sign cyclically reduced word is never peripheral
        assert is_conjugate_into_peripheral(commutator(a1, a2)) is None

    @pytest.mark.parametrize("name, powers", [
        (PERIPHERAL_A1, (1, 2, 10**9)),
        (PERIPHERAL_A2, (1, 2, 10**9)),
        # (a1 a2)^-k has 2k blocks, so 10^9 would spell out 2 * 10^9 of them
        (PERIPHERAL_A1A2_INV, (1, 2, 1000)),
    ])
    def test_peripheral_word_round_trip(self, name, powers):
        for k in powers:
            for power in (k, -k):
                hit = is_conjugate_into_peripheral(peripheral_word(name, power))
                assert (hit.peripheral, hit.power) == (name, power)

    def test_trivial_flag(self):
        hit = is_conjugate_into_peripheral(FreeWord.identity())
        assert (hit.peripheral, hit.power) == (None, 0)

    def test_positive_boundary_power_is_inverse_orientation(self):
        hit = is_conjugate_into_peripheral((a1 * a2) ** 2)
        assert hit.peripheral == PERIPHERAL_A1A2_INV and hit.power == -2

    def test_non_alternating_not_peripheral(self):
        assert is_conjugate_into_peripheral(a1 * a1 * a2) is None

    def test_exhaustive_against_brute_force(self):
        # independent oracle: tabulate every c v^k c^-1 with |c| <= 6 and
        # 0 < |k| <= 6, then compare the decision on all words of length <= 6
        table = {}
        for name in (PERIPHERAL_A1, PERIPHERAL_A2, PERIPHERAL_A1A2_INV):
            v = peripheral_word(name)
            for k in range(-6, 7):
                if k == 0:
                    continue
                vk = v**k
                for c in all_free_words(6):
                    w = c * vk * c.inv()
                    if sum(abs(e) for _, e in w.blocks) <= 6:
                        table.setdefault(w.blocks, (name, k))
        for w in all_free_words(6):
            hit = is_conjugate_into_peripheral(w)
            brute = table.get(w.blocks)
            if w.is_identity():
                assert hit.peripheral is None
            elif brute is None:
                assert hit is None, (w, hit)
            else:
                assert hit is not None, (w, brute)
                assert (hit.peripheral, hit.power) == brute, (w, hit, brute)


def _seeded_block_words(rng, count):
    """Random reduced words and conjugated powers of peripherals and of
    random roots, with small exponents so the letter reference can spell
    them out."""
    peripherals = [peripheral_word(name) for name in (PERIPHERAL_A1, PERIPHERAL_A2,
                                                      PERIPHERAL_A1A2_INV)]
    words = []
    for _ in range(count):
        rank = rng.choice((2, 2, 3))
        blocks = [(rng.randint(1, rank), rng.choice((-3, -2, -1, 1, 1, 2, 3)))
                  for _ in range(rng.randint(0, 6))]
        w = FreeWord(tuple(blocks))
        if rng.random() < 0.6:
            c = FreeWord(tuple((rng.randint(1, rank), rng.choice((-2, -1, 1, 2)))
                               for _ in range(rng.randint(0, 4))))
            base = rng.choice(peripherals) if rng.random() < 0.6 else w
            w = c * base ** rng.randint(-4, 4) * c.inv()
        words.append(w)
    return words


class TestLetterReferenceParity:
    """The block-level peripheral test and primitive root against the
    letter-level ones of tests/go_reference.py."""

    def test_peripheral_and_root(self):
        words = _seeded_block_words(random.Random(71), 12000)
        kinds = set()
        for w in words:
            hit = is_conjugate_into_peripheral(w)
            assert hit == go_reference.is_conjugate_into_peripheral(w), w
            kinds.add(None if hit is None else hit.peripheral)
            if not w.is_identity():
                assert primitive_root(w) == go_reference.primitive_root(w), w
        assert kinds == {None, PERIPHERAL_A1, PERIPHERAL_A2, PERIPHERAL_A1A2_INV}

    def test_block_peripheral_matches_the_word_wrapper(self):
        # go_surface_decide screens E' with _peripheral on reduced blocks;
        # is_conjugate_into_peripheral wraps it, and both must agree with
        # the letter reference
        words = _seeded_block_words(random.Random(73), 4000)
        kinds = set()
        for w in words:
            hit = is_conjugate_into_peripheral(w)
            got = _peripheral(w.blocks)
            if hit is None:
                assert got is None, w
            else:
                assert got == (hit.peripheral, hit.power), w
            assert hit == go_reference.is_conjugate_into_peripheral(w), w
            kinds.add(None if got is None else got[0])
        assert kinds == {None, PERIPHERAL_A1, PERIPHERAL_A2, PERIPHERAL_A1A2_INV}
