import itertools
import time

import pytest

from braidoka.errors import (
    NotAbelianTransitive,
    NotCommuting,
    NotPrime,
    NotTransitive,
)
from braidoka.perms import (
    Permutation,
    abelian_transitive_generator,
    commute,
    is_transitive,
    lemma5_generators,
)
from braidoka.words import FreeWord, commutator, free_conjugate


def cyc(n, *cycles):
    """The permutation of 1..n with the given cycles."""
    images = list(range(1, n + 1))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


def test_basics():
    p = cyc(3, (1, 2, 3))
    assert p(1) == 2 and p(3) == 1
    assert p.is_n_cycle()
    assert (p**3).is_identity()
    assert p.inv() == p**2
    assert p.cycle_string() == "(1 2 3)"
    assert repr(Permutation((1, 2, 3))) == "Permutation()"
    assert Permutation.transposition(3, 1).images == (2, 1, 3)
    # no generators: only the one-point set is one orbit
    assert is_transitive([], 1) and not is_transitive([], 3)


def test_power_matches_repeated_product():
    for p in map(Permutation, itertools.permutations(range(1, 6))):
        step = Permutation(tuple(range(1, 6)))
        for k in range(13):
            assert p**k == step and p**-k == step.inv()
            step = step.then(p)


def test_huge_power():
    # (1 2 3)(4 5 6 7 8) has order 15 and 10**12 = 10 mod 15
    p = cyc(8, (1, 2, 3), (4, 5, 6, 7, 8))
    t0 = time.perf_counter()
    assert p ** 10**12 == p**10 == cyc(8, (1, 2, 3))
    assert p ** -(10**12) == p**5
    assert time.perf_counter() - t0 < 0.1


def test_then_is_word_order():
    s1 = Permutation.transposition(3, 1)
    s2 = Permutation.transposition(3, 2)
    assert s1.then(s2) == cyc(3, (1, 3, 2)) or s1.then(s2) == cyc(3, (1, 2, 3))
    # word s1 s2 sends 1 -> 2 -> 3
    assert s1.then(s2)(1) == 3


class TestAbelianTransitive:
    def test_single_cycle(self):
        s = cyc(3, (1, 2, 3))
        s0, exps = abelian_transitive_generator([s], 3)
        assert s0 == s and exps == [1]

    def test_powers_of_one_cycle(self):
        s = cyc(3, (1, 2, 3))
        s0, exps = abelian_transitive_generator([s**2, s], 3)
        assert s0 == s and exps == [2, 1]

    def test_identity_and_cycle(self):
        s = cyc(3, (1, 3, 2))
        s0, exps = abelian_transitive_generator([Permutation((1, 2, 3)), s], 3)
        assert s0 == s and exps == [0, 1]
        # brute-force verify the reported exponents
        for g, e in zip([Permutation((1, 2, 3)), s], exps):
            assert s0**e == g

    def test_five_cycle(self):
        s = cyc(5, (1, 2, 3, 4, 5))
        s0, exps = abelian_transitive_generator([s**3, s**2], 5)
        assert all(s0**e == g for g, e in zip([s**3, s**2], exps))

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            abelian_transitive_generator([cyc(4, (1, 2, 3, 4))], 4)

    def test_error_cases_exhaustive_s3(self):
        elements = [Permutation(p) for p in
                    [tuple(x) for x in itertools.permutations((1, 2, 3))]]
        for size in (1, 2, 3):
            for gens in itertools.combinations(elements, size):
                commuting = all(
                    commute(p, q) for p, q in itertools.combinations(gens, 2)
                )
                transitive = is_transitive(list(gens), 3)
                if not commuting:
                    with pytest.raises(NotCommuting):
                        abelian_transitive_generator(list(gens), 3)
                elif not transitive:
                    with pytest.raises(NotTransitive):
                        abelian_transitive_generator(list(gens), 3)
                else:
                    s0, exps = abelian_transitive_generator(list(gens), 3)
                    assert s0.is_n_cycle()
                    assert all(s0**e == g for g, e in zip(gens, exps))

    def test_error_cases_sample_s5(self):
        c5 = cyc(5, (1, 2, 3, 4, 5))
        t = cyc(5, (1, 2))
        with pytest.raises(NotCommuting):
            abelian_transitive_generator([c5, t], 5)
        with pytest.raises(NotTransitive):
            abelian_transitive_generator([t], 5)


class TestLemma5:
    e1, e2 = FreeWord.gen(1), FreeWord.gen(2)

    def test_both_cycles(self):
        c = cyc(3, (1, 2, 3))
        n1, n2 = lemma5_generators(c, c)
        assert n1 == self.e1
        assert n2 == self.e2 * self.e1.inv()

    def test_first_trivial(self):
        c = cyc(3, (1, 2, 3))
        n1, n2 = lemma5_generators(Permutation((1, 2, 3)), c)
        assert n1 == self.e2 and n2 == self.e1.inv()

    def test_second_trivial(self):
        c = cyc(3, (1, 2, 3))
        n1, n2 = lemma5_generators(c, Permutation((1, 2, 3)))
        assert (n1, n2) == (self.e1, self.e2)

    def test_rejects_intransitive(self):
        with pytest.raises(NotAbelianTransitive):
            lemma5_generators(cyc(3, (1, 2)), cyc(3, (1, 2)))

    def test_commutator_conjugacy_and_generation(self):
        c = cyc(3, (1, 2, 3))
        images = [Permutation((1, 2, 3)), c, c**2]
        for p1 in images:
            for p2 in images:
                if not is_transitive([p1, p2], 3):
                    continue
                n1, n2 = lemma5_generators(p1, p2)
                assert free_conjugate(commutator(n1, n2), commutator(self.e1, self.e2))
                # the new pair generates: e1 and e2 are words in {n1, n2}
                generated = _subgroup_ball({n1, n2}, 4)
                assert self.e1 in generated and self.e2 in generated


def _subgroup_ball(gens, radius):
    """All products of <= radius factors from gens and inverses."""
    words = {FreeWord.identity()}
    frontier = {FreeWord.identity()}
    gens = set(gens) | {g.inv() for g in gens}
    for _ in range(radius):
        frontier = {w * g for w in frontier for g in gens}
        words |= frontier
    return words
