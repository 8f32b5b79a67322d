import hashlib
import random
import time

import pytest

from braidoka.braid import BraidWord, delta
from braidoka.errors import NotParabolic, WrongStrandCount
from braidoka.sl2z import (
    A,
    B,
    CENTRAL_I,
    CENTRAL_MINUS_I,
    ELLIPTIC,
    HYPERBOLIC,
    I,
    PARABOLIC,
    SL2Matrix,
    L,
    R,
    _kind,
    _period_runs,
    parabolic_normal_form,
    rl_factorization,
    sl2z_conjugate,
    theta,
)
import sl2z_reference


def w3(text):
    return BraidWord.parse(text, 3)


def braid_matrices(maxlen):
    """Distinct theta images of freely reduced words of length <= maxlen."""
    mats = {I}
    frontier = [I]
    gens = {1: A, -1: A.inv(), 2: B, -2: B.inv()}
    words = [((), I)]
    layer = [((), I)]
    for _ in range(maxlen):
        nxt = []
        for wrd, m in layer:
            for let, g in gens.items():
                if wrd and wrd[-1] == -let:
                    continue
                nxt.append((wrd + (let,), m * g))
        words.extend(nxt)
        layer = nxt
    return list({m for _, m in words})


def conjugator_ball(length):
    seen = {I}
    frontier = [I]
    gens = [A, A.inv(), B, B.inv()]
    for _ in range(length):
        new = []
        for m in frontier:
            for g in gens:
                x = m * g
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return seen


class TestTheta:
    def test_generators(self):
        assert theta(w3("1")) == SL2Matrix(1, 1, 0, 1)
        assert theta(w3("2")) == SL2Matrix(1, 0, -1, 1)

    def test_center(self):
        assert theta(delta(3) ** 2) == sl2z_reference.neg(I)
        assert theta(delta(3) ** 4) == I

    def test_homomorphism_on_random_words(self):
        rng = random.Random(2)
        for _ in range(60):
            l1 = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 10)))
            l2 = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 10)))
            u, v = BraidWord(3, l1), BraidWord(3, l2)
            assert theta(u * v) == theta(u) * theta(v)

    def test_braid_relation(self):
        assert theta(w3("1 2 1")) == theta(w3("2 1 2"))

    def test_wrong_strands(self):
        with pytest.raises(WrongStrandCount):
            theta(BraidWord.parse("1", 4))

    def test_kernel_exponent_sums(self):
        for k in (-2, -1, 1, 2):
            b = delta(3) ** (4 * k)
            assert theta(b) == I
            assert (12 * k) % 12 == 0


class TestMatrixClass:
    def test_elliptic_order6(self):
        m = theta(w3("1 2"))
        assert m == SL2Matrix(0, 1, -1, 1)
        assert _kind(m.entries()) == ELLIPTIC
        assert m**6 == I and all(m**k != I for k in range(1, 6))

    def test_elliptic_orders_3_and_4(self):
        m4 = SL2Matrix(0, -1, 1, 0)
        assert _kind(m4.entries()) == ELLIPTIC and m4**4 == I and m4**2 != I
        m3 = SL2Matrix(0, -1, 1, -1)
        assert _kind(m3.entries()) == ELLIPTIC and m3**3 == I and m3 != I

    def test_parabolic(self):
        assert _kind((1, 5, 0, 1)) == PARABOLIC

    def test_hyperbolic(self):
        m = theta(w3("1 -2"))
        assert m.trace == 3
        assert _kind(m.entries()) == HYPERBOLIC

    def test_central(self):
        assert _kind((1, 0, 0, 1)) == CENTRAL_I
        assert _kind((-1, 0, 0, -1)) == CENTRAL_MINUS_I


# a base word of each class, by its kind
CLASS_BASES = (
    (CENTRAL_I, "1 2 1 1 2 1 1 2 1 1 2 1"),      # Delta^4
    (CENTRAL_MINUS_I, "1 2 1 1 2 1"),             # Delta^2
    (ELLIPTIC, "1 2"),
    (ELLIPTIC, "1 2 1"),
    (ELLIPTIC, "1 2 1 2"),
    (PARABOLIC, "1 1 1"),
    (PARABOLIC, "-1 -2 -1 -1 -2"),
    (PARABOLIC, "-2 -2 1 2 1 1 2 1"),
    (HYPERBOLIC, "1 -2"),
    (HYPERBOLIC, "1 1 1 -2 -2 1 -2"),
)


def seeded_class_words(seed, per_base=6):
    """(kind, word) for conjugates u b u^-1 of every base b by seeded words u."""
    rng = random.Random(seed)
    out = []
    for kind, text in CLASS_BASES:
        b = w3(text)
        for _ in range(per_base):
            u = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 9))))
            out.append((kind, u * b * u.inv()))
    return out


class TestClassDecidedOnce:
    """`_kind`, the one place a matrix's class is read, against the class
    of each seeded conjugate's base word."""

    def test_kind_of_seeded_conjugates(self):
        for kind, b in seeded_class_words(52):
            assert _kind(theta(b).entries()) == kind, b


class TestParabolicNormalForm:
    def test_already_in_form(self):
        assert parabolic_normal_form(SL2Matrix(1, 3, 0, 1)) == (1, 3)

    def test_sigma2_squared(self):
        assert parabolic_normal_form(theta(w3("2 2"))) == (1, 2)

    def test_minus_identity(self):
        assert parabolic_normal_form(sl2z_reference.neg(I)) == (-1, 0)

    def test_rejects_hyperbolic(self):
        with pytest.raises(NotParabolic):
            parabolic_normal_form(SL2Matrix(2, 1, 1, 1))

    def test_invariant_under_conjugation(self):
        rng = random.Random(4)
        ball = list(conjugator_ball(5))
        for m in (SL2Matrix(1, 3, 0, 1), SL2Matrix(-1, 7, 0, -1), theta(w3("2 2 2"))):
            base = parabolic_normal_form(m)
            for g in rng.sample(ball, 25):
                assert parabolic_normal_form(g * m * g.inv()) == base


class TestConjugacy:
    def test_explicit_conjugation(self):
        assert sl2z_conjugate(A, B.inv() * A * B)

    def test_opposite_shears(self):
        assert not sl2z_conjugate(SL2Matrix(1, 1, 0, 1), SL2Matrix(1, -1, 0, 1))

    def test_cyclic_rotation(self):
        assert sl2z_conjugate(theta(w3("1 -2")), theta(w3("-2 1")))

    def test_s_not_conjugate_to_inverse(self):
        s = SL2Matrix(0, -1, 1, 0)
        assert not sl2z_conjugate(s, s.inv())

    def test_against_brute_force(self):
        # all pairs of theta images of words of length <= 6, against a
        # conjugator ball of word length <= 10: conjugation by a word is a
        # chain of generator conjugations, so the depth-10 orbit BFS gives
        # exactly the conjugates by words of length <= 10.  The BFS runs on
        # entry tuples: x -> g x g^-1 is linear in the entries of x, and
        # each map below is one generator's conjugation written out
        mats = braid_matrices(6)
        conjugations = [
            lambda a, b, c, d: (a + c, b + d - a - c, c, d - c),  # A x A^-1
            lambda a, b, c, d: (a - c, a + b - c - d, c, c + d),  # A^-1 x A
            lambda a, b, c, d: (a + b, b, c + d - a - b, d - b),  # B x B^-1
            lambda a, b, c, d: (a - b, b, a - b + c - d, b + d),  # B^-1 x B
        ]
        x = SL2Matrix(2, 3, 5, 8)
        for f, g in zip(conjugations, [A, A.inv(), B, B.inv()]):
            assert f(*x.entries()) == (g * x * g.inv()).entries()

        def orbit10(m):
            seen = {m}
            frontier = [m]
            for _ in range(10):
                new = []
                for x in frontier:
                    for f in conjugations:
                        y = f(*x)
                        if y not in seen:
                            seen.add(y)
                            new.append(y)
                frontier = new
            return seen

        entries = {m.entries() for m in mats}
        for m in mats:
            reachable = orbit10(m.entries()) & entries
            for n in mats:
                assert sl2z_conjugate(m, n) == (n.entries() in reachable), (m, n)

    def test_power_matches_repeated_product(self):
        assert R ** 10**12 == SL2Matrix(1, 10**12, 0, 1)
        for m in (theta(w3("1 -2")), theta(w3("1 2")), theta(w3("2 2 -1"))):
            step = I
            for k in range(20):
                assert m**k == step and m**-k == step.inv()
                step = step * m

    @pytest.mark.parametrize("m", [SL2Matrix(0, -1, 1, 1), SL2Matrix(2, 1, 1, 1)],
                             ids=["elliptic", "hyperbolic"])
    def test_huge_shift_conjugator(self, m):
        # the reductions shift by R^-n with n as large as the entries; with
        # k-step powers an elliptic shift of 1e6 took 4.2 s, linear in n
        g = R ** 10**12
        t0 = time.perf_counter()
        assert sl2z_conjugate(m, g * m * g.inv())
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("k", [10**6, 10**100], ids=["1e6", "1e100"])
    def test_long_run_budget(self, k):
        # the fixed point of R^k L has the period (k, 1), one division per
        # partial quotient; peeling one letter at a time takes time linear
        # in k
        m = R**k * L
        g = theta(w3("1 2 -1 -1 2 1 1 1 -2 -2 1")) * R**7
        t0 = time.perf_counter()
        assert sl2z_conjugate(m, g * m * g.inv())
        assert not sl2z_conjugate(m, R ** (k // 2) * L**2)  # same trace
        assert time.perf_counter() - t0 < 0.1

    def test_high_power_of_primitive_word(self):
        # (sigma_1 sigma_2^-1)^1000 maps to (RL)^1000: one period of two
        # runs repeated 1000 times; (R^2 L)^500 and (R L^2)^500 share a
        # trace but not a class
        m = theta(w3("1 -2") ** 1000)
        g = theta(w3("1 2 -1 -1 2 1 1 1 -2 -2 1") ** 3)
        t0 = time.perf_counter()
        assert sl2z_conjugate(m, g * m * g.inv())
        assert rl_factorization(g * m * g.inv()) == (1, (("R", 1), ("L", 1)) * 1000, m)
        p, q = (R**2 * L) ** 500, (R * L**2) ** 500
        assert p.trace == q.trace and not sl2z_conjugate(g * p * g.inv(), q)
        assert time.perf_counter() - t0 < 0.5


class TestReferenceParity:
    """The closed-form invariants against the enumeration in sl2z_reference."""

    @staticmethod
    def images(seed=7, count=300):
        # theta images of words of at most 40 letters, half of them u c u^-1
        # with a core c of at most 6 letters so that every class type occurs,
        # each with its conjugates by a 200-letter word and by R^(10^12)
        rng = random.Random(seed)

        def word(n):
            return BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(n)))

        shift = R ** 10**12
        out = []
        for i in range(count):
            if i % 2:
                u = word(rng.randint(0, 17))
                m = theta(u * word(rng.randint(0, 6)) * u.inv())
            else:
                m = theta(word(rng.randint(0, 40)))
            g = theta(word(200))
            out.append((m, g * m * g.inv(), shift * m * shift.inv()))
        return out

    def test_parabolic_normal_form(self):
        seen = 0
        for triple in self.images():
            if _kind(triple[0].entries()) not in (PARABOLIC, CENTRAL_I, CENTRAL_MINUS_I):
                continue
            seen += 1
            ref = sl2z_reference.parabolic_normal_form(triple[0])
            for m in triple:
                assert parabolic_normal_form(m) == ref, m
        assert seen >= 20

    @pytest.mark.parametrize("kind", [ELLIPTIC, HYPERBOLIC])
    def test_conjugacy(self, kind):
        # pairs of images of one kind and one trace; inverses and negatives
        # add same-trace pairs in other classes
        rng = random.Random(11)
        by_trace = {}
        for triple in self.images():
            if _kind(triple[0].entries()) != kind:
                continue
            for m in triple + (triple[0].inv(), sl2z_reference.neg(triple[0])):
                by_trace.setdefault(m.trace, []).append(m)
        answers = set()
        for pool in by_trace.values():
            for m in pool:
                for n in rng.sample(pool, min(len(pool), 4)):
                    got = sl2z_conjugate(m, n)
                    assert got == sl2z_reference.sl2z_conjugate(m, n), (m, n)
                    answers.add(got)
        assert answers == {True, False}


class TestRLFactorization:
    def test_round_trip(self):
        for m in braid_matrices(5):
            if abs(m.trace) <= 2:
                continue
            sign, runs, witness = rl_factorization(m)
            prod = I
            for letter, q in runs:
                assert q >= 1
                prod = prod * (R if letter == "R" else L) ** q
            assert prod == witness
            # maximal runs alternate, so both letters occur
            assert len(runs) >= 2
            assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))
            target = m if sign == 1 else sl2z_reference.neg(m)
            assert sl2z_conjugate(witness, target)

    def test_negative_trace_sign(self):
        m = sl2z_reference.neg(theta(w3("1 -2")))
        sign, runs, _ = rl_factorization(m)
        assert sign == -1 and runs

    def test_matches_reference(self):
        # both trace signs: the runs spelled out are a rotation of the
        # letter word that the reference peels, their product is the
        # witness, and the outputs hash as they did when the period word
        # was multiplied out one SL2Matrix per run
        outputs = []
        for triple in TestReferenceParity.images():
            for m in triple[:2]:
                for x in (m, sl2z_reference.neg(m)):
                    if abs(x.trace) <= 2:
                        continue
                    sign, runs, witness = rl_factorization(x)
                    ref_sign, word, _ = sl2z_reference.rl_factorization(x)
                    letters = "".join(letter * q for letter, q in runs)
                    assert sign == ref_sign and len(letters) == len(word)
                    assert letters in "".join(word) * 2, x
                    prod = I
                    for letter, q in runs:
                        prod = prod * (R if letter == "R" else L) ** q
                    assert prod == witness
                    outputs.append((sign, runs, witness.entries()))
        assert len(outputs) == 556
        assert hashlib.sha256(repr(outputs).encode()).hexdigest()[:16] == "4de46bfb9f2e72d0"

    def test_odd_least_period_is_read_twice(self):
        # the partial quotients of R L^2 R^3 L R^2 L^3 have the least period
        # (1, 2, 3); read twice, its runs alternate sigma_1 and sigma_2
        m = R * L**2 * R**3 * L * R**2 * L**3
        assert _period_runs(m.entries()) == ((1, 1), (2, -2), (1, 3), (2, -1), (1, 2), (2, -3))
        assert rl_factorization(m)[1] == (("R", 1), ("L", 2), ("R", 3), ("L", 1), ("R", 2), ("L", 3))


def test_to_json():
    assert SL2Matrix(2, 1, 1, 1).to_json() == [[2, 1], [1, 1]]


def test_determinant_checked():
    with pytest.raises(ValueError):
        SL2Matrix(1, 1, 1, 1)
