import math
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from braidoka import _theta
from braidoka._theta import mat_inv, mat_mul
from braidoka.braid import BraidWord, braid_eq, delta, exponent_sum, permutation
from braidoka.errors import ResourceLimit, WrongStrandCount
from braidoka.sl2z import PARABOLIC, SL2Matrix, _kind, sl2z_conjugate, theta
from braidoka.three import (
    MIN_PA_ENTROPY,
    PSEUDO_ANOSOV,
    PERIODIC,
    REDUCIBLE,
    SCAN_MAXLEN,
    CommutatorPair,
    CommutatorScanReport,
    _fricke_roots,
    _image_groups3,
    classify3,
    centralizer_check,
    conformal_module3,
    conj3,
    entropy3,
    log_spectral_radius,
    zero_entropy_commutator_scan,
)

from braid_helpers import enumerate_words, theta_letters
from e0_reference import (
    zero_entropy_commutator_scan_allpairs,
    zero_entropy_commutator_scan_reference,
)


def w3(text):
    return BraidWord.parse(text, 3)


class TestClassify:
    def test_minimum_entropy_braid(self):
        c = classify3(w3("1 -2"))
        assert c.kind == PSEUDO_ANOSOV
        assert c.trace == 3
        assert abs(c.entropy - math.log((3 + math.sqrt(5)) / 2)) < 1e-15
        assert c.module == math.pi / (2 * c.entropy)

    def test_reducible_representative(self):
        c = classify3(w3("1 1 1") * delta(3) ** 2)
        assert c.kind == REDUCIBLE and (c.k, c.ell) == (3, 1)
        assert c.exponent_sum == c.k + 6 * c.ell == 9

    def test_periodic(self):
        c = classify3(w3("1 2"))
        assert c.kind == PERIODIC and c.base == "sigma12" and c.ell == 1
        assert not c.as_dict()["central"] and not c.as_dict()["reducible"]

    def test_central_is_periodic_and_reducible(self):
        c = classify3(delta(3) ** 2)
        assert c.kind == PERIODIC and c.as_dict()["central"] and c.as_dict()["reducible"]

    def test_delta_powers(self):
        c = classify3(delta(3) ** 5)
        assert c.kind == PERIODIC and c.base == "delta" and c.ell == 5

    def test_wrong_strand_count(self):
        with pytest.raises(WrongStrandCount):
            classify3(BraidWord.parse("1", 4))

    def test_reducible_reconstruction(self):
        for k in range(-5, 6):
            for ell in range(-3, 4):
                b = BraidWord(3, (1,) * k if k >= 0 else (-1,) * (-k)) * delta(3) ** (2 * ell)
                c = classify3(b)
                if k == 0:
                    assert c.kind == PERIODIC and c.as_dict()["central"]
                else:
                    assert c.kind == REDUCIBLE and (c.k, c.ell) == (k, ell), (k, ell, c)

    def test_trichotomy_totality_and_lemma2(self):
        # every word of length <= 8 classified; 3-cycle image never reducible
        kinds = {PERIODIC: 0, REDUCIBLE: 0, PSEUDO_ANOSOV: 0}
        for b in enumerate_words(3, 8, include_identity=True):
            c = classify3(b)
            kinds[c.kind] += 1
            if permutation(b).is_n_cycle():
                assert c.kind != REDUCIBLE
                assert _kind(theta(b).entries()) != PARABOLIC
        assert all(v > 0 for v in kinds.values())

    def test_module_times_entropy(self):
        rng = random.Random(8)
        seen = 0
        while seen < 50:
            b = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(10)))
            c = classify3(b)
            if c.kind != PSEUDO_ANOSOV:
                continue
            assert c.module == math.pi / (2 * c.entropy)
            assert abs(c.module * c.entropy - math.pi / 2) < 1e-12
            seen += 1


class TestEntropyModule:
    def test_zero_entropy_example(self):
        b = w3("-2 -2 -2 -2 -2 -2") * delta(3) ** 2
        assert entropy3(b) == 0.0
        assert math.isinf(conformal_module3(b))

    def test_minimum(self):
        assert abs(entropy3(w3("1 -2")) - MIN_PA_ENTROPY) < 1e-15
        assert abs(conformal_module3(w3("1 -2")) - math.pi / 2 / MIN_PA_ENTROPY) < 1e-15

    def test_periodic_power(self):
        assert entropy3(delta(3) ** 5) == 0.0

    def test_huge_trace_stable(self):
        t = 10**40
        h = log_spectral_radius(t)
        assert abs(h - math.log(t)) < 1e-12

    def test_trace_beyond_float_range(self):
        # the trace of (sigma_1 sigma_2^-1)^800 is about 1e334, past the
        # largest float; its entropy is 800 log(phi^2)
        b = w3("1 -2") ** 800
        expected = 1600 * math.log((1 + math.sqrt(5)) / 2)
        assert abs(entropy3(b) / expected - 1) < 1e-12
        assert classify3(b).kind == PSEUDO_ANOSOV


class TestConj3:
    def test_generators_conjugate(self):
        assert conj3(w3("1"), w3("2"))

    def test_exponent_sum_obstruction(self):
        assert not conj3(w3("1 1"), delta(3) ** 2)

    def test_rotation(self):
        assert conj3(w3("1 -2"), w3("-2 1"))

    def test_long_power_budget(self):
        # sigma_1^20000 maps to R^20000, one run of the R/L word
        b = BraidWord(3, (1,) * 20000 + (-2,))
        u = w3("2 1 -2 2 2 1 -1 -2 1 2 2")
        t0 = time.perf_counter()
        assert conj3(b, u * b * u.inv())
        assert time.perf_counter() - t0 < 0.5

    def test_exponent_beyond_decimal_str_limit(self):
        # R^(10^5000) L^-1: the period word holds an int of 5,001 digits,
        # whose decimal str raises on Python 3.11+
        s1, s2 = BraidWord.sigma(3, 1, 10**5000), BraidWord.sigma(3, 2, -1)
        t0 = time.perf_counter()
        assert conj3(s1 * s2, s2 * s1)
        # R^k L against R L^k: one trace, and the runs do not rotate into each other
        other = BraidWord.sigma(3, 1, 1) * BraidWord.sigma(3, 2, -10**5000)
        assert not sl2z_conjugate(theta(s1 * s2), theta(other))
        assert time.perf_counter() - t0 < 0.5

    def test_long_conjugator_budget(self):
        # a 24,001-letter conjugator puts about 24,000 partial quotients
        # before the period of the fixed point
        b, other = w3("1 1 -2"), w3("1 -2 -2")  # R^2 L and R L^2, trace 4
        u = w3("1 -2") ** 12000 * w3("1")
        t0 = time.perf_counter()
        assert conj3(b, u * b * u.inv())
        m, n = theta(u * b * u.inv()), theta(u * other * u.inv())
        assert m.trace == n.trace and not sl2z_conjugate(m, n)
        assert time.perf_counter() - t0 < 2.0

    def test_against_brute_force(self):
        # all pairs of words of length <= 4, conjugators of length <= 6
        words = list(enumerate_words(3, 4, include_identity=True))
        conjugators = list(enumerate_words(3, 6, include_identity=True))
        # brute force via the faithful (theta, exponent sum) pair
        def key(b):
            return (theta(b).entries(), exponent_sum(b))

        classes = {}
        for b in words:
            if key(b) in classes:
                continue
            classes[key(b)] = {key(w.inv() * b * w) for w in conjugators}
        for b1 in words:
            targets = classes[key(b1)]
            for b2 in words:
                assert conj3(b1, b2) == (key(b2) in targets), (b1, b2)


class TestDecidedOnEntries:
    """conj3 decides on theta's entries as the kernel returns them and
    builds no SL2Matrix; classify3 builds the one that theta(b) returns.
    Constructions are counted through SL2Matrix.__post_init__, which
    every construction calls."""

    # one word of each theta class, with a conjugate that passes through
    # each step of its class: Delta^4, Delta^2, elliptic, parabolic, and
    # hyperbolic conjugated by sigma_1^5000
    WORDS = ("1 2 1 1 2 1 1 2 1 1 2 1", "1 2 1 1 2 1", "1 2", "1 1 1 2 1 1 2 1", "1 1 -2 -2 1 -2")

    @pytest.fixture
    def built(self, monkeypatch):
        out = []
        orig = SL2Matrix.__post_init__
        monkeypatch.setattr(SL2Matrix, "__post_init__", lambda self: (out.append(self), orig(self)))
        return out

    @pytest.mark.parametrize("text", WORDS)
    def test_conj3_builds_no_matrix(self, built, text):
        b, u = w3(text), BraidWord.sigma(3, 1, 5000) * w3("2 -1")
        assert conj3(b, u * b * u.inv())
        assert not conj3(b, b * w3("1 2 1") ** 4)
        assert built == []

    @pytest.mark.parametrize("text", WORDS)
    def test_classify3_builds_one_matrix(self, built, text):
        classify3(w3(text))
        assert len(built) == 1


class TestCentralizer:
    def test_center(self):
        assert centralizer_check(delta(3) ** 2, 2)

    def test_sigma2_fails(self):
        assert not centralizer_check(w3("2"), 2)

    def test_model_element(self):
        assert centralizer_check(w3("1 1 1 1 1") * delta(3) ** 4, 1)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            centralizer_check(w3("1"), 0)

    def test_wrong_strand_count_rejected(self):
        with pytest.raises(WrongStrandCount):
            centralizer_check(BraidWord.parse("1 2 3", 4), 1)

    def test_matches_braid_equality(self):
        # b commutes with sigma_1^k exactly when b sigma_1^k = sigma_1^k b,
        # on every B_3 word of up to 6 letters
        cases = 0
        for b in enumerate_words(3, 6, include_identity=True):
            for k in (1, -1, 2, -2, 3, -3):
                s = BraidWord.sigma(3, 1, k)
                assert centralizer_check(b, k) == braid_eq(b * s, s * b), (b.letters, k)
                cases += 1
        assert cases == 8742

    def test_huge_k_budget(self):
        # building sigma_1^k letter by letter took 3.9 s at k = 10^7
        t0 = time.perf_counter()
        assert centralizer_check(delta(3) ** 2 * w3("1 1 1"), 10**100)
        assert not centralizer_check(w3("1 2"), -10**100)
        assert time.perf_counter() - t0 < 0.005


class TestCommutatorScan:
    def test_maxlen_one_empty(self):
        assert zero_entropy_commutator_scan(1).pairs == ()

    def test_finds_example_pair(self):
        rep = zero_entropy_commutator_scan(2)
        (pair,) = [p for p in rep.pairs if p.b1 == (-2, 1) and p.b2 == (2, -1)]
        # the commutator is central times sigma_2^-6: trace -2, not id
        row = pair.as_dict()
        assert pair.commutator_trace == row["commutatorTrace"] == -2
        assert not row["b1Pure"] and not row["b2Pure"]
        assert row["entropyB2B1inv"] > 0 or row["entropyB2B1inv2"] > 0
        assert (row["b1Words"], row["b2Words"], row["markov"]) == (1, 1, [1, 1, 1])

    def test_found_pairs_have_pseudo_anosov_inputs(self):
        # fact (E): a braid of entropy zero commutes with every braid whose
        # commutator with it has entropy zero, so no found pair meets the
        # corollary's hypotheses
        rep = zero_entropy_commutator_scan(7)
        assert len(rep.pairs) == 1824
        assert rep.pair_count == sum(p.b1_words * p.b2_words for p in rep.pairs) == 31536
        assert all(r["entropyB1"] > 0 and r["entropyB2"] > 0 for r in rep.as_dict()["pairs"])

    def test_trace_triples_are_three_times_markov(self):
        # fact (F): a found pair's traces (t1, t2, t12) solve
        # x^2 + y^2 + z^2 = xyz, so they are 3 x a Markov triple up to
        # signs; the traces come from theta_abcd, not from _fricke_roots
        def trace(word):
            a, _, _, d = _theta.theta_abcd([(abs(g), 1 if g > 0 else -1) for g in word])
            return a + d

        rows = zero_entropy_commutator_scan(7).as_dict()["pairs"]
        for row in rows:
            t = (trace(row["b1"]), trace(row["b2"]), trace(row["b1"] + row["b2"]))
            assert t[0] * t[1] * t[2] > 0 and all(x % 3 == 0 for x in t), row
            assert row["markov"] == sorted(abs(x) // 3 for x in t), row
        triples = {tuple(row["markov"]) for row in rows}
        markov = markov_triples(max(c for _, _, c in triples))
        assert (1, 1, 1) in triples and (1, 2, 5) in triples
        assert triples <= markov

    @pytest.mark.parametrize("maxlen", range(0, 8))
    def test_matches_reference(self, maxlen):
        # the word-by-word reference up to maxlen 5, the pass over all image
        # pairs beyond it; their word pairs grouped by image pair are the
        # rows.  Both list word pairs, 1.43M of them at maxlen 8, so the
        # parity stops at 7
        if maxlen <= 5:
            ref = zero_entropy_commutator_scan_reference
        else:
            ref = zero_entropy_commutator_scan_allpairs
        words_scanned, word_pairs = ref(maxlen)
        rows = rows_by_image_pair(word_pairs)
        rep = zero_entropy_commutator_scan(maxlen)
        assert rep == CommutatorScanReport(maxlen, rows)
        assert rep.words_scanned == words_scanned

    def test_resource_guard(self):
        with pytest.raises(ResourceLimit, match="maxlen <= 11"):
            zero_entropy_commutator_scan(12)

    def test_negative_maxlen_rejected(self):
        with pytest.raises(ValueError):
            zero_entropy_commutator_scan(-1)

    def test_limit_is_feasible(self):
        # the bound itself runs in about 0.5 s on a 2-core VM (Python
        # 3.11); one more letter triples the word list
        rep = zero_entropy_commutator_scan(SCAN_MAXLEN)
        # the report reads its word count off maxlen; the enumeration's
        # groups count the words they hold
        assert rep.words_scanned == 2 * (3**SCAN_MAXLEN - 1) == sum(
            count for _, count in _image_groups3(SCAN_MAXLEN).values())
        with pytest.raises(ResourceLimit):
            zero_entropy_commutator_scan(SCAN_MAXLEN + 1)


def rows_by_image_pair(word_pairs):
    """The scan's rows read off a reference's word pairs: the pairs grouped
    by (theta(b1), theta(b2)), letter by letter.  Each group must be every
    pair of its b1 words with its b2 words and carry one set of fields; its
    row holds the least word and the word count of each side and the two
    images.  The values the row reads off its images must be those fields
    and the sorted Markov triple of its traces divided by 3, and the
    commutator trace, which the row reads off its class, must be -2."""
    groups = {}
    for pair in word_pairs:
        groups.setdefault((theta_letters(pair[0]), theta_letters(pair[1])), []).append(pair)
    rows = []
    for (m1, m2), group in groups.items():
        words1, words2 = {p[0] for p in group}, {p[1] for p in group}
        assert len(group) == len(words1) * len(words2), group
        ((trace, *fields),) = {p[2:] for p in group}
        assert trace == CommutatorPair.commutator_trace == -2, group
        w1, w2 = min(words1), min(words2)
        markov = sorted(abs(m[0] + m[3]) // 3 for m in (m1, m2, theta_letters(w1 + w2)))
        row = CommutatorPair(w1, w2, len(words1), len(words2), m1, m2)
        values = row.as_dict()
        assert [values[k] for k in ("entropyB1", "entropyB2", "b1Pure", "b2Pure", "entropyB2B1inv",
                                    "entropyB2B1inv2")] == fields, group
        assert values["markov"] == markov, group
        rows.append(row)
    return tuple(sorted(rows, key=lambda p: (p.b1, p.b2)))


b3_words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=30).map(
    lambda letters: BraidWord(3, tuple(letters))
)


sl2z_mats = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=20).map(
    lambda letters: _theta.theta_abcd(BraidWord(3, letters).runs))


def _commutator_trace(m1, m2):
    comm = mat_mul(mat_mul(m1, m2), mat_mul(mat_inv(m1), mat_inv(m2)))
    return comm[0] + comm[3]


# +-S and the powers U, U^2, U^4, U^5 of U = theta(sigma_1 sigma_2)^-1 of
# order 6: one matrix of each elliptic conjugacy class of SL(2,Z)
ELLIPTIC_REPS = ((0, -1, 1, 0), (0, 1, -1, 0), (1, -1, 1, 0), (0, -1, 1, -1),
                 (-1, 1, -1, 0), (0, 1, -1, 1))


def _mat_pow(m, k):
    out = (1, 0, 0, 1)
    for _ in range(abs(k)):
        out = mat_mul(out, m)
    return out if k >= 0 else mat_inv(out)


def markov_triples(bound):
    """The sorted Markov triples a^2 + b^2 + c^2 = 3abc with c <= bound,
    from the Markov tree: (a, b, c) -> (a, b, 3ab - c) and its permutations.
    Each triple but (1, 1, 1) drops its largest entry this way, so every
    triple up to the bound is reached through triples up to the bound."""
    seen = {(1, 1, 1)}
    todo = [(1, 1, 1)]
    while todo:
        a, b, c = todo.pop()
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            t = tuple(sorted((y, z, 3 * y * z - x)))
            if t[2] <= bound and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


class TestCommutatorTraceFacts:
    """The facts (A), (B), (D) and (E) of the scan's image pass, on SL(2,Z)
    images."""

    @given(sl2z_mats, sl2z_mats, st.integers(-6, 6), st.booleans())
    def test_commutator_is_never_elliptic_or_minus_identity(self, g, m2, k, power):
        # (D): the commutator subgroup is free, so it holds no element of
        # finite order; m1 is a power of a conjugate of m2 half the time,
        # so that commuting and near-commuting pairs are drawn too
        m1 = mat_mul(mat_mul(g, _mat_pow(m2, k)), mat_inv(g)) if power else g
        comm = mat_mul(mat_mul(m1, m2), mat_mul(mat_inv(m1), mat_inv(m2)))
        assert comm[0] + comm[3] not in (-1, 0, 1)
        assert comm != (-1, 0, 0, -1)

    @given(sl2z_mats, sl2z_mats, st.integers(-3, 3), st.integers(-3, 3),
           st.booleans(), st.booleans())
    def test_trace_two_iff_commuting(self, u, v, k, j, related, negate):
        # related pairs are powers of one matrix, so that commuting pairs
        # are not left to chance
        m1, m2 = (_mat_pow(u, k), _mat_pow(u, j)) if related else (u, v)
        if negate:
            m2 = tuple(-x for x in m2)
        commute = mat_mul(m1, m2) == mat_mul(m2, m1)
        assert (_commutator_trace(m1, m2) == 2) == commute

    @given(sl2z_mats, sl2z_mats, st.integers(-5, 5), st.booleans())
    def test_parabolic_commutator_trace_at_least_two(self, g, m2, k, negate):
        # g T^k g^-1 and its negative run over the parabolic and central
        # images
        sign = -1 if negate else 1
        m1 = mat_mul(mat_mul(g, (sign, sign * k, 0, sign)), mat_inv(g))
        assert _commutator_trace(m1, m2) >= 2

    @given(sl2z_mats, sl2z_mats, st.sampled_from(ELLIPTIC_REPS), st.integers(-6, 6),
           st.booleans())
    def test_elliptic_commutator_trace_at_least_three(self, g, m2, e, j, power):
        # (E) with (A), (B) and (D): g e g^-1 runs over the elliptic images,
        # and m2 is a power of m1 half the time, so that commuting pairs are
        # drawn too
        m1 = mat_mul(mat_mul(g, e), mat_inv(g))
        if power:
            m2 = _mat_pow(m1, j)
        commute = mat_mul(m1, m2) == mat_mul(m2, m1)
        assert commute or _commutator_trace(m1, m2) >= 3

    @given(st.integers(3, 60), st.integers(3, 60), st.booleans(), st.booleans())
    @example(3, 3, False, False)
    @example(3, 6, True, False)
    @example(6, 15, False, True)
    def test_fricke_roots_are_the_integer_solutions(self, a, b, neg1, neg2):
        # the scan passes _fricke_roots hyperbolic traces only, for which
        # the discriminant (t1^2 - 4)(t2^2 - 4) - 16 is at least 9; the
        # examples, 3 x (1, 1), (1, 2) and (2, 5) from Markov triples, have
        # integer roots
        t1, t2 = -a if neg1 else a, -b if neg2 else b
        p = t1 * t2
        assert p * p - 4 * (t1 * t1 + t2 * t2) == (t1 * t1 - 4) * (t2 * t2 - 4) - 16 >= 9
        # a root of t^2 - p t + t1^2 + t2^2 has |t| <= |p|
        want = [t for t in range(-abs(p), abs(p) + 1) if t * t - p * t + t1 * t1 + t2 * t2 == 0]
        assert sorted(_fricke_roots(t1, t2)) == want


class TestThetaQuotientProperties:
    """The facts that let the E0 decision and the scan work on theta alone."""

    @given(b3_words)
    def test_pure_iff_theta_is_identity_mod_2(self, b):
        mod2 = tuple(x % 2 for x in theta(b).entries())
        assert permutation(b).is_identity() == (mod2 == (1, 0, 0, 1))

    @given(b3_words)
    def test_three_cycle_iff_odd_trace(self, b):
        assert permutation(b).is_n_cycle() == (theta(b).trace % 2 == 1)

    @given(b3_words, b3_words)
    def test_classify3_conjugation_invariant(self, b, u):
        assert classify3(u * b * u.inv()) == classify3(b)

    @given(b3_words, b3_words)
    def test_conj3_finds_conjugates(self, b, u):
        assert conj3(b, u * b * u.inv())
