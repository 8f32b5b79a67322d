"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import random
import time

from braidoka import _backend
from braidoka.braid import (
    BraidWord,
    braid_eq,
    commutator,
    delta,
    exponent_sum,
    linking_numbers,
    normal_form,
    permutation,
)
from braidoka.families import (
    INCONCLUSIVE,
    REDUCIBLE,
    LaurentFamily,
    discriminant_index,
    nbraid_entropy_lower,
    thm1_verdict,
)
from braidoka.lattice import LatticeSpec, branch_locus, e_values, ode_residual
from braidoka.oka import (
    Oka3Classified,
    Oka3Violation,
    PERIODIC_SIGMA12,
    REDUCIBLE_SIGMA1_DELTA2,
    SurfaceHom,
    SurfaceSignature,
    TARGET_B3,
    eprime_generate,
    oka3_decide,
)
from braidoka.three import MIN_PA_ENTROPY, PSEUDO_ANOSOV, classify3
from braidoka.words import FreeWord

from braid_helpers import conjugate_linking_tuple3, enumerate_words


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def check(self, label):
        print(f"PASS {label}  [{self.elapsed*1000:.1f} ms, budget {self.budget*1000:.0f} ms]")
        assert self.elapsed < self.budget, f"{label}: {self.elapsed:.3f}s over budget"


def w3(text):
    return BraidWord.parse(text, 3)


def test_criterion_01_minimum_entropy_value():
    b = w3("1 -2")
    classify3(b)  # warm caches before timing the single call
    with Stopwatch(0.001) as sw:
        cls = classify3(b)
    assert cls.kind == PSEUDO_ANOSOV
    assert abs(cls.entropy - math.log((3 + math.sqrt(5)) / 2)) < 1e-12
    assert cls.module == math.pi / (2 * cls.entropy)  # exact by construction
    assert abs(cls.module * cls.entropy - math.pi / 2) < 1e-12
    sw.check("criterion 1: minimum entropy pseudo-Anosov value")


def test_criterion_02_trichotomy_and_lemma2():
    with Stopwatch(30.0) as sw:
        stats = _backend.sweep3_stats(8)
        # cross-check the sweep against the object-level classifier
        recount = {"periodic": 0, "reducible": 0, "pseudoAnosov": 0}
        for b in enumerate_words(3, 4, freely_reduced=False, include_identity=True):
            recount[classify3(b).kind] += 1
        small = _backend.sweep3_stats(4)
    assert stats["total"] == sum(4**k for k in range(9))  # 4^8 leaves included
    assert (
        stats["periodic"] + stats["reducible"] + stats["pseudo_anosov"]
        == stats["total"]
    )
    assert stats["violations"] == 0  # 3-cycle image is never reducible
    assert small["periodic"] == recount["periodic"]
    assert small["reducible"] == recount["reducible"]
    assert small["pseudo_anosov"] == recount["pseudoAnosov"]
    sw.check("criterion 2: trichotomy totality + irreducibility of 3-cycles")


def test_criterion_03_calegari_walker_identity():
    b1, b2 = w3("-2 1"), w3("2 -1")
    rhs = w3("-2 -2 -2 -2 -2 -2") * delta(3) ** 2
    with Stopwatch(0.010) as sw:
        lhs_nf = normal_form(commutator(b1, b2))
        rhs_nf = normal_form(rhs)
    assert lhs_nf == rhs_nf
    assert classify3(commutator(b1, b2)).entropy == 0.0
    assert classify3(rhs).entropy == 0.0
    sw.check("criterion 3: Calegari-Walker commutator identity")


def test_criterion_04_b4_commutator():
    b1 = BraidWord.parse("-1 -1", 4)
    b2 = BraidWord.parse("2 1 3 2", 4).inv()
    rhs = BraidWord.parse("-1 -1 3 3", 4)
    with Stopwatch(0.010) as sw:
        lhs_nf = normal_form(commutator(b1, b2))
        rhs_nf = normal_form(rhs)
    assert lhs_nf == rhs_nf
    assert not lhs_nf.is_trivial()
    sw.check("criterion 4: B4 commutator normal form")


def test_criterion_05_discriminant_index():
    for n in (3, 5, 7):
        for k in (1, 2, 3):
            with Stopwatch(1.0) as sw:
                rep = discriminant_index(LaurentFamily.power_family(n, k), 256)
            assert rep.index == k * (n - 1), (n, k, rep.index)
            assert rep.samples_used <= 4096
    sw.check("criterion 5: discriminant winding indices k(n-1)")


def test_criterion_06_thm1_verdicts():
    modulus = 6 * math.pi / math.log(2) + 1
    with Stopwatch(0.010) as sw:
        first = thm1_verdict(3, modulus, 6)
        second = thm1_verdict(3, modulus, 2)
    assert first == REDUCIBLE
    assert second == INCONCLUSIVE
    sw.check("criterion 6: prime-degree reducibility verdicts")


def test_criterion_07_linking_conjugation_law():
    rng = random.Random(2024)
    with Stopwatch(30.0) as sw:
        done = 0
        while done < 200:
            letters = tuple(
                rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 10))
            )
            b = BraidWord(3, letters)
            if not permutation(b).is_identity():
                continue
            w = BraidWord(
                3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 5)))
            )
            expected = conjugate_linking_tuple3(linking_numbers(b).tuple3(), w)
            assert linking_numbers(w.inv() * b * w).tuple3() == expected
            done += 1
    sw.check("criterion 7: linking tuple conjugation law (200 random cases)")


def test_criterion_08_centralizer_lemma():
    s2 = BraidWord.sigma(3, 1, 2)
    with Stopwatch(60.0) as sw:
        reps = {}
        for k in range(-8, 9):
            for ell in range(-2, 3):
                rep = BraidWord.sigma(3, 1, k) * delta(3) ** (2 * ell)
                reps[(_backend.theta_abcd(rep.runs), exponent_sum(rep))] = (k, ell)
        commuting = set()
        equal_to_rep = set()
        for b in enumerate_words(3, 6, include_identity=True):
            if braid_eq(b * s2, s2 * b):
                commuting.add(b.letters)
            key = (_backend.theta_abcd(b.runs), exponent_sum(b))
            if key in reps:
                equal_to_rep.add(b.letters)
    assert commuting == equal_to_rep
    sw.check("criterion 8: centralizer of sigma_1^2 = {sigma_1^k Delta^2l}")


def test_criterion_09_eprime_count_bound():
    with Stopwatch(5.0) as sw:
        for g in range(0, 4):
            for m in range(1, 6):
                if (g, m) == (0, 1):
                    continue
                ep = eprime_generate(SurfaceSignature(g, m))
                assert ep.count <= (2 * g + m - 1) ** 3, (g, m)
        assert eprime_generate(SurfaceSignature(1, 1)).count == 3
        assert eprime_generate(SurfaceSignature(0, 3)).count == 7
        assert eprime_generate(SurfaceSignature(0, 2)).count == 1
    sw.check("criterion 9: E' sizes within (2g+m-1)^3")


def test_criterion_10_oka3_classifications():
    s12 = w3("1 2")
    with Stopwatch(120.0) as sw:
        r = oka3_decide(
            SurfaceHom(SurfaceSignature(1, 1), TARGET_B3, {1: s12**2, 2: s12**5})
        )
        assert isinstance(r, Oka3Classified) and r.type_ == PERIODIC_SIGMA12
        r = oka3_decide(
            SurfaceHom(
                SurfaceSignature(1, 1), TARGET_B3, {1: w3("-2 1"), 2: w3("2 -1")}
            )
        )
        assert isinstance(r, Oka3Violation) and r.witness == FreeWord.gen(1)
        assert abs(r.entropy - MIN_PA_ENTROPY) < 1e-12
        r = oka3_decide(
            SurfaceHom(
                SurfaceSignature(1, 1), TARGET_B3, {1: w3("1 1 1"), 2: delta(3) ** 4}
            )
        )
        assert isinstance(r, Oka3Classified) and r.type_ == REDUCIBLE_SIGMA1_DELTA2

        # 10^4 random zero-entropy-passing homomorphisms: the commutator
        # certification inside oka3_decide must never raise
        rng = random.Random(7)
        words = [()]
        frontier = [()]
        for _ in range(6):
            nxt = []
            for w in frontier:
                for let in (1, -1, 2, -2):
                    if w and w[-1] == -let:
                        continue
                    nxt.append(w + (let,))
            words.extend(nxt)
            frontier = nxt
        zero_entropy = [b for b in map(BraidWord, [3] * len(words), words)
                        if _backend.e0_screen(b.runs, ()) == 0]
        passing = 0
        while passing < 10_000:
            b1, b2 = rng.choice(zero_entropy), rng.choice(zero_entropy)
            if _backend.e0_screen(b1.runs, b2.runs) != 0:
                continue
            r = oka3_decide(
                SurfaceHom(
                    SurfaceSignature(1, 1),
                    TARGET_B3,
                    {1: b1, 2: b2},
                )
            )
            assert isinstance(r, Oka3Classified)
            passing += 1
    sw.check("criterion 10: oka3 verdicts + 10^4 passing homomorphisms certified")


def test_criterion_11_weierstrass_numerics():
    rng = random.Random(99)
    with Stopwatch(30.0) as sw:
        for tau in (1j, 2j, 0.5 + 1.2j):
            es = e_values(tau)
            assert abs(sum(es)) < 1e-5
            for _ in range(5):
                z = complex(rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45))
                assert ode_residual(tau, z) < 1e-6
            b1 = branch_locus(LatticeSpec(1, tau))
            b2 = branch_locus(LatticeSpec(1, tau + 1))
            assert b1.as_set_distance(b2) < 1e-5
        assert abs(e_values(1j)[2]) < 1e-6
    sw.check("criterion 11: Weierstrass identities")


def test_criterion_12_penner_consistency():
    with Stopwatch(30.0) as sw:
        stats = _backend.sweep3_stats(8)
    assert stats["min_pa_abs_trace"] == 3  # exact trace comparison
    h_min = math.log((stats["min_pa_abs_trace"] + math.sqrt(stats["min_pa_abs_trace"] ** 2 - 4)) / 2)
    assert h_min == MIN_PA_ENTROPY
    assert h_min > nbraid_entropy_lower(3) == math.log(2) / 4
    sw.check("criterion 12: minimum entropy attains log((3+sqrt5)/2) > log2/4")
