import cmath
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from braidoka._prime import _is_prime
from braidoka.errors import (
    DegreeTooSmall,
    NonConvergence,
    ResourceLimit,
    SeparabilityFailure,
    SignatureOutOfRange,
)
from braidoka.families import (
    INCONCLUSIVE,
    REDUCIBLE,
    MAX_SAMPLES,
    LaurentFamily,
    _exponent_lattice,
    discriminant_from_coeffs,
    discriminant_index,
    nbraid_entropy_lower,
    nbraid_module_upper,
    penner_bound,
    thm1_verdict,
)
import disc_reference
from disc_reference import discriminant_from_roots


class TestDiscriminant:
    def test_two_roots(self):
        assert discriminant_from_roots([1, -1]) == 4

    def test_cubic_power_model(self):
        # zeta^3 - w has discriminant -27 w^2
        for w in (1, 2, -3, 7):
            assert discriminant_from_coeffs([-w, 0, 0, 1]) == -27 * w * w
        roots = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        assert abs(discriminant_from_roots(roots) - (-27)) < 1e-9

    def test_depressed_cubic(self):
        rng = random.Random(0)
        for _ in range(25):
            p, q = rng.randint(-6, 6), rng.randint(-6, 6)
            assert discriminant_from_coeffs([q, p, 0, 1]) == -4 * p**3 - 27 * q**2

    def test_coeffs_match_roots(self):
        rng = random.Random(1)
        for n in (3, 4):
            for _ in range(20):
                roots = [
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)
                ]
                coeffs = _expand(roots)
                d1 = complex(discriminant_from_coeffs(coeffs))
                d2 = complex(discriminant_from_roots(roots))
                assert abs(d1 - d2) <= 1e-10 * max(1.0, abs(d2)), (roots, d1, d2)

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            discriminant_from_coeffs([1, 1])

    def test_exact_on_integer_roots(self):
        rng = random.Random(2)
        for n in range(2, 8):
            for _ in range(10):
                roots = [rng.randint(-9, 9) for _ in range(n)]
                coeffs = [int(c.real) for c in _expand(roots)]
                d = discriminant_from_coeffs(coeffs)
                assert type(d) is int
                assert d == discriminant_from_roots(roots), roots
        # (x - 1/2)(x + 1/3)
        d = discriminant_from_coeffs([Fraction(-1, 6), Fraction(-1, 6), 1])
        assert d == Fraction(25, 36) and isinstance(d, Fraction)

    def test_matches_sylvester_reference(self):
        rng = random.Random(3)
        for n in range(2, 8):
            for _ in range(10):
                coeffs = [rng.randint(-20, 20) for _ in range(n)] + [1]
                ref = disc_reference.discriminant_from_coeffs(coeffs)
                assert discriminant_from_coeffs(coeffs) == ref, coeffs
                coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                          for _ in range(n)] + [1.0]
                d = discriminant_from_coeffs(coeffs)
                ref = disc_reference.discriminant_from_coeffs(coeffs)
                assert abs(d - ref) <= 1e-11 * abs(ref), (coeffs, d, ref)


def _expand(roots):
    coeffs = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return coeffs


def family_json(fam):
    """The JSON object `LaurentFamily.from_json` reads back as fam."""
    return {"degree": fam.degree,
            "coeffs": {str(k): {str(e): [c.real, c.imag] for e, c in poly.items()}
                       for k, poly in fam.coeffs.items()}}


def _seeded_family(rng, degree):
    """A power family zeta^n - z^k, one with small extra terms, or a sparse
    Laurent family with one to three zeta powers of one to three terms."""
    kind = rng.randrange(3)
    if kind < 2:
        fam = LaurentFamily.power_family(degree, rng.randint(1, 63 if degree < 5 else 16))
        if kind == 0:
            return fam
        coeffs = {k: dict(poly) for k, poly in fam.coeffs.items()}
        for _ in range(rng.randint(1, 2)):
            coeffs.setdefault(rng.randrange(degree), {})[rng.randint(-2, 2)] = complex(
                rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        return LaurentFamily(degree, coeffs)
    coeffs = {}
    for k in rng.sample(range(degree), rng.randint(1, min(3, degree))):
        coeffs[k] = {e: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                     for e in rng.sample(range(-3, 4), rng.randint(1, 3))}
    return LaurentFamily(degree, coeffs)


def _index_outcome(index, fam, samples=64):
    try:
        return index(fam, samples)
    except (SeparabilityFailure, NonConvergence) as exc:
        return type(exc)


def _alias_safe_start(fam):
    """The least 64 * 2^j above 8 max(|lo|, |hi|, 1), where [lo, hi] bounds
    the z-exponents of disc: a_k has weight n - k and disc weight n(n-1)."""
    n = fam.degree
    ratios = [Fraction(n * (n - 1) * e, n - k)
              for k, poly in fam.coeffs.items() for e, c in poly.items() if c != 0]
    span = 1
    if ratios:
        span = max(span, abs(math.ceil(min(ratios))), abs(math.floor(max(ratios))))
    start = 64
    while start <= 8 * span:
        start *= 2
    return start


class TestDiscriminantIndex:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_families(self, n, k):
        rep = discriminant_index(LaurentFamily.power_family(n, k), 256)
        assert rep.index == k * (n - 1)
        assert rep.min_abs_discriminant > 0

    def test_constant_family(self):
        rep = discriminant_index(LaurentFamily(2, {0: {0: -2.0}}), 64)
        assert rep.index == 0

    def test_stable_under_doubling(self):
        fam = LaurentFamily.power_family(3, 2)
        r1 = discriminant_index(fam, 64)
        r2 = discriminant_index(fam, 128)
        assert r1.index == r2.index

    def test_separability_failure(self):
        # zeta^2 - (z - 1): discriminant 4(z-1) vanishes on |z| = 1
        fam = LaurentFamily(2, {0: {0: 1.0, 1: -1.0}})
        with pytest.raises(SeparabilityFailure):
            discriminant_index(fam, 64)

    @pytest.mark.parametrize("coeffs", [{}, {"0": {"2": [0.0, 0.0]}}])
    def test_all_zero_family_is_not_separable(self, coeffs):
        # no nonzero term: the exponent span is [0, 0] and disc vanishes
        fam = LaurentFamily.from_json({"degree": 3, "coeffs": coeffs})
        with pytest.raises(SeparabilityFailure):
            discriminant_index(fam)

    @pytest.mark.parametrize("n, k, samples", [(5, 64, 256), (3, 257, 256), (3, 300000, 512)])
    def test_fast_power_families(self, n, k, samples):
        # n samples read z^m as z^(m mod n): these aliased to 0, 2 and -64
        rep = discriminant_index(LaurentFamily.power_family(n, k), samples)
        assert (rep.index, rep.samples_used) == (k * (n - 1), samples)

    def test_coefficients_are_the_records_own(self):
        # a change to the argument after construction, even a NaN, leaves
        # the record and its index as they were
        coeffs = {0: {0: 0.97, 1: -1.0}}
        fam = LaurentFamily(2, coeffs)
        rep = discriminant_index(fam, 64)
        coeffs[0][0] = math.nan
        coeffs[1] = {0: 1.0}
        assert fam.coeffs == {0: {0: 0.97, 1: -1.0}} and discriminant_index(fam, 64) == rep

    def test_adaptive_refinement(self):
        # disc = 4(z - 0.97) turns by about pi within 0.03 of z = 1, so
        # 16 samples force step doubling; 4(z^2 - 0.97) does the same at
        # z = 1 and z = -1, and its rotation order 2 halves every pass
        for fam, index in [(LaurentFamily(2, {0: {0: 0.97, 1: -1.0}}), 1),
                           (LaurentFamily(2, {0: {0: 0.97, 2: -1.0}}), 2)]:
            rep = discriminant_index(fam, 16)
            assert rep.index == index
            assert rep.samples_used > 16

    def test_symmetric_families_evaluate_one_arc(self, monkeypatch):
        # disc(zeta^5 - z^3) is one monomial, so a pass reads two points;
        # zeta^2 + 0.97 - z^2 has rotation order 2, so a pass over n
        # points reads the half circle, n/2 + 1 of them
        calls = []
        at = LaurentFamily.discriminant_at
        monkeypatch.setattr(LaurentFamily, "discriminant_at",
                            lambda self, z: calls.append(z) or at(self, z))
        rep = discriminant_index(LaurentFamily.power_family(5, 3), 256)
        assert (rep.index, rep.samples_used) == (12, 256)
        assert len(calls) <= 2
        calls.clear()
        fam = LaurentFamily(2, {0: {0: 0.97, 2: -1.0}})
        rep = discriminant_index(fam, 16)
        passes = [16 << j for j in range(rep.samples_used.bit_length() - 4)]
        assert passes[-1] == rep.samples_used > 16
        assert len(calls) == sum(n // 2 + 1 for n in passes)
        monkeypatch.undo()
        ref = disc_reference.discriminant_index(fam, 16)
        assert (rep.index, rep.samples_used) == (ref.index, ref.samples_used)
        assert rep.index == 2
        assert math.isclose(rep.min_abs_discriminant, ref.min_abs_discriminant, rel_tol=1e-9)

    @pytest.mark.parametrize("r, index, last", [(1 - 1e-6, None, MAX_SAMPLES), (0.9, 1024, 2**15)],
                             ids=["zeros-near-the-circle", "control"])
    def test_nonconvergence_after_the_cap_pass(self, r, index, last, monkeypatch):
        # zeta^2 + z^1024 - r e^(0.37i) has disc -4 (z^1024 - r e^(0.37i)),
        # whose 1024 zeros lie at |z| = r^(1/1024); its rotation order is
        # 1024, so a pass of n samples reads n/1024 + 1 points, and the
        # passes start at 8,192 > 4 x 1024.  At r = 1 - 1e-6 the zeros lie
        # about 1e-9 inside the circle, so a step next to one stays above
        # pi/2 through the MAX_SAMPLES pass; at r = 0.9 the steps fall
        # below pi/2 at 32,768 samples
        calls = []
        at = LaurentFamily.discriminant_at
        monkeypatch.setattr(LaurentFamily, "discriminant_at",
                            lambda self, z: calls.append(z) or at(self, z))
        fam = LaurentFamily(2, {0: {1024: 1.0, 0: -r * cmath.exp(0.37j)}})
        if index is None:
            with pytest.raises(NonConvergence, match=f"no convergence within {MAX_SAMPLES} samples"):
                discriminant_index(fam)
        else:
            rep = discriminant_index(fam)
            assert (rep.index, rep.samples_used) == (index, last)
        assert len(calls) == sum(2**j // 1024 + 1 for j in range(13, last.bit_length()))

    def test_pass_memory(self):
        # one pass keeps running values, not the 2^14 discriminants
        fam = LaurentFamily.power_family(2, 3)
        tracemalloc.start()
        try:
            rep = discriminant_index(fam, 2**14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.index, rep.samples_used) == (3, 2**14)
        assert peak < 64 * 1024, peak

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            discriminant_index(LaurentFamily.power_family(3, 1), 8)

    def test_rejects_sample_count_above_cap(self):
        # raised before a sample is taken, not a NonConvergence after none
        with pytest.raises(ValueError, match="MAX_SAMPLES"):
            discriminant_index(LaurentFamily.power_family(3, 1), MAX_SAMPLES + 1)

    @pytest.mark.parametrize("span, samples", [(MAX_SAMPLES // 4, 256), (300_000, 256),
                                               (256_000, 1000)])
    def test_span_above_the_sample_cap_is_refused_before_sampling(self, span, samples,
                                                                  monkeypatch):
        # a first pass of more than 4 x span samples, doubled from samples,
        # lies above MAX_SAMPLES; it raised NonConvergence ("no convergence
        # within 1048576 samples") without taking a sample.  The last row
        # has 4 x span below the cap and a doubling past it
        def refuse(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr("braidoka.families._winding_pass", refuse)
        fam = LaurentFamily(2, {0: {0: 1.0, span: 1.0}})
        with pytest.raises(ResourceLimit, match=(
                f"exponent span {span} needs a first pass of [0-9]+ samples, "
                f"above MAX_SAMPLES = {MAX_SAMPLES}")):
            discriminant_index(fam, samples)

    @pytest.mark.parametrize("degree", range(2, 8))
    def test_matches_reference(self, degree):
        # equal indices give equal thm1 verdicts; the reference starts above
        # 8 times the z-degree span, where its samples cannot alias
        rng = random.Random(100 + degree)
        for _ in range(32):
            fam = _seeded_family(rng, degree)
            got = _index_outcome(discriminant_index, fam)
            ref = _index_outcome(disc_reference.discriminant_index, fam, _alias_safe_start(fam))
            if isinstance(ref, type):
                assert got is ref, fam
                continue
            assert got.index == ref.index, fam
            n = got.samples_used
            amin = min(abs(disc_reference.discriminant_from_coeffs(
                fam.poly_at(cmath.exp(2j * math.pi * (t / n))))) for t in range(n))
            assert math.isclose(got.min_abs_discriminant, amin, rel_tol=1e-9), fam

    def test_json_round_trip(self):
        fam = LaurentFamily(3, {0: {-1: complex(0, 1), 2: complex(2, 0)}, 1: {0: 1 + 0j}})
        again = LaurentFamily.from_json(json.loads(json.dumps(family_json(fam))))
        assert again == LaurentFamily(3, {0: {-1: 1j, 2: (2 + 0j)}, 1: {0: (1 + 0j)}})

    @pytest.mark.parametrize("coeffs, key", [
        ({"0": {"2_0": [-1, 0]}}, r'coeffs\["0"\]\["2_0"\]'),
        ({"0": {" 2 ": [-1, 0]}}, r'coeffs\["0"\]\[" 2 "\]'),
        ({"\u0660": {"2": [-1, 0]}}, r'coeffs\["\u0660"\]'),
    ])
    def test_json_power_keys_are_sign_and_ascii_digits(self, coeffs, key):
        # int() read "2_0" as z^20, so disc-index answered index 40
        with pytest.raises(ValueError, match=key + " must be an integer"):
            LaurentFamily.from_json({"degree": 3, "coeffs": coeffs})

    def test_json_degree_is_not_a_bool(self):
        with pytest.raises(ValueError, match='"degree" must be an integer'):
            LaurentFamily.from_json({"degree": True, "coeffs": {}})

    @pytest.mark.parametrize("coeffs, message", [
        ({"0": {"2": [-1, 0], "02": [5, 0]}}, r'coeffs\["0"\] keys "2" and "02" name one power'),
        ({"0": {"2": [-1, 0]}, "+0": {"1": [1, 0]}}, r'coeffs keys "0" and "\+0" name one power'),
    ])
    def test_json_rejects_two_keys_for_one_power(self, coeffs, message):
        # int() reads both keys as one power, which kept only the last value
        with pytest.raises(ValueError, match=message):
            LaurentFamily.from_json({"degree": 3, "coeffs": coeffs})

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                   complex(math.inf, 0)])
    def test_rejects_non_finite_coefficients(self, c):
        # named in the constructor, so library callers never reach the
        # sampler, which read a NaN discriminant as a zero on the circle
        with pytest.raises(ValueError, match=r"coeffs\[0\]\[2\] must be finite"):
            LaurentFamily(3, {0: {2: c}, 1: {0: 1.0}})

    @pytest.mark.parametrize("coeffs", [{0: {0: complex(1e308, 1e308)}},
                                        {0: {1: 1e200}, 1: {0: 1.0}}])
    def test_overflowing_discriminant_is_named(self, coeffs):
        # every sample read nan, which the sampler reported as
        # "discriminant modulus inf below tolerance on the circle"
        fam = LaurentFamily(len(coeffs) + 1, coeffs)
        with pytest.raises(ValueError, match="discriminant overflows a float"):
            discriminant_index(fam)


def _lattice_order(terms):
    """gcd of sum d_t e_t over the integer relations sum d_t v_t = 0 of
    the terms (e_t, v_t), by unimodular column operations on the 2 x T
    matrix of columns (v_t, e_t): once the first row is (gcd v, 0, ..., 0),
    the columns with first entry 0 span the images of the relations."""
    cols = [[v, e] for e, v in terms]
    while sum(1 for c in cols if c[0]) > 1:
        piv = min((c for c in cols if c[0]), key=lambda c: abs(c[0]))
        for c in cols:
            if c is not piv and c[0]:
                q = c[0] // piv[0]
                c[0], c[1] = c[0] - q * piv[0], c[1] - q * piv[1]
    return math.gcd(*(c[1] for c in cols if not c[0]))


def _lattice_family(rng, degree):
    """A sparse family whose exponents e of zeta^k satisfy e = r (n - k)
    mod m for one seeded m in 1..4, so that its rotation order is a
    multiple of m; terms have |e| <= 6."""
    m, coeffs = rng.randint(1, 4), {}
    r = rng.randrange(m)
    for k in rng.sample(range(degree), rng.randint(1, min(3, degree))):
        fits = [e for e in range(-6, 7) if (e - r * (degree - k)) % m == 0]
        coeffs[k] = {e: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                     for e in rng.sample(fits, rng.randint(1, min(3, len(fits))))}
    return LaurentFamily(degree, coeffs)


def _disc_exponents(fam):
    """The z-exponents of disc(f_z), read by an inverse DFT of the
    reference discriminant at N > hi - lo points of |z| = 1, where
    [lo, hi] = [-W E, W E] with W = n(n - 1) and E the largest |e|."""
    n = fam.degree
    bound = n * (n - 1) * max([abs(e) for poly in fam.coeffs.values() for e in poly] + [1])
    size = 2 * bound + 1
    zs = [cmath.exp(2j * math.pi * j / size) for j in range(size)]
    vals = [disc_reference.discriminant_from_coeffs(fam.poly_at(z)) * z**bound for z in zs]
    coeffs = [sum(v * z ** -m for v, z in zip(vals, zs)) / size for m in range(size)]
    top = max(abs(c) for c in coeffs)
    return [m - bound for m, c in enumerate(coeffs) if abs(c) > 1e-9 * top]


class TestRotationOrder:
    def test_matches_column_reduction(self):
        rng = random.Random(7)
        for _ in range(3000):
            degree = rng.randint(2, 9)
            terms = {(rng.randrange(degree), rng.randint(-40, 40))
                     for _ in range(rng.randint(0, 6))}
            coeffs = {}
            for k, e in terms:
                coeffs.setdefault(k, {})[e] = 1.0
            assert _exponent_lattice(LaurentFamily(degree, coeffs))[2] == _lattice_order(
                [(e, degree - k) for k, e in terms]), terms

    def test_zero_terms_do_not_count(self):
        fam = LaurentFamily(3, {0: {2: -1.0, 1: 0.0}, 1: {5: 0j}})
        assert _exponent_lattice(fam) == (4, 4, 0)  # disc(zeta^3 - z^2) = -27 z^4
        assert _exponent_lattice(LaurentFamily(3, {0: {1: 0.0}})) == (0, 0, 0)
        assert _exponent_lattice(LaurentFamily.power_family(4, 7)) == (21, 21, 0)
        assert _exponent_lattice(LaurentFamily(2, {0: {0: 0.97, 2: -1.0}})) == (0, 2, 2)

    def test_linear_in_the_number_of_terms(self):
        # the gcd over all 4,000 * 3,999 / 2 term pairs took 2.6 s
        half = 2000
        fam = LaurentFamily(3, {0: {e: 1.0 for e in range(half)}, 1: {e: 1.0 for e in range(half)}})
        start = time.perf_counter()
        assert _exponent_lattice(fam) == (0, 3 * (half - 1), 1)  # e/v = (half - 1)/2 at k = 1
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("degree", range(2, 6))
    def test_disc_exponents_agree_mod_g(self, degree):
        rng = random.Random(200 + degree)
        for _ in range(12):
            fam = _lattice_family(rng, degree) if rng.random() < 0.75 else _seeded_family(rng, degree)
            lo, hi, g = _exponent_lattice(fam)
            exps = _disc_exponents(fam)
            assert all(lo <= e <= hi for e in exps), (fam, lo, hi, exps)
            if g == 0:
                assert len(exps) <= 1, (fam, exps)
            else:
                assert len({e % g for e in exps}) <= 1, (fam, g, exps)
            turn = cmath.exp(2j * math.pi / g) if g else cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(5):
                z = cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi))
                a = abs(disc_reference.discriminant_from_coeffs(fam.poly_at(z)))
                b = abs(disc_reference.discriminant_from_coeffs(fam.poly_at(turn * z)))
                assert math.isclose(a, b, rel_tol=1e-9), (fam, g, z)


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert [n for n in range(-3, 10**5) if _is_prime(n)] == [n for n in range(-3, 10**5) if trial(n)]

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, n):
        # the least strong pseudoprimes to the first 4, 11 and 12 prime
        # bases: a test with fewer of the 13 bases would call them prime
        assert not _is_prime(n)

    def test_mersenne_prime_in_bit_length_time(self):
        start = time.perf_counter()
        assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)
        assert time.perf_counter() - start < 0.1

    def test_past_the_bound_is_a_resource_limit(self):
        with pytest.raises(ResourceLimit, match="3317044064679887385961981"):
            _is_prime(2**89 - 1)
        assert not _is_prime(2**89)  # the division by the bases still decides


class TestThm1:
    def test_reducible(self):
        modulus = 2 * math.pi * 3 / math.log(2) + 1
        assert thm1_verdict(3, modulus, 6) == REDUCIBLE

    def test_index_not_divisible(self):
        modulus = 2 * math.pi * 3 / math.log(2) + 1
        assert thm1_verdict(3, modulus, 2) == INCONCLUSIVE

    def test_composite_degree(self):
        assert thm1_verdict(4, 1e6, 8) == INCONCLUSIVE

    def test_modulus_below_threshold(self):
        assert thm1_verdict(3, 2 * math.pi * 3 / math.log(2) - 1, 6) == INCONCLUSIVE

    def test_large_prime_in_bit_length_time(self):
        # trial division took 4 s for this 16-digit prime
        start = time.perf_counter()
        assert thm1_verdict(1000000000000037, 1e20, 0) == REDUCIBLE
        assert thm1_verdict(1000000007 * 1000000009, 1e20, 0) == INCONCLUSIVE
        assert time.perf_counter() - start < 0.5

    def test_cheap_conditions_come_before_primality(self):
        # 2^89 - 1 is past the Miller-Rabin bound, so only a verdict that
        # never asks whether it is prime can be given
        assert thm1_verdict(2**89 - 1, 1e20, 1) == INCONCLUSIVE
        assert thm1_verdict(2**89 - 1, 1e20, 0) == INCONCLUSIVE
        with pytest.raises(ResourceLimit, match="3317044064679887385961981"):
            thm1_verdict(2**89 - 1, 1e40, 0)

    @pytest.mark.parametrize("modulus", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_modulus_that_is_not_positive_and_finite(self, modulus):
        with pytest.raises(ValueError, match="modulus"):
            thm1_verdict(3, modulus, 3)


class TestBounds:
    def test_penner_sphere_four_marked(self):
        assert penner_bound(0, 4) == math.log(2) / 4

    def test_braid_entropy_floor(self):
        v = nbraid_entropy_lower(3)
        assert v == math.log(2) / 4
        assert abs(v - 0.17328) < 1e-4

    def test_braid_module_cap(self):
        assert abs(nbraid_module_upper(3) - 6 * math.pi / math.log(2)) < 1e-12

    def test_consistency_with_min_entropy(self):
        assert math.log((3 + math.sqrt(5)) / 2) >= nbraid_entropy_lower(3)

    def test_signature_range(self):
        with pytest.raises(SignatureOutOfRange):
            penner_bound(1, 0)
        with pytest.raises(SignatureOutOfRange):
            nbraid_entropy_lower(2)
        # both returned a bound, log 2/16 and log 2/44, as 3g - 3 + m > 0 was
        # the only test
        with pytest.raises(SignatureOutOfRange, match=r"got \(-1, 10\)"):
            penner_bound(-1, 10)
        with pytest.raises(SignatureOutOfRange, match=r"got \(5, -1\)"):
            penner_bound(5, -1)
