import cmath
import math
import random
import time

import pytest
from lattice_reference import row_series, row_series_prime
from lattice_reference import wp as wp_reference
from lattice_reference import wp_prime as wp_prime_reference

from braidoka import _purekernels
from braidoka.errors import PoleProximity
from braidoka.lattice import (
    POLE_TOLERANCE,
    LatticeSpec,
    _cell_point,
    _reduce_cell,
    _reduce_modulus,
    branch_locus,
    e_values,
    ode_residual,
    wp,
    wp_prime,
)

TAUS = (1j, 2j, 0.5 + 1.2j)


def random_tau(rng):
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))


def theta_e_values(tau):
    """(wp(1/2), wp(tau/2), wp((1+tau)/2)) from theta constants
    (DLMF 23.6.2-23.6.4), each theta summed as a plain q-series."""
    terms = range(-12, 13)
    t2 = sum(cmath.exp(1j * math.pi * tau * (n + 0.5) ** 2) for n in terms) ** 4
    t3 = sum(cmath.exp(1j * math.pi * tau * n * n) for n in terms) ** 4
    t4 = sum((-1) ** n * cmath.exp(1j * math.pi * tau * n * n) for n in terms) ** 4
    c = math.pi**2 / 3
    return c * (t3 + t4), -c * (t2 + t3), c * (t2 - t4)


class TestWp:
    def test_even(self):
        rng = random.Random(3)
        for _ in range(10):
            z = complex(rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45))
            assert abs(wp(z, 1.3j) - wp(-z, 1.3j)) < 1e-10

    def test_periodic(self):
        z = 0.21 + 0.17j
        for tau in TAUS:
            assert abs(wp(z + 1, tau) - wp(z, tau)) < 1e-9
            assert abs(wp(z + tau, tau) - wp(z, tau)) < 1e-9

    def test_square_lattice_center_value(self):
        assert abs(wp((1 + 1j) / 2, 1j)) < 1e-6

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            wp(1e-10 + 0j, 1j)
        with pytest.raises(PoleProximity):
            wp(2 + 3j + 1e-9, 1j)

    @pytest.mark.parametrize("f, tau", [(wp, 1e-155j), (wp, 1e-170j), (wp, 1e-300j),
                                        (wp_prime, 1e-150j), (wp_prime, 1e-170j)])
    def test_overflowing_value_is_an_input_error(self, f, tau):
        # the shortest lattice vector is tau itself: where f**2 (wp) or f**3
        # (wp') underflowed to 0 this raised ZeroDivisionError, and just
        # above that it returned inf
        with pytest.raises(ValueError, match=r"shortest vector .* too short: the value overflows"):
            f(0.5 + 0.25j, tau)

    def test_pole_rule_on_skewed_lattices(self):
        # the pole test reads |zeta reduced into the cell| alone; compare it
        # with a brute-force search for a lattice point within the tolerance
        rng = random.Random(29)
        raised = 0
        for _ in range(150):
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            for scale in (0.5, 0.9, 1.1, 2):
                delta = cmath.rect(scale * POLE_TOLERANCE, rng.uniform(0, 2 * math.pi))
                zeta = p + q * tau + delta
                near = any(abs(zeta - (a + b * tau)) < POLE_TOLERANCE
                           for a in range(-15, 16) for b in range(-8, 9))
                for f in (wp, wp_prime):
                    try:
                        f(zeta, tau)
                    except PoleProximity:
                        assert near, (f.__name__, tau, zeta)
                        raised += 1
                    else:
                        assert not near, (f.__name__, tau, zeta)
        assert raised == 2 * 150 * 2  # both functions at scales 0.5 and 0.9

    def test_laurent_leading_terms(self):
        # wp = z^-2 + O(z^2) and wp' = -2 z^-3 + O(z) near the pole at 0
        for z in (1e-6, 1e-6j, -7e-7 + 5e-7j, 3e-7 - 8e-7j):
            assert abs(wp(z, 1.1j + 0.2) * z * z - 1) < 1e-14
            assert abs(wp_prime(z, 1.1j + 0.2) * z**3 + 2) < 1e-14

    def test_prime_is_odd(self):
        z = 0.23 + 0.29j
        assert abs(wp_prime(z, 1.4j) + wp_prime(-z, 1.4j)) < 1e-9

    def test_matches_lattice_sum(self):
        rng = random.Random(17)
        for _ in range(8):
            tau = random_tau(rng)
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) * (1 + tau)
            for new, ref in ((wp, wp_reference), (wp_prime, wp_prime_reference)):
                got, want = new(z, tau), ref(z, tau)
                assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("tau", (40j, 300j, 0.3 + 1.1j))
    def test_parity_below_real_axis(self, tau):
        # no overflow at a large modulus, and wp even, wp' odd where Im zeta < 0
        for z in (0.3 - 0.2j, -0.1 - 0.45j, 0.5 - 0.4 * tau):
            assert abs(wp(z, tau) - wp(-z, tau)) <= 1e-12 * abs(wp(z, tau))
            assert abs(wp_prime(z, tau) + wp_prime(-z, tau)) <= 1e-12 * abs(wp_prime(z, tau))


class TestEValues:
    def test_square_lattice_symmetry(self):
        e1, e2, e3 = e_values(1j)
        assert abs(e2 + e1) < 1e-6
        assert abs(e3) < 1e-6

    def test_hexagonal_rotation(self):
        e = e_values(cmath.exp(1j * math.pi / 3))
        mods = sorted(abs(x) for x in e)
        assert mods[2] - mods[0] < 1e-6
        assert abs(sum(e)) < 1e-6

    def test_rectangular_real(self):
        e = e_values(2j)
        assert all(abs(x.imag) < 1e-6 for x in e)
        assert e[0].real > 0
        assert abs(sum(e)) < 1e-6

    def test_sum_vanishes(self):
        for tau in TAUS:
            assert abs(sum(e_values(tau))) < 1e-5

    def test_theta_constants(self):
        rng = random.Random(23)
        for tau in (1j, 0.8j, 2j, *(random_tau(rng) for _ in range(20))):
            for got, want in zip(e_values(tau), theta_e_values(tau)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_large_modulus(self):
        e = e_values(40j)
        assert abs(sum(e)) < 1e-12
        assert abs(e[0] - 2 * math.pi**2 / 3) < 1e-12

    @pytest.mark.parametrize("tau", (1e-150j, 1e-170j, 1e-300j, 0.3 + 1e-170j))
    def test_tiny_lattice_vector_is_pole_proximity(self, tau):
        # a half period within POLE_TOLERANCE of the lattice is found before
        # any value is divided by f**2, which underflows below |f| ~ 1e-162
        with pytest.raises(PoleProximity):
            e_values(tau)
        with pytest.raises(PoleProximity):
            branch_locus(LatticeSpec(1, tau))
        with pytest.raises(PoleProximity):
            ode_residual(tau, 0.5 + 0.25j)

    def test_pairwise_distinct(self):
        for tau in TAUS:
            e1, e2, e3 = e_values(tau)
            assert min(abs(e1 - e2), abs(e1 - e3), abs(e2 - e3)) > 1e-4


def small_im_taus():
    rng = random.Random(41)
    seeded = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.01, 0.3)) for _ in range(5)]
    return [0.3 + 0.05j, 0.45 + 0.02j, 0.01j, *seeded]


class TestSmallImTau:
    """Accuracy at small Im tau, where a row series over Z + tau Z itself
    needs many rows: against the unreduced row series at a radius sized to
    Im tau, whose rows then fall below exp(-40)."""

    @pytest.mark.parametrize("tau", small_im_taus())
    def test_matches_sized_radius(self, tau):
        radius = math.ceil(40 / (2 * math.pi * tau.imag))
        for got, z in zip(e_values(tau), (0.5, tau / 2, (1 + tau) / 2)):
            want = row_series(z, tau, radius)
            assert abs(got - want) <= 1e-12 * abs(want), (tau, z)
        # a point at distance about |f| from the lattice, where f is its
        # shortest vector; far out in a long cell wp' is exponentially small
        scale = _reduce_modulus(tau)[1]
        z = _reduce_cell(scale * (0.31 + 0.37j), tau)
        for f, kernel in ((wp, row_series), (wp_prime, row_series_prime)):
            want = kernel(z, tau, radius)
            assert abs(f(z, tau) - want) <= 1e-12 * abs(want), (f.__name__, tau)


class TestRowCutoff:
    """The kernels stop summing rows once the next is below rounding; the
    uncut series over all `radius` rows is the oracle."""

    def test_matches_uncut_series(self):
        # rows left out add at most 160 |b| / (1 - |q|) to wp and
        # 500 |b| / (1 - |q|) to wp', |b| < 2^-70; where wp' is exponentially
        # small that can exceed 1e-15 of it
        rng = random.Random(43)
        points = identical = 0
        while points < 2000:
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            zeta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                tau, f = _reduce_modulus(tau)
                z = _cell_point(zeta, tau, f)
            except PoleProximity:
                continue
            points += 1
            q = abs(cmath.exp(2j * math.pi * tau))
            for kernel, uncut, factor in ((_purekernels.wp_sum, row_series, 160),
                                          (_purekernels.wp_prime_sum, row_series_prime, 500)):
                got, want = kernel(z, tau, 60), uncut(z, tau, 60)
                tail = factor * 2.0**-70 / (1 - q)
                assert abs(got - want) <= 1e-15 * abs(want) + tail, (kernel.__name__, z, tau)
                identical += got == want
        assert identical >= 0.99 * 2 * points

    def test_radius_is_a_cap(self):
        # at Im tau = 0.05 row 60 is still far above rounding, so both
        # kernels sum all 60 rows, as the uncut series does
        rng = random.Random(47)
        for _ in range(20):
            tau = complex(rng.uniform(-0.5, 0.5), 0.05)
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.02, 0.02))
            assert _purekernels.wp_sum(z, tau, 60) == row_series(z, tau, 60)
            assert _purekernels.wp_prime_sum(z, tau, 60) == row_series_prime(z, tau, 60)

    def test_nine_rows_suffice_on_reduced_points(self):
        # a row cap cannot change a result: on reduced tau and z, cell edges
        # and the corners of the fundamental domain included, the kernels
        # give the same bits at cap 9 as at cap 10^6
        rng = random.Random(53)
        corner = cmath.exp(1j * math.pi / 3)
        for i in range(5000):
            x = rng.uniform(-0.5, 0.5)
            tau = (complex(x, rng.uniform(math.sqrt(1 - x * x), 3)),
                   cmath.exp(1j * rng.uniform(math.pi / 3, 2 * math.pi / 3)),
                   complex(rng.choice((-0.5, 0.5)), rng.uniform(math.sqrt(3) / 2, 3)),
                   rng.choice((corner, -corner.conjugate())))[i % 4]
            h = tau.imag / 2
            z = (complex(rng.uniform(-0.5, 0.5), rng.uniform(-h, h)),
                 complex(rng.uniform(-0.5, 0.5), rng.choice((-h, h))),
                 complex(rng.choice((-0.5, 0.5)), rng.uniform(-h, h)),
                 complex(rng.choice((-0.5, 0.5)), rng.choice((-h, h))))[i // 4 % 4]
            for kernel in (_purekernels.wp_sum, _purekernels.wp_prime_sum):
                assert kernel(z, tau, 9) == kernel(z, tau, 10**6), (kernel.__name__, z, tau)

    def test_every_tau_that_passes_the_pole_test_is_reduced(self):
        # `_reduce_modulus` stops after 64 steps; a tau it leaves unreduced
        # would need more rows than the cap, but every zeta then fails the
        # pole test, down to Im tau = 1e-300
        rng = random.Random(59)
        unreduced = passed = 0
        for _ in range(6000):
            tau = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-300, 0.5))
            rtau = _reduce_modulus(tau)[0]
            reduced = abs(rtau.real) <= 0.5 and abs(rtau) >= 1 - 1e-12
            unreduced += not reduced
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            for zeta in (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                         p + q * tau + cmath.rect(10 ** rng.uniform(-12, 0), rng.uniform(0, 7)),
                         complex(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))):
                for f in (wp, wp_prime):
                    try:
                        f(zeta, tau)
                    except PoleProximity:
                        continue
                    assert reduced, (f.__name__, zeta, tau)
                    passed += 1
        assert unreduced > 1000 and passed > 1000

    def test_large_radius_costs_nothing_on_a_reduced_tau(self):
        z = 0.31 + 0.2j
        start = time.perf_counter()
        p = _purekernels.wp_sum(z, 1j, 10**6)
        pp = _purekernels.wp_prime_sum(z, 1j, 10**6)
        elapsed = time.perf_counter() - start
        assert p == _purekernels.wp_sum(z, 1j, 60)
        assert pp == _purekernels.wp_prime_sum(z, 1j, 60)
        assert elapsed < 0.02


class TestBranchLocus:
    def test_scaling_covariance(self):
        b1 = branch_locus(LatticeSpec(1, 1j))
        b2 = branch_locus(LatticeSpec(2, 1j))
        assert all(abs(a / 4 - b) < 1e-12 for a, b in zip(b1.e, b2.e))

    def test_generator_invariance(self):
        b1 = branch_locus(LatticeSpec(1, 1j))
        b2 = branch_locus(LatticeSpec.from_generators(1, 1 + 1j))
        assert b1.as_set_distance(b2) < 1e-6

    def test_modular_shift(self):
        for tau in TAUS:
            b1 = branch_locus(LatticeSpec(1, tau))
            b2 = branch_locus(LatticeSpec(1, tau + 1))
            assert b1.as_set_distance(b2) < 1e-5

    def test_generator_normalization(self):
        spec = LatticeSpec.from_generators(2j, 2)
        assert spec.tau.imag > 0
        spec2 = LatticeSpec.from_generators(1, 0.1 + 0.05j)
        assert spec2.tau.imag > 0
        with pytest.raises(ValueError):
            LatticeSpec.from_generators(1, 2)

    def test_min_separation(self):
        e1, e2, e3 = branch_locus(LatticeSpec(1, 1j)).e
        assert abs(e1 - e2) > 1e-4 and abs(e1 - e3) > 1e-4 and abs(e2 - e3) > 1e-4

    @pytest.mark.parametrize("alpha, tau, name", [
        (1, complex(math.nan, 1.2), "tau"),
        (1, complex(0, math.inf), "tau"),
        (1, complex(-math.inf, 1), "tau"),
        (complex(math.inf, 0), 1j, "alpha"),
        (complex(1, math.nan), 1j, "alpha"),
    ])
    def test_rejects_non_finite_parameters(self, alpha, tau, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            LatticeSpec(alpha, tau)


class TestOdeResidual:
    def test_small_at_default_radius(self):
        rng = random.Random(11)
        for tau in TAUS:
            for _ in range(3):
                z = complex(rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45))
                assert ode_residual(tau, z) < 1e-6

    def test_near_half_period(self):
        r = ode_residual(1.5j, 0.5 + 0.003)
        assert r < 1e-5

    @pytest.mark.parametrize("tau", (1j, 0.8j))
    def test_near_zero_of_derivative(self, tau):
        # wp' vanishes at (1 + tau)/2
        assert ode_residual(tau, (1 + tau) / 2 + 0.01) < 1e-10
