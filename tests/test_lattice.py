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
    _reduce_cell,
    _reduce_modulus,
    _reduced_arg,
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

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            wp(0.3, 1j, radius=8)

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
        # two-radius consistency of the sum itself
        e_hi = e_values(2j, radius=120)
        assert max(abs(a - b) for a, b in zip(e, e_hi)) < 1e-6

    def test_sum_vanishes(self):
        for tau in TAUS:
            assert abs(sum(e_values(tau, 80))) < 1e-5

    def test_theta_constants(self):
        rng = random.Random(23)
        for tau in (1j, 0.8j, 2j, *(random_tau(rng) for _ in range(20))):
            for got, want in zip(e_values(tau), theta_e_values(tau)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_large_modulus(self):
        e = e_values(40j)
        assert abs(sum(e)) < 1e-12
        assert abs(e[0] - 2 * math.pi**2 / 3) < 1e-12

    def test_pairwise_distinct(self):
        for tau in TAUS:
            e1, e2, e3 = e_values(tau, 80)
            assert min(abs(e1 - e2), abs(e1 - e3), abs(e2 - e3)) > 1e-4


def small_im_taus():
    rng = random.Random(41)
    seeded = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.01, 0.3)) for _ in range(5)]
    return [0.3 + 0.05j, 0.45 + 0.02j, 0.01j, *seeded]


class TestSmallImTau:
    """Accuracy at small Im tau, where the default radius alone would
    truncate the row series early: against the unreduced row series at a
    radius sized to Im tau, whose rows then fall below exp(-40)."""

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
                z, tau, _ = _reduced_arg(zeta, tau, 60)
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
            b1 = branch_locus(LatticeSpec(1, tau), 80)
            b2 = branch_locus(LatticeSpec(1, tau + 1), 80)
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
                assert ode_residual(tau, z, 60) < 1e-6

    def test_decreases_with_radius(self):
        z = 0.23 + 0.31j
        assert ode_residual(1.5j, z, 80) <= ode_residual(1.5j, z, 40) + 1e-9

    def test_near_half_period(self):
        r = ode_residual(1.5j, 0.5 + 0.003, 60)
        assert r < 1e-5

    @pytest.mark.parametrize("tau", (1j, 0.8j))
    def test_near_zero_of_derivative(self, tau):
        # wp' vanishes at (1 + tau)/2
        assert ode_residual(tau, (1 + tau) / 2 + 0.01) < 1e-10
