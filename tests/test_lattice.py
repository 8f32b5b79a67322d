import cmath
import math
import random
import time

import mpmath
import pytest
from lattice_reference import _reduce_cell as float_reduce_cell
from lattice_reference import _reduce_modulus as float_reduce_modulus
from lattice_reference import near_lattice, row_series, row_series_prime, theta_wp
from lattice_reference import wp as wp_reference
from lattice_reference import wp_prime as wp_prime_reference

from braidoka import _purekernels
from braidoka.errors import PoleProximity
from braidoka.lattice import (
    POLE_TOLERANCE,
    LatticeSpec,
    _cell_point,
    _reduce_modulus,
    branch_locus,
    e_values,
    ode_residual,
    wp,
    wp_prime,
)

TAUS = (1j, 2j, 0.5 + 1.2j)


def is_reduced(tau):
    """Whether `_reduce_modulus(tau)` returns a basis of Z + tau Z, b1 = u1
    + v1 tau and b2 = u2 + v2 tau with determinant 1, whose quotient b2 /
    b1 lies in the standard domain |b2| >= |b1|, -|b1|^2 <= 2 <b1, b2> <
    |b1|^2, decided in integers: tau times the product D of the
    denominators of its parts is x + y i."""
    u1, v1, u2, v2 = _reduce_modulus(1, tau)[2]
    (x, dx), (y, dy) = tau.real.as_integer_ratio(), tau.imag.as_integer_ratio()
    big_d, x, y = dx * dy, x * dy, y * dx
    p1, q1, p2, q2 = big_d * u1 + x * v1, y * v1, big_d * u2 + x * v2, y * v2
    a, b, c = p1 * p1 + q1 * q1, p1 * p2 + q1 * q2, p2 * p2 + q2 * q2
    return u1 * v2 - u2 * v1 == 1 and c >= a and -a <= 2 * b < a


def random_tau(rng):
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))


def mpmath_e_values(tau):
    """(wp(1/2), wp(tau/2), wp((1+tau)/2)) from 200-bit mpmath theta
    constants (DLMF 23.6.2-23.6.4), unreduced tau."""
    with mpmath.workprec(200):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        t2, t3, t4 = (mpmath.jtheta(k, 0, q) ** 4 for k in (2, 3, 4))
        c = mpmath.pi**2 / 3
        return tuple(complex(v) for v in (c * (t3 + t4), -c * (t2 + t3), c * (t2 - t4)))


def row_series_e_values(tau):
    """The half-period values through `wp`, the row series at each half
    period, which reads no half-period class."""
    return wp(0.5, tau), wp(tau / 2, tau), wp((1 + tau) / 2, tau)


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
                                        (wp_prime, 1e-300j)])
    def test_overflowing_value_is_an_input_error(self, f, tau):
        # the shortest lattice vector is tau itself: where f**2 (wp) or f**3
        # (wp') underflowed to 0 this raised ZeroDivisionError, and just
        # above that it returned inf; wp' at 1e-300j is past the 2^2046 that
        # _rescale's two halves reach
        with pytest.raises(ValueError, match=r"shortest vector .* too short: the value overflows"):
            f(0.5 + 0.25j, tau)

    @pytest.mark.parametrize("tau", [1e-150j, 1e-170j])
    def test_underflowing_wp_prime_is_zero(self, tau):
        # f**3 is below 2^-1023, and zeta / f lies over 1e149 cell units from
        # every row of the reduced lattice, so every row term is below the
        # smallest float
        assert wp_prime(0.5 + 0.25j, tau) == 0j

    @pytest.mark.parametrize("zeta, tau", [
        # rounding in a float zeta / f left the cell, where the row series'
        # exponentials overflowed cmath.exp
        (8028549152.2296715 - 9388200339.32893j, -0.27123777872954735 + 4.7401791436547436e-36j),
        # a float zeta / f overflows, and round(inf) raised OverflowError
        (1e10, 1e-300j),
    ])
    def test_zeta_beyond_the_float_cell_is_an_input_error(self, zeta, tau):
        # with zeta / f in floats these were ValueErrors ("too large to
        # reduce into a cell"); reduced in integers, both points lie within
        # the tolerance of the lattice (1e10 is a lattice point), so they
        # are poles, as the integer oracle says
        assert near_lattice(zeta, tau, POLE_TOLERANCE)
        for call in (lambda: wp(zeta, tau), lambda: wp_prime(zeta, tau),
                     lambda: ode_residual(tau, zeta)):
            with pytest.raises(PoleProximity):
                call()

    def test_seeded_huge_zeta_never_overflows(self):
        # Im tau down to 1e-300 and |zeta| ~ 1e10: 274 of these raised
        # OverflowError from cmath.exp, and the float reduction then gave
        # 524 values and 80 cell errors.  Below Im tau = 1e-20 a reduced
        # basis of Z + tau Z has vectors of about sqrt(Im tau) <= 1e-10
        # unless the continued fraction of Re tau has a partial quotient of
        # 1e4 or more, so every zeta here lies within the tolerance of the
        # lattice, as the integer oracle says: those values had no correct
        # digit.  Reduced in integers, every call is a pole
        rng = random.Random(1)
        for _ in range(3000):
            tau = complex(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-300, -20))
            zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e10
            assert is_reduced(tau), tau
            assert near_lattice(zeta, tau, POLE_TOLERANCE), (zeta, tau)
            with pytest.raises(PoleProximity):
                wp(zeta, tau)

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
        # e_values sums theta constants; the row series at the half periods
        # and 200-bit mpmath are the two independent oracles
        rng = random.Random(23)
        for tau in (1j, 0.8j, 2j, *(random_tau(rng) for _ in range(20))):
            got = e_values(tau)
            for oracle, tol in ((row_series_e_values, 1e-12), (mpmath_e_values, 1e-14)):
                for x, want in zip(got, oracle(tau)):
                    assert abs(x - want) <= tol * max(1.0, abs(want)), (oracle.__name__, tau)

    def test_mpmath_over_many_reductions(self):
        # Im tau from 1e-4 to 30, measured against the size of the locus,
        # max(1, |e_1|, |e_2|, |e_3|): the e_j sum to 0, so one can be much
        # smaller than the others, and near the square lattice the value
        # (pi^2/3)(theta_2^4 - theta_4^4) cancels (value by value, up to
        # 1.6e-14 of its own size on these seeds).  With the float
        # reduction of tau its rounding set the error at small Im tau, up
        # to 1.03e-14 at Im tau ~ 0.01 and 7.5e-13 at 1e-4; reduced in
        # integers, tau' and f are one rounding each, and the worst error
        # on these seeds is below 1e-15
        rng = random.Random(29)
        for _ in range(500):
            tau = complex(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-4, math.log10(30)))
            want = mpmath_e_values(tau)
            scale = max(1.0, *map(abs, want))
            assert all(abs(x - w) <= 1e-14 * scale for x, w in zip(e_values(tau), want)), tau

    def test_half_period_classes(self):
        # tau + 1 spans the same lattice with half periods 1/2, tau/2 + 1/2
        # and tau/2 + 1; -1/tau spans tau^-1 (Z + tau Z), where wp(z) is
        # tau^2 wp(tau z), so the values are permuted and rescaled.  The
        # values at tau come from the row series: e_values(tau) and
        # e_values(tau + 1) reduce to one lattice, so a wrong class table
        # would permute both sides alike
        rng = random.Random(31)
        for _ in range(300):
            tau = complex(rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-2, 1))
            e1, e2, e3 = row_series_e_values(tau)
            for got, want in ((e_values(tau), (e1, e2, e3)),
                              (e_values(tau + 1), (e1, e3, e2)),
                              (e_values(-1 / tau), (tau**2 * e2, tau**2 * e1, tau**2 * e3))):
                scale = max(map(abs, want))
                assert all(abs(x - w) <= 1e-11 * scale for x, w in zip(got, want)), tau

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


class TestExactReduction:
    """`_reduce_modulus` against the float reduction it replaced
    (`lattice_reference`), where that one is accurate, and at the ties of
    the standard domain, which it decides exactly."""

    def test_matches_the_float_reduction(self):
        # Im tau >= 0.01: tau' and f agree to 1e-9, and the float cell
        # rounding of each half period / f gives the class that the integer
        # basis gives; e_values takes the value of that class
        rng = random.Random(61)
        for _ in range(8000):
            tau = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-2, 1.5))
            rtau, f, (u1, v1, u2, v2), _ = _reduce_modulus(1, tau)
            want_tau, want_f = float_reduce_modulus(tau)
            assert abs(rtau - want_tau) <= 1e-9 * abs(want_tau), tau
            assert abs(f - want_f) <= 1e-9 * abs(want_f), tau
            assert _reduce_modulus(1, want_tau)[2] == (1, 0, 0, 1), tau
            base = e_values(want_tau)  # the classes (1, 0), (0, 1), (1, 1) of tau'
            for (m, n), got in zip(((1, 0), (0, 1), (1, 1)), e_values(tau)):
                z = float_reduce_cell((m + n * tau) / 2 / want_f, want_tau)
                k = round(2 * z.imag / want_tau.imag)
                j = round(2 * z.real - k * want_tau.real)
                assert ((m * v2 - n * u2) % 2, (n * u1 - m * v1) % 2) == (j % 2, k % 2), tau
                want = base[j % 2 + 2 * (k % 2) - 1] / want_f**2
                assert abs(got - want) <= 1e-9 * abs(want), tau

    @pytest.mark.parametrize("tau, reduced", [
        # |tau| = 1 is not swapped
        (1j, (1j, 1, (1, 0, 0, 1))),
        # Re tau = -1/2 stays, and +1/2 becomes -1/2
        (-0.5 + 2j, (-0.5 + 2j, 1, (1, 0, 0, 1))),
        (0.5 + 2j, (-0.5 + 2j, 1, (1, 0, -1, 1))),
        # the float sqrt(3)/2 puts the corner inside the unit circle, by
        # 8.7e-17 in |tau|^2: shifted, swapped and shifted again.  The
        # float reduction, with its 1e-12 margin, left it as it was
        (complex(0.5, math.sqrt(3) / 2),
         (complex(-0.49999999999999994, 0.8660254037844387), complex(-0.5, 0.8660254037844386),
          (-1, 1, 0, -1))),
    ])
    def test_ties(self, tau, reduced):
        assert _reduce_modulus(1, tau)[:3] == reduced
        assert is_reduced(tau)
        want = mpmath_e_values(tau)
        scale = max(1.0, *map(abs, want))
        assert all(abs(x - w) <= 1e-14 * scale for x, w in zip(e_values(tau), want))

    def test_a_tau_below_the_axis_spans_the_same_lattice(self):
        # (1, tau) is read as a generator pair, so Im tau < 0 is the lattice
        # Z - tau Z, oriented by the exact cross product; a real tau spans
        # no lattice
        rng = random.Random(67)
        for _ in range(50):
            tau = random_tau(rng)
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            assert wp(z, -tau) == wp(z, tau) and wp_prime(z, -tau) == wp_prime(z, tau)
            below = e_values(tau.conjugate())
            assert all(abs(x - w.conjugate()) <= 1e-15 * abs(w) for x, w in zip(below, e_values(tau)))
        for tau in (0.5, -2.0, 0j):
            with pytest.raises(ValueError, match="not collinear"):
                e_values(tau)


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
        scale = _reduce_modulus(1, tau)[1]
        z = float_reduce_cell(scale * (0.31 + 0.37j), tau)
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
                z, tau, f, _ = _cell_point(zeta, tau)
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
        # the float reduction stopped after 64 steps and left more than a
        # thousand of these tau unreduced, each a pole for every zeta; the
        # integer reduction reduces every tau, down to Im tau = 1e-300, and
        # a reduced tau needs no more rows than the cap
        rng = random.Random(59)
        passed = 0
        for _ in range(6000):
            tau = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-300, 0.5))
            assert is_reduced(tau), tau
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            for zeta in (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                         p + q * tau + cmath.rect(10 ** rng.uniform(-12, 0), rng.uniform(0, 7)),
                         complex(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))):
                for f in (wp, wp_prime):
                    try:
                        assert cmath.isfinite(f(zeta, tau))
                    except PoleProximity:
                        continue
                    passed += 1
        assert passed > 1000

    def test_large_radius_costs_nothing_on_a_reduced_tau(self):
        z = 0.31 + 0.2j
        start = time.perf_counter()
        p = _purekernels.wp_sum(z, 1j, 10**6)
        pp = _purekernels.wp_prime_sum(z, 1j, 10**6)
        elapsed = time.perf_counter() - start
        assert p == _purekernels.wp_sum(z, 1j, 60)
        assert pp == _purekernels.wp_prime_sum(z, 1j, 60)
        assert elapsed < 0.02


class TestUnreducedModulus:
    """tau over the float domain.  The float reduction stopped after 64
    steps and left some tau unreduced, each a pole for every zeta; the
    integer reduction reduces every tau.  `near_lattice` is the exact pole
    oracle and `theta_wp` the value oracle."""

    def test_oracle(self):
        assert not near_lattice(0.5 + 0j, 1j, POLE_TOLERANCE)
        assert near_lattice(2 + 3j + 1e-9, 1j, POLE_TOLERANCE)
        assert not near_lattice(2 + 3j + 2e-8, 0.5 + 1.2j, POLE_TOLERANCE)
        assert near_lattice(-3 + 2 * (0.5 + 1.2j) - 9e-9j, 0.5 + 1.2j, POLE_TOLERANCE)

    def test_input_whose_cell_reduction_overflowed(self):
        # the float reduction left tau' = 8.27 + 4.4e-218i after its 64
        # steps, where the cell reduction's round(zeta.imag / tau.imag)
        # raised OverflowError.  Reduced in integers, tau' = 0.32 + 1.2e278i
        # and f = 3.6e-294i; zeta lies within the tolerance of the lattice
        zeta = 6.861533213102491e+175 - 3.191023408208549e+175j
        tau = 0.4492204766705261 + 1.591739283727176e-309j
        assert is_reduced(tau)
        assert near_lattice(zeta, tau, POLE_TOLERANCE)
        for call in (lambda: wp(zeta, tau), lambda: wp_prime(zeta, tau),
                     lambda: ode_residual(tau, zeta), lambda: e_values(tau)):
            with pytest.raises(PoleProximity):
                call()

    @pytest.mark.parametrize("call", [
        lambda: wp(complex(math.inf, 0), 1j),
        lambda: wp_prime(complex(0, math.nan), 1j),
        lambda: e_values(complex(0, math.inf)),
        lambda: e_values(complex(math.nan, 1)),
    ], ids=["inf-zeta", "nan-zeta", "inf-tau", "nan-tau"])
    def test_non_finite_input_is_a_value_error(self, call):
        # an infinite part has no integer ratio: OverflowError, not an
        # input error, unless it is refused first
        with pytest.raises(ValueError, match="must be finite"):
            call()

    def test_seeded_float_domain(self):
        # tau and zeta over most of the float range: no OverflowError (none
        # is caught here).  Before the float reduction's step rule 15,018
        # of the 80,000 calls of 20,000 such draws raised OverflowError.
        # With that reduction the counts here were 2,285 finite, 17,010
        # poles and 705 input errors, more than 1,000 tau were left
        # unreduced, and 196 of its finite values of wp were off by more
        # than 1e-6.  Every pole of wp is checked by the integer oracle on
        # a tenth of the draws, and every finite wp and wp' against a theta
        # quotient at a precision sized by Im tau'
        rng = random.Random(20261019)
        outcomes = {"finite": 0, "pole": 0, "error": 0}
        values = []
        for i in range(5000):
            tau = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-320, 1))
            zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(0, 308)
            assert is_reduced(tau), tau
            for k, call in enumerate((lambda: wp(zeta, tau), lambda: wp_prime(zeta, tau),
                                      lambda: ode_residual(tau, zeta), lambda: e_values(tau))):
                try:
                    value = call()
                except PoleProximity:
                    outcomes["pole"] += 1
                    assert k or i % 10 or near_lattice(zeta, tau, POLE_TOLERANCE), (zeta, tau)
                    continue
                except ValueError as exc:
                    assert "too short" in str(exc), (zeta, tau)
                    outcomes["error"] += 1
                    continue
                assert all(map(cmath.isfinite, value if isinstance(value, tuple) else (value,)))
                outcomes["finite"] += 1
                if k < 2:
                    values.append((zeta, tau, k, value))
        assert outcomes == {"finite": 1103, "pole": 18897, "error": 0}
        assert len(values) == 2 * 278
        for zeta, tau, k, value in values:
            want = theta_wp(zeta, tau)[k]
            assert abs(value - want) <= 1e-13 * abs(want), (k, zeta, tau)


class TestBranchLocus:
    @pytest.mark.parametrize("alpha", [1e-200, 1e-160, 1e160, 1e300, -1e-300j, 5e-324])
    def test_extreme_scale_is_finite_or_too_short(self, alpha):
        # alpha ** -2 raised ZeroDivisionError below |alpha| ~ 1e-162,
        # OverflowError from 1e-162 to 1e-154, and gave nan above 1e154
        try:
            locus = branch_locus(LatticeSpec(alpha, 1j))
        except ValueError as exc:
            assert "shortest vector" in str(exc) and "too short" in str(exc)
            assert abs(alpha) < 1e-150
        else:
            assert all(map(cmath.isfinite, locus.e))
            assert abs(alpha) > 1e150 and max(map(abs, locus.e)) < 1e-300

    def test_seeded_extreme_scales_against_mpmath(self):
        # |alpha| from 1e-300 to 1e300 at a random phase: the locus is
        # finite or the named ValueError, never ZeroDivisionError,
        # OverflowError or nan.  The scale alpha f is rounded once and then
        # divided out in one exact homogeneity step, so where the true value
        # lies between 1e-290 and 1e300 it agrees with 200-bit mpmath to
        # 1e-14 of itself (2.3e-15 at worst on these seeds, 7.3e-16 of the
        # largest value of its locus)
        rng = random.Random(37)
        compared = errors = 0
        for _ in range(300):
            tau = random_tau(rng)
            alpha = cmath.rect(10 ** rng.uniform(-300, 300), rng.uniform(0, 2 * math.pi))
            with mpmath.workprec(200):
                q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
                t2, t3, t4 = (mpmath.jtheta(k, 0, q) ** 4 for k in (2, 3, 4))
                scale = mpmath.pi**2 / 3 / mpmath.mpc(alpha) ** 2
                want = [scale * (t3 + t4), -scale * (t2 + t3), scale * (t2 - t4)]
                top = max(abs(w) for w in want)
            try:
                got = branch_locus(LatticeSpec(alpha, tau)).e
            except ValueError as exc:
                assert "too short" in str(exc) and top > 1e300, (alpha, tau)
                errors += 1
                continue
            assert all(map(cmath.isfinite, got)), (alpha, tau)
            for x, w in zip(got, want):
                if 1e-290 <= abs(w) <= 1e300:
                    assert abs(x - complex(w)) <= 1e-14 * abs(w), (alpha, tau)
                    compared += 1
        assert compared == 483 and errors == 71

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

    @pytest.mark.parametrize("a, b, match", [
        # b / a underflowed to 0, so these perpendicular generators read as
        # collinear; read exactly, tau' = 1e600 i is what overflows
        (1e300, 1e-300j, "tau gives a lattice vector too short"),
        # b / a overflowed, which was reported as a non-finite input
        (1e-300, 1e300j, "tau gives a lattice vector too short"),
        (1, 2, "not collinear"),
        (-3 + 1e-300j, 6 - 2e-300j, "not collinear"),
    ], ids=["perpendicular-huge-ratio", "overflowing-generators", "collinear", "collinear-tiny-imag"])
    def test_generators_read_in_integers(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            LatticeSpec.from_generators(a, b)

    @pytest.mark.parametrize("a, b", [
        (2j, 2), (2, 2j), (1, 1 - 1e-300j), (1, 1 + 1e-300j), (3 + 1e-300j, 1e-300 + 2j),
    ], ids=["reversed", "oriented", "barely-reversed", "barely-oriented", "tiny-parts"])
    def test_orientation_is_decided_exactly(self, a, b):
        # the integer cross product decides the orientation, however small
        # the angle: the spec spans a Z + b Z, with tau reduced
        spec = LatticeSpec.from_generators(a, b)
        assert is_reduced(spec.tau) and _reduce_modulus(1, spec.tau)[2] == (1, 0, 0, 1)
        f, tau = spec.alpha, spec.tau
        for g in (a, b):
            # g = (m + n tau) f with integers m, n
            n = (g / f).imag / tau.imag
            m = (g / f - n * tau).real
            assert abs(n - round(n)) < 1e-6 and abs(m - round(m)) < 1e-6, (g, f, tau)

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
