"""The benchmark's view of the kernels, re-exported from `_purekernels`.

The package's modules call the kernels in their homes directly: the theta
layer in `_theta` (which `_purekernels` reads back, so `theta_abcd` is one
function object in all three modules), the sweep and the series in
`_purekernels`.  This module is only what perfbench reads: its tracer
wraps the kernels here as well, its `sweeps` workload resolves
`sweep3_stats` here, and `braidoka.BACKEND` names the implementation in
its reports.
"""

from ._purekernels import e0_screen, sweep3_stats, theta_abcd, wp_prime_sum, wp_sum  # noqa: F401

BACKEND = "pure"
