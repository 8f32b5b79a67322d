"""The kernels the rest of the package calls, re-exported from `_purekernels`.

Each kernel has one pure-Python implementation.  Callers reach it through
this module, which is also where perfbench resolves and wraps the kernels;
`BACKEND` names the implementation in reports.
"""

from ._purekernels import e0_screen, sweep3_stats, theta_abcd, wp_prime_sum, wp_sum  # noqa: F401

BACKEND = "pure"
