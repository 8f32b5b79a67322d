"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled theta kernels work in int64 and are only safe up to 60 letters
(entries of a k-letter product are bounded by 2^(k-1)); longer words are
routed to the arbitrary-precision pure kernel.  The Weierstrass row series
has one implementation, re-exported here.
"""

from __future__ import annotations

from . import _purekernels as _pure
from ._purekernels import wp_prime_sum, wp_sum  # noqa: F401

try:
    from . import _kernels as _compiled
except ImportError:
    _compiled = None

HAVE_COMPILED = _compiled is not None
BACKEND = "compiled" if HAVE_COMPILED else "pure"

_INT64_SAFE_LETTERS = 60


def theta_abcd(letters):
    if _compiled is not None and len(letters) <= _INT64_SAFE_LETTERS:
        return _compiled.theta_abcd(tuple(letters))
    return _pure.theta_abcd(letters)


def e0_screen(l1, l2) -> int:
    if _compiled is not None and len(l1) + len(l2) <= _INT64_SAFE_LETTERS // 4:
        return _compiled.e0_screen(tuple(l1), tuple(l2))
    return _pure.e0_screen(l1, l2)


def sweep3_stats(maxlen: int) -> dict:
    if _compiled is not None and maxlen <= _INT64_SAFE_LETTERS:
        return _compiled.sweep3_stats(maxlen)
    return _pure.sweep3_stats(maxlen)
