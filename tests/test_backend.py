"""The theta kernel against the product form of the spelled-out word, the
kernels that `_backend` re-exports, and who may import `_backend`."""

import ast
import random
import sys
from pathlib import Path

import pytest

from braidoka import _backend, _purekernels, _theta
from braidoka.braid import BraidWord

from braid_helpers import theta_letters


def _runs(letters):
    return BraidWord(3, letters).runs


def test_theta_parity_with_products():
    rng = random.Random(0)
    for _ in range(2000):
        w = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 60)))
        assert _theta.theta_abcd(_runs(w)) == theta_letters(w)


def test_theta_parity_with_products_on_long_runs():
    # runs of up to 400 letters, which the kernel takes in one multiply-add
    rng = random.Random(2)
    for _ in range(300):
        w = ()
        for _ in range(rng.randint(0, 6)):
            w += (rng.choice((1, -1, 2, -2)),) * rng.randint(1, 400)
        assert _theta.theta_abcd(_runs(w)) == theta_letters(w)


def test_theta_parity_beyond_int64():
    # mostly sigma_1 and sigma_2^-1, whose images are nonnegative, so the
    # entries grow exponentially and pass 2^63 on every word
    rng = random.Random(1)
    for _ in range(200):
        w = tuple(rng.choices((1, -2, -1, 2), weights=(9, 9, 1, 1), k=rng.randint(200, 400)))
        got = _theta.theta_abcd(_runs(w))
        assert max(map(abs, got)) > 2**63
        assert got == theta_letters(w)


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_theta_rejects_other_letters(letter):
    with pytest.raises(KeyError):
        _theta.theta_abcd(((1, 1), (letter, 1), (2, 1)))


def test_backend_long_word_falls_back_to_exact():
    # a run is one multiply-add on Python ints, whatever its length
    assert _backend.theta_abcd(((1, 100),)) == (1, 100, 0, 1)
    assert _backend.theta_abcd(((1, 10**100), (2, -3))) == (1 + 3 * 10**100, 10**100, 3, 1)


def test_sweep_totals():
    stats = _backend.sweep3_stats(8)
    assert stats["total"] == sum(4**k for k in range(9))
    assert stats["periodic"] + stats["reducible"] + stats["pseudo_anosov"] == stats["total"]


def test_a_moved_kernel_is_one_object_in_each_module():
    # `_purekernels` and `_backend` read the theta kernels back from
    # `_theta`, so the benchmark's tracer, which wraps the kernels it finds
    # in `_backend` and `_purekernels` wherever they are bound, wraps the
    # one function that `braid`, `sl2z`, `three` and `oka` call
    homes = {}
    for name, fn in vars(_backend).items():
        if callable(fn) and not name.startswith("_"):
            assert fn is getattr(_purekernels, name), name
            assert getattr(sys.modules[fn.__module__], name) is fn, name
            homes[name] = fn.__module__.removeprefix("braidoka.")
    assert homes == {"e0_screen": "_purekernels", "sweep3_stats": "_purekernels",
                     "theta_abcd": "_theta", "wp_prime_sum": "_purekernels",
                     "wp_sum": "_purekernels"}
    assert _purekernels.e0_screen_matrices is _theta.e0_screen_matrices


def test_only_the_package_init_imports_backend():
    # the modules call `_theta` and `_purekernels`; `_backend` is the
    # benchmark's re-export, and `__init__` names it in the surface table
    src = Path(__file__).resolve().parents[1] / "src" / "braidoka"
    paths = sorted(src.glob("*.py"))
    assert paths
    importers = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            if any("_backend" in name.split(".") for name in names):
                importers.add(path.name)
    assert importers <= {"__init__.py", "_backend.py"}
