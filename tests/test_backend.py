"""The theta kernel against the product form, the kernels that `_backend`
re-exports, and who may import `_backend`."""

import ast
import random
from pathlib import Path

import pytest

from braidoka import _backend, _purekernels

# theta(sigma_1), theta(sigma_1^-1), theta(sigma_2), theta(sigma_2^-1)
GENERATORS = {1: (1, 1, 0, 1), -1: (1, -1, 0, 1), 2: (1, 0, -1, 1), -2: (1, 0, 1, 1)}


def theta_by_products(letters):
    a, b, c, d = 1, 0, 0, 1
    for let in letters:
        p, q, r, s = GENERATORS[let]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


def test_theta_parity_with_products():
    rng = random.Random(0)
    for _ in range(2000):
        w = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 60)))
        assert _purekernels.theta_abcd(w) == theta_by_products(w)


def test_theta_parity_beyond_int64():
    # mostly sigma_1 and sigma_2^-1, whose images are nonnegative, so the
    # entries grow exponentially and pass 2^63 on every word
    rng = random.Random(1)
    for _ in range(200):
        w = tuple(rng.choices((1, -2, -1, 2), weights=(9, 9, 1, 1), k=rng.randint(200, 400)))
        got = _purekernels.theta_abcd(w)
        assert max(map(abs, got)) > 2**63
        assert got == theta_by_products(w)


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_theta_rejects_other_letters(letter):
    with pytest.raises(KeyError):
        _purekernels.theta_abcd((1, letter, 2))


def test_backend_long_word_falls_back_to_exact():
    w = (1,) * 100
    got = _backend.theta_abcd(w)
    assert got == (1, 100, 0, 1)


def test_sweep_totals():
    stats = _backend.sweep3_stats(8)
    assert stats["total"] == sum(4**k for k in range(9))
    assert stats["periodic"] + stats["reducible"] + stats["pseudo_anosov"] == stats["total"]


def test_only_the_package_init_imports_backend():
    # the modules call `_purekernels`; `_backend` is the benchmark's
    # re-export, and `__init__` names it in the surface table
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
