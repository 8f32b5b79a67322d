"""Tests of the benchmark's own arithmetic and checks.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import builders  # noqa: E402
import metrics  # noqa: E402
import oracle as O  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (39, 50), (40, 75), (45, 75), (100, 90), (200, 95),
    (1000, 99), (2719, 99.5), (10000, 99.9), (20000, 99.95), (100000, 99.99),
])
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected
    if expected is not None:
        assert n - metrics.rank(expected, n) >= 10
        higher = [p for p in metrics.LADDER if p > expected]
        assert all(n - metrics.rank(p, n) < 10 for p in higher)


def test_tail_reads_the_chosen_rank():
    ms = [float(x) for x in range(1, 46)]  # 45 samples -> p75 -> rank 34
    summary = metrics.latency_summary(ms, 45)
    assert summary["tail_percentile"] == 75
    assert summary["tail_ms"] == 34.0
    assert summary["p50_ms"] == 23.0


def test_self_time_subtracts_the_union_of_children():
    names = ["op", "a", "b", "a.inner"]
    start = [0.0, 1.0, 2.0, 1.5]
    end = [10.0, 3.0, 5.0, 2.5]
    parent = [-1, 0, 0, 1]
    agg = tracing.aggregate(names, start, end, parent)
    assert agg["op"]["ms"] == pytest.approx(10e3)
    assert agg["op"]["self_ms"] == pytest.approx(6e3)   # children cover [1, 5]
    assert agg["a"]["self_ms"] == pytest.approx(1e3)    # 2 s minus 1 s of a.inner
    assert agg["b"]["self_ms"] == pytest.approx(3e3)
    assert agg["a.inner"]["self_ms"] == pytest.approx(1e3)


def test_tracer_records_nesting_and_skips_repeated_inner_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("kernel.k", lambda x: x + 1)
    same = tracer.wrap("kernel.k", inner)        # dispatcher around the kernel
    outer = tracer.wrap("mod.f", lambda x: same(x) * 2)
    assert outer(1) == 4                         # inactive: nothing recorded
    assert tracer.names == []
    tracer.active, tracer.op_id = True, 7
    assert outer(1) == 4
    assert tracer.names == ["mod.f", "kernel.k"]
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.op) == [7, 7]
    agg = tracer.aggregate()
    assert agg["kernel.k"]["calls"] == 1
    assert agg["mod.f"]["self_ms"] <= agg["mod.f"]["ms"]


def test_overhead_figure():
    assert metrics.overhead_pct(1.25, 1.0) == pytest.approx(25.0)
    assert metrics.overhead_pct(0.9, 1.0) == pytest.approx(-10.0)


def test_speed_divides_out_the_readings_around_each_window():
    readings = iter([2.0, 4.0, 1.0])
    speed = probe.Speed(lambda busy_s: next(readings), nominal=1.0)
    assert speed.close(0.5) == pytest.approx(1 / 3)   # mean of 2 and 4
    assert speed.close(0.5) == pytest.approx(1 / 2.5)  # mean of 4 and 1


def test_run_reports_times_at_reference_speed(monkeypatch):
    monkeypatch.setattr(probe, "loop_reading", lambda busy_s: 2 * probe.LOOP_NOMINAL_S)
    wl = workloads.build("queries", 3, 0.02, "")
    run = worker.Run()
    run.execute(wl, worker.Resolver(None))
    assert len(run.times) == len(run.wall) == wl.size
    assert run.times == pytest.approx([t / 2 for t in run.wall])
    assert run.solve_s == pytest.approx(run.wall_s / 2)


def test_probe_sizes_its_loop_to_a_share_of_the_window():
    assert probe.reps_for(0.0) == 1
    assert probe.reps_for(1.0) == probe.MAX_REPS
    assert probe.reps_for(0.005) == round(probe.SHARE * 0.005 / probe.LOOP_NOMINAL_S)


def _tail_rank_from_top(n: int) -> int:
    return n - metrics.rank(metrics.tail_percentile(n), n) + 1


@pytest.mark.parametrize("seconds", [5, 10, 20, 30])
def test_garside_tail_falls_in_the_middle_of_the_long_b8_words(seconds):
    short = round(workloads.GARSIDE_ROUNDS_PER_S * seconds) * 30
    n16 = max(1, round(workloads.LONG16_PER_S * seconds))
    b8 = workloads.long8_count(short, n16)
    assert abs(_tail_rank_from_top(short + n16 + b8) - n16 - (b8 + 1) / 2) <= 1


@pytest.mark.parametrize("cycles", [7, 11, 20, 33])
def test_sweeps_tail_falls_among_the_scans(cycles):
    n = cycles * (2 + workloads.DISC_JOBS + workloads.PATH_JOBS)
    assert cycles < _tail_rank_from_top(n) <= 2 * cycles


def test_injected_wrong_answer_counts_as_failed(monkeypatch):
    from braidoka import three

    wl = workloads.build("queries", 3, 0.02, "")
    expected = worker.Run()
    expected.execute(wl, worker.Resolver(None))
    assert expected.failed == 0
    classify = sum(op.label == "classify3" for c in range(wl.chunks) for op in wl.make(c))

    real = three.classify3
    monkeypatch.setattr(three, "classify3",
                        lambda b: real(three.BraidWord(3, b.letters + (1, 2, 1))))
    broken = worker.Run()
    broken.execute(wl, worker.Resolver(None))
    assert classify > 0
    assert broken.failed == classify
    assert broken.failures[0]["op"] == "classify3"


def test_traced_calls_reach_every_namespace():
    from braidoka import oka, sl2z, three

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert three.theta is sl2z.theta is oka.theta
        tracer.active = True
        three.classify3(three.BraidWord(3, (1, -2)))
    finally:
        uninstall()
    assert tracer.names == ["three.classify3", "sl2z.theta", "kernel.theta_abcd"]
    assert tracer.counts["kernel.theta_abcd.letters"] == 2
    assert three.theta.__name__ == "theta" and not hasattr(three.theta, "__wrapped__")


@pytest.mark.parametrize("name", ["queries", "garside", "sweeps", "cli"])
def test_list_size_is_fixed_by_seed_and_seconds(name, tmp_path):
    wl = workloads.build(name, 5, 0.5, str(tmp_path))
    ops = [op for c in range(wl.chunks) for op in wl.make(c)]
    assert len(ops) == wl.size
    again = workloads.build(name, 5, 0.5, str(tmp_path))
    assert [op.key for c in range(again.chunks) for op in again.make(c)] == [op.key for op in ops]


def test_constructions_agree_with_the_b3_oracle():
    rng = random.Random(11)
    for _ in range(200):
        w = builders.random_word(rng, 3, rng.randint(1, 30))
        assert O.b3_equal(w, builders.rewrite(rng, w, 3, 8))
        assert not O.b3_equal(w, builders.perturb(rng, w, 3))
    for kind in builders.CLASSES:
        for _ in range(50):
            w1, w2 = builders.conj_pair(rng, kind, False)
            m1, m2 = O.theta(w1), O.theta(w2)
            if kind in ("parabolic", "hyperbolic"):  # the hard cases share both invariants
                assert O.trace(m1) == O.trace(m2) and O.exp_sum(w1) == O.exp_sum(w2)
            assert O.b3_kind(m1) == O.b3_kind(m2) == (
                "reducible" if kind == "parabolic" else
                "pseudoAnosov" if kind == "hyperbolic" else "periodic")


def test_garside_oracle_rejects_a_wrong_form():
    from braidoka import BraidWord, normal_form

    rng = random.Random(2)
    for n in (3, 4, 8):
        w = builders.random_word(rng, n, 20)
        nf = normal_form(BraidWord(n, w))
        factors = [f.images for f in nf.factors]
        assert O.garside_problems(n, w, nf.power, factors) == []
        assert O.garside_problems(n, w, nf.power + 1, factors)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["queries", "garside"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    res = worker.traced(name, 4, 0.05, str(tmp_path), str(tmp_path / "spans.json.gz"))
    assert res["failed"] == 0
    assert set(res["per_layer"]) == set(worker.per_layer_units())
    assert res["per_layer"]["braid.normal_form.calls" if name == "garside"
                            else "three.conj3.calls"] > 0
    assert (tmp_path / "spans.json.gz").stat().st_size > 0
