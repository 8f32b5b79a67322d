"""Runs one workload in a fresh interpreter and prints its measurements as
one JSON line on stdout.

run.py starts it with the checkout's own src/ as the only PYTHONPATH entry:
    python worker.py WORKLOAD SEED LIST_SECONDS TRACE WORKDIR
where LIST_SECONDS sizes the list (workloads.py).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import metrics
import oracle as O
import probe
from builders import fw_letters
import tracing
import workloads

CHILD_TIMEOUT_S = 60
LARGE_ENTRY = 2 ** 31  # theta entries that no longer fit a signed 32-bit integer


def cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "braidoka.cli", *argv], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def cli_in_process(argv):
    from braidoka import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Resolver:
    def __init__(self, cli_runner):
        self.cli_runner = cli_runner
        self.modules: dict[str, object] = {}

    def __call__(self, call):
        if callable(call):
            return call
        if call == "cli":
            return self.cli_runner
        mod, fn = call.split(":")
        module = self.modules.get(mod)
        if module is None:
            module = self.modules[mod] = importlib.import_module(f"braidoka.{mod}")
        return getattr(module, fn)  # looked up per call, so installed spans apply


def is_correct(op, result) -> bool:
    if isinstance(result, BaseException):
        return False
    try:
        return bool(op.check(result))
    except Exception:  # a check that cannot read the answer counts it as wrong
        return False


class Run:
    """Executes a workload's list once, one operation at a time, and keeps
    each operation's time at reference speed (probe.py) and on the wall."""

    def __init__(self):
        self.times: list[float] = []
        self.wall: list[float] = []
        self.solve_s = 0.0
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.deferred: list[tuple] = []
        self.ops_seen: list = []
        self.scales: list[float] = []

    def execute(self, wl, resolve, tracer=None, keep_inputs=False, speed=probe.loop_speed):
        """Runs the list; `speed` makes the probe.Speed that scales the times."""
        speed = speed()
        for c in range(wl.chunks):
            ops = wl.make(c)
            results = []
            window: list[float] = []
            busy = 0.0
            for op in ops:
                fn = resolve(op.call)
                if tracer is not None:
                    tracer.op_id = self.attempted + len(results)
                    tracer.active = True
                t0 = perf_counter()
                try:
                    r = fn(*op.args)
                except Exception as exc:
                    r = exc
                t1 = perf_counter()
                if tracer is not None:
                    tracer.active = False
                results.append(r)
                window.append(t1 - t0)
                busy += t1 - t0
                if busy >= probe.WINDOW_S:
                    self._close(window, busy, speed)
                    window, busy = [], 0.0
            if window:
                self._close(window, busy, speed)
            self.attempted += len(ops)
            if keep_inputs:
                self.ops_seen += [(op.key, op.words) for op in ops]
            if wl.defer_checks:
                self.deferred += zip(ops, results)
            else:
                self.check(zip(ops, results))

    def _close(self, window, busy, speed):
        scale = speed.close(busy)
        self.wall += window
        self.wall_s += busy
        self.times += [t * scale for t in window]
        self.solve_s += busy * scale
        self.scales.append(scale)

    def check(self, pairs):
        for op, r in pairs:
            if not is_correct(op, r):
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append({"op": op.label, "input": repr(op.key)[:300],
                                          "result": repr(r)[:300]})

    def finish(self):
        self.check(self.deferred)
        self.deferred = []


def input_properties(ops_seen) -> dict:
    keys = [k for k, _ in ops_seen]
    b3 = [w for _, words in ops_seen for n, w in words if n == 3]
    thetas = [O.theta(w) for w in b3]
    lengths = [len(w) if n else fw_letters(w)
               for _, words in ops_seen for n, w in words]
    return {
        "input.repeat_share": 1 - len(set(keys)) / len(keys),
        "input.distinct_theta_share": len(set(thetas)) / len(thetas) if thetas else 0.0,
        "input.large_entry_share": (sum(max(map(abs, m)) > LARGE_ENTRY for m in thetas)
                                    / len(thetas)) if thetas else 0.0,
        "input.letters_p50": statistics.median(lengths) if lengths else 0,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def measure(name, seed, seconds, workdir) -> dict:
    """One pass over the list: per-operation times and the peak RSS."""
    wl = workloads.build(name, seed, seconds, workdir)
    run = Run()
    run.execute(wl, Resolver(cli_subprocess),
                speed=probe.spawn_speed if name == "cli" else probe.loop_speed)
    rss = peak_rss_mb(children=name == "cli")
    run.finish()
    return {
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "solve_s": run.solve_s, "wall_s": run.wall_s, "peak_rss_mb": rss, "list_size": wl.size,
        "speed": statistics.median(run.scales), "times_ms": [t * 1e3 for t in run.times],
    }


def _spawn_ms(code: list[str], reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, *code], capture_output=True, timeout=CHILD_TIMEOUT_S,
                       check=True)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def cli_layer(wl) -> dict:
    """Front-end costs of a braidoka call: interpreter, import, parse, main."""
    from braidoka import cli

    interp = _spawn_ms(["-c", "pass"])
    imported = _spawn_ms(["-c", "import braidoka.cli"])
    argvs = [op.args[0] for c in range(wl.chunks) for op in wl.make(c)]
    parse, main, out = [], [], []
    for argv in argvs:
        t0 = perf_counter()
        cli.build_parser().parse_args(argv)
        parse.append((perf_counter() - t0) * 1e3)
        t0 = perf_counter()
        _, text = cli_in_process(argv)
        main.append((perf_counter() - t0) * 1e3)
        out.append(len(text.encode()))
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.main_ms": statistics.median(main),
        "cli.parse_ms": statistics.median(parse),
        "cli.out_bytes": statistics.median(out),
    }


CLI_LAYER = {"cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
             "cli.parse_ms": "ms", "cli.out_bytes": "bytes"}
INPUT_PROPERTIES = {"input.repeat_share": "share", "input.distinct_theta_share": "share",
                    "input.large_entry_share": "share", "input.letters_p50": "letters"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span in tracing.span_names():
        units.update({f"{span}.calls": "count", f"{span}.ms": "ms", f"{span}.self_ms": "ms"})
    units.update(dict.fromkeys(tracing.COUNTERS, "count"))
    units["three.scan.found_ratio"] = "ratio"
    units.update(CLI_LAYER)
    units.update(INPUT_PROPERTIES)
    units["trace.overhead_pct"] = "%"
    return units


def traced(name, seed, seconds, workdir, spans_path) -> dict:
    """Untraced, then traced, on the same list, after its first chunk has run
    once to load what the first calls load."""
    wl = workloads.build(name, seed, seconds, workdir)
    resolve = Resolver(cli_in_process if name == "cli" else cli_subprocess)
    Run().execute(workloads.Workload(0, 1, wl.make), resolve)
    base = Run()
    base.execute(wl, resolve)
    base.finish()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        run = Run()
        run.execute(wl, resolve, tracer, keep_inputs=True)
    finally:
        uninstall()
    run.finish()
    tracer.dump(spans_path)
    agg = tracer.aggregate()
    out: dict[str, float] = {}
    for span in tracing.span_names():
        a = agg.get(span, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        out[f"{span}.calls"] = a["calls"]
        out[f"{span}.ms"] = a["ms"]
        out[f"{span}.self_ms"] = a["self_ms"]
    for key in tracing.COUNTERS:
        out[key] = tracer.counts.get(key, 0)
    examined = out["three.scan.pairs_examined"]
    out["three.scan.found_ratio"] = out["three.scan.pairs_found"] / examined if examined else 0.0
    out.update(cli_layer(wl) if name == "cli" else dict.fromkeys(CLI_LAYER, 0.0))
    out.update(input_properties(run.ops_seen))
    out["trace.overhead_pct"] = metrics.overhead_pct(run.solve_s, base.solve_s)
    return {
        "attempted": base.attempted + run.attempted, "failed": base.failed + run.failed,
        "failures": base.failures + run.failures, "per_layer": out,
        "untraced_solve_s": base.solve_s, "traced_solve_s": run.solve_s,
        "spans": len(tracer.names),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv
    import braidoka
    import numpy

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if not os.path.realpath(braidoka.__file__).startswith(src + os.sep):
        print(f"braidoka imported from {braidoka.__file__}, not {src}", file=sys.stderr)
        return 3
    if trace == "1":
        spans_path = os.path.join(os.path.dirname(workdir), f"spans-{name}-seed{seed}.json.gz")
        result = traced(name, int(seed), float(seconds), workdir, spans_path)
        result["spans_file"] = spans_path
    else:
        result = measure(name, int(seed), float(seconds), workdir)
    result["backend"] = braidoka.BACKEND
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
