"""braidoka benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it measures the braidoka in that
checkout's src/ (never an installed copy), and exits 2 without a result
when there is none.  Workloads (see workloads.py for how each list is
built and checked):

  cli      one `python -m braidoka.cli` process per call over all 15
           subcommands with small inputs: interpreter start and import
           dominate, the algorithm layers do almost nothing.
  queries  in-process stream of B_3, SL(2,Z), E0/E' and free-word decision
           queries (0.02-0.1 ms each), with 1 in 200 conj3 pairs conjugated
           by sigma_1^k, 1e3 <= k <= 1e4.
  garside  B_n normal_form, braid_eq and linking_numbers: many short words
           (n = 3, 4, 8; 5-30 letters) and a few long ones (n = 16 at 100
           letters, and as many n = 8 at 120 as put the tail among them).
  sweeps   jobs in cycles: sweep3_stats(9), the commutator scan at maxlen 5,
           discriminant indices of power families (one forcing sample
           doubling) and branch loci along tau paths with ode_residual.

One client runs a closed loop, one operation at a time; no workload uses
more than one worker process at a time, and the run keeps itself and every
process it starts on one CPU.  A run makes one pass over a seeded list
sized by --seconds, in one fresh worker process.  Every time is reported
at reference speed (probe.py): the wall time scaled by how fast fixed
reference work ran just before and just after it, which divides out the
slowdowns other tenants of a shared machine cause.  The wall times are in
the report line.  With --trace 0 the last line carries the end-to-end
metrics:

  solve_s      time to finish the list: the sum of the per-operation times
  op_ms_p50    median time of one operation (cli: one process, spawn to exit;
               sweeps: one job)
  op_ms_tail   the highest percentile of metrics.LADDER with at least ten of
               the list's operations beyond it; the report line says which,
               and how many operations
  setup_s      median of SETUPS fresh interpreters, each importing braidoka
               and making one warm-up call (cli: `braidoka --version`)
  peak_rss_mb  peak resident memory of the worker (cli: the largest child)

A wrong answer, an exception or an unexpected exit code counts as a failed
operation; error_rate is in the report line and any failure makes the
command exit 1.  With --trace 1 the list, at half length, runs once
untraced and once with spans installed (tracing.py); the last line then
carries calls, busy ms and self ms per traced function, the layer
counters, cli front-end costs, input properties and trace.overhead_pct.
Functions a workload never reaches read 0.  Spans go to
.perfbench/spans-<workload>-seed<n>.json.gz.  Workers run with
PYTHONHASHSEED=0 so that set order inside braidoka repeats from run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import probe  # noqa: E402
import worker as W  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170
# With the machine's speed divided out (probe.py), one pass over a list as
# long as the run steadies the figures more than repeating a shorter list:
# what varies from seed to seed is then the inputs, and more of them average.
SETUPS = 7  # set-up timings per run, each between two bare interpreter starts
WARM_UP = {
    "queries": "import braidoka; braidoka.classify3(braidoka.BraidWord(3, (1, -2)))",
    "garside": "import braidoka; braidoka.normal_form(braidoka.BraidWord(4, (1, -2, 3)))",
    "sweeps": "import braidoka; braidoka.discriminant_index("
              "braidoka.LaurentFamily.power_family(2, 1))",
}
END_TO_END_UNITS = {"solve_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def setup_once(workload: str, env: dict, speed: probe.Speed) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until braidoka is imported
    and one warm-up call has returned: at reference speed, and on the wall."""
    code = ["-m", "braidoka.cli", "--version"] if workload == "cli" else ["-c", WARM_UP[workload]]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *code], env=env, capture_output=True, timeout=60, check=True)
    wall = time.perf_counter() - t0
    return wall * speed.close(wall), wall


class WorkerFailed(Exception):
    pass


def run_pass(args, list_seconds: float, env: dict, workdir: str, began: float) -> dict:
    """One worker process over the list sized by list_seconds."""
    code, out, err = spawn_worker(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
         repr(list_seconds), str(args.trace), workdir],
        env, DEADLINE_S - (time.perf_counter() - began))
    if code != 0:
        raise WorkerFailed(f"{err}worker exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def spawn_worker(cmd: list[str], env: dict, timeout: float) -> tuple[int, str, str]:
    """Run the worker in its own process group, so that on timeout the CLI
    processes it started are stopped with it."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, "", f"worker did not finish within {timeout:.0f} s\n"
    return proc.returncode, out, err


def _git(root: str, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              timeout=20, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: str, src: str, seed: int, nproc: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "braidoka")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if rev else None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    began = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    cpu = probe.pin_to_one_cpu()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "braidoka", "__init__.py")):
        print(f"no braidoka source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir)
    try:
        setups = []
        if not args.trace:
            speed = probe.spawn_speed(env)
            setups = [setup_once(args.workload, env, speed) for _ in range(SETUPS)]
        res = run_pass(args, args.seconds / 2 if args.trace else args.seconds, env, workdir,
                       began)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        **provenance(root, src, args.seed, nproc), "pinned_cpu": cpu,
        "backend": res["backend"], "numpy": res["numpy"],
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": res["failures"],
    }
    if args.trace:
        units = W.per_layer_units()
        values = res["per_layer"]
        report.update(spans=res["spans"], spans_file=os.path.relpath(res["spans_file"], root),
                      untraced_solve_s=res["untraced_solve_s"],
                      traced_solve_s=res["traced_solve_s"])
    else:
        units = END_TO_END_UNITS
        summary = metrics.latency_summary(res["times_ms"], res["list_size"])
        values = {"solve_s": res["solve_s"], "op_ms_p50": summary["p50_ms"],
                  "op_ms_tail": summary["tail_ms"],
                  "setup_s": statistics.median(s for s, _ in setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        report.update(tail_percentile=summary["tail_percentile"], samples=summary["samples"],
                      wall_solve_s=res["wall_s"], speed_p50=res["speed"],
                      setup_samples_s=[s for s, _ in setups],
                      setup_wall_s=[w for _, w in setups])
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
