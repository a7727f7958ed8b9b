"""Scenario benchmark for mdflow.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run of the program is a fresh single-threaded child process that
hands generated config text to ``mdflow.cli`` (see child.py).  With
``--trace 0`` the benchmark starts checked runs one after another until
the total is nearest to ``--seconds`` (and at least MIN_RUNS runs have
pooled MIN_STEPS time steps), then reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced and one traced run of the same config
and reports the per-layer metrics of the traced one, with the tracing
overhead.  Every run passes the correctness gate in checks.py or counts as
failed and is left out of the timings.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from checks import check_run  # noqa: E402
from spans import check_nesting, layer_metrics  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

MIN_STEPS = 100          # pooled steps per run: the p90 needs ten samples beyond it
MIN_RUNS = 3             # checked child runs, so that setup_s is a median of several
HARD_LIMIT_S = 140.0     # start no child that would end past this
TIME_LIMIT_S = 170.0     # kill a child still running then, to exit within 180 s
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
TINY = {"grid": (16, 32), "steps": 4}   # smoke-test size; the full size is the default


@dataclass
class ChildRun:
    """One checked run of the program in its own process."""

    index: int
    seconds: float                      # spawn to exit, as seen by this process
    setup_s: float | None = None
    result: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    out_dir: str = ""
    trace_path: str | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, index: int, run_dir: str, *, traced: bool,
              tiny: bool, deadline: float) -> ChildRun:
    child_dir = os.path.join(run_dir, f"child{index:02d}")
    out_dir = os.path.join(child_dir, "out")
    os.makedirs(child_dir)
    cfg_path = os.path.join(child_dir, "run.cfg")
    result_path = os.path.join(child_dir, "result.json")
    trace_path = os.path.join(child_dir, "spans.json") if traced else None
    with open(cfg_path, "w") as fh:
        fh.write(config_text(workload, seed, out_dir, **(TINY if tiny else {})))

    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), cfg_path, result_path,
             trace_path or "-"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return ChildRun(index, time.monotonic() - t_spawn,
                        problems=[f"killed at the {TIME_LIMIT_S:.0f} s time limit"])
    run = ChildRun(index, time.monotonic() - t_spawn, out_dir=out_dir,
                   trace_path=trace_path)
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        run.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    if not os.path.isfile(result_path):
        run.problems.append("no result written")
        return run
    with open(result_path) as fh:
        run.result = json.load(fh)
    if not run.result["mdflow_file"].startswith(SRC + os.sep):
        run.problems.append(f"imported mdflow from {run.result['mdflow_file']}")
    if run.result["first_step_monotonic"] is not None:
        run.setup_s = run.result["first_step_monotonic"] - t_spawn
    w = WORKLOADS[workload]
    expected = w.members * (TINY["steps"] if tiny else w.steps)
    if run.result["steps"] != expected:
        run.problems.append(f"{run.result['steps']} solver.step calls, expected {expected}")
    if not run.problems:
        run.problems += check_run(workload, seed, out_dir, full_size=not tiny)
    if traced and not run.problems:
        with open(trace_path) as fh:
            spans = json.load(fh)["spans"]
        run.problems += check_nesting(spans)[:5]
    return run


def end_to_end(runs) -> dict:
    """End-to-end metrics over the good runs: {name: (value, unit, samples)}."""
    good = [r for r in runs if r.ok]
    attempted = len(runs)
    m = {"fail_ratio": ((attempted - len(good)) / attempted, "1", attempted)}
    if not good:
        return m
    n = len(good)
    walls = [r.result["wall_s"] for r in good]
    step_ms = [1e3 * s for r in good for s in r.result["step_s"]]
    setups = [r.setup_s for r in good if r.setup_s is not None]
    m["wall_s"] = (statistics.median(walls), "s", n)
    m["steps_per_s"] = (statistics.median(len(r.result["step_s"]) / r.result["wall_s"]
                                          for r in good), "1/s", n)
    m["cpu_s"] = (statistics.median(r.result["cpu_s"] for r in good), "s", n)
    m["step_ms_p50"] = (statistics.median(step_ms), "ms", len(step_ms))
    m["step_ms_p90"] = (statistics.quantiles(step_ms, n=10, method="inclusive")[8], "ms",
                        len(step_ms))
    m["setup_s"] = (statistics.median(setups), "s", len(setups))
    m["peak_rss_mb"] = (statistics.median(r.result["peak_rss_mb"] for r in good), "MB", n)
    return m


def measure(workload, seed, seconds, run_dir, *, tiny, deadline):
    """Untraced checked runs until the run ends nearest to `seconds`."""
    runs = []
    t_begin = time.monotonic()
    while True:
        run = run_child(workload, seed, len(runs), run_dir, traced=False, tiny=tiny,
                        deadline=deadline)
        runs.append(run)
        elapsed = time.monotonic() - t_begin
        good = [r for r in runs if r.ok]
        pooled = sum(len(r.result["step_s"]) for r in good)
        if elapsed + run.seconds > HARD_LIMIT_S:
            break
        # another run of the same length would end further from `seconds`
        enough = tiny or (pooled >= MIN_STEPS and len(good) >= MIN_RUNS)
        if elapsed + run.seconds / 2 > seconds and (enough or not run.ok):
            break
    return runs


def per_layer(plain: ChildRun, traced: ChildRun) -> dict:
    """Per-layer metrics of the traced run: {name: (value, unit, samples)}."""
    with open(traced.trace_path) as fh:
        dump = json.load(fh)
    metrics = layer_metrics(dump["spans"], dump["counters"], dump["wall_s"])
    out_bytes = sum(os.path.getsize(os.path.join(d, f))
                    for d, _, files in os.walk(traced.out_dir) for f in files)
    metrics["cli.output_bytes"] = (out_bytes, "bytes", 1)
    metrics["trace.spans"] = (len(dump["spans"]), "count", 1)
    metrics["trace.wall_s"] = (dump["wall_s"], "s", 1)
    if plain.ok:
        metrics["untraced.wall_s"] = (plain.result["wall_s"], "s", 1)
        metrics["trace.overhead"] = (dump["wall_s"] / plain.result["wall_s"] - 1.0, "1", 1)
    return metrics


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def environment(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "cpu": cpu_model(), "nproc": os.cpu_count(),
        "thread_caps": THREAD_CAPS, "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "grid": [128, 256],
        "steps_per_member": WORKLOADS[args.workload].steps,
    }


def benchmark(workload, seed, seconds, trace, *, tiny=False, report=print):
    """Run one benchmark invocation; returns (summary, metrics, problems)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = os.path.join(OUT_ROOT, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    compileall.compile_dir(os.path.join(SRC, "mdflow"), quiet=1)

    if trace:
        runs = [run_child(workload, seed, i, run_dir, traced=traced, tiny=tiny,
                          deadline=deadline) for i, traced in enumerate((False, True))]
        plain, traced = runs
        metrics = per_layer(plain, traced) if traced.ok else {}
    else:
        runs = measure(workload, seed, seconds, run_dir, tiny=tiny, deadline=deadline)
        metrics = end_to_end(runs)
    for r in runs:
        status = "ok" if r.ok else "FAILED: " + "; ".join(r.problems)
        wall = r.result.get("wall_s")
        report(f"run {r.index}: {'traced' if r.trace_path else 'untraced'}, "
               f"wall_s {wall if wall is None else round(wall, 4)}, {status}")
    failed = sum(not r.ok for r in runs)
    return {"attempted": len(runs), "failed": failed}, metrics, \
        [p for r in runs for p in r.problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # exit through SystemExit so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "mdflow", "cli.py")):
        print(f"no mdflow sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print("environment " + json.dumps(environment(args)))
    summary, metrics, problems = benchmark(args.workload, args.seed, args.seconds,
                                           args.trace)
    if args.trace and "trace.wall_s" in metrics:
        untraced = metrics.get("untraced.wall_s", (float("nan"),))[0]
        print(f"tracing overhead: untraced wall_s {untraced:.4f} s, traced wall_s "
              f"{metrics['trace.wall_s'][0]:.4f} s, overhead "
              f"{100 * metrics.get('trace.overhead', (float('nan'),))[0]:.1f}%")
    for name, (value, unit, samples) in sorted(metrics.items()):
        print(f"metric {args.workload} {name} = {value:.6g} {unit} (n={samples})")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"no value for {', '.join(missing)}: {'; '.join(problems[:3])}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
