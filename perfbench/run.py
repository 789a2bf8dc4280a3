"""Host-time benchmark of the SWAT reproduction's serving stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload diurnal-replay --seed 0 --seconds 30 --trace 0

Splits ``--seconds`` between a few fresh worker processes
(``perfbench/worker.py``) run one after another; each sets the workload up
once and serves it, cold each time, until its share of the time is used.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``,
measured with no wrappers installed.  ``--trace 1`` alternates traced and
untraced processes and reports the per-layer metrics: the medians of the
traced serves' layer split, the modelled ``sim.*`` figures (which must be
identical in every serve of the run, traced or not) and ``trace.overhead``,
the median traced serve time over the median untraced one.

Metric names and units are read from ``BENCHMARK.json``; what each metric
means is written down in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Worker processes per run, by ``--trace``: several set-ups per run, and
#: traced and untraced processes alternate when tracing.
PROCESSES = {0: 3, 1: 4}
#: Hard cap on one worker process.
WORKER_TIMEOUT_S = 75.0
#: Longest measuring time a run accepts, whatever ``--seconds`` says.
RUN_BUDGET_S = 60.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One fresh process serving ``workload`` until ``deadline``; returns its report."""
    env = dict(os.environ)
    # One shard, one worker thread: keep BLAS to one thread as well.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
    ]
    if traced:
        command.append("--traced")
    command += ["--until", repr(deadline), "--spawned-at", repr(time.monotonic())]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker exited with {completed.returncode}:\n{completed.stderr.strip()}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def reference_seconds(serve: dict) -> float:
    """The serve's host seconds scaled to the reference host speed."""
    return serve["serve_s"] * serve["speed"]


def end_to_end(reports: "list[dict]") -> "dict[str, float]":
    serves = [serve for report in reports for serve in report["serves"]]
    attempted = sum(serve["requests"] for serve in serves)
    failed = sum(serve["failed"] for serve in serves)
    return {
        "setup_s": statistics.median(
            report["setup_s"] * report["setup_speed"] for report in reports
        ),
        "requests_per_s": statistics.median(
            serve["requests"] / reference_seconds(serve) for serve in serves
        ),
        "sim_iterations_per_s": statistics.median(
            serve["priced_steps"] / reference_seconds(serve) for serve in serves
        ),
        "replay_events_per_s": statistics.median(
            serve["replay_events"] / (seconds * serve["replay_speed"])
            for serve in serves
            for seconds in serve.get("replay_passes", ())
        ),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in reports),
        "ok_share": 1.0 - failed / attempted,
    }


def per_layer(reports: "list[dict]") -> "dict[str, float]":
    traced = [serve for report in reports if report["traced"] for serve in report["serves"]]
    untraced = [serve for report in reports if not report["traced"] for serve in report["serves"]]
    metrics = {
        name: statistics.median(serve["layers"][name] for serve in traced)
        for name in traced[0]["layers"]
    }
    metrics["telemetry.replay_s"] = statistics.median(
        seconds for serve in traced for seconds in serve.get("replay_passes", ())
    )
    metrics["trace.overhead"] = statistics.median(
        reference_seconds(serve) for serve in traced
    ) / statistics.median(reference_seconds(serve) for serve in untraced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn SIGTERM into an exception, so the running worker is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        return fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    processes = PROCESSES[args.trace]
    share = min(args.seconds, RUN_BUDGET_S) / processes
    reports = []
    try:
        for index in range(processes):
            traced = bool(args.trace) and index % 2 == 0
            deadline = start + share * (index + 1)
            reports.append(run_worker(args.workload, args.seed, traced, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        return fail(f"{args.workload} seed {args.seed}: {error}")

    problems = [problem for report in reports for problem in report["problems"]]
    serves = [serve for report in reports for serve in report["serves"]]
    if any(serve["sim"] != serves[0]["sim"] for serve in serves):
        problems.append("modelled sim.* figures differ between serves of one run")
    if problems:
        # A whole-run check failure counts every request of the run as failed.
        for serve in serves:
            serve["failed"] = serve["requests"]
    values = per_layer(reports) if args.trace else end_to_end(reports)
    missing = [metric["name"] for metric in listed if metric["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = sum(serve["failed"] for serve in serves)
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": sum(serve["requests"] for serve in serves),
                "failed": failed,
                "metrics": {
                    metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in listed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
