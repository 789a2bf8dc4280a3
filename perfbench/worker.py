"""One benchmark process: set a workload up, serve it until told to stop.

Run by ``perfbench/run.py``; prints one JSON object as its last line.  The
process serves the workload, cold each time, while another serve is
expected to end before ``--until``, checking every serve's outputs after
its timed call.  Setup time is measured from the instant the parent spawned this
process (``--spawned-at``, a ``time.monotonic`` reading, which is one
system-wide clock on Linux) to the first serve call, so it covers
interpreter start, imports, input generation and object construction.

With ``--traced`` the public call boundaries of every layer are wrapped
(:mod:`tracing`) for each timed serve only, the first serve's spans are
written to ``.perfbench/spans-<workload>.jsonl`` and each serve's per-layer
split is reported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Host seconds one calibration pass takes at the reference host speed.  Each
#: measured time is reported with a ``speed``: this over the calibration
#: passes timed around it.  Times multiplied by their speed read as seconds
#: at one fixed host speed, whatever speed a shared CPU runs at meanwhile.
CALIBRATION_REFERENCE_S = 0.01
#: Benchmark-owned scratch space inside the checkout (event logs, spans).
SCRATCH = ROOT / ".perfbench"
#: Cap on serves per process.
MAX_SERVES = 50


def calibration_seconds() -> float:
    """Median host seconds of three passes of a fixed Python and numpy loop.

    The loop mixes what the workloads spend host time on: dictionary and
    integer work in the interpreter, small numpy array passes and a small
    BLAS product.  Timed right before and after a serve, it measures how fast
    the host runs at that moment.
    """
    import numpy as np

    passes = []
    for _ in range(3):
        start = time.perf_counter()
        table: "dict[int, int]" = {}
        for index in range(40_000):
            key = index % 997
            table[key] = table.get(key, 0) + index
        values = np.arange(2048.0)
        matrix = np.full((48, 48), 1.0 / 48)
        for _ in range(100):
            values = np.cumsum(values) * 1e-3
            matrix = matrix @ matrix
        passes.append(time.perf_counter() - start)
    return statistics.median(passes)


def install_class_wrappers(tracer, workloads_module) -> None:
    """Wrap the layer entry points the benchmark does not construct itself."""
    import repro.serving.backends as backends
    from repro.core.plan import PlanBatch
    from repro.model.executor import ModelExecutor
    from repro.model.plan import ModelPlanCompiler
    from repro.serving.batcher import DynamicBatcher
    from repro.serving.continuous import ContinuousBatcher

    tracer.patch(workloads_module, "serve_continuous", "continuous.serve")
    tracer.patch(ContinuousBatcher, "admit", "continuous.admit")
    tracer.patch(ContinuousBatcher, "retire_finished", "continuous.retire")
    tracer.patch(DynamicBatcher, "add", "batcher.add")
    tracer.patch(PlanBatch, "execute", "core.plan_execute")
    tracer.patch(ModelPlanCompiler, "compile", "model.model_plan")
    tracer.patch(ModelExecutor, "forward_batch", "model.forward_batch")
    # The backends call the decode-plan compiler through their module
    # namespace; that name is the boundary between serving and model.
    tracer.patch(backends, "compile_decode_plan", "model.decode_plan")


def layer_metrics(tracer, sim, log_events, log_bytes) -> "dict[str, float]":
    """The per-layer split of the timed serve, from its spans."""
    from repro.serving.stats import percentile
    from tracing import tail_percentile

    tree = tracer.children()
    spans = tracer.by_name()

    def calls(name):
        return len(spans[name])

    def total(name):
        return sum(span.seconds for span in spans[name])

    def self_total(name):
        return sum(tracer.self_seconds(span, tree) for span in spans[name])

    def median_and_tail(name, scale):
        values = [span.seconds * scale for span in spans[name]]
        return percentile(values, 50.0), percentile(values, tail_percentile(len(values)))

    bursts = calls("backends.step_burst")
    step_p50, step_tail = median_and_tail("backends.step_burst", 1e6)
    execute_p50, execute_tail = median_and_tail("backends.execute_batch", 1e3)
    lookups = calls("cache.lookup.hit") + calls("cache.lookup.miss")
    return {
        "continuous.serve_s": total("continuous.serve"),
        "continuous.self_s": self_total("continuous.serve"),
        "continuous.admit_calls": calls("continuous.admit"),
        "continuous.admit_s": total("continuous.admit"),
        "continuous.retire_calls": calls("continuous.retire"),
        "continuous.retire_s": total("continuous.retire"),
        "continuous.iterations_per_burst": sim["sim.iterations"] / bursts if bursts else 0.0,
        "backends.step_burst_calls": bursts,
        "backends.step_burst_s": total("backends.step_burst"),
        "backends.step_burst_p50_us": step_p50,
        "backends.step_burst_tail_us": step_tail,
        "backends.execute_batch_calls": calls("backends.execute_batch"),
        "backends.execute_batch_s": total("backends.execute_batch"),
        "backends.execute_batch_p50_ms": execute_p50,
        "backends.execute_batch_tail_ms": execute_tail,
        "backends.compute_outputs_s": total("backends.compute_outputs"),
        "core.plan_execute_calls": calls("core.plan_execute"),
        "core.plan_execute_s": total("core.plan_execute"),
        "model.model_plan_s": total("model.model_plan"),
        "model.decode_plan_s": total("model.decode_plan"),
        "model.forward_batch_calls": calls("model.forward_batch"),
        "model.forward_batch_s": total("model.forward_batch"),
        "cache.lookups": lookups,
        "cache.hit_rate": calls("cache.lookup.hit") / lookups if lookups else 0.0,
        "cache.lookup_s": total("cache.lookup.miss"),
        "engine.serve_s": total("engine.serve"),
        "engine.self_s": self_total("engine.serve"),
        "batcher.add_s": total("batcher.add"),
        "telemetry.events": log_events,
        "telemetry.sink_s": total("telemetry.sink"),
        "telemetry.log_bytes": log_bytes,
        **sim,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    SCRATCH.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, SCRATCH)
    workload.make_inputs()
    serves = []
    setup_s = setup_speed = peak_rss_mb = 0.0
    started = time.monotonic()
    # Serve again while another serve is expected to end before --until,
    # judged by the mean length of the serves so far.
    while not serves or (
        len(serves) < MAX_SERVES
        and time.monotonic() + (time.monotonic() - started) / len(serves) <= args.until
    ):
        first = not serves
        tracer = Tracer() if args.traced else None
        try:
            workload.build(tracer)
            if tracer is not None:
                install_class_wrappers(tracer, workloads)
            if first:
                setup_s = time.monotonic() - args.spawned_at
            before = calibration_seconds()
            start = time.perf_counter()
            result = workload.serve()
            serve_s = time.perf_counter() - start
            if first:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.restore()
            after = calibration_seconds()
            log_events, log_bytes = workload.log_stats()
            replayed = workload.replay(result, first)
            failed = workload.check(result, first)
        finally:
            workload.release()
        if first:
            setup_speed = CALIBRATION_REFERENCE_S / before
        sim = workload.sim(result)
        serve = {
            "serve_s": serve_s,
            "speed": CALIBRATION_REFERENCE_S / ((before + after) / 2),
            "requests": len(workload.requests),
            "priced_steps": result.stats.num_batches,
            "failed": failed,
            "sim": sim,
        }
        if replayed is not None:
            serve["replay_events"], serve["replay_passes"] = replayed
            closing = calibration_seconds()
            serve["replay_speed"] = CALIBRATION_REFERENCE_S / ((after + closing) / 2)
        if tracer is not None:
            workload.problems.extend(tracer.nesting_violations(tracer.children()))
            serve["layers"] = layer_metrics(tracer, sim, log_events, log_bytes)
            if first:
                tracer.write(SCRATCH / f"spans-{args.workload}.jsonl")
        serves.append(serve)
    problems = list(workload.problems)
    problems.extend(
        f"{name} is 0: the workload must produce it"
        for name in workload.required_nonzero()
        if not serves[0]["sim"][name]
    )
    if problems:
        # A whole-run check failure counts every request of the run as failed.
        for serve in serves:
            serve["failed"] = serve["requests"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "serves": serves,
        "problems": problems + workload.failures,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
