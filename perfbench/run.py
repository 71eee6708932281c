"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-eval --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
instrumentation; ``--trace 1`` makes a short untraced pass and then a traced
one, and reports the per-layer metrics and the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness gate prints ``"correct": false`` and exits with code 1; a
checkout without the program exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("serve-eval", "serve-durable", "synth")
#: Share of a traced run's seconds given to its untraced comparison pass.
UNTRACED_SHARE = 0.35
#: Requests in one window of a serving workload's p50: about 2.5 s of the
#: latency phase, so a run has over a dozen windows and a stretch slowed by the
#: host moves only the few windows it covers, not the median over them.
P50_WINDOW = 100
#: Requests in one window of a serving workload's p99 (ten beyond it).
P99_WINDOW = 1000
END_TO_END = {
    "latency_p50_ms": "ms",
    "goodput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - fail here, before any measurement


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve_pass(workload: str, inputs: Any, seed: int, seconds: float, tracer) -> dict:
    import serve

    if workload == "serve-eval":
        return serve.run_eval(serve.SERVE_EVAL, inputs, seed, seconds, tracer)
    workdir = OUT / f"durable-{os.getpid()}-{seed}-{'traced' if tracer else 'plain'}"
    return serve.run_durable(serve.SERVE_DURABLE, inputs, seed, seconds, str(workdir), tracer)


def latency_windows(workload: str, passed: dict, size: int) -> list[list[float]]:
    """Latencies (ms) per window: a repeat of the chain, or a stretch of at
    least ``size`` requests in due order.  Each latency figure is taken per
    window and reported as the median over windows."""
    from stats import windows

    if workload == "synth":
        return [[value * 1000.0 for value in steps] for steps in passed["step_times"]]
    return windows(passed["latencies_ms"], size)


def end_to_end(workload: str, passed: dict) -> dict[str, float]:
    """The ``BENCHMARK.json`` end-to-end metrics of one pass (bar memory)."""
    from stats import median

    goodput_key = "steps_per_s" if workload == "synth" else "goodput_per_s"
    per_window = latency_windows(workload, passed, P50_WINDOW)
    return {
        "latency_p50_ms": median([median(window) for window in per_window]),
        "goodput_per_s": passed["metrics"][goodput_key],
        "setup_s": median(passed["setup"]),
    }


def report_only(workload: str, passed: dict) -> dict[str, tuple[float, str]]:
    """Named end-to-end numbers printed but not bounded by ``BENCHMARK.json``.

    The p99 (ten samples beyond it, per window) is printed for every
    workload; its run-to-run spread on a shared host is wider than any
    bound the regression check accepts.  The rest exist on one workload.
    """
    from stats import median, percentile

    try:
        numbers = {
            "latency_p99_ms": (
                median(
                    [percentile(w, 99) for w in latency_windows(workload, passed, P99_WINDOW)]
                ),
                "ms",
            )
        }
    except ValueError as exc:
        raise SystemExit(f"perfbench: {exc}; raise --seconds") from exc
    if workload == "synth":
        numbers["steps_per_s"] = (passed["metrics"]["steps_per_s"], "1/s")
        return numbers
    numbers["failed_ratio"] = (passed["metrics"]["failed_ratio"], "ratio")
    if workload == "serve-eval":
        numbers["goodput_rps"] = (passed["metrics"]["goodput_per_s"], "1/s")
    else:
        numbers["recovery_s"] = (passed["recovery"]["recovery_s"], "s")
    return numbers


def environment(workload: str, args: argparse.Namespace, passed: dict) -> dict:
    import numpy

    env: dict[str, Any] = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if workload == "synth":
        import synth

        env.update(synth.describe())
        env["backend"] = passed["backend"]
        env["repeats"] = passed["repeats"]
        env["accepted"] = passed["accepted"]
        env["log_score"] = passed["log_score"]
    else:
        import serve

        config = serve.SERVE_EVAL if workload == "serve-eval" else serve.SERVE_DURABLE
        env.update(config.describe())
        env["executor"] = passed["executor"]
        env["scheduler_workers"] = passed["workers"]
        env["phases"] = passed["phases"]
        env["cache"] = passed["cache"]
    return env


def attempted_failed(workload: str, passed: dict) -> tuple[int, int]:
    if workload == "synth":
        return passed["repeats"] * passed["steps"], 0
    arrivals = passed["arrivals"]
    return len(arrivals), sum(1 for a in arrivals if a.answer is None)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    load_program()
    OUT.mkdir(exist_ok=True)
    workload = args.workload

    if workload == "synth":
        import synth

        inputs = synth.build_inputs(args.seed)

        def one_pass(seconds: float, tracer) -> dict:
            return synth.run_synth(inputs, args.seed, seconds, tracer)
    else:
        import serve

        config = serve.SERVE_EVAL if workload == "serve-eval" else serve.SERVE_DURABLE
        inputs = serve.build_inputs(config, args.seed)

        def one_pass(seconds: float, tracer) -> dict:
            return serve_pass(workload, inputs, args.seed, seconds, tracer)

    if args.trace:
        from layers import (
            complete,
            durations_ms,
            metric_units,
            self_time_table,
            serve_layer_metrics,
            synth_layer_metrics,
        )
        from spans import Tracer

        untraced = one_pass(args.seconds * UNTRACED_SHARE, None)
        tracer = Tracer()
        passed = one_pass(args.seconds * (1 - UNTRACED_SHARE), tracer)
        layer = (synth_layer_metrics if workload == "synth" else serve_layer_metrics)(
            tracer, passed
        )
        if workload == "synth":
            steps = [value / 1000.0 for value in durations_ms(tracer, "inference.mcmc.step")]
            chain = passed["steps"]
            passed["step_times"] = [
                steps[start : start + chain] for start in range(0, len(steps), chain)
            ]
        plain = end_to_end(workload, untraced)
        traced = end_to_end(workload, passed)
        layer["tracing.latency_p50_ratio"] = traced["latency_p50_ms"] / plain["latency_p50_ms"]
        layer["tracing.goodput_ratio"] = traced["goodput_per_s"] / plain["goodput_per_s"]
        metrics = complete(layer)
        units = metric_units()
        table = self_time_table(tracer)
        tracer.write(
            str(OUT / f"spans-{workload}-seed{args.seed}.json"),
            {"self_time_ms": table},
        )
        failures = untraced["failures"] + passed["failures"]
    else:
        passed = one_pass(args.seconds, None)
        metrics = end_to_end(workload, passed)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics = {name: metrics[name] for name in END_TO_END}
        units = END_TO_END
        table = {}
        failures = passed["failures"]

    env = environment(workload, args, passed)
    extra = report_only(workload, passed) if not args.trace else {}
    attempted, failed = attempted_failed(workload, passed)
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"report {name} = {value!r} {unit}")
    for name, row in table.items():
        print(
            f"self-time {name}: calls={row['calls']} "
            f"p50={row['self_p50_ms']:.4f} ms total={row['self_total_ms']:.1f} ms"
        )
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    with open(OUT / f"report-{workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(
            {"env": env, "metrics": metrics, "report": extra, "self_time_ms": table,
             "failures": failures},
            handle,
            indent=2,
        )
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
