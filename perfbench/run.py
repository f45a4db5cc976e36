"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload static-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that yields the per-layer metrics (and writes a Chrome
trace-event file under ``.perfbench/``).  The human-readable report goes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every unit's
output is checked against a known answer (``oracles.py``); any mismatch
makes ``correct`` false and the exit code 1.  Exit code 2: the checkout
holds no program to measure.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    BENCH_DIR,
    SetupError,
    Sink,
    median,
    noise_probe,
    out_dir,
    percentile,
    program_env,
    require_program,
    topology,
)
from workloads import WORKLOADS, module  # noqa: E402

#: Set-up samples per run; one sample of 0.3-1 s moves with the host by a
#: third, so the median of several is reported.
SETUP_CHILDREN = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_per_min": "1/min",
    "peak_rss_mb": "MB",
}


def sample_setup(workload: str, seed: int, sink: Sink) -> None:
    """Set-up samples: fresh children that import and run one warm-up unit."""
    directory = out_dir(workload)
    for number in range(SETUP_CHILDREN):
        report = directory / f"setup-{number}.json"
        report.unlink(missing_ok=True)
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "launch.py"), "setup", str(report),
             workload, str(seed)],
            env=program_env(PERFBENCH_SPAWN=repr(spawn)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        ok = proc.returncode == 0 and report.is_file()
        sink.check(ok, f"set-up child {number}: {proc.stderr.decode()[-300:]}")
        if ok:
            sink.setup.append(json.loads(report.read_text())["setup_s"])


def measure(name: str, seed: int, seconds: float, trace: bool, sink: Sink) -> None:
    workload = WORKLOADS[name]
    code = module(name)
    if workload.in_process:
        sample_setup(name, seed, sink)
        started = time.perf_counter()
        import repro  # noqa: F401

        import_s = time.perf_counter() - started
        code.warmup(seed)
        if trace:  # after the warm-up, so the sums cover the measured units only
            import tracer

            tracer.install()
            tracer.TRACER.add("import_s", import_s)
            tracer.TRACER.add("processes")
    window = time.perf_counter()
    index = 0
    while True:
        started = time.perf_counter()
        work_s = code.run_pass(seed, seconds, trace, sink, index)
        # a pass of fixed work is measured whole unless it says what it timed
        sink.work_s += work_s if work_s is not None else time.perf_counter() - started
        index += 1
        spent = time.perf_counter() - window
        if not workload.refill or spent + (time.perf_counter() - started) > seconds:
            break


def end_to_end(name: str, sink: Sink) -> dict:
    if WORKLOADS[name].in_process:
        sink.rss_mb = max(
            sink.rss_mb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    lat = sink.latencies
    # Printed with their sample count, not bounded: outside service-mix
    # each percentile is the time of one unit, and the geometric mean
    # follows the short units, which move with the host far more than the
    # whole run does (NOTES.md, "Latency").
    if lat:
        sink.note("latency_p50_ms", f"{1000.0 * median(lat):.4f} n={len(lat)}")
        sink.note("latency_p90_ms", f"{1000.0 * percentile(lat, 90):.4f} n={len(lat)}")
        sink.note("latency_geomean_ms",
                  f"{1000.0 * statistics.geometric_mean(lat):.4f} n={len(lat)}")
    return {
        "setup_s": median(sink.setup),
        "throughput_per_min": 60.0 * len(lat) / sink.work_s if sink.work_s else 0.0,
        "peak_rss_mb": sink.rss_mb,
    }


def untraced_throughput(name: str, seed: int, seconds: float) -> float:
    """The latest untraced throughput of this workload in this checkout.

    Taken from the record an untraced run leaves; when there is none, one
    untraced run is made first in a process of its own, so the traced
    run's process starts as cold as an untraced one.
    """
    record = out_dir("untraced") / f"{name}-{seconds:g}.json"
    if not record.is_file():
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=170,
            env=program_env(),
        )
    try:
        return json.loads(record.read_text())["throughput_per_min"]
    except (OSError, ValueError, KeyError):
        return 0.0


def per_layer(name: str, seed: int, seconds: float, sink: Sink, e2e: dict) -> dict:
    import tracer

    raws = list(sink.raws)
    events = list(sink.events)
    if WORKLOADS[name].in_process:
        raws.append(tracer.TRACER.raw())
        events.extend(tracer.TRACER.chrome_events(os.getpid()))
    metrics = dict.fromkeys(tracer.PER_LAYER_UNITS, 0.0)
    metrics.update(tracer.layer_metrics(tracer.merge(raws)))
    metrics.update(sink.layer)
    metrics["trace.uncovered_share"] = (
        sum(sink.uncovered) / len(sink.uncovered) if sink.uncovered else 0.0
    )
    metrics["trace.throughput_per_min"] = e2e["throughput_per_min"]
    untraced = untraced_throughput(name, seed, seconds)
    metrics["trace.overhead_per_min"] = untraced - e2e["throughput_per_min"]
    trace_file = out_dir("traces") / f"{name}-seed{seed}.json"
    trace_file.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    sink.note("trace file", str(trace_file))
    sink.note("untraced throughput_per_min", untraced)
    return {key: {"value": metrics[key], "unit": unit}
            for key, unit in tracer.PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    trace = args.trace == 1
    noise_before = noise_probe()
    sink = Sink()
    measure(args.workload, args.seed, args.seconds, trace, sink)
    e2e = end_to_end(args.workload, sink)
    if trace:
        metrics = per_layer(args.workload, args.seed, args.seconds, sink, e2e)
    else:
        metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END.items()}
        record = out_dir("untraced") / f"{args.workload}-{args.seconds:g}.json"
        record.write_text(json.dumps(e2e))
    noise_after = noise_probe()
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - STARTED,
        "samples": {"units": len(sink.latencies), "setup": len(sink.setup)},
        "units": [[label, seconds] for label, seconds in zip(sink.labels, sink.latencies)],
        "error_rate": sink.failed / sink.attempted if sink.attempted else 1.0,
        "failures": sink.failures,
        "noise_probe_s": {"start": noise_before, "end": noise_after},
        "topology": topology(),
        "notes": sink.notes,
        "metrics": metrics,
    }
    record = out_dir("runs") / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(run, indent=2))
    report(run)
    correct = sink.failed == 0 and sink.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(sink.attempted, 1),
        "failed": sink.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def report(run: dict) -> None:
    samples = run["samples"]
    print(f"perfbench {run['workload']} seed={run['seed']} trace={run['trace']}"
          f" wall={run['wall_s']:.1f}s")
    for key, metric in run["metrics"].items():
        count = samples["setup"] if key == "setup_s" else samples["units"]
        suffix = "" if run["trace"] else f" n={count}"
        print(f"  {key:34s} {metric['value']:14.4f} {metric['unit']:6s}{suffix}")
    print(f"  {'error_rate':34s} {run['error_rate']:14.4f} {'ratio':6s}"
          f" n={samples['units']}")
    noise = run["noise_probe_s"]
    print(f"  host noise probe: {noise['start']:.4f}s at start,"
          f" {noise['end']:.4f}s at end; topology {run['topology']}")
    for key, value in run["notes"].items():
        print(f"  {key}: {value}")
    for failure in run["failures"]:
        print(f"  FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
