#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` is the separate traced run that
prints the per-layer metrics.  Every guest-observable result is checked
(against ``perfbench/reference.json`` or the in-process pipeline); on any
difference the run exits 1 without printing metrics.  The last line of
standard output is the JSON result; the line before it says, for people,
which loop the workload is and what it measured.

A run times whole passes of the workload's seeded deck until
``--seconds`` have elapsed; deck generation is not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_suite", "synth_fuzz", "serve_mixed")
SETUP_SAMPLES = 5
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

_IMPORT_PROBE = (
    "import importlib, sys\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print('ready', flush=True)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Phase:
    """Whole passes and what they measured.

    The rate is the median of the per-pass rates: the host's speed drifts
    by tens of percent over seconds, and a median over passes keeps one
    slow stretch from moving the figure.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.latencies = []
        self.failed = 0
        self.passes = []
        self.pass_rates = []

    def run(self, workload, pass_index: int, recorder=None) -> None:
        deck = workload.deck(pass_index)  # input generation is not timed
        outcomes, busy = workload.run_pass(deck, recorder)
        self.elapsed += busy
        self.pass_rates.append(len(outcomes) / busy)
        self.latencies.extend(latency for latency, _ in outcomes)
        self.failed += sum(not ok for _, ok in outcomes)
        self.passes.append(pass_index)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def rate(self) -> float:
        return statistics.median(self.pass_rates)


def import_seconds(modules) -> float:
    """Launch a fresh interpreter; seconds until it has imported ``modules``."""
    from perfbench import procstat

    started = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, "-c", _IMPORT_PROBE, *modules], cwd=ROOT,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    try:
        line = procstat.read_line(probe.stdout, 60)
        elapsed = time.perf_counter() - started
    finally:
        probe.stdout.close()
        try:
            probe.wait(timeout=60)
        except subprocess.TimeoutExpired:
            probe.kill()
            probe.wait()
    if line.strip() != b"ready" or probe.returncode != 0:
        raise RuntimeError(f"import probe failed for {modules}")
    return elapsed


def setup_seconds(workload) -> list:
    """Launch-to-first-op samples: the import, plus the server if any."""
    return [import_seconds(workload.imports) + workload.start_server()
            for _ in range(SETUP_SAMPLES)]


def untraced_run(workload, seconds: float) -> tuple:
    from perfbench import procstat

    samples = setup_seconds(workload)
    workload.prepare()
    workload.warmup()
    phase = Phase()
    while phase.elapsed < seconds:
        phase.run(workload, len(phase.passes))
    peak_rss_mb = procstat.peak_rss_mb(workload.live_pids())
    workload.finish()
    workload.check(phase.passes)
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": phase.rate,
        "peak_rss_mb": peak_rss_mb,
    }
    line = (f"{phase.ops} ops in {phase.elapsed:.2f}s over "
            f"{len(phase.passes)} passes; error_rate "
            f"{phase.failed / phase.ops:.4f}; setup_s median of "
            f"{len(samples)} samples")
    if workload.name == "serve_mixed":
        line += "; " + _latency_text(phase.latencies)
    return metrics, phase.ops, phase.failed, line


def _latency_text(latencies) -> str:
    from perfbench.serve_mixed import tail_percentile

    ms = [latency * 1000.0 for latency in latencies]
    p95 = tail_percentile(ms, 95)
    return (f"latency_p50_ms {statistics.median(ms):.3f}, latency_p95_ms "
            + (f"{p95:.3f}" if p95 is not None else "refused (<10 samples beyond)")
            + f", n={len(ms)}")


def traced_run(workload, seconds: float) -> tuple:
    """Untraced and traced passes alternate in one process: the per-layer
    metrics come from the traced ones, and the tracing overhead compares
    neighbouring passes, so the host's drift does not enter it."""
    from perfbench.layers import (
        SPAN_LAYERS, LayerProbe, RegistryDelta, registry_metrics, self_checks,
        serve_metrics, span_metrics)
    from perfbench.spans import SpanRecorder
    from repro.obs.metrics import get_registry

    serve = workload.name == "serve_mixed"
    workload.prepare()
    workload.warmup()
    recorder = SpanRecorder()
    probe = LayerProbe(recorder)
    local, served = RegistryDelta(), RegistryDelta()
    plain, traced = Phase(), Phase()
    bytes_in = 0
    pass_index = 0
    while plain.elapsed + traced.elapsed < seconds or not traced.passes:
        if pass_index % 2 == 0:
            plain.run(workload, pass_index)
        else:
            before = get_registry().snapshot()
            served_before = workload.server_snapshot() if serve else {}
            bytes_before = getattr(workload, "bytes_in", 0)
            probe.install()
            try:
                traced.run(workload, pass_index, recorder)
            finally:
                probe.uninstall()
            local.add(before, get_registry().snapshot())
            if serve:
                served.add(served_before, workload.server_snapshot())
            bytes_in += getattr(workload, "bytes_in", 0) - bytes_before
        pass_index += 1

    metrics = span_metrics(probe, traced.elapsed)
    metrics.update(registry_metrics(served if serve else local))
    metrics.update(serve_metrics(served, bytes_in))
    problems = self_checks(metrics, probe, local)
    if serve:
        cold = workload.cold_counts(traced.passes)
        for label, count, series in (
            ("hardening", cold["hardens"], "pipeline_hardens_total"),
            ("traced", cold["traced"], "vm_traced_machines_total"),
        ):
            merged = served("counters", series)
            if count != merged:
                problems.append(f"{count} cold {label} answers but "
                                f"{series} moved by {merged}")
    metrics["trace.ops_per_s"] = traced.rate
    metrics["trace.overhead"] = plain.rate / traced.rate - 1.0
    workload.finish()
    workload.check(sorted(plain.passes + traced.passes))
    workload.problems.extend(problems)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{workload.seed}")
    recorder.write(stem + "-spans.json")
    wall = traced.elapsed
    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "loop": workload.loop,
        "traced_ops": traced.ops,
        "untraced_ops_per_s": plain.rate,
        "metrics": metrics,
        "wall_share": {
            **{layer: metrics[f"{layer}.s"] / wall
               for layer in SPAN_LAYERS + ("synth.facts",)},
            "uncovered": metrics["trace.uncovered.s"] / wall,
        },
        "facts": {
            "minic_calls_per_op": metrics["minic.calls"] / traced.ops,
            "vm_init_calls": metrics["vm.init.calls"],
            "vm_run_calls": metrics["vm.run.calls"],
            **workload.facts(),
        },
        "self_check_problems": problems,
    }
    with open(stem + "-report.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    line = (f"traced {traced.ops} ops in {wall:.2f}s; tracing overhead "
            f"{metrics['trace.overhead']:+.3f}; {len(recorder.spans)} spans, "
            f"{metrics['trace.uncovered.s'] / wall:.1%} of wall in no span; "
            f"report {os.path.relpath(stem, ROOT)}-report.json")
    ops = plain.ops + traced.ops
    return metrics, ops, plain.failed + traced.failed, line


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isdir(os.path.join(ROOT, "src", "repro"))
            and os.path.isfile(spec_path)):
        print("perfbench: run from a full checkout (src/repro and "
              "BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import BenchmarkFailure, load_workload

    with open(spec_path) as handle:
        spec = json.load(handle)
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as handle:
        reference = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = load_workload(args.workload, args.seed, reference, ROOT)
    try:
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failed, line = run(workload, args.seconds)
        if workload.problems:
            raise BenchmarkFailure(
                f"{len(workload.problems)} check(s) failed:\n  "
                + "\n  ".join(workload.problems[:20]))
    except BenchmarkFailure as failure:
        print(f"perfbench: {args.workload}: {failure}", file=sys.stderr)
        return 1
    finally:
        workload.close()
    if set(metrics) != {entry["name"] for entry in declared}:
        print(f"perfbench: metrics {sorted(set(metrics))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"{args.workload} [{workload.loop}]: {line}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
