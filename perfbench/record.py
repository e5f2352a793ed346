#!/usr/bin/env python3
"""Re-record the benchmark's checked-in data.

    python3 perfbench/record.py reference   # perfbench/reference.json (~5 min)
    python3 perfbench/record.py traffic     # perfbench/traffic.json (~2 min)

``reference`` records the guest-observable results every run is checked
against: for each suite program and build, from the executor-table
interpreter (``fast_dispatch=False``), the independent engine the default
predecoded one must agree with; and for each victim of the synth pool, its
per-defense outcome.  ``traffic`` runs every workload once traced and keeps
the layer shares and traffic facts that later changes cite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.workloads import (  # noqa: E402
    SYNTH_POOL, run_victim, suite_record, victim_record)

TRAFFIC_SEED = 1
TRAFFIC_SECONDS = 30


def record_reference() -> dict:
    from repro.benchsuite.programs import WORKLOADS
    from repro.synth.campaign import fuzz_cases

    suite = {}
    for name in WORKLOADS:
        suite[name] = suite_record(name, fast_dispatch=False)
        print(f"paper_suite {name}", file=sys.stderr)
    victims = {}
    for case in fuzz_cases(SYNTH_POOL, 0):
        result = run_victim(case)
        if result.error is not None or result.soundness:
            raise SystemExit(f"{case.name}: {result.error or result.soundness}")
        victims[case.name] = victim_record(result)
    return {
        "paper_suite": suite,
        "synth_fuzz": {"pool": f"fuzz_cases({SYNTH_POOL}, 0)", "victims": victims},
    }


def record_traffic() -> dict:
    traffic = {"seed": TRAFFIC_SEED, "seconds": TRAFFIC_SECONDS, "workloads": {}}
    for name in ("paper_suite", "synth_fuzz", "serve_mixed"):
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", name, "--seed", str(TRAFFIC_SEED),
             "--seconds", str(TRAFFIC_SECONDS), "--trace", "1"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        path = os.path.join(ROOT, "perfbench", "out",
                            f"{name}-seed{TRAFFIC_SEED}-report.json")
        with open(path) as handle:
            report = json.load(handle)
        traffic["workloads"][name] = {
            key: report[key] for key in
            ("loop", "traced_ops", "untraced_ops_per_s", "wall_share", "facts")
        }
        traffic["workloads"][name]["tracing_overhead"] = (
            report["metrics"]["trace.overhead"])
    return traffic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("reference", "traffic"))
    args = parser.parse_args(argv)
    data = record_reference() if args.what == "reference" else record_traffic()
    path = os.path.join(ROOT, "perfbench", f"{args.what}.json")
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
