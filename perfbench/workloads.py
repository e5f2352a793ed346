"""The serial workloads: ``paper_suite`` and ``synth_fuzz``.

A workload turns the benchmark's ``--seed`` into passes of inputs
(:meth:`deck`), runs one pass at a time (:meth:`run_pass`) and checks every
guest-observable result against ``perfbench/reference.json``.  Each pass has
the same make-up whatever the seed, so a run's op rate does not depend on
which inputs the seed drew.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Optional, Tuple

#: The fixed seed of the suite subset: the programs never change with
#: ``--seed``, which only orders them.
SUITE_SUBSET_SEED = 0
SUITE_SPEC_PROGRAMS = 4
SUITE_SCHEME = "aes-10"

#: synth_fuzz draws victims from ``fuzz_cases(SYNTH_POOL, 0)``; each pass
#: holds this many exploitable victims and unexploitable controls (the
#: pool's own one-in-ten ratio).
SYNTH_POOL = 300
SYNTH_PASS_EXPLOITABLE = 18
SYNTH_PASS_CONTROLS = 2


class BenchmarkFailure(Exception):
    """A result differs from its reference, or a self-check failed."""


def suite_programs() -> List[str]:
    """The fixed seeded subset: four SPEC-like programs plus both io apps."""
    from repro.benchsuite.programs import IO_WORKLOADS, SPEC_WORKLOADS

    spec = random.Random(SUITE_SUBSET_SEED).sample(
        sorted(SPEC_WORKLOADS), SUITE_SPEC_PROGRAMS)
    return sorted(spec) + sorted(IO_WORKLOADS)


def run_record(run) -> dict:
    """The guest-observable fields of one suite execution."""
    return {
        "steps": run.steps,
        "cycles": run.cycles,
        "max_rss": run.max_rss,
        "exit_code": run.exit_code,
        "int_outputs": list(run.int_outputs),
    }


def suite_record(name: str, fast_dispatch: bool = True) -> dict:
    """Baseline and hardened results of one suite program."""
    from repro.benchsuite.runner import measure_workload

    measurement = measure_workload(
        name, schemes=(SUITE_SCHEME,), fast_dispatch=fast_dispatch)
    return {
        "baseline": run_record(measurement.baseline),
        SUITE_SCHEME: run_record(measurement.hardened[SUITE_SCHEME]),
    }


def victim_record(result) -> dict:
    """Guest-observable outcome of one synth victim against every defense."""
    return {
        "planned": result.planned,
        "defenses": {
            outcome.defense: {
                "wins": int(outcome.successes > 0),
                "successes": outcome.successes,
                "attempts": outcome.attempts,
            }
            for outcome in result.defenses
        },
    }


def run_victim(case):
    """One synth op: the victim campaigned against every registered defense
    (jobs=1, exploit-prover cross-check on)."""
    from repro.synth.campaign import SynthConfig, run_synth_campaign

    summary = run_synth_campaign([case], SynthConfig(jobs=1),
                                 check_soundness=False)
    return summary.results[0]


class SerialWorkload:
    """One client running one op at a time."""

    name = ""
    loop = "serial loop, 1 client, 1 op at a time"
    #: modules the workload's process imports before it can take an op
    imports: Tuple[str, ...] = ()
    collect_between_ops = False

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference[self.name]
        self.problems: List[str] = []
        self.op_id = 0

    def start_server(self) -> float:
        """Seconds to bring up a server; serial workloads have none."""
        return 0.0

    def prepare(self) -> None:
        for module in self.imports:
            __import__(module)

    def warmup(self) -> None:
        pass

    def run_pass(self, deck: list, recorder=None) -> tuple:
        """``(latency_s, ok)`` per op in deck order, and the busy seconds."""
        out = []
        for item in deck:
            self.op_id += 1
            if recorder is not None:
                recorder.op = self.op_id
            started = time.perf_counter()
            ok = self.run_op(item)
            out.append((time.perf_counter() - started, ok))
            if self.collect_between_ops:
                gc.collect()
        return out, sum(latency for latency, _ in out)

    def live_pids(self) -> List[int]:
        return []

    def finish(self) -> None:
        pass

    def check(self, passes: List[int]) -> None:
        """Serial ops are checked as they complete."""

    def close(self) -> None:
        pass

    def facts(self) -> Dict[str, object]:
        return {}


class PaperSuite(SerialWorkload):
    name = "paper_suite"
    imports = ("repro.benchsuite.runner",)
    # A suite program leaves tens of MB of cyclic garbage (its Machines);
    # left to the collector's schedule, the peak RSS followed the program
    # order (12% spread over seeds).  Collected between ops, outside their
    # timing, the peak is the largest single program's.
    collect_between_ops = True

    def deck(self, pass_index: int) -> List[str]:
        order = suite_programs()
        random.Random(f"{self.name}:{self.seed}:{pass_index}").shuffle(order)
        return order

    def run_op(self, name: str) -> bool:
        from repro.errors import BenchmarkError

        try:
            observed = suite_record(name)
        except BenchmarkError as error:
            self.problems.append(f"{name}: {error}")
            return False
        if observed != self.reference[name]:
            self.problems.append(
                f"{name}: results differ from reference: {observed} "
                f"!= {self.reference[name]}")
        return True


class SynthFuzz(SerialWorkload):
    name = "synth_fuzz"
    imports = ("repro.synth.campaign",)

    def prepare(self) -> None:
        from repro.synth.campaign import fuzz_cases

        pool = fuzz_cases(SYNTH_POOL, 0)
        self.exploitable = [case for case in pool if case.expect_plan]
        self.controls = [case for case in pool if not case.expect_plan]
        #: defense -> {"wins", "victims", "attempts"} over the run's ops
        self.per_defense: Dict[str, Dict[str, int]] = {}

    def deck(self, pass_index: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}")
        cases = (rng.sample(self.exploitable, SYNTH_PASS_EXPLOITABLE)
                 + rng.sample(self.controls, SYNTH_PASS_CONTROLS))
        rng.shuffle(cases)
        return cases

    def run_op(self, case) -> bool:
        result = run_victim(case)
        if result.error is not None:
            self.problems.append(f"{case.name}: {result.error}")
            return False
        self.problems.extend(
            f"{case.name}: soundness: {violation}" for violation in result.soundness)
        observed = victim_record(result)
        expected = self.reference["victims"][case.name]
        if observed != expected:
            self.problems.append(
                f"{case.name}: results differ from reference: {observed} "
                f"!= {expected}")
        for defense, row in observed["defenses"].items():
            total = self.per_defense.setdefault(
                defense, {"wins": 0, "victims": 0, "attempts": 0})
            total["wins"] += row["wins"]
            total["victims"] += 1
            total["attempts"] += row["attempts"]
        return True

    def facts(self) -> Dict[str, object]:
        return {"per_defense": self.per_defense}


def load_workload(name: str, seed: int, reference: dict,
                  root: Optional[str] = None):
    if name == "serve_mixed":
        from perfbench.serve_mixed import ServeMixed

        return ServeMixed(seed, root)
    return {"paper_suite": PaperSuite, "synth_fuzz": SynthFuzz}[name](
        seed, reference)
