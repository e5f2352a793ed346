"""Campaign harness: run an attack scenario against a defense.

A *scenario* bundles a vulnerable Mini-C program with an adaptive
attacker (an input hook that crafts payloads, possibly using leaked
output from earlier rounds) and a goal predicate.  A *campaign* plays the
scenario against one defense across ``restarts`` process starts — the
brute-force dimension of the threat model (§III-B: "a finite number of
attempts before being detected... a service that restarts after a
crash").

Compile-time randomness is drawn once per campaign (one deployed build);
run-time and load-time randomness is fresh per restart.  That split is
the mechanism behind the paper's §II-C result: brute force converges
against compile-time schemes and does not against Smokestack.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks.model import AttackReport, classify_result
from repro.core.pipeline import Program
from repro.defenses.base import Defense, ProgramBuild
from repro.vm.interpreter import ExecutionResult, Machine

#: Step budget per attack run: victims are small; anything this long is a
#: runaway loop caused by corrupted control data.
ATTACK_MAX_STEPS = 2_000_000


class AttackScenario:
    """A vulnerable program plus its adaptive attacker."""

    #: short registry name, e.g. "stack-direct"
    name = "abstract"
    #: Mini-C source of the victim program
    source = ""
    #: function whose frame the exploit targets (for reporting)
    victim_function = ""
    #: one-line description for reports
    description = ""

    @property
    def program(self) -> Program:
        """The victim, parsed afresh for one campaign's build."""
        return Program(self.source)

    def make_input_hook(
        self, build: ProgramBuild, rng: random.Random, attempt: int
    ) -> Callable[[Machine], Optional[bytes]]:
        """The attacker: called whenever the victim requests input.

        The hook may consult ``build.layout_oracle`` (static analysis),
        the machine's accumulated *outputs* (leaks the program emitted),
        and its own round counter.  It must not read ``machine.memory``
        directly — disclosure only flows through program channels.
        """
        raise NotImplementedError

    def machine_kwargs(self) -> Dict[str, object]:
        """Extra Machine options (rarely needed)."""
        return {"max_steps": ATTACK_MAX_STEPS}

    def goal_met(self, result: ExecutionResult) -> bool:
        """Did the attack achieve its end (e.g. secret in the output)?"""
        raise NotImplementedError

    def run_once(
        self, build: ProgramBuild, rng: random.Random, attempt: int
    ) -> ExecutionResult:
        hook = self.make_input_hook(build, rng, attempt)
        machine = build.make_machine(input_hook=hook, **self.machine_kwargs())
        return machine.run()


def run_campaign(
    scenario: AttackScenario,
    defense: Defense,
    restarts: int = 16,
    seed: int = 0,
    stop_on_success: bool = True,
) -> AttackReport:
    """Attack one deployment of ``scenario.program`` under ``defense``."""
    build = defense.build(scenario.program, instance_seed=seed)
    report = AttackReport(scenario.name, defense.name)
    for attempt in range(restarts):
        rng = random.Random((seed << 16) ^ (attempt * 0x9E37) ^ 0xA77ACC)
        result = scenario.run_once(build, rng, attempt)
        outcome = classify_result(result, scenario.goal_met(result))
        report.record(outcome, detail=result.error_message)
        if stop_on_success and outcome == "success":
            break
    return report


def run_matrix(
    scenarios: Sequence[AttackScenario],
    defenses: Sequence[Defense],
    restarts: int = 16,
    seed: int = 0,
) -> Dict[str, Dict[str, AttackReport]]:
    """scenario-name -> defense-name -> report, for grid summaries."""
    grid: Dict[str, Dict[str, AttackReport]] = {}
    for scenario in scenarios:
        row: Dict[str, AttackReport] = {}
        for defense in defenses:
            row[defense.name] = run_campaign(
                scenario, defense, restarts=restarts, seed=seed
            )
        grid[scenario.name] = row
    return grid


def format_matrix(grid: Dict[str, Dict[str, AttackReport]]) -> str:
    """Human-readable verdict grid (rows: scenarios, cols: defenses)."""
    if not grid:
        return "(empty matrix)"
    defense_names = list(next(iter(grid.values())).keys())
    width = max(len(name) for name in grid) + 2
    col = max(max(len(name) for name in defense_names) + 2, 11)
    lines = ["".ljust(width) + "".join(name.ljust(col) for name in defense_names)]
    for scenario_name, row in grid.items():
        cells = []
        for name in defense_names:
            report = row[name]
            cells.append(report.verdict().ljust(col))
        lines.append(scenario_name.ljust(width) + "".join(cells))
    return "\n".join(lines)
