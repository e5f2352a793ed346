"""Per-layer metrics of the traced run.

Two sources, both outside the program's code:

* spans around one public entry point per layer (:class:`LayerProbe`),
  recorded in this process;
* the metrics registry the program already keeps (``pipeline_*``,
  ``jit_*``, ``vm_*``, ``serve_*``), read as the difference between a
  snapshot before and after each traced pass.  For ``serve_mixed`` the
  snapshots come from the server's ``metrics`` op, which merges every
  worker's registry.

Wherever the registry counts the same boundary as a span, the two counts
must agree (:func:`self_checks`); a disagreement means a call escaped its
wrapper, and the run fails.
"""

from __future__ import annotations

import importlib
import weakref
from typing import Dict, List

from perfbench.spans import Patches, SpanRecorder, traced

#: (layer, defining module, function) for the module-level entry points.
FUNCTION_LAYERS = (
    ("minic", "repro.minic", "compile_to_ast"),
    ("lowering", "repro.lowering.lower", "lower"),
    ("opt", "repro.opt.pipeline", "optimize"),
    ("ir.verify", "repro.ir.verifier", "verify_module"),
    ("core.harden", "repro.core.instrument", "instrument_module"),
    ("core.pbox", "repro.core.permutation", "generate_table"),
    ("analysis.analyze", "repro.analysis.driver", "analyze_program"),
    ("synth.plan", "repro.synth.planner", "synthesize"),
    ("attacks.campaign", "repro.attacks.harness", "run_campaign"),
)

#: layers whose ``.calls`` and ``.s`` are reported as-is from their spans
SPAN_LAYERS = (
    "minic", "lowering", "opt", "ir.verify", "core.harden", "core.pbox",
    "defenses.build", "vm.init", "vm.run", "analysis.analyze",
    "analysis.prove", "synth.plan", "attacks.campaign",
)

ENGINES = ("predecoded", "jit", "reference", "traced")

SERVE_JOB_OPS = ("compile", "harden", "analyze", "prove", "trace")


class LayerProbe:
    """Wraps every layer's entry point and tallies what the calls return."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.patches = Patches()
        self.pbox_bytes = 0
        self.steps = 0
        self.plans = 0
        self.attempts = 0
        self.successes = 0
        self.traced_machines = 0
        self._engines: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- result tallies (run after each span closes) -------------------------------

    def _after_harden(self, pbox, *args, **kwargs) -> None:
        # the figure HardenedProgram.pbox_bytes reports for this module
        self.pbox_bytes += pbox.size_bytes()

    def _after_plan(self, plan, *args, **kwargs) -> None:
        self.plans += plan is not None

    def _after_campaign(self, report, *args, **kwargs) -> None:
        self.attempts += report.total
        self.successes += report.count("success")

    def _after_machine_init(self, _none, machine, *args, **kwargs) -> None:
        # the engine Machine.run will take, from the constructor's flags
        if kwargs.get("tracer") is not None:
            engine = "traced"
            self.traced_machines += 1
        elif machine.jit:
            engine = "jit"
        else:
            engine = "predecoded" if machine.fast_dispatch else "reference"
        self._engines[machine] = engine

    def _engine_of(self, machine, *args, **kwargs) -> str:
        return self._engines.get(machine, "unknown")

    def _after_run(self, result, *args, **kwargs) -> None:
        self.steps += result.steps

    # -- install / remove ----------------------------------------------------------

    def install(self) -> None:
        after = {
            "core.harden": self._after_harden,
            "synth.plan": self._after_plan,
            "attacks.campaign": self._after_campaign,
        }
        for layer, module_name, attr in FUNCTION_LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            self.patches.function(
                original,
                traced(self.recorder, layer, original, after=after.get(layer)),
            )

        from repro.analysis.exploit import ExploitProver
        from repro.defenses.registry import defense_names, make_defense
        from repro.synth.facts import ProgramFacts
        from repro.vm.interpreter import Machine

        methods = [
            (Machine, "__init__", "vm.init", None, self._after_machine_init),
            (Machine, "run", "vm.run", self._engine_of, self._after_run),
            (ExploitProver, "prove", "analysis.prove", None, None),
            (ProgramFacts, "__init__", "synth.facts", None, None),
        ]
        builders = set()
        for name in defense_names():
            for klass in type(make_defense(name)).__mro__:
                if "build" in klass.__dict__:
                    builders.add(klass)
                    break
        methods.extend(
            (klass, "build", "defenses.build", None, None)
            for klass in sorted(builders, key=lambda k: k.__qualname__)
        )
        for cls, attr, layer, tag, after_fn in methods:
            original = cls.__dict__[attr]
            self.patches.method(
                cls, attr,
                traced(self.recorder, layer, original, tag=tag, after=after_fn),
            )

    def uninstall(self) -> None:
        self.patches.undo()


# -- registry snapshots ----------------------------------------------------------


def _split_series(key: str):
    name, _, labels = key.partition("{")
    pairs = labels.rstrip("}").split(",") if labels else []
    return name, dict(pair.split("=", 1) for pair in pairs)


def series_total(snapshot: dict, kind: str, name: str, field: str = "",
                 **labels) -> float:
    """Σ over a snapshot's matching series of one metric.

    ``kind`` is ``counters`` or ``histograms`` (then ``field`` is ``count``
    or ``sum``); ``labels`` filters series, a tuple value meaning any of.
    """
    out = 0.0
    for key, value in snapshot.get(kind, {}).items():
        series, series_labels = _split_series(key)
        if series != name:
            continue
        if any(series_labels.get(label) not in
               (wanted if isinstance(wanted, tuple) else (wanted,))
               for label, wanted in labels.items()):
            continue
        out += value[field] if field else value
    return out


class RegistryDelta:
    """What a registry recorded over the traced passes: Σ of after − before
    over one pair of snapshots per pass."""

    def __init__(self) -> None:
        self.pairs: List[tuple] = []

    def add(self, before: dict, after: dict) -> None:
        self.pairs.append((before, after))

    def __call__(self, kind: str, name: str, field: str = "", **labels) -> float:
        return sum(series_total(after, kind, name, field, **labels)
                   - series_total(before, kind, name, field, **labels)
                   for before, after in self.pairs)


# -- metrics ---------------------------------------------------------------------


def span_metrics(probe: LayerProbe, wall: float) -> Dict[str, float]:
    """Every span-derived per-layer metric, plus the uncovered remainder."""
    recorder = probe.recorder
    self_s = recorder.self_seconds()
    calls = recorder.calls()

    def seconds(layer: str, tag=None) -> float:
        return sum(v for (name, t), v in self_s.items()
                   if name == layer and (tag is None or t == tag))

    metrics: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.s"] = seconds(layer)
    for engine in ENGINES:
        metrics[f"vm.run.{engine}.s"] = seconds("vm.run", engine)
    metrics["synth.facts.s"] = seconds("synth.facts")
    metrics["core.pbox.bytes"] = probe.pbox_bytes
    metrics["vm.steps"] = probe.steps
    run_s = metrics["vm.run.s"]
    metrics["vm.minstr_per_s"] = probe.steps / run_s / 1e6 if run_s else 0.0
    plans = metrics["synth.plan.calls"]
    metrics["synth.planned_ratio"] = probe.plans / plans if plans else 0.0
    metrics["attacks.attempts"] = probe.attempts
    metrics["attacks.success_ratio"] = (
        probe.successes / probe.attempts if probe.attempts else 0.0
    )
    metrics["trace.wall.s"] = wall
    metrics["trace.uncovered.s"] = wall - recorder.root_seconds()
    return metrics


def registry_metrics(delta: RegistryDelta) -> Dict[str, float]:
    """The ``vm.jit.*`` layer, which only the registry counts."""
    return {
        "vm.jit.compiles": delta("counters", "jit_functions_compiled_total"),
        "vm.jit.compile_s": delta("histograms", "jit_compile_seconds", "sum"),
        "vm.jit.deopts": delta("counters", "jit_deopts_total"),
    }


def serve_metrics(delta: RegistryDelta, bytes_in: int) -> Dict[str, float]:
    """``serve.*`` from the server's merged registry plus client counts."""
    hits = delta("counters", "serve_cache_hits_total")
    misses = delta("counters", "serve_cache_misses_total")
    worker: Dict[str, float] = {
        op: delta("histograms", "serve_worker_seconds", "sum", op=op)
        for op in SERVE_JOB_OPS
    }
    worker_s = delta("histograms", "serve_worker_seconds", "sum")
    request_s = delta("histograms", "serve_request_seconds", "sum",
                      op=SERVE_JOB_OPS)
    metrics = {
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.worker.s": worker_s,
        "serve.outside_worker.s": request_s - worker_s,
        "serve.traced_machines": delta("counters", "vm_traced_machines_total"),
        "serve.pipeline.lower.s": delta(
            "histograms", "pipeline_phase_seconds", "sum", phase="lower"),
        "serve.pipeline.harden.s": delta(
            "histograms", "pipeline_phase_seconds", "sum", phase="harden"),
        "serve.rejections": delta("counters", "serve_rejections_total"),
        "serve.timeouts": delta("counters", "serve_timeouts_total"),
        "serve.bytes_out": bytes_in,
    }
    metrics.update({f"serve.worker.{op}.s": s for op, s in worker.items()})
    return metrics


def self_checks(metrics: Dict[str, float], probe: LayerProbe,
                delta: RegistryDelta) -> List[str]:
    """Span counts against the registry's counts of the same boundaries,
    and the self-time arithmetic against the traced wall."""
    problems = []

    def expect(label: str, spans: float, registry: float) -> None:
        if spans != registry:
            problems.append(f"{label}: spans count {spans}, registry {registry}")

    expect("core.harden vs pipeline_hardens_total", metrics["core.harden.calls"],
           delta("counters", "pipeline_hardens_total"))
    expect("lowering vs pipeline_phase_seconds{phase=lower}",
           metrics["lowering.calls"],
           delta("histograms", "pipeline_phase_seconds", "count", phase="lower"))
    expect("opt vs pipeline_phase_seconds{phase=optimize}", metrics["opt.calls"],
           delta("histograms", "pipeline_phase_seconds", "count",
                 phase="optimize"))
    expect("traced Machines vs vm_traced_machines_total", probe.traced_machines,
           delta("counters", "vm_traced_machines_total"))
    if metrics["vm.run.jit.s"] == 0:
        expect("jit compiles without a jit run", 0, metrics["vm.jit.compiles"])
    layer_self = sum(metrics[f"{layer}.s"]
                     for layer in SPAN_LAYERS + ("synth.facts",))
    wall = metrics["trace.wall.s"]
    if abs(layer_self + metrics["trace.uncovered.s"] - wall) > 1e-6 * max(wall, 1):
        problems.append(
            f"layer self times {layer_self:.6f}s + uncovered "
            f"{metrics['trace.uncovered.s']:.6f}s != traced wall {wall:.6f}s")
    negative = [key for key, value in probe.recorder.self_seconds().items()
                if value < -1e-9]
    if negative:
        problems.append(f"negative self time for {negative}")
    return problems
