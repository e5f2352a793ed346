"""IR→Python JIT equivalence: compiled execution must be bit-identical.

The JIT (:mod:`repro.vm.jit`) is, like the predecoded dispatcher, a pure
performance layer: for every program — benchsuite workloads, hardened
builds, the canned DOP attacks, programs that fault, trap, or hit the
step limit mid-block — it must produce exactly the ExecutionResult the
interpreter paths produce, field for field.  The deopt boundary gets
special attention: step-limit deopts hand half-executed frames to the
interpreter, and traced machines must skip the JIT entirely while still
producing identical runs and event streams.  So does the tier boundary:
a tiered run hands every live frame to compiled code at its next block
boundary (on-stack entry), and must stay exact wherever that lands.
"""

import sys

import pytest

from repro.benchsuite.programs import WORKLOADS, get_workload
from repro.core.pipeline import compile_source, harden_source
from repro.rng.entropy import DeterministicEntropy
from repro.rng.sources import make_source
from repro.vm.interpreter import RESULT_FIELDS, Machine, result_fingerprint
from repro.vm.jit import JitEngine
from tests.suite_runs import BUILDS, reference_run, suite_machine

COMPARED_FIELDS = RESULT_FIELDS

#: Tier-up point of the tiered arm in the small-program tests: every
#: program that runs more than a handful of steps tiers up mid-run.
SMALL_TIER_UP = 10


def assert_identical(jit, reference, label):
    for field in COMPARED_FIELDS:
        assert getattr(jit, field) == getattr(reference, field), (
            f"{label}: jit disagrees on {field}: "
            f"{getattr(jit, field)!r} != {getattr(reference, field)!r}"
        )


def tiered(machine, tier_up_steps):
    """``machine`` with its tier-up point moved (this machine only)."""
    machine.jit_tier_up_steps = tier_up_steps
    return machine


def run_engines(source_text, inputs=(), max_steps=None, **kwargs):
    """{engine: result} for one program: eager jit, tiered, predecoded
    and executor table."""
    module = compile_source(source_text)
    results = {}
    for label, engine_kwargs in (
        ("jit", {"jit": True}),
        ("tiered", {}),
        ("fast", {"jit": False}),
        ("slow", {"fast_dispatch": False}),
    ):
        machine_kwargs = dict(kwargs, **engine_kwargs)
        if max_steps is not None:
            machine_kwargs["max_steps"] = max_steps
        machine = Machine(module, inputs=list(inputs), **machine_kwargs)
        if label == "tiered":
            tiered(machine, SMALL_TIER_UP)
        results[label] = machine.run()
    return results


def assert_all_agree(source_text, inputs=(), max_steps=None, label="", **kwargs):
    results = run_engines(
        source_text, inputs=inputs, max_steps=max_steps, **kwargs
    )
    slow = results.pop("slow")
    for engine, result in results.items():
        assert_identical(result, slow, f"{label} ({engine} vs slow)")
    return results["jit"]


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_baseline_bit_identical(self, name):
        workload = get_workload(name)
        jit, fast = (
            Machine(
                compile_source(workload.source, name),
                inputs=list(workload.inputs),
                jit=use_jit,
            ).run()
            for use_jit in (True, False)
        )
        assert_identical(jit, fast, name)

    @pytest.mark.parametrize("name", ["libquantum", "sjeng", "lbm"])
    def test_hardened_bit_identical(self, name):
        workload = get_workload(name)
        results = []
        for use_jit in (True, False):
            hardened = harden_source(workload.source, None, name)
            machine = Machine(
                hardened.module,
                inputs=list(workload.inputs),
                rng_source=make_source("aes-10", DeterministicEntropy(0)),
                jit=use_jit,
            )
            results.append(machine.run())
        assert_identical(results[0], results[1], f"hardened {name}")


#: Tier-up point for the canned attacks: low enough that every attempt
#: crosses it (asserted), so live attack frames enter compiled code.
ATTACK_TIER_UP = 50


class TestCannedAttackEquivalence:
    """All four canned DOP attacks replay identically under the JIT,
    eager and tiered, as under the executor table.

    Attack campaigns are the intended JIT consumer (thousands of runs of
    one build), and they exercise the gnarliest machine behavior:
    adaptive input hooks, overflow-corrupted frames, cookie and
    function-identifier checks, hardened prologues drawing randomness.
    """

    @pytest.mark.parametrize(
        "attack", ["listing1", "librelp", "proftpd", "wireshark"]
    )
    @pytest.mark.parametrize("defense_name", ["none", "smokestack"])
    def test_campaign_bit_identical(self, attack, defense_name):
        from repro.attacks import (
            LibrelpDopAttack,
            Listing1DopAttack,
            ProftpdDopAttack,
            WiresharkDopAttack,
        )
        from repro.attacks.harness import run_campaign
        from repro.defenses import make_defense

        scenario_cls = {
            "listing1": Listing1DopAttack,
            "librelp": LibrelpDopAttack,
            "proftpd": ProftpdDopAttack,
            "wireshark": WiresharkDopAttack,
        }[attack]

        def engine(engine_kwargs, tier_up_steps=None):
            runs = []

            class Wrapped(scenario_cls):
                def machine_kwargs(self):
                    return dict(super().machine_kwargs(), **engine_kwargs)

                def run_once(self, build, rng, attempt):
                    hook = self.make_input_hook(build, rng, attempt)
                    machine = build.make_machine(
                        input_hook=hook, **self.machine_kwargs()
                    )
                    if tier_up_steps is not None:
                        tiered(machine, tier_up_steps)
                    result = machine.run()
                    runs.append(
                        (result_fingerprint(result), machine._jit_engine is not None)
                    )
                    return result

            return Wrapped(), runs

        engines = {
            "jit": engine({"jit": True}),
            "tiered": engine({}, tier_up_steps=ATTACK_TIER_UP),
            "slow": engine({"fast_dispatch": False}),
        }
        for scenario, _ in engines.values():
            run_campaign(
                scenario, make_defense(defense_name), restarts=3, seed=1
            )
        runs = {label: runs for label, (_, runs) in engines.items()}
        fingerprints = {
            label: [fingerprint for fingerprint, _ in engine_runs]
            for label, engine_runs in runs.items()
        }
        assert fingerprints["jit"] == fingerprints["slow"], attack
        assert fingerprints["tiered"] == fingerprints["slow"], attack
        # every tiered attempt crossed its tier-up point
        assert all(compiled for _, compiled in runs["tiered"])


class TestErrorPathEquivalence:
    def test_out_of_bounds_fault(self):
        assert_all_agree(
            "int main() { int b[2]; b[700000] = 9; return 0; }",
            label="oob store",
        )

    def test_unmapped_load(self):
        assert_all_agree(
            "int main() { int *p; p = (int *) 3145728; return *p; }",
            label="unmapped load",
        )

    def test_division_by_zero_trap(self):
        assert_all_agree(
            "int main() { int d; d = 0; return 7 / d; }",
            label="div by zero",
        )

    def test_negative_vla_fault(self):
        assert_all_agree(
            "int main() { int n; n = 0 - 3; int v[n]; v[0] = 1;"
            " return v[0]; }",
            label="negative vla",
        )

    def test_runaway_recursion_hits_call_depth(self):
        assert_all_agree(
            "int f(int x) { return f(x + 1); } int main() { return f(0); }",
            label="runaway recursion",
        )

    def test_deep_recursion_under_the_limit(self):
        # 2000 guest frames: deep Python recursion through jitted calls,
        # but within the VM's 4096 depth limit.
        assert_all_agree(
            "int f(int n) { if (n <= 0) { return 0; } return 1 + f(n - 1); }"
            " int main() { return f(2000) - 2000; }",
            label="deep recursion",
        )

    def test_undefined_value_diagnostic_matches(self):
        # Both engines surface non-dominating IR as the same host VMError
        # (the fuzzer's harness treats any difference as a finding).
        from repro.fuzz.oracles import check_program

        verdict = check_program(
            "int main() { int x; if (0) { x = 1; } return x; }",
            oracles=("dispatch", "jit"),
        )
        assert verdict.ok, [str(f) for f in verdict.findings]


class TestDeoptBoundary:
    """Step-limit deopts: the JIT hands frames to the interpreter with
    exact accounting at every possible block position."""

    SOURCE = """
    int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    int main() { print_int(fib(12)); return 0; }
    """

    def full_steps(self):
        (result,) = [Machine(compile_source(self.SOURCE)).run()]
        assert result.outcome == "exit"
        return result.steps

    def test_every_limit_bit_identical(self):
        full = self.full_steps()
        # Every limit: deopt can land at any block of any frame depth.
        for limit in list(range(1, 120)) + list(range(full - 3, full + 2)):
            assert_all_agree(
                self.SOURCE, max_steps=limit, label=f"limit {limit}"
            )

    def test_limit_sweep_on_faulting_program(self):
        source = (
            "int main() { int b[2]; int i;"
            " for (i = 0; i < 100; i = i + 1) { b[0] = i; }"
            " b[800000] = 1; return 0; }"
        )
        full = Machine(compile_source(source)).run().steps
        for limit in range(max(1, full - 6), full + 3):
            assert_all_agree(source, max_steps=limit, label=f"limit {limit}")


#: Tier-up point for the suite workloads: every run is 20k+ steps.
SUITE_TIER_UP = 1_000


def run_tiered(module, tier_up_steps, **kwargs):
    """A tiered run of ``module`` and the on-stack entries it made, as
    (function, block index, leading phi count) triples."""
    machine = tiered(Machine(module, **kwargs), tier_up_steps)
    engine = machine._jit_engine = JitEngine(machine)
    live_values = engine._live_values
    entries = []

    def recording(meta, frame, index):
        entries.append((frame.function.name, index, meta.leading[index]))
        return live_values(meta, frame, index)

    engine._live_values = recording
    return machine.run(), entries


class TestTieredExecution:
    """Tiered runs (predecoded until the tier-up point, compiled after)
    against the executor table, with the tier-up point anywhere."""

    LOOP_IN_MAIN = """
    int main() {
        int grid[8]; int s; int i; int j;
        s = 0;
        for (i = 0; i < 8; i = i + 1) { grid[i] = i * 3; }
        for (j = 0; j < 2; j = j + 1) {
            for (i = 1; i < 7; i = i + 1) {
                s = s + grid[i - 1] - grid[i + 1] + j;
            }
        }
        print_int(s);
        return 0;
    }
    """

    RECURSIVE = """
    int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    int main() { print_int(fib(6)); return 0; }
    """

    #: at -O2 the loop header carries phis; b and c reach the back edge
    #: only as phi incomings, so entry into the loop body must load them
    PHI_LOOP = """
    int main() {
        int a; int b; int c; int i; int t;
        a = 0; b = 1; c = 2;
        for (i = 0; i < 30; i = i + 1) { t = a + 1; a = b; b = c; c = t & 255; }
        print_int(a); print_int(b); print_int(c);
        return 0;
    }
    """

    PROGRAMS = {
        "loop-in-main": (LOOP_IN_MAIN, 0),
        "recursive": (RECURSIVE, 0),
        "phi-loop": (PHI_LOOP, 2),
    }

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_suite_workload_matches_reference(self, name, build):
        machine = tiered(suite_machine(name, build), SUITE_TIER_UP)
        result = machine.run()
        assert machine._jit_engine is not None, "run never tiered up"
        assert_identical(result, reference_run(name, build), f"{name} {build}")

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_every_tier_up_point(self, program):
        source, opt_level = self.PROGRAMS[program]
        module = compile_source(source, opt_level=opt_level)
        reference = Machine(module, fast_dispatch=False).run()
        assert reference.outcome == "exit"
        entered = set()
        for tier_up_steps in range(1, reference.steps + 1):
            result, entries = run_tiered(module, tier_up_steps)
            assert_identical(result, reference, f"tier-up at {tier_up_steps}")
            entered.update(entries)
        # on-stack entries landed past function entry, and for the phi
        # loop at a block whose leading phis the interpreter executed
        assert any(index > 0 for _, index, _ in entered)
        if program == "phi-loop":
            assert any(leading > 0 for _, _, leading in entered)
        if program == "recursive":
            assert any(name == "fib" and index > 0 for name, index, _ in entered)

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_every_limit_across_the_tier_boundary(self, program):
        source, opt_level = self.PROGRAMS[program]
        module = compile_source(source, opt_level=opt_level)
        full = Machine(module, fast_dispatch=False).run().steps
        tier_up_steps = full // 2
        _, entries = run_tiered(module, tier_up_steps)
        assert entries, "no on-stack entry to sweep across"
        for limit in range(tier_up_steps - 5, full + 2):
            reference = Machine(
                module, fast_dispatch=False, max_steps=limit
            ).run()
            result, _ = run_tiered(module, tier_up_steps, max_steps=limit)
            assert_identical(result, reference, f"limit {limit}")

    def test_traced_machine_never_tiers(self):
        from repro.obs import Tracer

        module = compile_source(self.LOOP_IN_MAIN)
        streams = []
        results = []
        for jit in (None, False):
            tracer = Tracer(record_writes="all")
            machine = Machine(module, jit=jit, tracer=tracer)
            tiered(machine, 1)
            results.append(machine.run())
            assert machine._jit_engine is None
            streams.append(tracer.events)
        assert_identical(results[0], results[1], "traced default machine")
        assert streams[0] == streams[1]

    TRAP_MID_RECURSION = (
        "int f(int n) { if (n >= 100) { int d; d = 0; return 7 / d; }"
        " return f(n + 1); }"
        " int main() { return f(0); }"
    )

    def test_recursion_limit_restored(self):
        from repro.vm.jit import JIT_RECURSION_LIMIT

        before = sys.getrecursionlimit()
        module = compile_source(self.TRAP_MID_RECURSION)
        for tier_up_steps, max_steps, outcome in (
            (50, 10_000, "trap"),       # tiers, then traps 100 frames deep
            (50, 300, "limit"),         # tiers, then runs out of steps
            (5_000, 10_000, "trap"),    # traps before the tier-up point
        ):
            machine = tiered(Machine(module, max_steps=max_steps), tier_up_steps)
            assert machine.run().outcome == outcome
            assert (machine._jit_engine is not None) == (tier_up_steps == 50)
            assert sys.getrecursionlimit() == before

        seen = []
        reader = compile_source(
            "int main() { int s; int i; char b[4]; s = 0;"
            " for (i = 0; i < 60; i = i + 1) { s = s + i; }"
            " input_read(b, 4); return s - 1770; }"
        )
        for tier_up_steps in (50, 5_000):
            machine = Machine(
                reader,
                input_hook=lambda m: seen.append(sys.getrecursionlimit()) or b"x",
            )
            assert tiered(machine, tier_up_steps).run().exit_code == 0
            assert sys.getrecursionlimit() == before
        # raised only while a run executes compiled code
        assert seen == [JIT_RECURSION_LIMIT, before]


class TestObservedRunsDeopt:
    """Machines with observers attached skip the JIT loop but stay
    bit-identical — including their event streams."""

    def test_traced_jit_run_equals_traced_fast_run(self):
        from repro.obs import Tracer, validate_events

        workload = get_workload("libquantum")
        streams = []
        results = []
        for use_jit in (True, False):
            tracer = Tracer(record_writes="all")
            machine = Machine(
                compile_source(workload.source, "libquantum"),
                inputs=list(workload.inputs),
                jit=use_jit,
                tracer=tracer,
            )
            results.append(machine.run())
            assert not validate_events(tracer.events)
            streams.append(tracer.events)
        assert_identical(results[0], results[1], "traced jit")
        assert streams[0] == streams[1]

    def test_traced_jit_machine_never_compiles(self):
        from repro.obs import Tracer
        from repro.vm.interpreter import Machine as M

        machine = M(
            compile_source("int main() { return 0; }"),
            jit=True,
            tracer=Tracer(),
        )
        machine.run()
        assert machine._jit_engine is None

    def test_probe_frames_on_jit_machine(self):
        # crosscheck-style probing: push a real frame, corrupt it, pop.
        # The probe machinery never executes code, so a jit machine must
        # serve it exactly like an interpreter machine.
        source = (
            "int victim(int n) { int buf[4]; int secret;"
            " buf[0] = n; secret = 99; return secret; }"
            " int main() { return victim(1) - 99; }"
        )
        layouts = []
        for use_jit in (True, False):
            machine = Machine(compile_source(source), jit=use_jit)
            assert machine.run().exit_code == 0
            frame = machine.push_probe_frame("victim")
            layouts.append(sorted(frame.alloca_addresses.values()))
            machine.pop_probe_frame()
        assert layouts[0] == layouts[1]

    def test_crosscheck_accepts_jit_machine_module(self):
        from repro.analysis.crosscheck import crosscheck_module

        module = compile_source(
            "int main() { char buf[8]; int guard;"
            " guard = 7; buf[0] = 1; return guard - 7; }"
        )
        Machine(module, jit=True).run()  # warm the shared code cache
        results = crosscheck_module(module)
        assert results and all(r.ok for r in results)


class TestEngineSelection:
    def test_slow_dispatch_jit_machine_still_has_decoder(self):
        # Deopt continuations need predecoded step lists even when the
        # caller asked for the executor-table interpreter as fallback.
        machine = Machine(
            compile_source("int main() { return 0; }"),
            fast_dispatch=False,
            jit=True,
        )
        assert machine._decoder is not None
        assert machine.run().exit_code == 0

    def test_plain_slow_machine_has_no_decoder(self):
        machine = Machine(
            compile_source("int main() { return 0; }"), fast_dispatch=False
        )
        assert machine._decoder is None

    def test_shared_cache_across_machines_is_bit_identical(self):
        module = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 40; i = i + 1)"
            " { s = s + i; } print_int(s); return 0; }"
        )
        first = Machine(module, jit=True).run()
        second = Machine(module, jit=True).run()  # cache hit
        assert_identical(second, first, "cache reuse")

    def test_benchsuite_runner_jit_flag(self):
        from repro.benchsuite.runner import run_baseline

        workload = get_workload("libquantum")
        jit = run_baseline(workload, jit=True)
        fast = run_baseline(workload)
        assert jit == fast


class TestProcessGlobalState:
    """The JIT's two pieces of process-global state — the host recursion
    limit and the shared code cache — must survive traps, nesting, and
    concurrent use (the serve worker model runs many machines per
    process)."""

    TRAP_MID_RECURSION = (
        "int f(int n) { if (n >= 100) { int d; d = 0; return 7 / d; }"
        " return f(n + 1); }"
        " int main() { return f(0); }"
    )

    def test_limit_identical_after_trap_mid_recursion(self):
        import sys

        before = sys.getrecursionlimit()
        result = Machine(
            compile_source(self.TRAP_MID_RECURSION), jit=True
        ).run()
        assert result.outcome == "trap"
        assert sys.getrecursionlimit() == before

    def test_limit_identical_after_fault_and_step_limit(self):
        import sys

        before = sys.getrecursionlimit()
        Machine(
            compile_source(
                "int main() { int b[2]; b[700000] = 9; return 0; }"
            ),
            jit=True,
        ).run()
        assert sys.getrecursionlimit() == before
        Machine(
            compile_source(self.TRAP_MID_RECURSION), jit=True, max_steps=37
        ).run()
        assert sys.getrecursionlimit() == before

    def test_reentrancy_counter_restores_only_at_depth_zero(self):
        import sys

        from repro.vm.jit import (
            JIT_RECURSION_LIMIT,
            enter_jit_recursion,
            exit_jit_recursion,
            jit_recursion_depth,
        )

        assert jit_recursion_depth() == 0
        before = sys.getrecursionlimit()
        assert before < JIT_RECURSION_LIMIT
        enter_jit_recursion()
        try:
            assert sys.getrecursionlimit() == JIT_RECURSION_LIMIT
            enter_jit_recursion()
            try:
                assert jit_recursion_depth() == 2
            finally:
                exit_jit_recursion()
            # An inner exit (this was the clobber) must NOT restore while
            # an outer jitted run is still active.
            assert sys.getrecursionlimit() == JIT_RECURSION_LIMIT
        finally:
            exit_jit_recursion()
        assert sys.getrecursionlimit() == before
        assert jit_recursion_depth() == 0

    def test_unmatched_exit_raises(self):
        from repro.vm.jit import exit_jit_recursion

        with pytest.raises(RuntimeError):
            exit_jit_recursion()

    def test_nested_machine_via_input_hook(self):
        import sys

        from repro.vm.jit import JIT_RECURSION_LIMIT

        inner_module = compile_source(
            "int f(int n) { if (n <= 0) { return 0; }"
            " return 1 + f(n - 1); }"
            " int main() { return f(200) - 200; }"
        )
        seen = {}

        def hook(machine):
            inner = Machine(inner_module, jit=True).run()
            seen["inner_outcome"] = inner.outcome
            # After the nested jitted run exits, the limit must still be
            # raised for the outer run that is mid-flight.
            seen["limit_during_outer"] = sys.getrecursionlimit()
            return b"x"

        before = sys.getrecursionlimit()
        outer = Machine(
            compile_source(
                "int main() { char b[8]; input_read(b, 8); return 0; }"
            ),
            input_hook=hook,
            jit=True,
        ).run()
        assert outer.outcome == "exit"
        assert seen["inner_outcome"] == "exit"
        assert seen["limit_during_outer"] == JIT_RECURSION_LIMIT
        assert sys.getrecursionlimit() == before

    def test_concurrent_compile_and_clear_stress(self):
        import threading

        from repro.vm.jit import clear_code_cache

        module = compile_source(
            "int add(int a, int b) { return a + b; }"
            " int main() { int s = 0;"
            " for (int i = 0; i < 30; i = i + 1) { s = add(s, i); }"
            " print_int(s); return s - 435; }"
        )
        reference = Machine(module, jit=True).run()
        errors = []
        stop = threading.Event()

        def hammer_runs():
            try:
                for _ in range(8):
                    result = Machine(module, jit=True).run()
                    assert_identical(result, reference, "threaded run")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
            finally:
                stop.set()

        def hammer_clears():
            while not stop.is_set():
                clear_code_cache()

        runners = [threading.Thread(target=hammer_runs) for _ in range(8)]
        clearer = threading.Thread(target=hammer_clears)
        clearer.start()
        for thread in runners:
            thread.start()
        for thread in runners:
            thread.join()
        stop.set()
        clearer.join()
        assert not errors, errors
