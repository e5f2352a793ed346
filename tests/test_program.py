"""One parse per victim: the shared :class:`repro.core.pipeline.Program`.

Every defense build of a victim comes from one ``Program``: the front
end runs once, defenses that only change run-time behaviour share the
read-only reference module, and defenses that transform IR lower a
fresh module from the same AST.  These tests pin the pass counts, the
read-only contract, and that results match building from raw source.
"""

from unittest import mock

from repro.attacks import dop
from repro.core import pipeline
from repro.core.pipeline import Program
from repro.defenses import defense_names, make_defense
from repro.ir.printer import print_module
from repro.obs.metrics import get_registry
from repro.synth import SynthScenario, canned_cases, fuzz_cases, run_victim

#: defenses whose deployed module is the program's reference module
REFERENCE_RUNNERS = {"none", "canary", "aslr", "cleanstack", "shadowstack"}


def _lowerings() -> int:
    return get_registry().histogram("pipeline_phase_seconds", phase="lower").count


def _passes(case):
    """(result, front-end calls, lowerings) of one ``run_victim``."""
    before = _lowerings()
    with mock.patch.object(
        pipeline, "compile_to_ast", wraps=pipeline.compile_to_ast
    ) as parse:
        result = run_victim(case, defense_names())
    return result, parse.call_count, _lowerings() - before


def _outcomes(result):
    return (
        result.planned,
        result.error,
        [
            (o.defense, o.verdict, o.successes, o.attempts, o.breakdown,
             o.first_success)
            for o in result.defenses
        ],
        result.exploit_verdicts,
        result.soundness,
    )


class TestPassCounts:
    def test_planned_victim_parses_once_and_lowers_four_times(self):
        case = next(c for c in fuzz_cases(12) if c.expect_plan)
        result, parses, lowerings = _passes(case)
        assert result.planned and len(result.defenses) == len(defense_names())
        assert parses == 1
        # the reference module, plus padding, static-permute and smokestack
        assert lowerings == 4

    def test_unplanned_control_parses_and_lowers_once(self):
        case = next(c for c in fuzz_cases(12) if c.expect_plan is False)
        result, parses, lowerings = _passes(case)
        assert not result.planned and not result.defenses
        assert (parses, lowerings) == (1, 1)


class TestSameResults:
    def test_shared_program_matches_per_string_builds(self):
        cases = canned_cases() + fuzz_cases(10)
        assert any(c.expect_plan is False for c in cases)
        shared = [run_victim(case, defense_names()) for case in cases]
        # Hand every build the raw source: each parses and lowers alone.
        per_string = property(lambda scenario: scenario.source)
        with mock.patch.object(SynthScenario, "program", per_string):
            separate = [run_victim(case, defense_names()) for case in cases]
        for case, ours, theirs in zip(cases, shared, separate):
            assert _outcomes(ours) == _outcomes(theirs), case.name


class TestReferenceModuleIsReadOnly:
    def test_every_defense_builds_and_runs_without_touching_it(self):
        program = Program(dop.SOURCE, "listing1")
        reference = program.module
        version, text = reference.version, print_module(reference)
        for name in defense_names():
            build = make_defense(name).build(program, instance_seed=3)
            assert (build.module is reference) == (name in REFERENCE_RUNNERS), name
            build.make_machine(inputs=[b"\x01" * 8], max_steps=100_000).run()
        assert program.module is reference
        assert reference.version == version
        assert print_module(reference) == text

    def test_source_string_and_program_build_alike(self):
        program = Program(dop.SOURCE)
        for name in defense_names():
            defense = make_defense(name)
            from_string = defense.build(dop.SOURCE, instance_seed=5)
            from_program = defense.build(program, instance_seed=5)
            assert print_module(from_string.module) == print_module(
                from_program.module
            ), name
            for function in program.module.functions:
                assert from_string.layout_oracle(
                    function
                ) == from_program.layout_oracle(function), (name, function)

    def test_lower_returns_a_fresh_module_from_one_parse(self):
        with mock.patch.object(
            pipeline, "compile_to_ast", wraps=pipeline.compile_to_ast
        ) as parse:
            program = Program(dop.SOURCE)
            first, second = program.lower(), program.lower()
            assert program.module is program.module
        assert parse.call_count == 1
        assert len({id(first), id(second), id(program.module)}) == 3
        assert print_module(first) == print_module(program.module)
