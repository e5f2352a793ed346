"""Random padding at function entry (Forrest et al., HotOS '97).

The transformation the paper describes in §II-B: for every stack frame
larger than 16 bytes (the heuristic for "contains a buffer"), insert one
of 8 possible paddings — 8, 16, ..., 64 bytes — chosen randomly *at
compile time*.  The padding shifts the whole frame relative to its caller
but leaves intra-frame distances intact, and because the choice is baked
into the binary it is identical on every run and every restart.

The attacker's reference binary does not reveal the deployed instance's
padding (that is the scheme's diversity argument), so
``layout_oracle`` reports the unpadded reference layout; the attack suite
then shows both bypasses the paper names: memory disclosure and
brute-force over the 8 possibilities (§II-C).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.analysis import reach
from repro.core.allocations import StackAllocation, discover_function
from repro.core.pipeline import Program
from repro.defenses.base import Defense, ProgramBuild
from repro.ir.instructions import Alloca
from repro.ir.module import Function, Module
from repro.minic import types as ct
from repro.vm.interpreter import Machine

#: The 8 possible paddings of the original scheme.
PAD_CHOICES = tuple(range(8, 72, 8))
#: Frames at or below this size are considered buffer-free and unpadded.
MIN_FRAME_SIZE = 16

PAD_SLOT_NAME = "__forrest_pad"


def apply_function_padding(function: Function, pad_bytes: int) -> bool:
    """Insert a ``pad_bytes`` dummy allocation at the top of the frame.

    Returns False when the frame is too small to qualify.  The dummy is
    the *first* allocation, i.e. the highest-addressed local, displacing
    every local (and the buffer-to-caller distance) by the pad size.
    """
    descriptor = discover_function(function)
    if descriptor.total_unpermuted_size() <= MIN_FRAME_SIZE:
        return False
    pad = Alloca(
        ct.ArrayType(ct.CHAR, pad_bytes),
        align=8,
        var_name=PAD_SLOT_NAME,
    )
    pad.name = function.next_value_name("pad")
    entry = function.entry
    pad.block = entry
    entry.instructions.insert(0, pad)
    return True


def apply_module_padding(module: Module, seed: int) -> Dict[str, int]:
    """Pad every qualifying function; returns function -> pad bytes."""
    rng = random.Random(seed ^ 0xF0447E57)
    applied: Dict[str, int] = {}
    for function in module.functions.values():
        pad_bytes = rng.choice(PAD_CHOICES)
        if apply_function_padding(function, pad_bytes):
            applied[function.name] = pad_bytes
    return applied


class ForrestPadding(Defense):
    """Compile-time random padding before large frames."""

    name = "padding"
    randomization_time = "compile"
    family = reach.ENUMERATED
    cost_rank = 4

    def frame_layouts(
        self, function: Function, **_
    ) -> List[reach.FrameLayout]:
        """One layout per pad choice, the pad above every local; frames
        too small to qualify keep the baseline layout."""
        descriptor = discover_function(function)
        if descriptor.total_unpermuted_size() <= MIN_FRAME_SIZE:
            return [reach.baseline_layout(function)]
        return [
            reach.FrameLayout(
                function.name,
                reach.allocation_slots(
                    [StackAllocation(PAD_SLOT_NAME, pad, 8)]
                    + list(descriptor.allocations),
                    canary=False,
                ),
                has_canary=False,
            )
            for pad in PAD_CHOICES
        ]

    def _build(self, program: Program, instance_seed: int) -> ProgramBuild:
        # The attacker's reference layout comes from the unpadded build;
        # the padding goes into a fresh lowering of the same parse.
        module = program.lower()
        applied = apply_module_padding(module, instance_seed)
        module.metadata["forrest_padding"] = applied

        def factory(**kwargs) -> Machine:
            return Machine(module, **kwargs)

        return ProgramBuild(
            self.name, module, factory, program.reference_layouts
        )
