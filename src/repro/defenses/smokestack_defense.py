"""Smokestack wrapped in the common :class:`Defense` interface.

This is what the security-evaluation harness instantiates to put the
paper's contribution on the same footing as the prior schemes: build once
(the P-BOX and instrumentation are compile-time artifacts, but they fix
only the *set* of layouts, not the choice), then draw a fresh layout at
every function invocation at run time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis import reach
from repro.core.allocations import StackAllocation, discover_function
from repro.core.config import SmokestackConfig
from repro.core.instrument import FNID_SLOT_NAME
from repro.core.permutation import generate_table
from repro.core.pipeline import Program, harden_module
from repro.defenses.base import Defense, ProgramBuild
from repro.ir.module import Function
from repro.rng.entropy import DeterministicEntropy, EntropySource
from repro.vm.interpreter import Machine


class SmokestackDefense(Defense):
    """Per-invocation stack layout randomization (the paper)."""

    name = "smokestack"
    #: Per-invocation re-deal: the layout a strike faces is not the
    #: layout a probe observed, so no positional fact survives between
    #: disclosure and strike, and the prover admits nothing as certain,
    #: whatever the family's gap sets say.
    randomization_time = "invocation"
    family = reach.SAMPLED
    cost_rank = 7

    def __init__(
        self,
        config: Optional[SmokestackConfig] = None,
        entropy: Optional[EntropySource] = None,
    ):
        self.config = config or SmokestackConfig()
        self.entropy = entropy

    def frame_layouts(
        self, function: Function, *, samples: int = 64, seed: int = 0, **_
    ) -> List[reach.FrameLayout]:
        """Per-invocation layouts: permutation-table rows in the unified
        frame.

        Row offsets grow *upward* from the unified frame's base (the
        instrumentation GEPs ``frame + offset``), so a larger row offset
        is a higher address.  With fnid checks on, the fnid slot takes
        part in the permutation just as the real pass arranges (it
        replaces the stack protector).
        """
        allocations = list(discover_function(function).allocations)
        if not allocations:
            return [reach.baseline_layout(function)]
        if self.config.fnid_checks:
            allocations.append(
                StackAllocation(FNID_SLOT_NAME, 8, 8, index=len(allocations))
            )
        names = reach.unique_slot_names(allocations)
        table = generate_table(allocations, max_rows=samples, seed=seed)
        # The unified frame: one 16-aligned char array below the cookie.
        frame_lo = reach.align_down(-8 - table.total_size, 16)
        layouts = []
        for row in table.rows:
            slots = tuple(
                reach.Slot(names[id(alloc)], frame_lo + offset, alloc.size)
                for alloc, offset in zip(allocations, row)
            )
            layouts.append(
                reach.FrameLayout(function.name, slots, has_canary=False)
            )
        return layouts

    def _build(self, program: Program, instance_seed: int) -> ProgramBuild:
        hardened = harden_module(program.lower(), self.config)
        entropy = self.entropy
        scheme = self.config.scheme
        starts = [0]  # distinct per-process entropy across restarts

        def factory(**kwargs) -> Machine:
            if entropy is not None:
                process_entropy = entropy
            else:
                # Deterministic per-build + per-start entropy keeps the
                # experiments reproducible while still giving every process
                # start an independent random stream.
                starts[0] += 1
                process_entropy = DeterministicEntropy(
                    (instance_seed << 20) ^ starts[0]
                )
            return hardened.make_machine(
                entropy=process_entropy, scheme=scheme, **kwargs
            )

        # Static analysis of a hardened binary finds one unified frame per
        # function and no per-variable slots: the oracle is empty.
        return ProgramBuild(self.name, hardened.module, factory, {})
