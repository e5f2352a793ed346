"""CleanStack-style taint-partitioned dual stack.

Models the defense of the CleanStack paper (PAPERS.md): a static taint
analysis (:mod:`repro.analysis.partition`) classifies every stack slot as
clean or unclean, and unclean slots — anything attacker input can reach,
anything whose address escapes, anything unprovable — are relocated to a
separate *unclean stack* whose base is randomized once per process start.
Clean slots stay exactly where the baseline layout puts them.

Consequences for the attack suite, which is the point of the model:

* an overflow from an unclean buffer can no longer reach any clean slot
  (the regions are ~1 MiB apart, far beyond any bounded write), so the
  classic "tainted request buffer corrupts a clean decision variable"
  attacks die deterministically;
* attacks confined to *unclean* data — the buffer and the DOP target are
  both attacker-influenced — stay deterministic, because the partition
  preserves relative distances inside the unclean region.  That residual
  surface is CleanStack's documented blind spot and exactly what
  Smokestack's per-invocation shuffle still covers.

Like ASLR, the randomness is drawn at load time: one ``make_machine``
call = one process start = one fresh unclean-stack displacement.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.analysis import reach
from repro.analysis.partition import (
    FramePartition,
    machine_partition,
    partition_function,
    partition_module,
)
from repro.analysis.reach import FrameLayout, Slot
from repro.core.allocations import discover_function
from repro.core.pipeline import Program
from repro.defenses.base import Defense, PayloadFrames, ProgramBuild
from repro.ir.module import Function, Module
from repro.vm.interpreter import Machine

#: Span of the unclean stack's load-time displacement (bytes), matching
#: the stack-base ASLR span; the VM enforces 16-byte granularity.
DEFAULT_UNSAFE_SPAN = 64 * 1024


def cleanstack_region_slots(
    function: Function,
    module: Optional[Module] = None,
    *,
    partition: Optional[FramePartition] = None,
) -> Tuple[Tuple[Slot, ...], Tuple[Slot, ...]]:
    """The two halves of a cleanstack frame, each in its own coordinates.

    Clean slots are laid out exactly as the VM's main-stack cursor does
    (frame top = 0, first slot below the return cookie, unclean indices
    skipped); unclean slots are laid out by the unclean-stack cursor
    relative to *its* region top (= 0, no cookie/canary band — metadata
    never moves to the unclean stack).  ``partition`` may be supplied to
    reuse a computed :class:`~repro.analysis.partition.FramePartition`.
    """
    if partition is None:
        partition = partition_function(function, module)
    statics = function.static_allocas()
    unclean_allocas = {
        statics[index]
        for index in partition.unclean_indices
        if index < len(statics)
    }
    descriptor = discover_function(function)
    allocations = list(descriptor.allocations)
    names = reach.unique_slot_names(allocations)
    main_slots: List[Slot] = []
    unsafe_slots: List[Slot] = []
    cursor = -8
    u_cursor = 0
    for allocation in allocations:
        relocated = (
            allocation.alloca is not None
            and allocation.alloca in unclean_allocas
        )
        if relocated:
            u_cursor -= allocation.size
            u_cursor = reach.align_down(u_cursor, allocation.align)
            unsafe_slots.append(
                Slot(names[id(allocation)], u_cursor, allocation.size)
            )
        else:
            cursor -= allocation.size
            cursor = reach.align_down(cursor, allocation.align)
            main_slots.append(
                Slot(names[id(allocation)], cursor, allocation.size)
            )
    return tuple(main_slots), tuple(unsafe_slots)


def cleanstack_layouts(
    function: Function,
    module: Optional[Module] = None,
    *,
    samples: int = 64,
    seed: int = 0,
    partition: Optional[FramePartition] = None,
    deltas: Optional[Sequence[int]] = None,
) -> List[FrameLayout]:
    """Taint-partitioned dual-stack layouts.

    One layout per sampled displacement ``delta`` of the unclean region:
    clean slots keep their exact main-stack offsets in every member,
    while each unclean slot sits at ``u_lo + delta`` (``u_lo`` relative
    to the unclean-region top).  The sampled deltas stand in for the
    load-time draw — any byte-distance fact that survives the whole
    family is delta-invariant, i.e. purely intra-region, which is the
    defense's guarantee.  Pass an explicit ``deltas`` (e.g. one observed
    from a VM probe) to anchor the family for byte-exact cross-checking.
    """
    main_slots, unsafe_slots = cleanstack_region_slots(
        function, module, partition=partition
    )
    if not unsafe_slots:
        # Fully clean frame: single exact layout, nothing relocated.
        return [FrameLayout(function.name, main_slots, has_canary=False)]
    if deltas is None:
        rng = random.Random(seed ^ 0xC1EA)
        count = max(1, min(8, samples))
        picked = set()
        while len(picked) < count:
            picked.add(-rng.randrange(16 * 1024, 64 * 1024, 16))
        deltas = sorted(picked)
    layouts = []
    for delta in deltas:
        slots = main_slots + tuple(
            Slot(slot.name, slot.lo + delta, slot.size)
            for slot in unsafe_slots
        )
        layouts.append(
            FrameLayout(function.name, slots, has_canary=False)
        )
    return layouts


class CleanStackDefense(Defense):
    """Taint-partitioned dual stack with a randomized unclean region."""

    name = "cleanstack"
    randomization_time = "load"
    family = reach.SAMPLED
    #: A caller-frame gap folds in the victim's frame height, which under
    #: the dual stack depends on the load-time displacement of the
    #: unclean region; the sampled stand-in deltas can cancel out of the
    #: gap arithmetic in ways the deployed ~MiB displacement does not, so
    #: no cross-frame positional fact is certain.
    certain_caller_gaps = False
    cost_rank = 5

    def __init__(self, entropy_span: int = DEFAULT_UNSAFE_SPAN):
        self.entropy_span = entropy_span

    def frame_layouts(
        self,
        function: Function,
        *,
        samples: int = 64,
        seed: int = 0,
        module: Optional[Module] = None,
    ) -> List[FrameLayout]:
        """Clean slots fixed in place, unclean slots relocated as a block
        to the unclean stack at a sampled load-time displacement."""
        return cleanstack_layouts(
            function, module, samples=samples, seed=seed
        )

    def payload_hypotheses(
        self,
        victim: Function,
        caller: Optional[Function],
        buffer: str,
        *,
        module: Optional[Module] = None,
    ) -> List[PayloadFrames]:
        """The attacker's region-local view, exact within the region.

        If the buffer was relocated to the unclean stack, the reachable
        world is the unclean region: the victim's unclean slots (offsets
        relative to the region top), stacked directly below the caller's
        unclean slice — contiguous, because the unclean-stack pointer
        descends per frame just like the main one.  Otherwise the buffer
        lives on the thinned main stack and the model is the
        partition-aware main layout.  Either way, a planned write whose
        target sits in the *other* region has no coordinate here and
        fails to build — which is the defense's guarantee expressed in
        payload coordinates.
        """
        v_main, v_unsafe = cleanstack_region_slots(victim, module)
        buffer_unsafe = any(slot.name == buffer for slot in v_unsafe)
        v_slots = v_unsafe if buffer_unsafe else v_main
        victim_layout = FrameLayout(victim.name, v_slots, has_canary=False)
        caller_layout = None
        height = 0
        if caller is not None:
            c_main, c_unsafe = cleanstack_region_slots(caller, module)
            c_slots = c_unsafe if buffer_unsafe else c_main
            caller_layout = FrameLayout(
                caller.name, c_slots, has_canary=False
            )
            if buffer_unsafe:
                # Unclean slices carry no cookie/canary band; the region
                # height is just the slots' 16-aligned extent.
                lows = [slot.lo for slot in c_slots]
                height = -reach.align_down(min(lows), 16) if lows else 0
            else:
                height = reach.frame_height(caller_layout)
        return [(victim_layout, caller_layout, height)]

    def _build(self, program: Program, instance_seed: int) -> ProgramBuild:
        module = program.module
        # The partition is a compile-time artifact: static analysis over
        # the taint verdicts, baked into the deployment.
        unclean = machine_partition(partition_module(module))
        rng = random.Random(instance_seed ^ 0xC1EA45)
        span = self.entropy_span

        def factory(**kwargs) -> Machine:
            kwargs.setdefault("clean_partition", unclean)
            # A fresh unclean-stack displacement per process start.
            kwargs.setdefault(
                "unsafe_stack_offset", rng.randrange(0, span, 16)
            )
            return Machine(module, **kwargs)

        return ProgramBuild(
            self.name, module, factory, program.reference_layouts
        )
