"""Defense-aware payload-coordinate models for the concretizer.

The planner emits *symbolic* writes ("caller slot ``gate``"); turning
them into payload byte offsets requires a concrete two-frame layout,
which depends on the deployed defense.  Each defense class states the
attacker's hypotheses (:meth:`repro.defenses.base.Defense.payload_hypotheses`):
every layout of a fixed or enumerated family (padding's pads give the
paper's §II-C brute-force bypass, cycled by attempt index), the
reference layout as a blind guess for a sampled family (exactly what
makes the randomizing schemes' success rates diverge), or a
scheme-specific view such as cleanstack's region-local one.

All positions are *payload coordinates*: byte 0 is the overflow
buffer's first byte, increasing toward the frame top and onward into
the caller's frame.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.analysis import reach
from repro.ir.module import Function


class GapModel(NamedTuple):
    """Payload-coordinate positions for one (defense, hypothesis) pair."""

    victim: reach.FrameLayout
    caller: Optional[reach.FrameLayout]
    caller_height: int
    buffer_lo: int
    has_canary: bool

    def victim_gap(self, slot: str) -> int:
        return self.victim.slot(slot).lo - self.buffer_lo

    def caller_gap(self, slot: str) -> int:
        if self.caller is None:
            raise KeyError("channel has no caller frame")
        return self.caller.slot(slot).lo + self.caller_height - self.buffer_lo

    def gap(self, frame: str, slot: str) -> int:
        return self.victim_gap(slot) if frame == "victim" else self.caller_gap(slot)

    @property
    def cookie_gap(self) -> int:
        return -8 - self.buffer_lo

    @property
    def canary_gap(self) -> Optional[int]:
        return -16 - self.buffer_lo if self.has_canary else None

    def victim_slots_between(self, lo: int, hi: int) -> List[Tuple[str, int, int]]:
        """Named victim slots overlapping payload range [lo, hi)."""
        out = []
        for slot in self.victim.slots:
            if slot.synthetic:
                continue
            gap = slot.lo - self.buffer_lo
            if gap < hi and gap + slot.size > lo:
                out.append((slot.name, gap, slot.size))
        return out


def gap_models(
    victim: Function,
    caller: Optional[Function],
    buffer: str,
    defense_name: str,
    module=None,
) -> List[GapModel]:
    """Hypothesis list for one deployed defense (cycled by attempt)."""
    hypotheses = reach.modeled_defense(defense_name).payload_hypotheses(
        victim, caller, buffer, module=module
    )
    return [
        GapModel(
            victim_layout,
            caller_layout,
            height,
            victim_layout.slot(buffer).lo,
            victim_layout.has_canary,
        )
        for victim_layout, caller_layout, height in hypotheses
    ]
