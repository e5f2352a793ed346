"""Stack-layout overflow-reach analysis (symbolic, no execution).

For every ``alloca``'d buffer this module answers the question the DOP
attacker asks first: *which sibling slots does a linear overflow from
this buffer corrupt?* — under the baseline layout and under each
registered defense's family of layouts.

The frame model mirrors :meth:`repro.vm.interpreter.Machine._push_frame`
byte for byte, in frame-top-relative coordinates (frame top = 0, slots
at negative offsets, the return cookie at ``[-8, 0)``, the optional
canary directly below it).  An overflow writes *toward higher
addresses*: ``length`` bytes from the buffer's base corrupt every slot
overlapping ``[buffer.lo, buffer.lo + length)``, then the cookie, then
the caller's frame.

Defenses are modelled by the *set of layouts* they can deploy.  Each
defense class in :mod:`repro.defenses` declares its own family
(``frame_layouts``) and the family's kind:

* :data:`FIXED` — one layout (none, aslr, canary, shadowstack);
* :data:`ENUMERATED` — every deployable layout (padding: one per pad);
* :data:`SAMPLED` — a seeded sample that may miss deployable members
  (static-permute, cleanstack, smokestack).

``certain`` facts hold in *every* layout of the family (what a blind,
single-shot DOP exploit can rely on); ``possible`` facts hold in at
least one (what a brute-forcing attacker can eventually hit).  The
paper's claim, restated in these terms: Smokestack shrinks ``certain``
to (near) nothing while prior schemes leave it intact.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.allocations import StackAllocation, discover_function
from repro.ir.module import Function, Module

#: Layout-family kinds a defense declares (``Defense.family``).
FIXED = "fixed"
ENUMERATED = "enumerated"
SAMPLED = "sampled"

COOKIE = "<return-cookie>"
CANARY = "<canary>"
CALLER = "<caller-frame>"


def registered_defenses() -> Dict[str, type]:
    """Every registered defense class by name, in registry order."""
    # Imported here, not at the top: every defense module imports this
    # one for the frame model, and the registry imports every defense.
    from repro.defenses.registry import REGISTRY

    return REGISTRY


def modeled_defenses() -> Tuple[str, ...]:
    """Every registered defense name, in registry order."""
    return tuple(registered_defenses())


def modeled_defense(name: str):
    """A fresh instance of the registered defense ``name``."""
    classes = registered_defenses()
    if name not in classes:
        raise ValueError(
            f"unknown defense '{name}'; modeled: {', '.join(classes)}"
        )
    return classes[name]()


def align_down(value: int, alignment: int) -> int:
    return value & ~(alignment - 1)


class Slot(NamedTuple):
    """One stack object in one concrete layout."""

    name: str
    lo: int  # frame-top-relative byte offset of the slot's lowest byte
    size: int

    @property
    def hi(self) -> int:
        return self.lo + self.size

    @property
    def synthetic(self) -> bool:
        return self.name.startswith("__")


class FrameLayout(NamedTuple):
    """One concrete frame layout in frame-top-relative coordinates."""

    function: str
    slots: Tuple[Slot, ...]
    has_canary: bool

    def slot(self, name: str) -> Slot:
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise KeyError(f"no slot '{name}' in frame of '{self.function}'")

    def named_slots(self) -> Tuple[Slot, ...]:
        return tuple(s for s in self.slots if not s.synthetic)


class ReachSet(NamedTuple):
    """What one overflow corrupts in one concrete layout."""

    corrupted: FrozenSet[str]  # non-synthetic sibling slot names
    cookie: bool
    canary: bool
    escapes: bool  # writes past the frame top into the caller


class BufferReach(NamedTuple):
    """Reach summary of one buffer under one defense's layout family."""

    function: str
    buffer: str
    defense: str
    certain: FrozenSet[str]  # corrupted in every layout
    possible: FrozenSet[str]  # corrupted in at least one layout
    cookie_certain: bool
    layouts: int


def unique_slot_names(
    allocations: Sequence[StackAllocation],
) -> Dict[int, str]:
    """id(allocation) -> unique slot name.

    Source scopes let the same variable name appear twice in a frame
    (``for (int i...)`` twice); slot names must stay unique so reach
    sets and layout diffs can be keyed by name.  Later duplicates get a
    stable ``@N`` suffix based on *descriptor* (declaration) order, so
    the same allocation keeps the same name across permuted layouts.
    """
    counts: Dict[str, int] = {}
    names: Dict[int, str] = {}
    for allocation in allocations:
        counts[allocation.name] = counts.get(allocation.name, 0) + 1
        occurrence = counts[allocation.name]
        names[id(allocation)] = (
            allocation.name
            if occurrence == 1
            else f"{allocation.name}@{occurrence}"
        )
    return names


def allocation_slots(
    allocations: Sequence[StackAllocation],
    *,
    canary: bool,
    names: Optional[Dict[int, str]] = None,
) -> Tuple[Slot, ...]:
    """Lay ``allocations`` out in the given order, exactly as the VM does.

    The cursor starts below the 8-byte return cookie (and the canary, if
    present) and moves down: ``cursor -= size; align_down(cursor, align)``.
    Frame-top-relative offsets equal absolute ones for alignments up to
    the 16-byte frame-top alignment, so the model is exact.  ``names``
    (from :func:`unique_slot_names`, usually over the declaration order)
    overrides the per-slot display names.
    """
    if names is None:
        names = unique_slot_names(allocations)
    cursor = -8
    if canary:
        cursor -= 8
    slots: List[Slot] = []
    for allocation in allocations:
        cursor -= allocation.size
        cursor = align_down(cursor, allocation.align)
        slots.append(Slot(names[id(allocation)], cursor, allocation.size))
    return tuple(slots)


def baseline_layout(function: Function, *, canary: bool = False) -> FrameLayout:
    """Declaration-order layout — what the attacker's static analysis sees."""
    descriptor = discover_function(function)
    return FrameLayout(
        function.name,
        allocation_slots(descriptor.allocations, canary=canary),
        has_canary=canary,
    )


def overflow_reach(
    layout: FrameLayout, buffer: str, length: int
) -> ReachSet:
    """Corruption of a ``length``-byte linear overflow from ``buffer``."""
    base = layout.slot(buffer)
    end = base.lo + length
    corrupted = frozenset(
        slot.name
        for slot in layout.slots
        if slot.name != buffer
        and not slot.synthetic
        and slot.lo < end
        and slot.hi > base.lo
    )
    canary_hit = layout.has_canary and end > -16
    return ReachSet(
        corrupted=corrupted,
        cookie=end > -8,
        canary=canary_hit,
        escapes=end > 0,
    )


def intra_frame_reach(layout: FrameLayout, buffer: str) -> ReachSet:
    """Reach of the longest overflow that stays inside this frame."""
    base = layout.slot(buffer)
    return overflow_reach(layout, buffer, -base.lo)


def frame_height(layout: FrameLayout) -> int:
    """Bytes from the frame base (16-aligned) to the frame top."""
    lowest = min(
        [slot.lo for slot in layout.slots]
        + [-16 if layout.has_canary else -8]
    )
    return -align_down(lowest, 16)


def stacked_layout(
    caller: Function,
    victim: Function,
    *,
    canary: bool = False,
    prefix: Optional[str] = None,
) -> FrameLayout:
    """Two-frame layout: ``victim``'s frame directly below ``caller``'s.

    The VM pushes the callee's frame at the caller's frame base (both
    16-aligned), so in victim-frame-top coordinates the caller's slots
    sit at ``slot.lo + height(caller frame)``.  This is the layout an
    *inter-frame* overflow weaponizes — the librelp and ProFTPD attacks
    corrupt the caller's locals this way — and caller slots are
    prefixed (``"<caller>:"`` by default) so the combined name space
    stays unambiguous.  The victim's return cookie still sits at
    ``[-8, 0)``; the caller's own cookie is not modelled (corrupting it
    only matters after the caller returns).
    """
    caller_frame = baseline_layout(caller, canary=canary)
    victim_frame = baseline_layout(victim, canary=canary)
    height = frame_height(caller_frame)
    tag = prefix if prefix is not None else f"{caller.name}:"
    slots = victim_frame.slots + tuple(
        Slot(tag + slot.name, slot.lo + height, slot.size)
        for slot in caller_frame.slots
    )
    return FrameLayout(victim.name, slots, has_canary=canary)


def buffer_names(function: Function) -> List[str]:
    """Source-named array locals — the overflowable objects.

    Names match the slot names of :func:`baseline_layout` (duplicate
    declarations carry their ``@N`` suffix).
    """
    descriptor = discover_function(function)
    names = unique_slot_names(descriptor.allocations)
    out: List[str] = []
    for allocation in descriptor.allocations:
        alloca = allocation.alloca
        if alloca is None or not alloca.var_name:
            continue
        if alloca.var_name.startswith("__"):
            continue
        if alloca.allocated_type.is_array():
            out.append(names[id(allocation)])
    return out


def defense_layouts(
    function: Function,
    defense: str,
    *,
    samples: int = 64,
    seed: int = 0,
    module: Optional[Module] = None,
) -> List[FrameLayout]:
    """The family of concrete layouts ``defense`` can deploy for ``function``
    (:meth:`repro.defenses.base.Defense.frame_layouts`, by registry name).

    ``certain`` facts computed from a sampled family are conservative in
    the safe direction — a slot must survive every sampled layout.
    """
    return modeled_defense(defense).frame_layouts(
        function, samples=samples, seed=seed, module=module
    )


def reach_under_defense(
    function: Function,
    buffer: str,
    defense: str,
    *,
    samples: int = 64,
    seed: int = 0,
    module: Optional[Module] = None,
) -> BufferReach:
    """certain/possible intra-frame reach of ``buffer`` under ``defense``."""
    layouts = defense_layouts(
        function, defense, samples=samples, seed=seed, module=module
    )
    certain: Optional[FrozenSet[str]] = None
    possible: FrozenSet[str] = frozenset()
    cookie_certain = True
    for layout in layouts:
        reach = intra_frame_reach(layout, buffer)
        certain = (
            reach.corrupted if certain is None else certain & reach.corrupted
        )
        possible = possible | reach.corrupted
        cookie_certain = cookie_certain and reach.cookie
    return BufferReach(
        function=function.name,
        buffer=buffer,
        defense=defense,
        certain=certain or frozenset(),
        possible=possible,
        cookie_certain=cookie_certain,
        layouts=len(layouts),
    )


def analyze_module_reach(
    module: Module,
    defenses: Optional[Sequence[str]] = None,
    *,
    samples: int = 64,
    seed: int = 0,
) -> List[BufferReach]:
    """Reach summaries for every buffer × defense in the module
    (every registered defense unless ``defenses`` names some)."""
    if defenses is None:
        defenses = modeled_defenses()
    out: List[BufferReach] = []
    for function in module.functions.values():
        for buffer in buffer_names(function):
            for defense in defenses:
                out.append(
                    reach_under_defense(
                        function,
                        buffer,
                        defense,
                        samples=samples,
                        seed=seed,
                        module=module,
                    )
                )
    return out
