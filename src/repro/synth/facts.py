"""Attacker-knowledge fact base for the attack compiler.

``ProgramFacts`` bundles everything the planner consults about a victim
program, derived purely from the *reference* (unhardened) module — the
attacker's own copy of the binary, per the paper's threat model.  Facts
are symbolic: global values are referenced by name and resolved to
concrete addresses only at concretization time against the deployed
build's image, so the same plan works across ASLR-relocated instances.

The gadget census comes from
:func:`repro.analysis.taintflow.collect_gadget_sinks` run under the
flow-insensitive corruption-model predicate — the same walk behind both
``analyze`` sink reporting and ``gadgets.py``, so the planner cannot see
gadgets the analyses would miss (or vice versa).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis import reach
from repro.analysis.taintflow import (
    INPUT_BUILTINS,
    SinkHit,
    TaintAnalysis,
    collect_gadget_sinks,
)
from repro.core.allocations import discover_function
from repro.core.pipeline import Program
from repro.ir.instructions import Alloca, Call, Cast, Store
from repro.ir.module import Function, Module
from repro.ir.values import Constant, GlobalVariable
from repro.opt.cfg import DominatorTree, reachable_blocks


class NeedleLocation(NamedTuple):
    """Where a byte string lives in the loaded image (symbolically)."""

    global_name: str
    offset: int  # byte offset of the needle inside the global's image


class InitValue(NamedTuple):
    """A slot's pre-input value, provable from entry-dominating stores.

    ``kind`` is ``"const"`` (``value`` is the integer) or
    ``"global-addr"`` (``value`` is the global's name; the concretizer
    resolves it against the deployed image).
    """

    kind: str
    value: object


class CallerSite(NamedTuple):
    function: Function
    call: Call


class ProgramFacts:
    """Static facts about one victim program."""

    def __init__(self, source: str, name: str = "victim"):
        self.source = source
        #: one parse shared with every defense build of this victim
        self.program = Program(source, name)
        #: the program's read-only reference module
        self.module: Module = self.program.module
        self._taints: Dict[str, TaintAnalysis] = {}
        self._sinks: Dict[str, List[SinkHit]] = {}
        self._layouts: Dict[Tuple[str, bool], reach.FrameLayout] = {}
        self._slot_names: Dict[str, Dict[int, str]] = {}
        self._callers: Optional[Dict[str, List[CallerSite]]] = None
        self._init_values: Dict[str, Dict[str, InitValue]] = {}
        self._escaped: Dict[str, set] = {}
        self._safety = None

    # ---------------------------------------------------------------- IR

    def function(self, name: str) -> Function:
        return self.module.functions[name]

    def functions(self) -> List[Function]:
        return list(self.module.functions.values())

    def taint(self, function: Function) -> TaintAnalysis:
        analysis = self._taints.get(function.name)
        if analysis is None:
            analysis = TaintAnalysis(function)
            self._taints[function.name] = analysis
        return analysis

    def sinks(self, function: Function) -> List[SinkHit]:
        """Corruption-model gadget census of ``function`` (shared walk)."""
        hits = self._sinks.get(function.name)
        if hits is None:
            taint = self.taint(function)
            hits = collect_gadget_sinks(
                function, lambda value, _inst: taint.is_controlled(value)
            )
            self._sinks[function.name] = hits
        return hits

    # ------------------------------------------------------------ frames

    def layout(self, function: Function, *, canary: bool = False) -> reach.FrameLayout:
        key = (function.name, canary)
        layout = self._layouts.get(key)
        if layout is None:
            layout = reach.baseline_layout(function, canary=canary)
            self._layouts[key] = layout
        return layout

    def slot_names(self, function: Function) -> Dict[int, str]:
        """id(Alloca) -> unique slot name (reach's naming discipline)."""
        names = self._slot_names.get(function.name)
        if names is None:
            descriptor = discover_function(function)
            by_allocation = reach.unique_slot_names(descriptor.allocations)
            names = {
                id(allocation.alloca): by_allocation[id(allocation)]
                for allocation in descriptor.allocations
                if allocation.alloca is not None
            }
            self._slot_names[function.name] = names
        return names

    def slot_of(self, function: Function, alloca: Alloca) -> Optional[str]:
        return self.slot_names(function).get(id(alloca))

    def alloca_of(self, function: Function, slot: str) -> Optional[Alloca]:
        for alloca_id, name in self.slot_names(function).items():
            if name == slot:
                for alloca in function.allocas():
                    if id(alloca) == alloca_id:
                        return alloca
        return None

    def buffers(self, function: Function) -> List[str]:
        return reach.buffer_names(function)

    # ----------------------------------------------------------- globals

    def global_variable(self, name: str) -> Optional[GlobalVariable]:
        return self.module.globals.get(name)

    def find_needle(self, needle: bytes) -> Optional[NeedleLocation]:
        """Locate ``needle`` inside some global's byte image."""
        for variable in self.module.globals.values():
            image = variable.byte_image()
            offset = image.find(needle)
            if offset >= 0:
                return NeedleLocation(variable.name, offset)
        return None

    def scratch_global(self, min_size: int) -> Optional[str]:
        """A writable global big enough to stage ``min_size`` bytes."""
        for variable in self.module.globals.values():
            if variable.readonly:
                continue
            if len(variable.byte_image()) >= min_size:
                return variable.name
        return None

    def global_init_word(self, name: str) -> Optional[int]:
        """Initial 64-bit little-endian value of a global, if ≥ 8 bytes."""
        variable = self.module.globals.get(name)
        if variable is None:
            return None
        image = variable.byte_image()
        if len(image) < 8:
            image = image + b"\x00" * (8 - len(image))
        return int.from_bytes(image[:8], "little")

    # ----------------------------------------------------------- callers

    def callers(self, name: str) -> List[CallerSite]:
        if self._callers is None:
            table: Dict[str, List[CallerSite]] = {}
            for function in self.module.functions.values():
                for inst in function.instructions():
                    if isinstance(inst, Call):
                        callee = inst.callee_name()
                        if callee in self.module.functions:
                            table.setdefault(callee, []).append(
                                CallerSite(function, inst)
                            )
            self._callers = table
        return self._callers.get(name, [])

    # ------------------------------------------------------ init values

    def initial_values(self, function: Function) -> Dict[str, InitValue]:
        """Slot values provably in place before the first attacker input.

        A store counts when (a) its pointer is a direct ``alloca``, (b)
        its value is a ``Constant`` or a global's address, (c) its block
        dominates every input-builtin call site (so it has certainly
        executed by the time corruption starts), and (d) it is the only
        such store... relaxed to: the *first* dominating store wins and a
        later dominating store overwrites it (program order).  Loops
        before the first input would break (c)'s "executed once"
        reading, but dominance already guarantees execution ≥ once and
        the last dominating store in program order is the live one for
        straight-line prologues, which is the shape the extractor
        targets.
        """
        cached = self._init_values.get(function.name)
        if cached is not None:
            return cached
        values: Dict[str, InitValue] = {}
        input_blocks = [
            inst.block
            for inst in function.instructions()
            if isinstance(inst, Call) and inst.callee_name() in INPUT_BUILTINS
        ]
        reachable = reachable_blocks(function)
        tree = DominatorTree(function)
        names = self.slot_names(function)
        for block in function.blocks:
            if block not in reachable:
                continue
            if input_blocks and not all(
                tree.dominates(block, target) for target in input_blocks
            ):
                continue
            for inst in block.instructions:
                if not isinstance(inst, Store):
                    continue
                if not isinstance(inst.pointer, Alloca):
                    continue
                slot = names.get(id(inst.pointer))
                if slot is None:
                    continue
                value = inst.value
                while isinstance(value, Cast):
                    value = value.value
                if isinstance(value, Constant) and isinstance(value.value, int):
                    values[slot] = InitValue("const", value.value)
                elif isinstance(value, GlobalVariable):
                    values[slot] = InitValue("global-addr", value.name)
                else:
                    # An unknown value kills any earlier claim.
                    values.pop(slot, None)
        self._init_values[function.name] = values
        return values

    def escaped_slots(self, function: Function) -> set:
        """Slot names whose address reaches a call argument.

        A call can rewrite such a slot behind the store-graph's back
        (``input_read(&frame_len, 8)``), so its initial value must not
        feed guard evaluation.
        """
        cached = self._escaped.get(function.name)
        if cached is not None:
            return cached
        names = self.slot_names(function)
        escaped = set()

        def walk(value, depth=0):
            if depth > 16:
                return
            from repro.ir.instructions import Cast as _Cast, ElemPtr, FieldPtr

            if isinstance(value, Alloca):
                slot = names.get(id(value))
                if slot is not None:
                    escaped.add(slot)
            elif isinstance(value, _Cast):
                walk(value.value, depth + 1)
            elif isinstance(value, (ElemPtr, FieldPtr)):
                walk(value.base, depth + 1)

        for inst in function.instructions():
            if isinstance(inst, Call):
                for arg in inst.args:
                    walk(arg)
        self._escaped[function.name] = escaped
        return escaped

    # ------------------------------------------------------------ safety

    @property
    def safety(self):
        if self._safety is None:
            from repro.analysis.safety import analyze_module_safety

            self._safety = analyze_module_safety(self.module)
        return self._safety
