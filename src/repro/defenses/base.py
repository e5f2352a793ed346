"""Common interface for the stack defenses under evaluation.

The essential distinction the paper draws is *when* randomness is drawn:

* **compile-time** schemes (static permutation, Forrest padding) fix their
  randomness when the binary is built — every run, and every restart of a
  crashed service, has the same layout;
* **load-time** schemes (stack-base ASLR) draw once per process;
* **Smokestack** draws per function invocation.

:class:`Defense.build` therefore models one *deployment*: compile-time
randomness is fixed inside the returned :class:`ProgramBuild`, while each
:meth:`ProgramBuild.make_machine` call models one process start (load-time
and run-time randomness fresh).

``layout_oracle`` returns what the attacker's *static analysis of the
reference binary* reveals about a function's frame: the paper's threat
model grants the attacker the binary or sources, but not the deployed
instance's compile-time random seed (Forrest-style diversity) — and for
Smokestack there simply is no per-variable layout to recover.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.analysis import reach
from repro.core.pipeline import Program
from repro.ir.module import Function, Module
from repro.vm.interpreter import Machine

#: One attacker hypothesis: the victim frame, the caller frame above it
#: (None for a frame-local channel) and the caller frame's height.
PayloadFrames = Tuple[reach.FrameLayout, Optional[reach.FrameLayout], int]


class ProgramBuild:
    """One deployed build of a program under some defense."""

    def __init__(
        self,
        defense_name: str,
        module: Module,
        machine_factory: Callable[..., Machine],
        reference_layouts: Dict[str, Dict[str, int]],
    ):
        self.defense_name = defense_name
        self.module = module
        self._machine_factory = machine_factory
        self._reference_layouts = reference_layouts

    def make_machine(self, **kwargs) -> Machine:
        """A fresh process (one service start / one restart)."""
        return self._machine_factory(**kwargs)

    def layout_oracle(self, function_name: str) -> Dict[str, int]:
        """What static analysis of the reference binary says about a frame.

        Offsets are bytes below the frame top (larger = lower address), as
        produced by :meth:`Machine.baseline_frame_layout`.  Empty for
        functions whose layout static analysis cannot pin down (Smokestack).
        """
        return dict(self._reference_layouts.get(function_name, {}))


class Defense:
    """A named protection scheme that can build programs.

    The class also carries every fact the analyses read about the
    scheme, so a new scheme is one class plus one registry entry.
    """

    #: registry name, e.g. "none", "aslr", "padding", "static-permute",
    #: "canary", "smokestack"
    name = "abstract"
    #: where the scheme's randomness is drawn ("none", "compile", "load",
    #: "invocation")
    randomization_time = "none"
    #: kind of the :meth:`frame_layouts` family (``reach.FIXED``,
    #: ``ENUMERATED`` or ``SAMPLED``)
    family = reach.FIXED
    #: deployed frames carry a stack canary below the return cookie
    canary = False
    #: a caller-frame gap that holds across the family may be certain
    certain_caller_gaps = True
    #: rung on the defense-assignment ladder, cheapest first
    cost_rank: int

    def build(
        self, program: Union[Program, str], instance_seed: int = 0
    ) -> ProgramBuild:
        """Deploy ``program`` (a plain source string is parsed here).

        Builds of one :class:`Program` share its parse, its reference
        module and its reference layouts; see :meth:`_build`.
        """
        if not isinstance(program, Program):
            program = Program(program)
        return self._build(program, instance_seed)

    def _build(self, program: Program, instance_seed: int) -> ProgramBuild:
        """The scheme itself; by default the shared reference module runs
        as is, with the VM's stack canary if :attr:`canary`.

        ``program.module`` is shared and must not be transformed: a
        scheme that rewrites IR does so on ``program.lower()``.
        """
        module = program.module

        def factory(**kwargs) -> Machine:
            kwargs.setdefault("stack_protector", self.canary)
            return Machine(module, **kwargs)

        return ProgramBuild(
            self.name, module, factory, program.reference_layouts
        )

    def frame_layouts(
        self,
        function: Function,
        *,
        samples: int = 64,
        seed: int = 0,
        module: Optional[Module] = None,
    ) -> List[reach.FrameLayout]:
        """The layouts this scheme can deploy for ``function``'s frame.

        A sampled family draws ``samples`` members with ``seed``;
        ``module`` serves schemes whose layout depends on the whole
        program.  The default is the baseline layout.
        """
        return [reach.baseline_layout(function, canary=self.canary)]

    def payload_hypotheses(
        self,
        victim: Function,
        caller: Optional[Function],
        buffer: str,
        *,
        module: Optional[Module] = None,
    ) -> List[PayloadFrames]:
        """Where an attacker places payload bytes, one hypothesis per try.

        A sampled family gets the reference layout, a blind best guess.
        Otherwise each victim × caller layout of the family is one,
        deduplicated on the return cookie's and every caller slot's gap
        from the buffer (under padding the caller's pad mostly cancels,
        but 16-byte frame alignment leaves a residue).
        """

        def layouts_of(function):
            if function is None:
                return [None]
            if self.family == reach.SAMPLED:
                return [reach.baseline_layout(function)]
            return self.frame_layouts(function, module=module)

        hypotheses: Dict[Tuple[int, ...], PayloadFrames] = {}
        for victim_layout in layouts_of(victim):
            buffer_lo = victim_layout.slot(buffer).lo
            for caller_layout in layouts_of(caller):
                height, gaps = 0, ()
                if caller_layout is not None:
                    height = reach.frame_height(caller_layout)
                    gaps = tuple(
                        slot.lo + height - buffer_lo
                        for slot in caller_layout.slots
                    )
                hypotheses.setdefault(
                    (-8 - buffer_lo,) + gaps,
                    (victim_layout, caller_layout, height),
                )
        return list(hypotheses.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoDefense(Defense):
    """Plain baseline build: deterministic layout, no protections."""

    name = "none"
    randomization_time = "none"
    cost_rank = 0


class StackCanary(Defense):
    """Classic stack-smashing protector: secret word below the return slot.

    Stops *linear* overflows that cross the canary, but DOP payloads that
    stay inside the locals region (or skip over it non-linearly) never
    touch it — which is why the paper replaces it rather than relying on
    it.
    """

    name = "canary"
    randomization_time = "load"
    #: The VM's canary carries a NUL byte precisely so that a
    #: strcpy-style payload (terminated by its first zero byte) can never
    #: replay it in place: a staged-strcpy write into the caller frame,
    #: which must cross the canary, is impossible in every layout.
    canary = True
    cost_rank = 2
