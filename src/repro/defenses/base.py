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

from typing import Callable, Dict, Union

from repro.core.pipeline import Program
from repro.ir.module import Module
from repro.vm.interpreter import Machine


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
    """A named protection scheme that can build programs."""

    #: registry name, e.g. "none", "aslr", "padding", "static-permute",
    #: "canary", "smokestack"
    name = "abstract"
    #: where the scheme's randomness is drawn ("none", "compile", "load",
    #: "invocation")
    randomization_time = "none"

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
        """The scheme itself.  ``program.module`` is shared and must not
        be transformed: a scheme that rewrites IR does so on
        ``program.lower()``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoDefense(Defense):
    """Plain baseline build: deterministic layout, no protections."""

    name = "none"
    randomization_time = "none"

    def _build(self, program: Program, instance_seed: int) -> ProgramBuild:
        module = program.module

        def factory(**kwargs) -> Machine:
            return Machine(module, **kwargs)

        return ProgramBuild(
            self.name, module, factory, program.reference_layouts
        )


class StackCanary(Defense):
    """Classic stack-smashing protector: secret word below the return slot.

    Stops *linear* overflows that cross the canary, but DOP payloads that
    stay inside the locals region (or skip over it non-linearly) never
    touch it — which is why the paper replaces it rather than relying on
    it.
    """

    name = "canary"
    randomization_time = "load"

    def _build(self, program: Program, instance_seed: int) -> ProgramBuild:
        module = program.module

        def factory(**kwargs) -> Machine:
            kwargs.setdefault("stack_protector", True)
            return Machine(module, **kwargs)

        return ProgramBuild(
            self.name, module, factory, program.reference_layouts
        )
