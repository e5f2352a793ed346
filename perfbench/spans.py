"""Spans recorded around calls into the program's public entry points.

The traced run wraps one entry point per layer (``minic.compile_to_ast``,
``Machine.run``, ...) from outside the program: nothing in ``src/`` knows it
is being measured.  Each wrapped call records one span — name, start, end,
parent span and the benchmark op it belongs to — into an in-memory list that
is written out once, when the run ends.

A layer's *self* time is its spans' durations minus the part covered by
their direct children, so nested layers (``defenses.build`` compiling through
``minic`` and ``lowering``) are never counted twice.  Calls into a layer are
single-threaded in every workload, so spans nest strictly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """In-memory span list plus the stack of currently open spans.

    ``clock`` defaults to :func:`time.perf_counter`; tests inject a fake so
    the self-time arithmetic can be asserted exactly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: one ``[name, tag, start, end, parent_index, op]`` list per span
        self.spans: List[list] = []
        self._open: List[int] = []
        #: id of the benchmark op calls are currently attributed to
        self.op: Optional[int] = None

    def begin(self, name: str, tag: Optional[str] = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, tag, self.clock(), None, parent, self.op])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.spans[index][3] = self.clock()

    def self_seconds(self) -> Dict[tuple, float]:
        """``(name, tag) -> Σ self seconds`` over every closed span."""
        child_time = [0.0] * len(self.spans)
        for name, tag, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[tuple, float] = defaultdict(float)
        for index, (name, tag, start, end, parent, op) in enumerate(self.spans):
            totals[(name, tag)] += (end - start) - child_time[index]
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def root_seconds(self) -> float:
        """Wall time covered by at least one span (Σ top-level durations)."""
        return sum(end - start for _, _, start, end, parent, _ in self.spans
                   if parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "tag", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def traced(recorder: SpanRecorder, name: str, fn: Callable,
           tag: Optional[Callable] = None,
           after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span; ``tag(*args)`` labels the span and
    ``after(result, *args)`` sees each result once the span has closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name, tag(*args, **kwargs) if tag else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


class Patches:
    """Installs wrappers and undoes them.

    Callers bind entry points with ``from x import f``, so replacing
    ``x.f`` alone would let those calls escape their span: a function is
    replaced under every module-global name of every loaded ``repro``
    module that refers to the same object.  Modules imported later copy the
    wrapper from the (already patched) defining module.
    """

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def function(self, original: Callable, wrapper: Callable) -> int:
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")
        return replaced

    def method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
