"""Peak resident memory of the benchmark's processes, read from the OS.

The program keeps no memory figures of its own that could be trusted here:
``VmHWM`` in ``/proc/<pid>/status`` is the kernel's high-water mark of a
live process, and ``getrusage`` gives the same for this process and for the
children it has waited for.
"""

from __future__ import annotations

import os
import resource
import selectors
from typing import Iterable, List, Optional


def parse_vmhwm_kb(status_text: str) -> Optional[int]:
    """The ``VmHWM`` line of a ``/proc/<pid>/status`` text, in KiB."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected VmHWM unit {unit!r}")
            return int(value)
    return None


def vmhwm_kb(pid: int) -> Optional[int]:
    """Peak RSS of a live process in KiB (None once it has gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            return parse_vmhwm_kb(handle.read())
    except (FileNotFoundError, ProcessLookupError):
        return None


def parent_pid(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # the command name may hold spaces and parentheses: fields resume
    # after its last ')'
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (children, grandchildren, ...)."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            ppid = parent_pid(int(entry))
            if ppid is not None:
                children.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


def is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def peak_rss_mb(live_pids: Iterable[int] = ()) -> float:
    """Max peak RSS, in MiB, over this process, its waited-for children
    and ``live_pids`` (processes still running, read before they exit)."""
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    peaks.extend(kb for kb in map(vmhwm_kb, live_pids) if kb is not None)
    return max(peaks) / 1024.0


def read_line(stream, timeout: float) -> bytes:
    """One line from a child's pipe; TimeoutError after ``timeout`` s."""
    with selectors.DefaultSelector() as selector:
        selector.register(stream, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise TimeoutError(f"no output within {timeout:.0f}s")
    return stream.readline()
