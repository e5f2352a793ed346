"""Suite-workload machines and cached reference runs for the engine tests.

``test_decode`` and ``test_jit`` compare several engines against the
executor-table interpreter on every suite workload.  That reference run
takes seconds per workload, so each (workload, build) pair is run once
per test session and shared.
"""

import functools

from repro.benchsuite.programs import get_workload
from repro.core.pipeline import compile_source, harden_source
from repro.rng.entropy import DeterministicEntropy
from repro.rng.sources import make_source
from repro.vm.interpreter import Machine

#: The builds every suite workload is compared under: the plain
#: compile, and the Smokestack build under the paper's aes-10 scheme.
BUILDS = ("baseline", "aes-10")


def suite_machine(name: str, build: str, **kwargs) -> Machine:
    """A fresh machine running ``build`` of suite workload ``name``."""
    workload = get_workload(name)
    if build == "baseline":
        module = compile_source(workload.source, name)
    else:
        module = harden_source(workload.source, None, name).module
        kwargs["rng_source"] = make_source(build, DeterministicEntropy(0))
    return Machine(module, inputs=list(workload.inputs), **kwargs)


@functools.lru_cache(maxsize=None)
def reference_run(name: str, build: str):
    """The executor-table run of ``build`` of ``name`` (cached)."""
    return suite_machine(name, build, fast_dispatch=False).run()
