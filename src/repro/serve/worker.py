"""Worker-process job handlers for ``repro serve``.

Each pool worker is a persistent, stateless-by-contract process: a job
dict goes in, a plain result dict comes out, and **everything a job
increments in the process-global metrics registry is shipped back** as
a delta for the parent to merge (the worker-metrics bugfix this PR's
server depends on — without it every counter below would silently
vanish into the worker).

The only state a worker keeps between jobs is a *derived* cache, LRU
with at most ``WORKER_CACHE_ENTRIES`` entries of each kind:

* parsed ASTs keyed by source digest (parsing is pure), and
* compiled modules keyed by ``(digest, opt)`` together with the
  ``Module.version`` observed at compile time.  A cached module is
  reused only while its version still matches — any in-place transform
  (``instrument_module`` bumps the version) invalidates it, exactly the
  staleness contract the VM's decoder uses.  Hardening therefore always
  lowers a *fresh* module from the cached AST: the mutation lands on a
  throwaway, never on the shared cache entry.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.config import SmokestackConfig
from repro.core.pipeline import harden_module, lower_ast
from repro.minic import compile_to_ast
from repro.obs.metrics import worker_job_metrics
from repro.rng.entropy import DeterministicEntropy
from repro.serve.protocol import source_digest
from repro.vm.interpreter import Machine

#: Per-worker derived-state budget (ASTs + modules each).
WORKER_CACHE_ENTRIES = 64

#: Serve requests run untrusted source; keep runaway guests bounded.
SERVE_MAX_STEPS = 30_000_000

_AST_CACHE: "Dict[str, object]" = {}
#: (digest, opt) -> (module, version-at-compile)
_MODULE_CACHE: "Dict[Tuple[str, int], Tuple[object, int]]" = {}


def _evict(cache: dict) -> None:
    while len(cache) > WORKER_CACHE_ENTRIES:
        cache.pop(next(iter(cache)))


def _touch(cache: dict, key):
    """``cache[key]`` moved to the end (most recent), or None.

    Dicts keep insertion order, so re-inserting on every hit makes
    :func:`_evict`'s pop-the-first-key least-recently-used.
    """
    entry = cache.pop(key, None)
    if entry is not None:
        cache[key] = entry
    return entry


def _ast_for(job: dict):
    digest = job["digest"]
    ast = _touch(_AST_CACHE, digest)
    if ast is None:
        ast = compile_to_ast(job["source"], digest[:12])
        _AST_CACHE[digest] = ast
        _evict(_AST_CACHE)
    return ast


def _module_for(job: dict):
    """The shared read-only module for this (digest, opt).

    Re-checks ``Module.version`` against the version recorded when the
    entry was cached: if anything transformed the module in place, the
    token no longer matches and the module is recompiled rather than
    served stale.
    """
    key = (job["digest"], job["opt"])
    entry = _touch(_MODULE_CACHE, key)
    if entry is not None:
        module, version = entry
        if getattr(module, "version", 0) == version:
            return module
        del _MODULE_CACHE[key]
    module = lower_ast(_ast_for(job), job["digest"][:12], opt_level=job["opt"])
    _MODULE_CACHE[key] = (module, getattr(module, "version", 0))
    _evict(_MODULE_CACHE)
    return module


def _inputs(job: dict) -> List[bytes]:
    return [item.encode("utf-8") for item in job.get("inputs", ())]


def _module_summary(module) -> dict:
    return {
        "functions": sorted(module.functions),
        "instructions": sum(
            sum(len(block.instructions) for block in function.blocks)
            for function in module.functions.values()
        ),
        "globals": len(module.globals),
        "module_version": getattr(module, "version", 0),
    }


# -- op handlers --------------------------------------------------------------------


def _handle_compile(job: dict) -> dict:
    module = _module_for(job)
    result = {"digest": job["digest"], "opt": job["opt"]}
    result.update(_module_summary(module))
    return result


def _handle_harden(job: dict) -> dict:
    import hashlib
    import json

    from repro.obs import Tracer

    # Fresh lowering: instrument_module mutates its module in place, so
    # the shared compile cache must never see a hardened build.
    module = lower_ast(_ast_for(job), job["digest"][:12], opt_level=job["opt"])
    seed = job["tenant_seed"]
    config = SmokestackConfig(scheme=job["scheme"], compile_seed=seed)
    hardened = harden_module(module, config)
    # The permuted slots are dynamic (prologue-selected P-BOX row), so
    # the observable layout fingerprint is the write-address trace: the
    # same tenant seed replays it bit-identically, a different seed
    # lands the same stores on different slots.
    tracer = Tracer(record_writes="all")
    machine = hardened.make_machine(
        entropy=DeterministicEntropy(seed),
        inputs=_inputs(job),
        tracer=tracer,
        max_steps=SERVE_MAX_STEPS,
    )
    run = machine.run()
    writes = [
        (event.get("fn"), event["addr"], event["size"])
        for event in tracer.events
        if event.get("ev") == "write"
    ]
    layout_digest = hashlib.sha256(
        json.dumps(writes, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "digest": job["digest"],
        "scheme": job["scheme"],
        "tenant_seed": seed,
        "pbox_bytes": hardened.pbox_bytes(),
        "outcome": run.outcome,
        "exit_code": run.exit_code,
        "steps": run.steps,
        "writes_traced": len(writes),
        "layout_digest": layout_digest,
        "layouts": [
            {"fn": fn, "addr": addr, "size": size}
            for fn, addr, size in writes[:8]
        ],
    }


def _handle_analyze(job: dict, prove: bool) -> dict:
    from repro.analysis import analyze_program

    report = analyze_program(
        job["source"],
        job["digest"][:12],
        opt_level=job["opt"],
        prove=prove,
        module=_module_for(job),
    )
    return report.to_dict()


def _handle_trace(job: dict) -> Tuple[dict, List[str]]:
    import json

    from repro.core.pipeline import harden_module as _harden
    from repro.obs import Tracer

    tracer = Tracer(record_writes=job["writes"])
    if job["harden"]:
        module = lower_ast(
            _ast_for(job), job["digest"][:12], opt_level=job["opt"]
        )
        seed = job["tenant_seed"]
        hardened = _harden(
            module, SmokestackConfig(scheme=job["scheme"], compile_seed=seed)
        )
        machine = hardened.make_machine(
            entropy=DeterministicEntropy(seed),
            inputs=_inputs(job),
            tracer=tracer,
            max_steps=SERVE_MAX_STEPS,
        )
    else:
        machine = Machine(
            _module_for(job),
            inputs=_inputs(job),
            tracer=tracer,
            max_steps=SERVE_MAX_STEPS,
        )
    run = machine.run()
    header = {
        "digest": job["digest"],
        "outcome": run.outcome,
        "steps": run.steps,
        "cycles": run.cycles,
        "events": len(tracer.events),
        "dropped": tracer.dropped,
        "writes_seen": tracer.write_count,
        "crossings": len(tracer.crossing_events()),
    }
    lines = [
        json.dumps(event, sort_keys=True) for event in tracer.events
    ]
    return header, lines


def _handle_synth(job: dict) -> dict:
    from repro.synth.campaign import (
        SynthConfig,
        VictimCase,
        run_synth_campaign,
    )

    case = VictimCase(
        job["digest"][:12], job["source"], job["goal"], kind="serve"
    )
    config = SynthConfig(
        defenses=tuple(job["defenses"]),
        restarts=job["restarts"],
        seed=job["tenant_seed"],
        jobs=1,
    )
    summary = run_synth_campaign([case], config, check_soundness=False)
    return summary.to_json()


def handle_job(job: dict) -> dict:
    """Pool entry point: run one job, return result + metrics delta.

    Exceptions never escape (a guest-induced failure must not kill the
    worker): they come back as ``{"error": ...}`` for the server to wrap
    in an ``internal`` protocol error.
    """
    registry = worker_job_metrics()
    started = time.perf_counter()
    out: dict = {"events": None}
    try:
        op = job["op"]
        if op == "sleep":  # debug op: simulates a hung worker
            time.sleep(job["seconds"])
            out["result"] = {"slept": job["seconds"]}
        elif op == "compile":
            out["result"] = _handle_compile(job)
        elif op == "harden":
            out["result"] = _handle_harden(job)
        elif op == "analyze":
            out["result"] = _handle_analyze(job, prove=False)
        elif op == "prove":
            out["result"] = _handle_analyze(job, prove=True)
        elif op == "trace":
            header, lines = _handle_trace(job)
            out["result"] = header
            out["events"] = lines
        elif op == "synth":
            out["result"] = _handle_synth(job)
        else:  # pragma: no cover - validate_request gates the op set
            out["error"] = f"unhandled op '{op}'"
    except Exception as exc:  # noqa: BLE001 - shipped home as an error
        out["error"] = f"{type(exc).__name__}: {exc}"
    registry.counter(
        "serve_worker_jobs_total", op=job.get("op", "unknown")
    ).inc()
    registry.histogram("serve_worker_seconds", op=job.get("op", "unknown")).observe(
        time.perf_counter() - started
    )
    out["metrics"] = registry.dump()
    return out


def warmup() -> bool:
    """No-op job used to pre-spawn pool workers at server start."""
    return True
