"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import json
import os
import resource
import subprocess
import sys
import time
import types

import pytest

from perfbench import procstat
from perfbench.layers import (
    LayerProbe, RegistryDelta, registry_metrics, self_checks, serve_metrics,
    span_metrics)
from perfbench.serve_mixed import ServeMixed, tail_percentile
from perfbench.spans import Patches, SpanRecorder, traced
from perfbench.workloads import PaperSuite, SynthFuzz

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
REFERENCE = {"paper_suite": {}, "synth_fuzz": {}}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- decks ------------------------------------------------------------------------


def _serve(seed):
    workload = ServeMixed(seed, ROOT)
    workload.load_inputs()
    return workload


def _synth(seed):
    workload = SynthFuzz(seed, REFERENCE)
    workload.prepare()
    return workload


def _suite(seed):
    return PaperSuite(seed, REFERENCE)


def _canonical(deck):
    return [
        item if isinstance(item, str)
        else getattr(item, "name", None) or json.dumps(item.payload, sort_keys=True)
        for item in deck
    ]


@pytest.mark.parametrize("make", [_suite, _synth, _serve])
def test_deck_is_deterministic_per_seed_and_differs_across_seeds(make):
    for pass_index in (0, 1):
        assert _canonical(make(3).deck(pass_index)) == _canonical(
            make(3).deck(pass_index))
        assert _canonical(make(3).deck(pass_index)) != _canonical(
            make(4).deck(pass_index))
    assert _canonical(make(3).deck(0)) != _canonical(make(3).deck(1))


def test_suite_passes_hold_the_same_programs_and_both_io_apps():
    decks = [_suite(seed).deck(0) for seed in range(5)]
    assert {"proftpd", "wireshark"} <= set(decks[0])
    assert all(sorted(deck) == sorted(decks[0]) for deck in decks)


def test_synth_passes_keep_the_control_share():
    deck = _synth(7).deck(0)
    assert sum(not case.expect_plan for case in deck) == 2
    assert len({case.name for case in deck}) == len(deck) == 20


def test_serve_pass_make_up_is_fixed_and_repeats_name_the_previous_pass():
    workload = _serve(5)
    deck = workload.deck(2)
    classes = sorted(request.cls for request in deck)
    assert classes == sorted(request.cls for request in _serve(9).deck(2))
    repeats = [request for request in deck if request.ref is not None]
    assert len(repeats) == 15
    previous = {request.key: request.payload for request in workload.deck(1)}
    assert all(previous[request.ref] == request.payload for request in repeats)
    sources = [request.payload["source"] for request in deck
               if request.ref is None and request.io is None]
    assert len(set(sources)) == len(sources)  # every victim request is cold


# -- latency percentiles ------------------------------------------------------------


def test_p95_is_refused_with_fewer_than_ten_samples_beyond_it():
    assert tail_percentile([float(v) for v in range(199)], 95) is None
    assert tail_percentile([float(v) for v in range(200)], 95) == 189.0
    assert tail_percentile([1.0, 2.0, 3.0], 50, min_beyond=1) == 2.0
    assert tail_percentile([], 50) is None


# -- spans --------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_on_a_fake_clock():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    outer = recorder.begin("outer")            # 0
    clock.now = 1.0
    inner = recorder.begin("inner", "a")       # 1
    clock.now = 3.0
    leaf = recorder.begin("leaf")              # 3
    clock.now = 3.5
    recorder.end(leaf)
    clock.now = 4.0
    recorder.end(inner)
    clock.now = 4.25
    second = recorder.begin("inner", "b")
    clock.now = 5.0
    recorder.end(second)
    clock.now = 6.0
    recorder.end(outer)
    clock.now = 7.0
    alone = recorder.begin("leaf")
    clock.now = 7.5
    recorder.end(alone)

    assert recorder.self_seconds() == {
        ("outer", None): 6.0 - 3.0 - 0.75,
        ("inner", "a"): 3.0 - 0.5,
        ("inner", "b"): 0.75,
        ("leaf", None): 1.0,
    }
    assert recorder.calls() == {"outer": 1, "inner": 2, "leaf": 2}
    assert recorder.root_seconds() == 6.5
    assert sum(recorder.self_seconds().values()) == recorder.root_seconds()


def test_spans_must_close_in_order():
    recorder = SpanRecorder(FakeClock())
    first = recorder.begin("a")
    recorder.begin("b")
    with pytest.raises(RuntimeError):
        recorder.end(first)


def test_patches_replace_every_from_import_binding(monkeypatch):
    defining = types.ModuleType("repro_benchtest_defining")
    user = types.ModuleType("repro_benchtest_user")

    def work(x):
        return x + 1

    defining.work = work
    user.work = work  # as left by ``from repro_benchtest_defining import work``
    monkeypatch.setitem(sys.modules, defining.__name__, defining)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    recorder = SpanRecorder(FakeClock())
    patches = Patches()
    assert patches.function(work, traced(recorder, "work", work)) == 2
    assert user.work(1) == 2 and defining.work(2) == 3
    assert recorder.calls() == {"work": 2}
    patches.undo()
    assert user.work is work and defining.work is work


def test_layer_probe_counts_match_the_registry_on_a_real_pipeline():
    from repro.core.pipeline import harden_source
    from repro.obs.metrics import get_registry

    recorder = SpanRecorder()
    probe = LayerProbe(recorder)
    before = get_registry().snapshot()
    probe.install()
    started = time.perf_counter()
    try:
        program = harden_source("int main() { int a[4]; a[1] = 3; return a[1]; }")
        result = program.make_machine().run()
    finally:
        probe.uninstall()
    wall = time.perf_counter() - started
    delta = RegistryDelta()
    delta.add(before, get_registry().snapshot())
    metrics = span_metrics(probe, wall)
    metrics.update(registry_metrics(delta))
    assert result.exit_code == 3
    assert metrics["minic.calls"] == metrics["lowering.calls"] == 1
    assert metrics["core.harden.calls"] == metrics["vm.run.calls"] == 1
    assert metrics["vm.run.predecoded.s"] == metrics["vm.run.s"] > 0
    assert metrics["vm.steps"] == result.steps
    assert metrics["core.pbox.bytes"] == program.pbox_bytes()
    assert self_checks(metrics, probe, delta) == []


def test_every_per_layer_metric_is_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = span_metrics(LayerProbe(SpanRecorder()), 1.0)
    metrics.update(registry_metrics(RegistryDelta()))
    metrics.update(serve_metrics(RegistryDelta(), 0))
    metrics.update({"trace.ops_per_s": 1.0, "trace.overhead": 0.0})
    assert set(metrics) == {entry["name"] for entry in spec["per_layer"]}


# -- peak RSS -----------------------------------------------------------------------


def test_vmhwm_parser():
    text = "Name:\tpython3\nVmPeak:\t  300 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n"
    assert procstat.parse_vmhwm_kb(text) == 12345
    assert procstat.parse_vmhwm_kb("Name:\tkthreadd\n") is None


def test_peak_rss_reads_this_process_and_live_children():
    own = procstat.vmhwm_kb(os.getpid())
    rusage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert abs(own - rusage) <= 0.05 * rusage
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; block = bytearray(64 << 20); print('up', flush=True); "
         "sys.stdin.read()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert procstat.read_line(child.stdout, 30) == b"up\n"
        assert child.pid in procstat.descendants(os.getpid())
        assert procstat.is_running(child.pid)
        assert procstat.peak_rss_mb([child.pid]) >= 64
    finally:
        child.stdin.close()
        child.wait(timeout=30)
        child.stdout.close()
    assert not procstat.is_running(child.pid)
