"""The ``serve_mixed`` workload: ``repro serve`` under a closed loop.

The server runs as its own process (``python -m repro serve``, 2 workers).
This process is the one client: 2 connections, each sending its next
request only after the previous answer's last byte.  Every pass of the deck
has the same make-up; only the victims and tenants are fresh:

* cold ``harden`` of a fuzz victim under a fresh tenant (the median class);
* cold ``harden`` of the proftpd and wireshark io programs under fresh
  tenants (the p95 class);
* cold ``compile`` (opt 0 and 1), ``analyze`` and ``prove`` of fresh
  victims;
* two streamed ``trace`` requests, one of them a hardened proftpd run;
* repeats of the previous pass's requests, which the result cache answers.

The io-program requests open each pass and the rest follow in seeded
order.  An untimed warm-up pass comes first, so the first timed pass has
repeats too.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench import procstat
from perfbench.workloads import BenchmarkFailure

CONNECTIONS = 2
WORKERS = 2
TENANT_SALT = "perfbench-serve"
MAX_STEPS = 30_000_000
MAX_RETRIES = 100
WARMUP_PASS = -1

#: cold requests per pass, by class; repeats come on top
PASS_MIX = (
    ("compile-opt0", 2),
    ("compile-opt1", 2),
    ("analyze", 2),
    ("prove", 8),
    ("harden-victim", 24),
    ("trace-victim", 1),
    ("trace-proftpd", 1),
    ("harden-proftpd", 5),
    ("harden-wireshark", 1),
)
#: repeats per pass: a quarter of all requests
PASS_REPEATS = 15
#: The weights put the median inside harden-victim (about 36-75% of a
#: pass, with only repeats, compiles, analyses and the victim trace below
#: it) and p95 inside the proftpd harden/trace class (about 88-98%).

_LISTENING = re.compile(rb"listening on ([0-9.]+):([0-9]+)")


def tail_percentile(values: List[float], percent: int,
                    min_beyond: int = 10) -> Optional[float]:
    """Nearest-rank percentile, or None unless at least ``min_beyond``
    samples lie beyond it."""
    ordered = sorted(values)
    rank = -(-percent * len(ordered) // 100)  # ceil(percent% of n)
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


class Request:
    __slots__ = ("key", "cls", "payload", "ref", "io")

    def __init__(self, key, cls, payload, ref=None, io=None):
        self.key = key  #: (pass, index)
        self.cls = cls
        self.payload = payload
        self.ref = ref  #: key of the request this one repeats
        self.io = io  #: io program name for io-program requests


class ServeMixed:
    name = "serve_mixed"
    loop = (f"closed loop, 1 client process, {CONNECTIONS} connections; "
            f"server with {WORKERS} workers")
    imports = ("repro.serve.client",)

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root
        self.problems: List[str] = []
        self.server: Optional[subprocess.Popen] = None
        self.clients: list = []
        #: request key -> (request, latency_s, response dict)
        self.responses: Dict[tuple, tuple] = {}
        self.bytes_in = 0
        self._pids: List[int] = []

    # -- server lifecycle ------------------------------------------------------------

    def start_server(self) -> float:
        """Spawn the server; seconds until its pool is warm and it pings."""
        from repro.serve.client import connect

        self.stop_server()
        log_dir = os.path.join(self.root, "perfbench", "out")
        os.makedirs(log_dir, exist_ok=True)
        # the server's stderr (its shutdown traceback included) goes to a log
        self._log = open(os.path.join(
            log_dir, f"{self.name}-seed{self.seed}-server.log"), "ab")
        started = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--tenant-salt", TENANT_SALT],
            cwd=self.root, stdout=subprocess.PIPE, stderr=self._log,
            env=dict(os.environ, PYTHONPATH=os.path.join(self.root, "src")),
        )
        match = _LISTENING.search(procstat.read_line(self.server.stdout, 60))
        if match is None:
            raise BenchmarkFailure("server did not report its address")
        self.address = (match.group(1).decode(), int(match.group(2)))
        with connect(*self.address) as client:
            if not client.ping():
                raise BenchmarkFailure("server did not answer ping")
        elapsed = time.perf_counter() - started
        self._pids = procstat.descendants(self.server.pid)
        return elapsed

    def stop_server(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is None:
            return
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self._log.close()
        deadline = time.monotonic() + 10
        for pid in self._pids:  # pool workers: children of the server
            while procstat.is_running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if procstat.is_running(pid):
                os.kill(pid, signal.SIGKILL)
        self.server = None
        self._pids = []

    def live_pids(self) -> List[int]:
        if self.server is None:
            return []
        return [self.server.pid] + procstat.descendants(self.server.pid)

    def close(self) -> None:
        self.stop_server()

    # -- inputs ----------------------------------------------------------------------

    def prepare(self) -> None:
        from repro.serve.client import connect

        if self.server is None:
            self.start_server()
        self.load_inputs()
        self.clients = [connect(*self.address) for _ in range(CONNECTIONS)]

    def load_inputs(self) -> None:
        from repro.benchsuite.programs import get_workload

        self.io = {}
        for name in ("proftpd", "wireshark"):
            workload = get_workload(name)
            self.io[name] = (
                workload.source,
                [chunk.decode("latin-1") for chunk in workload.inputs],
            )

    def _cold(self, pass_index: int) -> List[Request]:
        from repro.fuzz.victims import generate_victim

        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}")
        victim_base = rng.randrange(1 << 40)
        requests: List[Request] = []

        def fresh_victim() -> str:
            index = len(requests)
            # the comment makes every cold source (and its digest) unique
            return (generate_victim(victim_base + index).source
                    + f"// {self.seed}:{pass_index}:{index}\n")

        def tenant() -> str:
            return f"t{self.seed}-{pass_index}-{len(requests)}"

        for cls, count in PASS_MIX:
            for _ in range(count):
                io = cls.split("-")[1] if cls.endswith(("proftpd", "wireshark")) else None
                if cls.startswith("compile"):
                    payload = {"op": "compile", "source": fresh_victim(),
                               "opt": int(cls[-1])}
                elif cls in ("analyze", "prove"):
                    payload = {"op": cls, "source": fresh_victim()}
                elif cls == "harden-victim":
                    payload = {"op": "harden", "source": fresh_victim(),
                               "tenant": tenant()}
                elif cls == "trace-victim":
                    payload = {"op": "trace", "source": fresh_victim(),
                               "tenant": tenant()}
                else:
                    source, inputs = self.io[io]
                    payload = {"op": cls.split("-")[0], "source": source,
                               "inputs": inputs, "tenant": tenant()}
                    if payload["op"] == "trace":
                        payload["harden"] = True
                requests.append(Request((pass_index, len(requests)), cls,
                                        payload, io=io))
        return requests

    def deck(self, pass_index: int) -> List[Request]:
        requests = self._cold(pass_index)
        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}:repeats")
        if pass_index > WARMUP_PASS:
            previous = self._cold(pass_index - 1)
            for original in rng.sample(previous, PASS_REPEATS):
                requests.append(Request(
                    (pass_index, len(requests)), "repeat", original.payload,
                    ref=original.key))
        rng.shuffle(requests)
        # The io-program requests, the longest, open the pass: a long one
        # left for last would run alone while the other connection idles at
        # the pass barrier, and the pass rate would follow the shuffle.
        requests.sort(key=lambda request: request.io is None)
        return requests

    def warmup(self) -> None:
        self.run_pass(self.deck(WARMUP_PASS))

    # -- the closed loop -------------------------------------------------------------

    def _send(self, client, request: Request) -> dict:
        """One request to its last byte; overloaded rejections are retried."""
        line = json.dumps(dict(request.payload, id=f"{request.key}")).encode()
        for _ in range(MAX_RETRIES):
            client.send_raw(line + b"\n")
            raw = client.read_line()
            received = len(raw) + 1
            envelope = json.loads(raw)
            events = hashlib.sha256()
            if envelope.get("stream"):
                while True:
                    raw = client.read_line()
                    received += len(raw) + 1
                    if json.loads(raw).get("done"):
                        break
                    events.update(raw + b"\n")
            error = envelope.get("error") or {}
            if error.get("code") != "overloaded":
                break
            time.sleep(error.get("retry_after", 0.05))
        return {
            "bytes": received,
            "ok": bool(envelope.get("ok")),
            "cached": bool(envelope.get("cached")),
            "result": envelope.get("result"),
            "error": envelope.get("error"),
            "fingerprint": hashlib.sha256(
                json.dumps(envelope.get("result"), sort_keys=True).encode()
                + events.digest()).hexdigest(),
        }

    def run_pass(self, deck: List[Request], recorder=None) -> tuple:
        """``(latency_s, ok)`` per request in deck order, and the pass's
        wall seconds."""
        pass_started = time.perf_counter()
        lock = threading.Lock()
        pending = iter(enumerate(deck))
        outcomes: List[Optional[Tuple[float, bool]]] = [None] * len(deck)
        errors: List[BaseException] = []

        def drain(client) -> None:
            try:
                while True:
                    with lock:
                        index, request = next(pending, (None, None))
                    if request is None:
                        return
                    started = time.perf_counter()
                    response = self._send(client, request)
                    latency = time.perf_counter() - started
                    with lock:
                        self.responses[request.key] = (request, latency, response)
                        self.bytes_in += response["bytes"]
                    outcomes[index] = (latency, response["ok"])
            except (OSError, ValueError) as error:
                errors.append(error)

        threads = [threading.Thread(target=drain, args=(client,))
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                raise BenchmarkFailure("a serve connection stalled")
        if errors:
            raise BenchmarkFailure(f"connection failed: {errors[0]!r}")
        return outcomes, time.perf_counter() - pass_started

    # -- results ---------------------------------------------------------------------

    def server_snapshot(self) -> dict:
        return self.clients[0].metrics()["snapshot"]

    def finish(self) -> None:
        """Server-side checks, read while the server is still up."""
        from perfbench.layers import series_total

        stats = self.clients[0].stats()
        snapshot = self.server_snapshot()
        merged = series_total(snapshot, "counters", "serve_worker_jobs_total")
        if merged != stats["worker_jobs_completed"]:
            self.problems.append(
                f"merged serve_worker_jobs_total {merged} != "
                f"stats.worker_jobs_completed {stats['worker_jobs_completed']}")

    def check(self, timed_passes: List[int]) -> None:
        """Every guest-observable contract of the served results.

        Repeats and tenant divergence are checked on every pass; the
        in-process re-run of each ``harden`` (about 0.8 s of work per pass)
        on the first and the last timed pass.
        """
        from repro.core.config import SmokestackConfig
        from repro.core.pipeline import harden_source
        from repro.rng.entropy import DeterministicEntropy
        from repro.serve.protocol import tenant_seed

        def in_process(request: Request, tracer=None):
            payload = request.payload
            seed = tenant_seed(payload["tenant"], TENANT_SALT)
            digest = hashlib.sha256(payload["source"].encode()).hexdigest()
            hardened = harden_source(
                payload["source"],
                SmokestackConfig(scheme="aes-10", compile_seed=seed),
                name=digest[:12])
            machine = hardened.make_machine(
                entropy=DeterministicEntropy(seed),
                inputs=[item.encode("utf-8") for item in payload.get("inputs", ())],
                max_steps=MAX_STEPS, tracer=tracer)
            return seed, machine.run()

        failed = [(key, response["error"])
                  for key, (_, _, response) in self.responses.items()
                  if not response["ok"]]
        if failed:
            self.problems.append(f"{len(failed)} protocol errors, first {failed[0]}")
            return
        for request, _, response in self.responses.values():
            if request.ref is not None:
                original = self.responses[request.ref][2]
                if response["fingerprint"] != original["fingerprint"]:
                    self.problems.append(f"repeat {request.key} differs from "
                                         f"its original {request.ref}")
                continue
            if (request.payload["op"] != "harden"
                    or request.key[0] not in (timed_passes[0], timed_passes[-1])):
                continue
            served = response["result"]
            seed, run = in_process(request)
            expected = (seed, run.outcome, run.exit_code, run.steps)
            got = (served["tenant_seed"], served["outcome"],
                   served["exit_code"], served["steps"])
            if got != expected:
                self.problems.append(
                    f"harden {request.key} served {got}, in-process {expected}")
        for pass_index in timed_passes:
            digests = [response["result"]["layout_digest"]
                       for (p, _), (request, _, response) in self.responses.items()
                       if p == pass_index and request.cls == "harden-proftpd"]
            if len(set(digests)) != len(digests):
                self.problems.append(
                    f"pass {pass_index}: distinct tenants share a layout")
        self._check_replay(timed_passes[0], in_process)

    def _check_replay(self, pass_index: int, in_process) -> None:
        """The same tenant replays its layout outside the server."""
        from repro.obs import Tracer

        for (p, _), (request, _, response) in list(self.responses.items()):
            if p != pass_index or request.cls != "harden-proftpd":
                continue
            tracer = Tracer(record_writes="all")
            in_process(request, tracer)
            writes = [(event.get("fn"), event["addr"], event["size"])
                      for event in tracer.events if event.get("ev") == "write"]
            digest = hashlib.sha256(
                json.dumps(writes, sort_keys=True).encode()).hexdigest()
            if digest != response["result"]["layout_digest"]:
                self.problems.append(
                    f"harden {request.key}: tenant layout not replayed in-process")

    def facts(self) -> Dict[str, object]:
        """Traffic facts of every answered request (timed and warm-up)."""
        total = sum(latency for _, latency, _ in self.responses.values())
        cold_io_harden = sum(
            latency for request, latency, response in self.responses.values()
            if request.cls in ("harden-proftpd", "harden-wireshark")
            and not response["cached"])
        hits = sum(response["cached"] for _, _, response in self.responses.values())
        ordered = sorted((latency, request.cls)
                         for request, latency, _ in self.responses.values())
        by_class: Dict[str, List[float]] = {}
        for latency, cls in ordered:
            by_class.setdefault(cls, []).append(latency * 1000.0)
        return {
            "requests": len(self.responses),
            "cache_hit_share": hits / len(self.responses),
            "cold_io_harden_time_share": cold_io_harden / total,
            "class_share": {cls: len(values) / len(ordered)
                            for cls, values in by_class.items()},
            "class_median_ms": {cls: values[len(values) // 2]
                                for cls, values in by_class.items()},
            "p50_class": ordered[-(-50 * len(ordered) // 100) - 1][1],
            "p95_class": ordered[-(-95 * len(ordered) // 100) - 1][1],
        }

    def cold_counts(self, passes) -> Dict[str, int]:
        """Uncached answers of ``passes`` that hardened a program, and that
        ran a traced Machine (every ``harden`` and every ``trace``)."""
        cold = [request.payload for (p, _), (request, _, response)
                in self.responses.items() if p in passes and not response["cached"]]
        return {
            "hardens": sum(payload["op"] == "harden" or bool(payload.get("harden"))
                           for payload in cold),
            "traced": sum(payload["op"] in ("harden", "trace") for payload in cold),
        }
