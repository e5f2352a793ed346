"""The ``repro serve`` front door: asyncio over a persistent worker pool.

Architecture (see DESIGN.md §Serving architecture):

* one asyncio event loop accepts line-delimited JSON requests
  (:mod:`repro.serve.protocol`) over plain TCP;
* CPU-bound jobs run on a :class:`~concurrent.futures.ProcessPoolExecutor`
  of persistent workers (:mod:`repro.serve.worker`) — the event loop
  never compiles, analyzes, or executes guest code itself;
* completed results are cached by content hash
  (:mod:`repro.serve.cache`), so repeat submissions skip the worker
  entirely and replay bit-identical payloads;
* per-tenant permutation seeds are derived in the loop
  (:func:`repro.serve.protocol.tenant_seed`) and threaded into the
  hardening jobs, so co-tenants of one long-lived service never share a
  stack layout — the multi-tenant version of the paper's per-invocation
  randomization story;
* back-pressure is explicit: more than ``max_inflight`` concurrently
  submitted jobs get an immediate ``overloaded`` rejection carrying
  ``retry_after`` (the 429 of this protocol) instead of unbounded
  queueing;
* per-request deadlines cancel the worker future; a job already running
  on a worker cannot be interrupted mid-flight, so its eventual result
  is discarded (and its metrics delta still merged) when it finally
  lands — the client saw a ``timeout`` error long before;
* every job result carries the worker's metrics delta, merged into the
  parent registry on arrival; the ``metrics`` op serves the merged
  registry as a live text endpoint.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import threading
import time
from concurrent import futures
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.metrics import get_registry
from repro.serve import protocol
from repro.serve.cache import CachedResponse, ResultCache
from repro.serve.worker import handle_job, warmup

#: seconds :meth:`ReproServer.stop` waits for handlers busy with a job
SHUTDOWN_GRACE = 1.0


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral (the bound port is on ``server.address``)
    workers: int = 2
    #: jobs submitted-or-running beyond which new work is rejected with
    #: ``overloaded`` + ``retry_after`` (local ops always pass).
    max_inflight: int = 8
    #: seconds a client is told to wait after an ``overloaded`` rejection.
    retry_after: float = 0.05
    #: per-request deadline (seconds); requests may lower it, never raise.
    request_timeout: float = 120.0
    max_request_bytes: int = protocol.DEFAULT_MAX_REQUEST_BYTES
    cache_entries: int = 512
    #: salt mixed into per-tenant seeds so layouts are deployment-unique.
    tenant_salt: str = "smokestack-serve"
    #: bound on the streaming queue between producer and socket writer.
    stream_queue_size: int = 256
    #: enable debug ops (``sleep``) — tests only.
    debug_ops: bool = False


@dataclass
class ServerStats:
    """Parent-side plain counters, independent of the metrics registry.

    ``worker_jobs_completed`` is counted here from completed futures,
    while ``serve_worker_jobs_total`` is counted *inside* the workers
    and only reaches the registry through the merge path — comparing the
    two proves the merge protocol end to end (the bench gate does).
    """

    requests_total: int = 0
    responses_total: int = 0
    errors_total: int = 0
    rejections_total: int = 0
    timeouts_total: int = 0
    disconnects_total: int = 0
    worker_jobs_completed: int = 0
    late_completions_total: int = 0
    per_op: dict = field(default_factory=dict)


class ReproServer:
    """One serving process: event loop + worker pool + result cache."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.cache = ResultCache(self.config.cache_entries)
        self.stats = ServerStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._inflight = 0
        #: open connections: handler task -> its writer
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.address: Optional[tuple] = None

    # -- lifecycle ------------------------------------------------------------------

    def start_pool(self) -> None:
        """Create and pre-spawn the worker pool (idempotent).

        Pre-spawning from the caller's thread keeps worker ``fork()``
        out of the serving thread and makes the first request fast.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers
            )
            for future in [
                self._pool.submit(warmup) for _ in range(self.config.workers)
            ]:
                future.result()

    def _replace_broken_pool(self, broken) -> None:
        """Replace a pool that a dead worker broke (it refuses every later
        submit); concurrent failures on one pool rebuild it once.  The new
        workers start on their first job, from ``spawn`` because this
        process has threads by now."""
        if self._pool is not broken:
            return
        broken.shutdown(wait=False, cancel_futures=True)
        self._pool = ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=multiprocessing.get_context("spawn"),
        )

    async def start(self) -> None:
        self.start_pool()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            # readline() needs headroom beyond the request limit to
            # detect (rather than stall on) oversized lines.
            limit=self.config.max_request_bytes + 1024,
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing each connection hands a handler parked in readline its
        # EOF, so it returns instead of being cancelled when the loop
        # shuts down (Python 3.11's stream callback logs a cancelled
        # handler as an unhandled CancelledError).  Handlers still busy
        # with a job get a bounded grace period.
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=SHUTDOWN_GRACE)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- connection handling --------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._connections[asyncio.current_task()] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized line: the stream can no longer be framed
                    # reliably, so answer and drop the connection.
                    self._count_error("too-large")
                    writer.write(
                        protocol.encode(
                            protocol.error_response(
                                None,
                                "too-large",
                                "request line exceeds "
                                f"{self.config.max_request_bytes} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    return
                if not line:
                    return  # EOF: client closed cleanly
                self.stats.requests_total += 1
                await self._handle_line(line.rstrip(b"\r\n"), writer)
        except (ConnectionResetError, BrokenPipeError):
            self.stats.disconnects_total += 1
            get_registry().counter("serve_disconnects_total").inc()
        finally:
            del self._connections[asyncio.current_task()]
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,  # loop shutdown mid-close
            ):
                pass

    async def _handle_line(self, line: bytes, writer) -> None:
        started = time.perf_counter()
        try:
            request_id, job = protocol.split_validate(
                line, debug_ops=self.config.debug_ops
            )
        except protocol.ProtocolError as exc:
            self._count_error(exc.code)
            writer.write(
                protocol.encode(
                    protocol.error_response(None, exc.code, exc.message)
                )
            )
            await writer.drain()
            return
        op = job["op"]
        registry = get_registry()
        try:
            if op in protocol.LOCAL_OPS:
                response = self._handle_local(request_id, op)
                writer.write(protocol.encode(response))
                await writer.drain()
                self._count_ok(op, started)
                return
            await self._handle_job(request_id, job, writer, started)
        finally:
            registry.gauge("serve_inflight").set(self._inflight)

    # -- local ops ------------------------------------------------------------------

    def _handle_local(self, request_id, op: str) -> dict:
        if op == "ping":
            result: dict = {"pong": True}
        elif op == "metrics":
            registry = get_registry()
            result = {
                "text": registry.render_text(),
                "snapshot": registry.snapshot(),
            }
        else:  # stats
            result = {
                "inflight": self._inflight,
                "workers": self.config.workers,
                "max_inflight": self.config.max_inflight,
                "cache": self.cache.stats(),
                "requests_total": self.stats.requests_total,
                "responses_total": self.stats.responses_total,
                "errors_total": self.stats.errors_total,
                "rejections_total": self.stats.rejections_total,
                "timeouts_total": self.stats.timeouts_total,
                "disconnects_total": self.stats.disconnects_total,
                "worker_jobs_completed": self.stats.worker_jobs_completed,
                "late_completions_total": self.stats.late_completions_total,
                "per_op": dict(self.stats.per_op),
            }
        return {"id": request_id, "ok": True, "cached": False, "result": result}

    # -- worker jobs ----------------------------------------------------------------

    async def _handle_job(self, request_id, job, writer, started) -> None:
        op = job["op"]
        key = protocol.cache_key(job)
        cached = self.cache.get(key)
        registry = get_registry()
        if cached is not None:
            registry.counter("serve_cache_hits_total", op=op).inc()
            await self._respond(
                request_id, op, cached, writer, started, from_cache=True
            )
            return
        if key is not None:
            registry.counter("serve_cache_misses_total", op=op).inc()
        if self._inflight >= self.config.max_inflight:
            self.stats.rejections_total += 1
            registry.counter("serve_rejections_total", op=op).inc()
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request_id,
                        "overloaded",
                        f"{self._inflight} requests in flight "
                        f"(limit {self.config.max_inflight})",
                        retry_after=self.config.retry_after,
                    )
                )
            )
            await writer.drain()
            return
        if op in protocol.TENANT_KEYED_OPS:
            job = dict(
                job,
                tenant_seed=protocol.tenant_seed(
                    job["tenant"], self.config.tenant_salt
                ),
            )
        timeout = self.config.request_timeout
        self._inflight += 1
        registry.gauge("serve_inflight").set(self._inflight)
        loop = asyncio.get_running_loop()
        error = None
        pool = self._pool
        try:
            # Hold the concurrent future directly: cancellation semantics
            # ("only if not yet started") live there, not on the asyncio
            # wrapper wait_for cancels.  submit() itself raises once the
            # pool is broken, so it sits inside the try too.
            pool_future = pool.submit(handle_job, job)
            out = await asyncio.wait_for(
                asyncio.wrap_future(pool_future), timeout=timeout
            )
        except asyncio.TimeoutError:
            self.stats.timeouts_total += 1
            registry.counter("serve_timeouts_total", op=op).inc()
            # Cancel if not yet started; a job already running on a
            # worker finishes on its own — harvest it then (metrics
            # still merge; the result is discarded as 'late').
            if not pool_future.cancel():

                def _on_late(f):
                    try:
                        loop.call_soon_threadsafe(self._harvest_late, f)
                    except RuntimeError:
                        pass  # loop already closed at shutdown

                pool_future.add_done_callback(_on_late)
            error = protocol.error_response(
                request_id, "timeout", f"'{op}' exceeded {timeout:.3f}s deadline"
            )
        except Exception as exc:  # noqa: BLE001 - pool/broken-process errors
            if isinstance(exc, BrokenProcessPool):
                self._replace_broken_pool(pool)
            self._count_error("internal")
            error = protocol.error_response(
                request_id,
                "internal",
                f"{type(exc).__name__}: {exc}",
                retry_after=self.config.retry_after,
            )
        finally:
            self._inflight -= 1
        if error is not None:
            writer.write(protocol.encode(error))
            await writer.drain()
            return
        self.stats.worker_jobs_completed += 1
        delta = out.get("metrics")
        if delta:
            registry.merge(delta)
        if out.get("error") is not None:
            self._count_error("internal")
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request_id, "internal", out["error"]
                    )
                )
            )
            await writer.drain()
            return
        entry = CachedResponse(
            json.dumps(out["result"], sort_keys=True),
            tuple(out["events"]) if out.get("events") is not None else None,
        )
        self.cache.put(key, entry)
        await self._respond(
            request_id, op, entry, writer, started, from_cache=False
        )

    def _harvest_late(self, future) -> None:
        """A timed-out job finally finished: merge metrics, drop result.

        Runs on the loop thread via ``call_soon_threadsafe`` so the
        merge never races request handling.
        """
        self.stats.late_completions_total += 1
        self.stats.worker_jobs_completed += 1
        try:
            out = future.result()
        except (Exception, futures.CancelledError):  # noqa: BLE001
            return
        delta = out.get("metrics")
        if delta:
            get_registry().merge(delta)

    # -- responses ------------------------------------------------------------------

    async def _respond(
        self, request_id, op, entry: CachedResponse, writer, started, *,
        from_cache: bool,
    ) -> None:
        header = (
            b'{"cached": ' + (b"true" if from_cache else b"false")
            + b', "id": ' + protocol.encode(request_id).rstrip(b"\n")
            + (b', "ok": true, "stream": true, "result": '
               if entry.events is not None
               else b', "ok": true, "result": ')
            + entry.result_json.encode("utf-8")
            + b"}\n"
        )
        writer.write(header)
        await writer.drain()
        if entry.events is not None:
            await self._stream_events(entry, request_id, writer)
        self._count_ok(op, started)

    async def _stream_events(self, entry, request_id, writer) -> None:
        """Pump cached/fresh JSONL events through a bounded queue.

        The queue decouples the (instant) producer from the socket
        writer: ``drain()`` exerts TCP back-pressure on slow clients
        without ever buffering more than ``stream_queue_size`` lines in
        the loop.
        """
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.stream_queue_size
        )

        async def produce():
            for line in entry.events:
                await queue.put(line)
            await queue.put(None)

        producer = asyncio.ensure_future(produce())
        sent = 0
        try:
            while True:
                line = await queue.get()
                if line is None:
                    break
                writer.write(line.encode("utf-8") + b"\n")
                sent += 1
                if sent % 64 == 0:
                    await writer.drain()
            writer.write(
                protocol.encode(
                    {"id": request_id, "done": True, "events": sent}
                )
            )
            await writer.drain()
        finally:
            producer.cancel()

    # -- accounting -----------------------------------------------------------------

    def _count_ok(self, op: str, started: float) -> None:
        self.stats.responses_total += 1
        self.stats.per_op[op] = self.stats.per_op.get(op, 0) + 1
        registry = get_registry()
        registry.counter("serve_requests_total", op=op, status="ok").inc()
        registry.histogram("serve_request_seconds", op=op).observe(
            time.perf_counter() - started
        )

    def _count_error(self, code: str) -> None:
        self.stats.errors_total += 1
        get_registry().counter(
            "serve_requests_total", op="error", status=code
        ).inc()


class ServerThread:
    """Run a :class:`ReproServer` on a background thread (tests, bench).

    Usage::

        with ServerThread(ServeConfig(workers=2)) as server:
            client = ServeClient(*server.address)
            ...
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.server = ReproServer(config)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None

    @property
    def address(self) -> tuple:
        return self.server.address

    def __enter__(self) -> "ServerThread":
        # Pool workers fork from the caller's thread, before the event
        # loop exists anywhere.
        self.server.start_pool()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to start")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
