"""The asyncio JSON-over-HTTP analysis server.

Stdlib only: the HTTP/1.1 front end shared with the fleet router lives in
:class:`repro.service.http.HttpFrontEnd` (listener, keep-alive loop,
request accounting, route table, drain skeleton); this module supplies the
job handler (batcher admission), the ``/healthz`` payload, the
``/metrics`` text and the drain hook (batcher drain, store flush).
Connections are persistent by default — one connection may carry many
requests back to back, which is what the router's pooled
:class:`~repro.service.client.AsyncServiceClient` relies on to forward
work without a connect per request.  Clients that prefer one-shot
connections (the blocking client) simply close after the first response;
an EOF at a request boundary is a clean end, not an error.

Endpoints (schemas in ``docs/SERVICE.md``):

* ``POST /analyze`` / ``POST /certify`` / ``POST /lint`` / ``POST /infer`` — run jobs for
  one ``app`` or a list of ``apps``; options mirror the batch CLI flags.
  Responses carry per-unit ``result`` payloads byte-identical to the
  batch CLI's JSON (both fronts call :func:`repro.pipeline.jobs.run_job`).
* ``GET /healthz`` — liveness + drain state (503 while draining).
* ``GET /metrics`` — Prometheus text exposition of the telemetry registry.

Robustness invariants, each enforced here and pinned by tests:

* **admission control** — beyond ``max_pending`` queued jobs the server
  answers 429 *before* allocating any work (``Batcher.admit`` is
  synchronous), so a flood costs memory proportional to open sockets only;
* **deadlines** — a request-level ``deadline_ms`` returns whatever units
  finished in time plus ``timed_out`` markers for the rest; the late jobs
  keep running and warm the cache for the retry;
* **isolation** — a malformed request dies with a 400 and a crashing job
  is confined to its per-unit error entry; the loop and the shared verdict
  cache survive both;
* **lifecycle** — SIGTERM/SIGINT stop the listener, close idle keep-alive
  connections, drain in-flight work (bounded by ``drain_timeout``), flush
  the persistent verdict store once, then exit; the store is also what
  ``start`` warms the cache from.

As a fleet shard (``repro serve --fleet N`` spawns these as worker
processes) the server additionally runs a periodic persistence cycle
(``persist_interval``): flush newly decided verdicts as a fresh segment,
then refresh the cache from segments other shards persisted — the shared
``--cache-dir`` is the fleet's cross-process verdict bus.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.core.cache import VerdictCache
from repro.core.persist import open_store
from repro.errors import ReproError
from repro.pipeline.jobs import JobError, JobSpec, run_job
from repro.service.batcher import Batcher, QueueFullError
from repro.service.http import HttpError, HttpFrontEnd
from repro.service.telemetry import ServiceTelemetry

__all__ = [
    "JOB_OPTION_FIELDS", "ServiceConfig", "ReproService",
    "parse_job_payload", "serve",
]

#: Option fields a job request may carry besides app/apps/deadline_ms.
JOB_OPTION_FIELDS = (
    "budget", "seed", "ladder", "snapshot",
    "transaction", "level", "max_schedules", "max_depth",
    "profile", "pairs",
)


class ServiceConfig:
    """Tunables of one :class:`ReproService` (defaults suit local use).

    Construction validates the numeric knobs outright: a ``workers=0``
    pool or a zero ``max_pending`` would not fail here but deep inside the
    batcher's first dispatch, long after the flags were parsed.  Every
    rejection is a :class:`~repro.errors.ReproError` naming the field, so
    the CLI renders it as a one-line usage error (exit 2).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8923,
        workers: int = 2,
        window: float = 0.005,
        max_pending: int = 64,
        max_body: int = 1_000_000,
        read_timeout: float = 30.0,
        drain_timeout: float = 30.0,
        default_deadline_ms: int | None = None,
        cache_dir: str | None = None,
        no_persist: bool = False,
        persist_interval: float = 0.0,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = workers
        self.window = window
        self.max_pending = max_pending
        self.max_body = max_body
        self.read_timeout = read_timeout
        self.drain_timeout = drain_timeout
        self.default_deadline_ms = default_deadline_ms
        self.cache_dir = cache_dir
        self.no_persist = no_persist
        self.persist_interval = persist_interval
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical tunables with a clear error (see class doc)."""
        if not isinstance(self.port, int) or not 0 <= self.port <= 65535:
            raise ReproError(f"port must be an integer in 0..65535, got {self.port!r}")
        for name, minimum in (
            ("workers", 1), ("max_pending", 1), ("max_body", 1),
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < minimum:
                raise ReproError(
                    f"{name} must be an integer >= {minimum}, got {value!r}"
                )
        for name, minimum in (
            ("window", 0.0), ("drain_timeout", 0.0), ("persist_interval", 0.0),
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < minimum:
                raise ReproError(f"{name} must be a number >= {minimum}, got {value!r}")
        if not isinstance(self.read_timeout, (int, float)) or self.read_timeout <= 0:
            raise ReproError(
                f"read_timeout must be a positive number, got {self.read_timeout!r}"
            )
        if self.default_deadline_ms is not None and (
            not isinstance(self.default_deadline_ms, int)
            or self.default_deadline_ms <= 0
        ):
            raise ReproError(
                "default_deadline_ms must be a positive integer or None,"
                f" got {self.default_deadline_ms!r}"
            )
        if self.persist_interval and self.no_persist:
            raise ReproError("persist_interval requires persistence to be enabled")


def parse_job_payload(kind: str, payload, default_deadline_ms: int | None = None):
    """Validate one job-request JSON object into ``(specs, deadline_ms, options)``.

    Shared by the worker server (which executes the specs) and the fleet
    router (which shards them by fingerprint and forwards the *options*
    verbatim so worker-side parsing reproduces identical specs).  Raises
    :class:`~repro.service.http.HttpError` (400) on any malformed field.
    """
    if not isinstance(payload, dict):
        raise HttpError(400, "request body must be a JSON object")
    apps = payload.get("apps")
    if apps is None:
        app = payload.get("app")
        if not isinstance(app, str):
            raise HttpError(400, "request needs an 'app' string or 'apps' list")
        apps = [app]
    if not isinstance(apps, list) or not all(isinstance(a, str) for a in apps):
        raise HttpError(400, "'apps' must be a list of application names")
    if not apps:
        raise HttpError(400, "'apps' must not be empty")
    deadline_ms = payload.get("deadline_ms", default_deadline_ms)
    if deadline_ms is not None and (
        not isinstance(deadline_ms, int) or deadline_ms <= 0
    ):
        raise HttpError(400, "'deadline_ms' must be a positive integer")
    options = {key: payload[key] for key in JOB_OPTION_FIELDS if key in payload}
    unknown = set(payload) - set(JOB_OPTION_FIELDS) - {"app", "apps", "deadline_ms"}
    if unknown:
        raise HttpError(400, f"unknown request fields: {', '.join(sorted(unknown))}")
    specs = []
    for app in apps:
        try:
            spec = JobSpec.from_dict({**options, "app": app}, kind=kind)
            spec.validate()
        except JobError as exc:
            raise HttpError(400, str(exc))
        specs.append(spec)
    return specs, deadline_ms, options


class ReproService(HttpFrontEnd):
    """One warmed analysis process serving many requests."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        super().__init__()
        self.config = config or ServiceConfig()
        self.telemetry = ServiceTelemetry()
        self.cache = VerdictCache()
        self.telemetry.track_cache(self.cache)
        self.telemetry.track_storage()
        self.store = open_store(self.config.cache_dir, no_persist=self.config.no_persist)
        self.warmed_entries = 0
        self.batcher = Batcher(
            self._execute,
            workers=self.config.workers,
            window=self.config.window,
            max_pending=self.config.max_pending,
            telemetry=self.telemetry,
        )

    # -- job execution (pool threads) ----------------------------------------

    def _execute(self, spec: JobSpec):
        """The batcher's runner: one job on one pool thread, shared cache."""
        return run_job(
            spec,
            cache=self.cache,
            no_persist=True,  # the service owns persistence (boot/drain/cycle)
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Warm the cache from the persistent store and open the listener."""
        if self.store is not None:
            self.warmed_entries = self.store.load(self.cache)
        await self._listen()
        if self.store is not None and self.config.persist_interval > 0:
            self._spawn(self._persist_cycle())

    async def _persist_cycle(self) -> None:
        """Fleet mode: periodically flush our verdicts, absorb other shards'.

        Flush-then-refresh makes the shared cache directory a cross-process
        verdict bus: every shard's newly decided verdicts become a segment,
        and every shard absorbs the segments it has not seen yet.  Run in a
        worker thread — segment IO must never stall the accept loop.
        """
        interval = self.config.persist_interval
        while not self._draining:
            await asyncio.sleep(interval)
            if self._draining:
                return
            try:
                await asyncio.to_thread(self._persist_once)
            except Exception:  # noqa: BLE001 - persistence is best-effort
                pass

    def _persist_once(self) -> None:
        self.store.flush(self.cache)
        self.store.refresh(self.cache)

    async def _drain_backend(self, deadline: float) -> None:
        await self.batcher.drain(timeout=self.config.drain_timeout)
        # handlers finish right after their jobs resolve; give them the rest
        # of the drain budget to flush their responses
        await self._wait_idle(deadline)
        if self.store is not None:
            self.store.flush(self.cache)
        self.batcher.shutdown()

    # -- endpoints -----------------------------------------------------------

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "queue_depth": self.batcher.admitted,
            "warmed_entries": self.warmed_entries,
            "cache_entries": len(self.cache),
        }

    async def _metrics(self) -> str:
        return self.telemetry.registry.render()

    async def _jobs(self, kind: str, payload) -> dict:
        specs, deadline_ms, _options = parse_job_payload(
            kind, payload, self.config.default_deadline_ms
        )
        loop = asyncio.get_running_loop()
        cutoff = loop.time() + deadline_ms / 1000.0 if deadline_ms else None
        units = []
        try:
            for spec in specs:
                units.append((spec, *self.batcher.admit(spec)))
        except QueueFullError as exc:
            raise HttpError(429, str(exc))
        entries = []
        any_timeout = False
        for spec, future, coalesced in units:
            entry = {
                "app": spec.app,
                "kind": spec.kind,
                "fingerprint": spec.fingerprint(),
                "coalesced": coalesced,
                "timed_out": False,
            }
            started = time.perf_counter()
            try:
                if cutoff is None:
                    result = await asyncio.shield(future)
                else:
                    remaining = cutoff - loop.time()
                    if remaining <= 0:
                        raise asyncio.TimeoutError
                    result = await asyncio.wait_for(asyncio.shield(future), remaining)
            except asyncio.TimeoutError:
                # the job keeps running and will warm the cache for a retry;
                # swallow its eventual outcome so nothing logs as unretrieved
                future.add_done_callback(_swallow_outcome)
                self.telemetry.timeouts.inc()
                entry["timed_out"] = True
                any_timeout = True
                entries.append(entry)
                continue
            except Exception as exc:  # noqa: BLE001 - per-unit isolation
                entry["error"] = f"{type(exc).__name__}: {exc}"
                entry["exit_code"] = 3
                entries.append(entry)
                continue
            entry["seconds"] = round(time.perf_counter() - started, 6)
            entry["exit_code"] = result.exit_code
            entry["result"] = result.payload
            entry["meta"] = result.extras
            entries.append(entry)
        return {"kind": kind, "results": entries, "timed_out": any_timeout}


def _swallow_outcome(future) -> None:
    if not future.cancelled():
        future.exception()


async def _amain(config: ServiceConfig, announce=print) -> int:
    service = ReproService(config)
    await service.start()
    announce(
        f"repro service listening on http://{config.host}:{service.port}"
        f" (workers={config.workers}, max_pending={config.max_pending},"
        f" warmed {service.warmed_entries} verdicts)",
        flush=True,
    )
    await service.serve_forever()
    announce("repro service drained cleanly", flush=True)
    return 0


def serve(config: ServiceConfig | None = None) -> int:
    """Blocking entry point used by ``repro serve``."""
    return asyncio.run(_amain(config or ServiceConfig()))
