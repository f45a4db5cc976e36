"""The fleet router: one front door, N analysis worker processes.

``repro serve --fleet N`` turns the single-process analysis service into
a multi-process fleet.  The router owns the listening socket and serves
the exact single-server HTTP API through the same front end
(:class:`~repro.service.http.HttpFrontEnd`: same endpoints, same schemas,
same status codes — a client cannot tell the difference); behind it, N
worker processes each run a full
:class:`~repro.service.server.ReproService` on an ephemeral port.

**Sharding.**  Every job unit is routed by the consistent hash of its
:class:`~repro.pipeline.jobs.JobSpec` fingerprint — the same key the
worker's batcher coalesces on.  Identical jobs therefore always land on
the same shard, which preserves the coalescing/micro-batching win of the
single-process service *per shard* while distinct jobs spread across all
cores.  The hash ring gives each worker ``vnodes`` points; when a worker
dies only its arc rebalances onto the survivors, and when it respawns
(same worker id, same points) its keys come back — warm per-shard caches
stay warm through a bounce.

**Failure handling.**  A worker that exits or stops answering is removed
from the ring and respawned with capped exponential backoff.  In-flight
forwards to a dead worker are retried on the rebalanced ring (bounded
attempts with growing delays that cover one respawn window), so a worker
crash degrades to added latency, not 5xx storms.  Units that remain
unroutable after the retry budget come back as per-unit ``error``
entries — the same shape a crashed job has in the single server.

**Backpressure.**  The router tracks in-flight forwarded requests per
worker; a request whose target shard is at ``max_inflight`` is answered
429 + ``Retry-After`` before anything is forwarded, mirroring the
worker's own synchronous admission control one layer out.

**Persistence.**  Workers share one ``--cache-dir``: each shard
periodically flushes its verdicts and refreshes from segments other
shards wrote (``persist_interval``), and compaction of the shared
directory is serialised by the advisory claim protocol in
:mod:`repro.core.persist` — see ``repro compact``.

**Telemetry.**  ``GET /metrics`` renders the router's own registry plus
every live worker's scrape with a ``worker="<id>"`` label injected into
each sample (HELP/TYPE lines deduplicated), so one scrape sees the whole
fleet.  ``GET /healthz`` reports per-worker pid/port/health — which is
also how the CI smoke job finds a victim to kill.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import os
import re
import sys
import time

from repro.errors import ReproError
from repro.service.client import (
    AsyncServiceClient,
    ServiceBusyError,
    ServiceConnectionError,
    ServiceError,
)
from repro.service.http import HttpError, HttpFrontEnd
from repro.service.server import ServiceConfig, parse_job_payload
from repro.service.telemetry import Registry

#: Virtual points per worker on the hash ring.
DEFAULT_VNODES = 64

#: How the worker announces its bound port on stdout (server._amain).
_ANNOUNCE_RE = re.compile(r"listening on http://[^:]+:(\d+)")


def _ring_hash(key: str) -> int:
    return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16)


class HashRing:
    """Consistent hashing with virtual nodes.

    Deterministic: the points of worker ``i`` depend only on ``i`` and
    ``vnodes``, so every router instance (and a respawned worker) agrees
    on the mapping, and removing a worker moves only the keys on its arc.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES) -> None:
        self.vnodes = vnodes
        self._hashes: list[int] = []  # sorted point hashes
        self._owners: list[int] = []  # worker id per point, same order

    def _points(self, worker_id: int):
        return (_ring_hash(f"worker-{worker_id}#{r}") for r in range(self.vnodes))

    def add(self, worker_id: int) -> None:
        for point in self._points(worker_id):
            index = bisect.bisect_left(self._hashes, point)
            self._hashes.insert(index, point)
            self._owners.insert(index, worker_id)

    def remove(self, worker_id: int) -> None:
        keep = [
            (h, w) for h, w in zip(self._hashes, self._owners) if w != worker_id
        ]
        self._hashes = [h for h, _ in keep]
        self._owners = [w for _, w in keep]

    def members(self) -> set:
        return set(self._owners)

    def __len__(self) -> int:
        return len(self.members())

    def lookup(self, key: str) -> int:
        """The worker owning ``key``; raises :class:`ReproError` when empty."""
        if not self._hashes:
            raise ReproError("hash ring is empty (no healthy workers)")
        index = bisect.bisect_right(self._hashes, _ring_hash(key))
        if index == len(self._hashes):
            index = 0  # wrap around
        return self._owners[index]


class WorkerBootError(ReproError):
    """A worker process failed to come up and announce its port."""


class FleetConfig:
    """Tunables of one :class:`FleetRouter`.

    ``worker`` is the :class:`~repro.service.server.ServiceConfig` every
    worker process is started with (its ``port`` is forced to 0 — workers
    always bind ephemeral ports and announce them on stdout).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8923,
        fleet: int = 2,
        worker: ServiceConfig | None = None,
        max_inflight: int = 32,
        vnodes: int = DEFAULT_VNODES,
        health_interval: float = 0.25,
        boot_timeout: float = 60.0,
        max_body: int = 1_000_000,
        read_timeout: float = 30.0,
        drain_timeout: float = 30.0,
        respawn_backoff: float = 0.2,
        pool_size: int = 16,
        forward_timeout: float = 300.0,
    ) -> None:
        self.host = host
        self.port = port
        self.fleet = fleet
        self.worker = worker or ServiceConfig()
        self.max_inflight = max_inflight
        self.vnodes = vnodes
        self.health_interval = health_interval
        self.boot_timeout = boot_timeout
        self.max_body = max_body
        self.read_timeout = read_timeout
        self.drain_timeout = drain_timeout
        self.respawn_backoff = respawn_backoff
        self.pool_size = pool_size
        self.forward_timeout = forward_timeout
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.fleet, int) or self.fleet < 1:
            raise ReproError(f"fleet size must be an integer >= 1, got {self.fleet!r}")
        for name, minimum in (("max_inflight", 1), ("vnodes", 1), ("pool_size", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < minimum:
                raise ReproError(
                    f"{name} must be an integer >= {minimum}, got {value!r}"
                )
        for name in ("health_interval", "boot_timeout", "drain_timeout",
                     "respawn_backoff", "forward_timeout", "read_timeout"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ReproError(f"{name} must be a positive number, got {value!r}")


class Worker:
    """One worker process slot: subprocess, pooled client, health state."""

    def __init__(self, worker_id: int, config: FleetConfig) -> None:
        self.id = worker_id
        self.config = config
        self.process: asyncio.subprocess.Process | None = None
        self.client: AsyncServiceClient | None = None
        self.port: int | None = None
        self.healthy = False
        self.inflight = 0  # forwarded requests outstanding (router view)
        self.restarts = 0
        self.respawn_at = 0.0  # monotonic gate for the next respawn attempt
        self._pump_task = None

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def _command(self) -> list:
        worker = self.config.worker
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", worker.host,
            "--port", "0",
            "--workers", str(worker.workers),
            "--window-ms", str(worker.window * 1000.0),
            "--queue-limit", str(worker.max_pending),
            "--max-body", str(worker.max_body),
            "--drain-timeout", str(worker.drain_timeout),
        ]
        if worker.default_deadline_ms is not None:
            cmd += ["--deadline-ms", str(worker.default_deadline_ms)]
        if worker.no_persist:
            cmd += ["--no-persist"]
        else:
            if worker.cache_dir is not None:
                cmd += ["--cache-dir", str(worker.cache_dir)]
            if worker.persist_interval > 0:
                # REPRO_CACHE_DIR may supply the directory via the child's
                # environment even when no --cache-dir was given
                cmd += ["--persist-interval", str(worker.persist_interval)]
        return cmd

    async def spawn(self) -> None:
        """Start the process and wait for its port announcement."""
        env = dict(os.environ)
        # make the repro package importable in the child no matter how the
        # router itself was launched (pytest, pip install -e, PYTHONPATH)
        src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        self.process = await asyncio.create_subprocess_exec(
            *self._command(),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        deadline = time.monotonic() + self.config.boot_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerBootError(
                    f"worker {self.id} did not announce a port within"
                    f" {self.config.boot_timeout}s"
                )
            try:
                raw = await asyncio.wait_for(
                    self.process.stdout.readline(), timeout=remaining
                )
            except asyncio.TimeoutError:
                continue
            if not raw:
                code = await self.process.wait()
                raise WorkerBootError(
                    f"worker {self.id} exited with code {code} before announcing"
                )
            match = _ANNOUNCE_RE.search(raw.decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(1))
                break
        self.client = AsyncServiceClient(
            self.config.worker.host, self.port,
            pool_size=self.config.pool_size,
            timeout=self.config.forward_timeout,
        )
        self.healthy = True
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    async def _pump(self) -> None:
        """Drain the worker's remaining output so its pipe never fills."""
        try:
            while True:
                raw = await self.process.stdout.readline()
                if not raw:
                    return
                line = raw.decode("utf-8", "replace").rstrip()
                if line:
                    print(f"[worker {self.id}] {line}", file=sys.stderr, flush=True)
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            return

    def mark_dead(self) -> None:
        self.healthy = False

    @property
    def exited(self) -> bool:
        return self.process is None or self.process.returncode is not None

    async def close(self) -> None:
        if self.client is not None:
            await self.client.aclose()
        if self._pump_task is not None:
            self._pump_task.cancel()

    def terminate(self) -> None:
        if self.process is not None and self.process.returncode is None:
            try:
                self.process.terminate()
            except ProcessLookupError:  # pragma: no cover - exit race
                pass

    def kill(self) -> None:
        if self.process is not None and self.process.returncode is None:
            try:
                self.process.kill()
            except ProcessLookupError:  # pragma: no cover - exit race
                pass


class RouterTelemetry:
    """The router's own metric set (worker metrics are scraped, not mirrored)."""

    def __init__(self) -> None:
        self.registry = Registry()
        self.requests = self.registry.counter(
            "repro_router_requests_total", "HTTP requests by endpoint and status code"
        )
        self.request_seconds = self.registry.histogram(
            "repro_router_request_seconds", "End-to-end routed request latency (seconds)"
        )
        self.forwards = self.registry.counter(
            "repro_router_forwards_total", "Sub-requests forwarded, by worker"
        )
        self.forward_retries = self.registry.counter(
            "repro_router_forward_retries_total",
            "Sub-requests re-routed after a worker failure",
        )
        self.rejected = self.registry.counter(
            "repro_router_rejected_total", "Requests rejected by shard backpressure (429)"
        )
        self.respawns = self.registry.counter(
            "repro_router_respawns_total", "Worker processes respawned after death"
        )
        self.unroutable = self.registry.counter(
            "repro_router_unroutable_total",
            "Job units that exhausted the forward retry budget",
        )
        self.workers = self.registry.gauge(
            "repro_fleet_workers", "Configured fleet size"
        )
        self.healthy = self.registry.gauge(
            "repro_fleet_healthy_workers", "Workers currently on the hash ring"
        )
        self.inflight_requests = self.registry.gauge(
            "repro_router_inflight_requests", "HTTP requests currently being routed"
        )


class FleetRouter(HttpFrontEnd):
    """The front process: accept, shard, forward, aggregate, supervise."""

    def __init__(self, config: FleetConfig | None = None) -> None:
        super().__init__()
        self.config = config or FleetConfig()
        self.telemetry = RouterTelemetry()
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.workers = [Worker(i, self.config) for i in range(self.config.fleet)]
        self.telemetry.workers.set(self.config.fleet)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the fleet, build the ring, open the listener."""
        results = await asyncio.gather(
            *(worker.spawn() for worker in self.workers), return_exceptions=True
        )
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            for worker in self.workers:
                worker.terminate()
            raise WorkerBootError(
                f"{len(failures)}/{len(self.workers)} workers failed to boot:"
                f" {failures[0]}"
            )
        for worker in self.workers:
            self.ring.add(worker.id)
        self.telemetry.healthy.set(len(self.ring))
        try:
            await self._listen()
        except OSError:  # e.g. the port is taken: leave no orphaned workers
            for worker in self.workers:
                worker.terminate()
            raise
        self._spawn(self._monitor())

    async def _monitor(self) -> None:
        """Detect dead workers, pull them off the ring, respawn with backoff."""
        while not self._draining:
            await asyncio.sleep(self.config.health_interval)
            for worker in self.workers:
                if self._draining:
                    return
                if worker.healthy and worker.exited:
                    self._demote(worker)
                if not worker.healthy and worker.exited:
                    if time.monotonic() < worker.respawn_at:
                        continue
                    await self._respawn(worker)

    def _demote(self, worker: Worker) -> None:
        """Take a dead or unresponsive worker off the ring (idempotent)."""
        if worker.healthy:
            worker.mark_dead()
        if worker.id in self.ring.members():
            self.ring.remove(worker.id)
            self.telemetry.healthy.set(len(self.ring))
        backoff = min(
            5.0, self.config.respawn_backoff * (2 ** min(worker.restarts, 5))
        )
        worker.respawn_at = time.monotonic() + backoff

    async def _respawn(self, worker: Worker) -> None:
        await worker.close()
        worker.restarts += 1
        try:
            await worker.spawn()
        except WorkerBootError:
            self._demote(worker)  # try again after a longer backoff
            return
        if self._draining:
            worker.terminate()
            return
        self.ring.add(worker.id)
        self.telemetry.healthy.set(len(self.ring))
        self.telemetry.respawns.inc()

    async def _drain_backend(self, deadline: float) -> None:
        """Finish routing, then cascade SIGTERM to the workers."""
        await self._wait_idle(deadline)
        for worker in self.workers:
            worker.terminate()
        for worker in self.workers:
            if worker.process is not None:
                remaining = max(0.05, deadline - time.monotonic())
                try:
                    await asyncio.wait_for(worker.process.wait(), timeout=remaining)
                except asyncio.TimeoutError:  # pragma: no cover - stuck worker
                    worker.kill()
            await worker.close()

    # -- endpoints -----------------------------------------------------------

    def _health(self) -> dict:
        status = "draining" if self._draining else (
            "ok" if len(self.ring) else "degraded"
        )
        return {
            "status": status,
            "role": "router",
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "fleet": self.config.fleet,
            "healthy_workers": len(self.ring),
            "workers": [
                {
                    "id": worker.id,
                    "port": worker.port,
                    "pid": worker.pid,
                    "healthy": worker.healthy,
                    "inflight": worker.inflight,
                    "restarts": worker.restarts,
                }
                for worker in self.workers
            ],
        }

    # -- job forwarding ------------------------------------------------------

    async def _jobs(self, kind: str, payload) -> dict:
        specs, deadline_ms, options = parse_job_payload(
            kind, payload, self.config.worker.default_deadline_ms
        )
        entries: list = [None] * len(specs)
        pending = list(range(len(specs)))
        fingerprints = [spec.fingerprint() for spec in specs]
        # bounded re-route attempts: enough cumulative delay (~6s) to cover
        # one worker respawn window, growing geometrically
        delays = (0.0, 0.1, 0.3, 0.9, 2.0, 3.0)
        for attempt, delay in enumerate(delays):
            if not pending:
                break
            if delay:
                await asyncio.sleep(delay)
            groups = self._assign(pending, fingerprints)
            if groups is None:  # empty ring right now — wait for a respawn
                continue
            if attempt == 0:
                self._check_backpressure(groups)
            pending = await self._forward_groups(
                kind, groups, specs, deadline_ms, options, entries,
                retrying=attempt > 0,
            )
        for index in pending:  # retry budget exhausted: per-unit errors
            self.telemetry.unroutable.inc()
            entries[index] = {
                "app": specs[index].app,
                "kind": kind,
                "fingerprint": fingerprints[index],
                "coalesced": False,
                "timed_out": False,
                "error": "no healthy worker could serve this unit",
                "exit_code": 3,
            }
        return {
            "kind": kind,
            "results": entries,
            "timed_out": any(e.get("timed_out") for e in entries),
        }

    def _assign(self, pending, fingerprints):
        """Group pending unit indices by owning worker; None on empty ring."""
        if not len(self.ring):
            return None
        groups: dict = {}
        for index in pending:
            worker_id = self.ring.lookup(fingerprints[index])
            groups.setdefault(worker_id, []).append(index)
        return groups

    def _check_backpressure(self, groups: dict) -> None:
        """Shard-level admission control, before anything is forwarded."""
        for worker_id, indices in groups.items():
            worker = self.workers[worker_id]
            if worker.inflight + 1 > self.config.max_inflight:
                self.telemetry.rejected.inc()
                raise HttpError(
                    429,
                    f"shard {worker_id} is at its in-flight cap"
                    f" ({worker.inflight}/{self.config.max_inflight} requests)",
                )

    async def _forward_groups(
        self, kind, groups, specs, deadline_ms, options, entries, retrying=False
    ):
        """Forward one sub-request per worker group; return still-pending indices."""
        ordered = sorted(groups.items())
        tasks = [
            self._forward_one(
                kind, self.workers[worker_id], indices, specs, deadline_ms,
                options, retrying=retrying,
            )
            for worker_id, indices in ordered
        ]
        # return_exceptions so every sibling forward settles before any
        # error propagates — no orphan tasks with unretrieved exceptions
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        failure = None
        still_pending: list = []
        for (_worker_id, indices), outcome in zip(ordered, outcomes):
            if isinstance(outcome, BaseException):
                failure = failure or outcome
            elif outcome is None:
                still_pending.extend(indices)
            else:
                for index, entry in zip(indices, outcome):
                    entries[index] = entry
        if failure is not None:
            raise failure
        return still_pending

    async def _forward_one(
        self, kind, worker, indices, specs, deadline_ms, options, retrying=False
    ):
        """One sub-request to one worker; returns its entries or None to re-route."""
        payload = {"apps": [specs[i].app for i in indices], **options}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        worker.inflight += 1
        self.telemetry.forwards.inc(worker=str(worker.id))
        if retrying:
            self.telemetry.forward_retries.inc(amount=len(indices))
        try:
            response = await worker.client.request_json("POST", f"/{kind}", payload)
        except ServiceBusyError as exc:
            # shard admission control fired: surface the 429 as our own
            self.telemetry.rejected.inc()
            raise HttpError(429, str(exc))
        except ServiceConnectionError:
            self._demote(worker)
            return None
        except ServiceError as exc:
            if exc.status == 503:  # worker began draining under us
                self._demote(worker)
                return None
            raise HttpError(exc.status, str(exc))
        finally:
            worker.inflight -= 1
        results = response.get("results", [])
        if len(results) != len(indices):  # pragma: no cover - defensive
            raise HttpError(502, f"worker {worker.id} returned a malformed batch")
        return results

    # -- metrics aggregation -------------------------------------------------

    async def _metrics(self) -> str:
        """Router registry + every live worker's scrape, worker-labelled."""
        chunks = [self.telemetry.registry.render()]
        scrapes = await asyncio.gather(
            *(self._scrape(worker) for worker in self.workers),
            return_exceptions=True,
        )
        seen_meta: set = set()
        lines: list = []
        for worker, scrape in zip(self.workers, scrapes):
            if not isinstance(scrape, str):
                continue
            for line in scrape.splitlines():
                if not line:
                    continue
                if line.startswith("#"):
                    # one HELP/TYPE per metric across the whole fleet
                    parts = line.split(" ", 3)
                    key = (parts[1] if len(parts) > 1 else "?",
                           parts[2] if len(parts) > 2 else "?")
                    if key in seen_meta:
                        continue
                    seen_meta.add(key)
                    lines.append(line)
                    continue
                lines.append(_relabel(line, worker.id))
        chunks.append("\n".join(lines) + ("\n" if lines else ""))
        return "".join(chunks)

    async def _scrape(self, worker: Worker):
        if not worker.healthy or worker.client is None:
            return None
        try:
            return await worker.client.metrics()
        except (ServiceError, ServiceConnectionError, ReproError):
            return None


def _relabel(sample_line: str, worker_id: int) -> str:
    """Inject ``worker="<id>"`` into one Prometheus sample line."""
    name_part, _sep, value = sample_line.rpartition(" ")
    if not name_part:
        return sample_line
    if "{" in name_part:
        name, labels = name_part.split("{", 1)
        return f'{name}{{worker="{worker_id}",{labels} {value}'
    return f'{name_part}{{worker="{worker_id}"}} {value}'


async def _amain(config: FleetConfig, announce=print) -> int:
    router = FleetRouter(config)
    await router.start()
    announce(
        f"repro fleet router listening on http://{config.host}:{router.port}"
        f" (fleet={config.fleet}, max_inflight={config.max_inflight},"
        f" vnodes={config.vnodes})",
        flush=True,
    )
    await router.serve_forever()
    announce("repro fleet drained cleanly", flush=True)
    return 0


def serve_fleet(config: FleetConfig | None = None) -> int:
    """Blocking entry point used by ``repro serve --fleet N``."""
    return asyncio.run(_amain(config or FleetConfig()))
