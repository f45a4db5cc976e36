"""service-mix: a ``repro serve --no-persist`` process under 2 closed-loop clients.

Each client keeps one keep-alive connection and sends its next request
only after the previous reply, for a fixed number of mix cycles sized to
``--seconds``; the server runs one job at a time (``--workers 1``, see
``JOB_WORKERS``).  The request mix:
lint, a repeated analyze (verdict-cache hits), analyze with a fresh BMC
seed per request (misses served by a warm process) and certify banking
(explorer-bound).  It is the only workload that exercises HTTP, the
batcher and job dispatch, and it runs the static path warm.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from common import BENCH_DIR, canonical, median, out_dir, percentile, program_env

BOOTS = 7  # set-up is the median over several boots; the last one serves
CLIENTS = 2
#: One job worker: with the default two, concurrent jobs in one process can
#: serve payloads that differ from run_job (concurrency_check.py, NOTES.md).
JOB_WORKERS = 1
HOST = "127.0.0.1"
#: One client's cycle of 48 requests: certify once, a miss every eighth
#: request, lint and hit alternating in between.  Each client sends whole
#: cycles (fixed work), the second one starting half a cycle later, so
#: every run serves the same mix.  With one job worker a slow job delays
#: at most one request of the other client; the shares put p50 among the
#: fast requests and p90 among the misses.
MIX = tuple(
    "certify" if i == 24 else "miss" if i % 8 == 4 else ("lint", "hit")[i % 2]
    for i in range(48)
)
#: Each client sends one cycle per this many seconds of --seconds: three
#: cycles (288 requests) at 20 s, about 25 s of serving on a 2-core x86-64
#: host.  Fewer samples left p90 spreading by a fifth between runs.
SECONDS_PER_CYCLE = 20 / 3
#: BMC budget of the miss requests (a fresh seed defeats the verdict cache;
#: at the default budget one miss would cost a third of a certify).
MISS_BUDGET = 30
ANNOUNCE = re.compile(r"listening on http://[^:]+:(\d+)")


def request(kind: str, seed: int, client: int, sent: int) -> tuple:
    """(endpoint, body) of request number ``sent`` of class ``kind`` from ``client``.

    lint and hit carry a per-client seed, so the two clients never send the
    same spec at once: coalescing would otherwise answer a timing-dependent
    share of them for free (a third of all requests in one traced run).
    """
    own = seed * CLIENTS + client
    if kind == "lint":
        return "/lint", {"app": "orders", "seed": own}
    if kind == "hit":
        return "/analyze", {"app": "employees", "seed": own}
    if kind == "miss":
        fresh = seed * 1_000_000 + 1000 * (client + 1) + sent
        return "/analyze", {"app": "employees", "seed": fresh, "budget": MISS_BUDGET}
    return "/certify", {"app": "banking", "seed": seed}


class Server:
    """One boot of the service through the benchmark's launcher."""

    def __init__(self, trace: bool, tag: str) -> None:
        directory = out_dir("service-mix")
        self.report = directory / f"server-{tag}.json"
        self.report.unlink(missing_ok=True)
        self.stderr = open(directory / f"server-{tag}.stderr", "wb")
        command = [sys.executable, str(BENCH_DIR / "launch.py"), "serve",
                   str(self.report), "1" if trace else "0", "--",
                   "serve", "--host", HOST, "--port", "0", "--no-persist",
                   "--workers", str(JOB_WORKERS)]
        self.spawn = time.monotonic()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.stderr,
            env=program_env(PERFBENCH_SPAWN=repr(self.spawn)),
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode(errors="replace")
        finally:
            watchdog.cancel()
        self.rss_mb = 0.0
        match = ANNOUNCE.search(line)
        try:
            if match is None:
                raise RuntimeError(f"service did not announce a port: {line!r}")
            self.port = int(match.group(1))
            self.setup_s = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                status, _body = self.get("/healthz")
                if status == 200:
                    return time.monotonic() - self.spawn
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("service never answered /healthz with 200")

    def get(self, path: str) -> tuple:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, reap with rusage; the trace report."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            watchdog = threading.Timer(60.0, self.proc.kill)
            watchdog.start()
            try:
                self.proc.stdout.read()
                _pid, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                watchdog.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()
        self.stderr.close()
        try:
            with open(self.report) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


def metric_sums(text: str) -> dict:
    """Sum every sample of each Prometheus series name, labels ignored."""
    sums: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        name = name.split("{", 1)[0]
        try:
            sums[name] = sums.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return sums


class Client(threading.Thread):
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, number: int, port: int, seed: int, requests: int) -> None:
        super().__init__(daemon=True)
        self.number = number
        self.port = port
        self.seed = seed
        self.requests = requests
        self.records: list = []  # (kind, endpoint, body, status, reply, seconds)
        self.error: str | None = None

    def run(self) -> None:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=120)
        step = self.number * len(MIX) // CLIENTS
        sent = 0
        try:
            while sent < self.requests:
                kind = MIX[(step + sent) % len(MIX)]
                endpoint, body = request(kind, self.seed, self.number, sent)
                data = json.dumps(body).encode()
                started = time.perf_counter()
                conn.request("POST", endpoint, body=data,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                reply = response.read()
                seconds = time.perf_counter() - started
                self.records.append((kind, endpoint, body, response.status, reply, seconds))
                sent += 1
        except Exception as exc:  # noqa: BLE001 - reported as a failed unit
            self.error = f"client {self.number}: {type(exc).__name__}: {exc}"
        finally:
            conn.close()


def check_reply(endpoint, body, status, reply, expected: dict) -> str | None:
    """Byte identity of the served payload with ``run_job`` on the same spec."""
    if status != 200:
        return f"POST {endpoint} {body}: HTTP {status}"
    try:
        entries = json.loads(reply)["results"]
        (entry,) = entries
    except (ValueError, KeyError, TypeError):
        return f"POST {endpoint} {body}: malformed reply"
    key = canonical([endpoint, body])
    if key not in expected:
        from repro.pipeline.jobs import JobSpec, run_job

        job = run_job(JobSpec.from_dict(body, kind=endpoint.lstrip("/")), no_persist=True)
        expected[key] = (canonical(job.payload), job.exit_code)
    payload, exit_code = expected[key]
    if canonical(entry.get("result")) != payload or entry.get("exit_code") != exit_code:
        mismatch = out_dir("service-mix") / f"mismatch-{len(expected)}.json"
        mismatch.write_bytes(b"%s\n%s\n" % (canonical(entry), payload))
        return f"POST {endpoint} {body}: payload differs from run_job (see {mismatch})"
    return None


def run_pass(seed: int, seconds: float, trace: bool, sink, index: int) -> float:
    """One boot-measure-check cycle; returns the seconds the clients ran."""
    phases = {"start": time.monotonic()}
    for boot in range(BOOTS - 1):
        server = Server(trace=False, tag=f"boot{boot}")
        sink.setup.append(server.setup_s)
        server.stop()
    server = Server(trace=trace, tag="serve")
    sink.setup.append(server.setup_s)
    try:
        # an untimed lint and hit per client fill the verdict cache for hits
        records = []
        conn = http.client.HTTPConnection(HOST, server.port, timeout=120)
        for client, kind in ((c, k) for c in range(CLIENTS) for k in ("lint", "hit")):
            endpoint, body = request(kind, seed, client, 0)
            conn.request("POST", endpoint, body=json.dumps(body).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            records.append((kind, endpoint, body, response.status, response.read(), 0.0))
        conn.close()
        phases["warm"] = time.monotonic()
        before = metric_sums(server.get("/metrics")[1].decode())
        started = time.monotonic()
        requests = len(MIX) * max(1, round(seconds / SECONDS_PER_CYCLE))
        clients = [Client(n, server.port, seed, requests) for n in range(CLIENTS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        window = time.monotonic() - started
        after = metric_sums(server.get("/metrics")[1].decode())
    finally:
        phases["window"] = time.monotonic()
        report = server.stop()
    phases["stop"] = time.monotonic()
    sink.rss_mb = max(sink.rss_mb, server.rss_mb)
    expected: dict = {}
    for kind, endpoint, body, status, reply, _seconds in records:
        sink.check(check_reply(endpoint, body, status, reply, expected) is None,
                   f"warm-up {kind} reply differs")
    by_kind: dict = {}
    for client in clients:
        if client.error:
            sink.check(False, client.error)
        for kind, endpoint, body, status, reply, elapsed in client.records:
            sink.unit(elapsed, check_reply(endpoint, body, status, reply, expected), kind)
            by_kind.setdefault(kind, []).append(elapsed)
    phases["oracle"] = time.monotonic()
    marks = list(phases.items())
    sink.note("phase seconds", {
        name: round(end - begin, 3) for (_, begin), (name, end) in zip(marks, marks[1:])
    })
    if trace:
        delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
        sink.child(report)
        # a request's spans are its job's; the rest is HTTP, batching, queueing
        waited = sum(e for c in clients for *_, e in c.records)
        sink.covered_unit(delta.get("repro_job_seconds_sum", 0.0), waited)
        sink.layer.update(service_layer(by_kind, delta))
    return window


def service_layer(by_kind: dict, delta: dict) -> dict:
    def mean(total, count):
        return delta.get(total, 0.0) / delta[count] if delta.get(count) else 0.0

    every = [seconds for samples in by_kind.values() for seconds in samples]

    return {
        "service.lint_p50_ms": median(by_kind.get("lint", [])) * 1000,
        "service.analyze_hit_p50_ms": median(by_kind.get("hit", [])) * 1000,
        "service.analyze_miss_p50_ms": median(by_kind.get("miss", [])) * 1000,
        "service.certify_p50_ms": median(by_kind.get("certify", [])) * 1000,
        "service.latency_p50_ms": median(every) * 1000,
        "service.latency_p90_ms": percentile(every, 90) * 1000,
        "service.overhead_ms": 1000 * (
            mean("repro_request_seconds_sum", "repro_request_seconds_count")
            - mean("repro_job_seconds_sum", "repro_job_seconds_count")
        ),
        "service.coalesced": delta.get("repro_coalesced_total", 0.0),
        "service.rejected": delta.get("repro_rejected_total", 0.0),
        "service.batch_size_mean": mean("repro_batch_size_sum", "repro_batch_size_count"),
    }
