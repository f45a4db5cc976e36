"""E19 — sharded fleet throughput: 1/8/32 clients x 1/2/4 workers.

The fleet router (``repro serve --fleet N``) shards jobs across worker
processes by JobSpec fingerprint, which buys two things at once: distinct
jobs spread over N cores, and duplicate jobs still land on one shard
where the worker's batcher coalesces them.  This bench measures both.

Workload: each round submits ``width`` concurrent analyze requests
through the pooled :class:`AsyncServiceClient`.  Seeds are paired — every
spec appears twice in a round — so half the requests are coalescable
duplicates, and every round uses fresh seeds so the work is real CPU
(seed and budget are part of the interference cache fingerprint: a new
seed is a cold analysis).  Every fleet size sees the identical workload.

Scaling honesty: the aggregate-throughput assertion (>= 2.5x for 4
workers vs 1 at 32 clients) only fires when the machine actually has >= 4
usable cores — pure-Python analysis cannot scale past the cores the
container grants, and a benchmark asserting otherwise would only ever
pass by measuring something else.  On smaller machines the bench asserts
the fleet does not *collapse* (router overhead stays bounded) and records
the measured ratio plus the machine topology in BENCH_service_sharded.json
so readers can interpret the number.
"""

import asyncio
import time

import pytest

from benchmarks._report import emit, emit_json, topology
from repro.core.report import format_table
from repro.service.client import AsyncServiceClient
from repro.service.router import FleetConfig, FleetRouter
from repro.service.server import ServiceConfig

APP = "banking"
BUDGET = 150
CONCURRENCY = (1, 8, 32)
FLEETS = (1, 2, 4)

#: Aggregate throughput target for 4 workers vs 1 at 32 clients — asserted
#: only when the machine has at least this many usable cores.
SCALING_TARGET = 2.5
SCALING_CORES = 4

#: On smaller machines the fleet must still not collapse under the extra
#: routing hop: 4-worker throughput stays within 2x of 1-worker.
NO_COLLAPSE_FLOOR = 0.5


def _sum_metric(metrics_text: str, name: str) -> float:
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


async def _run_fleet(fleet: int) -> dict:
    """Boot a fleet, run every concurrency round, scrape, drain."""
    config = FleetConfig(
        port=0,
        fleet=fleet,
        worker=ServiceConfig(port=0, no_persist=True, window=0.0, workers=2),
        health_interval=0.25,
    )
    router = FleetRouter(config)
    await router.start()
    client = AsyncServiceClient("127.0.0.1", router.port, pool_size=32, timeout=300)

    async def one_request(seed: int):
        start = time.perf_counter()
        response = await client.analyze(APP, budget=BUDGET, seed=seed)
        latency_ms = (time.perf_counter() - start) * 1000
        return latency_ms, response

    rounds = {}
    seed_base = 1000  # identical seed schedule for every fleet size
    submitted = 0
    for width in CONCURRENCY:
        # paired seeds: every spec appears twice -> half the round can
        # coalesce on its shard; fresh seeds -> the other half is real work
        seeds = [seed_base + i // 2 for i in range(width)]
        seed_base += width
        submitted += width
        start = time.perf_counter()
        outcomes = await asyncio.gather(*[one_request(seed) for seed in seeds])
        wall_ms = (time.perf_counter() - start) * 1000
        rounds[width] = {"wall_ms": wall_ms, "outcomes": outcomes}

    metrics_text = await client.metrics()
    health = await client.health()
    await client.aclose()
    router.begin_drain()
    await asyncio.wait_for(router._stopped.wait(), timeout=60)
    return {
        "fleet": fleet,
        "rounds": rounds,
        "submitted": submitted,
        "coalesced": _sum_metric(metrics_text, "repro_coalesced_total"),
        "respawns": _sum_metric(metrics_text, "repro_router_respawns_total"),
        "healthy_workers": health["healthy_workers"],
        "client_stats": dict(client.stats),
    }


@pytest.fixture(scope="module")
def measurements():
    async def main():
        return {fleet: await _run_fleet(fleet) for fleet in FLEETS}

    return asyncio.run(main())


def _round_stats(round_data):
    latencies = sorted(latency for latency, _ in round_data["outcomes"])
    width = len(latencies)
    return {
        "clients": width,
        "wall_ms": round(round_data["wall_ms"], 1),
        "throughput_rps": round(1000.0 * width / round_data["wall_ms"], 2),
        "p50_ms": round(_quantile(latencies, 0.50), 1),
        "p99_ms": round(_quantile(latencies, 0.99), 1),
    }


def _scaling_ratio(measurements) -> float:
    one = _round_stats(measurements[1]["rounds"][32])["throughput_rps"]
    four = _round_stats(measurements[4]["rounds"][32])["throughput_rps"]
    return four / one


def test_bench_service_sharded(measurements):
    """Emit the E19 table and BENCH_service_sharded.json."""
    machine = topology()
    rows = []
    fleets_payload = {}
    for fleet in FLEETS:
        data = measurements[fleet]
        stats = [_round_stats(data["rounds"][w]) for w in CONCURRENCY]
        hit_rate = data["coalesced"] / data["submitted"]
        fleets_payload[str(fleet)] = {
            "rounds": stats,
            "coalesced_total": data["coalesced"],
            "coalescing_hit_rate": round(hit_rate, 3),
            "pool_stats": data["client_stats"],
        }
        for s in stats:
            rows.append(
                (str(fleet), str(s["clients"]), f"{s['wall_ms']:.0f}",
                 f"{s['throughput_rps']:.2f}", f"{s['p50_ms']:.0f}",
                 f"{s['p99_ms']:.0f}")
            )
    ratio = _scaling_ratio(measurements)
    asserted = machine["usable_cores"] >= SCALING_CORES
    rows.append(("4 vs 1", "32", "-", f"{ratio:.2f}x", "-", "-"))
    emit(
        "E19-service-sharded",
        format_table(
            ("workers", "clients", "wall ms", "req/s", "p50 ms", "p99 ms"), rows
        )
        + f"\nscaling 4v1 at 32 clients: {ratio:.2f}x"
        f" ({'asserted >= ' + str(SCALING_TARGET) if asserted else 'recorded only: ' + str(machine['usable_cores']) + ' usable cores'})",
    )
    emit_json(
        "BENCH_service_sharded",
        {
            "config": {
                "app": APP,
                "kind": "analyze",
                "budget": BUDGET,
                "concurrency": list(CONCURRENCY),
                "fleet_sizes": list(FLEETS),
                "worker_config": {"workers": 2, "window": 0.0},
            },
            "fleets": fleets_payload,
            "scaling_ratio_32clients_4v1": round(ratio, 3),
            "scaling_assertion": (
                f"asserted >= {SCALING_TARGET}" if asserted
                else f"recorded only ({machine['usable_cores']} usable cores"
                f" < {SCALING_CORES})"
            ),
            "topology": {**machine, "fleet_sizes": list(FLEETS)},
        },
    )


def test_every_request_succeeds_at_every_topology(measurements):
    """No 5xx, no rejections, no timeouts at any width x fleet point."""
    for fleet in FLEETS:
        for width in CONCURRENCY:
            for _latency, response in measurements[fleet]["rounds"][width]["outcomes"]:
                assert response["timed_out"] is False
                for entry in response["results"]:
                    assert entry.get("error") is None
                    assert entry["exit_code"] == 0


def test_fleet_stays_healthy_with_no_respawns(measurements):
    """The bench load alone must never kill or restart a worker."""
    for fleet in FLEETS:
        assert measurements[fleet]["healthy_workers"] == fleet
        assert measurements[fleet]["respawns"] == 0


def test_per_shard_coalescing_is_preserved(measurements):
    """Duplicate specs route to one shard and coalesce there, at every
    fleet size — the property sharding by fingerprint exists to keep."""
    for fleet in FLEETS:
        assert measurements[fleet]["coalesced"] > 0, (
            f"fleet={fleet}: paired duplicate specs never coalesced"
        )


def test_pooled_client_reuses_connections(measurements):
    """The async client's keep-alive pool does what it claims."""
    for fleet in FLEETS:
        stats = measurements[fleet]["client_stats"]
        assert stats["reuses"] > 0
        assert stats["connects"] <= 32 + stats["stale_retries"]


def test_aggregate_throughput_scales_or_is_honestly_recorded(measurements):
    """>= 2.5x for 4 workers vs 1 at 32 clients — asserted only where the
    machine can physically deliver it; a no-collapse floor everywhere."""
    ratio = _scaling_ratio(measurements)
    if topology()["usable_cores"] >= SCALING_CORES:
        assert ratio >= SCALING_TARGET, (
            f"4-worker fleet only {ratio:.2f}x a 1-worker fleet at 32 clients"
        )
    else:
        assert ratio >= NO_COLLAPSE_FLOOR, (
            f"fleet overhead collapse: 4 workers at {ratio:.2f}x of 1 worker"
        )
