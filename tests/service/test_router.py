"""Tests for the fleet router: hash ring units and multi-process e2e.

The e2e tests boot a real :class:`FleetRouter` in the test's event loop,
which spawns real ``repro serve`` worker subprocesses — the exact
topology ``repro serve --fleet N`` runs — and talk to it with the
blocking client moved off-loop, mirroring ``tests/service/test_server.py``.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.errors import ReproError
from repro.pipeline.jobs import JobSpec, run_job
from repro.service.client import ServiceBusyError, ServiceClient
from repro.service.router import (
    FleetConfig,
    FleetRouter,
    HashRing,
    _relabel,
)
from repro.service.server import ServiceConfig


class TestHashRing:
    def test_spreads_keys_across_workers(self):
        ring = HashRing()
        for wid in range(4):
            ring.add(wid)
        owners = {ring.lookup(f"key-{i}") for i in range(2000)}
        assert owners == {0, 1, 2, 3}

    def test_lookup_is_deterministic(self):
        a, b = HashRing(), HashRing()
        for wid in (0, 1, 2):
            a.add(wid)
            b.add(wid)
        keys = [f"key-{i}" for i in range(500)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_removal_moves_only_the_dead_workers_keys(self):
        ring = HashRing()
        for wid in range(4):
            ring.add(wid)
        keys = [f"key-{i}" for i in range(1000)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(2)
        after = {k: ring.lookup(k) for k in keys}
        moved = {k for k in keys if before[k] != after[k]}
        assert moved == {k for k in keys if before[k] == 2}
        assert all(after[k] != 2 for k in keys)

    def test_respawn_restores_the_original_mapping(self):
        ring = HashRing()
        for wid in range(3):
            ring.add(wid)
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(1)
        ring.add(1)
        assert {k: ring.lookup(k) for k in keys} == before

    def test_empty_ring_raises(self):
        with pytest.raises(ReproError, match="no healthy workers"):
            HashRing().lookup("anything")

    def test_members_tracks_the_live_set(self):
        ring = HashRing(vnodes=8)
        ring.add(0)
        ring.add(5)
        assert ring.members() == {0, 5}
        assert len(ring) == 2
        ring.remove(0)
        assert ring.members() == {5}


class TestMetricRelabeling:
    def test_labelled_sample_gains_worker_label_first(self):
        line = 'repro_requests_total{endpoint="/analyze",status="200"} 7'
        assert _relabel(line, 3) == (
            'repro_requests_total{worker="3",endpoint="/analyze",status="200"} 7'
        )

    def test_bare_sample_gains_a_label_set(self):
        assert _relabel("repro_queue_depth 2", 0) == 'repro_queue_depth{worker="0"} 2'


def fleet_test(handler, fleet=2, router_overrides=None, **worker_overrides):
    """Boot a router + real worker subprocesses, run ``handler``, drain."""
    worker_overrides.setdefault("no_persist", True)
    worker_overrides.setdefault("window", 0.0)
    worker_overrides.setdefault("workers", 1)

    async def main():
        config = FleetConfig(
            port=0,
            fleet=fleet,
            worker=ServiceConfig(port=0, **worker_overrides),
            health_interval=0.1,
            respawn_backoff=0.05,
            **(router_overrides or {}),
        )
        router = FleetRouter(config)
        await router.start()
        client = ServiceClient(port=router.port, timeout=60)
        try:
            return await handler(router, client)
        finally:
            router.begin_drain()
            await asyncio.wait_for(router._stopped.wait(), timeout=60)

    return asyncio.run(main())


class TestFleetEndToEnd:
    def test_healthz_reports_the_whole_fleet(self):
        async def handler(router, client):
            health = await asyncio.to_thread(client.health)
            assert health["http_status"] == 200
            assert health["status"] == "ok"
            assert health["role"] == "router"
            assert health["fleet"] == 2
            assert health["healthy_workers"] == 2
            assert len(health["workers"]) == 2
            for entry in health["workers"]:
                assert entry["healthy"] is True
                assert isinstance(entry["pid"], int)
                assert isinstance(entry["port"], int)

        fleet_test(handler)

    def test_analyze_byte_identical_to_batch_and_single_server(self):
        spec = JobSpec(kind="analyze", app="banking", budget=150)
        batch = run_job(spec, no_persist=True)

        async def handler(router, client):
            response = await asyncio.to_thread(client.analyze, "banking", budget=150)
            (entry,) = response["results"]
            assert entry["fingerprint"] == spec.fingerprint()
            assert json.dumps(entry["result"], indent=2) == json.dumps(
                batch.payload, indent=2
            )
            assert entry["exit_code"] == batch.exit_code

        fleet_test(handler)

    def test_duplicate_specs_land_on_one_shard_and_coalesce(self):
        async def handler(router, client):
            response = await asyncio.to_thread(
                client.analyze, ["banking", "banking"], budget=150, seed=7
            )
            first, second = response["results"]
            assert first["fingerprint"] == second["fingerprint"]
            assert first["exit_code"] == second["exit_code"] == 0
            # fingerprint routing sends duplicates to the same worker, whose
            # batcher coalesces them — the second entry rides the first
            assert second["coalesced"] is True

        fleet_test(handler)

    def test_multi_app_batch_preserves_request_order(self):
        async def handler(router, client):
            apps = ["banking", "employees", "customers", "banking"]
            response = await asyncio.to_thread(client.lint, apps)
            assert [e["app"] for e in response["results"]] == apps
            assert all(e["exit_code"] == 0 for e in response["results"])

        fleet_test(handler)

    def test_metrics_aggregates_workers_with_labels(self):
        async def handler(router, client):
            await asyncio.to_thread(client.lint, "banking")
            text = await asyncio.to_thread(client.metrics)
            assert "repro_router_requests_total" in text
            assert 'worker="0"' in text and 'worker="1"' in text
            # worker HELP/TYPE lines are deduplicated across the fleet
            type_lines = [
                line for line in text.splitlines()
                if line.startswith("# TYPE repro_requests_total ")
            ]
            assert len(type_lines) == 1

        fleet_test(handler)

    def test_shard_backpressure_answers_429_before_forwarding(self):
        async def handler(router, client):
            spec = JobSpec(kind="lint", app="banking")
            owner = router.ring.lookup(spec.fingerprint())
            router.workers[owner].inflight = router.config.max_inflight
            with pytest.raises(ServiceBusyError):
                await asyncio.to_thread(client.lint, "banking")
            router.workers[owner].inflight = 0
            response = await asyncio.to_thread(client.lint, "banking")
            assert response["results"][0]["exit_code"] == 0
            assert router.telemetry.rejected.value() >= 1

        fleet_test(handler, router_overrides={"max_inflight": 2})

    def test_worker_kill_rebalances_then_respawns(self):
        async def handler(router, client):
            # kill the shard that owns the lint fingerprint, so the follow-up
            # request provably re-routes instead of landing on the survivor
            spec = JobSpec(kind="lint", app="banking")
            owner = router.ring.lookup(spec.fingerprint())
            victim = router.workers[owner].pid
            os.kill(victim, signal.SIGKILL)
            # requests issued right after the kill re-route to the survivor —
            # graceful degradation, never a 5xx
            response = await asyncio.to_thread(client.lint, "banking")
            assert response["results"][0]["exit_code"] == 0
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                health = await asyncio.to_thread(client.health)
                if health["healthy_workers"] == 2 and any(
                    w["restarts"] for w in health["workers"]
                ):
                    break
                await asyncio.sleep(0.2)
            assert health["healthy_workers"] == 2
            assert any(w["restarts"] == 1 for w in health["workers"])
            assert victim not in {w["pid"] for w in health["workers"]}

        fleet_test(handler)

    def test_draining_router_answers_503(self):
        async def handler(router, client):
            router._draining = True
            try:
                status, text = await asyncio.to_thread(
                    client.request, "POST", "/analyze", {"app": "banking"}
                )
            finally:
                router._draining = False
            assert status == 503
            assert "draining" in text

        fleet_test(handler)


class TestFleetBoot:
    def test_taken_port_terminates_the_spawned_workers(self):
        async def main():
            blocker = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = blocker.sockets[0].getsockname()[1]
            router = FleetRouter(
                FleetConfig(
                    port=port, fleet=1,
                    worker=ServiceConfig(port=0, no_persist=True, workers=1),
                )
            )
            try:
                with pytest.raises(OSError):
                    await router.start()
                (worker,) = router.workers
                code = await asyncio.wait_for(worker.process.wait(), timeout=30)
                assert code is not None
                await worker.close()
            finally:
                blocker.close()
                await blocker.wait_closed()

        asyncio.run(main())


class TestFleetConfigValidation:
    @pytest.mark.parametrize(
        ("kwargs", "fragment"),
        [
            ({"fleet": 0}, "fleet"),
            ({"fleet": "two"}, "fleet"),
            ({"max_inflight": 0}, "max_inflight"),
            ({"vnodes": 0}, "vnodes"),
            ({"pool_size": 0}, "pool_size"),
            ({"health_interval": 0}, "health_interval"),
            ({"boot_timeout": -1}, "boot_timeout"),
            ({"drain_timeout": 0}, "drain_timeout"),
            ({"forward_timeout": 0}, "forward_timeout"),
        ],
    )
    def test_nonsense_knobs_rejected(self, kwargs, fragment):
        with pytest.raises(ReproError, match=fragment):
            FleetConfig(**kwargs)

    def test_defaults_validate(self):
        config = FleetConfig()
        assert config.fleet == 2
        assert config.worker.workers >= 1
