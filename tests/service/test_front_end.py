"""The shared HTTP front end, exercised through both of its users.

The worker server (:class:`ReproService`) and the fleet router
(:class:`FleetRouter`) serve requests through one
:class:`~repro.service.http.HttpFrontEnd`; every test here runs against
both, over real sockets.
"""

import asyncio
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.router import FleetConfig, FleetRouter
from repro.service.server import ReproService, ServiceConfig

READ_TIMEOUT = 0.3
DRAIN_TIMEOUT = 6.0


def boot_worker():
    return ReproService(
        ServiceConfig(
            port=0, no_persist=True, window=0.0,
            read_timeout=READ_TIMEOUT, drain_timeout=DRAIN_TIMEOUT,
        )
    )


def boot_router():
    return FleetRouter(
        FleetConfig(
            port=0, fleet=1,
            worker=ServiceConfig(port=0, no_persist=True, window=0.0, workers=1),
            health_interval=0.1,
            read_timeout=READ_TIMEOUT, drain_timeout=DRAIN_TIMEOUT,
        )
    )


FRONTS = {
    "worker": (boot_worker, "repro_requests_total"),
    "router": (boot_router, "repro_router_requests_total"),
}


async def silent_connection(port: int) -> bytes:
    """Open a connection, send nothing, return whatever the server says."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await asyncio.wait_for(reader.read(), timeout=READ_TIMEOUT * 20)
    finally:
        writer.close()


@pytest.mark.parametrize("front", sorted(FRONTS))
def test_silent_connection_gets_a_counted_408_and_drain_stays_prompt(front):
    boot, requests_series = FRONTS[front]

    async def main():
        server = boot()
        await server.start()
        drained = False
        try:
            reply = await silent_connection(server.port)
            assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n"), reply
            assert server.telemetry.requests.value(endpoint="?", status="408") == 1
            metrics = await asyncio.to_thread(ServiceClient(port=server.port).metrics)
            assert f'{requests_series}{{endpoint="?",status="408"}} 1' in metrics
            # the /metrics scrape itself has finished too: nothing in flight
            assert server.telemetry.inflight_requests.value() == 0
            started = time.monotonic()
            server.begin_drain()
            await asyncio.wait_for(server._stopped.wait(), timeout=DRAIN_TIMEOUT * 4)
            drained = True
            assert time.monotonic() - started < DRAIN_TIMEOUT / 2
        finally:
            if not drained:
                server.begin_drain()
                await asyncio.wait_for(server._stopped.wait(), timeout=60)

    asyncio.run(main())
