"""repro.service — a long-lived analysis server over the batch pipeline.

The batch CLI pays the full warm-up bill (hash-consing tables, prover
memos, verdict cache, persistent store) on every invocation; the service
keeps one warmed process alive and answers a stream of analyze / certify /
lint requests over JSON-HTTP at the warm cost.  Pieces:

* :mod:`repro.service.telemetry` — counters, gauges and fixed-bucket
  latency histograms with Prometheus text rendering;
* :mod:`repro.service.batcher` — request coalescing, fingerprint-based
  deduplication and the bounded worker pool;
* :mod:`repro.service.http` — the one asyncio HTTP/1.1 front end
  (listener, keep-alive loop, request accounting, route table, graceful
  drain) shared by the worker server and the fleet router;
* :mod:`repro.service.server` — the worker server: batcher admission
  control, per-request deadlines and the verdict store;
* :mod:`repro.service.router` — the fleet router sharding jobs across
  worker processes;
* :mod:`repro.service.client` — a small blocking client used by
  ``repro submit``, the tests and the benchmarks.

Everything is stdlib-only: ``asyncio`` streams plus a hand-rolled
HTTP/1.1 request parser, no third-party server framework.

The package re-exports nothing, so ``analyze --stats`` can take
:class:`~repro.service.telemetry.Registry` without loading the server and
``asyncio``.  Import from the submodules.
"""
