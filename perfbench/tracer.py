"""Benchmark-owned span tracer for the traced (``--trace 1``) runs.

The program has no span API of its own, so the benchmark wraps the public
functions at each layer boundary from the outside: :func:`install` replaces
the module attribute (or class attribute) with a ``functools.wraps``
wrapper and rebinds every name an already-imported ``repro`` module bound
with ``from X import f``.  Imports made after installation resolve to the
wrapper through the module attribute.

Each call opens a frame on a per-thread stack.  On exit the tracer adds

* the call to its *group* (``core.prover``, ``sched.explore``, ...): a call
  count and, for the outermost call of the group on the stack, its
  inclusive time;
* the frame's *self time* (duration minus the time its child frames
  cover) to its *layer* (``core``, ``sched``, ``engine``, ``pipeline``,
  ``infer``, ``fuzz``, ``service``);
* a span record (name, start, end, parent, trace id) unless the target is
  marked hot, in which case only the aggregates are kept.

Everything stays in memory.  :meth:`Tracer.raw` returns plain sums, which
merge across processes by addition; :func:`layer_metrics` turns merged
sums into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter

#: Per-layer metric names and units, in ``BENCHMARK.json`` order.
JOB_KINDS = ("analyze", "certify", "lint")
LAYERS = ("core", "sched", "engine", "pipeline", "infer", "fuzz", "service")

PER_LAYER_UNITS = {
    "core.analyze_ms": "ms",
    "core.obligations": "count",
    "core.obligation_ms": "ms",
    "core.tier.disjoint": "count",
    "core.tier.symbolic": "count",
    "core.tier.bmc": "count",
    "core.tier.sdg_pruned": "count",
    "core.prover_calls": "count",
    "core.prover_ms": "ms",
    "core.prover_memo_hit_ratio": "ratio",
    "core.verdict_cache_hit_ratio": "ratio",
    "core.import_ms": "ms",
    "sched.explore_calls": "count",
    "sched.explore_ms": "ms",
    "sched.runs": "count",
    "sched.schedules": "count",
    "sched.races": "count",
    "sched.reversals": "count",
    "sched.pruned_sleep": "count",
    "sched.truncated": "count",
    "sched.schedules_per_run": "ratio",
    "sched.semantic_ms": "ms",
    "sched.anomalies_ms": "ms",
    "engine.begins": "count",
    "engine.commits": "count",
    "engine.aborts": "count",
    "engine.abort_ratio": "ratio",
    "engine.snapshot_captures": "count",
    "engine.vacuum_reclaimed": "count",
    "pipeline.probe_ms": "ms",
    **{f"pipeline.job_ms.{kind}": "ms" for kind in JOB_KINDS},
    "infer.calls": "count",
    "infer.ms": "ms",
    "infer.oracle_explorations": "count",
    "fuzz.generate_ms": "ms",
    "fuzz.infer_ms": "ms",
    "fuzz.choose_ms": "ms",
    "fuzz.probe_ms": "ms",
    "fuzz.ledger_ms": "ms",
    "fuzz.verdict.SOUND": "count",
    "fuzz.verdict.UNSTABLE": "count",
    "fuzz.verdict.UNSOUND": "count",
    "fuzz.tight": "count",
    "fuzz.informative_ratio": "ratio",
    "service.lint_p50_ms": "ms",
    "service.analyze_hit_p50_ms": "ms",
    "service.analyze_miss_p50_ms": "ms",
    "service.certify_p50_ms": "ms",
    "service.latency_p50_ms": "ms",
    "service.latency_p90_ms": "ms",
    "service.overhead_ms": "ms",
    "service.coalesced": "count",
    "service.rejected": "count",
    "service.batch_size_mean": "count",
    **{f"self_ms.{layer}": "ms" for layer in LAYERS},
    "trace.uncovered_share": "ratio",
    "trace.spans": "count",
    "trace.throughput_per_min": "1/min",
    "trace.overhead_per_min": "1/min",
}

#: Per-layer metrics where a larger value is better (``BENCHMARK.json``).
HIGHER_IS_BETTER = {
    "core.tier.disjoint",
    "core.tier.symbolic",
    "core.tier.sdg_pruned",
    "core.prover_memo_hit_ratio",
    "core.verdict_cache_hit_ratio",
    "sched.pruned_sleep",
    "sched.schedules_per_run",
    "engine.vacuum_reclaimed",
    "fuzz.verdict.SOUND",
    "fuzz.tight",
    "fuzz.informative_ratio",
    "service.coalesced",
    "service.batch_size_mean",
    "trace.throughput_per_min",
}

#: Counts that must repeat exactly for a fixed seed (checked by repeat.py).
REPEATABLE_COUNTS = (
    "core.obligations",
    "core.tier.disjoint",
    "core.tier.symbolic",
    "core.tier.bmc",
    "core.tier.sdg_pruned",
    "sched.explore_calls",
    "sched.runs",
    "sched.schedules",
    "sched.races",
    "sched.reversals",
    "sched.pruned_sleep",
    "sched.truncated",
    "engine.begins",
    "engine.commits",
    "engine.aborts",
    "infer.calls",
    "infer.oracle_explorations",
    "fuzz.verdict.SOUND",
    "fuzz.verdict.UNSTABLE",
    "fuzz.verdict.UNSOUND",
    "fuzz.tight",
)

SPAN_CAP = 200_000


class _Frame:
    __slots__ = ("name", "layer", "group", "start", "child", "parent", "span")

    def __init__(self, name, layer, group, start, parent, span):
        self.name = name
        self.layer = layer
        self.group = group
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.span = span

    def has_ancestor(self, name: str) -> bool:
        frame = self.parent
        while frame is not None:
            if frame.name == name:
                return True
            frame = frame.parent
        return False


class Tracer:
    """In-memory span and counter sink shared by every wrapper."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts = Counter()  # sums: calls, inclusive ms, self ms, hook counts
        self.spans = []  # (id, parent, trace, name, layer, tid, start_s, end_s)
        self.covered = Counter()  # trace id -> root-span seconds
        self.trace_id = 0  # set by the benchmark before each unit
        self._span_ids = itertools.count(1)

    def _state(self):
        local = self._local
        if not hasattr(local, "top"):
            local.top = None
            local.depth = Counter()
        return local

    def enter(self, name: str, layer: str, group: str, record: bool) -> _Frame:
        local = self._state()
        span = next(self._span_ids) if record else None
        local.depth[group] += 1
        frame = _Frame(name, layer, group, time.perf_counter(), local.top, span)
        local.top = frame
        return frame

    def exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        local = self._local
        local.top = frame.parent
        local.depth[frame.group] -= 1
        duration = end - frame.start
        outermost = local.depth[frame.group] == 0
        with self._lock:
            counts = self.counts
            counts[f"calls:{frame.group}"] += 1
            if outermost:
                counts[f"incl:{frame.group}"] += duration
            counts[f"self:{frame.layer}"] += duration - frame.child
            if frame.parent is None:
                self.covered[self.trace_id] += duration
            if frame.span is not None and len(self.spans) < SPAN_CAP:
                self.spans.append((
                    frame.span,
                    frame.parent.span if frame.parent is not None else None,
                    self.trace_id,
                    frame.name,
                    frame.layer,
                    threading.get_ident(),
                    frame.start,
                    end,
                ))
        if frame.parent is not None:
            frame.parent.child += duration
        return duration

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, fn, name, layer, group, record=True, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            frame = tracer.enter(name, layer, group, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.exit(frame)
            if after is not None:
                after(tracer, frame, duration, state, args, kwargs, result)
            return result

        return wrapper

    def raw(self) -> dict:
        """Mergeable sums (process-wide program stats included)."""
        with self._lock:
            data = dict(self.counts)
        data["spans"] = len(self.spans)
        for key, value in _program_stats().items():
            data[key] = value - _BASELINE.get(key, 0)
        return data

    def chrome_events(self, pid: int) -> list:
        """The recorded spans as Chrome trace-event ``X`` events."""
        return [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": span, "parent": parent, "trace": trace},
            }
            for span, parent, trace, name, layer, tid, start, end in self.spans
        ]


TRACER = Tracer()
_BASELINE: dict = {}
_CACHES: list = []  # every VerdictCache made after install (kept alive)


# -- hooks ------------------------------------------------------------------


def _checker_of(args, kwargs):
    checker = args[1] if len(args) > 1 else kwargs.get("checker")
    return checker, (dict(checker.stats) if checker is not None else None)


def _after_analyze(tracer, frame, duration, state, args, kwargs, result):
    checker, before = state
    if checker is not None:
        for tier in ("disjoint", "symbolic", "bmc", "sdg_pruned"):
            tracer.add(f"tier:{tier}", checker.stats.get(tier, 0) - before.get(tier, 0))
    if frame.parent is not None and frame.parent.name == "run_case":
        tracer.add("fuzz:choose", duration)


def _after_infer(tracer, frame, duration, state, args, kwargs, result):
    if frame.parent is not None and frame.parent.name == "run_case":
        tracer.add("fuzz:infer", duration)


def _after_explore(tracer, frame, duration, state, args, kwargs, result):
    for field in ("runs", "schedules", "races", "reversals", "pruned_sleep"):
        tracer.add(f"explore:{field}", getattr(result, field, 0))
    tracer.add("explore:truncated", 1 if getattr(result, "truncated", False) else 0)
    if frame.has_ancestor("infer_application"):
        tracer.add("infer:oracle_explorations")


def _after_run_case(tracer, frame, duration, state, args, kwargs, result):
    tracer.add(f"verdict:{result.verdict}")
    if result.tightness == "TIGHT":
        tracer.add("verdict:TIGHT")


def _after_run_job(tracer, frame, duration, state, args, kwargs, result):
    spec = args[0] if args else kwargs.get("spec")
    tracer.add(f"job:{getattr(spec, 'kind', 'unknown')}", duration)


#: (module, attribute path, layer, group, record spans, before, after)
TARGETS = (
    ("repro.core.chooser", "analyze_application", "core", "core.analyze", True,
     _checker_of, _after_analyze),
    ("repro.core.interference", "InterferenceChecker.check_statement", "core",
     "core.obligation", True, None, None),
    ("repro.core.interference", "InterferenceChecker.check_unit", "core",
     "core.obligation", True, None, None),
    ("repro.core.interference", "InterferenceChecker.check_rollback", "core",
     "core.obligation", True, None, None),
    ("repro.core.prover", "is_valid", "core", "core.prover", False, None, None),
    ("repro.core.prover", "is_satisfiable", "core", "core.prover", False, None, None),
    ("repro.core.prover", "holds", "core", "core.prover", False, None, None),
    ("repro.sched.explore", "explore", "sched", "sched.explore", True, None,
     _after_explore),
    ("repro.sched.semantic", "check_semantic_correctness", "sched", "sched.semantic",
     False, None, None),
    ("repro.sched.anomalies", "detect_all", "sched", "sched.anomalies", False, None,
     None),
    ("repro.engine.manager", "Engine.begin", "engine", "engine.begin", False, None,
     None),
    ("repro.engine.manager", "Engine.commit", "engine", "engine.commit", False, None,
     None),
    ("repro.engine.manager", "Engine.abort", "engine", "engine.abort", False, None,
     None),
    ("repro.pipeline.certify", "run_probe", "pipeline", "pipeline.probe", True, None,
     None),
    ("repro.pipeline.jobs", "run_job", "pipeline", "pipeline.job", True, None,
     _after_run_job),
    ("repro.core.infer", "infer_application", "infer", "infer", True, None,
     _after_infer),
    ("repro.fuzz.differential", "run_case", "fuzz", "fuzz.case", True, None,
     _after_run_case),
    ("repro.workloads.appgen", "generate_application", "fuzz", "fuzz.generate", True,
     None, None),
    ("repro.fuzz.differential", "explore_probe", "fuzz", "fuzz.probe", True, None,
     None),
    ("repro.fuzz.ledger", "CorpusLedger.record", "fuzz", "fuzz.ledger", True, None,
     None),
    ("repro.fuzz.ledger", "CorpusLedger.load", "fuzz", "fuzz.ledger", True, None,
     None),
    ("repro.service.server", "parse_job_payload", "service", "service.parse", True,
     None, None),
    ("repro.service.server", "ReproService._execute", "service", "service.execute",
     True, None, None),
    ("repro.service.batcher", "Batcher.admit", "service", "service.admit", True, None,
     None),
)


def _program_stats() -> dict:
    """Process-wide counters the program keeps itself."""
    from repro.core.cache import shared_cache
    from repro.core.prover import prover_cache_stats
    from repro.engine.storage import STORAGE_STATS

    prover = prover_cache_stats()
    caches = {id(c): c for c in _CACHES}
    shared = shared_cache()
    caches[id(shared)] = shared
    return {
        "prover:query_hits": prover.get("query_hits", 0),
        "prover:query_misses": prover.get("query_misses", 0),
        "cache:hits": sum(c.stats.hits for c in caches.values()),
        "cache:misses": sum(c.stats.misses for c in caches.values()),
        "storage:snapshot_captures": STORAGE_STATS.snapshot_captures,
        "storage:vacuum_reclaimed": STORAGE_STATS.vacuum_reclaimed,
    }


def install() -> None:
    """Wrap every target (once per process, before the measured units)."""
    for module_name, path, layer, group, record, before, after in TARGETS:
        module = importlib.import_module(module_name)
        owner = module
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = TRACER.wrap(original, attr, layer, group, record, before, after)
        setattr(owner, attr, wrapper)
        if owner is module:
            _rebind(original, wrapper)
    from repro.core.cache import VerdictCache

    init = VerdictCache.__init__

    @functools.wraps(init)
    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _CACHES.append(self)

    VerdictCache.__init__ = tracked_init
    _BASELINE.update(_program_stats())


def _rebind(original, wrapper) -> None:
    """Point every ``from X import f`` name in loaded repro modules at the wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def merge(raws) -> dict:
    total = Counter()
    for raw in raws:
        total.update(raw)
    return dict(total)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values (without the workload-measured ones)."""
    g = raw.get
    ms = 1000.0
    prover_hits, prover_misses = g("prover:query_hits", 0), g("prover:query_misses", 0)
    cache_hits, cache_misses = g("cache:hits", 0), g("cache:misses", 0)
    begins, aborts = g("calls:engine.begin", 0), g("calls:engine.abort", 0)
    runs = g("explore:runs", 0)
    verdicts = {v: g(f"verdict:{v}", 0) for v in ("SOUND", "UNSTABLE", "UNSOUND")}
    cases = sum(verdicts.values())
    metrics = {
        "core.analyze_ms": g("incl:core.analyze", 0) * ms,
        "core.obligations": g("calls:core.obligation", 0),
        "core.obligation_ms": g("incl:core.obligation", 0) * ms,
        "core.tier.disjoint": g("tier:disjoint", 0),
        "core.tier.symbolic": g("tier:symbolic", 0),
        "core.tier.bmc": g("tier:bmc", 0),
        "core.tier.sdg_pruned": g("tier:sdg_pruned", 0),
        "core.prover_calls": g("calls:core.prover", 0),
        "core.prover_ms": g("incl:core.prover", 0) * ms,
        "core.prover_memo_hit_ratio": _ratio(prover_hits, prover_hits + prover_misses),
        "core.verdict_cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "core.import_ms": _ratio(g("import_s", 0), g("processes", 0)) * ms,
        "sched.explore_calls": g("calls:sched.explore", 0),
        "sched.explore_ms": g("incl:sched.explore", 0) * ms,
        "sched.runs": runs,
        "sched.schedules": g("explore:schedules", 0),
        "sched.races": g("explore:races", 0),
        "sched.reversals": g("explore:reversals", 0),
        "sched.pruned_sleep": g("explore:pruned_sleep", 0),
        "sched.truncated": g("explore:truncated", 0),
        "sched.schedules_per_run": _ratio(g("explore:schedules", 0), runs),
        "sched.semantic_ms": g("incl:sched.semantic", 0) * ms,
        "sched.anomalies_ms": g("incl:sched.anomalies", 0) * ms,
        "engine.begins": begins,
        "engine.commits": g("calls:engine.commit", 0),
        "engine.aborts": aborts,
        "engine.abort_ratio": _ratio(aborts, begins),
        "engine.snapshot_captures": g("storage:snapshot_captures", 0),
        "engine.vacuum_reclaimed": g("storage:vacuum_reclaimed", 0),
        "pipeline.probe_ms": g("incl:pipeline.probe", 0) * ms,
        **{f"pipeline.job_ms.{k}": g(f"job:{k}", 0) * ms for k in JOB_KINDS},
        "infer.calls": g("calls:infer", 0),
        "infer.ms": g("incl:infer", 0) * ms,
        "infer.oracle_explorations": g("infer:oracle_explorations", 0),
        "fuzz.generate_ms": g("incl:fuzz.generate", 0) * ms,
        "fuzz.infer_ms": g("fuzz:infer", 0) * ms,
        "fuzz.choose_ms": g("fuzz:choose", 0) * ms,
        "fuzz.probe_ms": g("incl:fuzz.probe", 0) * ms,
        "fuzz.ledger_ms": g("incl:fuzz.ledger", 0) * ms,
        **{f"fuzz.verdict.{v}": n for v, n in verdicts.items()},
        "fuzz.tight": g("verdict:TIGHT", 0),
        "fuzz.informative_ratio": _ratio(cases - verdicts["UNSTABLE"], cases),
        **{f"self_ms.{layer}": g(f"self:{layer}", 0) * ms for layer in LAYERS},
        "trace.spans": g("spans", 0),
    }
    return metrics


def dump(path: str, extra: dict) -> None:
    """Write this process's sums, covered time and spans for a parent run."""
    payload = {
        "raw": TRACER.raw(),
        "covered_s": sum(TRACER.covered.values()),
        "events": TRACER.chrome_events(os.getpid()),
        **extra,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
