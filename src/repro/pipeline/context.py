"""The shared run context threaded through the certification pipeline.

One :class:`RunContext` carries the knobs both halves of the pipeline
need — the static chooser (verdict cache, BMC budget/seed) and the
dynamic explorer (run bounds) — so a ``certify`` call configures
everything once and the stats of both layers land in one sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cache import VerdictCache, shared_cache
from repro.core.interference import InterferenceChecker


@dataclass
class RunContext:
    """Seeds, bounds, cache and stats shared across pipeline stages."""

    seed: int = 0
    budget: int = 3000  # BMC sample budget per obligation
    max_schedules: int | None = 500  # exploration run bound per scenario
    max_depth: int | None = None  # exploration decision bound per run
    cache: VerdictCache | None = None  # None -> process-shared cache
    cache_dir: str | None = None  # persistent store directory (None -> env/off)
    no_persist: bool = False  # force the persistent store off
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = shared_cache()

    def store(self):
        """The persistent verdict store, or None when persistence is off."""
        from repro.core.persist import open_store

        return open_store(self.cache_dir, no_persist=self.no_persist)

    def checker(self, spec) -> InterferenceChecker:
        """A fresh interference checker wired to this context."""
        return InterferenceChecker(spec, budget=self.budget, seed=self.seed, cache=self.cache)

    def record(self, stage: str, **payload) -> None:
        """Merge one stage's statistics into the shared sink."""
        self.stats.setdefault(stage, {}).update(payload)
