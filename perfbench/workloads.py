"""The workload registry.

``in_process``: units run inside the benchmark process, so set-up is
sampled in fresh launcher children (import plus one warm-up unit).
``refill``: whole passes repeat while another one fits in the window;
fuzz-corpus runs one pass (a second would meet warm memo tables and a
settled ledger).  service-mix runs its own window.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    module: str
    in_process: bool
    refill: bool


WORKLOADS = {
    "static-cold": Workload("static_cold", in_process=False, refill=True),
    "explore-probes": Workload("explore_probes", in_process=True, refill=True),
    "fuzz-corpus": Workload("fuzz_corpus", in_process=True, refill=False),
    "service-mix": Workload("service_mix", in_process=False, refill=False),
}


def module(name: str):
    return importlib.import_module(WORKLOADS[name].module)


def warmup(name: str, seed: int) -> None:
    module(name).warmup(seed)
