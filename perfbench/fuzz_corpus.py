"""fuzz-corpus: ``FuzzRunner`` settling a fixed appgen block on a fresh ledger.

One process settles appgen seeds 0-11 (default generator and probe
knobs), one seed per runner call so each case is timed as a unit.  The
chooser on generated apps, infer's CEGIS oracle, the probe explorations
and the ledger writes do the work.  The block and its order are fixed;
the workload seed does not enter (NOTES.md: both change the work by more
than the bound).
"""

from __future__ import annotations

import hashlib
import shutil
import time

import oracles
from common import out_dir

#: The untimed warm-up case: a cheap appgen seed outside the block.
WARMUP_SEED = 33


def warmup(seed: int) -> None:
    from repro.fuzz.differential import run_case

    run_case(WARMUP_SEED)


def run_pass(seed: int, seconds: float, trace: bool, sink, index: int) -> None:
    import tracer
    from repro.fuzz.ledger import CorpusLedger
    from repro.fuzz.runner import FuzzRunner

    corpus = out_dir("fuzz-corpus") / f"ledger-{seed}-{int(trace)}-{index}"
    shutil.rmtree(corpus, ignore_errors=True)
    for number, appgen_seed in enumerate(oracles.FUZZ_SEEDS):
        unit_id = index * 1000 + number
        tracer.TRACER.trace_id = unit_id
        started = time.perf_counter()
        summary = FuzzRunner(range(appgen_seed, appgen_seed + 1), corpus_dir=str(corpus)).run()
        wall = time.perf_counter() - started
        problem = None
        if summary["explored"] != 1:
            problem = f"appgen:{appgen_seed}: explored {summary['explored']} cases"
        elif summary["verdicts"]["UNSOUND"]:
            problem = f"appgen:{appgen_seed}: UNSOUND"
        sink.unit(wall, problem, f"appgen:{appgen_seed}")
        if trace:
            sink.covered_unit(tracer.TRACER.covered[unit_id], wall)
    ledger = CorpusLedger(str(corpus))
    ledger.load()
    digest = hashlib.sha256(ledger.canonical_bytes()).hexdigest()
    sink.note("fuzz ledger sha256", digest)
    ok = len(ledger) == len(oracles.FUZZ_SEEDS) and digest == oracles.FUZZ_LEDGER_SHA256
    sink.check(ok, f"ledger canonical bytes {digest} != {oracles.FUZZ_LEDGER_SHA256}")
