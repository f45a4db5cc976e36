"""The fuzz corpus ledger is pinned byte for byte.

``data/ledger_appgen_0_11.jsonl`` holds the canonical rows of appgen
seeds 0–11 settled on a fresh ledger (SHA-256 ``dc29c546…``, the digest
perfbench's fuzz-corpus oracle checks).  A change that moves any chooser
level, fuzz verdict, tightness or witness of those seeds fails here.

The same run ratchets the prover: every query it asks is decided within
the search's node budget, and no more obligations fall through to bounded
model checking than the count measured when the search replaced the
capped DNF expansion (499 before it).
"""

from pathlib import Path

import pytest

from repro.core import prover
from repro.core.interference import InterferenceChecker
from repro.fuzz.ledger import CorpusLedger
from repro.fuzz.runner import FuzzRunner

GOLDEN = Path(__file__).parent / "data" / "ledger_appgen_0_11.jsonl"

#: Obligations of appgen 0–11 that reach BMC (``InterferenceChecker._bmc``).
BMC_OBLIGATIONS = 237


@pytest.fixture(scope="module")
def settled(tmp_path_factory):
    """Settle appgen 0–11 on a fresh ledger from empty prover memos:
    the summary, the ledger, the BMC call count and every prover answer."""
    corpus = tmp_path_factory.mktemp("corpus")
    bmc_calls = []
    original = InterferenceChecker._bmc

    def counted(self, *args, **kwargs):
        bmc_calls.append(None)
        return original(self, *args, **kwargs)

    prover.clear_prover_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(InterferenceChecker, "_bmc", counted)
        summary = FuzzRunner(range(12), corpus_dir=str(corpus)).run()
    answers = [result for key, result in prover._query_memo.items() if key[0] == "sat"]
    ledger = CorpusLedger(str(corpus))
    ledger.load()
    return summary, ledger, len(bmc_calls), answers


def test_appgen_0_to_11_ledger_matches_golden(settled):
    summary, ledger, _bmc, _answers = settled
    assert summary["explored"] == 12
    assert ledger.canonical_bytes() == GOLDEN.read_bytes()


def test_appgen_0_to_11_prover_decides_within_budget(settled):
    _summary, _ledger, bmc, answers = settled
    assert answers
    over_budget = [r for r in answers if r.reason == "search node budget exceeded"]
    assert not over_budget, len(over_budget)
    assert bmc <= BMC_OBLIGATIONS, bmc
