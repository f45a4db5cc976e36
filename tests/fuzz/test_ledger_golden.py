"""The fuzz corpus ledger is pinned byte for byte.

``data/ledger_appgen_0_11.jsonl`` holds the canonical rows of appgen
seeds 0–11 settled on a fresh ledger (SHA-256 ``dc29c546…``, the digest
perfbench's fuzz-corpus oracle checks).  A change that moves any chooser
level, fuzz verdict, tightness or witness of those seeds fails here.
"""

from pathlib import Path

from repro.fuzz.ledger import CorpusLedger
from repro.fuzz.runner import FuzzRunner

GOLDEN = Path(__file__).parent / "data" / "ledger_appgen_0_11.jsonl"


def test_appgen_0_to_11_ledger_matches_golden(tmp_path):
    summary = FuzzRunner(range(12), corpus_dir=str(tmp_path)).run()
    assert summary["explored"] == 12
    ledger = CorpusLedger(str(tmp_path))
    ledger.load()
    assert ledger.canonical_bytes() == GOLDEN.read_bytes()
