"""Every discharged obligation, pinned verdict by verdict.

``data/obligation_golden.json`` holds, for each bundled app analysed as
``repro analyze`` does (tpcc at ``--budget 24 --ladder extended
--snapshot``), one record per obligation of every level attempt and
snapshot check: the verdict's ``interferes``, ``confidence``, ``method``
and ``note`` (``N scenario cases examined`` for a BMC scan), and the
witness kind and text.  Level tables alone would hide a scan that counts
cases differently or finds a different first witness; these records do
not.  Regenerate (only when a change is meant to alter a verdict) with::

    PYTHONPATH=src python tests/core/test_obligation_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.cache import VerdictCache
from repro.pipeline.jobs import JobSpec, run_job

GOLDEN_PATH = Path(__file__).parent / "data" / "obligation_golden.json"

RUNS = {
    "banking": {},
    "customers": {},
    "employees": {},
    "orders": {},
    "tpcc": {"budget": 24, "ladder": "extended", "snapshot": True},
}


def _record(obligation) -> dict:
    verdict = obligation.verdict
    record = {
        "target": obligation.target,
        "assertion": obligation.assertion.label,
        "source": obligation.source,
        "mode": obligation.mode,
        "statement": repr(obligation.statement) if obligation.statement is not None else None,
        "excused": obligation.excused,
    }
    if verdict is not None:
        record.update(
            interferes=verdict.interferes,
            confidence=verdict.confidence,
            method=verdict.method,
            note=verdict.note,
            witness=(
                [verdict.witness.kind, verdict.witness.description]
                if verdict.witness is not None
                else None
            ),
        )
    return record


def obligation_records(app: str) -> list:
    """One record per obligation, in report order, for one app's analysis."""
    job = run_job(
        JobSpec(kind="analyze", app=app, **RUNS[app]), cache=VerdictCache(), no_persist=True
    )
    checks = [
        attempt for choice in job.report.choices for attempt in choice.attempts
    ] + list(job.report.snapshot_checks)
    return [
        {"transaction": check.transaction, "level": check.level, **_record(ob)}
        for check in checks
        for ob in check.obligations
    ]


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_pins_bmc_notes_and_witnesses():
    records = [r for app in RUNS for r in GOLDEN[app]]
    assert any(r.get("note", "").endswith("scenario cases examined") for r in records)
    assert any((r.get("witness") or [None])[0] == "concrete" for r in records)
    assert any((r.get("witness") or [None])[0] == "rollback" for r in records)


@pytest.mark.parametrize("app", list(RUNS))
def test_obligations_match_golden(app):
    assert obligation_records(app) == GOLDEN[app]


if __name__ == "__main__":
    out = {app: obligation_records(app) for app in RUNS}
    # one record per line keeps a diff of the golden readable
    GOLDEN_PATH.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(app)}: [\n"
            + ",\n".join(json.dumps(r, sort_keys=True) for r in records)
            + "\n]"
            for app, records in out.items()
        )
        + "\n}\n"
    )
    sys.stdout.write(f"wrote {sum(map(len, out.values()))} records to {GOLDEN_PATH}\n")
