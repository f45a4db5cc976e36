"""``explore <app> --all --json`` is pinned byte for byte.

The goldens under ``tests/sched/data/`` hold every scenario's run,
schedule, sleep-pruning, race and reversal counts plus its witnesses, so a
change to the race analysis, the explorer or the engine that moves any of
them fails here (and in the CI DPOR smoke, which compares the CLI output
with the same files).
"""

from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("app", ["tpcc", "banking"])
def test_explore_all_read_uncommitted_matches_golden(app, capsys):
    status = main(["explore", app, "--all", "--level", "READ UNCOMMITTED", "--json"])
    assert status == 1  # the violations-found status
    golden = (DATA / f"explore_{app}_ru.json").read_text()
    assert capsys.readouterr().out == golden
