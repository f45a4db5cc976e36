"""The MVCC engine against its parity golden, and against the isolation axioms.

Two checks stand where a lockstep harness once ran the MVCC engine beside
the frozen pre-MVCC engine it replaced:

* **Parity golden.**  ``data/engine_parity.json`` records what both
  engines answered, in lockstep and in agreement, at commit ``a0055da``
  (the last commit that carried the old engine), under
  ``PYTHONHASHSEED=0``.  For the six scripted
  cases of :class:`TestScriptedParity` and the workloads
  :func:`workload` draws from seeds ``0..GOLDEN_SEEDS-1`` it holds every
  step's outcome (the value returned, or the exception's type and
  payload, WouldBlock's key and mode), a 16-hex digest of the canonical
  live and committed states after every step, and the final history op
  for op — ``HistoryOp.version`` included, since recorded histories are
  replayed and compared byte for byte elsewhere in the pipeline.  The
  MVCC engine alone must reproduce all of it, except ``seed:254``:
  it was re-recorded from the MVCC engine when SNAPSHOT commits began
  validating their write set in sorted key order (under hash seed 0 the
  old set order named ``('row', 'T', 2)`` where sorted order names
  ``('item', 'y')``).  The seeded workloads replay in an interpreter
  under the recorded hash seed;
  :func:`test_snapshot_commit_names_the_same_key_under_any_hash_seed`
  checks that the key a commit names no longer follows string hashing.
* **Isolation axioms.**  A hypothesis property runs random workloads with
  every transaction at one level and requires the committed history to
  pass that level's client-centric commit test
  (:mod:`repro.sched.isolation`), an oracle that shares none of the
  engine's code.
"""

import functools
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.core.state import DbState
from repro.engine.locks import WouldBlock
from repro.engine.manager import Engine
from repro.errors import ReproError
from repro.sched.isolation import isolation_violations

GOLDEN = pathlib.Path(__file__).parent / "data" / "engine_parity.json"

#: seeded workloads the golden pins, and the hash seed it was recorded under
GOLDEN_SEEDS = 300
GOLDEN_HASH_SEED = "0"

LEVELS = (
    "READ UNCOMMITTED",
    "READ COMMITTED",
    "READ COMMITTED FCW",
    "REPEATABLE READ",
    "SNAPSHOT",
    "SERIALIZABLE",
)


def initial_state() -> DbState:
    return DbState(
        items={"x": 5, "y": 0},
        arrays={"acct": {0: {"bal": 10}, 1: {"bal": 3}}},
        tables={"T": [{"k": 1}, {"k": 3}]},
    )


def _ge_pred(threshold):
    return lambda row: row["k"] >= threshold


def _bump_changes(delta):
    return lambda row: {"k": row["k"] + delta}


def attempt(engine, txn, method: str, args: tuple) -> tuple:
    """One engine call as a comparable outcome."""
    try:
        return ("ok", getattr(engine, method)(txn, *args))
    except WouldBlock as exc:
        # blocker ids are engine-local; the contended granule is not
        return ("WouldBlock", exc.key, exc.mode)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def digest(state: DbState) -> str:
    return hashlib.sha256(repr(state.canonical()).encode()).hexdigest()[:16]


def step_label(name: str, method: str, args: tuple) -> str:
    shown = ", ".join("fn" if callable(arg) else repr(arg) for arg in args)
    return f"{name}.{method}({shown})"


def history_rows(engine: Engine) -> list:
    return plain(
        [(op.kind, op.key, op.version, op.dirty_from, op.info) for op in engine.history]
    )


@functools.lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class GoldenEngine:
    """Drive the MVCC engine and diff every step against one golden case."""

    def __init__(self, case: str) -> None:
        self.case = case
        self.expected = golden()[case]
        self.engine = Engine(initial_state())
        self.txns: dict = {}
        self.step = 0

    def begin(self, name: str, level: str) -> None:
        self.txns[name] = self.engine.begin(level)
        self._check(f"{name}.begin({level!r})", None)

    def op(self, name: str, method: str, *args):
        outcome = attempt(self.engine, self.txns[name], method, args)
        self._check(step_label(name, method, args), outcome)
        return outcome

    def _check(self, label: str, outcome) -> None:
        where = f"{self.case} step {self.step}: {label}"
        assert self.step < len(self.expected["steps"]), f"{where}: past the golden"
        want = self.expected["steps"][self.step]
        got = [label, plain(outcome), digest(self.engine.public_live()),
               digest(self.engine.committed_state())]
        assert got == want, f"{where}: got {got}, golden {want}"
        self.step += 1

    def check_history(self) -> None:
        assert self.step == len(self.expected["steps"]), f"{self.case}: steps missing"
        assert history_rows(self.engine) == self.expected["history"], self.case


class TestScriptedParity:
    def driver(self, case: str):
        return GoldenEngine(case)

    def test_plain_read_write_commit(self):
        dual = self.driver("plain_read_write_commit")
        dual.begin("a", "READ COMMITTED")
        dual.op("a", "read_item", "x")
        dual.op("a", "write_item", "x", 9)
        dual.op("a", "commit")
        dual.check_history()

    def test_abort_restores_everything(self):
        dual = self.driver("abort_restores_everything")
        dual.begin("a", "REPEATABLE READ")
        dual.op("a", "write_item", "x", 9)
        dual.op("a", "write_field", "acct", 0, "bal", 99)
        dual.op("a", "insert", "T", {"k": 7})
        dual.op("a", "update", "T", _ge_pred(3), _bump_changes(10))
        dual.op("a", "delete", "T", _ge_pred(0))
        dual.op("a", "abort")
        dual.check_history()

    def test_si_buffered_writes_and_fcw(self):
        dual = self.driver("si_buffered_writes_and_fcw")
        dual.begin("a", "SNAPSHOT")
        dual.begin("b", "SNAPSHOT")
        dual.op("a", "read_item", "x")
        dual.op("b", "read_item", "x")
        dual.op("a", "write_item", "x", 6)
        dual.op("b", "write_item", "x", 7)
        dual.op("a", "commit")
        outcome = dual.op("b", "commit")  # first-committer-wins abort
        assert outcome[0] == "FirstCommitterWinsAbort"
        dual.check_history()

    def test_si_relational_ops(self):
        dual = self.driver("si_relational_ops")
        dual.begin("a", "SNAPSHOT")
        dual.op("a", "insert", "T", {"k": 10})
        dual.op("a", "select", "T", _ge_pred(0))
        dual.op("a", "update", "T", _ge_pred(3), _bump_changes(1))
        dual.op("a", "delete", "T", _ge_pred(11))
        dual.op("a", "select", "T", _ge_pred(0))
        dual.op("a", "commit")
        dual.check_history()

    def test_snapshot_reader_spans_writer_commits(self):
        dual = self.driver("snapshot_reader_spans_writer_commits")
        dual.begin("r", "SNAPSHOT")
        dual.op("r", "read_field", "acct", 0, "bal")
        for round_no in (1, 2, 3):
            name = f"w{round_no}"
            dual.begin(name, "READ COMMITTED")
            dual.op(name, "write_field", "acct", 0, "bal", 10 + round_no)
            dual.op(name, "commit")
            dual.op("r", "read_field", "acct", 0, "bal")  # still 10
        dual.op("r", "commit")
        dual.check_history()

    def test_blocked_writer_and_unknown_locations(self):
        dual = self.driver("blocked_writer_and_unknown_locations")
        dual.begin("a", "READ COMMITTED")
        dual.begin("b", "READ COMMITTED")
        dual.op("a", "write_item", "x", 1)
        outcome = dual.op("b", "write_item", "x", 2)
        assert outcome[0] == "WouldBlock"
        outcome = dual.op("b", "read_item", "nope")
        assert outcome[0] == "EvaluationError"
        dual.op("a", "commit")
        dual.op("b", "write_item", "x", 2)
        dual.op("b", "commit")
        dual.check_history()


# -- seeded random workloads ---------------------------------------------------

_OPS = (
    ("read_item", "x"),
    ("read_item", "y"),
    ("write_item:x",),
    ("write_item:y",),
    ("read_field", "acct", 0, "bal"),
    ("read_field", "acct", 1, "bal"),
    ("write_field:0",),
    ("write_field:1",),
    ("select",),
    ("insert",),
    ("update",),
    ("delete",),
)


def _materialise(op, value):
    """Turn an op token into (method, args) with a concrete value."""
    kind = op[0]
    if kind.startswith("write_item:"):
        return ("write_item", (kind.split(":")[1], value))
    if kind.startswith("write_field:"):
        return ("write_field", ("acct", int(kind.split(":")[1]), "bal", value))
    if kind == "select":
        return ("select", ("T", _ge_pred(value % 4)))
    if kind == "insert":
        return ("insert", ("T", {"k": value % 7}))
    if kind == "update":
        return ("update", ("T", _ge_pred(value % 4), _bump_changes(1 + value % 3)))
    if kind == "delete":
        return ("delete", ("T", _ge_pred(3 + value % 4)))
    return (kind, tuple(op[1:]))


def workload(rng: random.Random, level: str | None = None):
    """2-3 transactions of 1-4 ops each, and a schedule interleaving them.

    Each transaction draws its own level unless ``level`` fixes one for
    all.  The schedule lists instance indices; entries past an instance's
    last op give it more chances to retry a block or commit.
    """
    n_txns = rng.randint(2, 3)
    programs = []
    for _ in range(n_txns):
        txn_level = level or rng.choice(LEVELS)
        ops = [
            _materialise(rng.choice(_OPS), rng.randint(0, 9))
            for _ in range(rng.randint(1, 4))
        ]
        programs.append((txn_level, ops))
    schedule = [rng.randrange(n_txns) for _ in range(rng.randint(n_txns, 6 * n_txns))]
    return programs, schedule


def run_workload(dual, programs, schedule) -> None:
    """Advance instances per ``schedule``, then commit the survivors.

    A blocked operation is retried on the instance's next turn, an abort
    (FCW, explicit) ends the instance, and every instance still alive at
    the end of the schedule attempts to commit in index order; a final
    commit that blocks aborts.
    """
    cursors = [0] * len(programs)
    finished = [False] * len(programs)
    for index, (level, _ops) in enumerate(programs):
        dual.begin(str(index), level)
    for index in schedule:
        if finished[index]:
            continue
        _level, ops = programs[index]
        name = str(index)
        if cursors[index] >= len(ops):
            status = dual.op(name, "commit")[0]
            finished[index] = status != "WouldBlock"
            continue
        method, args = ops[cursors[index]]
        status = dual.op(name, method, *args)[0]
        if status == "ok" or status == "EvaluationError":
            cursors[index] += 1  # EvaluationError does not abort the txn
        elif status != "WouldBlock":
            finished[index] = True  # aborted (FCW or forced)
    for index in range(len(programs)):
        if not finished[index]:
            name = str(index)
            status = dual.op(name, "commit")[0]
            if status == "WouldBlock":
                dual.op(name, "abort")
    dual.check_history()


def check_seeded_workloads(seeds=range(GOLDEN_SEEDS)) -> None:
    for seed in seeds:
        run_workload(GoldenEngine(f"seed:{seed}"), *workload(random.Random(seed)))


def _under_hash_seed(code: str, hash_seed: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this module."""
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parents[1] / "src"), str(here)])
    return subprocess.run(
        [sys.executable, "-c", f"import test_differential as t; {code}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
    )


def test_seeded_workloads_match_the_golden():
    run = _under_hash_seed("t.check_seeded_workloads()", GOLDEN_HASH_SEED)
    assert run.returncode == 0, run.stderr[-3000:]


def test_snapshot_commit_names_the_same_key_under_any_hash_seed():
    for hash_seed, seed in (("3", 223), ("1", 254)):
        run = _under_hash_seed(f"t.check_seeded_workloads([{seed}])", hash_seed)
        assert run.returncode == 0, run.stderr[-3000:]


class EngineDriver:
    """The :func:`run_workload` driver with no golden: the engine alone."""

    def __init__(self) -> None:
        self.engine = Engine(initial_state())
        self.txns: dict = {}

    def begin(self, name: str, level: str) -> None:
        self.txns[name] = self.engine.begin(level)

    def op(self, name: str, method: str, *args):
        return attempt(self.engine, self.txns[name], method, args)

    def check_history(self) -> None:
        pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LEVELS[1:]), st.randoms(use_true_random=False))
def test_random_schedules_agree(level, rng):
    """Every one-level workload's committed history passes that level's axiom."""
    dual = EngineDriver()
    run_workload(dual, *workload(rng, level=level))
    assert isolation_violations(initial_state(), dual.engine.history, level) == []


def test_vacuum_modes_do_not_change_observables():
    """The same script under vacuum="auto" and "off" is indistinguishable."""
    results = []
    for vacuum in ("auto", "off"):
        engine = Engine(initial_state(), vacuum=vacuum)
        reader = engine.begin("SNAPSHOT")
        engine.read_field(reader, "acct", 0, "bal")
        for value in (11, 12, 13):
            writer = engine.begin("READ COMMITTED")
            engine.write_field(writer, "acct", 0, "bal", value)
            engine.commit(writer)
        observed = engine.read_field(reader, "acct", 0, "bal")
        engine.commit(reader)
        history = [(op.kind, op.key, op.version, op.info) for op in engine.history]
        results.append(
            (observed, engine.committed_state().canonical(), history,
             engine.store.version_count())
        )
    (obs_auto, state_auto, hist_auto, versions_auto) = results[0]
    (obs_off, state_off, hist_off, versions_off) = results[1]
    assert obs_auto == obs_off == 10
    assert state_auto == state_off
    assert hist_auto == hist_off
    # ... but the GC difference is real: "off" hoards superseded versions
    assert versions_off > versions_auto
