"""Unit tests for the history DSL — the [2] anomaly matrix."""

import pytest

from repro.core.state import DbState
from repro.sched.histories import parse, replay

RC = "READ COMMITTED"
RU = "READ UNCOMMITTED"
RR = "REPEATABLE READ"
SER = "SERIALIZABLE"
FCW = "READ COMMITTED FCW"
SI = "SNAPSHOT"


class TestParsing:
    def test_token_shapes(self):
        tokens = parse("w1[x=1] r2[x] rp3[T:a=1] ins4[T:a=1,b=true] c1 a2")
        ops = [op for _raw, op, _n, _b in tokens]
        assert ops == ["w", "r", "rp", "ins", "c", "a"]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse("zap1[x]")


class TestDirtyReadHistory:
    HISTORY = "w1[x=1] r2[x] c1 c2"

    def test_permitted_at_ru(self):
        result = replay(self.HISTORY, {1: RC, 2: RU})
        assert result.executed_fully
        assert result.value_of("r2[x]") == 1

    def test_blocked_at_rc(self):
        result = replay(self.HISTORY, {1: RC, 2: RC})
        blocked = [s.token for s in result.blocked_steps]
        assert "r2[x]" in blocked


class TestLostUpdateHistory:
    HISTORY = "r1[x] r2[x] w2[x=2] c2 w1[x=3] c1"

    def test_permitted_at_rc(self):
        result = replay(self.HISTORY, {1: RC, 2: RC})
        assert result.executed_fully
        assert result.final.read_item("x") == 3

    def test_aborted_at_fcw(self):
        result = replay(self.HISTORY, {1: FCW, 2: RC})
        assert any(s.token == "w1[x=3]" for s in result.aborted_steps)
        assert result.final.read_item("x") == 2

    def test_blocked_at_rr(self):
        result = replay(self.HISTORY, {1: RR, 2: RC})
        assert result.blocked_steps  # w2 blocks on the long read lock


class TestFuzzyReadHistory:
    HISTORY = "r1[x] w2[x=5] c2 r1[x] c1"

    def test_permitted_at_rc(self):
        result = replay(self.HISTORY, {1: RC, 2: RC})
        assert result.executed_fully
        assert result.value_of("r1[x]") == 0  # first read

    def test_blocked_at_rr(self):
        result = replay(self.HISTORY, {1: RR, 2: RC})
        assert any(s.token == "w2[x=5]" for s in result.blocked_steps)


class TestPhantomHistory:
    HISTORY = "rp1[T:a=1] ins2[T:a=1] c2 rp1[T:a=1] c1"

    def _initial(self):
        return DbState(tables={"T": [{"a": 1}]})

    def test_permitted_at_rr(self):
        result = replay(self.HISTORY, {1: RR, 2: RC}, initial=self._initial())
        assert result.executed_fully
        first, second = [s for s in result.steps if s.token == "rp1[T:a=1]"]
        assert len(second.value) == len(first.value) + 1

    def test_blocked_at_serializable(self):
        result = replay(self.HISTORY, {1: SER, 2: RC}, initial=self._initial())
        assert any(s.token == "ins2[T:a=1]" for s in result.blocked_steps)


class TestWriteSkewHistory:
    HISTORY = "r1[x] r1[y] r2[x] r2[y] w1[x=-1] w2[y=-1] c1 c2"

    def _initial(self):
        return DbState(items={"x": 1, "y": 1})

    def test_permitted_at_snapshot(self):
        result = replay(self.HISTORY, {1: SI, 2: SI}, initial=self._initial())
        assert result.executed_fully
        assert result.final.read_item("x") == -1
        assert result.final.read_item("y") == -1

    def test_same_item_fcw_aborts(self):
        history = "r1[x] r2[x] w1[x=5] w2[x=7] c1 c2"
        result = replay(history, {1: SI, 2: SI}, initial=DbState(items={"x": 1}))
        assert any(s.token == "c2" for s in result.aborted_steps)
        assert result.final.read_item("x") == 5

    def test_blocked_at_serializable(self):
        result = replay(self.HISTORY, {1: SER, 2: SER}, initial=self._initial())
        assert not result.executed_fully


class TestScriptedAbort:
    def test_abort_undoes_writes(self):
        result = replay("w1[x=9] a1", {1: RC})
        assert result.final.read_item("x") == 0

    def test_steps_after_abort_skipped(self):
        result = replay("w1[x=9] a1 w1[x=10]", {1: RC})
        statuses = [s.status for s in result.steps]
        assert statuses == ["ok", "ok", "skipped"]

    def test_dirty_read_of_rolled_back_write(self):
        result = replay("w1[x=1] r2[x] a1 r2[x] c2", {1: RC, 2: RU})
        values = [s.value for s in result.steps if s.token == "r2[x]"]
        assert values == [1, 0]  # the classic dirty read of doomed data


class TestHistoryRendering:
    def test_item_history_round_trips(self):
        from repro.sched.histories import history_string

        source = "w1[x=1] r2[x] c1 c2"
        result = replay(source, {1: RU, 2: RU})
        assert history_string(result.engine.history) == source

    def test_field_history_round_trips(self):
        from repro.sched.histories import history_string

        source = "r1[acct_sav[0].bal] w1[acct_sav[0].bal=9] c1"
        result = replay(source, {})
        assert history_string(result.engine.history) == source

    def test_numbering_follows_begin_order(self):
        from repro.sched.histories import history_numbering

        result = replay("w2[x=1] r1[x] c2 c1", {2: RU, 1: RU})
        numbering = history_numbering(result.engine.history)
        # DSL txn 2 begins first, so it renders as history transaction 1
        assert sorted(numbering.values()) == [1, 2]

    def test_numbering_matches_rendered_string(self):
        from repro.sched.histories import history_numbering, history_string

        result = replay("w1[x=1] r2[x] c1 c2", {1: RU, 2: RU})
        history = result.engine.history
        numbering = history_numbering(history)
        rendered = history_string(history)
        begin_order = [op.txn_id for op in history if op.kind == "begin"]
        assert [numbering[txn_id] for txn_id in begin_order] == [1, 2]
        assert rendered.startswith("w1[")


class TestRoundSeeds:
    def test_deterministic_and_prefix_stable(self):
        from repro.sched.simulator import round_seeds

        assert round_seeds(42, 5) == round_seeds(42, 5)
        # the stream property runner.py and semantic.py rely on: the first
        # k seeds do not depend on how many rounds are requested
        assert round_seeds(42, 10)[:5] == round_seeds(42, 5)

    def test_distinct_rounds_get_distinct_seeds(self):
        from repro.sched.simulator import round_seeds

        seeds = round_seeds(7, 20)
        assert len(set(seeds)) == 20
