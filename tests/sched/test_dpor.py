"""Unit tests for the level-aware race analysis (repro.sched.dpor)."""

from repro.apps import banking
from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Field, Item, Local, Param
from repro.engine.manager import HistoryOp
from repro.sched.dpor import (
    ANY_GRANULE,
    PROBE,
    Race,
    RaceAnalyzer,
    _access_conflict,
    _footprints_meet,
    _sets_conflict,
    accesses_conflict,
    may_deadlock,
    static_footprint,
)
from repro.sched.policy import DEPENDENT, ORDER_GRANULE, StepRecord
from repro.sched.simulator import InstanceSpec


def incrementer(item="x"):
    return TransactionType(
        name=f"Inc_{item}",
        body=(Read(Local("v"), Item(item)), Write(Item(item), Local("v") + 1)),
    )


def rw_record(name="T", array="acct", index_param=True):
    """read field, write field — indices resolved from the parameter i."""
    i = Param("i")
    balance = Field(array, i, "bal")
    return TransactionType(
        name=name,
        params=(i,),
        body=(Read(Local("v"), balance), Write(balance, Local("v") + 1)),
    )


def op(kind, txn_id=1, key=None, **info):
    return HistoryOp(tick=0, txn_id=txn_id, kind=kind, key=key, info=info)


def step(depth, index, ops=(), txn_id=1, level="SERIALIZABLE", blocked_on=None):
    return StepRecord(
        depth=depth,
        index=index,
        txn_id=txn_id,
        level=level,
        ops=tuple(ops),
        blocked_on=blocked_on,
    )


class TestStaticFootprint:
    def test_item_incrementer_reads_and_writes_its_item(self):
        ghost, reads, writes = static_footprint(incrementer("x"), {})
        assert ghost == frozenset()
        assert reads == {("item", "x")}
        assert writes == {("item", "x")}

    def test_record_indices_resolve_from_params(self):
        _ghost, reads, writes = static_footprint(rw_record(), {"i": 3})
        assert reads == {("record", "acct", 3)}
        assert writes == {("record", "acct", 3)}

    def test_unresolvable_index_degrades_to_whole_array(self):
        _ghost, reads, _writes = static_footprint(rw_record(), {})
        assert ("record", "acct", None) in reads

    def test_banking_withdraw_has_ghost_granules(self):
        ghost, reads, writes = static_footprint(banking.WITHDRAW_SAV, {"i": 0, "w": 1})
        # the snapshot terms read both balances at begin
        assert ("record", "acct_sav", 0) in ghost
        assert ("record", "acct_ch", 0) in ghost
        assert ("record", "acct_sav", 0) in writes

    def test_table_statements_split_reads_from_writes(self):
        from repro.apps import tpcc

        _ghost, reads, writes = static_footprint(
            tpcc.NEW_ORDER, {"d": 0, "c": 0, "item": 0, "qty": 1}
        )
        assert ("table", "ORDERS") in writes  # Insert
        _ghost, reads, writes = static_footprint(tpcc.ORDER_STATUS, {"c": 0})
        assert ("table", "ORDERS") in reads  # Select
        assert ("table", "ORDERS") not in writes


class TestAccessConflict:
    def test_read_read_commutes(self):
        a = frozenset({(("item", "x"), False)})
        assert not accesses_conflict(a, a)

    def test_write_conflicts_with_read(self):
        r = frozenset({(("item", "x"), False)})
        w = frozenset({(("item", "x"), True)})
        assert accesses_conflict(r, w)

    def test_disjoint_granules_commute(self):
        a = frozenset({(("item", "x"), True)})
        b = frozenset({(("item", "y"), True)})
        assert not accesses_conflict(a, b)

    def test_probe_conflicts_with_write_but_not_probe(self):
        probe = frozenset({(("item", "x"), PROBE)})
        write = frozenset({(("item", "x"), True)})
        read = frozenset({(("item", "x"), False)})
        assert accesses_conflict(probe, write)
        assert accesses_conflict(probe, read)
        assert not accesses_conflict(probe, probe)

    def test_wildcard_conflicts_with_everything(self):
        any_w = frozenset({(ANY_GRANULE, True)})
        assert accesses_conflict(any_w, frozenset({(("item", "q"), False)}))

    def test_dependent_and_none_are_always_conflicting(self):
        a = frozenset({(("item", "x"), False)})
        assert accesses_conflict(DEPENDENT, a)
        assert accesses_conflict(None, a)

    def test_coarse_array_granule_overlaps_every_index(self):
        coarse = frozenset({(("record", "acct", None), True)})
        fine = frozenset({(("record", "acct", 7), False)})
        other = frozenset({(("record", "other", 7), True)})
        assert accesses_conflict(coarse, fine)
        assert not accesses_conflict(fine, other)


class TestMayDeadlock:
    def _specs(self, txn_types, levels, args=None):
        args = args or [{} for _ in txn_types]
        return [
            InstanceSpec(t, a, level, f"T{i}")
            for i, (t, a, level) in enumerate(zip(txn_types, args, levels))
        ]

    def _check(self, specs):
        footprints = [static_footprint(s.txn_type, s.args) for s in specs]
        return may_deadlock(specs, footprints)

    def test_same_item_upgrade_deadlocks_at_repeatable_read(self):
        # both hold S on x after the read, both then request X: the classic
        # single-granule upgrade deadlock
        specs = self._specs(
            [incrementer("x"), incrementer("x")],
            ["REPEATABLE READ", "REPEATABLE READ"],
        )
        assert self._check(specs)

    def test_disjoint_items_never_deadlock(self):
        specs = self._specs(
            [incrementer("x"), incrementer("y")],
            ["SERIALIZABLE", "SERIALIZABLE"],
        )
        assert not self._check(specs)

    def test_snapshot_holds_nothing(self):
        specs = self._specs(
            [incrementer("x"), incrementer("x")], ["SNAPSHOT", "SNAPSHOT"]
        )
        assert not self._check(specs)

    def test_read_committed_writers_cannot_upgrade_deadlock(self):
        # at RC the S lock is short: no hold-and-wait on a single granule
        specs = self._specs(
            [incrementer("x"), incrementer("x")],
            ["READ COMMITTED", "READ COMMITTED"],
        )
        assert not self._check(specs)


class TestOnlineSignature:
    def _analyzer(self, level="SERIALIZABLE"):
        specs = [
            InstanceSpec(incrementer("x"), {}, level, "T0"),
            InstanceSpec(incrementer("x"), {}, level, "T1"),
        ]
        return RaceAnalyzer(specs)

    def test_read_op_signature_is_a_read_access(self):
        analyzer = self._analyzer("READ COMMITTED")

        class FakeTxn:
            txn_id = 1

        class FakeRuntime:
            index = 0
            txn = FakeTxn()
            blocked = False
            last_block = None

            class spec:
                level = "READ COMMITTED"

        sig = analyzer.online_signature(FakeRuntime(), [op("r", key=("item", "x"))])
        assert sig == frozenset({(("item", "x"), False)})

    def test_empty_step_without_block_is_wildcard(self):
        analyzer = self._analyzer("READ COMMITTED")

        class FakeRuntime:
            index = 0
            txn = None
            blocked = False
            last_block = None

            class spec:
                level = "READ COMMITTED"

        assert analyzer.online_signature(FakeRuntime(), []) == frozenset(
            {(ANY_GRANULE, True)}
        )


class TestStepAccesses:
    def _analyzer(self, level="SERIALIZABLE"):
        return RaceAnalyzer(
            [
                InstanceSpec(incrementer("x"), {}, level, "T0"),
                InstanceSpec(incrementer("x"), {}, level, "T1"),
            ]
        )

    def test_snapshot_body_ops_are_private(self):
        analyzer = self._analyzer("SNAPSHOT")
        record = step(0, 0, [op("r", key=("item", "x"))], level="SNAPSHOT")
        assert analyzer.step_accesses(record, {}, False) == frozenset()

    def test_snapshot_begin_reads_the_whole_static_footprint(self):
        analyzer = self._analyzer("SNAPSHOT")
        record = step(0, 0, [op("begin")], level="SNAPSHOT")
        acc = analyzer.step_accesses(record, {}, False)
        assert (("item", "x"), False) in acc

    def test_begin_orders_only_when_deadlock_is_possible(self):
        analyzer = self._analyzer("SERIALIZABLE")
        record = step(0, 0, [op("begin")])
        with_order = analyzer.step_accesses(record, {}, True)
        without = analyzer.step_accesses(record, {}, False)
        assert (ORDER_GRANULE, True) in with_order
        assert (ORDER_GRANULE, True) not in without

    def test_commit_publishes_its_write_set(self):
        analyzer = self._analyzer()
        record = step(0, 0, [op("commit", writes=[("item", "x")])])
        acc = analyzer.step_accesses(record, {}, False)
        assert (("item", "x"), True) in acc

    def test_failed_si_commit_validation_reads_its_writes(self):
        analyzer = self._analyzer("SNAPSHOT")
        record = step(
            0,
            0,
            [op("abort", reason="first-committer-wins", writes=[("item", "x")])],
            level="SNAPSHOT",
        )
        acc = analyzer.step_accesses(record, {1: "SNAPSHOT"}, False)
        assert acc == frozenset({(("item", "x"), False)})

    def test_blocked_attempt_is_a_probe(self):
        analyzer = self._analyzer()
        record = step(0, 0, [], blocked_on=(("item", "x"), "X"))
        acc = analyzer.step_accesses(record, {}, False)
        assert acc == frozenset({(("item", "x"), PROBE)})


class TestHappensBeforeShielding:
    """Happens-before as the race analysis sees it: only immediate races."""

    def _analyzer(self, count=3):
        return RaceAnalyzer(
            [
                InstanceSpec(incrementer("x"), {}, "READ COMMITTED", f"T{i}")
                for i in range(count)
            ]
        )

    def test_pair_ordered_through_an_intermediate_step_is_not_a_race(self):
        # 0 -> 1 on x, 1 -> 2 on y: (0, 2) conflict on x but 1 orders them
        steps = [
            step(0, 0, [op("w", txn_id=1, key=("item", "x"))], txn_id=1),
            step(
                1,
                1,
                [op("r", txn_id=2, key=("item", "x")), op("w", txn_id=2, key=("item", "y"))],
                txn_id=2,
            ),
            step(
                2,
                2,
                [op("r", txn_id=3, key=("item", "x")), op("r", txn_id=3, key=("item", "y"))],
                txn_id=3,
            ),
        ]
        races = self._analyzer().analyze(steps)
        assert [(race.depth, race.preferred) for race in races] == [(0, 1), (1, 2)]

    def test_program_order_shields(self):
        # 0 -> 1 on x, then 1 -> 2 by program order: (0, 2) is not immediate
        steps = [
            step(0, 0, [op("w", txn_id=1, key=("item", "x"))], txn_id=1),
            step(1, 1, [op("r", txn_id=2, key=("item", "x"))], txn_id=2),
            step(2, 1, [op("r", txn_id=2, key=("item", "x"))], txn_id=2),
        ]
        races = self._analyzer(2).analyze(steps)
        assert [(race.depth, race.preferred) for race in races] == [(0, 1)]

    def test_independent_steps_of_different_instances_do_not_race(self):
        steps = [
            step(0, 0, [op("r", txn_id=1, key=("item", "x"))], txn_id=1),
            step(1, 1, [op("r", txn_id=2, key=("item", "x"))], txn_id=2),
            step(2, 2, [op("w", txn_id=3, key=("item", "y"))], txn_id=3),
        ]
        assert self._analyzer().analyze(steps) == []


class TestRaceDetection:
    def _analyzer(self):
        return RaceAnalyzer(
            [
                InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "T0"),
                InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "T1"),
            ]
        )

    def test_conflicting_writes_race(self):
        analyzer = self._analyzer()
        steps = [
            step(0, 0, [op("w", txn_id=1, key=("item", "x"))], txn_id=1),
            step(1, 1, [op("w", txn_id=2, key=("item", "x"))], txn_id=2),
        ]
        races = analyzer.analyze(steps)
        assert len(races) == 1
        race = races[0]
        assert race.depth == 0
        assert race.preferred == 1
        assert race.initials == frozenset({1})

    def test_independent_steps_do_not_race(self):
        analyzer = RaceAnalyzer(
            [
                InstanceSpec(incrementer("x"), {}, "READ COMMITTED", "T0"),
                InstanceSpec(incrementer("y"), {}, "READ COMMITTED", "T1"),
            ]
        )
        steps = [
            step(0, 0, [op("w", txn_id=1, key=("item", "x"))], txn_id=1),
            step(1, 1, [op("w", txn_id=2, key=("item", "y"))], txn_id=2),
        ]
        assert analyzer.analyze(steps) == []

    def test_shielded_pairs_are_not_immediate(self):
        # 0 -> 1 -> 2 all on x: (0, 2) is ordered through 1, only the
        # adjacent pairs are immediate races
        analyzer = self._analyzer()
        steps = [
            step(0, 0, [op("w", txn_id=1, key=("item", "x"))], txn_id=1),
            step(1, 1, [op("w", txn_id=2, key=("item", "x"))], txn_id=2),
            step(2, 0, [op("w", txn_id=1, key=("item", "x"))], txn_id=1),
        ]
        races = analyzer.analyze(steps)
        assert {(race.depth, race.preferred) for race in races} == {(0, 1), (1, 0)}

    def test_same_instance_never_races_with_itself(self):
        analyzer = self._analyzer()
        steps = [
            step(0, 0, [op("w", txn_id=1, key=("item", "x"))], txn_id=1),
            step(1, 0, [op("w", txn_id=1, key=("item", "x"))], txn_id=1),
        ]
        assert analyzer.analyze(steps) == []

    def test_commit_commit_dependence_uses_full_footprints(self):
        # disjoint write sets, but T2 read what T1 wrote: commit order is
        # observable through the serial replay, so the commits race
        analyzer = self._analyzer()
        steps = [
            step(
                0,
                0,
                [op("commit", txn_id=1, writes=[("item", "x")])],
                txn_id=1,
            ),
            step(
                1,
                1,
                [op("commit", txn_id=2, writes=[("item", "y")], reads=[("item", "x")])],
                txn_id=2,
            ),
        ]
        races = analyzer.analyze(steps)
        assert len(races) == 1


# ---------------------------------------------------------------------------
# differential: the granule-indexed analysis against the pairwise one
# ---------------------------------------------------------------------------


def _reference_happens_before(steps, dependent) -> list:
    """Pairwise happens-before bitmasks: the reference for the one-pass closure."""
    n = len(steps)
    pred = [0] * n
    last_of: dict = {}
    for j in range(n):
        mask = 0
        prev = last_of.get(steps[j].index)
        if prev is not None:
            mask |= pred[prev] | (1 << prev)
        for i in range(j):
            if (mask >> i) & 1:
                continue  # already a predecessor (with pred[i] merged)
            if steps[i].index != steps[j].index and dependent(i, j):
                mask |= pred[i] | (1 << i)
        pred[j] = mask
        last_of[steps[j].index] = j
    return pred


def _reference_analyze(analyzer, steps) -> list:
    """The pairwise race analysis: every step pair through ``dependent``."""
    n = len(steps)
    if n < 2:
        return []
    levels = {}
    for record in steps:
        if record.txn_id is not None:
            levels[record.txn_id] = record.level
    order_begins = any(
        op.kind == "abort" and op.info.get("reason") == "deadlock victim"
        for record in steps
        for op in record.ops
    )
    accs = [analyzer.step_accesses(record, levels, order_begins) for record in steps]
    footprints = analyzer._txn_footprints(steps)
    commit_of = [analyzer._commit_txn(record) for record in steps]

    def dependent(i: int, j: int) -> bool:
        a, b = commit_of[i], commit_of[j]
        if a is not None and b is not None:
            reads_a, writes_a = footprints.get(a, (frozenset(), frozenset()))
            reads_b, writes_b = footprints.get(b, (frozenset(), frozenset()))
            return _sets_conflict(writes_a, reads_b | writes_b) or _sets_conflict(
                writes_b, reads_a | writes_a
            )
        return _access_conflict(accs[i], accs[j])

    pred = _reference_happens_before(steps, dependent)
    races: list = []
    for j in range(n):
        for i in range(j):
            if steps[i].index == steps[j].index:
                continue
            if not dependent(i, j):
                continue
            if any((pred[k] >> i) & 1 and (pred[j] >> k) & 1 for k in range(i + 1, j)):
                continue  # not immediate: an intermediate step orders them
            suffix = [k for k in range(i + 1, j) if not (pred[k] >> i) & 1]
            suffix.append(j)
            initials = set()
            for k in suffix:
                if not any((pred[k] >> m) & 1 for m in suffix if m < k):
                    initials.add(steps[k].index)
            races.append(
                Race(depth=steps[i].depth, initials=frozenset(initials), preferred=steps[j].index)
            )
    return races


_KEYS = (
    ("item", "x"),
    ("item", "y"),
    ("record", "acct", 0),
    ("record", "acct", 1),
    ("record", "acct", None),
    ("record", "acct_sav", 0),
    ("record", "acct_ch", 0),
    ("row", "T", 1),
    ("table", "T"),
)
_LEVELS = ("SNAPSHOT", "READ COMMITTED", "SERIALIZABLE", "READ UNCOMMITTED")
_REASONS = (
    "first-committer-wins on ('item', 'x')",
    "guard veto",
    "deadlock victim",
    "explicit",
)


def _random_run(rng, instances: int) -> list:
    """A random recorded run: begins, data ops, commits, aborts, probes."""
    levels = [rng.choice(_LEVELS) for _ in range(instances)]
    txn_of = [None] * instances
    next_txn = 1
    steps = []
    for depth in range(rng.randint(2, 16)):
        index = rng.randrange(instances)
        if txn_of[index] is None or rng.random() < 0.1:  # start or restart
            txn_of[index] = next_txn
            next_txn += 1
        txn = txn_of[index]
        shape = rng.choice(("begin", "data", "data", "commit", "abort", "blocked", "empty"))
        keys = lambda: [rng.choice(_KEYS) for _ in range(rng.randint(0, 2))]
        ops, blocked_on = [], None
        if shape == "begin":
            ops.append(op("begin", txn_id=txn))
        elif shape == "data":
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(("r", "r", "w", "ins", "upd", "del"))
                key = rng.choice(_KEYS + (None,))
                ops.append(op(kind, txn_id=txn, key=key))
            if rng.random() < 0.1:
                blocked_on = (rng.choice(_KEYS), "X")
        elif shape == "commit":
            # a commit step may carry accesses its transaction's run
            # footprint lacks: a begin's ghost reads, a keyless op, a probe
            if rng.random() < 0.3:
                ops.append(op(rng.choice(("begin", "r", "w")), txn_id=txn, key=None))
            ops.append(op("commit", txn_id=txn, writes=keys(), reads=keys()))
            if rng.random() < 0.1:
                blocked_on = (rng.choice(_KEYS), "X")
        elif shape == "abort":
            ops.append(
                op("abort", txn_id=txn, reason=rng.choice(_REASONS), writes=keys(), reads=keys())
            )
        elif shape == "blocked":
            blocked_on = (rng.choice(_KEYS), "X")
        record = step(depth, index, ops, txn_id=txn, level=levels[index], blocked_on=blocked_on)
        if rng.random() < 0.05:
            record.txn_id = None  # a step taken before the instance began
        steps.append(record)
    return steps


_CASES = (
    "any-granule",
    "coarse-vs-exact",
    "probe/probe",
    "probe/read",
    "probe/write",
    "snapshot-begin-ordered",
    "snapshot-begin-unordered",
    "fcw-abort",
    "guard-veto-abort",
    "deadlock-victim-abort",
    "commit-footprints-only",
)


def _cases(analyzer, steps) -> set:
    """Which of :data:`_CASES` one run exercises."""
    levels = {r.txn_id: r.level for r in steps if r.txn_id is not None}
    reasons = [op.info.get("reason", "") for r in steps for op in r.ops if op.kind == "abort"]
    order_begins = "deadlock victim" in reasons
    accs = [analyzer.step_accesses(r, levels, order_begins) for r in steps]
    footprints = analyzer._txn_footprints(steps)
    cases = set()
    if any(granule == ANY_GRANULE for acc in accs for granule, _kind in acc):
        cases.add("any-granule")
    if any(r.level == "SNAPSHOT" and any(op.kind == "begin" for op in r.ops) for r in steps):
        cases.add("snapshot-begin-ordered" if order_begins else "snapshot-begin-unordered")
    for reason in reasons:
        if "first-committer-wins" in reason:
            cases.add("fcw-abort")
        elif reason in ("guard veto", "deadlock victim"):
            cases.add(reason.replace(" ", "-") + "-abort")
    names = {False: "read", True: "write", PROBE: "probe"}
    for j in range(len(steps)):
        for i in range(j):
            if steps[i].index == steps[j].index:
                continue
            for granule, kind in accs[i]:
                for other, other_kind in accs[j]:
                    if granule == other and PROBE in (kind, other_kind):
                        partner = other_kind if kind == PROBE else kind
                        cases.add("probe/" + names[partner])
                    if (
                        granule[0] == other[0] == "record"
                        and granule[1] == other[1]
                        and (granule[2] is None) != (other[2] is None)
                        and (kind or other_kind)
                    ):
                        cases.add("coarse-vs-exact")
            a, b = analyzer._commit_txn(steps[i]), analyzer._commit_txn(steps[j])
            if (
                a is not None
                and b is not None
                and _footprints_meet(footprints, a, b)
                and not _access_conflict(accs[i], accs[j])
            ):
                cases.add("commit-footprints-only")
    return cases


class TestGranuleIndexDifferential:
    """The one-pass analysis returns the pairwise one's races, in order."""

    RUNS = 5000

    def _analyzers(self):
        specs = [
            InstanceSpec(rw_record("A"), {"i": 0}, "SNAPSHOT", "A"),
            InstanceSpec(rw_record("B"), {}, "READ COMMITTED", "B"),  # coarse
            InstanceSpec(banking.WITHDRAW_SAV, {"i": 0, "w": 1}, "SNAPSHOT", "W"),
            InstanceSpec(incrementer("x"), {}, "SERIALIZABLE", "X"),
        ]
        return [RaceAnalyzer(specs), RaceAnalyzer(specs[::-1])]

    def test_races_match_the_pairwise_analysis(self):
        import random

        rng = random.Random(2026)
        analyzers = self._analyzers()
        seen: set = set()
        for _ in range(self.RUNS):
            analyzer = rng.choice(analyzers)
            steps = _random_run(rng, rng.randint(2, 4))
            assert analyzer.analyze(steps) == _reference_analyze(analyzer, steps), steps
            seen |= _cases(analyzer, steps)
        assert seen == set(_CASES), set(_CASES) - seen


class TestOnlineAccessReuse:
    """``analyze`` reuses a step's online access set only where it agrees."""

    LEVELS = ("READ UNCOMMITTED", "REPEATABLE READ", "SNAPSHOT", "SERIALIZABLE")

    def test_reused_sets_equal_the_recomputed_ones(self, monkeypatch):
        from repro.pipeline.scenarios import scenarios_for
        from repro.sched.explore import explore

        original = RaceAnalyzer.analyze
        counts = {"reused": 0, "recomputed": 0}

        def checked(analyzer, steps):
            levels = {r.txn_id: r.level for r in steps if r.txn_id is not None}
            order_begins = any(
                op.kind == "abort" and op.info.get("reason") == "deadlock victim"
                for r in steps
                for op in r.ops
            )
            for record in steps:
                assert record.accesses is not None
                fresh = analyzer.step_accesses(record, levels, order_begins)
                kinds = {op.kind for op in record.ops}
                if "abort" in kinds or ("begin" in kinds and order_begins != analyzer.may_deadlock):
                    counts["recomputed"] += 1
                else:
                    assert record.accesses == fresh, record
                    counts["reused"] += 1
            return original(analyzer, steps)

        monkeypatch.setattr(RaceAnalyzer, "analyze", checked)
        for app in ("banking", "tpcc-lite", "mvcc-stress"):
            for scenario in scenarios_for(app):
                for level in self.LEVELS:
                    specs = scenario.specs({name: level for name in scenario.focus})
                    explore(scenario.initial(), specs, max_schedules=60)
        assert counts["reused"] and counts["recomputed"], counts
