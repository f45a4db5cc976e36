"""Inference's CEGIS oracle: serial orders against SERIALIZABLE exploration.

:func:`repro.core.infer.invariant_oracle` runs each serial order of an
instance set once instead of exploring its SERIALIZABLE interleavings.
That is exact because every SERIALIZABLE schedule ends in the serial final
state of its commit order.  The differential test checks both halves of
that claim on every (state, instance set) the refinement loop builds: the
final states an unbounded exploration reaches are exactly the serial
orders' final states, and the DPOR oracle the serial one replaced (kept
below as it was) reports the same violated candidates with the same
witnesses.
"""

import itertools

import pytest

from repro.apps import registry
from repro.core import infer
from repro.core.infer import invariant_oracle, strip_annotations, synthesize_candidates
from repro.core.program import Read, TransactionType, Write
from repro.core.state import DbState
from repro.core.terms import Item, Local
from repro.sched.explore import explore
from repro.sched.policy import SerialPolicy
from repro.sched.simulator import InstanceSpec, Simulator
from repro.workloads.appgen import AppGenConfig, generate_application

APPS = ["banking", "customers", "employees", "orders"] + [f"appgen:{s}" for s in range(12)]
#: apps with no candidate to refine: the loop never calls the oracle
NO_CANDIDATES = ("customers", "appgen:3", "appgen:10")


def dpor_oracle(initial, specs, predicates, *, max_schedules=64, max_steps=20_000) -> dict:
    """The oracle before serial orders replaced it: a DPOR exploration."""
    violations: dict = {}
    standing = dict(predicates)
    examined = [0]

    def check(schedule_result) -> None:
        examined[0] += 1
        final = schedule_result.final
        for name in list(standing):
            try:
                ok = standing[name](final)
            except Exception:
                ok = False
            if not ok:
                violations[name] = tuple(
                    getattr(outcome, "name", repr(outcome))
                    for outcome in schedule_result.committed
                )
                del standing[name]

    explore(
        initial,
        specs,
        max_schedules=max_schedules,
        max_steps=max_steps,
        on_schedule=check,
    )
    violations["__schedules__"] = examined[0]
    return violations


def _app(ref: str):
    if ref.startswith("appgen:"):
        seed = int(ref.split(":")[1])
        return generate_application(AppGenConfig(seed=seed)), seed
    return registry()[ref](), 0


def _oracle_calls(ref: str, monkeypatch) -> list:
    """Every ``(state, specs, predicates)`` the refinement loop checks."""
    calls = []

    def recording(initial, specs, predicates):
        calls.append((initial, list(specs), dict(predicates)))
        return invariant_oracle(initial, specs, predicates)

    monkeypatch.setattr(infer, "invariant_oracle", recording)
    app, seed = _app(ref)
    bare = strip_annotations(app)
    infer.refine_candidates(bare, synthesize_candidates(bare), seed=seed)
    return calls


def _serial_final(initial, specs, order) -> tuple:
    """Canonical final state of ``specs[i] for i in order`` run serially."""
    chosen = [specs[i] for i in order]
    policy = SerialPolicy(range(len(chosen)))
    return Simulator(initial.copy(), chosen, retry=True, policy=policy).run().final.canonical()


@pytest.mark.parametrize("ref", APPS)
def test_serial_orders_reach_every_serializable_final_state(ref, monkeypatch):
    calls = _oracle_calls(ref, monkeypatch)
    assert bool(calls) != (ref in NO_CANDIDATES)
    first_checked: dict = {}
    for position, (initial, specs, _) in enumerate(calls):
        first_checked.setdefault((id(initial), tuple(map(id, specs))), position)
    for position, (initial, specs, predicates) in enumerate(calls):
        orders = itertools.permutations(range(len(specs)))
        serial = {order: _serial_final(initial, specs, order) for order in orders}
        reached: dict = {}

        def record(schedule):
            order = tuple(outcome.index for outcome in schedule.committed)
            reached.setdefault(order, set()).add(schedule.final.canonical())

        assert not explore(initial, specs, on_schedule=record).truncated
        # every schedule ends in the serial final state of its commit order
        for order, finals in reached.items():
            assert finals == {serial.get(order) or _serial_final(initial, specs, order)}
        # and every serial order's final state is reached
        assert set(serial.values()) <= set().union(*reached.values())
        # A schedule that commits only part of the set (the other instance
        # was a deadlock victim past its restarts) ends in a singleton's
        # final state, which the loop checks from the same state first.
        for order in reached:
            if len(order) < len(specs):
                assert len(order) == 1
                assert first_checked[id(initial), (id(specs[order[0]]),)] < position
        old = dpor_oracle(initial.fork(), specs, predicates, max_schedules=24)
        old.pop("__schedules__")
        assert invariant_oracle(initial, specs, predicates) == (old, len(serial))


def _pair():
    """``a`` doubles x, ``b`` increments it: from x=1, (a, b) ends at 3 and
    (b, a) at 4."""
    double = TransactionType(
        name="Double", body=(Read(Local("v"), Item("x")), Write(Item("x"), Local("v") * 2))
    )
    bump = TransactionType(
        name="Bump", body=(Read(Local("v"), Item("x")), Write(Item("x"), Local("v") + 1))
    )
    return [InstanceSpec(double, {}, name="a"), InstanceSpec(bump, {}, name="b")]


def test_a_candidate_only_the_reversed_order_falsifies_is_demoted():
    initial = DbState(items={"x": 1})
    specs = _pair()
    assert _serial_final(initial, specs, (0, 1)) == DbState(items={"x": 3}).canonical()
    assert _serial_final(initial, specs, (1, 0)) == DbState(items={"x": 4}).canonical()
    predicates = {"x-not-4": lambda final: final.read_item("x") != 4}
    violations, runs = invariant_oracle(initial, specs, predicates)
    assert violations == {"x-not-4": ("b", "a")}
    assert runs == 2
