"""Relational tier 2 against exhaustive bounded model checking.

Every obligation whose source body has relational statements (or whose
statement is one) is put to tier 2; each verdict tier 2 gives must be a
proof of non-interference, and BMC run exhaustively on small domains must
find no witness for it.  The applications are tpcc and orders with reduced
domains, plus fixtures that exercise each transformer and a rollback that
is safe only when complete.  employees, whose invariant multiplies two
fields, puts every obligation to tier 2 and checks each proof of
non-interference the same way.
"""

from __future__ import annotations

import pytest

from repro.apps import employees, orders, tpcc
from repro.core.application import Application
from repro.core.conditions import (
    READ_COMMITTED,
    READ_COMMITTED_FCW,
    READ_UNCOMMITTED,
    REPEATABLE_READ,
    SNAPSHOT,
    plan_level,
)
from repro.core.domains import ArrayDomain, DomainSpec, ItemDomain, TableDomain
from repro.core.formula import (
    FALSE,
    CountWhere,
    ExistsRow,
    ForAllRows,
    InTable,
    RowAttr,
    TRUE,
    conj,
    eq,
    ge,
    le,
    ne,
)
from repro.core.interference import (
    BOUNDED,
    CONSISTENCY,
    PROVED,
    CriticalAssertion,
    InterferenceChecker,
    fcw_excuse_formula,
)
from repro.core.program import (
    Delete,
    Insert,
    Read,
    Select,
    SelectCount,
    SelectScalar,
    TransactionType,
    Update,
    Write,
)
from repro.core.terms import IntConst, Item, Local, Param

LEVELS = (READ_UNCOMMITTED, READ_COMMITTED, READ_COMMITTED_FCW, REPEATABLE_READ, SNAPSHOT)

_RELATIONAL = (Insert, Delete, Update, Select, SelectScalar, SelectCount)

#: large enough for every state space below to be enumerated exhaustively
BUDGET = 5000


def _relational(spec) -> bool:
    if spec.check == "statement":
        return isinstance(spec.statement, (Insert, Delete, Update))
    return any(isinstance(stmt, _RELATIONAL) for stmt in spec.source.statements())


def _tier2(checker, spec):
    formula, source = spec.assertion.formula, spec.source
    if spec.check == "statement":
        return checker._statement_symbolic(formula, source, spec.statement, spec.assumption)
    if spec.check == "rollback":
        return checker._rollback_symbolic(formula, source, spec.assumption)
    excuse = FALSE
    if spec.kwargs.get("fcw_excuse"):
        excuse = fcw_excuse_formula(spec.target, source, spec.kwargs.get("fcw_targets"))
    return checker._transaction_symbolic(formula, source, excuse, spec.assumption)


def _bmc(checker, spec):
    extra = dict(spec.kwargs)
    if spec.check == "statement":
        extra["stmt"] = spec.statement
    return checker._bmc(
        spec.target, spec.assertion, spec.source, spec.assumption, mode=spec.check, **extra
    )


def _differential(app: Application, relational: bool = True) -> tuple:
    """``(proved, witnessed)``: tier-2 proofs checked, and BMC witnesses seen.

    Fails on the first tier-2 verdict that is not a proof, and on the first
    proof that exhaustive BMC contradicts or could not check exhaustively.
    With ``relational`` off every obligation is put to tier 2, and only its
    proofs of non-interference are checked (a conventional body's witness
    is a formula-level model that a bounded domain may not contain).
    """
    checker = InterferenceChecker(spec=app.spec, budget=BUDGET)
    proved = witnessed = 0
    seen: set = set()
    for target in app.transactions:
        for level in LEVELS:
            for spec in plan_level(app, target, level):
                if spec.excused is not None or (relational and not _relational(spec)):
                    continue
                key = (
                    spec.check, target.name, spec.assertion.label, spec.source.name,
                    repr(spec.statement), repr(sorted(spec.kwargs.items())),
                )
                if key in seen:
                    continue
                seen.add(key)
                verdict = _tier2(checker, spec)
                bounded = _bmc(checker, spec)
                if bounded.interferes:
                    witnessed += 1
                if verdict is None or (not relational and verdict.interferes):
                    continue
                where = f"{level}: {key}"
                assert not verdict.interferes and verdict.confidence == PROVED, where
                assert not bounded.interferes, f"BMC refutes the tier-2 proof at {where}"
                assert bounded.confidence == BOUNDED, f"BMC not exhaustive at {where}"
                proved += 1
    return proved, witnessed


def small_tpcc() -> Application:
    """tpcc with one value per attribute the obligations do not compare."""
    base = tpcc.make_application()
    spec = base.spec
    return Application(
        name="tpcc-small",
        transactions=base.transactions,
        spec=DomainSpec(
            arrays=(
                ArrayDomain("district", (0, 1), (("next_o_id", (1, 2)), ("ytd", (0,)))),
                ArrayDomain("warehouse", (0,), (("ytd", (0,)),)),
                ArrayDomain("customer", (0,), (("balance", (0,)), ("ytd_payment", (0,)))),
                ArrayDomain("stock", (0, 1), (("quantity", (0, 1)),)),
            ),
            tables=(
                TableDomain(
                    "ORDERS",
                    attrs=(
                        ("o_id", (1,)),
                        ("d_id", (0, 1)),
                        ("c_id", (0,)),
                        ("item", (0,)),
                        ("qty", (1,)),
                        ("delivered", (False, True)),
                    ),
                    max_rows=1,
                ),
            ),
            var_domains={
                "d": (0, 1), "c": (0,), "item": (0, 1), "qty": (1,),
                "amount": (0,), "threshold": (1,),
            },
            state_constraint=spec.state_constraint,
        ),
        assumptions=base.assumptions,
    )


def small_orders() -> Application:
    base = orders.make_application()
    spec = base.spec
    return Application(
        name="orders-small",
        transactions=base.transactions,
        spec=DomainSpec(
            items=(ItemDomain("maximum_date", (0, 1, 2)),),
            tables=(
                TableDomain(
                    "ORDERS",
                    attrs=(
                        ("order_info", (1,)),
                        ("cust_name", ("a", "b")),
                        ("deliv_date", (1, 2)),
                        ("done", (False, True)),
                    ),
                    max_rows=2,
                ),
                TableDomain(
                    "CUST",
                    attrs=(("cust_name", ("a", "b")), ("address", ("x",)), ("num_orders", (1, 2))),
                    max_rows=2,
                ),
            ),
            var_domains={
                "customer": ("a", "b"), "address": ("x",), "order_info": (3,), "today": (1, 2),
            },
            state_constraint=spec.state_constraint,
        ),
        invariant=base.invariant,
        assumptions=base.assumptions,
    )


def small_employees() -> Application:
    """employees over two records, enumerated exhaustively."""
    base = employees.make_application()
    return Application(
        name="employees-small",
        transactions=base.transactions,
        spec=employees.domain_spec(2),
        assumptions=base.assumptions,
    )


def fixture_app() -> Application:
    """One transaction per relational statement kind, over one table.

    ``n`` counts the rows of ``T``; ``v`` is never negative; keys are
    unique.  Each transaction's consistency, result and read postconditions
    put quantifiers, aggregates and membership in front of every effect.
    """
    p, a, c = Param("p"), Local("a"), Local("c")
    n = Item("n")
    k_is_p = eq(RowAttr("r", "k"), p)
    rows = CountWhere("T", "r", TRUE)
    nonneg = ForAllRows("T", "r", ge(RowAttr("r", "v"), 0))
    unique = ForAllRows("T", "u", le(CountWhere("T", "w", eq(RowAttr("w", "k"), RowAttr("u", "k"))), 1))
    add = TransactionType(
        name="Add",
        params=(p,),
        body=(
            Read(a, n, post=eq(a, n)),
            Write(n, a + 1),
            Insert("T", (("k", p), ("v", IntConst(0)))),
        ),
        consistency=conj(eq(n, rows), nonneg),
        result=conj(ExistsRow("T", "r", k_is_p), InTable("T", (("k", p), ("v", IntConst(0))))),
    )
    drop = TransactionType(
        name="Drop",
        params=(p,),
        body=(Delete("T", where=k_is_p),),
        consistency=nonneg,
        result=ForAllRows("T", "r", ne(RowAttr("r", "k"), p)),
    )
    bump = TransactionType(
        name="Bump",
        params=(p,),
        body=(Update("T", sets=(("v", RowAttr("r", "v") + 1),), where=k_is_p),),
        consistency=nonneg,
        result=nonneg,
    )
    look = TransactionType(
        name="Look",
        params=(p,),
        body=(SelectCount("T", c, where=k_is_p, post=eq(c, CountWhere("T", "r", k_is_p))),),
        consistency=unique,
        result=le(CountWhere("T", "r", k_is_p), 1),
    )
    return Application(
        name="relational-fixture",
        transactions=(add, drop, bump, look),
        spec=DomainSpec(
            items=(ItemDomain("n", (0, 1, 2)),),
            tables=(TableDomain("T", attrs=(("k", (0, 1)), ("v", (0, 1))), max_rows=2),),
            var_domains={"p": (0, 1)},
        ),
        assumptions={("Add", "Add"): ne(p, Param("p!2"))},
    )


def partial_undo_app() -> Application:
    """A rollback that is safe when complete and unsafe halfway.

    ``Pair`` bumps ``x`` and ``y`` together and logs a row; ``x == y``
    holds before and after it, and after its complete undo, but not once
    the undo has restored ``y`` alone.
    """
    x, y = Item("x"), Item("y")
    a, b = Local("a"), Local("b")
    pair = TransactionType(
        name="Pair",
        body=(
            Read(a, x), Write(x, a + 1), Read(b, y), Write(y, b + 1), Insert("L", (("k", a),)),
        ),
        consistency=eq(x, y),
    )
    return Application(
        name="partial-undo",
        transactions=(pair,),
        spec=DomainSpec(items=(ItemDomain("x", (0, 1)), ItemDomain("y", (0, 1)))),
    )


@pytest.mark.parametrize(
    "make, minimum",
    [(small_tpcc, 20), (small_orders, 350), (fixture_app, 10)],
    ids=["tpcc", "orders", "fixture"],
)
def test_every_relational_tier2_verdict_survives_exhaustive_bmc(make, minimum):
    proved, witnessed = _differential(make())
    assert proved >= minimum
    assert witnessed > 0  # the scan is not vacuous: BMC does find interference


def test_every_product_proof_survives_exhaustive_bmc():
    proved, witnessed = _differential(small_employees(), relational=False)
    assert proved >= 50
    assert witnessed > 0


def test_rollback_checks_every_partial_undo():
    app = partial_undo_app()
    target = app.transaction("Pair")
    source = target.rename_params("!2")
    assertion = CriticalAssertion("I_i", target.consistency, CONSISTENCY)
    checker = InterferenceChecker(spec=app.spec, budget=BUDGET)
    assert checker._rollback_symbolic(assertion.formula, source) is None
    verdict = checker.check_rollback(target, assertion, source)
    assert verdict.interferes and verdict.method == "bmc-rollback"
