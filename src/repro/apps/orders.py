"""The Section 6 ordering application (Figures 2–5).

Schema:

* ``ORDERS(order_info, cust_name, deliv_date, done)`` — one row per order;
* ``CUST(cust_name, address, num_orders)`` — one row per customer;
* ``maximum_date`` — the MAXDATE single-row table, modeled as a scalar item
  (semantically identical: one row, one attribute).

Business rules (conjuncts of ``I``):

* **no gaps** — there is at least one order to be delivered on each date up
  to the delivery date of the last outstanding order.  Note the rule is
  *order-relative* (it constrains the dates present in ORDERS); ``I_max``
  separately ties ``maximum_date`` to the latest order date;
* **one order per day** — the variant rule: *exactly* one order per date;
* **order consistency** — ``#orders`` in each CUST row equals the number of
  ORDERS rows for that customer, and every order's customer exists in CUST.

Transaction types and the paper's verdicts this model reproduces:

* ``Mailing_List`` (Figure 2) — weak spec: no critical assertion depends on
  the database, so READ UNCOMMITTED suffices.  The strengthened spec
  ("every printed label refers to a customer") is invalidated by a
  ``New_Order`` rollback deleting a dirty-read CUST row, so it needs READ
  COMMITTED.
* ``New_Order`` (Figure 3) — under *no gaps*: fails READ UNCOMMITTED (the
  rollback of another New_Order restores ``maximum_date`` below the value
  this transaction read), passes READ COMMITTED.  Under *one order per
  day*: the read of ``maximum_date`` must be annotated with the strong
  ``maxdate = maximum_date`` (weaker forms cannot justify the INSERT), the
  strong form is interfered with by any other New_Order — so plain READ
  COMMITTED fails — but the read is followed by a write of the same item,
  so first-committer-wins protects it: READ COMMITTED FCW suffices.
* ``Delivery`` (Figure 4) — its SELECT's postcondition is interfered with
  by another Delivery, so READ COMMITTED fails; at REPEATABLE READ the
  interfering UPDATE's predicate intersects the SELECT's predicate and is
  blocked by the long tuple read locks (Theorem 6 condition 2), so
  REPEATABLE READ suffices.
* ``Audit`` (Figure 5) — both SELECT postconditions are interfered with by
  a phantom ``New_Order`` INSERT, which tuple locks cannot block, so
  SERIALIZABLE is required.

The paper implicitly assumes concurrent ``New_Order`` instances are placed
by different customers (otherwise two first-orders for the same new
customer race their CUST insert even at SERIALIZABLE-less levels); the
application records that as an explicit concurrency assumption.
"""

from __future__ import annotations

from repro.core.application import Application
from repro.core.domains import DomainSpec, ItemDomain, TableDomain
from repro.core.formula import (
    AbstractPred,
    BoolAtom,
    BoundVar,
    CountWhere,
    ExistsRow,
    ForAllInts,
    ForAllRows,
    RowAttr,
    TRUE,
    conj,
    eq,
    ge,
    implies,
    le,
    ne,
)
from repro.core.program import (
    ForEach,
    If,
    Insert,
    Read,
    Select,
    SelectCount,
    SelectScalar,
    TransactionType,
    Update,
    Write,
)
from repro.core.resources import TableResource
from repro.core.state import DbState
from repro.core.terms import BoolConst, IntConst, Item, Local, LogicalVar, Param

MAXDATE = Item("maximum_date")

# ---------------------------------------------------------------------------
# integrity-constraint conjuncts
# ---------------------------------------------------------------------------

#: no gaps: for every order, every earlier date (from 1) also has an order.
NO_GAP = ForAllRows(
    "ORDERS",
    "g1",
    ForAllInts(
        "d",
        IntConst(1),
        RowAttr("g1", "deliv_date"),
        ExistsRow("ORDERS", "g2", eq(RowAttr("g2", "deliv_date"), BoundVar("d"))),
    ),
)

#: one order per day: every date up to any order's date has exactly one order.
ONE_ORDER_PER_DAY = ForAllRows(
    "ORDERS",
    "g1",
    ForAllInts(
        "d",
        IntConst(1),
        RowAttr("g1", "deliv_date"),
        eq(CountWhere("ORDERS", "g2", eq(RowAttr("g2", "deliv_date"), BoundVar("d"))), 1),
    ),
)

#: I_max, upper-bound form: maximum_date bounds every delivery date.
I_MAX_LE = ForAllRows("ORDERS", "m1", le(RowAttr("m1", "deliv_date"), MAXDATE))

#: I_max, exact form: maximum_date is reached by some order when any exist.
I_MAX_EXACT = conj(
    I_MAX_LE,
    implies(
        ExistsRow("ORDERS", "m2", TRUE),
        ExistsRow("ORDERS", "m3", eq(RowAttr("m3", "deliv_date"), MAXDATE)),
    ),
    implies(ge(MAXDATE, 1), ExistsRow("ORDERS", "m4", eq(RowAttr("m4", "deliv_date"), MAXDATE))),
)

#: order consistency: per-customer counts agree and customers exist.
ORDER_CONSISTENCY = conj(
    ForAllRows(
        "CUST",
        "c",
        eq(
            RowAttr("c", "num_orders"),
            CountWhere("ORDERS", "o", eq(RowAttr("o", "cust_name", "str"), RowAttr("c", "cust_name", "str"))),
        ),
    ),
    ForAllRows(
        "ORDERS",
        "o2",
        ExistsRow("CUST", "c2", eq(RowAttr("c2", "cust_name", "str"), RowAttr("o2", "cust_name", "str"))),
    ),
    # customer names are unique (CUST's primary key)
    ForAllRows(
        "CUST",
        "c3",
        eq(CountWhere("CUST", "c4", eq(RowAttr("c4", "cust_name", "str"), RowAttr("c3", "cust_name", "str"))), 1),
    ),
    # CUST rows exist only for customers with at least one order — the
    # implicit invariant behind Figure 3's "custcount = 0 ⇒ customer is
    # new" branch logic
    ForAllRows("CUST", "c5", ge(RowAttr("c5", "num_orders"), 1)),
)


def invariant(rule: str):
    """The full consistency constraint for the chosen business rule."""
    gap_rule = NO_GAP if rule == "no_gap" else ONE_ORDER_PER_DAY
    return conj(gap_rule, ORDER_CONSISTENCY, I_MAX_EXACT)


# ---------------------------------------------------------------------------
# transaction types
# ---------------------------------------------------------------------------


def make_mailing_list(strengthened: bool = False) -> TransactionType:
    """Figure 2: print a mailing label for every customer."""
    buff = Local("labels", "str")
    select = Select("CUST", buff, attrs=("cust_name", "address"), row="c")

    if not strengthened:
        # Weak spec: every label has a name and an address — a property of
        # the returned data alone, independent of the database state.
        post = AbstractPred(
            name="labels have names and addresses",
            reads=frozenset(),
            evaluator=lambda state, env: all(
                "cust_name" in dict(row) and "address" in dict(row)
                for row in env.get(buff, ())
            ),
        )
        result = AbstractPred(
            name="labels have been printed", reads=frozenset(), evaluator=lambda s, e: True
        )
    else:
        # Strengthened spec: every printed label refers to a (still
        # existing) customer — this *does* read the database.
        def labels_refer_to_customers(state: DbState, env) -> bool:
            customers = {row.get("cust_name") for row in state.rows("CUST")}
            return all(dict(row).get("cust_name") in customers for row in env.get(buff, ()))

        post = AbstractPred(
            name="labels refer to customers",
            reads=frozenset({TableResource("CUST"), TableResource("CUST", "cust_name")}),
            evaluator=labels_refer_to_customers,
        )
        result = post

    select_annotated = Select(
        "CUST", buff, attrs=("cust_name", "address"), row="c", post=post
    )
    return TransactionType(
        name="Mailing_List" + ("_strengthened" if strengthened else ""),
        params=(),
        body=(select_annotated,),
        consistency=TRUE,
        result=result,
    )


def make_new_order(rule: str = "no_gap") -> TransactionType:
    """Figure 3: enter a new order, maintaining the delivery-date rule.

    ``rule`` selects the business rule and with it the strength of the
    read annotation (the crux of the paper's RC vs RC-FCW discussion).
    """
    customer = Param("customer", "str")
    address = Param("address", "str")
    order_info = Param("order_info")
    maxdate = Local("maxdate")
    custcount = Local("custcount")

    gap_rule = NO_GAP if rule == "no_gap" else ONE_ORDER_PER_DAY
    if rule == "no_gap":
        # the weak bound suffices to justify inserting at maxdate + 1
        maxdate_link = le(maxdate, MAXDATE)
        date_bound = I_MAX_LE
    else:
        # exactly-one-per-day can only be preserved if no other order can
        # land on maxdate + 1: the read needs the strong, equality form
        maxdate_link = eq(maxdate, MAXDATE)
        date_bound = ForAllRows("ORDERS", "b1", le(RowAttr("b1", "deliv_date"), maxdate))

    read_maxdate = Read(
        maxdate,
        MAXDATE,
        post=conj(gap_rule, ORDER_CONSISTENCY, maxdate_link, date_bound),
        label="read maximum_date",
    )
    bump = Write(MAXDATE, maxdate + 1, label="bump maximum_date")
    count_orders = SelectCount(
        "ORDERS",
        custcount,
        where=eq(RowAttr("r", "cust_name", "str"), customer),
        post=conj(
            eq(
                custcount,
                CountWhere("ORDERS", "o", eq(RowAttr("o", "cust_name", "str"), customer)),
            ),
        ),
        label="count customer's orders",
    )
    upsert_customer = If(
        cond=eq(custcount, 0),
        then=(
            Insert(
                "CUST",
                values=(
                    ("cust_name", customer),
                    ("address", address),
                    ("num_orders", IntConst(1)),
                ),
                label="insert new customer",
            ),
        ),
        orelse=(
            Update(
                "CUST",
                sets=(("num_orders", custcount + 1),),
                where=eq(RowAttr("r", "cust_name", "str"), customer),
                label="bump customer's order count",
            ),
        ),
    )
    insert_order = Insert(
        "ORDERS",
        values=(
            ("order_info", order_info),
            ("cust_name", customer),
            ("deliv_date", maxdate + 1),
            ("done", False),
        ),
        label="insert order",
    )
    result = conj(
        gap_rule,
        ORDER_CONSISTENCY,
        I_MAX_LE,
        ExistsRow("ORDERS", "q1", eq(RowAttr("q1", "order_info"), order_info)),
        ExistsRow("CUST", "q2", eq(RowAttr("q2", "cust_name", "str"), customer)),
    )
    return TransactionType(
        name="New_Order",
        params=(customer, address, order_info),
        body=(read_maxdate, bump, count_orders, upsert_customer, insert_order),
        consistency=conj(gap_rule, ORDER_CONSISTENCY, I_MAX_EXACT),
        result=result,
    )


def make_delivery() -> TransactionType:
    """Figure 4: mark all of today's outstanding orders delivered."""
    today = Param("today")
    buff = Local("buff", "str")
    ord_inf = Local("ord_inf")
    due_today = conj(
        eq(RowAttr("r", "deliv_date"), today),
        eq(RowAttr("r", "done", "bool"), False),
    )
    select = Select("ORDERS", buff, where=due_today, attrs=("order_info",), row="r",
                    label="select today's undelivered orders")
    loop = ForEach(
        buffer=buff,
        bind=(("order_info", ord_inf),),
        body=(
            Update(
                "ORDERS",
                sets=(("done", BoolConst(True)),),
                where=eq(RowAttr("r", "order_info"), ord_inf),
                label="mark delivered",
            ),
        ),
    )
    # Q_i: every order due today is marked done.
    result = ForAllRows(
        "ORDERS",
        "q",
        implies(
            eq(RowAttr("q", "deliv_date"), today),
            eq(RowAttr("q", "done", "bool"), True),
        ),
    )
    return TransactionType(
        name="Delivery",
        params=(today,),
        body=(select, loop),
        # the delivery date being serviced never exceeds the outstanding
        # maximum (one cannot deliver orders that have not been placed)
        consistency=conj(le(today, MAXDATE), ge(today, 1)),
        result=result,
    )


def make_audit() -> TransactionType:
    """Figure 5: check order consistency for one customer."""
    customer = Param("customer", "str")
    count1 = Local("count1")
    count2 = Local("count2")
    retv = Local("retv", "bool")
    count_orders = SelectCount(
        "ORDERS",
        count1,
        where=eq(RowAttr("r", "cust_name", "str"), customer),
        label="count orders",
    )
    read_declared = SelectScalar(
        "CUST",
        "num_orders",
        count2,
        where=eq(RowAttr("r", "cust_name", "str"), customer),
        default=0,
        label="read declared count",
    )
    # Figure 5's final ``retv := (count1 == count2)`` is pure workspace
    # computation; its semantic content is carried by the result assertion.
    def result_matches(state: DbState, env) -> bool:
        return env.get(count1) == env.get(count2)

    result = AbstractPred(
        name="retv = order_consistency for customer",
        reads=frozenset(
            {
                TableResource("ORDERS"),
                TableResource("ORDERS", "cust_name"),
                TableResource("CUST"),
                TableResource("CUST", "num_orders"),
                TableResource("CUST", "cust_name"),
            }
        ),
        evaluator=result_matches,
    )
    return TransactionType(
        name="Audit",
        params=(customer,),
        body=(count_orders, read_declared),
        consistency=ORDER_CONSISTENCY,
        result=result,
    )


# ---------------------------------------------------------------------------
# domains and application factories
# ---------------------------------------------------------------------------


def domain_spec(rule: str = "no_gap", budget_friendly: bool = True) -> DomainSpec:
    """Small domains for the order application's bounded model checking."""
    dates = (1, 2)
    customers = ("a", "b")

    def consistent(state: DbState) -> bool:
        try:
            return invariant(rule).evaluate(state, {})
        except Exception:
            return False

    return DomainSpec(
        items=(ItemDomain("maximum_date", (0, 1, 2)),),
        tables=(
            TableDomain(
                "ORDERS",
                attrs=(
                    ("order_info", (1, 2)),
                    ("cust_name", customers),
                    ("deliv_date", dates),
                    ("done", (False, True)),
                ),
                max_rows=2,
            ),
            TableDomain(
                "CUST",
                attrs=(
                    ("cust_name", customers),
                    ("address", ("x",)),
                    ("num_orders", (0, 1, 2)),
                ),
                max_rows=2,
            ),
        ),
        var_domains={
            "customer": customers,
            "address": ("x",),
            "order_info": (3, 4),
            "today": (1, 2),
        },
        state_constraint=consistent,
    )


def make_application(rule: str = "no_gap", strengthened_mailing: bool = False) -> Application:
    """The Section 6 application under the chosen business rule."""
    new_order = make_new_order(rule)
    transactions = (
        make_mailing_list(strengthened_mailing),
        new_order,
        make_delivery(),
        make_audit(),
    )
    mailing_name = transactions[0].name
    assumptions = {}
    distinct_customers = ne(Param("customer", "str"), Param("customer!2", "str"))
    assumptions[("New_Order", "New_Order")] = distinct_customers
    return Application(
        name=f"orders[{rule}]",
        transactions=transactions,
        spec=domain_spec(rule),
        invariant=invariant(rule),
        description="Section 6 ordering application (Figures 2-5)",
        assumptions=assumptions,
    )
