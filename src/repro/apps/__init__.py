"""The paper's example applications, modeled for analysis and simulation.

* :mod:`repro.apps.banking` — Figure 1 / Example 3 (savings/checking
  withdrawals, write skew under SNAPSHOT);
* :mod:`repro.apps.customers` — Example 1 (``cust`` array, Mailing_List /
  New_Order in the conventional model);
* :mod:`repro.apps.employees` — Example 2 (``emp`` array, Hours /
  Print_Records);
* :mod:`repro.apps.orders` — Section 6 / Figures 2–5 (ORDERS / CUST /
  MAXDATE, the four-transaction ordering application);
* :mod:`repro.apps.tpcc` — TPC-C-lite, the paper's stated future work.

:func:`registry` maps short names to application factories.  Applications
embed closures (abstract-predicate evaluators, domain constraints) that
cannot cross a process boundary, so jobs and fleet workers name an
application and rebuild it from the registry on their side.
"""

from __future__ import annotations


def registry() -> dict:
    """Short name -> zero-argument application factory, for CLI and jobs."""
    from repro.apps import banking, customers, employees, orders, tpcc

    return {
        "banking": banking.make_application,
        "customers": customers.make_application,
        "employees": employees.make_application,
        "orders": lambda: orders.make_application("no_gap"),
        "orders-strict": lambda: orders.make_application("one_order"),
        "tpcc": tpcc.make_application,
    }
