"""Finite domains for bounded model checking.

The symbolic tier of the interference checker covers the conventional
(scalar/array) fragment exactly.  Relational assertions — quantifiers over
table rows, COUNT aggregates, membership, phantoms — are checked by *bounded
model checking* instead: enumerate (or sample) small concrete database
states and variable assignments, execute the candidate interfering statement
or transaction, and watch whether the assertion flips from true to false.

A :class:`DomainSpec` describes that finite search space for one
application: value ranges for items, array elements, table attributes and
variables, bounds on table sizes, and an optional global constraint (the
application's consistency constraint ``I``) that generated states must
satisfy.

Enumeration is exhaustive whenever the space fits the case budget;
otherwise a seeded pseudo-random sample of the same budget is drawn and the
result is flagged as sampled (see :class:`SearchSpace.exhaustive`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.formula import Formula
from repro.core.state import DbState
from repro.core.terms import Local, LogicalVar, Param, Term, Value
from repro.errors import AnalysisError

#: Default budget of concrete cases examined per obligation.
DEFAULT_BUDGET = 4000

#: Default value pool used for variables with no declared domain.
DEFAULT_INT_VALUES = (0, 1, 2)


@dataclass(frozen=True)
class ItemDomain:
    """Value pool for a scalar database item."""

    name: str
    values: tuple

    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ArrayDomain:
    """Index set and per-attribute value pools for a record array."""

    name: str
    indices: tuple
    attrs: tuple  # tuple of (attr_name_or_None, value_pool)

    def size(self) -> int:
        total = 1
        for _attr, pool in self.attrs:
            total *= len(pool) ** len(self.indices)
        return total


@dataclass(frozen=True)
class TableDomain:
    """Row shape and size bounds for a relational table.

    ``attrs`` maps attribute names to value pools.  Tables are enumerated as
    multisets of rows drawn from the attribute product, with between
    ``min_rows`` and ``max_rows`` rows.  ``row_filter`` (a plain callable on
    the row dict) prunes structurally impossible rows early.
    """

    name: str
    attrs: tuple  # tuple of (attr_name, value_pool)
    max_rows: int = 2
    min_rows: int = 0
    row_filter: Callable[[dict], bool] | None = None

    def candidate_rows(self) -> list:
        names = [attr for attr, _pool in self.attrs]
        pools = [pool for _attr, pool in self.attrs]
        rows = [dict(zip(names, combo)) for combo in itertools.product(*pools)]
        if self.row_filter is not None:
            rows = [row for row in rows if self.row_filter(row)]
        return rows

    def size(self) -> int:
        per_row = len(self.candidate_rows())
        total = 0
        for count in range(self.min_rows, self.max_rows + 1):
            total += _multiset_count(per_row, count)
        return total


def _multiset_count(pool: int, take: int) -> int:
    """Number of multisets of size ``take`` from ``pool`` distinct elements."""
    if take == 0:
        return 1
    if pool == 0:
        return 0
    import math

    return math.comb(pool + take - 1, take)


@dataclass
class DomainSpec:
    """The complete finite search space for one application's analysis."""

    items: tuple = ()
    arrays: tuple = ()
    tables: tuple = ()
    var_domains: dict = field(default_factory=dict)  # var name -> value pool
    default_values: tuple = DEFAULT_INT_VALUES
    state_constraint: Callable[[DbState], bool] | None = None

    def values_for(self, term: Term) -> tuple:
        """Value pool for a free variable term (local/param/logical)."""
        name = getattr(term, "name", None)
        if name is not None and name in self.var_domains:
            return tuple(self.var_domains[name])
        # parameter renamed for pairwise analysis: strip the instance suffix
        if name is not None:
            for suffix in ("!1", "!2"):
                if name.endswith(suffix) and name[: -len(suffix)] in self.var_domains:
                    return tuple(self.var_domains[name[: -len(suffix)]])
        if term.sort == "bool":
            return (False, True)
        if term.sort == "str":
            return ("a", "b")
        return self.default_values

    # -- state enumeration ---------------------------------------------------
    def state_space_size(self) -> int:
        total = 1
        for item in self.items:
            total *= item.size()
        for array in self.arrays:
            total *= array.size()
        for table in self.tables:
            total *= table.size()
        return total

    def _state_choices(self) -> list:
        """Per-slot choice lists whose product is the full state space."""
        slots: list = []
        for item in self.items:
            slots.append([("item", item.name, value) for value in item.values])
        for array in self.arrays:
            for index in array.indices:
                for attr, pool in array.attrs:
                    slots.append([("field", array.name, index, attr, value) for value in pool])
        for table in self.tables:
            rows = table.candidate_rows()
            contents: list = []
            for count in range(table.min_rows, table.max_rows + 1):
                for combo in itertools.combinations_with_replacement(range(len(rows)), count):
                    contents.append(("table", table.name, tuple(rows[i] for i in combo)))
            slots.append(contents)
        return slots

    def _build_state(self, picks: Sequence) -> DbState:
        state = DbState()
        for pick in picks:
            kind = pick[0]
            if kind == "item":
                state.write_item(pick[1], pick[2])
            elif kind == "field":
                state.write_field(pick[1], pick[2], pick[3], pick[4])
            else:
                for row in pick[2]:
                    state.insert_row(pick[1], dict(row))
        return state

    def iter_states(self, budget: int, rng: random.Random) -> "SearchSpace":
        """States of the space, exhaustive when they fit the budget."""
        slots = self._state_choices()
        return SearchSpace(slots, self._build_state, budget, rng, self.state_constraint)


class SearchSpace:
    """Iterator over a cartesian product, exhaustive or sampled.

    ``exhaustive`` reports which mode was used — the interference checker
    propagates it into the confidence of its "no witness found" verdicts.
    """

    def __init__(
        self,
        slots: Sequence,
        build: Callable,
        budget: int,
        rng: random.Random,
        constraint: Callable | None = None,
    ) -> None:
        if any(len(slot) == 0 for slot in slots):
            raise AnalysisError("empty domain slot: the search space is void")
        self._slots = slots
        self._build = build
        self._budget = budget
        self._rng = rng
        self._constraint = constraint
        size = 1
        for slot in slots:
            size *= len(slot)
            if size > budget:
                break
        self.size = size
        self.exhaustive = size <= budget

    def __iter__(self) -> Iterator:
        produced = 0
        if self.exhaustive:
            for picks in itertools.product(*self._slots):
                candidate = self._build(picks)
                if self._constraint is not None and not self._constraint(candidate):
                    continue
                yield candidate
            return
        while produced < self._budget:
            picks = [self._rng.choice(slot) for slot in self._slots]
            candidate = self._build(picks)
            produced += 1
            if self._constraint is not None and not self._constraint(candidate):
                continue
            yield candidate


def iter_assignments(
    terms: Sequence[Term],
    spec: DomainSpec,
    budget: int,
    rng: random.Random,
) -> SearchSpace:
    """Enumerate value assignments for the given free variable terms."""
    unique: list[Term] = []
    seen = set()
    for term in terms:
        if term not in seen and isinstance(term, (Local, Param, LogicalVar)):
            seen.add(term)
            unique.append(term)
    slots = [[(term, value) for value in spec.values_for(term)] for term in unique]

    def build(picks: Sequence) -> dict:
        return {term: value for term, value in picks}

    return SearchSpace(slots, build, budget, rng)


def split_budget(total: int, parts: int) -> int:
    """Divide a case budget across nested enumeration levels."""
    if parts <= 0:
        return total
    return max(1, int(total ** (1.0 / parts)))
