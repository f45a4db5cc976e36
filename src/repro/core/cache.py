"""Verdict cache: memoised interference checks with structural fingerprints.

The per-level theorems (Thms 1-6) generate heavily overlapping obligation
sets.  A single chooser run over the extended ladder re-discharges the same
``(statement, assertion, assumption)`` triple at READ UNCOMMITTED, READ
COMMITTED, REPEATABLE READ and SNAPSHOT, and — because the consistency
constraint ``I`` is shared — across target transactions too.  The verdict of
one interference check is *level-independent*: it states whether the Hoare
triple ``{P ∧ pre} S {P}`` holds, a fact about the statement and the
assertion, not about the isolation level whose theorem demanded it (see
``docs/PERFORMANCE.md``).  Caching it once is therefore sound, and the E1
benchmark shows the same obligations recur across the ladder.

Two ingredients live here:

* :func:`fingerprint` — a stable structural digest of the immutable analysis
  objects (:class:`~repro.core.terms.Term`, formulas, statements,
  transaction types, domain specs).  Closures are fingerprinted through
  their code identity *and* their captured cells, so two
  ``canonical_read_post`` closures over equal statements collide (they
  should: they denote the same predicate) while closures over different
  captured formulas do not.  Sub-object digests are interned per object
  identity, so deep formulas are hashed once.

* :class:`VerdictCache` — a bounded mapping from obligation fingerprints to
  :class:`~repro.core.interference.InterferenceVerdict`, with hit/miss
  counters.  Verdicts decided by the target-independent tiers (footprint
  disjointness, symbolic proof) are stored under a *formula-scope* key and
  shared across target transactions; bounded-model-checking verdicts depend
  on the target's trace (the assertion's activation window) and are stored
  under a *full-scope* key that includes the target.

The default cache is per-:class:`~repro.core.interference.InterferenceChecker`
(one analysis run shares verdicts across its levels and targets); pass
:func:`shared_cache` explicitly to share across checkers in one process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any

#: Scope tags for cached verdicts (see module docstring).
FORMULA_SCOPE = "formula"
FULL_SCOPE = "full"

#: Version of the fingerprint scheme itself; part of the persistent-store
#: salt so digests computed by an older scheme can never satisfy a lookup.
FINGERPRINT_VERSION = "1"

#: Cap on the number of interned sub-object digests kept alive.
_INTERN_CAP = 1_000_000

#: Cap on cached verdicts per cache instance.
DEFAULT_CACHE_CAP = 500_000

# id -> (strong ref keeping the id valid, digest).  Strong refs are required:
# without them a collected object's id could be reused by a new, different
# object and alias its digest.
_intern: dict[int, tuple[Any, str]] = {}


def clear_fingerprint_cache() -> None:
    """Drop all interned digests (test isolation; frees the strong refs)."""
    _intern.clear()


def _callable_token(obj: Any, _depth: int) -> tuple:
    """Fingerprint token for a function or bound method.

    Identity is (module, qualname) plus the fingerprints of the captured
    closure cells and defaults — the parts that make two same-named closures
    denote different predicates.  Builtins and callables without inspectable
    innards fall back to their name alone.
    """
    code = getattr(obj, "__code__", None)
    parts: list = [
        "fn",
        getattr(obj, "__module__", ""),
        getattr(obj, "__qualname__", getattr(obj, "__name__", "?")),
    ]
    if code is not None:
        parts.append(code.co_code.hex())
        closure = getattr(obj, "__closure__", None) or ()
        for cell in closure:
            try:
                contents = cell.cell_contents
            except ValueError:  # empty cell
                parts.append("<empty-cell>")
                continue
            parts.append(_token(contents, _depth + 1))
        defaults = getattr(obj, "__defaults__", None) or ()
        for default in defaults:
            parts.append(_token(default, _depth + 1))
    self_obj = getattr(obj, "__self__", None)
    if self_obj is not None:
        parts.append(_token(self_obj, _depth + 1))
    return tuple(parts)


_NODE_BASES: tuple | None = None


def _node_bases() -> tuple:
    """The hash-consed node roots (resolved lazily to avoid an import cycle)."""
    global _NODE_BASES
    if _NODE_BASES is None:
        from repro.core.formula import Formula
        from repro.core.terms import Term

        _NODE_BASES = (Term, Formula)
    return _NODE_BASES


def _token(obj: Any, _depth: int = 0) -> object:
    """A hashable, order-stable token structurally identifying ``obj``."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return (type(obj).__name__, obj)
    if _depth > 64:
        return ("deep", _opaque(obj))
    is_node = isinstance(obj, _node_bases())
    if is_node:
        # Term/Formula nodes carry their digest; interned nodes compute it
        # exactly once per process no matter how many trees share them.
        cached_fp = obj.__dict__.get("_hc_fp")
        if cached_fp is not None:
            return cached_fp
    key = id(obj)
    cached = _intern.get(key)
    if cached is not None and cached[0] is obj:
        return cached[1]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        token: object = (
            type(obj).__module__,
            type(obj).__qualname__,
            tuple(
                (f.name, _token(getattr(obj, f.name), _depth + 1))
                for f in dataclasses.fields(obj)
            ),
        )
    elif isinstance(obj, (tuple, list)):
        token = (type(obj).__name__, tuple(_token(item, _depth + 1) for item in obj))
    elif isinstance(obj, (set, frozenset)):
        token = ("set", tuple(sorted(repr(_token(item, _depth + 1)) for item in obj)))
    elif isinstance(obj, dict):
        token = (
            "dict",
            tuple(
                sorted(
                    (repr(_token(k, _depth + 1)), _token(v, _depth + 1))
                    for k, v in obj.items()
                )
            ),
        )
    elif callable(obj):
        token = _callable_token(obj, _depth)
    else:
        token = ("opaque", _opaque(obj))
    digest = hashlib.sha256(repr(token).encode()).hexdigest()[:24]
    if is_node:
        object.__setattr__(obj, "_hc_fp", digest)
        return digest
    if len(_intern) >= _INTERN_CAP:
        _intern.clear()
    _intern[key] = (obj, digest)
    return digest


def _opaque(obj: Any) -> str:
    """Identity-based fallback for objects with no structural reading.

    Sound within a process (the intern table keeps the object alive so its
    id cannot be reused) but deliberately not stable across processes: a
    persisted entry keyed by it simply never matches a fresh run's keys
    (see :mod:`repro.core.persist`).
    """
    if len(_intern) < _INTERN_CAP:
        _intern[id(obj)] = (obj, f"@{id(obj):x}")
    return f"@{id(obj):x}"


def fingerprint(obj: Any) -> str:
    """Stable structural digest of an analysis object (hex string)."""
    token = _token(obj)
    if isinstance(token, str):
        return token
    return hashlib.sha256(repr(token).encode()).hexdigest()[:24]


def fingerprint_many(*objs: Any) -> str:
    """Digest of a sequence of objects, order-sensitive."""
    return hashlib.sha256(
        "|".join(fingerprint(obj) for obj in objs).encode()
    ).hexdigest()[:24]


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`VerdictCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    persist_hits: int = 0  # hits answered by an entry warmed from disk

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 4),
            "persist_hits": self.persist_hits,
        }


class VerdictCache:
    """Bounded verdict store keyed by obligation fingerprints.

    Keys arrive pre-composed (see
    :meth:`~repro.core.interference.InterferenceChecker._cache_key`); the
    cache itself only provides bounded storage, the two-scope lookup
    discipline and counters.  Eviction is FIFO (insertion order), which is
    adequate because one analysis run rarely overflows the cap and the cap
    exists only to bound memory on pathological inputs.

    One instance may be shared across threads (the service's job pool
    does): lookups read plain dicts, which
    is safe under the GIL, while every mutation — store, eviction, absorb,
    clear, the flush snapshot — takes a lock so the eviction scan can never
    interleave with a concurrent store and the persisted-flag bookkeeping
    stays consistent.
    """

    def __init__(self, cap: int = DEFAULT_CACHE_CAP, enabled: bool = True) -> None:
        self.cap = cap
        self.enabled = enabled
        self.stats = CacheStats()
        self._store: dict = {}
        self._persisted: set = set()  # keys warmed from the on-disk store
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, formula_key: str, full_key: str):
        """Return a cached verdict under either scope, or None.

        The formula-scope key is tried first: a tier-1/tier-2 verdict is
        independent of the target transaction, so it satisfies any obligation
        sharing the (assertion-formula, source, statement, assumption)
        fingerprint.  The full-scope key covers BMC verdicts, which are only
        valid for the same target/assertion-kind pair.
        """
        if not self.enabled:
            return None
        key = (FORMULA_SCOPE, formula_key)
        verdict = self._store.get(key)
        if verdict is None:
            key = (FULL_SCOPE, full_key)
            verdict = self._store.get(key)
        if verdict is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if key in self._persisted:
            self.stats.persist_hits += 1
        return verdict

    def store(self, scope: str, key: str, verdict) -> None:
        if not self.enabled:
            return
        with self._lock:
            if len(self._store) >= self.cap:
                # FIFO eviction of the oldest ~1% keeps the common path O(1)
                drop = max(1, self.cap // 100)
                for stale in list(self._store)[:drop]:
                    del self._store[stale]
                    self._persisted.discard(stale)
                self.stats.evictions += drop
            self._store[(scope, key)] = verdict
            self.stats.stores += 1

    def absorb(self, scope: str, key: str, verdict) -> bool:
        """Warm one entry from the persistent store.

        In-memory entries win (they are at least as fresh); returns whether
        the entry was actually added.  Warmed entries are tracked so hits on
        them count as ``persist_hits``.
        """
        if not self.enabled:
            return False
        with self._lock:
            composite = (scope, key)
            if composite in self._store:
                return False
            self._store[composite] = verdict
            self._persisted.add(composite)
            return True

    def items(self):
        """All ``((scope, key), verdict)`` pairs plus their persisted flag.

        Snapshotted under the lock so a flush iterating the cache can never
        race a concurrent store's eviction scan.
        """
        with self._lock:
            snapshot = [
                (composite, verdict, composite in self._persisted)
                for composite, verdict in self._store.items()
            ]
        return iter(snapshot)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._persisted.clear()
            self.stats = CacheStats()


_shared: VerdictCache | None = None


def shared_cache() -> VerdictCache:
    """The process-wide shared cache (created on first use).

    Checkers default to a private cache; the CLI and the benchmarks pass
    this one so successive analyses in the same process share verdicts.
    """
    global _shared
    if _shared is None:
        _shared = VerdictCache()
    return _shared


def reset_shared_cache() -> None:
    """Drop the process-wide cache (test isolation)."""
    global _shared
    _shared = None
