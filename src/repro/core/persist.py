"""Persistent verdict store: cross-run warm starts for the verdict cache.

The E1/E14 benchmarks show a three-orders-of-magnitude gap between a cold
analysis and a warm one — the obligations of one application change rarely,
but every fresh process, CI job and ``certify`` invocation used to pay the
full discharge bill again.  This module closes the gap with a disk-backed
store under ``.repro-cache/`` that warms the in-memory
:class:`~repro.core.cache.VerdictCache` at startup and flushes newly decided
verdicts on exit.

Design constraints, in order:

* **Never wrong.**  Entries are keyed by the same structural fingerprints the
  in-memory cache uses, and every segment carries a *salt* combining the
  fingerprint-scheme, prover and obligation-plan versions
  (:func:`store_salt`).  A segment written by any other version of the
  analysis code misses cleanly — it is simply not loaded.  Fingerprints that
  embed process-local identities (the ``@id`` fallback of
  :func:`repro.core.cache.fingerprint` for opaque objects) can never match a
  fresh run's keys, so such entries go stale harmlessly rather than aliasing.
* **Never crash.**  Truncated or corrupted segment lines (killed process,
  full disk, concurrent compaction) are skipped and counted, not raised.
* **Never clobber.**  Each process writes its own uniquely named segment
  (``verdicts-<pid>-<uuid>.jsonl``) via a temp-file rename; two processes
  sharing a cache directory only ever append distinct files.  Compaction
  merges segments into a fresh uniquely named file before unlinking the
  inputs, and is serialised across processes by an advisory claim file
  (``compact.lock``, created with ``O_EXCL``): two compactors never
  double-unlink, a loser simply skips its turn, and a claim left behind by
  a killed compactor is broken once it goes stale (dead pid or old mtime).

The store is also the analysis fleet's cross-process verdict bus
(``repro serve --fleet``): every worker shard periodically *flushes* its
newly decided verdicts as a fresh segment and *refreshes* its in-memory
cache from segments it has not absorbed yet (:meth:`PersistentStore.refresh`
tracks seen segment names), so a verdict decided on one shard warms every
other shard within one persist interval.

Witnesses are persisted in stripped form (kind and description only): the
concrete states and environments exist to render one report and are not
worth their serialised weight, and the stripped witness still carries the
evidence text shown in level tables.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path

from repro.core.cache import FINGERPRINT_VERSION, VerdictCache
from repro.core.interference import InterferenceVerdict, Witness
from repro.core.prover import PROVER_VERSION

#: On-disk segment format version (bumped on incompatible layout changes).
STORE_FORMAT = 1

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Compaction triggers when a directory accumulates more segments than this.
COMPACT_THRESHOLD = 8

#: A compaction claim older than this is considered abandoned (seconds).
LOCK_STALE_SECONDS = 300.0

_SEGMENT_GLOB = "verdicts-*.jsonl"
_LOCK_NAME = "compact.lock"


def store_salt() -> str:
    """The version salt all loadable segments must carry.

    Combines the fingerprint scheme, the prover semantics, the tier-2
    effect semantics and the obligation plan shape: a change to any of them
    invalidates every persisted verdict (clean miss), because the keys or
    the meaning of the cached answers may have shifted.  Effects version 2
    proves relational obligations that version 1 left to sampled BMC.
    """
    from repro.core.conditions import PLAN_VERSION  # lazy: import cycle
    from repro.core.effects import EFFECTS_VERSION

    return (
        f"fp{FINGERPRINT_VERSION}.prover{PROVER_VERSION}"
        f".effects{EFFECTS_VERSION}.plan{PLAN_VERSION}"
    )


def _strip_witness(witness: Witness | None) -> dict | None:
    if witness is None:
        return None
    return {"kind": witness.kind, "description": witness.description}


def _encode_verdict(verdict: InterferenceVerdict) -> dict:
    return {
        "interferes": verdict.interferes,
        "confidence": verdict.confidence,
        "method": verdict.method,
        "note": verdict.note,
        "witness": _strip_witness(verdict.witness),
    }


def _decode_verdict(payload: dict) -> InterferenceVerdict:
    witness_payload = payload.get("witness")
    witness = None
    if witness_payload is not None:
        witness = Witness(
            kind=str(witness_payload["kind"]),
            description=str(witness_payload["description"]),
        )
    return InterferenceVerdict(
        interferes=bool(payload["interferes"]),
        confidence=str(payload["confidence"]),
        method=str(payload["method"]),
        witness=witness,
        note=str(payload.get("note", "")),
    )


def _claim_compaction(directory: Path) -> bool:
    """Try to acquire a directory's advisory compaction claim (non-blocking).

    The claim is a file created with ``O_CREAT | O_EXCL`` — atomic on
    every filesystem we care about — holding our pid.  A claim whose
    holder is dead or whose mtime is older than
    :data:`LOCK_STALE_SECONDS` is broken (unlinked) and contention is
    retried once; losing the retry means another live compactor is at
    work, and skipping is the correct move (its merge covers our
    segments too).
    """
    lock = directory / _LOCK_NAME
    for _attempt in (0, 1):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not _break_stale_claim(lock):
                return False
            continue
        except OSError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return True
    return False


def _break_stale_claim(lock: Path) -> bool:
    """Unlink an abandoned claim; True when a retry is worthwhile."""
    try:
        age = time.time() - lock.stat().st_mtime
    except OSError:
        # raced with the holder's own release — treat as contended
        return False
    try:
        holder = int(lock.read_text(encoding="utf-8").strip() or "0")
    except (OSError, ValueError):
        holder = 0  # unreadable or garbage claim: age alone decides
    stale = age > LOCK_STALE_SECONDS
    if not stale and holder > 0:
        try:
            os.kill(holder, 0)  # signal 0: existence probe only
        except ProcessLookupError:
            stale = True
        except OSError:
            pass  # exists but not ours to probe — assume alive
    if not stale:
        return False
    try:
        lock.unlink()
    except OSError:
        pass
    return True


def _release_compaction(directory: Path) -> None:
    try:
        (directory / _LOCK_NAME).unlink()
    except OSError:  # pragma: no cover - release is best-effort
        pass


class SegmentLog:
    """Generic append-only JSONL segment directory.

    The persistence substrate shared by the verdict store and the fuzz
    corpus ledger (:mod:`repro.fuzz.ledger`): uniquely named
    ``<prefix>-<pid>-<uuid>.jsonl`` segments written via temp-file rename,
    a salted header line per segment (wrong salt or format misses
    cleanly), seen-name tracking so refreshes absorb exactly the segments
    other processes flushed, and compaction under the advisory
    ``compact.lock`` claim.  Rows are opaque JSON objects; consumers
    validate them (and count their own rejects into ``lines_skipped``).
    """

    def __init__(
        self, directory: str | os.PathLike, salt: str, prefix: str = "verdicts"
    ) -> None:
        self.directory = Path(directory)
        self.salt = salt
        self.prefix = prefix
        self.seen: set = set()  # segment names already absorbed
        self.stats = {
            "segments_loaded": 0,
            "segments_skipped": 0,  # wrong salt/format or unreadable
            "lines_skipped": 0,  # corrupted or truncated
            "compactions": 0,
            "compactions_skipped": 0,  # another process held the claim
        }

    def segments(self) -> list:
        try:
            return sorted(self.directory.glob(f"{self.prefix}-*.jsonl"))
        except OSError:
            return []

    def segment_count(self) -> int:
        return len(self.segments())

    def read_segment(self, path: Path) -> list | None:
        """The rows of one segment, or ``None`` when it misses (bad salt,
        unreadable).  Undecodable rows are skipped and counted."""
        try:
            handle = open(path, encoding="utf-8")
        except OSError:
            self.stats["segments_skipped"] += 1
            return None
        rows = []
        with handle:
            try:
                header = json.loads(handle.readline())
            except (ValueError, OSError):
                self.stats["segments_skipped"] += 1
                return None
            if (
                not isinstance(header, dict)
                or header.get("format") != STORE_FORMAT
                or header.get("salt") != self.salt
            ):
                self.stats["segments_skipped"] += 1
                return None
            self.stats["segments_loaded"] += 1
            for line in handle:
                try:
                    row = json.loads(line)
                except ValueError:
                    self.stats["lines_skipped"] += 1
                    continue
                if not isinstance(row, dict):
                    self.stats["lines_skipped"] += 1
                    continue
                rows.append(row)
        return rows

    def iter_new_segments(self, mark: bool = True):
        """Yield ``(path, rows)`` for readable segments not yet absorbed."""
        for segment in self.segments():
            if segment.name in self.seen:
                continue
            if mark:
                self.seen.add(segment.name)
            rows = self.read_segment(segment)
            if rows is not None:
                yield segment, rows

    def write_segment(self, rows: list, mark: bool = True) -> Path:
        """Write ``rows`` as a fresh uniquely named segment.

        The name embeds the pid and a fresh uuid, so concurrent processes
        never write the same file; the temp-file rename keeps half-written
        segments invisible to readers (they would be skipped anyway).
        ``mark`` records the segment as already-absorbed, so a later
        refresh does not re-read our own flush.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        name = f"{self.prefix}-{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
        final = self.directory / name
        temp = self.directory / (name + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"format": STORE_FORMAT, "salt": self.salt}) + "\n")
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        os.replace(temp, final)
        if mark:
            self.seen.add(name)
        return final

    def compact(self, merge, claim=None) -> dict:
        """Merge every readable segment into one, under the advisory claim.

        ``merge`` maps the concatenated rows of every input segment to the
        canonical row list the survivor segment should hold (dedup lives
        in the consumer — the verdict store merges through a cache, the
        corpus ledger keys by seed).  Returns ``{"compacted": bool,
        "segments_in": n, "entries": m}``.  Safe to call concurrently from
        any number of processes sharing the directory: exactly one wins
        the claim and unlinks the inputs it merged; the rest skip.
        Segments that appear *while* we hold the claim (a concurrent
        flush) are untouched — we only unlink the inputs we actually read.
        ``claim`` overrides the claim acquisition (tests inject races there).
        """
        if claim is None:
            claim = lambda: _claim_compaction(self.directory)  # noqa: E731
        if not claim():
            self.stats["compactions_skipped"] += 1
            return {"compacted": False, "segments_in": 0, "entries": 0}
        try:
            segments = self.segments()
            rows: list = []
            for segment in segments:
                rows.extend(self.read_segment(segment) or [])
            merged = merge(rows)
            all_seen = all(segment.name in self.seen for segment in segments)
            if merged:
                # mark only when the merge holds nothing we have not
                # absorbed already — else a refresh must re-read it
                self.write_segment(merged, mark=all_seen)
            for segment in segments:
                # stale-salt segments are dropped too: no future run loads them
                try:
                    segment.unlink()
                except OSError:  # pragma: no cover - racing an external rm
                    pass
                self.seen.discard(segment.name)
            self.stats["compactions"] += 1
            return {
                "compacted": True,
                "segments_in": len(segments),
                "entries": len(merged),
            }
        finally:
            _release_compaction(self.directory)


class PersistentStore:
    """Append-only JSONL verdict segments in one cache directory."""

    def __init__(self, directory: str | os.PathLike, salt: str | None = None) -> None:
        self.directory = Path(directory)
        self.salt = store_salt() if salt is None else salt
        self._log = SegmentLog(self.directory, self.salt)
        # share the segment-level counters with the log; add the
        # store-level ones (same dict object, so both layers stay in sync)
        self.stats = self._log.stats
        self.stats.update(
            {
                "entries_loaded": 0,
                "entries_refreshed": 0,
                "entries_flushed": 0,
                "refreshes": 0,
            }
        )

    # -- loading -------------------------------------------------------------

    def _absorb_rows(self, rows: list, cache: VerdictCache) -> int:
        absorbed = 0
        for row in rows:
            try:
                scope = row["scope"]
                key = row["key"]
                verdict = _decode_verdict(row["verdict"])
            except (ValueError, KeyError, TypeError):
                self.stats["lines_skipped"] += 1
                continue
            if not isinstance(scope, str) or not isinstance(key, str):
                self.stats["lines_skipped"] += 1
                continue
            if cache.absorb(scope, key, verdict):
                absorbed += 1
        return absorbed

    def load(self, cache: VerdictCache) -> int:
        """Warm ``cache`` from every readable same-salt segment.

        Returns the number of entries absorbed.  In-memory entries win over
        disk entries; between segments, the newest-sorted line wins simply by
        being absorbed first (absorb is first-write-wins, and verdicts for
        one key are equal by construction anyway).
        """
        absorbed = 0
        for _segment, rows in self._log.iter_new_segments():
            absorbed += self._absorb_rows(rows, cache)
        self.stats["entries_loaded"] += absorbed
        return absorbed

    def refresh(self, cache: VerdictCache) -> int:
        """Absorb segments that appeared since our last load/refresh/flush.

        The fleet's cross-shard path: other worker processes flush their
        verdicts as new uniquely named segments; refreshing picks exactly
        those up (segments this store already read — or itself wrote — are
        tracked by name and skipped).  In-memory entries always win, so a
        refresh can never regress a verdict this process decided.
        """
        absorbed = 0
        for _segment, rows in self._log.iter_new_segments():
            absorbed += self._absorb_rows(rows, cache)
        self.stats["refreshes"] += 1
        self.stats["entries_refreshed"] += absorbed
        return absorbed

    # -- flushing ------------------------------------------------------------

    def flush(self, cache: VerdictCache) -> int:
        """Write the cache's not-yet-persisted verdicts as a new segment.

        Returns the number of entries written.  Concurrent processes never
        clobber each other (uniquely named segments, see
        :meth:`SegmentLog.write_segment`).
        """
        entries = [
            (scope_key, verdict)
            for scope_key, verdict, persisted in cache.items()
            if not persisted
        ]
        if entries:
            self._log.write_segment(
                [
                    {"scope": scope, "key": key, "verdict": _encode_verdict(verdict)}
                    for (scope, key), verdict in entries
                ]
            )
            self.stats["entries_flushed"] += len(entries)
        self._maybe_compact(cache)
        return len(entries)

    # -- compaction ----------------------------------------------------------

    def _maybe_compact(self, cache: VerdictCache) -> None:
        if self._log.segment_count() <= COMPACT_THRESHOLD:
            return
        self.compact(cap=cache.cap)

    def compact(self, cap: int | None = None) -> dict:
        """Merge every readable segment into one (see :meth:`SegmentLog.compact`).

        Deduplication runs the rows through a fresh :class:`VerdictCache`,
        so the survivor holds exactly the entries a cold load would absorb.
        """
        if cap is None:
            from repro.core.cache import DEFAULT_CACHE_CAP as cap

        def merge(rows: list) -> list:
            merged = VerdictCache(cap=cap)
            self._absorb_rows(rows, merged)
            return [
                {"scope": scope, "key": key, "verdict": _encode_verdict(verdict)}
                for (scope, key), verdict, _ in merged.items()
            ]

        return self._log.compact(merge, claim=self._claim_compaction)

    def _claim_compaction(self) -> bool:
        return _claim_compaction(self.directory)

    # -- introspection -------------------------------------------------------

    def segment_count(self) -> int:
        return self._log.segment_count()

    def snapshot(self) -> dict:
        return dict(self.stats)


def open_store(
    cache_dir: str | os.PathLike | None,
    no_persist: bool = False,
) -> PersistentStore | None:
    """The CLI/pipeline entry point: a store, or None when persistence is off.

    ``cache_dir`` falls back to the ``REPRO_CACHE_DIR`` environment variable;
    with neither set, persistence stays off (analysis never touches the disk
    unless asked to).
    """
    if no_persist:
        return None
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    if cache_dir is None:
        return None
    return PersistentStore(cache_dir)
