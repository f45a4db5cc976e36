"""Robustness tests for the persistent verdict store."""

import json
import os

import pytest

from repro.core.cache import FORMULA_SCOPE, FULL_SCOPE, VerdictCache
from repro.core.interference import InterferenceVerdict, Witness
from repro.core.persist import (
    COMPACT_THRESHOLD,
    PersistentStore,
    STORE_FORMAT,
    open_store,
    store_salt,
)
from repro.core.state import DbState


def _verdict(interferes=False, note="", witness=None):
    return InterferenceVerdict(
        interferes=interferes,
        confidence="proved",
        method="symbolic",
        witness=witness,
        note=note,
    )


def _warm_cache(n=3):
    cache = VerdictCache()
    for i in range(n):
        cache.store(FORMULA_SCOPE, f"key-{i}", _verdict(note=f"entry {i}"))
    return cache


class TestRoundTrip:
    def test_flush_then_load(self, tmp_path):
        store = PersistentStore(tmp_path)
        assert store.flush(_warm_cache()) == 3

        fresh = VerdictCache()
        assert PersistentStore(tmp_path).load(fresh) == 3
        verdict = fresh.lookup("key-1", "unused-full-key")
        assert verdict is not None
        assert verdict.note == "entry 1"
        assert verdict.confidence == "proved"

    def test_both_scopes_survive(self, tmp_path):
        cache = VerdictCache()
        cache.store(FORMULA_SCOPE, "fk", _verdict(note="formula-scoped"))
        cache.store(FULL_SCOPE, "uk", _verdict(interferes=True, note="full-scoped"))
        PersistentStore(tmp_path).flush(cache)

        fresh = VerdictCache()
        PersistentStore(tmp_path).load(fresh)
        assert fresh.lookup("fk", "x").note == "formula-scoped"
        assert fresh.lookup("y", "uk").interferes

    def test_witness_stripped_to_text(self, tmp_path):
        heavy = Witness(
            kind="concrete",
            description="write flips Q",
            state=DbState(items={"x": 1}),
            env={"p": 1},
            model={"x": 2},
        )
        cache = VerdictCache()
        cache.store(FORMULA_SCOPE, "k", _verdict(interferes=True, witness=heavy))
        PersistentStore(tmp_path).flush(cache)

        fresh = VerdictCache()
        PersistentStore(tmp_path).load(fresh)
        witness = fresh.lookup("k", "x").witness
        assert witness.kind == "concrete"
        assert witness.description == "write flips Q"
        assert witness.state is None and witness.env is None and witness.model is None

    def test_flush_skips_already_persisted(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.flush(_warm_cache())
        warmed = VerdictCache()
        PersistentStore(tmp_path).load(warmed)
        # nothing new to write: the second process only re-reads
        assert PersistentStore(tmp_path).flush(warmed) == 0
        assert PersistentStore(tmp_path).segment_count() == 1


class TestSaltAndVersioning:
    def test_salt_mismatch_is_a_clean_miss(self, tmp_path):
        PersistentStore(tmp_path, salt="old-prover").flush(_warm_cache())

        fresh = VerdictCache()
        reader = PersistentStore(tmp_path, salt="new-prover")
        assert reader.load(fresh) == 0
        assert len(fresh) == 0
        assert reader.stats["segments_skipped"] == 1

    def test_default_salt_tracks_component_versions(self):
        from repro.core.cache import FINGERPRINT_VERSION
        from repro.core.conditions import PLAN_VERSION
        from repro.core.prover import PROVER_VERSION

        from repro.core.effects import EFFECTS_VERSION

        salt = store_salt()
        assert FINGERPRINT_VERSION in salt
        assert PROVER_VERSION in salt
        assert PLAN_VERSION in salt
        assert f"effects{EFFECTS_VERSION}" in salt

    def test_segment_from_before_relational_effects_misses(self, tmp_path):
        from repro.core.cache import FINGERPRINT_VERSION
        from repro.core.conditions import PLAN_VERSION
        from repro.core.effects import EFFECTS_VERSION
        from repro.core.prover import PROVER_VERSION

        old_salts = (
            # relational obligations were only sampled by BMC
            f"fp{FINGERPRINT_VERSION}.prover{PROVER_VERSION}.plan{PLAN_VERSION}",
            # cubes the LP relaxation decided came out undecided without
            # scipy, so their obligations fell to BMC
            f"fp{FINGERPRINT_VERSION}.prover2.effects{EFFECTS_VERSION}.plan{PLAN_VERSION}",
        )
        for old_salt in old_salts:
            assert old_salt != store_salt()
            PersistentStore(tmp_path, salt=old_salt).flush(_warm_cache())
        fresh = VerdictCache()
        reader = PersistentStore(tmp_path)
        assert reader.load(fresh) == 0
        assert len(fresh) == 0
        assert reader.stats["segments_skipped"] == len(old_salts)

    def test_format_bump_skips_segment(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.flush(_warm_cache())
        segment = next(tmp_path.glob("verdicts-*.jsonl"))
        lines = segment.read_text().splitlines()
        header = json.loads(lines[0])
        header["format"] = STORE_FORMAT + 1
        segment.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")

        fresh = VerdictCache()
        assert PersistentStore(tmp_path).load(fresh) == 0


class TestCorruptionTolerance:
    def test_corrupt_and_truncated_lines_are_skipped(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.flush(_warm_cache(3))
        segment = next(tmp_path.glob("verdicts-*.jsonl"))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
            handle.write('{"scope": "formula", "key": "half", "verd')  # truncated
        reader = PersistentStore(tmp_path)
        fresh = VerdictCache()
        assert reader.load(fresh) == 3
        assert reader.stats["lines_skipped"] == 2

    def test_wrong_shapes_are_skipped(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.flush(_warm_cache(1))
        segment = next(tmp_path.glob("verdicts-*.jsonl"))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"scope": 7, "key": "k", "verdict": {}}) + "\n")
            handle.write(json.dumps({"key": "missing scope"}) + "\n")
            handle.write(json.dumps(["not", "a", "dict"]) + "\n")
        fresh = VerdictCache()
        assert PersistentStore(tmp_path).load(fresh) == 1

    def test_garbage_header_skips_whole_segment(self, tmp_path):
        (tmp_path / "verdicts-999-deadbeef.jsonl").write_text("garbage\n")
        reader = PersistentStore(tmp_path)
        assert reader.load(VerdictCache()) == 0
        assert reader.stats["segments_skipped"] == 1

    def test_missing_directory_is_empty_not_an_error(self, tmp_path):
        reader = PersistentStore(tmp_path / "never-created")
        assert reader.load(VerdictCache()) == 0
        assert reader.segment_count() == 0


class TestConcurrentWriters:
    def test_two_stores_never_clobber(self, tmp_path):
        """Two processes flushing into one directory write distinct segments."""
        a_cache = VerdictCache()
        a_cache.store(FORMULA_SCOPE, "from-a", _verdict(note="a"))
        b_cache = VerdictCache()
        b_cache.store(FORMULA_SCOPE, "from-b", _verdict(note="b"))

        PersistentStore(tmp_path).flush(a_cache)
        PersistentStore(tmp_path).flush(b_cache)
        assert PersistentStore(tmp_path).segment_count() == 2

        merged = VerdictCache()
        PersistentStore(tmp_path).load(merged)
        assert merged.lookup("from-a", "x").note == "a"
        assert merged.lookup("from-b", "x").note == "b"

    def test_no_temp_files_left_behind(self, tmp_path):
        PersistentStore(tmp_path).flush(_warm_cache())
        assert not list(tmp_path.glob("*.tmp"))


class TestCompaction:
    def test_many_segments_compact_without_losing_entries(self, tmp_path):
        flushes = 2 * COMPACT_THRESHOLD + 2
        for i in range(flushes):
            cache = VerdictCache()
            cache.store(FORMULA_SCOPE, f"seg-{i}", _verdict(note=f"segment {i}"))
            PersistentStore(tmp_path).flush(cache)

        # compaction kept the directory bounded while every entry survived
        assert PersistentStore(tmp_path).segment_count() <= COMPACT_THRESHOLD + 1
        merged = VerdictCache()
        PersistentStore(tmp_path).load(merged)
        for i in range(flushes):
            assert merged.lookup(f"seg-{i}", "x").note == f"segment {i}"

    def test_compaction_counter_increments(self, tmp_path):
        for i in range(COMPACT_THRESHOLD):
            cache = VerdictCache()
            cache.store(FORMULA_SCOPE, f"k{i}", _verdict())
            PersistentStore(tmp_path).flush(cache)
        # the next flush pushes the count past the threshold and compacts
        cache = VerdictCache()
        cache.store(FORMULA_SCOPE, "overflow", _verdict())
        writer = PersistentStore(tmp_path)
        writer.flush(cache)
        assert writer.stats["compactions"] == 1
        assert writer.segment_count() == 1

    def test_compaction_drops_stale_salt_segments(self, tmp_path):
        PersistentStore(tmp_path, salt="stale").flush(_warm_cache())
        for i in range(COMPACT_THRESHOLD + 1):
            cache = VerdictCache()
            cache.store(FORMULA_SCOPE, f"k{i}", _verdict())
            PersistentStore(tmp_path).flush(cache)
        # compaction ran at least once and unlinked the stale-salt segment
        assert PersistentStore(tmp_path).segment_count() <= 2
        fresh = VerdictCache()
        assert PersistentStore(tmp_path, salt="stale").load(fresh) == 0


class TestCacheIntegration:
    def test_warmed_hits_count_as_persist_hits(self, tmp_path):
        PersistentStore(tmp_path).flush(_warm_cache(2))
        warmed = VerdictCache()
        PersistentStore(tmp_path).load(warmed)
        assert warmed.lookup("key-0", "x") is not None
        assert warmed.lookup("key-1", "x") is not None
        assert warmed.stats.persist_hits == 2
        assert warmed.stats.hits == 2

    def test_in_memory_entries_win_over_disk(self, tmp_path):
        PersistentStore(tmp_path).flush(_warm_cache(1))
        cache = VerdictCache()
        cache.store(FORMULA_SCOPE, "key-0", _verdict(note="fresher"))
        PersistentStore(tmp_path).load(cache)
        assert cache.lookup("key-0", "x").note == "fresher"
        assert cache.stats.persist_hits == 0


class TestOpenStore:
    def test_no_persist_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert open_store(str(tmp_path), no_persist=True) is None

    def test_explicit_dir(self, tmp_path):
        store = open_store(str(tmp_path))
        assert store is not None
        assert store.directory == tmp_path

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = open_store(None)
        assert store is not None
        assert str(store.directory) == str(tmp_path)

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert open_store(None) is None
