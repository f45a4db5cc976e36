"""Unit tests for the job layer shared by the batch CLI and the service."""

import json

import pytest

from repro.pipeline.jobs import JobError, JobSpec, run_job


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec(kind="explore", app="banking").validate()

    def test_unknown_app(self):
        with pytest.raises(JobError, match="unknown application"):
            JobSpec(kind="lint", app="nope").validate()

    def test_unknown_ladder(self):
        with pytest.raises(JobError, match="unknown ladder"):
            JobSpec(kind="analyze", app="banking", ladder="spiral").validate()

    def test_transaction_requires_level(self):
        with pytest.raises(JobError, match="given together"):
            JobSpec(kind="analyze", app="banking", transaction="Deposit").validate()

    def test_unknown_level(self):
        with pytest.raises(JobError, match="unknown isolation level"):
            JobSpec(
                kind="analyze", app="banking", transaction="Deposit", level="CASUAL"
            ).validate()

    def test_unknown_transaction(self):
        with pytest.raises(JobError, match="unknown transaction"):
            JobSpec(
                kind="analyze", app="banking",
                transaction="Nope", level="SERIALIZABLE",
            ).validate()

    def test_negative_budget(self):
        with pytest.raises(JobError, match="budget"):
            JobSpec(kind="analyze", app="banking", budget=-1).validate()

    def test_valid_spec_passes(self):
        JobSpec(kind="analyze", app="banking").validate()

    def test_appgen_ref_accepted_for_infer(self):
        JobSpec(kind="infer", app="appgen:7").validate()
        JobSpec(kind="infer", app="appgen:-2").validate()

    def test_appgen_ref_rejected_for_other_kinds(self):
        with pytest.raises(JobError, match="only.*infer"):
            JobSpec(kind="analyze", app="appgen:7").validate()

    def test_appgen_seed_must_be_integer(self):
        with pytest.raises(JobError, match="must be an integer"):
            JobSpec(kind="infer", app="appgen:banana").validate()

    def test_infer_accepts_registry_apps(self):
        JobSpec(kind="infer", app="banking").validate()

    def test_fuzz_accepts_appgen_refs_only(self):
        JobSpec(kind="fuzz", app="appgen:7").validate()
        with pytest.raises(JobError, match="appgen"):
            JobSpec(kind="fuzz", app="banking").validate()

    def test_fuzz_specs_carry_one_seed_not_a_range(self):
        with pytest.raises(JobError, match="one seed"):
            JobSpec(kind="fuzz", app="appgen:0..100").validate()

    def test_fuzz_level_is_the_forced_override(self):
        JobSpec(kind="fuzz", app="appgen:0", level="READ COMMITTED").validate()
        with pytest.raises(JobError, match="unknown isolation level"):
            JobSpec(kind="fuzz", app="appgen:0", level="CASUAL").validate()

    def test_fuzz_rejects_transaction_filters(self):
        with pytest.raises(JobError, match="no transaction filter"):
            JobSpec(kind="fuzz", app="appgen:0", transaction="Deposit").validate()

    def test_profile_knobs_validated(self):
        JobSpec(kind="fuzz", app="appgen:0", profile="txns=3..5").validate()
        with pytest.raises(JobError, match="bad generator knobs"):
            JobSpec(kind="fuzz", app="appgen:0", profile="txns=banana").validate()

    def test_profile_rejected_for_non_appgen_kinds(self):
        with pytest.raises(JobError, match="appgen jobs"):
            JobSpec(kind="analyze", app="banking", profile="txns=3..5").validate()

    def test_pairs_must_be_positive(self):
        with pytest.raises(JobError, match="pairs"):
            JobSpec(kind="fuzz", app="appgen:0", pairs=0).validate()


class TestFromDict:
    def test_round_trip(self):
        spec = JobSpec(kind="analyze", app="banking", budget=100, ladder="extended")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(JobError, match="unknown job fields"):
            JobSpec.from_dict({"app": "banking", "bananas": 2}, kind="lint")

    def test_non_integer_budget_rejected(self):
        with pytest.raises(JobError, match="must be an integer"):
            JobSpec.from_dict({"app": "banking", "budget": "lots"}, kind="analyze")

    def test_kind_argument_fills_in(self):
        assert JobSpec.from_dict({"app": "banking"}, kind="certify").kind == "certify"

    def test_non_integer_pairs_rejected(self):
        with pytest.raises(JobError, match="must be an integer"):
            JobSpec.from_dict({"app": "appgen:0", "pairs": "two"}, kind="fuzz")

    def test_non_string_profile_rejected(self):
        with pytest.raises(JobError, match="must be a string"):
            JobSpec.from_dict({"app": "appgen:0", "profile": 3}, kind="fuzz")


class TestFingerprint:
    def test_stable_for_equal_specs(self):
        a = JobSpec(kind="analyze", app="banking", budget=100)
        b = JobSpec(kind="analyze", app="banking", budget=100)
        assert a.fingerprint() == b.fingerprint()

    def test_every_semantic_field_matters(self):
        base = JobSpec(kind="analyze", app="banking")
        variants = [
            JobSpec(kind="lint", app="banking"),
            JobSpec(kind="analyze", app="employees"),
            JobSpec(kind="analyze", app="banking", budget=7),
            JobSpec(kind="analyze", app="banking", seed=7),
            JobSpec(kind="analyze", app="banking", ladder="extended"),
            JobSpec(kind="analyze", app="banking", snapshot=True),
        ]
        prints = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(prints) == len(variants) + 1

    def test_fuzz_probe_fields_matter(self):
        # a fuzz job's result depends on every probe parameter; specs that
        # differ in any of them must never answer each other from a cache
        base = JobSpec(kind="fuzz", app="appgen:0")
        variants = [
            JobSpec(kind="fuzz", app="appgen:1"),
            JobSpec(kind="fuzz", app="appgen:0", pairs=5),
            JobSpec(kind="fuzz", app="appgen:0", profile="txns=3..5"),
            JobSpec(kind="fuzz", app="appgen:0", level="READ COMMITTED"),
            JobSpec(kind="fuzz", app="appgen:0", max_schedules=32),
        ]
        prints = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(prints) == len(variants) + 1


class TestRunJob:
    def test_lint_payload_and_exit_code(self):
        job = run_job(JobSpec(kind="lint", app="banking"))
        assert job.exit_code == 0
        assert job.payload["ok"] is True

    def test_analyze_payload_deterministic(self):
        spec = JobSpec(kind="analyze", app="banking", budget=150)
        first = run_job(spec, no_persist=True)
        second = run_job(spec, no_persist=True)
        assert first.exit_code == 0
        # byte-identity is the service's contract: payloads serialise equally
        assert json.dumps(first.payload) == json.dumps(second.payload)
        assert set(first.extras) >= {"tiers", "cache"}

    def test_invalid_spec_raises_before_running(self):
        with pytest.raises(JobError):
            run_job(JobSpec(kind="analyze", app="missing"))

    def test_fuzz_payload_is_a_corpus_row(self):
        spec = JobSpec(kind="fuzz", app="appgen:0", max_schedules=96)
        first = run_job(spec)
        second = run_job(spec)
        assert first.exit_code == 0
        assert first.payload["verdict"] == "SOUND"
        assert first.payload["seed"] == 0
        assert first.payload["fingerprint"]
        assert json.dumps(first.payload) == json.dumps(second.payload)

    def test_fuzz_unsound_exits_nonzero(self):
        spec = JobSpec(
            kind="fuzz", app="appgen:0",
            level="READ COMMITTED", max_schedules=96,
        )
        job = run_job(spec)
        assert job.exit_code == 1
        assert job.payload["verdict"] == "UNSOUND"
        assert job.payload["violation"]["history"]
        assert job.payload["shrunk"]
