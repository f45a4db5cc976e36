"""ServiceConfig validation: nonsense knobs fail at construction, clearly.

Before this validation existed, a ``workers=0`` pool or ``max_pending=0``
queue would not fail until the batcher's first dispatch, long after flag
parsing; every rejection must be a ReproError naming the offending field
so the CLI renders it as a one-line usage error (exit 2).
"""

import pytest

from repro.errors import ReproError
from repro.service.server import ServiceConfig


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        ("kwargs", "fragment"),
        [
            ({"workers": 0}, "workers"),
            ({"workers": -1}, "workers"),
            ({"workers": 1.5}, "workers"),
            ({"max_pending": 0}, "max_pending"),
            ({"max_pending": "many"}, "max_pending"),
            ({"max_body": 0}, "max_body"),
            ({"window": -0.001}, "window"),
            ({"window": "fast"}, "window"),
            ({"drain_timeout": -1}, "drain_timeout"),
            ({"persist_interval": -1}, "persist_interval"),
            ({"read_timeout": 0}, "read_timeout"),
            ({"read_timeout": -5}, "read_timeout"),
            ({"default_deadline_ms": 0}, "default_deadline_ms"),
            ({"default_deadline_ms": -100}, "default_deadline_ms"),
            ({"default_deadline_ms": 1.5}, "default_deadline_ms"),
            ({"port": -1}, "port"),
            ({"port": 65536}, "port"),
            ({"port": "8923"}, "port"),
            ({"persist_interval": 5.0, "no_persist": True}, "persist_interval"),
            ({"max_body": "big"}, "max_body"),
            ({"drain_timeout": "soon"}, "drain_timeout"),
        ],
    )
    def test_nonsense_knobs_rejected_by_name(self, kwargs, fragment):
        with pytest.raises(ReproError, match=fragment):
            ServiceConfig(**kwargs)

    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.workers == 2
        assert config.persist_interval == 0.0

    def test_boundary_values_accepted(self):
        ServiceConfig(port=0)
        ServiceConfig(port=65535)
        ServiceConfig(window=0.0, drain_timeout=0.0, persist_interval=0.0)
        ServiceConfig(workers=1, max_pending=1, max_body=1)
        ServiceConfig(default_deadline_ms=1)
        ServiceConfig(persist_interval=2.5, cache_dir=".repro-cache")

    def test_validate_recheck_after_mutation(self):
        config = ServiceConfig()
        config.max_pending = 0
        with pytest.raises(ReproError, match="max_pending"):
            config.validate()


class TestParseJobPayload:
    """The shared payload parser (server executes, router shards)."""

    def test_dpor_field_rejected_with_400(self):
        # removed selectors are unknown fields: the explorer has one pruning
        # algorithm, the checker's tier 1 is the only disjointness pass, and
        # every job runs on one thread (no in-run worker count or executor)
        import pytest as _pytest

        from repro.service.http import HttpError
        from repro.service.server import parse_job_payload

        for field, value in (
            ("dpor", "optimal"), ("use_sdg", False), ("workers", 2), ("backend", "process"),
        ):
            with _pytest.raises(HttpError) as excinfo:
                parse_job_payload("certify", {"app": "banking", field: value})
            assert excinfo.value.status == 400
            assert f"unknown request fields: {field}" in str(excinfo.value)

    def test_unknown_field_rejected_with_400(self):
        import pytest as _pytest

        from repro.service.http import HttpError
        from repro.service.server import parse_job_payload

        with _pytest.raises(HttpError) as excinfo:
            parse_job_payload("analyze", {"app": "banking", "frobnicate": 1})
        assert excinfo.value.status == 400
        assert "frobnicate" in str(excinfo.value)

    def test_options_round_trip_to_identical_specs(self):
        # the router forwards options verbatim; worker-side parsing must
        # reproduce the same fingerprints the router sharded on
        from repro.service.server import parse_job_payload

        payload = {"apps": ["banking", "employees"], "budget": 500, "seed": 3}
        specs, _deadline, options = parse_job_payload("analyze", payload)
        respecs, _d, _o = parse_job_payload(
            "analyze", {"apps": ["banking", "employees"], **options}
        )
        assert [s.fingerprint() for s in specs] == [s.fingerprint() for s in respecs]
