"""Canonical analysis jobs — one code path for the batch CLI and the service.

A :class:`JobSpec` is the *semantic* description of one unit of analysis
work: the kind (``analyze`` / ``certify`` / ``lint``), the application, and
every knob that can change the produced report (budget, seed, ladder, …).
Runtime knobs that cannot change the result — cache instances and
persistence directories — are deliberately *not* part of the spec: they
are passed to :func:`run_job` separately.  This split is what makes the
spec's :meth:`~JobSpec.fingerprint` a sound deduplication key for the
service batcher (two requests with equal fingerprints provably produce
equal payloads) and what makes the HTTP results byte-identical to the
batch CLI: both fronts call :func:`run_job` and serialise the same
``payload`` dict.

``JobResult.payload`` is the deterministic report; ``JobResult.extras``
carries the run-varying statistics (tier counts, cache hit rates, persist
counters) that the batch CLI appends to its JSON output and the service
reports under a separate ``meta`` key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import ReproError

#: The job kinds the service and ``repro submit`` accept.
JOB_KINDS = ("analyze", "certify", "lint", "infer", "fuzz")

#: Application references of the form ``appgen:<seed>`` resolve to
#: generated unannotated programs (see :mod:`repro.workloads.appgen`);
#: they are accepted by ``infer`` and ``fuzz`` jobs only.
APPGEN_PREFIX = "appgen:"


class JobError(ReproError):
    """A job spec failed validation (unknown app, level, ladder, …)."""


@dataclass(frozen=True)
class JobSpec:
    """Semantic description of one analysis job (see module docstring)."""

    kind: str
    app: str
    budget: int = 3000
    seed: int = 0
    ladder: str = "ansi"
    snapshot: bool = False
    transaction: str | None = None
    level: str | None = None
    max_schedules: int = 500
    max_depth: int | None = None
    #: Generator knob string for appgen refs (``fuzz``/``infer`` jobs);
    #: part of the fingerprint — different knobs are different programs.
    profile: str | None = None
    #: Probe instance sets per fuzz case (``fuzz`` jobs only).
    pairs: int = 3

    def validate(self) -> None:
        """Raise :class:`JobError` on any inconsistency a run would hit."""
        from repro.apps import registry
        from repro.core.conditions import LEVEL_ORDER

        if self.kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {self.kind!r}; choose from {', '.join(JOB_KINDS)}"
            )
        apps = registry()
        if self.app.startswith(APPGEN_PREFIX):
            if self.kind not in ("infer", "fuzz"):
                raise JobError(
                    f"generated applications ({APPGEN_PREFIX}<seed>) are only"
                    f" accepted by infer and fuzz jobs, not {self.kind!r}"
                )
            seed = self.app[len(APPGEN_PREFIX) :]
            if not (seed.isdigit() or (seed[:1] == "-" and seed[1:].isdigit())):
                raise JobError(
                    f"appgen seed must be an integer, got {seed!r}"
                    " (seed ranges are expanded client-side; specs carry one seed)"
                )
        elif self.kind == "fuzz":
            raise JobError(
                f"fuzz jobs take {APPGEN_PREFIX}<seed> references, not {self.app!r}"
            )
        elif self.app not in apps:
            raise JobError(
                f"unknown application {self.app!r};"
                f" choose from {', '.join(sorted(apps))} or {APPGEN_PREFIX}<seed>"
            )
        if self.profile is not None:
            if self.kind not in ("infer", "fuzz"):
                raise JobError("profile (generator knobs) only applies to appgen jobs")
            from repro.workloads.appgen import AppGenConfig

            try:
                AppGenConfig.from_knobs(0, self.profile)
            except Exception as exc:
                raise JobError(f"bad generator knobs {self.profile!r}: {exc}") from None
        if self.ladder not in ("ansi", "extended"):
            raise JobError(f"unknown ladder {self.ladder!r}; choose ansi or extended")
        if self.budget < 0:
            raise JobError(f"budget must be non-negative, got {self.budget}")
        if self.max_schedules is not None and self.max_schedules <= 0:
            raise JobError(f"max_schedules must be positive, got {self.max_schedules}")
        if self.pairs <= 0:
            raise JobError(f"pairs must be positive, got {self.pairs}")
        if self.kind == "fuzz":
            if self.transaction is not None:
                raise JobError("fuzz jobs take no transaction filter")
        elif (self.transaction is None) != (self.level is None):
            raise JobError("transaction and level must be given together")
        if self.level is not None and self.level not in LEVEL_ORDER:
            raise JobError(
                f"unknown isolation level {self.level!r}; choose from"
                f" {', '.join(sorted(LEVEL_ORDER, key=LEVEL_ORDER.get))}"
            )
        if self.transaction is not None:
            app = apps[self.app]()
            if self.transaction not in app.transaction_names():
                raise JobError(
                    f"unknown transaction {self.transaction!r} in {self.app!r};"
                    f" choose from {', '.join(sorted(app.transaction_names()))}"
                )
        if self.transaction is not None and self.kind != "analyze":
            raise JobError(f"transaction/level filters only apply to analyze jobs")

    def fingerprint(self) -> str:
        """Stable dedup key: jobs with equal fingerprints yield equal payloads."""
        from repro.core.cache import fingerprint_many

        return fingerprint_many(*(getattr(self, f.name) for f in fields(self)))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict, kind: str | None = None) -> "JobSpec":
        """Build a spec from an untrusted dict, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        data = dict(payload)
        if kind is not None:
            data["kind"] = kind
        unknown = set(data) - known
        if unknown:
            raise JobError(f"unknown job fields: {', '.join(sorted(unknown))}")
        try:
            spec = cls(**data)
        except TypeError as exc:
            raise JobError(str(exc)) from None
        for name, kind_ in (("kind", str), ("app", str)):
            if not isinstance(getattr(spec, name), kind_):
                raise JobError(f"job field {name!r} must be a string")
        for name in ("budget", "seed", "max_schedules", "max_depth", "pairs"):
            value = getattr(spec, name)
            if value is not None and not isinstance(value, int):
                raise JobError(f"job field {name!r} must be an integer")
        if spec.profile is not None and not isinstance(spec.profile, str):
            raise JobError("job field 'profile' must be a string")
        return spec


@dataclass
class JobResult:
    """Outcome of one :func:`run_job` call."""

    spec: JobSpec
    payload: dict  # deterministic report — byte-identical batch vs service
    exit_code: int
    extras: dict = field(default_factory=dict)  # run-varying statistics
    report: object = None  # the in-memory report object (CLI rendering)
    artifacts: dict = field(default_factory=dict)  # non-serialisable extras


def run_job(
    spec: JobSpec,
    *,
    cache=None,
    cache_dir: str | None = None,
    no_persist: bool = False,
    checker_hook=None,
) -> JobResult:
    """Execute one job and return its deterministic payload.

    ``cache`` defaults to the process-shared verdict cache; the service
    passes its own long-lived instance.  Persistence (``cache_dir`` /
    ``no_persist``) is a runtime concern: the service warms its store once
    at boot and passes ``no_persist=True`` here.  ``checker_hook`` (analyze
    only) receives the freshly built InterferenceChecker before the run —
    the CLI uses it to attach a telemetry latency observer.
    """
    spec.validate()
    if spec.kind == "analyze":
        return _run_analyze_job(
            spec, cache=cache, cache_dir=cache_dir, no_persist=no_persist,
            checker_hook=checker_hook,
        )
    if spec.kind == "certify":
        return _run_certify_job(
            spec, cache=cache, cache_dir=cache_dir, no_persist=no_persist,
        )
    if spec.kind == "infer":
        return _run_infer_job(spec)
    if spec.kind == "fuzz":
        return _run_fuzz_job(spec)
    return _run_lint_job(spec)


def _run_analyze_job(
    spec: JobSpec, *, cache, cache_dir, no_persist, checker_hook=None
) -> JobResult:
    from repro.apps import registry
    from repro.core.cache import shared_cache
    from repro.core.chooser import analyze_application
    from repro.core.conditions import (
        ANSI_LADDER,
        EXTENDED_LADDER,
        check_transaction_at,
    )
    from repro.core.interference import InterferenceChecker

    app = registry()[spec.app]()
    if cache is None:
        cache = shared_cache()
    store = None
    if not no_persist:
        from repro.core.persist import open_store

        store = open_store(cache_dir)
    if store is not None:
        store.load(cache)
    checker = InterferenceChecker(app.spec, budget=spec.budget, seed=spec.seed, cache=cache)
    if checker_hook is not None:
        checker_hook(checker)
    try:
        if spec.transaction is not None:
            result = check_transaction_at(
                app, app.transaction(spec.transaction), spec.level, checker
            )
            extras = {"tiers": dict(checker.stats), "cache": cache.stats.snapshot()}
            return JobResult(
                spec=spec,
                payload=result.to_dict(),
                exit_code=0 if result.ok else 1,
                extras=extras,
                report=result,
                artifacts={"checker": checker},
            )
        ladder = EXTENDED_LADDER if spec.ladder == "extended" else ANSI_LADDER
        report = analyze_application(
            app, checker, ladder=ladder, include_snapshot=spec.snapshot
        )
        extras = {"tiers": dict(checker.stats), "cache": cache.stats.snapshot()}
        if store is not None:
            extras["persist"] = store.snapshot()
        return JobResult(
            spec=spec, payload=report.to_dict(), exit_code=0, extras=extras,
            report=report, artifacts={"checker": checker},
        )
    finally:
        if store is not None:
            store.flush(cache)


def _run_certify_job(spec: JobSpec, *, cache, cache_dir, no_persist) -> JobResult:
    from repro.pipeline.certify import certify
    from repro.pipeline.context import RunContext

    context = RunContext(
        seed=spec.seed,
        budget=spec.budget,
        max_schedules=spec.max_schedules,
        max_depth=spec.max_depth,
        cache=cache,
        cache_dir=cache_dir,
        no_persist=no_persist,
    )
    report = certify(spec.app, context=context, ladder=spec.ladder)
    payload = report.to_dict()
    # the stats key is the only run-varying part of the certificate; it is
    # re-attached by the batch CLI and reported as meta by the service
    extras = {"stats": payload.pop("stats")}
    return JobResult(
        spec=spec,
        payload=payload,
        exit_code=0 if report.agreement else 1,
        extras=extras,
        report=report,
    )


def _resolve_infer_app(ref: str, knobs: str | None = None):
    """Registry app or ``appgen:<seed>`` generated program."""
    if ref.startswith(APPGEN_PREFIX):
        from repro.workloads.appgen import resolve_app_ref

        return resolve_app_ref(ref, knobs=knobs)
    from repro.apps import registry

    return registry()[ref]()


def _run_infer_job(spec: JobSpec) -> JobResult:
    from repro.core.chooser import analyze_application
    from repro.core.formula import TRUE
    from repro.core.infer import agreement, infer_application
    from repro.core.interference import InterferenceChecker

    app = _resolve_infer_app(spec.app, knobs=spec.profile)
    inferred, report = infer_application(app, seed=spec.seed)
    payload = {
        "application": app.name,
        "inference": report.to_dict(),
    }
    declared = any(
        txn.consistency is not TRUE
        or txn.param_pre is not TRUE
        or txn.result is not TRUE
        for txn in app.transactions
    )
    exit_code = 0
    if declared:
        compared = agreement(app, inferred, budget=spec.budget, seed=spec.seed)
        payload["declared_levels"] = compared["declared"]
        payload["matches"] = compared["matches"]
        payload["agreement"] = compared["agreement"]
        payload["levels"] = compared["inferred"]
        payload["disagreements"] = [
            {
                "transaction": name,
                "declared": compared["declared"][name],
                "inferred": compared["inferred"][name],
            }
            for name in sorted(compared["matches"])
            if not compared["matches"][name]
        ]
        exit_code = 0 if compared["agreement"] else 1
    else:
        checker = InterferenceChecker(inferred.spec, budget=spec.budget, seed=spec.seed)
        payload["levels"] = analyze_application(inferred, checker).levels()
        payload["disagreements"] = []  # nothing declared to disagree with
    return JobResult(
        spec=spec,
        payload=payload,
        exit_code=exit_code,
        report=report,
        artifacts={"inferred": inferred},
    )


def _run_fuzz_job(spec: JobSpec) -> JobResult:
    """One differential fuzz case (see :mod:`repro.fuzz.differential`).

    The spec reuses existing fields for the fuzz knobs: ``profile`` is
    the generator knob string, ``level`` the forced chooser override,
    ``max_schedules`` the per-probe exploration budget.  The payload is
    the corpus ledger row — deterministic, so a fleet worker's row is
    byte-identical to the one the local runner would have written.
    """
    from repro.fuzz.case import UNSOUND
    from repro.fuzz.differential import run_case
    from repro.workloads.appgen import AppGenConfig

    seed = int(spec.app[len(APPGEN_PREFIX) :])
    config = AppGenConfig.from_knobs(seed, spec.profile)
    case = run_case(
        config,
        budget=spec.budget,
        pairs=spec.pairs,
        probe_schedules=spec.max_schedules,
        force_level=spec.level,
    )
    return JobResult(
        spec=spec,
        payload=case.to_row(),
        exit_code=1 if case.verdict == UNSOUND else 0,
        report=case,
    )


def _run_lint_job(spec: JobSpec) -> JobResult:
    from repro.apps import registry
    from repro.core.lint import lint_application

    report = lint_application(registry()[spec.app]())
    return JobResult(
        spec=spec,
        payload=report.to_dict(),
        exit_code=0 if report.ok else 1,
        report=report,
    )
