"""The cross-layer certification pipeline.

Wires the static Section 5 chooser (:mod:`repro.core.chooser`) to the
exhaustive schedule explorer (:mod:`repro.sched.explore`) through a shared
:class:`~repro.pipeline.context.RunContext`, and reconciles both layers
into a :class:`~repro.pipeline.certify.CertificateReport` — the artifact
behind ``repro certify``.

The package re-exports nothing: ``repro analyze`` needs only
:mod:`repro.pipeline.jobs`, and importing the package must not pull the
explorer and the engine in behind it.  Import from the submodules.
"""
