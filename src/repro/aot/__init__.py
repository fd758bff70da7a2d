"""AOT kernel artifact bundles: build once, cold-start everywhere.

``limpet-bench build-all`` (:func:`~repro.aot.build.build_bundle`)
compiles the model zoo into a versioned bundle directory; any process
pointed at it via ``$LIMPET_ARTIFACT_DIR`` gets zero-compile cold
start through the read-only :class:`~repro.aot.bundle.ArtifactStore`
tier (checked after the in-memory and per-user kernel caches) or the
even cheaper :func:`~repro.aot.bundle.runner_from_store` spec path.
``limpet-bench artifacts audit``
(:func:`~repro.aot.audit.audit_bundle`) reports entries whose inputs
drifted.  See DESIGN.md §12.
"""

from .bundle import (BUNDLE_FORMAT_VERSION, MANIFEST_NAME,
                     ArtifactKernel, ArtifactStore,
                     default_artifact_dir, default_store,
                     kernel_from_entry, resolve_store,
                     runner_from_store, spec_fingerprint)
from .build import BuildReport, BuiltEntry, build_bundle
from .audit import AuditFinding, AuditReport, audit_bundle

__all__ = ["BUNDLE_FORMAT_VERSION", "MANIFEST_NAME", "ArtifactKernel",
           "ArtifactStore", "default_artifact_dir", "default_store",
           "kernel_from_entry", "resolve_store", "runner_from_store",
           "spec_fingerprint",
           "BuildReport", "BuiltEntry", "build_bundle",
           "AuditFinding", "AuditReport", "audit_bundle"]
