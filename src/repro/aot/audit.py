"""``limpet-bench artifacts audit``: staleness + integrity for bundles.

A bundle is immutable at runtime, but the *inputs* it was derived from
keep moving: pass pipelines grow, ``LOWERING_VERSION`` bumps, models
get edited.  The audit walks every
manifest entry and reports exactly which dimension drifted:

* ``missing``        — the manifest names an entry file that is gone;
* ``corrupt``        — the entry fails its sha256 checksum; the file is
  **quarantined** (moved to ``<root>/quarantine/`` by the kernel cache's
  own :func:`~repro.runtime.kernel_cache.quarantine_entry`) so it can
  never be served;
* ``format_drift``   — the entry was keyed under another
  ``CACHE_FORMAT_VERSION``: no key of that format can be asked for any
  more, so this is the entry's only finding and the cure is a rebuild;
* ``pipeline_drift`` — recorded pass-pipeline fingerprint differs from
  the current default pipeline's;
* ``lowering_drift`` — recorded ``LOWERING_VERSION`` differs;
* ``source_drift``   — recorded model source hash differs from the
  registry file's current bytes;
* ``key_mismatch``   — deep re-derivation: recomputing the kernel-cache
  key from a fresh ``generate`` call no longer reproduces the entry's
  key (a ``GENERATOR_VERSION`` bump, a changed default layout or
  function name — what the fast checks cannot see).

Every stale finding increments ``artifact_stale_total``; corrupt ones
increment ``artifact_corrupt_total``.  The CLI exits non-zero when any
finding survives, naming the drifted entries.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..models import model_source_hash
from ..obs import metrics as _metrics
from ..runtime.kernel_cache import (CACHE_FORMAT_VERSION, quarantine_entry,
                                    read_entry)
from ..runtime.resolve import toolchain_identity
from .bundle import BUNDLE_FORMAT_VERSION, ArtifactStore, corrupt_counter


@dataclass
class AuditFinding:
    """One problem with one bundle entry."""

    key: str
    model: str
    kind: str          # missing|corrupt|format_drift|pipeline_drift|
    #                  # lowering_drift|source_drift|key_mismatch
    detail: str = ""

    def describe(self) -> str:
        return (f"{self.kind}: {self.model} "
                f"{self.key[:12]}… {self.detail}".rstrip())


@dataclass
class AuditReport:
    """Outcome of one :func:`audit_bundle` call."""

    root: str
    checked: int = 0
    findings: List[AuditFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def stale_keys(self) -> List[str]:
        return sorted({f.key for f in self.findings})

    def describe(self) -> str:
        if self.ok:
            return (f"bundle {self.root}: {self.checked} entries "
                    f"audited, all current")
        lines = [f"bundle {self.root}: {self.checked} entries audited, "
                 f"{len(self.findings)} finding(s):"]
        lines += [f"  {f.describe()}" for f in self.findings]
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        return {"root": self.root, "checked": self.checked,
                "ok": self.ok,
                "findings": [{"key": f.key, "model": f.model,
                              "kind": f.kind, "detail": f.detail}
                             for f in self.findings]}


def _count_stale() -> None:
    _metrics.counter(
        "artifact_stale_total",
        "AOT artifact entries found stale (drifted inputs)").inc()


def _rederive_key(entry: Dict, fingerprint: str) -> Optional[str]:
    """Generate the entry's kernel again and recompute its cache key."""
    from ..codegen import generate
    from ..models import load_model
    from ..runtime.kernel_cache import kernel_cache_key
    spec = entry["spec"]
    generated = generate(
        load_model(spec["model"]), spec["backend"], spec["width"],
        use_lut=spec["use_lut"],
        lut_interpolation=spec["lut_interpolation"])
    return kernel_cache_key(generated, fingerprint, True, False, True)


def audit_bundle(root: Union[str, pathlib.Path],
                 deep: bool = True) -> AuditReport:
    """Audit every manifest entry of the bundle at ``root``.

    ``deep=True`` additionally re-derives every clean entry's
    kernel-cache key from a fresh ``generate`` call (cheap: the key
    reads the request, no IR is built); ``deep=False`` keeps only the
    recorded-provenance comparisons (still sufficient for
    pipeline/lowering/source drift).
    """
    root = pathlib.Path(root)
    store = ArtifactStore(root)
    report = AuditReport(root=str(root))
    manifest = store.manifest()
    if manifest is None:
        report.findings.append(AuditFinding(
            key="", model="", kind="missing",
            detail=f"no readable manifest in {root}"))
        return report
    current_fp, lowering_version = toolchain_identity()

    for key, ment in sorted(manifest.get("entries", {}).items()):
        report.checked += 1
        model = ment.get("model", "?")
        path = store.entry_path(key)
        if not path.exists():
            report.findings.append(AuditFinding(
                key=key, model=model, kind="missing",
                detail=f"entry file {path.name} does not exist"))
            _count_stale()
            continue
        entry, corrupt = read_entry(path, BUNDLE_FORMAT_VERSION)
        if entry is None:
            target = quarantine_entry(
                root, path,
                corrupt or f"not a format-{BUNDLE_FORMAT_VERSION} entry",
                "artifacts", corrupt_counter())
            report.findings.append(AuditFinding(
                key=key, model=model, kind="corrupt",
                detail=("quarantined to "
                        f"{target}" if target else "quarantine failed")))
            continue

        flagged = False
        prov = entry.get("provenance", {})
        if prov.get("cache_format_version") != CACHE_FORMAT_VERSION:
            report.findings.append(AuditFinding(
                key=key, model=model, kind="format_drift",
                detail=(f"keyed under cache format "
                        f"v{prov.get('cache_format_version')}, current "
                        f"v{CACHE_FORMAT_VERSION}; rebuild the bundle")))
            _count_stale()
            continue
        if prov.get("pipeline_fingerprint") != current_fp:
            report.findings.append(AuditFinding(
                key=key, model=model, kind="pipeline_drift",
                detail=(f"built with {prov.get('pipeline_fingerprint')!r},"
                        f" current {current_fp!r}")))
            _count_stale()
            flagged = True
        if prov.get("lowering_version") != lowering_version:
            report.findings.append(AuditFinding(
                key=key, model=model, kind="lowering_drift",
                detail=(f"built at v{prov.get('lowering_version')}, "
                        f"current v{lowering_version}")))
            _count_stale()
            flagged = True
        try:
            current_hash = model_source_hash(model)
        except Exception:
            current_hash = None
        if prov.get("model_source_hash") != current_hash:
            report.findings.append(AuditFinding(
                key=key, model=model, kind="source_drift",
                detail="model source bytes changed since build"))
            _count_stale()
            flagged = True
        if deep and not flagged:
            try:
                rederived = _rederive_key(entry, current_fp)
            except Exception as err:  # noqa: BLE001 - audit boundary
                rederived = None
                detail = f"re-derivation failed: {type(err).__name__}"
            else:
                detail = (f"recorded {key[:12]}…, re-derived "
                          f"{(rederived or '?')[:12]}…")
            if rederived != key:
                report.findings.append(AuditFinding(
                    key=key, model=model, kind="key_mismatch",
                    detail=detail))
                _count_stale()
    return report
