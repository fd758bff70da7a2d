"""Backend fallback chain: limpet_mlir -> icc_simd -> baseline.

The paper's toolchain quietly keeps 4 of 47 models on the baseline
generator because foreign C calls cannot be vectorized (§3.3.2).  This
module makes that degradation explicit and total: ``compile_resilient``
walks a chain of backend tiers, catching :class:`UnsupportedModelError`,
verifier failures, lowering errors — any compile-time exception — and
returns the first tier that produces a working kernel, together with a
structured :class:`~repro.resilience.diagnostics.Diagnostic` trail
explaining why each earlier tier was skipped.  ``strict=True`` turns
the chain off (fail fast, for CI).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..codegen import GeneratedKernel, UnsupportedModelError, generate
from ..frontend.model import IonicModel
from ..models import load_model
from ..obs import ledger as _ledger
from ..obs import trace as _trace
from ..runtime import KernelRunner, make_runner
from .diagnostics import Diagnostic, Severity, log_diagnostic
from .sandbox import SandboxedPassManager, sandboxed_pipeline

#: the default tier order, strongest first
DEFAULT_CHAIN = ("limpet_mlir", "icc_simd", "baseline")


class ResilientCompileError(RuntimeError):
    """Every tier of the fallback chain failed."""

    def __init__(self, message: str, diagnostics: List[Diagnostic]):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class ResilientKernel:
    """Outcome of a resilient compile: kernel + how we got it."""

    model_name: str
    backend: str                    # the tier that succeeded
    requested: str                  # the tier we first tried
    kernel: GeneratedKernel
    runner: KernelRunner
    diagnostics: List[Diagnostic] = field(default_factory=list)
    sandbox: Optional[SandboxedPassManager] = None

    @property
    def fell_back(self) -> bool:
        return self.backend != self.requested

    def describe(self) -> str:
        head = f"{self.model_name}: compiled via {self.backend!r}"
        if self.fell_back:
            head += f" (requested {self.requested!r})"
        return head


def compile_resilient(model: Union[str, IonicModel],
                      chain: Sequence[str] = DEFAULT_CHAIN,
                      width: int = 8, use_lut: bool = True,
                      strict: bool = False, sandbox: bool = True,
                      reproducer_dir: Optional[pathlib.Path] = None,
                      inject=None, artifacts=None,
                      workers: int = 0) -> ResilientKernel:
    """Compile ``model`` down the backend fallback chain.

    Tries each tier in ``chain`` in order; a tier fails when code
    generation, the (sandboxed) pass pipeline, verification, or
    lowering raises.  Returns the first working tier's kernel wrapped
    in a :class:`ResilientKernel` whose diagnostics explain every
    skipped tier.  With ``strict=True`` the first tier's failure is
    re-raised instead (no fallback).  ``inject`` is an optional
    :class:`~repro.resilience.faultinject.FaultInjector` consulted per
    tier (testing hook).

    ``workers`` goes to ``make_runner``, so the kernel is resolved
    once, by the runner that will execute it (supervised when the count
    is parallel, armed with ``inject``'s process faults).

    When an AOT artifact bundle is mounted (``$LIMPET_ARTIFACT_DIR``,
    or an explicit ``artifacts=`` store), the runner each tier builds
    asks the bundle for its kernel-cache key before any pass runs: on a
    hit the kernel is exec'd straight from the bundle with no passes,
    verification or lowering at all; on a miss a Diagnostic records the
    fall-back to ordinary JIT compilation.  Fault-injection runs
    (``inject=``) always JIT so drills exercise the real pipeline.
    """
    from ..aot.bundle import resolve_store
    store = None if inject is not None else resolve_store(artifacts)
    runner_kwargs = dict(workers=workers,
                         fault_plan=getattr(inject, "plan", None),
                         artifacts=store if store is not None else False)
    if isinstance(model, str):
        model = load_model(model)
    if not chain:
        raise ValueError("empty fallback chain")
    diagnostics: List[Diagnostic] = []
    for tier, backend in enumerate(chain):
        pipeline: Optional[SandboxedPassManager] = None
        try:
            with _trace.span("compile_tier", model=model.name,
                             backend=backend, tier=tier):
                if inject is not None:
                    inject.maybe_fail_backend(backend)
                kernel = generate(model, backend, width, use_lut=use_lut)
                if sandbox:
                    pipeline = sandboxed_pipeline(reproducer_dir)
                    if inject is not None:
                        inject.wrap_pipeline(pipeline)
                runner = make_runner(kernel, pipeline=pipeline,
                                     **runner_kwargs)
        except Exception as err:  # noqa: BLE001 - tier boundary
            if strict:
                raise
            severity = (Severity.WARNING if isinstance(
                err, UnsupportedModelError) else Severity.ERROR)
            diagnostics.append(log_diagnostic(Diagnostic.from_exception(
                stage="compile", component=backend, exc=err,
                severity=severity, with_traceback=not isinstance(
                    err, UnsupportedModelError),
                tier=tier, model=model.name)))
            continue
        if runner.artifact_hit:
            outcome = (f"loaded {model.name} from AOT artifact bundle via "
                       f"{backend!r} (zero compile)")
        else:
            if store is not None:
                diagnostics.append(log_diagnostic(Diagnostic(
                    stage="compile", component="artifacts",
                    severity=Severity.INFO,
                    message=(f"no usable AOT artifact for {model.name} "
                             f"via {backend!r}; falling back to JIT"),
                    data={"tier": tier, "model": model.name})))
            outcome = (f"compiled {model.name} via {backend!r}"
                       + (f" after {tier} skipped tier(s)" if tier else ""))
        quarantined = sorted(pipeline.quarantined) if pipeline else []
        replayed = pipeline.replayed_passes if pipeline else []
        if pipeline is not None:
            diagnostics.extend(pipeline.diagnostics)
        diagnostics.append(log_diagnostic(Diagnostic(
            stage="compile", component=backend, severity=Severity.INFO,
            message=outcome,
            data={"tier": tier, "model": model.name,
                  "quarantined": quarantined,
                  "artifact": runner.artifact_hit})))
        _ledger.record_event(
            "compile", model=model.name, backend=backend,
            cache=runner.resolution.cache_outcome, tier_index=tier,
            key=runner.cache_key, compile_seconds=runner.compile_seconds,
            quarantined=quarantined or None,
            replayed_passes=replayed or None,
            disposition="fell_back" if tier else "ok")
        return ResilientKernel(model_name=model.name, backend=backend,
                               requested=chain[0], kernel=kernel,
                               runner=runner, diagnostics=diagnostics,
                               sandbox=pipeline)
    _ledger.record_event("compile", model=model.name,
                         disposition="failed",
                         tiers_tried=len(chain))
    raise ResilientCompileError(
        f"{model.name}: every backend tier failed "
        f"({', '.join(chain)}); see diagnostics", diagnostics)
