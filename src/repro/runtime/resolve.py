"""Resolve: where a runner's compiled kernel comes from (DESIGN.md §5.1).

:func:`resolve_kernel` is the one walk — bundled payload → kernel cache
→ artifact store → JIT — behind every runner and the AOT build; what
happened comes back as a :class:`Resolution`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ir.passes import default_pipeline
from ..ir.passes.pass_manager import PassManager
from ..ir.verifier import verify_module
from ..obs import trace as _trace
from .kernel_cache import KernelCache, kernel_cache_key
from .lowering import (CompiledKernel, compile_kernel_source,
                       lower_function)


def toolchain_identity() -> Tuple[str, int]:
    """``(default pass-pipeline fingerprint, LOWERING_VERSION)``: the
    toolchain coordinates every content address embeds (kernel-cache
    key, bundle fingerprints and provenance)."""
    from . import lowering          # read at call time: tests bump it
    return (default_pipeline(verify_each=False).fingerprint(),
            lowering.LOWERING_VERSION)


@dataclass(frozen=True)
class Resolution:
    """How one kernel was obtained."""

    #: ``bundle`` (the kernel object carried its finished payload),
    #: ``cache`` / ``artifact`` (a hit by key) or ``jit``
    source: str
    #: the kernel-cache key; ``None`` when no store was consulted
    key: Optional[str]
    #: wall seconds of the walk (a JIT build's passes + verify +
    #: lowering, or little more than the source exec on a hit)
    seconds: float

    @property
    def cache_outcome(self) -> str:
        """The ledger's ``cache=`` column."""
        if self.source in ("bundle", "artifact"):
            return "artifact"
        if self.source == "cache":
            return "hit"
        return "miss" if self.key else "off"


def _exec_payload(payload: Dict) -> CompiledKernel:
    return compile_kernel_source(
        payload["function_name"], payload["source"], payload["mode"],
        payload["width"], payload["arg_names"], fused=payload["fused"],
        arena=payload["arena"])


def resolve_kernel(generated, optimize: bool = True,
                   pipeline: Optional[PassManager] = None,
                   fuse: bool = True, arena: bool = False,
                   cache: Optional[KernelCache] = None, artifacts=None,
                   profile: bool = False,
                   population: Optional[str] = None
                   ) -> Tuple[CompiledKernel, Resolution]:
    """``generated``'s compiled kernel, from the cheapest source.

    ``cache`` / ``artifacts`` are the stores to consult (``None`` =
    skip); ``optimize=False`` skips the pass pipeline (the differential
    tests' unoptimised reference) and ``pipeline`` replaces the
    default one."""
    start = _time.perf_counter()

    def resolved(kernel, source, key):
        return kernel, Resolution(source, key,
                                  _time.perf_counter() - start)

    payload = getattr(generated, "payload", None)
    if payload:
        # an ArtifactKernel: the payload IS the finished JIT product
        return resolved(_exec_payload(payload), "bundle",
                        getattr(generated, "key", "") or None)
    if pipeline is None and optimize:
        pipeline = default_pipeline(verify_each=False)
    fingerprint = pipeline.fingerprint() if pipeline is not None else "none"
    lookups = []
    if cache is not None:
        lookups.append(("cache", cache.load))
    if artifacts is not None:
        lookups.append(("artifact", artifacts.lookup_kernel))
    key = kernel_cache_key(generated, fingerprint, fuse, arena, True,
                           population=population) if lookups else None
    model = generated.spec.model.name
    for source, load in lookups:
        with _trace.span(f"{source}_lookup", model=model) as look:
            payload = load(key)
            look.annotate(hit=payload is not None)
        if payload is not None:
            return resolved(_exec_payload(payload), source, key)
    module = generated.module       # every store missed: the IR is needed
    if pipeline is not None:
        tracer = _trace.active_tracer()
        if tracer is not None:
            from ..obs.passes import TracePassInstrumentation
            if not any(isinstance(i, TracePassInstrumentation)
                       for i in pipeline.instrumentations):
                pipeline.add_instrumentation(
                    TracePassInstrumentation(tracer))
        with _trace.span("passes", model=model, pipeline=fingerprint):
            pipeline.run(module, fixed_point=True)
    with _trace.span("verify", model=model):
        verify_module(module)
    with _trace.span("lowering", model=model, fuse=fuse, arena=arena,
                     profile=profile):
        kernel = lower_function(module, generated.spec.function_name,
                                fuse=fuse, arena=arena, profile=profile)
    if cache is not None and not getattr(pipeline, "quarantined", None):
        # a sandboxed pipeline that quarantined passes produced a module
        # the full pipeline would not have: storing it under the
        # full-pipeline key would poison every later consumer
        cache.store(key, kernel.source, kernel.mode, kernel.width,
                    kernel.arg_names, kernel.name, fused=kernel.fused,
                    arena=kernel.arena is not None)
    return resolved(kernel, "jit", key)
