"""The named code generators: validate, build the spec and the request;
the emitter runs when the module is first read.

* ``baseline`` — the limpetC++ analog openCARP ships (Listing 2): one
  cell per iteration, AoS state, scalar LUT interpolation;
* ``limpet_mlir`` — the paper's contribution (§3.3–§3.4): SIMD as an
  intrinsic feature, ``vector<Wxf64>`` values one cell per lane, state
  through the layout's accessor (AoSoA by default, §3.4.1; AoS for the
  §4.4 ablation), vectorized LUT rows (§3.4.2);
* ``icc_simd`` — the icc ``#pragma omp simd`` comparator of §5: vector
  arithmetic and math, but AoS layout and serialized scalar LUT calls;
* ``plugin`` — multimodel offspring kernels (§3.3.2) whose externals go
  through a per-cell parent map.

:func:`generate` picks one of the first three by name and
:func:`backend_for` states the rule for when that name is ``baseline``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..frontend.model import IonicModel
from .common import (CompileRequest, GeneratedKernel, KernelSpec,
                     UnsupportedModelError)
from .emitter import (BASELINE, ICC_SIMD, LIMPET_MLIR, PLUGIN, Target,
                      emit_kernel)
from .layout import Layout, LayoutKind, aos, aosoa


def _kernel(target: Target, model: IonicModel, width: int, layout: Layout,
            use_lut: bool, lut_interpolation: str = "linear",
            function_name: Optional[str] = None) -> GeneratedKernel:
    """Spec and request now, IR on the first read of ``.module``."""
    if lut_interpolation not in ("linear", "spline"):
        raise ValueError(f"unknown LUT interpolation {lut_interpolation!r}")
    spec = KernelSpec(model=model, mode=target.mode, width=width,
                      layout=layout, use_lut=use_lut,
                      lut_interpolation=lut_interpolation,
                      function_name=function_name
                      or f"{target.symbol}_{model.name}")
    request = CompileRequest(
        source_digest=model.source_digest,
        promoted_params=tuple(model.promoted_params), target=target.name,
        width=width, layout=str(layout), use_lut=use_lut,
        lut_interpolation=lut_interpolation,
        function_name=spec.function_name)
    return GeneratedKernel(lambda: emit_kernel(spec, target), spec, layout,
                           request)


def _refuse(model: IonicModel, names: Iterable[str], reason: str) -> None:
    """Raise :class:`UnsupportedModelError` when ``names`` is non-empty;
    ``reason`` is formatted with the sorted names."""
    if names:
        raise UnsupportedModelError(
            f"model {model.name}: {reason.format(sorted(names))}")


def generate_baseline(model: IonicModel, use_lut: bool = True,
                      lut_interpolation: str = "linear",
                      function_name: str = None) -> GeneratedKernel:
    """Generate the scalar baseline compute kernel for ``model``."""
    return _kernel(BASELINE, model, 1, aos(model.n_states), use_lut,
                   lut_interpolation, function_name)


_NOT_VECTORIZABLE = ("calls foreign function(s) {} that cannot be vectorized "
                     "(43 of 47 models are limpetMLIR-supported, paper "
                     "§3.3.2); use generate_baseline")


def generate_limpet_mlir(model: IonicModel, width: int = 8,
                         use_lut: bool = True,
                         lut_interpolation: str = "linear",
                         layout: Optional[str] = None,
                         function_name: Optional[str] = None
                         ) -> GeneratedKernel:
    """Generate the vectorized limpetMLIR kernel.

    ``width`` is the SIMD width in doubles (2 = SSE, 4 = AVX2,
    8 = AVX-512).  ``layout`` is the paper's data-layout flag
    (§3.4.1): ``"aosoa"`` (the default, ``None``) applies the AoS ->
    AoSoA transformation, ``"aos"`` leaves it off.
    """
    try:
        kind = LayoutKind("aosoa" if layout is None else layout)
    except ValueError:
        raise ValueError(f"unknown layout {layout!r}; "
                         f"one of 'aos', 'aosoa'") from None
    resolved = Layout(kind, model.n_states,
                      width if kind is LayoutKind.AOSOA else 1)
    _refuse(model, model.foreign_functions, _NOT_VECTORIZABLE)
    return _kernel(LIMPET_MLIR, model, width, resolved, use_lut,
                   lut_interpolation, function_name)


def generate_icc_simd(model: IonicModel, width: int = 8,
                      use_lut: bool = True,
                      function_name: Optional[str] = None) -> GeneratedKernel:
    """Generate the icc ``omp simd`` comparator kernel (§5)."""
    _refuse(model, model.foreign_functions, _NOT_VECTORIZABLE)
    return _kernel(ICC_SIMD, model, width, aos(model.n_states), use_lut,
                   function_name=function_name)


def generate_plugin(model: IonicModel, width: int = 8,
                    use_lut: bool = True,
                    function_name: Optional[str] = None) -> GeneratedKernel:
    """Generate a vectorized plugin kernel with parent indirection.

    Signature adds, after the standard arguments, one ``parent_map``
    memref plus one ``parent_<ext>`` memref per external variable.
    """
    _refuse(model, model.foreign_functions,
            "foreign function(s) {} cannot be vectorized in a plugin "
            "kernel; use the baseline backend")
    _refuse(model, model.promoted_params,
            "promoted parameter(s) {} are not supported by plugin kernels")
    return _kernel(PLUGIN, model, width, aosoa(model.n_states, width),
                   use_lut, function_name=function_name)


def generate(model: IonicModel, backend: str = "limpet_mlir", width: int = 8,
             layout: Optional[str] = None, use_lut: bool = True,
             lut_interpolation: str = "linear") -> GeneratedKernel:
    """The kernel at these coordinates, by backend name.

    Strict: a backend that cannot compile ``model`` raises
    :class:`UnsupportedModelError` (the fallback chain's cue); callers
    that want the supported kernel pass ``backend_for(...)``.  ``width``
    and ``layout`` only mean something to the vector backends.
    """
    if backend == "limpet_mlir":
        return generate_limpet_mlir(model, width, use_lut=use_lut,
                                    lut_interpolation=lut_interpolation,
                                    layout=layout)
    if backend == "icc_simd":
        return generate_icc_simd(model, width, use_lut=use_lut)
    if backend == "baseline":
        return generate_baseline(model, use_lut=use_lut,
                                 lut_interpolation=lut_interpolation)
    raise ValueError(f"unknown backend {backend!r}; one of "
                     f"'limpet_mlir', 'icc_simd', 'baseline'")


def backend_for(backend: str, width: int, foreign: bool = False) -> str:
    """A foreign (external C) call cannot be vectorized (§3.3.2) and one
    lane is not a vector: either way the kernel is the baseline's."""
    return "baseline" if foreign or width == 1 else backend
