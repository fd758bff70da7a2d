"""The autotuner's configuration space and its legality rules.

A :class:`TuningConfig` fixes every codegen/runtime knob the kernel
autotuner may turn: SIMD width, state layout, LUT interpolation, fused
lowering, the buffer arena, and the shard (thread) count.
:func:`enumerate_space` produces every *legal* combination for a
model, consulting :func:`repro.codegen.legality.check_simd_legality`
plus the runtime's own constraints:

* a §5 blocker (foreign functions, unknown calls) forces the scalar
  baseline: width 1 only;
* width 1 is the scalar baseline generator: AoS layout, no vector
  statements — the arena has nothing to reuse, shards stay at 1;
* LUT interpolation choices exist only for models with LUT tables;
* the buffer arena is per-kernel scratch, so ``arena`` requires
  ``shards == 1`` (the ShardedRunner refuses it);
* SoA kernels take their slot stride from the ``end`` argument, so
  they are only valid over the whole allocation: ``shards == 1``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

from ..codegen.legality import check_simd_legality
from ..frontend.model import IonicModel
from ..runtime.sharded import available_cpus

WIDTHS = (1, 4, 8)
LAYOUTS = ("aos", "soa", "aosoa")
LUT_MODES = ("linear", "spline", "off")


@dataclass(frozen=True)
class TuningConfig:
    """One point of the kernel configuration space."""

    width: int = 8
    layout: str = "aosoa"
    lut: str = "linear"          # "linear" | "spline" | "off"
    fuse: bool = True
    arena: bool = False
    shards: int = 1
    #: which axis multi-shard runs split: "cells" (always legal) or
    #: "instances" (population runs; bounds align to instance
    #: boundaries when the geometry allows, else cell fallback)
    shard_axis: str = "cells"

    def __post_init__(self):
        if self.width not in WIDTHS:
            raise ValueError(f"width must be one of {WIDTHS}, "
                             f"got {self.width}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, "
                             f"got {self.layout!r}")
        if self.lut not in LUT_MODES:
            raise ValueError(f"lut must be one of {LUT_MODES}, "
                             f"got {self.lut!r}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shard_axis not in ("cells", "instances"):
            raise ValueError(f"shard_axis must be 'cells' or "
                             f"'instances', got {self.shard_axis!r}")

    @property
    def use_lut(self) -> bool:
        return self.lut != "off"

    @property
    def lut_interpolation(self) -> str:
        """The generator's interpolation argument ("linear" when off —
        the generators validate the name even with ``use_lut=False``)."""
        return self.lut if self.use_lut else "linear"

    def describe(self) -> str:
        text = (f"w{self.width}/{self.layout}/lut={self.lut}/"
                f"{'fuse' if self.fuse else 'nofuse'}/"
                f"{'arena' if self.arena else 'noarena'}/"
                f"shards={self.shards}")
        if self.shard_axis != "cells":
            text += f"@{self.shard_axis}"
        return text

    def as_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "TuningConfig":
        return cls(width=int(data["width"]), layout=str(data["layout"]),
                   lut=str(data["lut"]), fuse=bool(data["fuse"]),
                   arena=bool(data["arena"]), shards=int(data["shards"]),
                   shard_axis=str(data.get("shard_axis", "cells")))


@dataclass(frozen=True)
class Workload:
    """What the tuner optimizes for: one (model, run-shape, machine)."""

    model: str
    n_cells: int
    dt: float
    integrator: str = ""           # the model's integration methods
    machine: str = "python-numpy"  # executing runtime, not the paper's
    #                              # modeled Cascade Lake
    #: population-shape fingerprint ("params=GKr;n=16") — empty for
    #: ordinary single-instance workloads, so old DB records stay valid
    population: str = ""
    #: sha256 of the model's EasyML text (``IonicModel.source_digest``);
    #: empty means the registry file of that name
    source: str = ""

    @classmethod
    def from_model(cls, model: IonicModel, n_cells: int, dt: float,
                   machine: str = "python-numpy",
                   population: str = "") -> "Workload":
        return cls(model=model.name, n_cells=n_cells, dt=dt,
                   integrator=integrator_summary(model), machine=machine,
                   population=population, source=model.source_digest)

    def describe(self) -> str:
        text = (f"{self.model}[{self.integrator}] x {self.n_cells} cells, "
                f"dt={self.dt:g}, machine={self.machine}")
        if self.population:
            text += f", population[{self.population}]"
        return text


def integrator_summary(model: IonicModel) -> str:
    """A stable summary of the model's integration methods.

    Part of the workload identity (and the DB key): changing a state's
    integrator changes the generated update code, hence the tuning.
    """
    methods = sorted(set(str(m) for m in model.methods.values()))
    return "+".join(methods) if methods else "fe"


def default_config_for(model: IonicModel) -> TuningConfig:
    """The untuned (PR 2 default) configuration for ``model``.

    Mirrors ``KernelRunner(generate_limpet_mlir(model))``: width 8,
    AoSoA, linear LUT when the model has tables, fused lowering, no
    arena, single shard.  Foreign-function models fall back to the
    scalar baseline, exactly like ``compile_resilient``.
    """
    if model.foreign_functions:
        return TuningConfig(width=1, layout="aos",
                            lut="linear" if model.lut_tables else "off")
    return TuningConfig(width=8, layout="aosoa",
                        lut="linear" if model.lut_tables else "off")


def _lut_choices(model: IonicModel) -> Iterable[str]:
    return LUT_MODES if model.lut_tables else ("off",)


def enumerate_space(model: IonicModel,
                    shard_counts: Optional[Iterable[int]] = None,
                    population_instances: int = 0
                    ) -> List[TuningConfig]:
    """Every legal :class:`TuningConfig` for ``model``.

    ``shard_counts`` defaults to {1} plus one multi-thread point when
    the host has more than one CPU (there is no reason to enumerate a
    thread sweep the machine cannot run).

    ``population_instances`` > 1 adds instance-axis variants of every
    multi-shard point (shard over instances vs cells — the population
    layer's extra degree of freedom).
    """
    if shard_counts is None:
        cpus = available_cpus()
        shard_counts = (1,) if cpus <= 1 else (1, min(cpus, 4))
    shard_counts = sorted(set(int(s) for s in shard_counts))
    if any(s < 1 for s in shard_counts):
        raise ValueError(f"shard counts must be >= 1, got {shard_counts}")

    vectorizable = (not model.foreign_functions
                    and check_simd_legality(model).vectorizable)
    configs: List[TuningConfig] = []
    for lut in _lut_choices(model):
        # scalar baseline: one point per LUT mode
        configs.append(TuningConfig(width=1, layout="aos", lut=lut))
        if not vectorizable:
            continue
        for width in WIDTHS:
            if width == 1:
                continue
            for layout in LAYOUTS:
                for fuse in (True, False):
                    for arena in (False, True):
                        for shards in shard_counts:
                            if arena and shards > 1:
                                continue     # arena scratch would alias
                            if layout == "soa" and shards > 1:
                                continue     # stride is the end argument
                            configs.append(TuningConfig(
                                width=width, layout=layout, lut=lut,
                                fuse=fuse, arena=arena, shards=shards))
                            if shards > 1 and population_instances > 1:
                                configs.append(TuningConfig(
                                    width=width, layout=layout, lut=lut,
                                    fuse=fuse, arena=arena,
                                    shards=shards,
                                    shard_axis="instances"))
    return configs
