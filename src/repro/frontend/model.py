"""The analyzed ionic model: what the code generators consume.

:class:`IonicModel` is the common hand-off point between the limpet
frontend (this package) and the one kernel emitter behind every
backend (``repro.codegen.emitter``), exactly as the AST produced by
openCARP's Python limpet frontend is shared between limpetC++ and
limpetMLIR (Figure 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from ..easyml.ast_nodes import Expr, free_names
from .symbols import LookupSpec, Method, Variable


@dataclass
class Computation:
    """One runtime assignment ``target = expr`` in evaluation order."""

    target: str
    expr: Expr
    #: the names ``expr`` reads (:func:`free_names`), found once, when
    #: the computation is built; the analyzer passes what it knows
    reads: FrozenSet[str] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.reads is None:
            self.reads = frozenset(free_names(self.expr))

    def __str__(self) -> str:
        return f"{self.target} = {self.expr}"


@dataclass
class GateInfo:
    """Rush–Larsen form of a gate's dynamics.

    Either ``inf``/``tau`` (steady state and time constant) or
    ``alpha``/``beta`` (opening/closing rates, from which
    inf = a/(a+b) and tau = 1/(a+b)).
    """

    form: str                     # "inf_tau" or "alpha_beta"
    inf: Optional[str] = None
    tau: Optional[str] = None
    alpha: Optional[str] = None
    beta: Optional[str] = None


@dataclass
class LUTTable:
    """A lookup table keyed by one variable (``.lookup(lo,hi,step)``).

    ``columns`` are the tabulated intermediates, in evaluation order;
    at runtime a row is produced by linear interpolation between
    precomputed rows (scalar in the baseline, vectorized in
    limpetMLIR, §3.4.2).
    """

    var: str
    spec: LookupSpec
    columns: List[Computation] = field(default_factory=list)

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def column_names(self) -> List[str]:
        return [c.target for c in self.columns]


@dataclass
class IonicModel:
    """A fully analyzed ionic model, ready for code generation."""

    name: str
    variables: Dict[str, Variable]
    #: external variables in declaration order (e.g. ["Vm", "Iion"])
    externals: List[str]
    #: state variables in declaration order; defines the state-struct layout
    states: List[str]
    #: shared read-only parameters (resolved to their constant values)
    params: Dict[str, float]
    #: intermediates folded away at compile time by the preprocessor
    folded_constants: Dict[str, float]
    #: runtime intermediates, topologically ordered
    computations: List[Computation]
    #: state -> right-hand side of its ODE
    diffs: Dict[str, Expr]
    #: state -> initial value
    init_values: Dict[str, float]
    #: external -> initial value (for standalone bench runs)
    external_init: Dict[str, float]
    #: externals written by the model (e.g. ["Iion"])
    outputs: List[str]
    #: state -> integration method
    methods: Dict[str, Method]
    #: state -> gate decomposition (only for gates)
    gates: Dict[str, GateInfo]
    #: lookup tables, one per ``.lookup`` variable that owns columns
    lut_tables: List[LUTTable] = field(default_factory=list)
    #: parameters promoted to per-instance runtime arrays (population
    #: batching): these keep their default in ``params`` but are no
    #: longer folded — kernels take one extra array argument per name
    promoted_params: tuple = ()
    #: promoted parameters that also appear in ``_init`` expressions;
    #: initial values stay baked at the default, so per-instance values
    #: do not move the starting state (legality surfaces a warning)
    init_param_uses: Set[str] = field(default_factory=set)
    #: names declared ``.foreign()``: external C functions the model
    #: calls; the baseline passes them through, limpetMLIR rejects them
    #: (this is what bounds support to 43 of 47 models, §3.3.2)
    foreign_functions: Set[str] = field(default_factory=set)
    #: analysis warnings (kept, not printed, so tools can surface them)
    warnings: List[str] = field(default_factory=list)
    #: sha256 of the EasyML text this model was analyzed from
    #: (:attr:`ModelAST.source_digest`): the model's part of every store key
    source_digest: str = ""

    # -- derived views ---------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    def method_of(self, state: str) -> Method:
        return self.methods[state]

    def lut_for(self, var: str) -> Optional[LUTTable]:
        for table in self.lut_tables:
            if table.var == var:
                return table
        return None

    @property
    def lut_column_names(self) -> Set[str]:
        names: Set[str] = set()
        for table in self.lut_tables:
            names.update(table.column_names)
        return names

    def computations_excluding_lut(self) -> List[Computation]:
        """Runtime computations minus those served by LUT interpolation."""
        lut_names = self.lut_column_names
        return [c for c in self.computations if c.target not in lut_names]

    def dependencies_of(self, target: str) -> Set[str]:
        """Transitive free variables feeding ``target``'s computation."""
        by_name = {c.target: c for c in self.computations}
        seen: Set[str] = set()
        frontier = [target]
        while frontier:
            name = frontier.pop()
            comp = by_name.get(name)
            if comp is None:
                continue
            for dep in comp.reads:
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        return seen

    def stage_computations(self, state: str) -> List[Computation]:
        """Computations that must be re-evaluated when ``state`` changes.

        Multi-stage integrators (rk2/rk4/sundnes/markov_be) re-evaluate
        ``diff_state`` at intermediate state values (Listing 2, lines
        20–26): every intermediate on the path from ``state`` to
        ``diff_state`` is re-emitted with the substituted value.
        """
        diff_deps = set(free_names(self.diffs[state]))
        by_name = {c.target: c for c in self.computations}
        needed: List[Computation] = []
        # Walk computations in order, keeping those that transitively
        # depend on `state` and feed the diff expression.
        depends_on_state: Set[str] = {state}
        for comp in self.computations:
            if not comp.reads.isdisjoint(depends_on_state):
                depends_on_state.add(comp.target)
        # Now collect, in order, computations that feed diff and depend
        # on the state.
        feeds_diff: Set[str] = set(diff_deps)
        for comp in reversed(self.computations):
            if comp.target in feeds_diff:
                feeds_diff.update(comp.reads)
        for comp in self.computations:
            if comp.target in feeds_diff and comp.target in depends_on_state:
                needed.append(comp)
        return needed

    def describe(self) -> str:
        """A human-readable summary used by the CLI and examples."""
        lines = [f"ionic model {self.name}:"]
        lines.append(f"  externals: {', '.join(self.externals) or '(none)'}")
        lines.append(f"  states ({len(self.states)}): {', '.join(self.states)}")
        for state in self.states:
            method = self.methods[state].value
            gate = " [gate]" if state in self.gates else ""
            lines.append(f"    {state}: init={self.init_values[state]!r} "
                         f"method={method}{gate}")
        lines.append(f"  params ({len(self.params)}): "
                     f"{', '.join(sorted(self.params)) or '(none)'}")
        lines.append(f"  runtime computations: {len(self.computations)}"
                     f" (+{len(self.folded_constants)} folded)")
        for table in self.lut_tables:
            lines.append(f"  LUT on {table.var}: {table.n_columns} columns x "
                         f"{table.spec.n_rows} rows "
                         f"[{table.spec.lo}, {table.spec.hi}] "
                         f"step {table.spec.step}")
        return "\n".join(lines)
