"""SIMD-friendliness analysis — the §5 generalization criteria, as code.

The paper's discussion section states when the technique applies:

  "our proposal is applicable and beneficial to a parallel loop whose
  body has the following properties: (i) the code (or DSL) can be
  expressed using MLIR dialects; (ii) loop iterations should perform
  regular access to data stored in arrays ...; and (iii) if the code
  contains control flow operations, it has to be SIMD-friendly for the
  vectorization to be efficient."

This module turns those three properties into a checkable report for
any analyzed ionic model.  The CLI exposes it as
``limpet-bench legality MODEL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..easyml.ast_nodes import Call, Name, Ternary, walk_expr
from ..easyml.builtins import BUILTINS
from ..frontend.model import IonicModel

#: fraction of select-guarded work above which masked execution starts
#: to hurt ("may lead to performance degradation in large portions of
#: conditional code", §5)
CONDITIONAL_WARN_FRACTION = 0.4


@dataclass
class Finding:
    """One legality finding: which §5 property, and how severe."""

    criterion: str                # "expressible" | "regular-access"
    #                             # | "simd-friendly-control-flow"
    severity: str                 # "blocker" | "warning"
    message: str


@dataclass
class LegalityReport:
    """The §5 checklist evaluated for one model."""

    model: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def vectorizable(self) -> bool:
        return not any(f.severity == "blocker" for f in self.findings)

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def describe(self) -> str:
        lines = [f"SIMD legality of {self.model} (paper §5 criteria):"]
        verdict = "VECTORIZABLE" if self.vectorizable else "NOT VECTORIZABLE"
        lines.append(f"  verdict: {verdict}")
        if not self.findings:
            lines.append("  all three §5 properties hold cleanly")
        for finding in self.findings:
            lines.append(f"  [{finding.severity}] ({finding.criterion}) "
                         f"{finding.message}")
        return "\n".join(lines)


def check_simd_legality(model: IonicModel) -> LegalityReport:
    """Evaluate the three §5 properties on an analyzed model."""
    report = LegalityReport(model=model.name)
    _check_expressible(model, report)
    _check_regular_access(model, report)
    _check_control_flow(model, report)
    return report


def check_population_legality(model: IonicModel,
                              param_names) -> LegalityReport:
    """Is promoting ``param_names`` to per-instance arrays legal?

    Promotion is never a hard error for a *valid* request: foreign
    models fall back to the batched scalar kernel (a warning, not a
    blocker), and params that also feed ``_init`` expressions keep
    their default there (the starting state is shared across the
    population).  The only blocker is naming something that is not a
    declared ``.param()``.
    """
    report = LegalityReport(model=model.name)
    param_names = list(dict.fromkeys(param_names))
    for name in param_names:
        if name not in model.params:
            report.findings.append(Finding(
                criterion="expressible", severity="blocker",
                message=f"{name!r} is not a declared .param() of "
                        f"{model.name} (params: "
                        f"{', '.join(sorted(model.params)) or '(none)'})"))
    if model.foreign_functions:
        report.findings.append(Finding(
            criterion="expressible", severity="warning",
            message=f"foreign function(s) "
                    f"{sorted(model.foreign_functions)}: the population "
                    f"advances through the batched scalar baseline "
                    f"kernel instead of the vectorized one"))
    promoted = model.promoted_params or tuple(
        p for p in param_names if p in model.params)
    for name in promoted:
        if name in model.init_param_uses:
            report.findings.append(Finding(
                criterion="regular-access", severity="warning",
                message=f"param {name!r} also appears in _init "
                        f"expressions; initial values stay at the "
                        f"default, per-instance values only shape the "
                        f"dynamics"))
    if model.promoted_params:
        used: set = set()
        for expr in _all_exprs(model):
            for node in walk_expr(expr):
                if isinstance(node, Name):
                    used.add(node.identifier)
        for table in model.lut_tables:
            for column in table.columns:
                used.update(n.identifier
                            for n in walk_expr(column.expr)
                            if isinstance(n, Name))
        for name in model.promoted_params:
            if name not in used and name not in model.init_param_uses:
                report.findings.append(Finding(
                    criterion="regular-access", severity="warning",
                    message=f"param {name!r} is promoted but unused by "
                            f"any runtime computation; sweeping it "
                            f"cannot change the trajectories"))
    return report


def _all_exprs(model: IonicModel):
    for comp in model.computations:
        yield comp.expr
    yield from model.diffs.values()


def _check_expressible(model: IonicModel, report: LegalityReport) -> None:
    """(i) expressible in MLIR dialects: no opaque foreign calls."""
    for name in sorted(model.foreign_functions):
        used = any(isinstance(node, Call) and node.callee == name
                   for expr in _all_exprs(model)
                   for node in walk_expr(expr))
        if used:
            report.findings.append(Finding(
                criterion="expressible", severity="blocker",
                message=f"foreign function {name!r} has no dialect "
                        f"representation; the call serializes the lane"))
    for expr in _all_exprs(model):
        for node in walk_expr(expr):
            if isinstance(node, Call) and \
                    node.callee not in BUILTINS and \
                    node.callee not in model.foreign_functions:
                report.findings.append(Finding(
                    criterion="expressible", severity="blocker",
                    message=f"unknown function {node.callee!r}"))


def _check_regular_access(model: IonicModel,
                          report: LegalityReport) -> None:
    """(ii) regular array access: state/external layout is uniform.

    EasyML models always access per-cell state through the generated
    accessors, so this property holds by construction; the check
    documents boundary costs (very wide state makes the AoS gather
    fallback expensive if the layout flag is off).
    """
    if model.n_states > 32:
        report.findings.append(Finding(
            criterion="regular-access", severity="warning",
            message=f"{model.n_states} state variables: the AoS gather "
                    f"fallback strides {model.n_states * 8} bytes; keep "
                    f"the AoSoA layout transformation enabled"))


def _check_control_flow(model: IonicModel,
                        report: LegalityReport) -> None:
    """(iii) SIMD-friendly control flow: bounded select fractions."""
    total_nodes = 0
    guarded_nodes = 0
    for expr in _all_exprs(model):
        for node in walk_expr(expr):
            total_nodes += 1
            if isinstance(node, Ternary):
                branch_size = sum(1 for _ in walk_expr(node.then)) + \
                    sum(1 for _ in walk_expr(node.otherwise))
                guarded_nodes += branch_size
    if not total_nodes:
        return
    fraction = guarded_nodes / total_nodes
    if fraction > CONDITIONAL_WARN_FRACTION:
        report.findings.append(Finding(
            criterion="simd-friendly-control-flow", severity="warning",
            message=f"{fraction:.0%} of the computation sits under "
                    f"if-converted selects; both branches execute on "
                    f"every lane (§5), expect masked-execution overhead"))
