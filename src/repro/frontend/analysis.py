"""Semantic analysis: from EasyML AST to :class:`IonicModel`.

This is the analog of openCARP's limpet frontend: it classifies
variables from markup, enforces the language's single-assignment
property, if-converts conditional statements into select expressions
(the SIMD-friendly form §5 discusses), topologically orders the
computations, folds compile-time constants through the preprocessor,
detects Hodgkin–Huxley gates, resolves integration methods and groups
lookup-table columns.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..easyml.ast_nodes import (Assign, Binary, Call, Expr,
                                If, Markup, ModelAST, Name, Number, Stmt,
                                Ternary, Unary, free_names)
from ..easyml.builtins import BUILTINS
from ..easyml.errors import SemanticError
from .model import Computation, GateInfo, IonicModel, LUTTable
from .preprocessor import Preprocessor
from .symbols import (LookupSpec, Method, Variable, VarKind, diff_target,
                      gate_helper_names, init_target)

_KNOWN_MARKUPS = {"external", "nodal", "param", "lookup", "method", "units",
                  "regional", "store", "trace", "foreign"}


def _is_costly(expr: Expr) -> bool:
    """A math call or a division anywhere in the tree makes an expression
    worth tabulating in a LUT (openCARP's heuristic)."""
    if isinstance(expr, Call):
        builtin = BUILTINS.get(expr.callee)
        if builtin is None or builtin.costly:
            return True
    if isinstance(expr, Binary) and expr.op == "/":
        return True
    return any(_is_costly(child) for child in expr.children())


def analyze(ast: ModelAST,
            promote_params: Sequence[str] = ()) -> IonicModel:
    """Run the full frontend on a parsed model.

    ``promote_params`` names ``.param()`` variables that must *survive*
    constant folding: they stay out of the preprocessor's constant set,
    so every expression that reads them (directly or through a folded
    intermediate) remains a runtime computation and the code generators
    see them as free names bound to per-instance parameter arrays.
    This is the frontend half of population batching — the same model
    source compiles to one kernel advancing N parameter-perturbed
    instances.
    """
    return _Analyzer(ast, promote_params=promote_params).run()


class _Analyzer:
    def __init__(self, ast: ModelAST, promote_params: Sequence[str] = ()):
        self.ast = ast
        self.promote_params = tuple(dict.fromkeys(promote_params))
        self.warnings: List[str] = []
        self.variables: Dict[str, Variable] = {}
        self.foreign: Set[str] = set()
        self._if_counter = 0

    def _error(self, message: str) -> SemanticError:
        return SemanticError(f"model {self.ast.name}: {message}")

    # -- pipeline ----------------------------------------------------------------

    def run(self) -> IonicModel:
        self._collect_declarations()
        assigns = self._if_convert(self.ast.statements)
        self._check_single_assignment(assigns)
        params = self._resolve_params()
        unknown = [p for p in self.promote_params if p not in params]
        if unknown:
            raise self._error(
                f"cannot promote unknown parameter(s): "
                f"{', '.join(unknown)} (declared params: "
                f"{', '.join(sorted(params)) or '(none)'})")
        # Initial values are always evaluated at the *default* param
        # values — per-instance parameters shape the dynamics, not the
        # starting state.  Record which promoted params feed inits so
        # legality can surface the approximation.
        init_param_uses = {
            p for a in assigns if init_target(a.target) is not None
            for p in free_names(a.expr) & set(self.promote_params)}
        init_values, external_init, body = self._split_inits(assigns, params)
        ordered = self._topo_sort(body)
        # Promoted params are withheld from the folding constant set;
        # they (and everything derived from them) stay runtime names.
        runtime_constants = {k: v for k, v in params.items()
                             if k not in self.promote_params}
        pre = Preprocessor(runtime_constants, foreign=self.foreign)
        computations, folded, diffs, outputs = self._fold(ordered, pre)
        states = self._resolve_states(diffs, init_values)
        gates = self._detect_gates(states, computations, folded)
        methods = self._resolve_methods(states, gates)
        self._validate_gate_methods(states, gates, methods)
        lut_tables = self._group_luts(computations, runtime_constants,
                                      folded)
        self._add_rl_decay_columns(lut_tables, gates, methods)
        for name in self.foreign:
            self.variables.pop(name, None)
        externals = [name for name, var in self.variables.items()
                     if var.kind is VarKind.EXTERNAL]
        for name in outputs:
            self.variables[name].written = True
        # Implicitly-defined intermediates get symbol entries too, so
        # tooling can introspect every name the model binds.
        for comp in computations:
            if comp.target not in self.variables:
                self.variables[comp.target] = Variable(
                    comp.target, VarKind.INTERMEDIATE)
        return IonicModel(
            name=self.ast.name,
            variables=self.variables,
            externals=externals,
            states=states,
            params=params,
            folded_constants=folded,
            computations=computations,
            diffs=diffs,
            init_values={s: init_values.get(s, 0.0) for s in states},
            external_init=external_init,
            outputs=outputs,
            methods=methods,
            gates=gates,
            lut_tables=lut_tables,
            promoted_params=self.promote_params,
            init_param_uses=init_param_uses,
            foreign_functions=set(self.foreign),
            warnings=self.warnings,
            source_digest=self.ast.source_digest,
        )

    # -- declarations ---------------------------------------------------------------

    def _collect_declarations(self) -> None:
        pending_decls = self.ast.declarations()
        for decl in pending_decls:
            var = self.variables.get(decl.name)
            if var is None:
                var = Variable(decl.name, VarKind.INTERMEDIATE)
                self.variables[decl.name] = var
            self._apply_markups(var, decl.markups)
            if decl.init is not None:
                pre = Preprocessor()
                value = pre.try_eval(decl.init)
                if value is None:
                    raise self._error(
                        f"declaration initializer of {decl.name} must be "
                        f"a constant expression")
                var.init = value

    def _apply_markups(self, var: Variable, markups: Sequence[Markup]) -> None:
        for markup in markups:
            if markup.name == "external":
                var.kind = VarKind.EXTERNAL
            elif markup.name == "param":
                var.kind = VarKind.PARAM
            elif markup.name == "nodal":
                var.nodal = True
            elif markup.name == "lookup":
                if len(markup.args) != 3:
                    raise self._error(
                        f".lookup on {var.name} needs (lo, hi, step)")
                lo, hi, step = (float(a) for a in markup.args)
                var.lookup = LookupSpec(lo, hi, step)
            elif markup.name == "method":
                if len(markup.args) != 1 or not isinstance(markup.args[0], str):
                    raise self._error(
                        f".method on {var.name} needs a method name")
                try:
                    var.method = Method.from_markup(markup.args[0])
                except ValueError as err:
                    raise self._error(str(err))
            elif markup.name == "units":
                var.units = str(markup.args[0]) if markup.args else None
            elif markup.name == "foreign":
                # the declared name is an external C function, not a
                # model variable
                self.foreign.add(var.name)
            elif markup.name in _KNOWN_MARKUPS:
                pass  # recognized but irrelevant to code generation
            else:
                self.warnings.append(
                    f"unknown markup .{markup.name}() on {var.name} ignored")

    # -- if conversion ----------------------------------------------------------------

    def _if_convert(self, stmts: Sequence[Stmt]) -> List[Assign]:
        out: List[Assign] = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                out.append(stmt)
            elif isinstance(stmt, If):
                out.extend(self._convert_if(stmt))
            # Declare/Group statements carry no runtime assignment; their
            # initializers are resolved in _collect_declarations.
        return out

    def _convert_if(self, stmt: If) -> List[Assign]:
        """Turn ``if (c) {a} else {b}`` into speculative + select form.

        Both branches execute unconditionally and targets assigned in
        both are merged with a ternary — the transformation that makes
        control flow SIMD-friendly (§5: "the vectorization of an
        if/else condition requires both blocks to be executed and
        element-wise selected according to a mask").
        """
        then_assigns = self._if_convert(stmt.then_body)
        else_assigns = self._if_convert(stmt.else_body)
        then_map = {a.target: a for a in then_assigns}
        else_map = {a.target: a for a in else_assigns}
        if len(then_map) != len(then_assigns) or \
                len(else_map) != len(else_assigns):
            raise self._error(
                f"line {stmt.line}: variable assigned twice within one "
                f"if branch (EasyML is single-assignment)")
        merged: List[Assign] = []
        both = [a.target for a in then_assigns if a.target in else_map]
        # Branch-local temporaries run speculatively under distinct
        # names; the counter keeps nested if-conversions collision-free.
        self._if_counter += 1
        tag = "" if self._if_counter == 1 else str(self._if_counter)
        suffix_t, suffix_e = f"__then{tag}", f"__else{tag}"
        renames_t = {t: t + suffix_t for t in both}
        renames_e = {t: t + suffix_e for t in both}
        for assign in then_assigns:
            target = renames_t.get(assign.target, assign.target)
            merged.append(Assign(target,
                                 _rename_expr(assign.expr, renames_t),
                                 assign.line))
        for assign in else_assigns:
            target = renames_e.get(assign.target, assign.target)
            merged.append(Assign(target,
                                 _rename_expr(assign.expr, renames_e),
                                 assign.line))
        for target in both:
            merged.append(Assign(
                target,
                Ternary(stmt.cond, Name(renames_t[target]),
                        Name(renames_e[target])),
                stmt.line))
        return merged

    # -- SSA / splitting ---------------------------------------------------------------

    def _check_single_assignment(self, assigns: Sequence[Assign]) -> None:
        seen: Set[str] = set()
        for assign in assigns:
            if assign.target in seen:
                raise self._error(
                    f"line {assign.line}: {assign.target} assigned more than "
                    f"once (EasyML expressions follow SSA, paper §2.2)")
            seen.add(assign.target)
            var = self.variables.get(assign.target)
            if var is not None and var.kind is VarKind.PARAM:
                raise self._error(
                    f"line {assign.line}: parameter {assign.target} cannot "
                    f"be assigned")

    def _split_inits(self, assigns: Sequence[Assign],
                     params: Dict[str, float]):
        """Separate ``X_init`` assignments from runtime computations."""
        init_values: Dict[str, float] = {}
        external_init: Dict[str, float] = {}
        body: List[Assign] = []
        pre = Preprocessor(params)
        for assign in assigns:
            target = init_target(assign.target)
            if target is None:
                body.append(assign)
                continue
            value = pre.try_eval(assign.expr)
            if value is None:
                raise self._error(
                    f"{assign.target} must be a constant expression")
            var = self.variables.get(target)
            if var is not None and var.kind is VarKind.EXTERNAL:
                external_init[target] = value
            else:
                init_values[target] = value
        return init_values, external_init, body

    # -- ordering ---------------------------------------------------------------------

    def _topo_sort(self, body: Sequence[Assign]) -> List[Assign]:
        """Order assignments by data dependence (EasyML is order-free)."""
        by_target = {a.target: a for a in body}
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        state_names = {diff_target(a.target) for a in body
                       if diff_target(a.target)}
        for assign in body:
            count = 0
            for dep in free_names(assign.expr):
                if dep in by_target and dep != assign.target:
                    dependents.setdefault(dep, []).append(assign.target)
                    count += 1
                elif dep not in by_target:
                    self._check_known(dep, state_names, assign)
            indegree[assign.target] = count
        # Kahn's algorithm, stable in source order.
        ready = [a.target for a in body if indegree[a.target] == 0]
        order: List[Assign] = []
        while ready:
            target = ready.pop(0)
            order.append(by_target[target])
            for dependent in dependents.get(target, ()):
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
            dependents.pop(target, None)
        if len(order) != len(body):
            cyclic = sorted(t for t, d in indegree.items() if d > 0)
            raise self._error(
                f"cyclic dependency among: {', '.join(cyclic)}")
        return order

    def _check_known(self, name: str, states: Set[str],
                     assign: Assign) -> None:
        if name in states or name in self.variables:
            return
        raise self._error(
            f"line {assign.line}: {assign.target} references undefined "
            f"variable {name}")

    # -- params / folding ----------------------------------------------------------------

    def _resolve_params(self) -> Dict[str, float]:
        params: Dict[str, float] = {}
        for name, var in self.variables.items():
            if var.kind is VarKind.PARAM:
                if var.init is None:
                    raise self._error(f"parameter {name} has no value")
                params[name] = var.init
        return params

    def _fold(self, ordered: Sequence[Assign], pre: Preprocessor):
        computations: List[Computation] = []
        folded: Dict[str, float] = {}
        diffs: Dict[str, Expr] = {}
        outputs: List[str] = []
        for assign in ordered:
            expr = pre.fold(assign.expr)
            state = diff_target(assign.target)
            var = self.variables.get(assign.target)
            is_external_write = var is not None and var.kind is VarKind.EXTERNAL
            value = pre.try_eval(expr)
            if value is not None and state is None and not is_external_write:
                pre.define(assign.target, value)
                folded[assign.target] = value
                continue
            computations.append(Computation(assign.target, expr))
            if state is not None:
                diffs[state] = expr
            if is_external_write:
                outputs.append(assign.target)
        # Diff right-hand sides live in ``diffs``; drop their Computation
        # duplicates (they are emitted by the integrator, not inline) —
        # unless another computation reads the diff_X name.
        read_names: Set[str] = set()
        for comp in computations:
            read_names.update(free_names(comp.expr))
        kept = [c for c in computations
                if diff_target(c.target) is None or c.target in read_names]
        return kept, folded, diffs, outputs

    # -- states / gates / methods ------------------------------------------------------------

    def _resolve_states(self, diffs: Dict[str, Expr],
                        init_values: Dict[str, float]) -> List[str]:
        declared_order = list(self.variables)
        states = sorted(diffs, key=lambda s: (
            declared_order.index(s) if s in declared_order else 10_000,
            s))
        for state in states:
            var = self.variables.get(state)
            if var is None:
                var = Variable(state, VarKind.STATE)
                self.variables[state] = var
            elif var.kind is VarKind.INTERMEDIATE:
                var.kind = VarKind.STATE
            elif var.kind is VarKind.EXTERNAL:
                raise self._error(
                    f"external variable {state} cannot also have diff_"
                    f"{state} (externals are advanced by the solver stage)")
            if state not in init_values:
                self.warnings.append(
                    f"state {state} has no {state}_init; defaulting to 0.0")
        return states

    def _detect_gates(self, states: Sequence[str],
                      computations: Sequence[Computation],
                      folded: Dict[str, float]) -> Dict[str, GateInfo]:
        defined = {c.target for c in computations} | set(folded)
        gates: Dict[str, GateInfo] = {}
        for state in states:
            (inf, tau), (alpha, beta) = gate_helper_names(state)
            if inf in defined and tau in defined:
                gates[state] = GateInfo("inf_tau", inf=inf, tau=tau)
            elif alpha in defined and beta in defined:
                gates[state] = GateInfo("alpha_beta", alpha=alpha, beta=beta)
        return gates

    def _resolve_methods(self, states: Sequence[str],
                         gates: Dict[str, GateInfo]) -> Dict[str, Method]:
        methods: Dict[str, Method] = {}
        for state in states:
            var = self.variables[state]
            if var.method is not None:
                methods[state] = var.method
            elif state in gates:
                # Rush–Larsen "is the preferred method for simulating
                # gates" (§3.3.2); openCARP applies it to detected gates.
                methods[state] = Method.RUSH_LARSEN
            else:
                methods[state] = Method.FE
        return methods

    def _validate_gate_methods(self, states: Sequence[str],
                               gates: Dict[str, GateInfo],
                               methods: Dict[str, Method]) -> None:
        for state in states:
            needs_gate = methods[state] in (Method.RUSH_LARSEN,
                                            Method.SUNDNES)
            if needs_gate and state not in gates:
                raise self._error(
                    f"{state} uses {methods[state].value} but has no "
                    f"{state}_inf/tau_{state} (or alpha/beta) definitions")

    # -- lookup tables ------------------------------------------------------------------------

    def _group_luts(self, computations: Sequence[Computation],
                    params: Dict[str, float],
                    folded: Dict[str, float]) -> List[LUTTable]:
        tables: List[LUTTable] = []
        constant_names = set(params) | set(folded)
        for name, var in self.variables.items():
            if var.lookup is None:
                continue
            table = LUTTable(name, var.lookup)
            column_names: Set[str] = set()
            for comp in computations:
                if diff_target(comp.target) is not None:
                    continue
                if comp.target in self.variables and \
                        self.variables[comp.target].kind is VarKind.EXTERNAL:
                    continue
                deps = free_names(comp.expr)
                allowed = {name} | constant_names | column_names
                if _calls_foreign(comp.expr, self.foreign):
                    continue  # opaque calls cannot be tabulated
                if deps <= allowed and _is_costly(comp.expr):
                    table.columns.append(comp)
                    column_names.add(comp.target)
            if table.columns:
                tables.append(table)
        return tables

    def _add_rl_decay_columns(self, tables: List[LUTTable],
                              gates: Dict[str, GateInfo],
                              methods: Dict[str, Method]) -> None:
        """Tabulate the Rush–Larsen update factors (openCARP does too).

        The per-step time step is fixed, so for a gate whose rates are
        LUT columns the whole RL update collapses to interpolated
        columns: ``x_inf`` and ``exp(-dt/tau)``.  The synthetic columns
        reference ``dt``, which the LUT builder resolves at tabulation
        time (tables are rebuilt when dt changes).
        """
        for state, gate in gates.items():
            if methods.get(state) is not Method.RUSH_LARSEN:
                continue
            needed = ((gate.inf, gate.tau) if gate.form == "inf_tau"
                      else (gate.alpha, gate.beta))
            for table in tables:
                names = set(table.column_names)
                if not set(needed) <= names:
                    continue
                if gate.form == "inf_tau":
                    decay = Call("exp", (Unary("-", Binary(
                        "/", Name("dt"), Name(gate.tau))),))
                else:
                    rate_sum = Binary("+", Name(gate.alpha),
                                      Name(gate.beta))
                    table.columns.append(Computation(
                        f"_rl_inf_{state}",
                        Binary("/", Name(gate.alpha), rate_sum)))
                    decay = Call("exp", (Unary("-", Binary(
                        "*", Name("dt"), rate_sum)),))
                table.columns.append(Computation(f"_rl_decay_{state}",
                                                 decay))
                break


def _calls_foreign(expr: Expr, foreign: Set[str]) -> bool:
    """True when any Call in ``expr`` targets a foreign function."""
    if not foreign:
        return False
    from ..easyml.ast_nodes import walk_expr
    return any(isinstance(node, Call) and node.callee in foreign
               for node in walk_expr(expr))


def _rename_expr(expr: Expr, renames: Dict[str, str]) -> Expr:
    """Rewrite Name leaves according to ``renames``."""
    if not renames:
        return expr
    if isinstance(expr, Name):
        return Name(renames.get(expr.identifier, expr.identifier))
    if isinstance(expr, Unary):
        return Unary(expr.op, _rename_expr(expr.operand, renames))
    if isinstance(expr, Binary):
        return Binary(expr.op, _rename_expr(expr.lhs, renames),
                      _rename_expr(expr.rhs, renames))
    if isinstance(expr, Call):
        return Call(expr.callee,
                    tuple(_rename_expr(a, renames) for a in expr.args))
    if isinstance(expr, Ternary):
        return Ternary(_rename_expr(expr.cond, renames),
                       _rename_expr(expr.then, renames),
                       _rename_expr(expr.otherwise, renames))
    return expr
