"""IR emission for the six integration methods (paper §3.3.2).

Each method advances one state variable by ``dt`` given the model's
``diff_`` expression.  Multi-stage methods (rk2, rk4, sundnes,
markov_be) re-evaluate the derivative at intermediate state values by
re-emitting the state-dependent slice of the computation plan with the
state name rebound — exactly what openCARP's generated C does in
Listing 2 (lines 20–26) for the rk2 update of ``u1``.

All emissions are width-agnostic: they produce scalar IR in the
baseline backend and ``vector<Wxf64>`` IR in limpetMLIR, which is how
the paper implements the methods "directly in MLIR".
"""

from __future__ import annotations

from typing import Dict, Optional

from ..easyml.ast_nodes import Expr
from ..frontend.model import GateInfo, IonicModel
from ..frontend.symbols import Method
from ..ir.builder import IRBuilder
from ..ir.core import Value
from ..ir.dialects import arith, math as math_dialect, scf
from ..ir.types import index
from .common import ExprEmitter


class IntegratorEmitter:
    """Emits the state-update IR for every integration method."""

    #: fixed-point refinement sweeps for the implicit markov_be method
    MARKOV_BE_ITERATIONS = 4

    def __init__(self, builder: IRBuilder, model: IonicModel,
                 env: Dict[str, Value], width: int, dt: Value):
        self.b = builder
        self.model = model
        self.env = env
        self.width = width
        self.dt = dt

    # -- entry -------------------------------------------------------------------

    def emit_update(self, state: str) -> Value:
        """Return the new value of ``state`` after one ``dt`` step."""
        method = self.model.methods[state]
        x = self.env[state]
        handlers = {
            Method.FE: self._emit_fe,
            Method.RK2: self._emit_rk2,
            Method.RK4: self._emit_rk4,
            Method.RUSH_LARSEN: self._emit_rush_larsen,
            Method.SUNDNES: self._emit_sundnes,
            Method.MARKOV_BE: self._emit_markov_be,
        }
        return handlers[method](state, x)

    # -- derivative evaluation ------------------------------------------------------

    def _emitter(self, env: Dict[str, Value]) -> ExprEmitter:
        return ExprEmitter(self.b, env, self.width,
                           foreign=self.model.foreign_functions)

    def _diff(self, state: str, x: Optional[Value] = None) -> Value:
        """Evaluate diff_state, optionally at a substituted state value.

        With ``x is None`` the precomputed derivative (if the plan
        already carries it) is reused; otherwise the state-dependent
        computations are re-emitted against the substituted value.
        """
        if x is None:
            cached = self.env.get(f"diff_{state}")
            if cached is not None:
                return cached
            return self._emitter(self.env).emit(self.model.diffs[state])
        stage_env = dict(self.env)
        stage_env[state] = x
        emitter = self._emitter(stage_env)
        for comp in self.model.stage_computations(state):
            stage_env[comp.target] = emitter.emit(comp.expr)
        return emitter.emit(self.model.diffs[state])

    def _gate_rates(self, state: str,
                    env: Dict[str, Value]) -> tuple[Value, Value]:
        """(x_inf, tau) for a gate, derived from alpha/beta if needed."""
        gate: GateInfo = self.model.gates[state]
        if gate.form == "inf_tau":
            return env[gate.inf], env[gate.tau]
        alpha, beta = env[gate.alpha], env[gate.beta]
        rate_sum = arith.addf(self.b, alpha, beta)
        inf = arith.divf(self.b, alpha, rate_sum)
        tau = arith.divf(self.b, self._const(1.0), rate_sum)
        return inf, tau

    def _const(self, value: float) -> Value:
        return self._emitter(self.env)._const(value)

    # -- explicit methods -----------------------------------------------------------

    def _emit_fe(self, state: str, x: Value) -> Value:
        """Forward Euler: x + dt * f(x)."""
        k1 = self._diff(state)
        return arith.addf(self.b, x, arith.mulf(self.b, self.dt, k1))

    def _emit_rk2(self, state: str, x: Value) -> Value:
        """Midpoint RK2: x + dt * f(x + dt/2 * f(x))  (Listing 2)."""
        k1 = self._diff(state)
        half_dt = arith.mulf(self.b, self.dt, self._const(0.5))
        x_mid = arith.addf(self.b, x, arith.mulf(self.b, half_dt, k1))
        k2 = self._diff(state, x_mid)
        return arith.addf(self.b, x, arith.mulf(self.b, self.dt, k2))

    def _emit_rk4(self, state: str, x: Value) -> Value:
        """Classic RK4: x + dt/6 * (k1 + 2 k2 + 2 k3 + k4)."""
        half_dt = arith.mulf(self.b, self.dt, self._const(0.5))
        k1 = self._diff(state)
        x2 = arith.addf(self.b, x, arith.mulf(self.b, half_dt, k1))
        k2 = self._diff(state, x2)
        x3 = arith.addf(self.b, x, arith.mulf(self.b, half_dt, k2))
        k3 = self._diff(state, x3)
        x4 = arith.addf(self.b, x, arith.mulf(self.b, self.dt, k3))
        k4 = self._diff(state, x4)
        two = self._const(2.0)
        total = arith.addf(self.b, k1, arith.mulf(self.b, two, k2))
        total = arith.addf(self.b, total, arith.mulf(self.b, two, k3))
        total = arith.addf(self.b, total, k4)
        sixth = arith.divf(self.b, self.dt, self._const(6.0))
        return arith.addf(self.b, x, arith.mulf(self.b, sixth, total))

    # -- gate methods ------------------------------------------------------------------

    def _emit_rush_larsen(self, state: str, x: Value) -> Value:
        """Rush–Larsen: x_inf + (x - x_inf) * exp(-dt / tau).

        Exact for the locally linearized gate equation; unconditionally
        stable, which is why it is "the preferred method for simulating
        gates" (§3.3.2).  When the gate's rates are tabulated, the
        precomputed ``_rl_inf``/``_rl_decay`` LUT columns replace the
        runtime exponential (the time step is fixed per run, so
        openCARP tabulates the whole update factor).
        """
        decay = self.env.get(f"_rl_decay_{state}")
        if decay is not None:
            gate = self.model.gates[state]
            inf = (self.env[gate.inf] if gate.form == "inf_tau"
                   else self.env[f"_rl_inf_{state}"])
        else:
            inf, tau = self._gate_rates(state, self.env)
            decay = math_dialect.exp(
                self.b,
                arith.negf(self.b, arith.divf(self.b, self.dt, tau)))
        delta = arith.subf(self.b, x, inf)
        return arith.addf(self.b, inf, arith.mulf(self.b, delta, decay))

    def _emit_sundnes(self, state: str, x: Value) -> Value:
        """Sundnes et al.: second-order Rush–Larsen (SRL).

        A half RL step produces x*, the rates are re-evaluated at x*
        (for rates that depend on the gate itself; voltage-only rates
        are unchanged) and a full RL step is taken with the midpoint
        rates — the second-order extension of RL the paper lists.
        """
        inf, tau = self._gate_rates(state, self.env)
        half_dt = arith.mulf(self.b, self.dt, self._const(0.5))
        decay_half = math_dialect.exp(
            self.b, arith.negf(self.b, arith.divf(self.b, half_dt, tau)))
        delta = arith.subf(self.b, x, inf)
        x_half = arith.addf(self.b, inf,
                            arith.mulf(self.b, delta, decay_half))
        stage_env = dict(self.env)
        stage_env[state] = x_half
        emitter = self._emitter(stage_env)
        for comp in self.model.stage_computations(state):
            stage_env[comp.target] = emitter.emit(comp.expr)
        inf_mid, tau_mid = self._gate_rates(state, stage_env)
        decay = math_dialect.exp(
            self.b, arith.negf(self.b, arith.divf(self.b, self.dt, tau_mid)))
        delta_mid = arith.subf(self.b, x, inf_mid)
        return arith.addf(self.b, inf_mid,
                          arith.mulf(self.b, delta_mid, decay))

    # -- implicit method -----------------------------------------------------------------

    def _emit_markov_be(self, state: str, x: Value) -> Value:
        """Backward Euler with fixed-point refinement, clamped to [0, 1].

        Solves x' = x + dt * f(x') by iterating y <- x + dt * f(y); the
        refinement keeps Markov-state occupancies "as precise as
        possible" and the clamp enforces the [0, 1] requirement (§3.3.2).
        """
        k1 = self._diff(state)
        y0 = arith.addf(self.b, x, arith.mulf(self.b, self.dt, k1))
        zero = self.b.constant(0, index)
        upper = self.b.constant(self.MARKOV_BE_ITERATIONS - 1, index)
        one = self.b.constant(1, index)
        loop = scf.for_op(self.b, zero, upper, one, [y0], iv_hint="be_iter")
        with self.b.at_end_of(loop.body):
            y = loop.iter_args[0]
            fy = self._diff(state, y)
            y_next = arith.addf(self.b, x,
                                arith.mulf(self.b, self.dt, fy))
            scf.yield_op(self.b, [y_next])
        refined = loop.results[0]
        clamped = arith.maximumf(self.b, refined, self._const(0.0))
        return arith.minimumf(self.b, clamped, self._const(1.0))


def emit_state_updates(builder: IRBuilder, model: IonicModel,
                       env: Dict[str, Value], width: int,
                       dt: Value) -> Dict[str, Value]:
    """Emit updates for every state; returns state -> new value.

    All new values are computed before any store so that states reading
    each other observe a consistent time level (the generated C in
    Listing 2 does the same: ``u1_new``/``u2_new``/``u3_new`` are
    assigned before the final struct writes).
    """
    integrator = IntegratorEmitter(builder, model, env, width, dt)
    return {state: integrator.emit_update(state) for state in model.states}
