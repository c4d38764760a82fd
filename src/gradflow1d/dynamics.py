"""Time integration of u_t = Lap(u) + P(u) (+ optional forcing).

First-order IMEX stepping: backward Euler on the diffusion (one
symmetric-positive-definite tridiagonal solve per step), forward Euler on
the reaction.  Step control halves dt when the explicit increment
dt*sup|P(u)| exceeds its limit or the linear solve degrades (a failed
factorization counts as degraded), and doubles it back (up to dt_max)
after ten smooth steps.  Numerical failure modes land in the trajectory
status and its stop_reason, never in exceptions.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import exprlang, problem
from .functionals import action_parts_extended, energy_addend
from .grid import Field, extend, laplacian_extended, write_field_csv
from .nonlinearity import Nonlinearity, RangeOverflowError
from .tridiag import ImplicitDiffusionSolver

__all__ = [
    "StepControl",
    "StopRule",
    "DiagnosticSeries",
    "Trajectory",
    "run",
    "mms_verify",
    "MmsReport",
    "RUNNING",
    "CONVERGED",
    "BLOW_UP",
    "T_MAX_REACHED",
    "STOP_REASONS",
]

RUNNING = "running"
CONVERGED = "converged"
BLOW_UP = "blow_up"
T_MAX_REACHED = "t_max_reached"

# Why `run` stopped: the status itself for converged and t_max_reached, else
# the cause of blow_up.  nonfinite_state is a non-finite right-hand side or
# solution; nonfinite_reaction a non-finite P, Q or action part after a step;
# the two dt collapses are halvings below dt_min by the increment guard and
# by the solve check (a failed factorization included).
STOP_REASONS = (CONVERGED, T_MAX_REACHED, "initial_out_of_range",
                "increment_dt_collapse", "solve_dt_collapse", "nonfinite_state",
                "nonfinite_reaction", "sup_guard")

_SMOOTH_STEPS_BEFORE_DOUBLING = 10
_LINEAR_SOLVE_TOL = 1e-12
# share of increment_limit that the explicit increment dt*sup|P(u)| may use
_INCREMENT_SAFETY = 0.9


@dataclass(frozen=True)
class StepControl:
    dt_init: float = 1e-3
    dt_min: float = 1e-9
    dt_max: float = 1e-2
    sup_guard: float = 1e6
    increment_limit: float = 0.1

    def __post_init__(self):
        if not 0 < self.dt_min <= self.dt_init <= self.dt_max:
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not self.sup_guard > 0:
            raise ValueError("sup_guard > 0 required")
        if not self.increment_limit > 0:
            raise ValueError("increment_limit > 0 required")


@dataclass(frozen=True)
class StopRule:
    """Convergence is sup|Lap(u) + P(u)| < tol_eq."""

    tol_eq: float = 1e-8


class DiagnosticSeries:
    """Per-step record: t, dt, sup_norm, action, energy_cum, ut_sup."""

    COLUMNS = ("t", "dt", "sup_norm", "action", "energy_cum", "ut_sup")

    def __init__(self):
        self._rows = {c: [] for c in self.COLUMNS}

    def appenders(self) -> tuple:
        """One bound list `append` per column, in COLUMNS order."""
        return tuple(self._rows[c].append for c in self.COLUMNS)

    def __len__(self):
        return len(self._rows["t"])

    def __getattr__(self, name):
        if name in DiagnosticSeries.COLUMNS:
            return np.asarray(self._rows[name])
        raise AttributeError(name)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(",".join(self.COLUMNS) + "\n")
            for i in range(len(self)):
                f.write(",".join(f"{self._rows[c][i]:.17g}" for c in self.COLUMNS))
                f.write("\n")


@dataclass
class Trajectory:
    snapshots: list  # [(t, Field)] at the configured stride, plus first/last
    diagnostics: DiagnosticSeries
    status: str
    first_field: Field
    final_field: Field
    final_time: float
    steps: int
    escape_sign: int = 0  # sign of the extremum when status is blow_up
    stop_reason: str = ""  # see STOP_REASONS

    def summary_dict(self) -> dict:
        d = self.diagnostics
        out = {
            "status": self.status,
            "stop_reason": self.stop_reason,
            "final_time": self.final_time,
            "steps": self.steps,
            "final_sup_norm": float(d.sup_norm[-1]) if len(d) else None,
            "final_ut_sup": float(d.ut_sup[-1]) if len(d) else None,
            "final_action": float(d.action[-1]) if len(d) else None,
            "energy_cum": float(d.energy_cum[-1]) if len(d) else None,
        }
        if self.status == BLOW_UP:
            out["escape_sign"] = self.escape_sign
        return out

    def write_outputs(self, out_dir, summary: dict) -> None:
        """Write diagnostics.csv, the snapshots and `summary` as run_summary.json."""
        os.makedirs(out_dir, exist_ok=True)
        self.diagnostics.write_csv(os.path.join(out_dir, "diagnostics.csv"))
        for t, f in self.snapshots:
            write_field_csv(f, os.path.join(out_dir, f"snap_{t:.6f}.csv"))
        with open(os.path.join(out_dir, "run_summary.json"), "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


def run(
    spec: problem.ProblemSpec,
    u0: Field,
    ctrl: StepControl,
    t_max: float,
    stop: StopRule = StopRule(),
    *,
    forcing=None,
    snapshot_stride: int = 64,
    nl: Nonlinearity | None = None,
) -> Trajectory:
    """Advance from u0 until convergence, blow-up, or t_max.

    forcing, when given, is a callable t -> ndarray added to P(u); a value
    that does not broadcast to the grid raises ValueError.
    Identical inputs produce bit-identical trajectories.

    Every finite check tests a reduction the step takes anyway: max|rhs|
    (the solve residual's scale), max|x| (the sup_norm column), max|P(u)|
    (the next increment guard) and the potential sum (inside the action);
    max and sum propagate inf and nan.  P and Q are evaluated unchecked
    under one np.errstate for the whole run.
    """
    if not t_max > 0:
        raise ValueError("t_max > 0 required")
    if not snapshot_stride >= 1:
        raise ValueError("snapshot_stride >= 1 required")
    g = u0.grid
    if g != problem.make_grid(spec):
        raise ValueError("u0 grid does not match the problem spec")
    if nl is None:
        nl = Nonlinearity(spec, g)

    diag = DiagnosticSeries()
    add_t, add_dt, add_sup, add_action, add_energy, add_ut = diag.appenders()
    snaps = [(0.0, u0)]
    snap_step = 0  # steps taken when snaps[-1] was recorded
    u = u0.values
    t = 0.0
    dt = ctrl.dt_init
    energy = 0.0
    steps = 0
    smooth = 0
    reason = ""  # set by every exit of the loop
    limit = _INCREMENT_SAFETY * ctrl.increment_limit
    dt_min, dt_max, sup_guard = ctrl.dt_min, ctrl.dt_max, ctrl.sup_guard
    tol_eq = stop.tol_eq
    h, boundary = g.h, g.boundary
    reaction = nl.apply_P_unchecked
    absolute = np.abs
    solvers = {}  # dt -> factored solver

    with np.errstate(over="ignore", invalid="ignore"):
        p_now = reaction(u)
        p_sup = float(absolute(p_now).max())
        e = extend(u, boundary)
        try:
            a_now = action_parts_extended(nl, u, e)[0]
        except RangeOverflowError:
            p_sup = math.nan  # fails the check below, as a non-finite P does
        if not isfinite(p_sup):  # initial data already beyond polynomial range
            return Trajectory([(0.0, u0)], diag, BLOW_UP, u0, u0, 0.0, 0,
                              escape_sign=_extreme_sign(u),
                              stop_reason="initial_out_of_range")
        resid_now = laplacian_extended(e, g) + p_now
        ut_sup = float(absolute(resid_now).max())
        add_t(0.0)
        add_dt(0.0)
        add_sup(float(absolute(u).max()))
        add_action(a_now)
        add_energy(energy)
        add_ut(ut_sup)
        if ut_sup < tol_eq:
            reason = CONVERGED

        t_end = t_max - 1e-12 * max(1.0, t_max)
        while not reason:
            if t >= t_end:
                reason = T_MAX_REACHED
                break
            dt = min(dt, t_max - t)

            # explicit-increment guard; collapse of dt counts as blow-up evidence
            while dt * p_sup > limit:
                dt *= 0.5
                smooth = 0
                if dt < dt_min:
                    reason = "increment_dt_collapse"
                    break
            if reason:
                break

            rhs = u + dt * (p_now if forcing is None else p_now + forcing(t))
            rhs_sup = float(absolute(rhs).max())
            if not isfinite(rhs_sup):
                reason = "nonfinite_state"
                break
            solver = solvers.get(dt)
            if solver is None:
                try:
                    solver = solvers[dt] = ImplicitDiffusionSolver(g, float(dt))
                except np.linalg.LinAlgError:
                    pass  # not positive definite in floating point at this dt
            if solver is not None:
                x = solver.solve(rhs)
                e = extend(x, boundary)  # serves the Laplacian and the action
                lap_x = laplacian_extended(e, g)
            if (solver is None
                    or solver.relative_residual(x, rhs, lap_x, rhs_sup) > _LINEAR_SOLVE_TOL):
                # degraded solve or no factor at this dt: retry with half the step
                dt *= 0.5
                smooth = 0
                if dt < dt_min:
                    reason = "solve_dt_collapse"
                    break
                continue
            sup_u = float(absolute(x).max())
            if not isfinite(sup_u):
                reason = "nonfinite_state"
                break

            # windowed energy, accumulated every step regardless of stride
            energy += energy_addend(u, x, resid_now, dt, h)

            t += dt
            steps += 1
            u = x

            if sup_u > sup_guard:
                reason = "sup_guard"
                break

            p_now = reaction(u)
            p_sup = float(absolute(p_now).max())
            try:
                a_now = action_parts_extended(nl, u, e)[0]
            except RangeOverflowError:
                p_sup = math.nan  # fails the check below, as a non-finite P does
            if not isfinite(p_sup):
                reason = "nonfinite_reaction"
                break
            resid_now = lap_x + p_now
            ut_sup = float(absolute(resid_now).max())
            add_t(t)
            add_dt(dt)
            add_sup(sup_u)
            add_action(a_now)
            add_energy(energy)
            add_ut(ut_sup)
            if steps % snapshot_stride == 0:
                snaps.append((t, Field(g, u)))
                snap_step = steps

            if ut_sup < tol_eq:
                reason = CONVERGED
                break

            smooth += 1
            if smooth >= _SMOOTH_STEPS_BEFORE_DOUBLING:
                dt = min(dt * 2.0, dt_max)
                smooth = 0

    status = reason if reason in (CONVERGED, T_MAX_REACHED) else BLOW_UP
    final = snaps[-1][1] if snap_step == steps else Field(g, u)
    if snaps[-1][0] != t:
        snaps.append((t, final))
    return Trajectory(
        snapshots=snaps,
        diagnostics=diag,
        status=status,
        first_field=u0,
        final_field=final,
        final_time=t,
        steps=steps,
        escape_sign=_extreme_sign(u) if status == BLOW_UP else 0,
        stop_reason=reason,
    )


def _extreme_sign(v: np.ndarray) -> int:
    i = int(np.argmax(np.abs(v)))
    return int(np.sign(v[i])) if v[i] != 0 else 0


@dataclass
class MmsLevel:
    grid_points: int
    dt: float
    error: float


@dataclass
class MmsReport:
    levels: list
    orders: list
    converged: bool

    @property
    def observed_order(self) -> float:
        finite = [o for o in self.orders if math.isfinite(o)]
        return finite[-1] if finite else math.nan


_MMS_SPATIAL_FD_STEP = 1e-4  # second differences: balances truncation/roundoff
_MMS_TIME_FD_STEP = 1e-6


def mms_verify(
    spec: problem.ProblemSpec,
    manufactured: tuple,
    refinements: int,
    *,
    dt0: float,
    t_final: float,
) -> MmsReport:
    """Manufactured-solution ladder (h, dt) -> (h/2, dt/2).

    manufactured is a pair (expr_x, expr_t); the exact solution is their
    product X(x)*T(t).  The forcing g = u*_t - Lap(u*) - P(u*) is built
    from tiny-step finite differences of the sampled expressions, accurate
    far below the solver's own discretization error.  Errors are sup-norm
    at t_final; orders are log2 ratios of consecutive errors.
    """
    ex, et = manufactured
    if isinstance(ex, str):
        ex = exprlang.parse(ex)
    if isinstance(et, str):
        et = exprlang.parse(et)

    t_fun = exprlang.compile(et)

    def t_prime(t):
        e = _MMS_TIME_FD_STEP
        return (t_fun(t + e) - t_fun(t - e)) / (2 * e)

    levels = []
    converged = True
    for lev in range(refinements + 1):
        if spec.boundary == "periodic":
            m = spec.grid_points * 2**lev
        else:
            m = (spec.grid_points + 1) * 2**lev - 1  # halves h exactly
        dt = dt0 / 2**lev
        spec_l = spec.with_grid_points(m)
        g = problem.make_grid(spec_l)
        nl = Nonlinearity(spec_l, g)

        xs = g.nodes
        x_samples = exprlang.sample(ex, xs)
        e = _MMS_SPATIAL_FD_STEP
        x_plus = exprlang.sample(ex, xs + e)
        x_minus = exprlang.sample(ex, xs - e)
        x_second = (x_plus - 2.0 * x_samples + x_minus) / e**2

        def forcing(t, _x=x_samples, _xpp=x_second, _nl=nl):
            tt = t_fun(t)
            ustar = _x * tt
            return _x * t_prime(t) - _xpp * tt - _nl.apply_P_values(ustar)

        u0 = Field(g, x_samples * t_fun(0.0))
        ctrl = StepControl(dt_init=dt, dt_min=dt, dt_max=dt,
                           increment_limit=1e9, sup_guard=spec.sup_guard)
        traj = run(spec_l, u0, ctrl, t_max=t_final, stop=StopRule(tol_eq=0.0),
                   forcing=forcing, snapshot_stride=10**9, nl=nl)
        if traj.status != T_MAX_REACHED:
            converged = False
            levels.append(MmsLevel(m, dt, math.nan))
            continue
        exact = x_samples * t_fun(traj.final_time)
        err = float(np.max(np.abs(traj.final_field.values - exact)))
        levels.append(MmsLevel(m, dt, err))

    orders = []
    for a, b in zip(levels, levels[1:]):
        if math.isfinite(a.error) and math.isfinite(b.error) and a.error > 0 and b.error > 0:
            orders.append(math.log2(a.error / b.error))
        else:
            orders.append(math.nan)
    return MmsReport(levels=levels, orders=orders, converged=converged)
