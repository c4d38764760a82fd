"""Time integration of u_t = Lap(u) + P(u) (+ optional forcing).

First-order IMEX stepping: backward Euler on the diffusion (one
symmetric-positive-definite tridiagonal solve per step), forward Euler on
the reaction.  Step control halves dt when the explicit increment
dt*sup|P(u)| exceeds its limit or I - dt*Lap_h is not positive definite
in floating point (its factor raises LinAlgError), and doubles it back (up to dt_max) after
ten smooth steps.  The increment limit is 0.9*increment_limit*max(1,
sup|u|/18): the absolute limit while sup|u| <= 18, above it a cap of
0.9*increment_limit/18 (0.005 by default) on the relative growth per step,
so a blow-up reaches sup_guard or dt_min in a few thousand steps.  The
forward-Euler defect per step is about (N-1)/2 times the relative growth:
for u' = -u^2 from -1 (the shipped blow-up config, 3260 steps) the energy
identity misses the action gain by 0.40% of the energy.  The solve has no
residual guard: it is normwise backward stable at every dt.  Its error is
not uniform across closures: (I - dt*Lap_h) x = 1 at M = 16 misses x = 1
by 7.8e-11 at mu = dt/h^2 = 1e12 and 7.7e-14 at mu = 1e15 on neumann0, but
the periodic wrap's rank-one correction loses accuracy as mu*eps grows,
1.3e-5 and 5.8e-2 there.  Numerical failure modes land in the trajectory
status and stop_reason, never in exceptions.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from math import isfinite

import numpy as np

from . import problem
from .functionals import action_parts_extended, energy_addend
from .grid import (CSV_BLOCK_ROWS, Field, laplacian_extended, set_ghosts, sup_norm,
                   write_field_csv)
from .nonlinearity import Nonlinearity, RangeOverflowError
from .tridiag import ImplicitDiffusionSolver

__all__ = [
    "StepControl",
    "DEFAULT_TOL_EQ",
    "DiagnosticSeries",
    "Trajectory",
    "run",
    "CONVERGED",
    "BLOW_UP",
    "T_MAX_REACHED",
    "STOP_REASONS",
]

CONVERGED = "converged"
BLOW_UP = "blow_up"
T_MAX_REACHED = "t_max_reached"

# Why `run` stopped: the status itself for converged and t_max_reached, else
# the cause of blow_up.  nonfinite_state is a non-finite solution (as a
# non-finite right-hand side gives); nonfinite_reaction a non-finite P, Q or
# action part after a step; the two dt collapses are halvings below dt_min by
# the increment guard and by failed factorizations, the only solve failure.
STOP_REASONS = (CONVERGED, T_MAX_REACHED, "initial_out_of_range",
                "increment_dt_collapse", "solve_dt_collapse", "nonfinite_state",
                "nonfinite_reaction", "sup_guard")

# `run` converges once sup|Lap(u) + P(u)| < tol_eq
DEFAULT_TOL_EQ = 1e-8

_SMOOTH_STEPS_BEFORE_DOUBLING = 10
# the increment guard: dt*sup|P(u)| <= _INCREMENT_SAFETY*increment_limit
# *max(1, sup|u|/U) with U = _INCREMENT_SCALE_U (see the module docstring).
# U = 9 brought the M=16 N=4 blow-up of bench's ensemble_small to 0.72 of
# its energy-identity bound and broke that bound on 27 of 300 random
# blow-ups at M 8-32; U = 18 keeps them at 0.36 and 0.62 at most
_INCREMENT_SAFETY = 0.9
_INCREMENT_SCALE_U = 18.0


@dataclass(frozen=True)
class StepControl:
    dt_init: float = 1e-3
    dt_min: float = 1e-9
    dt_max: float = 1e-2
    sup_guard: float = 1e6
    increment_limit: float = 0.1

    def __post_init__(self):
        if not all(map(isfinite, (self.dt_init, self.dt_min, self.dt_max,
                                  self.sup_guard, self.increment_limit))):
            raise ValueError("step control values must be finite")
        if not 0 < self.dt_min <= self.dt_init <= self.dt_max:
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not (self.sup_guard > 0 and self.increment_limit > 0):
            raise ValueError("sup_guard > 0 and increment_limit > 0 required")


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
        """One row per record, each value as `%.17g` (for a Python float the
        bytes of f"{value:.17g}"), a block of CSV_BLOCK_ROWS rows per `%`."""
        columns = [self._rows[c] for c in self.COLUMNS]
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        with open(path, "w") as f:
            f.write(",".join(self.COLUMNS) + "\n")
            for start in range(0, len(self), CSV_BLOCK_ROWS):
                block = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
                f.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


@dataclass
class Trajectory:
    snapshots: list  # [(t, Field)]: u0, every snapshot_stride steps, the end state
    diagnostics: DiagnosticSeries
    steps: int
    stop_reason: str  # see STOP_REASONS
    escape_sign: int = 0  # sign of the extremum when status is blow_up

    @property
    def status(self) -> str:
        return self.stop_reason if self.stop_reason in (CONVERGED, T_MAX_REACHED) else BLOW_UP

    @property
    def final_field(self) -> Field:
        return self.snapshots[-1][1]

    @property
    def final_time(self) -> float:
        return self.snapshots[-1][0]

    def summary_dict(self) -> dict:
        d = self.diagnostics
        out = {
            "status": self.status,
            "stop_reason": self.stop_reason,
            "final_time": self.final_time,
            "steps": self.steps,
            # the end state's, where the last row may be one step earlier
            "final_sup_norm": sup_norm(self.final_field),
            "final_ut_sup": float(d.ut_sup[-1]) if len(d) else None,
            "final_action": float(d.action[-1]) if len(d) else None,
            "energy_cum": float(d.energy_cum[-1]) if len(d) else None,
        }
        if self.status == BLOW_UP:
            out["escape_sign"] = self.escape_sign
        return out

    def write_outputs(self, out_dir, summary: dict) -> None:
        """Write diagnostics.csv, the snapshots and `summary` as run_summary.json.

        Snapshot k is snap_<t>.csv with t to six decimals; when an earlier
        snapshot has that name already (times less than 1e-6 apart), it is
        snap_<t>_<k>.csv, so every snapshot has its own file.
        """
        os.makedirs(out_dir, exist_ok=True)
        self.diagnostics.write_csv(os.path.join(out_dir, "diagnostics.csv"))
        names = set()
        for k, (t, f) in enumerate(self.snapshots):
            name = f"snap_{t:.6f}.csv"
            if name in names:
                name = f"snap_{t:.6f}_{k}.csv"
            names.add(name)
            write_field_csv(f, os.path.join(out_dir, name))
        with open(os.path.join(out_dir, "run_summary.json"), "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


def run(
    spec: problem.ProblemSpec,
    u0: Field,
    ctrl: StepControl,
    t_max: float,
    tol_eq: float = DEFAULT_TOL_EQ,
    *,
    nl: Nonlinearity,
    forcing=None,
    snapshot_stride: int = 64,
) -> Trajectory:
    """Advance from u0 until convergence (sup|Lap(u) + P(u)| < tol_eq),
    blow-up, or t_max.

    nl is the reaction of spec on u0's grid, which the caller builds once;
    one built for another spec or grid raises ValueError.  forcing, when
    given, is a callable t -> ndarray added to P(u); a value that does not
    broadcast to the grid raises ValueError.
    Identical inputs produce bit-identical trajectories.

    Every finite check tests a reduction the step takes anyway: max|x| (the
    sup_norm column; the solve carries a non-finite rhs into x), max|P(u)|
    (the next increment guard) and the potential sum (inside the action);
    max and sum propagate inf and nan.  P and Q are evaluated unchecked
    under one np.errstate for the whole run.

    The arrays of a step are allocated once per run.  u and the next state
    x live in the interiors of two ghost-extended buffers that take turns:
    the right-hand side is formed in x's buffer and solved in place, so
    extending x sets two ghosts, and u stays intact for the energy addend.
    Snapshots are copies; the end state is appended unless the last
    snapshot was taken at the last step.
    """
    if not t_max > 0:
        raise ValueError("t_max > 0 required")
    if not snapshot_stride >= 1:
        raise ValueError("snapshot_stride >= 1 required")
    g = u0.grid
    if nl.spec != spec or nl.grid != g:
        raise ValueError("the reaction is not the problem spec's on u0's grid")

    diag = DiagnosticSeries()
    add_t, add_dt, add_sup, add_action, add_energy, add_ut = diag.appenders()
    snaps = [(0.0, u0)]
    snap_step = 0  # steps taken when snaps[-1] was recorded
    m = g.m
    e, e_next = np.empty((2, m + 2))  # ghost-extended u and x
    u, x = e[1:-1], e_next[1:-1]
    u[:] = u0.values
    # P(u), Lap(u), their sum, Q(u) and scratch (leading terms, |.|, udot)
    p_now, lap_u, resid_now, q, work = np.empty((5, m))
    t = 0.0
    dt = ctrl.dt_init
    dt_taken = 0.0  # the dt column; the initial row has 0.0
    energy = 0.0
    steps = 0
    smooth = 0
    reason = ""  # set by every exit of the loop
    limit = _INCREMENT_SAFETY * ctrl.increment_limit
    dt_min, dt_max, sup_guard = ctrl.dt_min, ctrl.dt_max, ctrl.sup_guard
    h, boundary = g.h, g.boundary
    t_end = t_max - 1e-12 * max(1.0, t_max)
    reaction = nl.apply_P_unchecked
    absolute, add, multiply = np.absolute, np.add, np.multiply
    maximum = np.maximum.reduce
    solvers = {}  # dt -> factored solver

    with np.errstate(over="ignore", invalid="ignore"):
        set_ghosts(e, boundary)  # e serves the Laplacian and the action
        laplacian_extended(e, g, lap_u)
        sup_u = float(maximum(absolute(u, work)))
        while True:
            # the state after `steps` accepted steps: P, the action, its row
            reaction(u, p_now, work)
            p_sup = float(maximum(absolute(p_now, work)))
            try:
                a_now = action_parts_extended(nl, u, e, q, work)[0]
            except RangeOverflowError:
                p_sup = math.nan  # fails the check below, as a non-finite P does
            if not isfinite(p_sup):
                # at step 0 the initial data is already beyond polynomial range
                reason = "nonfinite_reaction" if steps else "initial_out_of_range"
                break
            add(lap_u, p_now, resid_now)
            ut_sup = float(maximum(absolute(resid_now, work)))
            add_t(t)
            add_dt(dt_taken)
            add_sup(sup_u)
            add_action(a_now)
            add_energy(energy)
            add_ut(ut_sup)
            if steps:
                if steps % snapshot_stride == 0:
                    snaps.append((t, Field(g, u)))
                    snap_step = steps
                smooth += 1
                if smooth >= _SMOOTH_STEPS_BEFORE_DOUBLING:
                    dt = min(dt * 2.0, dt_max)
                    smooth = 0
            if ut_sup < tol_eq:
                reason = CONVERGED
                break
            if t >= t_end:
                reason = T_MAX_REACHED
                break
            dt = min(dt, t_max - t)

            # explicit-increment guard, scaled to the state above
            # _INCREMENT_SCALE_U; collapse of dt counts as blow-up evidence
            cap = limit * max(1.0, sup_u / _INCREMENT_SCALE_U)
            while dt * p_sup > cap:
                dt *= 0.5
                smooth = 0
                if dt < dt_min:
                    reason = "increment_dt_collapse"
                    break
            solver = solvers.get(dt)
            while solver is None and not reason:
                try:
                    solver = solvers[dt] = ImplicitDiffusionSolver(g, float(dt), 1.0)
                except np.linalg.LinAlgError:
                    # not positive definite in floating point at this dt
                    dt *= 0.5
                    smooth = 0
                    solver = solvers.get(dt)
                    if dt < dt_min:
                        reason = "solve_dt_collapse"
            if reason:
                break

            # rhs = u + dt*(P(u) [+ forcing]), formed in x and solved in place
            if forcing is None:
                multiply(p_now, dt, x)
            else:
                multiply(add(p_now, forcing(t), x), dt, x)
            solver.solve(add(u, x, x))
            sup_u = float(maximum(absolute(x, work)))
            if not isfinite(sup_u):  # a non-finite rhs gives a non-finite x
                reason = "nonfinite_state"
                break
            set_ghosts(e_next, boundary)
            laplacian_extended(e_next, g, lap_u)
            # windowed energy, accumulated every step regardless of stride
            energy += energy_addend(u, x, resid_now, dt, h, work)
            t += dt
            dt_taken = dt
            steps += 1
            e, u, e_next, x = e_next, x, e, u
            if sup_u > sup_guard:
                reason = "sup_guard"
                break

    if snap_step != steps:
        snaps.append((t, Field(g, u)))  # the end state
    traj = Trajectory(snapshots=snaps, diagnostics=diag, steps=steps,
                      stop_reason=reason)
    if traj.status == BLOW_UP:
        traj.escape_sign = _extreme_sign(u)
    return traj


def _extreme_sign(v: np.ndarray) -> int:
    i = int(np.argmax(np.abs(v)))
    return int(np.sign(v[i])) if v[i] != 0 else 0

