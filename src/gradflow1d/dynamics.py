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
residual guard: it is normwise backward stable at every dt.  Numerical
failure modes land in the trajectory status and stop_reason, never in
exceptions.

Diagnostics and the steps' own tests go by the block (see `run`): a step
takes P(u) and the solve into the next row of a block of K + 1 states,
K = min(128, 16384 // M); a flush per block checks that no step's test
would have fired, or retakes the block with every step tested, then takes
its rows' Laplacian, ut_sup, action, energy, snapshots and end tests, and
cuts the run back to an ending row, discarding up to K - 1 steps and their
forcing calls.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import accumulate, chain
from math import isfinite

import numpy as np

from . import problem
from .functionals import action_parts_extended, energy_addend
from .grid import (CSV_BLOCK_ROWS, Field, laplacian_extended, set_ghosts, sup_norm,
                   write_field_csv)
from .nonlinearity import Nonlinearity
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
# `run`'s block of states: K = min(_BLOCK_ROWS, _BLOCK_VALUES // M) rows
# (at least 1) beyond the carried one, about 128 KiB per array
_BLOCK_ROWS = 128
_BLOCK_VALUES = 16384
# what `run`'s flush returns when an untested block must be taken again
_RETAKE = object()


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

    def columns(self) -> tuple:
        """The column lists, in COLUMNS order; `run` appends to them and
        cuts them back."""
        return tuple(self._rows[c] for c in self.COLUMNS)

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

    A step does only what steers the next one: P(u), the factor and the
    right-hand side solved in place into the next row of a block of K + 1
    ghost-extended states, K = min(128, 16384 // M) (at least 1), with P
    kept per row; row 0 carries the last state of the block before.  It
    takes none of its own tests.  When the block fills, and when the loop
    ends, one flush takes max|P| and max|u| of each row (max is exact, so
    the sup_norm column has the bits a step would give it) and checks what
    the steps would have tested: P and every state finite, no state above
    sup_guard, and dt*max|P| within the increment guard's cap on every
    step.  A block that fails, or that a failed factorization ended, is
    retaken from its row 0 (t, dt, the smooth-step count and the columns as
    they were there) with every step tested as it goes: the increment guard
    on max|P(u)|, a non-finite P (nonfinite_reaction), a non-finite x
    (nonfinite_state: the solve carries a non-finite rhs into x, and max
    propagates inf and nan) and sup_guard.  The run then tests every step
    to its end, so a blow-up retakes one block; the steps before the first
    test that fires have the same bits either way.  forcing must be a pure
    function of t: a retake calls it again at the same times.  Then the
    flush takes the ghosts, Lap(u) + P(u) and ut_sup, the action's parts,
    the energy addends (summed in order as floats) and the stride
    snapshots of its rows, and finds the first row that ends the run: a
    non-finite action part (initial_out_of_range at step 0), else
    ut_sup < tol_eq.  The run is cut back to that row; the up to K - 1
    steps taken past it, and their forcing calls (all at t <= t_max), are
    discarded.  P and Q are evaluated unchecked under one np.errstate for
    the whole run.

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
    ts, dts, sups, actions, energies, uts = diag.columns()
    add_t, add_dt = ts.append, dts.append
    snaps = [(0.0, u0)]
    snap_step = 0  # steps taken when snaps[-1] was recorded
    m = g.m
    k = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // m))
    block = np.empty((k + 1, m + 2))  # ghost-extended states
    rows = list(block[:, 1:-1])  # their interiors
    tails = [r[1:] for r in rows]  # the views the periodic solve takes
    p_rows = np.empty((k + 1, m))  # P of each row's state
    ps = list(p_rows)  # its rows, as the steps take them
    # the flush's Lap + P of each row, Q (then udot) and scratch
    resids, q, scratch = np.empty((3, k + 1, m))
    work = np.empty(m)  # a step's scratch (|.|, leading terms)
    rows[0][:] = u0.values
    row = base = 0  # the current state is the (base + row)-th
    first = 0  # the first row without its diagnostics
    t = 0.0
    dt = ctrl.dt_init
    dt_taken = 0.0  # the dt column; the initial row has 0.0
    energy = 0.0
    smooth = 0
    mark = (dt, smooth)  # the step control as row 0 was reached, for a retake
    tested = False  # whether the steps take their own tests (after a retake)
    reason = ""  # set by every exit of the loop
    limit = _INCREMENT_SAFETY * ctrl.increment_limit
    dt_min, dt_max, sup_guard = ctrl.dt_min, ctrl.dt_max, ctrl.sup_guard
    h, boundary = g.h, g.boundary
    t_end = t_max - 1e-12 * max(1.0, t_max)
    reaction = nl.apply_P_unchecked
    absolute, add, multiply = np.absolute, np.add, np.multiply
    maximum = np.maximum.reduce
    solvers = {}  # dt -> factored solver

    def flush(last: int):
        """The diagnostics of rows first..last; returns the first of these
        rows that ends the run and why, None, or _RETAKE when the block was
        taken untested and a step's test would have fired in it."""
        nonlocal energy, snap_step
        n = last + 1
        e = block[:n]
        u_max = maximum(absolute(e[:, 1:-1], scratch[:n]), axis=-1)
        if not tested:
            # the tests of the steps 0 -> 1 .. last - 1 -> last, as a tested
            # step takes them: P finite, no state above sup_guard (nor
            # non-finite: row 0 is u0 or was checked before), the increment guard
            p_max = maximum(absolute(p_rows[:n], scratch[:n]), axis=-1)
            cap = limit * np.maximum(1.0, u_max[:-1] / _INCREMENT_SCALE_U)
            if reason == "solve_dt_collapse" or not (
                    np.isfinite(p_max).all() and (u_max[1:] <= sup_guard).all()
                    and (p_max[:-1] * dts[base + 1:base + n] <= cap).all()):
                return _RETAKE
        if n == first:
            return None
        fresh = set_ghosts(e[first:], boundary)  # row 0 is carried with its Lap + P
        resid = resids[:n]
        add(laplacian_extended(fresh, g, resid[first:]), p_rows[first:n], resid[first:])
        ut = maximum(absolute(resid[first:], scratch[first:n]), axis=-1)
        value, dir_part, pot_part = action_parts_extended(
            nl, fresh[:, 1:-1], fresh, q[first:n], scratch[first:n])
        lo = max(first, 1)  # the first row a step of this block reached
        addends = energy_addend(e[lo - 1:-1, 1:-1], e[lo:, 1:-1], resid[lo - 1:-1],
                                dts[base + lo:base + n], h, q[lo:n])
        cum = list(accumulate(addends.tolist(), initial=energy))[first - lo + 1:]
        energy = cum[-1]
        bad = ~(np.isfinite(dir_part) & np.isfinite(pot_part))
        ends = np.flatnonzero(bad | (ut < tol_eq))
        stop, keep = None, n - first
        if len(ends):
            s = int(ends[0])
            keep = s + (not bad[s])  # a converged row is kept
            stop = (first + s, CONVERGED if not bad[s] else
                    "nonfinite_reaction" if base + first + s else "initial_out_of_range")
        sups.extend(u_max[first:first + keep].tolist())
        actions.extend(value[:keep].tolist())
        energies.extend(cum[:keep])
        uts.extend(ut[:keep].tolist())
        for j in range(first, first + keep):
            if base + j and (base + j) % snapshot_stride == 0:
                snap_step = base + j
                snaps.append((ts[snap_step], Field(g, rows[j])))
        return stop

    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            u, p = rows[row], ps[row]
            if not reason:
                # the state after base + row accepted steps: P and its row
                reaction(u, p, work)
                if tested and not isfinite(p_sup := float(maximum(absolute(p, work)))):
                    # at step 0 the initial data is already beyond polynomial range
                    reason = "nonfinite_reaction" if base + row else "initial_out_of_range"
                else:
                    add_t(t)
                    add_dt(dt_taken)
                    if t >= t_end:
                        reason = T_MAX_REACHED
            if reason or row == k:  # the block ends: its diagnostics
                stop = flush(len(ts) - base - 1)
                if stop is _RETAKE:  # back to row 0, and every step tested from here
                    t, dt_taken = ts[base], dts[base]
                    del ts[base:], dts[base:]
                    dt, smooth = mark
                    row, reason, tested = 0, "", True
                    sup_u = float(maximum(absolute(rows[0], work)))  # for row 0's guard
                    continue
                if reason or stop:
                    break
                # carry the block's last state into row 0
                block[0], p_rows[0], resids[0] = block[k], p_rows[k], resids[k]
                base += k
                row, first = 0, 1
                u, p = rows[0], ps[0]
                mark = (dt, smooth)
            if base + row:
                smooth += 1
                if smooth >= _SMOOTH_STEPS_BEFORE_DOUBLING:
                    dt = min(dt * 2.0, dt_max)
                    smooth = 0
            dt = min(dt, t_max - t)

            if tested:
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
                    # not positive definite in floating point at this dt; an
                    # untested block ends at the first such failure and is retaken
                    dt *= 0.5
                    smooth = 0
                    solver = solvers.get(dt)
                    if dt < dt_min or not tested:
                        reason = "solve_dt_collapse"
            if reason:
                continue  # every exit of the loop goes through the flush

            # rhs = u + dt*(P(u) [+ forcing]), formed in the next row, solved in place
            x = rows[row + 1]
            if forcing is None:
                multiply(p, dt, x)
            else:
                multiply(add(p, forcing(t), x), dt, x)
            solver.solve_unchecked(add(u, x, x), tails[row + 1])
            if tested:
                sup_u = float(maximum(absolute(x, work)))
                if not isfinite(sup_u):  # a non-finite rhs gives a non-finite x
                    reason = "nonfinite_state"
                    continue
            t += dt
            dt_taken = dt
            row += 1
            if tested and sup_u > sup_guard:
                reason = "sup_guard"

    if stop:  # the run ends at an earlier row than the loop
        row, reason = stop
        t = ts[base + row]
        del ts[len(actions):], dts[len(actions):]
    steps = base + row
    u = rows[row]
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

