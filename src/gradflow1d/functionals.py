"""Action functional, the per-step windowed energy, and their identity.

The action is implemented with a negative gradient term,

    A(u) = -(1/2) integral |grad u|^2 + integral Q(u, x),

Q the potential of P, so that its discrete gradient is exactly
laplacian(u) + P(u) and A is non-decreasing along the flow.

The windowed energy adds

    (1/2) dt [ integral ((u_after - u_before)/dt)^2
             + integral (laplacian(u_before) + P(u_before))^2 ]

per step; along a trajectory it telescopes against the action difference
up to the time-discretization error.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .grid import Field, dirichlet_energy_extended, extend
from .nonlinearity import Nonlinearity, RangeOverflowError

__all__ = [
    "action",
    "action_parts_extended",
    "energy_addend",
    "identity_residual",
]


def action(nl: Nonlinearity, u: Field) -> float:
    """The action A(u); raises RangeOverflowError when a part is non-finite."""
    v = u.values
    with np.errstate(over="ignore", invalid="ignore"):
        value, dir_part, pot_part = action_parts_extended(
            nl, v, extend(v, nl.grid.boundary), *np.empty((2, len(v))))
    if not (isfinite(dir_part) and isfinite(pot_part)):
        raise RangeOverflowError("non-finite action integrand")
    return float(value)


def action_parts_extended(nl: Nonlinearity, v: np.ndarray, e: np.ndarray,
                          out: np.ndarray, work: np.ndarray) -> tuple:
    """(value, dirichlet_part, potential_part) of the action at samples v,
    with e = grid.extend(v), for a caller that also takes the Laplacian of v;
    on a stack of fields (v = e[..., 1:-1]), one of each per row.  out and
    work are scratch arrays of v's shape for Q.

    Q is evaluated unchecked: the caller holds np.errstate(over="ignore",
    invalid="ignore") and tests the parts, since a non-finite Q shows in
    the potential sum.
    """
    g = nl.grid
    dir_part = dirichlet_energy_extended(e, g)
    q = nl.potential_unchecked(v, out, work)
    pot_part = g.h * np.add.reduce(q, axis=-1)  # grid.integrate's rule
    return -dir_part + pot_part, dir_part, pot_part


def energy_addend(u_before: np.ndarray, u_after: np.ndarray,
                  resid_before: np.ndarray, dt, h: float, out: np.ndarray):
    """One step's windowed energy, or one per row of a stack of steps with
    dt one value per row.

    resid_before is laplacian(u_before) + P(u_before); h is the grid
    spacing; out is scratch for the difference quotient.  The time stepper
    adds one per accepted step, taken for a block of steps at once.  Each
    row's sums of squares are `np.add.reduce` of its squares in out.
    """
    dt = np.asarray(dt)
    udot = np.subtract(u_after, u_before, out)
    np.divide(udot, dt[..., None], udot)
    kinetic = np.add.reduce(np.multiply(udot, udot, out), axis=-1)
    return 0.5 * dt * h * (kinetic + np.add.reduce(
        np.multiply(resid_before, resid_before, out), axis=-1))


def identity_residual(traj, nl: Nonlinearity) -> float:
    """|E_window - (A(end) - A(start))| over a recorded trajectory.

    Both differences are read off the energy_cum and action columns, so
    they span the same rows even when the end state has none (sup_guard and
    nonfinite_reaction stops).  Zero for an exact flow or no rows, strictly
    positive for non-solutions.  nl is unused; the benchmark passes it.
    """
    d = traj.diagnostics
    if len(d) == 0:
        return 0.0
    energy, act = d.energy_cum, d.action
    return abs((energy[-1] - energy[0]) - (act[-1] - act[0]))
