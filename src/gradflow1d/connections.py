"""Connecting orbits between equilibria and their energy accounting.

Orbits are launched from a small perturbation of an equilibrium along its
leading eigendirection (the parabolic flow is ill-posed backward, so the
launch point is the orbit's backward limit by construction).  A finished
run is matched against the equilibrium catalog; connected reports satisfy
the energy/action-gap identity within tolerance and have a decaying tail
energy rate.  Runs whose windowed energy keeps growing linearly are the
operational stand-in for infinite-energy (travelling-front) behaviour.

An audit row, of a launch or a front, is one `ConnectionReport` whose
`passed` follows from its status; both kinds share one energy accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, equilibria, functionals
from .grid import Field
from .nonlinearity import Nonlinearity

__all__ = [
    "ConnectionReport",
    "GrowthDiagnostic",
    "LaunchSpec",
    "AuditTable",
    "launch_connection",
    "tail_energy_rate",
    "energy_growth_diagnostic",
    "connection_energy_audit",
]

CONNECTED = "connected"
UNDECIDED = "undecided"
GROWTH = "growth"
NO_DIRECTION = "no_direction"

DEFAULT_MATCH_TOL = 1e-4
DEFAULT_TAIL_TOL = 1e-8
TAIL_WINDOW_FRACTION = 0.1
GROWTH_MIN_ROWS = 100
GROWTH_FIT_MIN = 0.99  # a front row needs a linear-fit R^2 above this


@dataclass
class ConnectionReport:
    """One launch or front run: a row of an audit's connections.csv.

    status: connected | undecided | no_direction (launch), growth |
    converged | t_max_reached (front), blow_up (either).  A number that the
    row's kind does not have is NaN.
    """

    status: str
    from_index: int | None = None
    to_index: int | None = None
    total_energy: float = math.nan
    action_gap: float = math.nan
    identity_residual: float = math.nan
    tail_energy_rate: float = math.nan
    fit_quality: float = math.nan
    note: str = ""
    trajectory: dynamics.Trajectory | None = None

    @property
    def passed(self) -> bool | None:
        """None for a blow-up: excluded from the audit, not a global solution."""
        if self.status == dynamics.BLOW_UP:
            return None
        return self.status in (CONNECTED, GROWTH)


def _window_start(t: np.ndarray, fraction: float) -> int:
    """First row of the trailing fraction of t's span, at most len(t) - 2."""
    i = int(np.searchsorted(t, t[-1] - fraction * (t[-1] - t[0])))
    return min(i, len(t) - 2)


def tail_energy_rate(diag: dynamics.DiagnosticSeries, fraction: float) -> float:
    """Energy added per unit time over the trailing fraction of the run."""
    t = diag.t
    e = diag.energy_cum
    if len(t) < 2 or t[-1] <= t[0]:
        return 0.0
    i = _window_start(t, fraction)
    return float((e[-1] - e[i]) / (t[-1] - t[i]))


def _match_catalog(catalog, field: Field, match_tol: float):
    """Index of the closest catalog member within match_tol, else None."""
    best, best_d = equilibria.nearest(catalog, field)
    return (best if best_d < match_tol else None), best_d


def _run(u0: Field, ctrl: dynamics.StepControl, t_max: float, tol_eq: float,
         nl: Nonlinearity):
    """(trajectory, total energy, tail rate) of a run from u0; a run that
    stops before its first diagnostic row carries zero energy."""
    traj = dynamics.run(nl.spec, u0, ctrl, t_max, tol_eq, nl=nl)
    diag = traj.diagnostics
    total_energy = float(diag.energy_cum[-1]) if len(diag) else 0.0
    return traj, total_energy, tail_energy_rate(diag, TAIL_WINDOW_FRACTION)


def launch_connection(
    eq_from: equilibria.Equilibrium,
    direction: Field,
    amplitude: float,
    ctrl: dynamics.StepControl,
    t_max: float,
    *,
    catalog,
    nl: Nonlinearity,
    tol_eq: float,
    match_tol: float,
    tail_tol: float,
) -> ConnectionReport:
    """Run from eq_from + amplitude*direction and account for the energy."""
    u0 = Field(eq_from.field.grid, eq_from.field.values + amplitude * direction.values)
    traj, total_energy, tail = _run(u0, ctrl, t_max, tol_eq, nl)
    from_index, _ = _match_catalog(catalog, eq_from.field, match_tol)
    ident = functionals.identity_residual(traj, nl)

    to_index, action_gap = None, math.nan
    if traj.status == dynamics.BLOW_UP:
        status, note = dynamics.BLOW_UP, "blow-up before any limit formed"
    elif traj.status != dynamics.CONVERGED:
        status, note = UNDECIDED, "t_max reached before convergence"
    else:
        # polish the final state before matching it against the catalog
        try:
            final = equilibria.newton_refine(nl, traj.final_field).field
        except (equilibria.NewtonNoConvergenceError, equilibria.SingularJacobianError):
            final = traj.final_field
        to_index, dist = _match_catalog(catalog, final, match_tol)
        if to_index is None:
            status = UNDECIDED
            note = (f"converged but no catalog member within {match_tol:g} "
                    f"(closest {dist:.3g})")
        else:
            action_gap = catalog[to_index].action - eq_from.action
            dt_scale = float(np.max(traj.diagnostics.dt))  # converged: rows exist
            a_scale = max(1.0, abs(catalog[to_index].action), abs(eq_from.action))
            identity_tol = max(0.02 * max(abs(total_energy), abs(action_gap)),
                               10.0 * dt_scale * a_scale)
            if tail < tail_tol and abs(total_energy - action_gap) <= identity_tol:
                status, note = CONNECTED, ""
            else:
                status = UNDECIDED
                note = "matched but energy identity or tail rate out of tolerance"
    return ConnectionReport(
        status=status, from_index=from_index, to_index=to_index,
        total_energy=total_energy, action_gap=action_gap,
        identity_residual=ident, tail_energy_rate=tail, note=note,
        trajectory=traj)


@dataclass
class GrowthDiagnostic:
    rate: float
    fit_quality: float  # coefficient of determination of the linear fit


def energy_growth_diagnostic(traj: dynamics.Trajectory,
                             window_fraction: float = 0.5) -> GrowthDiagnostic:
    """Least-squares slope of cumulative energy vs t over the trailing window.

    A travelling front shows a positive rate with fit quality near 1; a
    connecting run shows the rate falling to zero.
    """
    diag = traj.diagnostics
    if len(diag) < GROWTH_MIN_ROWS:
        raise ValueError(
            f"trajectory has fewer than {GROWTH_MIN_ROWS} diagnostic rows")
    i = _window_start(diag.t, window_fraction)
    tw, ew = diag.t[i:], diag.energy_cum[i:]
    slope, intercept = np.polyfit(tw, ew, 1)
    fitted = slope * tw + intercept
    ss_res = float(np.sum((ew - fitted) ** 2))
    ss_tot = float(np.sum((ew - ew.mean()) ** 2))
    quality = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return GrowthDiagnostic(rate=float(slope), fit_quality=quality)


@dataclass
class LaunchSpec:
    """One entry of a connection audit plan.

    A launch (no u0) perturbs catalog member from_index (resolved from
    from_value, when set) along its leading eigendirection; expected to
    connect.  A front runs from u0 and expects linear energy growth with no
    catalog match (travelling-front behaviour).
    """

    from_index: int = 0
    from_value: float | None = None
    amplitude: float = 1e-3
    t_max: float = 50.0
    u0: Field | None = None  # set for a front


@dataclass
class AuditTable:
    rows: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)

    def write_csv(self, path) -> None:
        cols = ("launch_id", "status", "from", "to", "total_energy",
                "action_gap", "identity_residual", "tail_rate", "fit_quality")
        with open(path, "w") as f:
            f.write(",".join(cols) + "\n")
            for launch_id, r in enumerate(self.rows):
                ends = ("" if k is None else str(k) for k in (r.from_index, r.to_index))
                numbers = (f"{x:.17g}" for x in (
                    r.total_energy, r.action_gap, r.identity_residual,
                    r.tail_energy_rate, r.fit_quality))
                f.write(",".join((str(launch_id), r.status, *ends, *numbers)) + "\n")


def connection_energy_audit(
    nl: Nonlinearity,
    catalog,
    plan,
    ctrl: dynamics.StepControl,
    *,
    tol_eq: float,
    match_tol: float,
    tail_tol: float,
) -> AuditTable:
    """Run a batch of launches and audit the finite-energy dichotomy.

    Connected rows must carry finite energy with a small tail rate; front
    rows must show linear energy growth and no catalog match (a front run
    with fewer than GROWTH_MIN_ROWS diagnostic rows fails, with a NaN fit).
    A run of either kind that blows up, at step 0 included, is excluded from
    the audit (passed None) and keeps the status blow_up.  A launch from an
    equilibrium with no leading eigenpair fails with the status no_direction
    and no run; its note gives the reason.
    """
    rows = []
    for entry in plan:
        if entry.u0 is not None:
            traj, total, tail = _run(entry.u0, ctrl, entry.t_max, tol_eq, nl)
            if len(traj.diagnostics) < GROWTH_MIN_ROWS:
                # too short to fit a growth rate: reported, not passed
                growth = GrowthDiagnostic(rate=math.nan, fit_quality=math.nan)
            else:
                growth = energy_growth_diagnostic(traj)
            to_index, _ = _match_catalog(catalog, traj.final_field, match_tol)
            grows = (traj.status != dynamics.BLOW_UP and growth.rate > 0.0
                     and growth.fit_quality > GROWTH_FIT_MIN and to_index is None)
            rows.append(ConnectionReport(
                status=GROWTH if grows else traj.status, to_index=to_index,
                total_energy=total, tail_energy_rate=tail,
                fit_quality=growth.fit_quality, trajectory=traj))
            continue

        eq = catalog[entry.from_index]
        try:
            ud = equilibria.unstable_direction(nl, eq)
        except equilibria.PowerIterationError as e:
            rows.append(ConnectionReport(status=NO_DIRECTION,
                                         from_index=entry.from_index, note=str(e)))
            continue
        rows.append(launch_connection(
            eq, ud.direction, entry.amplitude, ctrl, entry.t_max,
            catalog=catalog, nl=nl, tol_eq=tol_eq, match_tol=match_tol,
            tail_tol=tail_tol))
    return AuditTable(rows=rows)
