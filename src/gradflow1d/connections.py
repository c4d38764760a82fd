"""Connecting orbits between equilibria and their energy accounting.

Orbits are launched from a small perturbation of an equilibrium along its
leading eigendirection (the parabolic flow is ill-posed backward, so the
launch point is the orbit's backward limit by construction).  A finished
run is matched against the equilibrium catalog; connected reports satisfy
the energy/action-gap identity within tolerance and have a decaying tail
energy rate.  Runs whose windowed energy keeps growing linearly are the
operational stand-in for infinite-energy (travelling-front) behaviour.
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
    "AuditRow",
    "AuditTable",
    "launch_connection",
    "energy_growth_diagnostic",
    "connection_energy_audit",
]

CONNECTED = "connected"
UNDECIDED = "undecided"

DEFAULT_MATCH_TOL = 1e-4
DEFAULT_TAIL_TOL = 1e-8
TAIL_WINDOW_FRACTION = 0.1
GROWTH_MIN_ROWS = 100
GROWTH_FIT_MIN = 0.99  # a front row needs a linear-fit R^2 above this


@dataclass
class ConnectionReport:
    status: str  # connected | blow_up | undecided
    from_index: int | None
    to_index: int | None
    total_energy: float
    action_gap: float
    identity_residual: float
    tail_energy_rate: float
    note: str = ""
    trajectory: dynamics.Trajectory | None = None


def _tail_rate(diag: dynamics.DiagnosticSeries, fraction: float) -> float:
    """Energy added per unit time over the trailing fraction of the run."""
    t = diag.t
    e = diag.energy_cum
    if len(t) < 2 or t[-1] <= t[0]:
        return 0.0
    t_from = t[-1] - fraction * (t[-1] - t[0])
    i = int(np.searchsorted(t, t_from))
    i = min(max(i, 0), len(t) - 2)
    return float((e[-1] - e[i]) / (t[-1] - t[i]))


def _match_catalog(catalog, field: Field, match_tol: float):
    """Index of the closest catalog member within match_tol, else None."""
    best, best_d = None, math.inf
    for i, eq in enumerate(catalog):
        d = float(np.max(np.abs(eq.field.values - field.values)))
        if d < best_d:
            best, best_d = i, d
    if best is not None and best_d < match_tol:
        return best, best_d
    return None, best_d


def launch_connection(
    eq_from: equilibria.Equilibrium,
    direction: Field,
    amplitude: float,
    spec,
    ctrl: dynamics.StepControl,
    t_max: float,
    *,
    catalog,
    stop: dynamics.StopRule = dynamics.StopRule(),
    match_tol: float = DEFAULT_MATCH_TOL,
    tail_tol: float = DEFAULT_TAIL_TOL,
    nl: Nonlinearity | None = None,
) -> ConnectionReport:
    """Run from eq_from + amplitude*direction and account for the energy."""
    g = eq_from.field.grid
    if nl is None:
        nl = Nonlinearity(spec, g)
    u0 = Field(g, eq_from.field.values + amplitude * direction.values)
    traj = dynamics.run(spec, u0, ctrl, t_max, stop, nl=nl)
    total_energy = float(traj.diagnostics.energy_cum[-1]) if len(traj.diagnostics) else 0.0
    from_index, _ = _match_catalog(catalog, eq_from.field, match_tol)
    tail = _tail_rate(traj.diagnostics, TAIL_WINDOW_FRACTION)
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
            dt_scale = float(np.max(traj.diagnostics.dt)) if len(traj.diagnostics) else 0.0
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
    t = diag.t
    e = diag.energy_cum
    t_from = t[-1] - window_fraction * (t[-1] - t[0])
    i = int(np.searchsorted(t, t_from))
    i = min(max(i, 0), len(t) - 2)
    tw, ew = t[i:], e[i:]
    slope, intercept = np.polyfit(tw, ew, 1)
    fitted = slope * tw + intercept
    ss_res = float(np.sum((ew - fitted) ** 2))
    ss_tot = float(np.sum((ew - ew.mean()) ** 2))
    quality = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return GrowthDiagnostic(rate=float(slope), fit_quality=quality)


@dataclass
class LaunchSpec:
    """One entry of a connection audit plan.

    kind "launch": perturb catalog member from_index along its leading
    eigendirection with the given amplitude; expected to connect.
    kind "front": run from initial_condition and expect linear energy
    growth with no catalog match (travelling-front behaviour).
    """

    kind: str = "launch"  # launch | front
    from_index: int = 0
    amplitude: float = 1e-3
    t_max: float = 50.0
    initial_condition: str = ""
    seed: int = 0


@dataclass
class AuditRow:
    launch_id: int
    status: str
    from_index: int | None
    to_index: int | None
    total_energy: float
    action_gap: float
    identity_residual: float
    tail_rate: float
    fit_quality: float
    passed: bool | None  # None: excluded from the audit (blow-up)


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
            for r in self.rows:
                cells = [
                    str(r.launch_id),
                    r.status,
                    "" if r.from_index is None else str(r.from_index),
                    "" if r.to_index is None else str(r.to_index),
                    f"{r.total_energy:.17g}",
                    f"{r.action_gap:.17g}",
                    f"{r.identity_residual:.17g}",
                    f"{r.tail_rate:.17g}",
                    f"{r.fit_quality:.17g}",
                ]
                f.write(",".join(cells) + "\n")


def connection_energy_audit(
    spec,
    catalog,
    plan,
    ctrl: dynamics.StepControl,
    *,
    stop: dynamics.StopRule = dynamics.StopRule(),
    match_tol: float = DEFAULT_MATCH_TOL,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> AuditTable:
    """Run a batch of launches and audit the finite-energy dichotomy.

    Connected rows must carry finite energy with a small tail rate; front
    rows must show linear energy growth and no catalog match (a front run
    with fewer than GROWTH_MIN_ROWS diagnostic rows fails, with a NaN rate
    and fit).  A run of either kind that blows up is excluded from the audit
    (passed None) and keeps the status blow_up.  A launch from an equilibrium
    with no leading eigenpair fails with the status no_direction and no run.
    """
    from . import problem as problem_mod

    g = problem_mod.make_grid(spec)
    nl = Nonlinearity(spec, g)
    rows = []
    for i, entry in enumerate(plan):
        if entry.kind == "front":
            u0 = Field.from_expr(g, entry.initial_condition)
            traj = dynamics.run(spec, u0, ctrl, entry.t_max, stop, nl=nl)
            total = float(traj.diagnostics.energy_cum[-1])
            tail = _tail_rate(traj.diagnostics, TAIL_WINDOW_FRACTION)
            if len(traj.diagnostics) < GROWTH_MIN_ROWS:
                # too short to fit a growth rate: reported, not passed
                growth = GrowthDiagnostic(rate=math.nan, fit_quality=math.nan)
            else:
                growth = energy_growth_diagnostic(traj)
            to_index, _ = _match_catalog(catalog, traj.final_field, match_tol)
            if traj.status == dynamics.BLOW_UP:
                passed = None  # outside the audit: not a global solution
            else:
                passed = (growth.rate > 0.0 and growth.fit_quality > GROWTH_FIT_MIN
                          and to_index is None)
            rows.append(AuditRow(
                launch_id=i, status="growth" if passed else traj.status,
                from_index=None, to_index=to_index, total_energy=total,
                action_gap=math.nan, identity_residual=math.nan,
                tail_rate=tail, fit_quality=growth.fit_quality, passed=passed))
            continue

        eq = catalog[entry.from_index]
        try:
            ud = equilibria.unstable_direction(nl, eq, seed=entry.seed)
        except equilibria.PowerIterationError:
            rows.append(AuditRow(
                launch_id=i, status="no_direction", from_index=entry.from_index,
                to_index=None, total_energy=math.nan, action_gap=math.nan,
                identity_residual=math.nan, tail_rate=math.nan,
                fit_quality=math.nan, passed=False))
            continue
        report = launch_connection(
            eq, ud.direction, entry.amplitude, spec, ctrl, entry.t_max,
            catalog=catalog, stop=stop, match_tol=match_tol,
            tail_tol=tail_tol, nl=nl)
        if report.status == dynamics.BLOW_UP:
            passed = None  # outside the audit: not a global solution
        else:
            passed = report.status == CONNECTED
        rows.append(AuditRow(
            launch_id=i, status=report.status,
            from_index=report.from_index, to_index=report.to_index,
            total_energy=report.total_energy, action_gap=report.action_gap,
            identity_residual=report.identity_residual,
            tail_rate=report.tail_energy_rate,
            fit_quality=math.nan, passed=passed))
    return AuditTable(rows=rows)
