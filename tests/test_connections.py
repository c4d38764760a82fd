from types import SimpleNamespace

import numpy as np
import pytest

from gradflow1d import connections, dynamics, equilibria, problem, verify
from gradflow1d.connections import (
    CONNECTED,
    ConnectionReport,
    LaunchSpec,
    connection_energy_audit,
    energy_growth_diagnostic,
    launch_connection,
)
from gradflow1d.grid import Field
from gradflow1d.nonlinearity import Nonlinearity

# the audit tolerances a config without them runs with
TOLERANCES = {"tol_eq": dynamics.DEFAULT_TOL_EQ, "match_tol": connections.DEFAULT_MATCH_TOL,
              "tail_tol": connections.DEFAULT_TAIL_TOL}


@pytest.fixture(scope="module")
def fisher_setup():
    spec = verify.fisher_spec(grid_points=256)
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    catalog = equilibria.constant_equilibria(nl)
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    return spec, nl, catalog, ctrl


def test_zero_to_one_connection(fisher_setup):
    # oracle: scalar logistic; the full orbit carries energy L/6 and the
    # action gap equals it
    _, nl, catalog, ctrl = fisher_setup
    ud = equilibria.unstable_direction(nl, catalog[0])
    rep = launch_connection(catalog[0], ud.direction, 1e-3, ctrl, 60.0,
                            catalog=catalog, nl=nl, **TOLERANCES)
    target = 10.0 / 6.0
    assert rep.status == CONNECTED
    assert rep.from_index == 0
    assert rep.to_index == 1
    assert rep.total_energy == pytest.approx(target, rel=0.02)
    assert rep.action_gap == pytest.approx(target, rel=0.001)
    assert abs(rep.total_energy - rep.action_gap) <= 0.02 * target
    assert rep.tail_energy_rate < 1e-8


def test_relaxation_back_to_stable(fisher_setup):
    # a small kick at the stable equilibrium decays straight back;
    # energy ~ L * amp^2 / 2 for the constant mode
    _, nl, catalog, ctrl = fisher_setup
    amp = 1e-4
    ud = equilibria.unstable_direction(nl, catalog[1])
    rep = launch_connection(catalog[1], ud.direction, amp, ctrl, 60.0,
                            catalog=catalog, nl=nl, **TOLERANCES)
    assert rep.status == CONNECTED
    assert rep.from_index == 1 and rep.to_index == 1
    assert rep.total_energy < 1e-6
    expected = 10.0 * amp**2 / 2.0
    assert rep.total_energy == pytest.approx(expected, rel=0.5)
    assert rep.action_gap == 0.0


def test_negative_amplitude_blows_up():
    # oracle: u' ~ -u^2 from negative data
    spec = problem.spec_from_dict({
        "N": 2, "coeffs": ["0", "0"], "box_half_length": 5.0, "grid_points": 16,
    })
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    catalog = equilibria.constant_equilibria(nl)
    ud = equilibria.unstable_direction(nl, catalog[0])
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-7, dt_max=1e-2)
    rep = launch_connection(catalog[0], ud.direction, -0.1, ctrl, 30.0,
                            catalog=catalog, nl=nl, **TOLERANCES)
    assert rep.status == dynamics.BLOW_UP
    assert rep.trajectory.escape_sign == -1
    # scalar oracle: u(t) = -0.1/(1 - 0.1 t) escapes at t* = 10
    assert rep.trajectory.final_time == pytest.approx(10.0, rel=0.05)


def test_connected_reports_satisfy_invariants(fisher_setup):
    _, nl, catalog, ctrl = fisher_setup
    for idx, amp in ((0, 1e-3), (1, 1e-4)):
        ud = equilibria.unstable_direction(nl, catalog[idx])
        rep = launch_connection(catalog[idx], ud.direction, amp, ctrl, 60.0,
                                catalog=catalog, nl=nl, **TOLERANCES)
        assert rep.status == CONNECTED
        assert rep.total_energy >= 0.0
        assert rep.action_gap >= 0.0
        dt_scale = 10.0 * 1e-3 * max(1.0, abs(catalog[rep.to_index].action))
        tol = max(0.02 * max(rep.total_energy, rep.action_gap), dt_scale)
        assert abs(rep.total_energy - rep.action_gap) <= tol


@pytest.fixture(scope="module")
def front_traj():
    spec = problem.spec_from_dict({"N": 2, "coeffs": ["0", "1"], "box_half_length": 100.0,
                                   "grid_points": 2048, "boundary": "neumann0"})
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    u0 = Field.from_expr(g, "0.5*(1+tanh(-x))")
    ctrl = dynamics.StepControl(dt_init=0.01, dt_min=1e-9, dt_max=0.01)
    traj = dynamics.run(spec, u0, ctrl, 30.0, nl=nl, snapshot_stride=32)
    return spec, nl, traj


def front_speed(traj, level=0.5, window_fraction=0.5):
    """Slope of a least-squares line through the positions of the first
    downward crossing of `level` (linearly interpolated) over the trailing
    window_fraction of the snapshots' time span."""
    pts = []
    for t, f in traj.snapshots:
        v, x = f.values, f.grid.nodes
        crossings = np.flatnonzero((v[:-1] >= level) & (v[1:] < level))
        if crossings.size:
            j = crossings[0]
            frac = (v[j] - level) / (v[j] - v[j + 1])
            pts.append((t, x[j] + frac * (x[j + 1] - x[j])))
    ts, ps = np.array(pts).T
    keep = ts >= ts[-1] - window_fraction * (ts[-1] - ts[0])
    slope, _ = np.polyfit(ts[keep], ps[keep], 1)
    return float(slope)


def test_front_energy_grows_linearly(front_traj):
    _, _, traj = front_traj
    growth = energy_growth_diagnostic(traj, window_fraction=0.5)
    assert growth.rate > 0.0
    assert growth.fit_quality > 0.99


def test_front_speed_tracks_level_set(front_traj):
    # pulled Fisher front approaches speed 2 from below
    _, _, traj = front_traj
    c = front_speed(traj)
    assert 1.5 <= c <= 2.1


def test_front_energy_rate_vs_wave_flux(front_traj):
    # the growth rate equals c * integral(U'^2) * (1 + 1) / 2... the exact
    # travelling profile satisfies u_t = -c U', so rate = c^2 int U'^2; we
    # only assert consistency within a factor against the measured profile
    _, _, traj = front_traj
    growth = energy_growth_diagnostic(traj, window_fraction=0.5)
    c = front_speed(traj)
    u_final = traj.final_field
    g = u_final.grid
    du = np.gradient(u_final.values, g.h)
    wave_flux = c * c * float(np.sum(du * du)) * g.h
    assert growth.rate == pytest.approx(wave_flux, rel=0.2)


def test_stationary_run_rate_zero(fisher_setup):
    # held at a discrete equilibrium (tol_eq=0 defeats early convergence)
    spec, nl, catalog, ctrl = fisher_setup
    eq = catalog[1]
    traj = dynamics.run(spec, eq.field, ctrl, 0.2, nl=nl,
                        tol_eq=0.0, snapshot_stride=10)
    growth = energy_growth_diagnostic(traj, window_fraction=0.5)
    assert abs(growth.rate) < 1e-12
    # converged immediately leaves a single diagnostics row: too few to fit
    short = dynamics.run(spec, eq.field, ctrl, 1.0, nl=nl)
    with pytest.raises(ValueError):
        energy_growth_diagnostic(short)


def test_tail_rate_non_increasing_for_connected(fisher_setup):
    spec, nl, catalog, ctrl = fisher_setup
    traj = dynamics.run(spec, Field.constant(nl.grid, 0.5), ctrl, 40.0, nl=nl)
    rates = [connections.tail_energy_rate(traj.diagnostics, frac)
             for frac in (0.8, 0.4, 0.2, 0.1)]
    assert all(a >= b - 1e-18 for a, b in zip(rates, rates[1:]))


def test_homogeneous_connection_tail_rate(fisher_setup):
    spec, nl, catalog, ctrl = fisher_setup
    traj = dynamics.run(spec, Field.constant(nl.grid, 0.5), ctrl, 40.0, nl=nl)
    growth = energy_growth_diagnostic(traj, window_fraction=0.1)
    assert abs(growth.rate) < 1e-8


def _energy_window(t, energy):
    """A stand-in trajectory whose diagnostics hold only t and energy_cum."""
    diag = dynamics.DiagnosticSeries()
    columns = diag.columns()
    columns[0].extend(t)
    columns[4].extend(energy)
    return SimpleNamespace(diagnostics=diag)


def test_growth_fit_matches_polyfit():
    # the closed-form line fit against numpy's least squares on random
    # windows: rate to a relative 1e-12, R^2 to 1e-12 (2.3e-15 and 6.7e-16 at
    # most over 200 such windows)
    rng = np.random.default_rng(3)
    for rows in (100, 257, 1000, 4097):
        # from t = 0, so that a window_fraction of 1 starts exactly at row 0
        t = np.cumsum(np.append(0.0, rng.uniform(1e-3, 1e-1, rows - 1)))
        e = rng.uniform(-2, 2) * t + rng.uniform(-5, 5) + rng.uniform(0, 0.1) * \
            rng.standard_normal(rows)
        growth = energy_growth_diagnostic(_energy_window(t, e), window_fraction=1.0)
        slope, intercept = np.polyfit(t, e, 1)
        ss_res = np.sum((e - (slope * t + intercept)) ** 2)
        r2 = 1.0 - ss_res / np.sum((e - e.mean()) ** 2)
        assert growth.rate == pytest.approx(slope, rel=1e-12)
        assert growth.fit_quality == pytest.approx(r2, abs=1e-12)
    # an exactly linear window: every sum is exact
    t = np.arange(200.0)
    growth = energy_growth_diagnostic(_energy_window(t, 3.0 * t + 2.0))
    assert (growth.rate, growth.fit_quality) == (3.0, 1.0)


def test_too_few_rows_error(fisher_setup):
    spec, nl, catalog, ctrl = fisher_setup
    traj = dynamics.run(spec, Field.constant(nl.grid, 0.5), ctrl, 0.01, nl=nl)
    with pytest.raises(ValueError, match="fewer than 100"):
        energy_growth_diagnostic(traj)


@pytest.mark.parametrize("status, passed", (
    ("connected", True),
    ("growth", True),
    ("blow_up", None),
    ("undecided", False),
    ("no_direction", False),
    ("converged", False),
    ("t_max_reached", False),
))
def test_report_passed_follows_status(status, passed):
    # every status the audit writes; blow-up rows are excluded, not failed
    assert ConnectionReport(status=status).passed is passed


def test_audit_empty_plan(fisher_setup):
    _, nl, catalog, ctrl = fisher_setup
    table = connection_energy_audit(nl, catalog, [], ctrl, **TOLERANCES)
    assert table.rows == []
    assert table.all_passed


def test_audit_batch(fisher_setup, tmp_path):
    _, nl, catalog, ctrl = fisher_setup
    plan = [
        LaunchSpec(from_index=0, amplitude=1e-3, t_max=60.0),
        LaunchSpec(from_index=1, amplitude=1e-4, t_max=60.0),
    ]
    table = connection_energy_audit(nl, catalog, plan, ctrl, **TOLERANCES)
    assert [r.passed for r in table.rows] == [True, True]
    assert table.all_passed
    out = tmp_path / "connections.csv"
    table.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("launch_id,status,from,to,total_energy,action_gap,"
                        "identity_residual,tail_rate,fit_quality")
    assert len(lines) == 3
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


def test_audit_excludes_blowup():
    spec = problem.spec_from_dict({
        "N": 2, "coeffs": ["0", "0"], "box_half_length": 5.0, "grid_points": 16,
    })
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    catalog = equilibria.constant_equilibria(nl)
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-7, dt_max=1e-2)
    plan = [LaunchSpec(from_index=0, amplitude=-0.1, t_max=30.0)]
    table = connection_energy_audit(nl, catalog, plan, ctrl, **TOLERANCES)
    assert table.rows[0].status == dynamics.BLOW_UP
    assert table.rows[0].passed is None
    assert table.all_passed  # excluded rows do not fail the audit


def test_audit_excludes_front_blowup():
    # Fisher data near -1.5 lies below the unstable state 0 and runs away
    spec = verify.fisher_spec(grid_points=16)
    nl = Nonlinearity(spec, problem.make_grid(spec))
    catalog = equilibria.constant_equilibria(nl)
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-7, dt_max=1e-2)
    plan = [LaunchSpec(u0=Field.from_expr(nl.grid, "-1.5+0.01*cos(x)"), t_max=30.0)]
    table = connection_energy_audit(nl, catalog, plan, ctrl, **TOLERANCES)
    assert table.rows[0].status == dynamics.BLOW_UP
    assert table.rows[0].passed is None
    assert table.all_passed


def test_audit_front_row(front_traj):
    _, nl, traj = front_traj
    catalog = equilibria.constant_equilibria(nl)
    ctrl = dynamics.StepControl(dt_init=0.01, dt_min=1e-9, dt_max=0.01)
    plan = [LaunchSpec(u0=traj.snapshots[0][1], t_max=30.0)]
    table = connection_energy_audit(nl, catalog, plan, ctrl, **TOLERANCES)
    row = table.rows[0]
    assert row.status == "growth"
    assert row.passed
    assert row.to_index is None
    assert row.fit_quality > 0.99
