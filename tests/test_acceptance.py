"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not computed.  Oracles are scalar ODE
solutions, hand integration of the reaction potential, and frozen seeded
measurements; no expected value is asserted that was not independently
computed.
"""

import pytest

from gradflow1d import connections, dynamics, equilibria, problem, verify
from gradflow1d.grid import Field, sup_norm
from gradflow1d.nonlinearity import Nonlinearity

# the audit tolerances a config without them runs with
TOLERANCES = {"tol_eq": dynamics.DEFAULT_TOL_EQ, "match_tol": connections.DEFAULT_MATCH_TOL,
              "tail_tol": connections.DEFAULT_TAIL_TOL}

TARGET = 10.0 / 6.0  # action gap of the Fisher 0 -> 1 connection on L = 10


def _report(name: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def fisher_setup():
    spec = verify.fisher_spec(grid_points=256)
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    catalog = equilibria.constant_equilibria(nl)
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    return spec, nl, catalog, ctrl


@pytest.fixture(scope="module")
def connection_report(fisher_setup):
    _, nl, catalog, ctrl = fisher_setup
    direction = equilibria.unstable_direction(nl, catalog[0]).direction
    return connections.launch_connection(
        catalog[0], direction, 1e-3, ctrl, 60.0, catalog=catalog, nl=nl,
        **TOLERANCES)


@pytest.fixture(scope="module")
def homogeneous_run(fisher_setup):
    spec, nl, catalog, ctrl = fisher_setup
    return dynamics.run(spec, Field.constant(nl.grid, 0.5), ctrl, 40.0, nl=nl)


def test_criterion_1_logistic_connection_energy(connection_report):
    rep = connection_report
    ok = (
        rep.status == connections.CONNECTED
        and abs(rep.total_energy - TARGET) <= 0.02 * TARGET
        and abs(rep.action_gap - TARGET) <= 0.001 * TARGET
        and abs(rep.total_energy - rep.action_gap) <= 0.02 * TARGET
    )
    _report(
        "1 logistic connection energy", ok,
        f"E={rep.total_energy:.6f} gap={rep.action_gap:.6f} "
        f"|E-gap|={abs(rep.total_energy - rep.action_gap):.2e}")


def test_criterion_2_action_monotonicity():
    res = verify.suite_action_monotonicity(seed=0)
    _report("2 action monotonicity", res.passed,
            f"{res.details['runs']} runs, "
            f"{res.details['hard_violations']} hard violations")
    assert res.details["runs"] == 20  # 10 Fisher and 10 cubic


def test_criterion_3_blowup_timing():
    res = verify.suite_blowup_timing()
    _report("3 blow-up timing", res.passed,
            f"detected t*={res.details['detected_time']:.5f}, "
            f"rel err {res.details['relative_error']:.2%}, "
            f"{res.details['steps']} steps, {res.details['stop_reason']}")
    # the increment limit grows with sup|u| above 18, so dt collapses at
    # |u| near 4e4 after a few thousand steps
    assert res.details["stop_reason"] == "increment_dt_collapse"
    assert res.details["steps"] <= 5000


def test_criterion_4_travelling_wave_energy_growth(homogeneous_run):
    spec = problem.spec_from_dict({"N": 2, "coeffs": ["0", "1"], "box_half_length": 100.0,
                                   "grid_points": 2048, "boundary": "neumann0"})
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    u0 = Field.from_expr(g, "0.5*(1+tanh(-x))")
    ctrl = dynamics.StepControl(dt_init=0.01, dt_min=1e-9, dt_max=0.01)
    traj = dynamics.run(spec, u0, ctrl, 30.0, nl=nl, snapshot_stride=32)
    growth = connections.energy_growth_diagnostic(traj, window_fraction=0.5)
    contrast = connections.energy_growth_diagnostic(homogeneous_run,
                                                    window_fraction=0.1)
    ok = (growth.rate > 0.0 and growth.fit_quality > 0.99
          and abs(contrast.rate) < 1e-8)
    _report("4 travelling-wave energy growth", ok,
            f"front rate={growth.rate:.4f} fit={growth.fit_quality:.5f}, "
            f"contrast rate={contrast.rate:.2e}")


def test_criterion_5_equilibrium_catalog(fisher_setup):
    _, nl, catalog, _ = fisher_setup
    fisher_vals = sorted(float(e.field.values[0]) for e in catalog)
    cubic = verify.cubic_spec(grid_points=256)
    nl3 = Nonlinearity(cubic, problem.make_grid(cubic))
    catalog3 = equilibria.constant_equilibria(nl3)
    cubic_vals = sorted(float(e.field.values[0]) for e in catalog3)
    residuals = [e.residual for e in catalog + catalog3]
    ok = (
        len(fisher_vals) == 2
        and max(abs(a - b) for a, b in zip(fisher_vals, [0.0, 1.0])) < 1e-12
        and len(cubic_vals) == 3
        and max(abs(a - b) for a, b in zip(cubic_vals, [-1.0, 0.0, 1.0])) < 1e-12
        and max(residuals) < 1e-10
    )
    _report("5 equilibrium catalog", ok,
            f"fisher={fisher_vals} cubic={cubic_vals} "
            f"max residual={max(residuals):.2e}")


def test_criterion_6_reaction_norm_regression():
    res = verify.suite_reaction_bound()
    worst = {k: f"{v:.6f}" for k, v in res.details["measured"].items()}
    _report("6 reaction norm-growth regression", res.passed, f"max ratios {worst}")


def test_criterion_7_solver_verification():
    res = verify.suite_mms()
    _report("7 solver verification (manufactured solutions)", res.passed,
            f"temporal order {res.details['temporal_order']:.3f} in [0.8, 1.2], "
            f"spatial order {res.details['spatial_order']:.3f} in [1.7, 2.3]")


def test_criterion_8_discrete_gradient_consistency():
    res = verify.suite_gradient_consistency(seed=0)
    _report("8 discrete gradient consistency", res.passed,
            f"worst |dA - <grad, v>| = {res.details['worst_abs_error']:.2e} "
            f"over {res.details['pairs']} pairs")
    assert (res.details["pairs"], res.details["eps"]) == (100, 1e-5)
    assert res.details["worst_abs_error"] <= 1e-6


def test_criterion_9_convergence_detection(fisher_setup, connection_report,
                                           homogeneous_run):
    _, nl, catalog, ctrl = fisher_setup
    runs = [connection_report.trajectory, homogeneous_run]
    # add a relaxation from the stable side
    direction = equilibria.unstable_direction(nl, catalog[1]).direction
    relax = connections.launch_connection(
        catalog[1], direction, 1e-4, ctrl, 60.0, catalog=catalog, nl=nl,
        **TOLERANCES)
    runs.append(relax.trajectory)

    checked = 0
    worst_ut = 0.0
    worst_dist = 0.0
    for traj in runs:
        if traj.status != dynamics.CONVERGED:
            continue
        checked += 1
        ut = float(traj.diagnostics.ut_sup[-1])
        worst_ut = max(worst_ut, ut)
        polished = equilibria.newton_refine(nl, traj.final_field)
        dist = min(
            sup_norm(Field(nl.grid, polished.field.values - eq.field.values))
            for eq in catalog
        )
        worst_dist = max(worst_dist, dist)
    ok = checked == len(runs) and worst_ut < 1e-8 and worst_dist < 1e-4
    _report("9 convergence-to-equilibrium detection", ok,
            f"{checked} converged runs, worst ut_sup={worst_ut:.2e}, "
            f"worst catalog distance={worst_dist:.2e}")
