import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_nonlinearity import _coefficient_exprs

from gradflow1d import dynamics, problem, verify
from gradflow1d.functionals import action, energy_addend, identity_residual
from gradflow1d.grid import BOUNDARIES, Field, dirichlet_energy_extended, extend, laplacian_values
from gradflow1d.nonlinearity import Nonlinearity

_EPS = np.finfo(float).eps


@pytest.fixture
def fisher():
    spec = verify.fisher_spec(grid_points=256)
    return spec, Nonlinearity(spec, problem.make_grid(spec))


def test_action_zero_field(fisher):
    _, nl = fisher
    a = action(nl, Field.constant(nl.grid, 0.0))
    assert a.value == 0.0
    assert a.dirichlet_part == 0.0
    assert a.potential_part == 0.0


def test_action_constant_one(fisher):
    # hand integration: -1/3 + 1/2 = 1/6 per unit length, gradient term 0
    _, nl = fisher
    a = action(nl, Field.constant(nl.grid, 1.0))
    assert a.dirichlet_part == 0.0
    assert a.value == pytest.approx(10.0 / 6.0, rel=1e-12)


def test_action_gap_is_connection_target(fisher):
    _, nl = fisher
    a0 = action(nl, Field.constant(nl.grid, 0.0)).value
    a1 = action(nl, Field.constant(nl.grid, 1.0)).value
    assert a1 - a0 == pytest.approx(10.0 / 6.0, rel=1e-12)


def test_action_value_decomposition(fisher):
    _, nl = fisher
    g = nl.grid
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = Field(g, rng.standard_normal(g.m))
        a = action(nl, u)
        assert a.value == pytest.approx(-a.dirichlet_part + a.potential_part)
        assert a.dirichlet_part >= 0.0


def _resid(nl, values):
    return laplacian_values(values, nl.grid) + nl.apply_P_values(values)


def test_energy_step_zero_at_equilibrium(fisher):
    _, nl = fisher
    eq = np.full(nl.grid.m, 1.0)
    assert energy_addend(eq, eq, _resid(nl, eq), 0.1, nl.grid.h) <= 1e-28


def test_energy_step_zero_field_no_reaction():
    spec = problem.spec_from_dict({
        "N": 2, "coeffs": ["0", "0"], "box_half_length": 5.0, "grid_points": 64,
    })
    nl = Nonlinearity(spec, problem.make_grid(spec))
    z = np.zeros(nl.grid.m)
    assert energy_addend(z, z, _resid(nl, z), 0.5, nl.grid.h) == 0.0


def test_energy_accumulator_monotone(fisher):
    _, nl = fisher
    g = nl.grid
    rng = np.random.default_rng(8)
    cumulative = 0.0
    prev = rng.uniform(0, 1, g.m)
    for _ in range(20):
        nxt = prev + 0.01 * rng.standard_normal(g.m)
        new_cumulative = cumulative + energy_addend(prev, nxt, _resid(nl, prev), 1e-2, g.h)
        assert new_cumulative >= cumulative >= 0.0
        cumulative, prev = new_cumulative, nxt


def test_logistic_energy_matches_ode_oracle(fisher):
    # oracle: high-accuracy scalar logistic integration of u' = u(1-u)
    from scipy.integrate import solve_ivp

    spec, nl = fisher
    sol = solve_ivp(
        lambda t, y: [y[0] * (1 - y[0]), (y[0] * (1 - y[0])) ** 2],
        (0.0, 60.0), [0.5, 0.0], rtol=1e-12, atol=1e-14,
    )
    expected_energy = 10.0 * sol.y[1, -1]  # L * integral of udot^2 dt
    # analytic cross-check: integral_{0.5}^{1} u(1-u) du = 1/12
    assert expected_energy == pytest.approx(10.0 / 12.0, rel=1e-9)

    g = nl.grid
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    traj = dynamics.run(spec, Field.constant(g, 0.5), ctrl, 40.0, nl=nl)
    assert traj.status == dynamics.CONVERGED
    got = traj.diagnostics.energy_cum[-1]
    assert got == pytest.approx(expected_energy, rel=0.01)


def test_identity_residual_trivial(fisher):
    spec, nl = fisher
    g = nl.grid
    eq = Field.constant(g, 1.0)
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    traj = dynamics.run(spec, eq, ctrl, 1.0, nl=nl)
    assert traj.status == dynamics.CONVERGED
    assert traj.steps == 0
    assert identity_residual(traj, nl) == 0.0


def test_identity_residual_logistic(fisher):
    spec, nl = fisher
    g = nl.grid
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    traj = dynamics.run(spec, Field.constant(g, 0.5), ctrl, 40.0, nl=nl)
    resid = identity_residual(traj, nl)
    assert resid <= 0.01 * (10.0 / 6.0)


def test_identity_residual_positive_for_non_solution(fisher):
    # a snapshot pair that is not a flow segment leaves a strictly positive
    # residual ~ (dt/2) * ||udot - F||^2
    spec, nl = fisher
    g = nl.grid
    rng = np.random.default_rng(12)
    u0 = Field(g, rng.uniform(0, 1, g.m))
    u1 = Field(g, rng.uniform(0, 1, g.m))
    dt = 1e-3
    diag = dynamics.DiagnosticSeries()
    energy = energy_addend(u0.values, u1.values, _resid(nl, u0.values), dt, g.h)
    for row in ((0.0, 0.0, 0.0, action(nl, u0).value, 0.0, 0.0),
                (dt, dt, 0.0, action(nl, u1).value, energy, 0.0)):
        for add, value in zip(diag.appenders(), row):
            add(value)
    traj = dynamics.Trajectory(
        snapshots=[(0.0, u0), (dt, u1)], diagnostics=diag, status="t_max_reached",
        first_field=u0, final_field=u1, final_time=dt, steps=1,
    )
    resid = identity_residual(traj, nl)
    udot = (u1.values - u0.values) / dt
    f0 = laplacian_values(u0.values, g) + nl.apply_P_values(u0.values)
    lower = 0.25 * dt * g.h * float(np.dot(udot - f0, udot - f0))
    assert resid > 0.0
    assert resid >= lower  # dominated by the defect term at small dt


def test_gradient_consistency_suite():
    res = verify.suite_gradient_consistency(n_pairs=40)
    assert res.passed, res.details


@settings(max_examples=80, deadline=None)
@given(_coefficient_exprs(), st.booleans(), st.sampled_from(BOUNDARIES),
       st.integers(8, 128), st.integers(0, 2**32 - 1))
def test_action_gradient_is_laplacian_plus_P(case, signed, boundary, m, seed):
    # the matched stencils make h*(laplacian(u) + P(u)) the exact gradient of
    # the discrete action, so a central difference along v differs from the
    # inner product only by its truncation and by rounding
    n, exprs = case
    spec = problem.spec_from_dict({
        "N": n, "coeffs": exprs, "box_half_length": 5.0, "grid_points": m,
        "boundary": boundary, "signed_power": signed,
    })
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.5, 1.5, m)
    v = rng.uniform(-1.0, 1.0, m)
    step = 1e-4
    plus, minus = u + step * v, u - step * v
    fd = (action(nl, Field(g, plus)).value
          - action(nl, Field(g, minus)).value) / (2.0 * step)
    lap, p = laplacian_values(u, g), nl.apply_P_values(u)
    inner = g.h * float(np.dot(lap + p, v))

    # the Dirichlet part is quadratic, so only Q truncates: at most
    # step^2/6 * h * sum |P''| |v|^3 on the segment, and |P''| is at most
    # S''(|u| + step|v|) with S(r) = r^N + sum |a_i| r^i the majorant of P
    a = [np.abs(c) for c in nl.coeff_samples]
    r = np.abs(u) + step * np.abs(v)
    s2 = n * (n - 1) * r ** (n - 2) + sum(i * (i - 1) * a[i] * r ** (i - 2)
                                          for i in range(2, n))
    truncation = step**2 / 6.0 * g.h * float(np.sum(s2 * np.abs(v) ** 3))

    # each action carries at most (m + 4N + 16) eps of its term size (the dot
    # product's worst case m eps, Horner's 2N + 3, the node sum and the final
    # combination); the difference divides that by 2 step; the inner product
    # carries (m + 8) eps of its own term size
    def term_size(w):
        aw = np.abs(w)
        q = aw ** (n + 1) / (n + 1) + sum(c * aw ** (i + 1) / (i + 1)
                                          for i, c in enumerate(a))
        return dirichlet_energy_extended(extend(w, g.boundary), g) + g.h * float(np.sum(q))

    pmaj = r**n + sum(c * r**i for i, c in enumerate(a))
    rounding = ((m + 4 * n + 16) * _EPS * (term_size(plus) + term_size(minus))
                / (2.0 * step)
                + (m + 8) * _EPS * g.h * float(np.sum((np.abs(lap) + pmaj) * np.abs(v))))
    assert abs(fd - inner) <= truncation + rounding
