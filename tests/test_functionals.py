import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_nonlinearity import _coefficient_exprs

from gradflow1d import dynamics, problem, verify
from gradflow1d.functionals import (
    action,
    action_parts_extended,
    energy_addend,
    identity_residual,
)
from gradflow1d.grid import (
    BOUNDARIES,
    Field,
    dirichlet_energy_extended,
    extend,
    laplacian_values,
    set_ghosts,
)
from gradflow1d.nonlinearity import Nonlinearity

_EPS = np.finfo(float).eps


@pytest.fixture
def fisher():
    spec = verify.fisher_spec(grid_points=256)
    return spec, Nonlinearity(spec, problem.make_grid(spec))


def _parts(nl, u):
    """(value, dirichlet_part, potential_part) of the action at the field u."""
    return action_parts_extended(nl, u.values, extend(u.values, nl.grid.boundary),
                                 np.empty(nl.grid.m), np.empty(nl.grid.m))


def test_action_zero_field(fisher):
    _, nl = fisher
    u = Field.constant(nl.grid, 0.0)
    value, dirichlet_part, potential_part = _parts(nl, u)
    assert action(nl, u) == value == 0.0
    assert dirichlet_part == 0.0
    assert potential_part == 0.0


def test_action_constant_one(fisher):
    # hand integration: -1/3 + 1/2 = 1/6 per unit length, gradient term 0
    _, nl = fisher
    u = Field.constant(nl.grid, 1.0)
    value, dirichlet_part, _ = _parts(nl, u)
    assert dirichlet_part == 0.0
    assert action(nl, u) == value == pytest.approx(10.0 / 6.0, rel=1e-12)


def test_action_gap_is_connection_target(fisher):
    _, nl = fisher
    a0 = action(nl, Field.constant(nl.grid, 0.0))
    a1 = action(nl, Field.constant(nl.grid, 1.0))
    assert a1 - a0 == pytest.approx(10.0 / 6.0, rel=1e-12)


def test_action_value_decomposition(fisher):
    _, nl = fisher
    g = nl.grid
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = Field(g, rng.standard_normal(g.m))
        value, dirichlet_part, potential_part = _parts(nl, u)
        assert action(nl, u) == value
        assert value == pytest.approx(-dirichlet_part + potential_part)
        assert dirichlet_part >= 0.0


def _resid(nl, values):
    return laplacian_values(values, nl.grid) + nl.apply_P_values(values)


def test_energy_step_zero_at_equilibrium(fisher):
    _, nl = fisher
    eq = np.full(nl.grid.m, 1.0)
    assert energy_addend(eq, eq, _resid(nl, eq), 0.1, nl.grid.h, np.empty(nl.grid.m)) <= 1e-28


def test_energy_step_zero_field_no_reaction():
    spec = problem.spec_from_dict({
        "N": 2, "coeffs": ["0", "0"], "box_half_length": 5.0, "grid_points": 64,
    })
    nl = Nonlinearity(spec, problem.make_grid(spec))
    z = np.zeros(nl.grid.m)
    assert energy_addend(z, z, _resid(nl, z), 0.5, nl.grid.h, np.empty(nl.grid.m)) == 0.0


def test_energy_accumulator_monotone(fisher):
    _, nl = fisher
    g = nl.grid
    rng = np.random.default_rng(8)
    cumulative = 0.0
    prev = rng.uniform(0, 1, g.m)
    for _ in range(20):
        nxt = prev + 0.01 * rng.standard_normal(g.m)
        new_cumulative = cumulative + energy_addend(prev, nxt, _resid(nl, prev), 1e-2, g.h,
                                                    np.empty(g.m))
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


def test_identity_residual_at_sup_guard_spans_the_recorded_rows():
    # u' = -u^2 from -1 stops at sup_guard after a step that records no row;
    # the action of the end state against the energy of the last row was
    # off by that step (1.50% of the energy), the rows give 0.35%
    spec = problem.spec_from_dict({"N": 2, "coeffs": ["0", "0"], "box_half_length": 5.0,
                                   "grid_points": 16, "boundary": "periodic",
                                   "sup_guard": 1e6})
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-30, dt_max=1e-3, sup_guard=1e6)
    traj = dynamics.run(spec, Field.constant(g, -1.0), ctrl, 2.0, nl=nl)
    assert traj.stop_reason == "sup_guard"
    d = traj.diagnostics
    assert len(d) == traj.steps  # rows for steps 0 .. steps-1
    energy = d.energy_cum[-1] - d.energy_cum[0]
    assert identity_residual(traj, nl) == abs(energy - (d.action[-1] - d.action[0]))
    assert identity_residual(traj, nl) <= 0.005 * energy


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
    energy = energy_addend(u0.values, u1.values, _resid(nl, u0.values), dt, g.h,
                           np.empty(g.m))
    for row in ((0.0, 0.0, 0.0, action(nl, u0), 0.0, 0.0),
                (dt, dt, 0.0, action(nl, u1), energy, 0.0)):
        for column, value in zip(diag.columns(), row):
            column.append(value)
    traj = dynamics.Trajectory(snapshots=[(0.0, u0), (dt, u1)], diagnostics=diag,
                               steps=1, stop_reason="t_max_reached")
    resid = identity_residual(traj, nl)
    udot = (u1.values - u0.values) / dt
    f0 = laplacian_values(u0.values, g) + nl.apply_P_values(u0.values)
    lower = 0.25 * dt * g.h * float(np.dot(udot - f0, udot - f0))
    assert resid > 0.0
    assert resid >= lower  # dominated by the defect term at small dt


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
    fd = (action(nl, Field(g, plus)) - action(nl, Field(g, minus))) / (2.0 * step)
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


@settings(max_examples=40, deadline=None)
@given(_coefficient_exprs(), st.booleans(), st.sampled_from(BOUNDARIES), st.integers(8, 300),
       st.integers(0, 2**32 - 1))
def test_stacked_action_and_energy_match_each_row_bitwise(case, signed, boundary, m, seed):
    # `run` takes the action parts and the energy addends of a block of
    # states at once; each row must have the bits of its own one-field call
    n, exprs = case
    spec = problem.spec_from_dict({"N": n, "coeffs": exprs, "box_half_length": 5.0,
                                   "grid_points": m, "boundary": boundary,
                                   "signed_power": signed})
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    rng = np.random.default_rng(seed)
    rows = 4
    e = np.empty((rows, m + 2))
    e[:, 1:-1] = rng.uniform(-1.5, 1.5, (rows, m))
    set_ghosts(e, boundary)
    v = e[:, 1:-1]
    resid = np.stack([_resid(nl, w) for w in v])
    dts = rng.uniform(1e-4, 1e-2, rows - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = action_parts_extended(nl, v, e, *np.empty((2, rows, m)))
        addends = energy_addend(v[:-1], v[1:], resid[:-1], dts, g.h, np.empty((rows - 1, m)))
    for i in range(rows):
        one = _parts(nl, Field(g, v[i]))
        assert [p[i] for p in parts] == list(one)
    for i in range(rows - 1):
        assert addends[i] == energy_addend(v[i], v[i + 1], resid[i], float(dts[i]), g.h,
                                           np.empty(m))
