"""`dynamics.run` against a reference stepper, bit for bit.

`reference_run` is the earlier form of the IMEX loop in `dynamics.run`: a
`Field` per step, `cho_solve_banded` through scipy's checks, the Laplacian
built with `np.concatenate` and computed twice per step, and the action
through `functionals.action`.  `run` must reproduce every recorded number
exactly, so any reordering of floating-point work in the lean loop shows
up here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded

from gradflow1d import problem, verify
from gradflow1d.dynamics import (
    BLOW_UP,
    CONVERGED,
    RUNNING,
    T_MAX_REACHED,
    DiagnosticSeries,
    StepControl,
    StopRule,
    run,
)
from gradflow1d.functionals import action, energy_addend
from gradflow1d.grid import Field, sup_norm
from gradflow1d.nonlinearity import Nonlinearity, RangeOverflowError
from gradflow1d.tridiag import ImplicitDiffusionSolver


def _laplacian(values, g):
    if g.boundary == "periodic":
        e = np.concatenate((values[-1:], values, values[:1]))
    elif g.boundary == "dirichlet0":
        e = np.concatenate(((0.0,), values, (0.0,)))
    else:
        e = np.concatenate((values[:1], values, values[-1:]))
    return (e[:-2] - 2.0 * values + e[2:]) / g.h**2


def _solve(s, rhs):
    y = cho_solve_banded((s._factor, False), rhs, check_finite=False)
    if s.grid.boundary != "periodic":
        return y
    vy = y[0] + (-s._mu / s._gamma) * y[-1]
    return y - s._z * (vy / (1.0 + s._vz))


def _relative_residual(s, x, rhs):
    r = (x - s.dt * _laplacian(x, s.grid)) - rhs
    return float(np.max(np.abs(r))) / (float(np.max(np.abs(rhs))) + 1e-300)


def _extreme_sign(u):
    v = u.values
    i = int(np.argmax(np.abs(v)))
    return int(np.sign(v[i])) if v[i] != 0 else 0


def reference_run(u0, nl, ctrl, t_max, stop, forcing, snapshot_stride):
    """(diagnostics, snapshots, status, final_field, final_time, steps,
    escape_sign, stop_reason)."""
    g = u0.grid
    solvers = {}
    diag = DiagnosticSeries()
    appenders = diag.appenders()

    def record(*row):
        for add, value in zip(appenders, row):
            add(value)

    snaps = [(0.0, u0)]
    u, t, dt, energy, steps, smooth = u0, 0.0, ctrl.dt_init, 0.0, 0, 0
    status, escape_sign, reason = RUNNING, 0, ""
    limit = 0.9 * ctrl.increment_limit

    def reaction_and_residual(f):
        p = nl.apply_P_values(f.values)
        return p, _laplacian(f.values, g) + p

    try:
        p_now, resid_now = reaction_and_residual(u)
        a_now = action(nl, u).value
    except RangeOverflowError:
        return (diag, [(0.0, u0)], BLOW_UP, u0, 0.0, 0, _extreme_sign(u0),
                "initial_out_of_range")
    ut_sup = float(np.max(np.abs(resid_now)))
    record(0.0, 0.0, sup_norm(u), a_now, energy, ut_sup)
    if ut_sup < stop.tol_eq:
        status = reason = CONVERGED

    t_end_tol = 1e-12 * max(1.0, t_max)
    while status == RUNNING:
        if t >= t_max - t_end_tol:
            status = reason = T_MAX_REACHED
            break
        dt = min(dt, t_max - t)
        p_sup = float(np.max(np.abs(p_now)))
        while dt * p_sup > limit:
            dt *= 0.5
            smooth = 0
            if dt < ctrl.dt_min:
                status, escape_sign = BLOW_UP, _extreme_sign(u)
                reason = "increment_dt_collapse"
                break
        if status != RUNNING:
            break
        forcing_now = forcing(t) if forcing is not None else None
        rhs = u.values + dt * (p_now if forcing_now is None
                               else p_now + forcing_now)
        if not np.all(np.isfinite(rhs)):
            status, escape_sign = BLOW_UP, _extreme_sign(u)
            reason = "nonfinite_state"
            break
        if dt not in solvers:
            solvers[dt] = ImplicitDiffusionSolver(g, dt)
        x = _solve(solvers[dt], rhs)
        if _relative_residual(solvers[dt], x, rhs) > 1e-12:
            dt *= 0.5
            smooth = 0
            if dt < ctrl.dt_min:
                status, escape_sign = BLOW_UP, _extreme_sign(u)
                reason = "solve_dt_collapse"
                break
            continue
        if not np.all(np.isfinite(x)):
            status, escape_sign = BLOW_UP, _extreme_sign(u)
            reason = "nonfinite_state"
            break
        u_next = Field(g, x)
        energy += energy_addend(u.values, u_next.values, resid_now, dt, g.h)
        t += dt
        steps += 1
        u = u_next
        sup_u = sup_norm(u)
        if sup_u > ctrl.sup_guard:
            status, escape_sign = BLOW_UP, _extreme_sign(u)
            reason = "sup_guard"
            break
        try:
            p_now, resid_now = reaction_and_residual(u)
            a_now = action(nl, u).value
        except RangeOverflowError:
            status, escape_sign = BLOW_UP, _extreme_sign(u)
            reason = "nonfinite_reaction"
            break
        ut_sup = float(np.max(np.abs(resid_now)))
        record(t, dt, sup_u, a_now, energy, ut_sup)
        if steps % snapshot_stride == 0:
            snaps.append((t, u))
        if ut_sup < stop.tol_eq:
            status = reason = CONVERGED
            break
        smooth += 1
        if smooth >= 10:
            dt = min(dt * 2.0, ctrl.dt_max)
            smooth = 0

    if snaps[-1][0] != t:
        snaps.append((t, u))
    return diag, snaps, status, u, t, steps, escape_sign, reason


@st.composite
def _cases(draw):
    blow_up = draw(st.booleans())
    n = draw(st.sampled_from((2, 4))) if blow_up else draw(st.integers(2, 4))
    spec = problem.spec_from_dict({
        "N": n,
        "coeffs": [repr(c) for c in draw(st.lists(st.floats(-1.0, 1.0),
                                                  min_size=n, max_size=n))],
        "box_half_length": 5.0,
        "grid_points": draw(st.integers(8, 64)),
        "boundary": draw(st.sampled_from(("periodic", "dirichlet0", "neumann0"))),
        "signed_power": False if blow_up else draw(st.booleans()),
    })
    g = problem.make_grid(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    shape = verify.random_smooth_field(g, rng).values
    if blow_up:
        # even N with leading -u^N escapes downward from data near -1.5; the
        # small sup_guard stops some runs there, the rest by dt collapse
        u0 = Field(g, -1.5 + 0.5 * shape)
        ctrl = StepControl(dt_init=1e-3, dt_min=1e-5, dt_max=1e-3,
                           sup_guard=draw(st.sampled_from((20.0, 1e6))))
        t_max = 2.0
    else:
        u0 = Field(g, rng.uniform(-0.3, 0.3) + rng.uniform(0.2, 0.8) * shape)
        ctrl = StepControl(dt_init=1e-3, dt_min=1e-7,
                           dt_max=draw(st.sampled_from((1e-3, 1e-2))))
        t_max = 0.3
    forcing = None
    if draw(st.booleans()):
        profile = verify.random_smooth_field(g, rng).values

        def forcing(t, _p=profile):
            return 0.3 * np.cos(3.0 * t) * _p
    # under the loose tolerance bounded runs stop as converged, some at t = 0
    stop = StopRule(tol_eq=draw(st.sampled_from((1e-8, 1.0))))
    return spec, u0, ctrl, t_max, stop, forcing, draw(st.sampled_from((1, 7, 64)))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# 30 cases in a tier-1 run; a profile that asks for more than hypothesis's
# default of 100 examples (ci-deep in tests/conftest.py) sets the count
_EXAMPLES = settings.default.max_examples if settings.default.max_examples > 100 else 30


@settings(max_examples=_EXAMPLES, deadline=None)
@given(_cases())
def test_run_matches_reference_stepper_bit_for_bit(case):
    spec, u0, ctrl, t_max, stop, forcing, stride = case
    nl = Nonlinearity(spec, u0.grid)
    diag, snaps, status, final, t, steps, sign, reason = reference_run(
        u0, nl, ctrl, t_max, stop, forcing, stride)
    traj = run(spec, u0, ctrl, t_max, stop, forcing=forcing,
               snapshot_stride=stride, nl=nl)
    for c in DiagnosticSeries.COLUMNS:
        assert _bits(getattr(traj.diagnostics, c)) == _bits(getattr(diag, c)), c
    assert (traj.status, traj.steps, traj.escape_sign) == (status, steps, sign)
    assert traj.stop_reason == reason
    assert traj.final_time == t
    assert _bits(traj.final_field.values) == _bits(final.values)
    assert [s for s, _ in traj.snapshots] == [s for s, _ in snaps]
    for (_, got), (_, want) in zip(traj.snapshots, snaps):
        assert _bits(got.values) == _bits(want.values)
