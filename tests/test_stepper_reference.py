"""`dynamics.run` against a reference stepper, bit for bit.

`reference_run` is the earlier form of the IMEX loop in `dynamics.run`: a
`Field` per step, LAPACK `dpttrs` on the solver's L D L^T factor with a
copied right-hand side and the periodic border of node 0 written out (its
Schur complement and border column taken from the solver), the Laplacian
built with `np.concatenate`, an explicit finite check of the right-hand side
(`run` lets the solve carry a non-finite one into x), the Dirichlet energy
and the energy addend written here with one-field `np.add.reduce`, and every
diagnostic and stop test taken at once after each step (`run` takes them
per block of states, and its steps' own tests too, retaking a block step
by step where one would have fired).  `run` must reproduce every recorded
number exactly, so any reordering of floating-point work in the lean loop
shows up here.  The explicit examples end a run on the first, the
second-to-last and the last row of a block and just past it, for each stop
that a block flush or a step decides, and have the increment guard first
halve dt on those steps; more fire each of a step's tests in the middle of
a block that `run` takes untested.

The increment guard of the reference, dt*sup|P(u)| <= 0.9*increment_limit
*max(1, sup|u|/scale_u), takes its threshold as a parameter: at
scale_u = inf it is the earlier absolute guard, which a run whose sup|u|
never passes INCREMENT_SCALE_U must match too.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrs

from gradflow1d import dynamics, problem, verify
from gradflow1d.dynamics import (
    BLOW_UP,
    CONVERGED,
    T_MAX_REACHED,
    DiagnosticSeries,
    StepControl,
    run,
)
from gradflow1d.grid import Field, sup_norm
from gradflow1d.nonlinearity import Nonlinearity, RangeOverflowError
from gradflow1d.tridiag import ImplicitDiffusionSolver

RUNNING = "running"  # the reference loop's status until a stop
INCREMENT_SCALE_U = 18.0  # sup|u| above which the increment limit grows with it


def _laplacian(values, g):
    if g.boundary == "periodic":
        e = np.concatenate((values[-1:], values, values[:1]))
    elif g.boundary == "dirichlet0":
        e = np.concatenate(((0.0,), values, (0.0,)))
    else:
        e = np.concatenate((values[:1], values, values[-1:]))
    return (e[:-2] - 2.0 * values + e[2:]) / g.h**2


def _solve(s, rhs):
    if s.grid.boundary != "periodic":
        y, info = dpttrs(s._d, s._e, rhs)
        assert info == 0
        return y
    g, info = dpttrs(s._d, s._e, rhs[1:])
    assert info == 0
    x0 = (rhs[0] + s._mu * (g[0] + g[-1])) / s._schur
    return np.concatenate(((x0,), g + s._w * (s._mu * x0)))


def _action(nl, u):
    """The action of u: the forward-difference Dirichlet energy and the node
    sum of Q, each part tested for a non-finite value."""
    v, g = u.values, u.grid
    with np.errstate(over="ignore", invalid="ignore"):
        if g.boundary == "periodic":
            d = np.roll(v, -1) - v
        elif g.boundary == "dirichlet0":
            d = np.diff(np.concatenate(((0.0,), v, (0.0,))))
        else:
            d = np.diff(v)
        dir_part = 0.5 * float(np.add.reduce(d * d)) / g.h
        q = nl.potential_unchecked(v, np.empty(g.m), np.empty(g.m))
        pot_part = g.h * float(np.add.reduce(q))
    if not (math.isfinite(dir_part) and math.isfinite(pot_part)):
        raise RangeOverflowError("non-finite action part")
    return -dir_part + pot_part


def _energy_addend(before, after, resid, dt, h):
    with np.errstate(over="ignore", invalid="ignore"):
        udot = (after - before) / dt
        return 0.5 * dt * h * (float(np.add.reduce(udot * udot))
                               + float(np.add.reduce(resid * resid)))


def _extreme_sign(u):
    v = u.values
    i = int(np.argmax(np.abs(v)))
    return int(np.sign(v[i])) if v[i] != 0 else 0


def reference_run(u0, nl, ctrl, t_max, tol_eq, forcing, snapshot_stride,
                  scale_u=INCREMENT_SCALE_U):
    """(diagnostics, snapshots, status, final_field, final_time, steps,
    escape_sign, stop_reason)."""
    g = u0.grid
    solvers = {}
    diag = DiagnosticSeries()
    columns = diag.columns()

    def record(*row):
        for column, value in zip(columns, row):
            column.append(value)

    snaps = [(0.0, u0)]
    u, t, dt, energy, steps, smooth = u0, 0.0, ctrl.dt_init, 0.0, 0, 0
    status, escape_sign, reason = RUNNING, 0, ""
    limit = 0.9 * ctrl.increment_limit

    def reaction_and_residual(f):
        p = nl.apply_P_values(f.values)
        return p, _laplacian(f.values, g) + p

    try:
        p_now, resid_now = reaction_and_residual(u)
        a_now = _action(nl, u)
    except RangeOverflowError:
        return (diag, [(0.0, u0)], BLOW_UP, u0, 0.0, 0, _extreme_sign(u0),
                "initial_out_of_range")
    ut_sup = float(np.max(np.abs(resid_now)))
    record(0.0, 0.0, sup_norm(u), a_now, energy, ut_sup)
    if ut_sup < tol_eq:
        status = reason = CONVERGED

    t_end_tol = 1e-12 * max(1.0, t_max)
    while status == RUNNING:
        if t >= t_max - t_end_tol:
            status = reason = T_MAX_REACHED
            break
        dt = min(dt, t_max - t)
        p_sup = float(np.max(np.abs(p_now)))
        cap = limit * max(1.0, sup_norm(u) / scale_u)
        while dt * p_sup > cap:
            dt *= 0.5
            smooth = 0
            if dt < ctrl.dt_min:
                status, escape_sign = BLOW_UP, _extreme_sign(u)
                reason = "increment_dt_collapse"
                break
        if status != RUNNING:
            break
        # a factorization that fails halves dt; a solver for a dt met before
        # is reused
        while dt not in solvers:
            try:
                solvers[dt] = ImplicitDiffusionSolver(g, dt, 1.0)
            except np.linalg.LinAlgError:
                dt *= 0.5
                smooth = 0
                if dt < ctrl.dt_min:
                    status, escape_sign = BLOW_UP, _extreme_sign(u)
                    reason = "solve_dt_collapse"
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
        x = _solve(solvers[dt], rhs)
        if not np.all(np.isfinite(x)):
            status, escape_sign = BLOW_UP, _extreme_sign(u)
            reason = "nonfinite_state"
            break
        u_next = Field(g, x)
        energy += _energy_addend(u.values, u_next.values, resid_now, dt, g.h)
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
            a_now = _action(nl, u)
        except RangeOverflowError:
            status, escape_sign = BLOW_UP, _extreme_sign(u)
            reason = "nonfinite_reaction"
            break
        ut_sup = float(np.max(np.abs(resid_now)))
        record(t, dt, sup_u, a_now, energy, ut_sup)
        if steps % snapshot_stride == 0:
            snaps.append((t, u))
        if ut_sup < tol_eq:
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
        # above M = 128 numpy's pairwise sum splits its blocks and the
        # solves are longer: paths that small grids never reach
        "grid_points": draw(st.integers(8, 64) | st.sampled_from((256, 2048))),
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
    tol_eq = draw(st.sampled_from((1e-8, 1.0)))
    return spec, u0, ctrl, t_max, tol_eq, forcing, draw(st.sampled_from((1, 7, 64)))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# 30 cases in a tier-1 run; a profile that asks for more than hypothesis's
# default of 100 examples (ci-deep in tests/conftest.py) sets the count
_EXAMPLES = settings.default.max_examples if settings.default.max_examples > 100 else 30


def _assert_run_matches_reference(spec, u0, ctrl, t_max, tol_eq, forcing, stride,
                                  scale_u=INCREMENT_SCALE_U):
    nl = Nonlinearity(spec, u0.grid)
    diag, snaps, status, final, t, steps, sign, reason = reference_run(
        u0, nl, ctrl, t_max, tol_eq, forcing, stride, scale_u)
    traj = run(spec, u0, ctrl, t_max, tol_eq, forcing=forcing,
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
    return traj


def _blow_up_example():
    # u' = -u^2 from -1 on M = 16: sup|u| passes INCREMENT_SCALE_U near
    # t = 0.95 and the scaled guard carries the run on to dt collapse
    spec = problem.spec_from_dict({"N": 2, "coeffs": ["0", "0"],
                                   "box_half_length": 5.0, "grid_points": 16,
                                   "boundary": "periodic"})
    u0 = Field.constant(problem.make_grid(spec), -1.0)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-5, dt_max=1e-3)
    return spec, u0, ctrl, 2.0, 1e-8, None, 64


def _block_rows(m):
    """K, the rows of `run`'s block of states beyond the carried one."""
    return max(1, min(dynamics._BLOCK_ROWS, dynamics._BLOCK_VALUES // m))


def _ending(reason, steps, m=16, forcing=None):
    """A case whose run ends by `reason` after `steps` steps at fixed dt,
    its threshold read off a longer reference run: tol_eq between two rows
    of a Fisher relaxation's falling ut_sup (converged), t_max at that many
    steps (t_max_reached), sup_guard between two rows of u' = -u^2's rising
    sup|u| (sup_guard), or an initial state that many steps before the node
    sum of Q = -u^3/3 overflows while P = -u^2 stays finite
    (nonfinite_reaction; initial_out_of_range at step 0)."""
    def case(coeffs, u0, dt, **ctrl):
        spec = problem.spec_from_dict({"N": 2, "coeffs": coeffs, "box_half_length": 5.0,
                                       "grid_points": m, "boundary": "periodic"})
        g = problem.make_grid(spec)
        return (spec, Field(g, u0(g)), StepControl(dt_init=dt, dt_min=dt, dt_max=dt, **ctrl),
                1e3, 0.0, forcing, 7)

    def reference(spec, u0, ctrl, t_max, tol_eq, forcing, stride):
        return reference_run(u0, Nonlinearity(spec, u0.grid), ctrl, t_max, tol_eq,
                             forcing, stride)

    if reason in (CONVERGED, T_MAX_REACHED):
        spec, u0, ctrl, _, _, _, stride = c = case(
            ["0", "1"], lambda g: 1.0 + 0.2 * np.cos(2.0 * np.pi * g.nodes / g.length), 1e-2)
        t_max = steps * 1e-2 if steps else 1e-13  # t_end < 0 stops at step 0
        tol_eq = 0.0
        if reason == CONVERGED:
            ut = reference(*c[:3], (steps + 1) * 1e-2, 0.0, forcing, stride)[0].ut_sup
            assert np.all(np.diff(ut) < 0)
            tol_eq = 2.0 * ut[0] if steps == 0 else 0.5 * (ut[steps - 1] + ut[steps])
            t_max = 1e3
        c = (spec, u0, ctrl, t_max, tol_eq, forcing, stride)
    elif reason == "sup_guard":
        c = case(["0", "0"], lambda g: np.full(g.m, -1.0), 1e-3)
        sup = reference(*c)[0].sup_norm
        guard = 0.5 * (sup[steps - 1] + sup[steps])
        c = case(["0", "0"], lambda g: np.full(g.m, -1.0), 1e-3, sup_guard=guard)
    else:
        growth = dict(increment_limit=1e300, sup_guard=1e307)
        c = case(["0", "0"], lambda g: np.full(g.m, -1e102), 1e-105, **growth)
        _, snaps, *_, total, _, why = reference(*c[:6], 1)
        assert why == "nonfinite_reaction" and total >= steps
        start = snaps[total - steps][1].values
        c = case(["0", "0"], lambda g: start, 1e-105, **growth)
    got = reference(*c)
    assert (got[5], got[7]) == (steps, reason if steps or reason != "nonfinite_reaction"
                                else "initial_out_of_range"), (reason, steps)
    return c


def _forced(reason, steps, m=16):
    """The Fisher relaxation of `_ending` at fixed dt, forced from a time
    read off the reference run: by inf from the step off state `steps` on
    (nonfinite_state after `steps` steps), or by -1e162 from the step before
    it on, which throws state `steps` near -1e160, where P = u - u^2
    overflows (nonfinite_reaction; sup_guard is above that)."""
    spec, u0, ctrl, _, _, _, stride = _ending(T_MAX_REACHED, steps + 2, m)
    ts = reference_run(u0, Nonlinearity(spec, u0.grid), ctrl, (steps + 2) * 1e-2, 0.0,
                       None, stride)[0].t
    push = steps if reason == "nonfinite_state" else steps - 1  # the first forced step
    start = 0.5 * (ts[push - 1] + ts[push]) if push else -1.0
    value = np.inf if reason == "nonfinite_state" else -1e162

    def forcing(t):
        return np.full(m, value if t >= start else 0.0)

    ctrl = StepControl(dt_init=1e-2, dt_min=1e-2, dt_max=1e-2, sup_guard=1e300)
    c = (spec, u0, ctrl, 1e3, 0.0, forcing, stride)
    got = reference_run(u0, Nonlinearity(spec, u0.grid), *c[2:])
    assert (got[5], got[7]) == (steps, reason), (reason, steps)
    return c


def _guarded(steps, end=None, m=16):
    """u' = -u^2 from -1 at dt 1e-3, with the increment limit read off the
    reference run so that the guard first halves dt on the step off state
    `steps` (dt*max|P| grows with |u|): below dt_min at once
    (increment_dt_collapse) when end is None, else on, halving again as |P|
    grows, to t_max at step `end`."""
    spec = problem.spec_from_dict({"N": 2, "coeffs": ["0", "0"], "box_half_length": 5.0,
                                   "grid_points": m, "boundary": "periodic"})
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    u0 = Field.constant(g, -1.0)
    loose = StepControl(dt_init=1e-3, dt_min=1e-3, dt_max=1e-3, increment_limit=1e300)
    _, snaps, *_ = reference_run(u0, nl, loose, (steps + 2) * 1e-3, 0.0, None, 1)
    # the guard's dt*max|P| / max(1, max|u|/scale) on each state
    ratio = [1e-3 * np.abs(nl.apply_P_values(f.values)).max()
             / max(1.0, sup_norm(f) / INCREMENT_SCALE_U) for _, f in snaps[:steps + 1]]
    below = max(ratio[:steps], default=0.5 * ratio[0])
    assert below < ratio[steps]
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-3 if end is None else 1e-7, dt_max=1e-3,
                       increment_limit=0.5 * (below + ratio[steps]) / 0.9)
    t_max = 2.0
    if end is not None:  # dt <= 1e-3, so this passes step `end`
        longer = reference_run(u0, nl, ctrl, end * 1e-3, 0.0, None, 7)[0]
        t_max = longer.t[end]
    c = (spec, u0, ctrl, t_max, 0.0, None, 7)
    got = reference_run(u0, nl, *c[2:])
    dt = got[0].dt
    assert got[5] == (steps if end is None else end)
    assert got[7] == ("increment_dt_collapse" if end is None else T_MAX_REACHED)
    assert end is None or (np.all(dt[1:steps + 1] == 1e-3) and dt[steps + 1] == 5e-4)
    return c


def _factor_fails_under_the_guard():
    """u = 0, P = a_0 = 1e-60, neumann0, M = 16: dt = 2^51 factors and 2^52
    does not (mu near 1e16; see test_run_matches_reference_when_factorization_fails).
    After ten steps at 2^51 dt doubles to 2^52 mid-block; the guard, tested
    first, halves it back, so the dt column never shows it.  The solves'
    rounding noise grows 8-fold a step, and u^2 stays far below a_0 up to
    t_max at step 12."""
    spec = problem.spec_from_dict({"N": 2, "coeffs": ["1e-60", "0"], "box_half_length": 5.0,
                                   "grid_points": 16, "boundary": "neumann0"})
    u0 = Field.constant(problem.make_grid(spec), 0.0)
    dt = 2.0**51
    ctrl = StepControl(dt_init=dt, dt_min=1e-9, dt_max=2 * dt,
                       increment_limit=1.5 * dt * 1e-60 / 0.9)
    with pytest.raises(np.linalg.LinAlgError):
        ImplicitDiffusionSolver(u0.grid, 2 * dt, 1.0)
    c = (spec, u0, ctrl, 12 * dt, 0.0, None, 7)
    got = reference_run(u0, Nonlinearity(spec, u0.grid), *c[2:])
    assert (got[5], got[7]) == (12, T_MAX_REACHED) and np.all(got[0].dt[1:] == dt)
    return c


def _reaction_overflow(steps, m=16):
    """P = 1.79e308 + 1e308*u - u^2 from u = 0.006 at the subnormal dt =
    1e-5/1.79e308: u climbs about 1e-5 a step until P overflows near
    u = 0.0077, while Q, about 1.79e308*u, stays finite.  Started `steps`
    states before that, the run ends as nonfinite_reaction from P alone."""
    def case(u0):
        spec = problem.spec_from_dict({"N": 2, "coeffs": ["1.79e308", "1e308"],
                                       "box_half_length": 5.0, "grid_points": m,
                                       "boundary": "periodic"})
        g = problem.make_grid(spec)
        dt = 1e-5 / 1.79e308
        return (spec, Field(g, np.broadcast_to(u0, g.m)),
                StepControl(dt_init=dt, dt_min=dt, dt_max=dt), 1e3, 0.0, None, 7)

    spec, u0, *rest = case(0.006)
    nl = Nonlinearity(spec, u0.grid)
    _, snaps, *_, total, _, why = reference_run(u0, nl, *rest[:4], 1)
    assert why == "nonfinite_reaction" and total >= steps
    c = case(snaps[total - steps][1].values)
    got = reference_run(c[1], nl, *c[2:])
    assert (got[5], got[7]) == (steps, "nonfinite_reaction")
    _action(nl, got[3])  # Q of the end state is finite
    return c


_K16 = _block_rows(16)
_EDGES = (_K16 - 1, _K16, _K16 + 1, 2 * _K16)  # and the first row
_BLOCK_EDGE_EXAMPLES = [
    *(_ending(reason, steps)
      for reason in (CONVERGED, T_MAX_REACHED, "sup_guard", "nonfinite_reaction")
      for steps in (1 if reason == "sup_guard" else 0, *_EDGES)),
    *(_forced("nonfinite_state", steps) for steps in (0, *_EDGES)),
    *(_guarded(steps, steps + 20) for steps in (0, *_EDGES)),
]
# each test of a step firing in the middle of a block that run takes
# untested and then retakes step by step (the block edges above have the
# guard halve on the first and last step of a block and off the carried
# row 0): a guard halving, each blow-up a step decides, a factorization that
# fails where the guard halves too, and t_max in the block after a retake;
# then P overflowing with Q finite on the last row of a block, where only
# the flush's finite test of P sees it
_MID_BLOCK_EXAMPLES = [
    _guarded(_K16 // 2, _K16 // 2 + 20),
    _guarded(_K16 // 2),
    _ending("sup_guard", _K16 // 2),
    _forced("nonfinite_state", _K16 // 2),
    _forced("nonfinite_reaction", _K16 // 2),
    _factor_fails_under_the_guard(),
    _guarded(_K16 // 2, _K16 + _K16 // 2),
    _reaction_overflow(_K16),
]


def _block_edges(test):
    for case in _BLOCK_EDGE_EXAMPLES + _MID_BLOCK_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=_EXAMPLES, deadline=None)
@given(_cases())
@example(_blow_up_example())
@_block_edges
def test_run_matches_reference_stepper_bit_for_bit(case):
    traj = _assert_run_matches_reference(*case)
    if traj.diagnostics.sup_norm.max(initial=0.0) <= INCREMENT_SCALE_U:
        # the guard never scaled: the absolute guard gives the same bits
        _assert_run_matches_reference(*case, scale_u=math.inf)


@pytest.mark.parametrize("u, dt_min, reason", (
    # the first dt whose factorization succeeds takes the step; with an
    # increment limit this loose the reaction then escapes
    (0.5, 1e-9, "increment_dt_collapse"),
    # u = 0 stays put: every doubling fails to factor again, and the halved
    # dt reuses its solver
    (0.0, 1e-9, T_MAX_REACHED),
    # every factorization fails until dt passes dt_min
    (0.5, 1e14, "solve_dt_collapse"),
))
def test_run_matches_reference_when_factorization_fails(u, dt_min, reason):
    # at dt ~ 1e15 on neumann0, M = 256, dpttrf finds the step matrix not
    # positive definite in floating point
    spec = verify.fisher_spec(grid_points=256, boundary="neumann0")
    u0 = Field.constant(problem.make_grid(spec), u)
    ctrl = StepControl(dt_init=1e15, dt_min=dt_min, dt_max=1e15,
                       increment_limit=1e30, sup_guard=1e300)
    traj = _assert_run_matches_reference(spec, u0, ctrl, 1e16, 0.0, None, 64)
    assert traj.stop_reason == reason
    if reason == "solve_dt_collapse":
        assert traj.steps == 0
    else:
        assert traj.steps > 0 and 0.0 < traj.diagnostics.dt[1] < 1e15


@pytest.mark.parametrize("reason, steps", ((CONVERGED, 2), (T_MAX_REACHED, 3)))
def test_run_matches_reference_with_one_row_per_block(reason, steps):
    # at M = 16384 the block holds one state beyond the carried one, so every
    # step flushes
    assert _block_rows(16384) == 1
    _assert_run_matches_reference(*_ending(reason, steps, m=16384))


@pytest.mark.parametrize("reason", (CONVERGED, "nonfinite_reaction"))
def test_run_ending_mid_block_keeps_nothing_past_its_end(reason, monkeypatch):
    # the flush finds the end up to K - 1 steps after it was taken: the
    # snapshots are the reference's, a Field is built only for a kept
    # snapshot, and the discarded steps call forcing at t <= t_max only
    m = 16
    steps = _K16 // 2
    times = []

    def forcing(t):
        times.append(t)
        return np.zeros(m)

    spec, u0, ctrl, t_max, tol_eq, _, stride = _ending(reason, steps, forcing=forcing)
    if reason == CONVERGED:
        t_max = (steps + 3) * ctrl.dt_init  # the steps past the end stop at t_max
    built = []

    def counted_field(grid, values):
        built.append(len(values))
        return Field(grid, values)

    monkeypatch.setattr(dynamics, "Field", counted_field)
    times.clear()
    traj = _assert_run_matches_reference(spec, u0, ctrl, t_max, tol_eq, forcing, stride)
    assert traj.stop_reason == (reason if steps else "initial_out_of_range")
    assert traj.steps == steps
    assert len(built) == len(traj.snapshots) - 1  # u0 is the caller's
    assert max(times) <= t_max
    if reason == CONVERGED:
        assert max(times) > traj.final_time  # steps were taken past the end
