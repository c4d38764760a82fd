import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow1d import problem, verify
from gradflow1d.dynamics import (
    BLOW_UP,
    CONVERGED,
    STOP_REASONS,
    T_MAX_REACHED,
    DiagnosticSeries,
    StepControl,
    Trajectory,
    run,
)
from gradflow1d.functionals import identity_residual
from gradflow1d.grid import Field, SpatialGrid, read_field_csv, sup_norm, write_field_csv
from gradflow1d.nonlinearity import Nonlinearity
from gradflow1d.tridiag import ImplicitDiffusionSolver


def _fisher(m=64, boundary="periodic"):
    spec = verify.fisher_spec(grid_points=m, boundary=boundary)
    return spec, Nonlinearity(spec, problem.make_grid(spec))


def _zero_reaction(m=64, boundary="periodic", n=2):
    spec = problem.spec_from_dict({
        "N": n,
        "coeffs": ["0"] * n,
        "box_half_length": 5.0,
        "grid_points": m,
        "boundary": boundary,
    })
    return spec, problem.make_grid(spec)


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(dt_init=1e-3, dt_min=1e-2, dt_max=1e-1)
    with pytest.raises(ValueError):
        StepControl(sup_guard=-1.0)
    for field in ("dt_init", "dt_min", "dt_max", "sup_guard", "increment_limit"):
        with pytest.raises(ValueError, match="finite"):
            StepControl(**{field: math.inf})


def _one_step(spec, u, dt, nl):
    """The field after exactly one IMEX step of size dt."""
    ctrl = StepControl(dt_init=dt, dt_min=dt, dt_max=dt, increment_limit=1e9)
    traj = run(spec, u, ctrl, dt, tol_eq=0.0, nl=nl)
    assert traj.steps == 1
    return traj.final_field.values


def test_imex_step_zero_equilibrium():
    spec, g = _zero_reaction()
    nl = Nonlinearity(spec, g)
    u = Field.constant(g, 0.0)
    out = _one_step(spec, u, 1e-2, nl)
    assert np.all(out == 0.0)


def test_imex_step_pure_diffusion_eigenmode():
    # oracle: direct linear algebra; the mode is an eigenvector of the
    # stencil with eigenvalue -(2/h^2)(1 - cos(2 pi h / L))
    _, g = _zero_reaction(m=64)
    k = 2 * math.pi / g.length
    u = Field(g, np.sin(k * g.nodes))
    dt = 0.02
    lam = (2.0 / g.h**2) * (1.0 - math.cos(k * g.h))
    expected = u.values / (1.0 + dt * lam)
    got = ImplicitDiffusionSolver(g, dt, 1.0).solve(u.values.copy())
    assert np.allclose(got, expected, atol=1e-13)


@pytest.mark.parametrize("boundary", ("periodic", "neumann0"))
def test_imex_step_constant_fisher_matches_scalar(boundary):
    # scalar arithmetic oracle: constants see no diffusion
    spec, nl = _fisher(boundary=boundary)
    g = nl.grid
    c = 0.37
    dt = 1e-2
    got = _one_step(spec, Field.constant(g, c), dt, nl)
    expected = c + dt * (c - c * c)
    assert np.allclose(got, expected, atol=1e-14)


def test_run_rejects_forcing_of_wrong_length():
    # a malformed forcing is a caller error, not blow-up evidence
    spec, nl = _fisher()
    ctrl = StepControl()
    with pytest.raises(ValueError):
        run(spec, Field.constant(nl.grid, 0.5), ctrl, 1.0, nl=nl,
            forcing=lambda t: np.zeros(nl.grid.m + 1))


def test_run_rejects_snapshot_stride_below_one():
    spec, nl = _fisher()
    with pytest.raises(ValueError):
        run(spec, Field.constant(nl.grid, 0.5), StepControl(), 1.0, nl=nl,
            snapshot_stride=0)


def test_run_rejects_a_reaction_of_another_spec_or_grid():
    # a reaction built for another spec, or on another grid, is a caller
    # error: it would step an equation the spec does not describe
    spec, nl = _fisher()
    cubic = verify.cubic_spec(grid_points=64)
    coarse, coarse_nl = _fisher(m=32)
    u0 = Field.constant(nl.grid, 0.5)
    for other_spec, other_nl, start in ((cubic, nl, u0), (spec, coarse_nl, u0),
                                        (coarse, coarse_nl, u0)):
        with pytest.raises(ValueError, match="reaction"):
            run(other_spec, start, StepControl(), 1.0, nl=other_nl)


def test_run_halves_dt_when_factorization_fails():
    # at dt ~ 1e15 on neumann0, dpttrf finds the matrix not positive definite
    # in floating point; that halves dt, it raises no exception
    spec, nl = _fisher(m=256, boundary="neumann0")
    u0 = Field.constant(nl.grid, 0.5)
    ctrl = StepControl(dt_init=1e15, dt_max=1e15, increment_limit=1e30,
                       sup_guard=1e300)
    traj = run(spec, u0, ctrl, 1e16, nl=nl)
    assert 0.0 < traj.diagnostics.dt[1] < 1e15
    # the first dt with a factor takes the step; with an increment limit this
    # loose the forward-Euler reaction then escapes, until the increment
    # guard's halvings pass dt_min
    assert traj.status == BLOW_UP
    assert traj.stop_reason == "increment_dt_collapse"
    # halving past dt_min while every factorization fails is blow-up evidence
    ctrl = StepControl(dt_init=1e15, dt_min=1e14, dt_max=1e15,
                       increment_limit=1e30)
    traj = run(spec, u0, ctrl, 1e16, nl=nl)
    assert traj.status == BLOW_UP
    assert traj.steps == 0


def test_fine_grid_fixed_dt_is_not_blow_up():
    # mu = dt/h^2 is about 1e6 here; the solve is backward stable and the
    # run is bounded, so it reaches t_max at the fixed dt
    spec = verify.fisher_spec(grid_points=32768)
    g = problem.make_grid(spec)
    u0 = Field(g, 0.5 + 0.1 * np.sin(0.2 * np.pi * g.nodes))
    traj = run(spec, u0, StepControl(dt_init=0.1, dt_min=0.1, dt_max=0.1), 1.0,
               nl=Nonlinearity(spec, g))
    assert (traj.status, traj.steps) == (T_MAX_REACHED, 10)


def test_dt_reaches_dt_max_on_a_fine_grid():
    # only the increment guard and the doubling rule set dt: nothing caps it
    # below dt_max as M grows
    spec = verify.cubic_spec(grid_points=4096)
    g = problem.make_grid(spec)
    u0 = Field(g, 0.5 * np.sin(0.2 * np.pi * g.nodes))
    traj = run(spec, u0, StepControl(dt_max=1e-2), 1.0, nl=Nonlinearity(spec, g))
    assert traj.status == T_MAX_REACHED
    assert traj.diagnostics.dt.max() == 1e-2
    assert traj.steps == 125


def _blow_up_case(reason):
    """(spec, u0, ctrl, t_max, forcing) of a run that stops for `reason`."""
    spec, g = _zero_reaction(m=16)  # P = -u^2
    fixed = dict(dt_init=1e-3, dt_min=1e-3, dt_max=1e-3)
    if reason == "initial_out_of_range":
        spec, g = _zero_reaction(m=16, n=4)  # (1e100)^4 overflows
        return spec, Field.constant(g, 1e100), StepControl(), 1.0, None
    if reason == "increment_dt_collapse":
        # dt*|P| = 1e-3*1e4 needs dt <= 9e-6, below dt_min
        ctrl = StepControl(dt_init=1e-3, dt_min=1e-4, dt_max=1e-3)
        return spec, Field.constant(g, -100.0), ctrl, 1.0, None
    if reason == "solve_dt_collapse":
        # every factorization fails down to dt_min (see the test above)
        spec, nl = _fisher(m=256, boundary="neumann0")
        ctrl = StepControl(dt_init=1e15, dt_min=1e14, dt_max=1e15,
                           increment_limit=1e30)
        return spec, Field.constant(nl.grid, 0.5), ctrl, 1e16, None
    if reason == "nonfinite_state":
        return (spec, Field.constant(g, 0.5), StepControl(**fixed), 1.0,
                lambda t: np.full(g.m, np.inf))
    if reason == "nonfinite_reaction":
        # P(u0) = -1e204 and Q(u0) are finite; one unguarded step lands
        # near -1e201, where u^2 overflows
        ctrl = StepControl(**fixed, increment_limit=1e300, sup_guard=1e307)
        return spec, Field.constant(g, -1e102), ctrl, 1.0, None
    assert reason == "sup_guard"
    # u' = -u^2 from -1 passes -20 at t = 0.95, long before dt collapses
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-7, dt_max=1e-3, sup_guard=20.0)
    return spec, Field.constant(g, -1.0), ctrl, 2.0, None


@pytest.mark.parametrize("reason", [r for r in STOP_REASONS
                                    if r not in (CONVERGED, T_MAX_REACHED)])
def test_run_names_each_blow_up_cause(reason):
    spec, u0, ctrl, t_max, forcing = _blow_up_case(reason)
    traj = run(spec, u0, ctrl, t_max, nl=Nonlinearity(spec, u0.grid), forcing=forcing)
    assert traj.status == BLOW_UP
    assert traj.stop_reason == reason
    if reason == "sup_guard":
        assert sup_norm(traj.final_field) > 20.0
    else:
        assert traj.steps == (1 if reason == "nonfinite_reaction" else 0)
    summary = traj.summary_dict()
    assert (summary["status"], summary["stop_reason"]) == (BLOW_UP, reason)
    assert (traj.final_time, traj.final_field) == traj.snapshots[-1]


@pytest.mark.parametrize("reason", STOP_REASONS)
def test_status_follows_stop_reason(reason):
    u0 = Field.constant(SpatialGrid(5.0, 8, "periodic"), 0.0)
    traj = Trajectory(snapshots=[(0.0, u0)], diagnostics=DiagnosticSeries(), steps=0,
                      stop_reason=reason)
    assert traj.status == (reason if reason in (CONVERGED, T_MAX_REACHED) else BLOW_UP)
    with pytest.raises(AttributeError):
        traj.status = CONVERGED  # read off stop_reason, never stored


@pytest.mark.parametrize("stride", (1, 10, 32, 64, 10**9))
def test_final_field_is_the_last_snapshot(stride):
    # 64 fixed steps: the end state is appended to the stride snapshots
    # unless one of them was taken at the last step
    spec, nl = _fisher(m=16)
    u0 = Field.constant(nl.grid, 0.5)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-3, dt_max=1e-3)
    traj = run(spec, u0, ctrl, 0.064, tol_eq=0.0, nl=nl, snapshot_stride=stride)
    assert (traj.stop_reason, traj.steps) == (T_MAX_REACHED, 64)
    assert len(traj.snapshots) == 1 + 64 // stride + (64 % stride != 0)
    assert traj.snapshots[0][1] is u0 and traj.snapshots[0] == (0.0, u0)
    assert (traj.final_time, traj.final_field) == traj.snapshots[-1]
    assert traj.final_time == pytest.approx(0.064)
    times = [t for t, _ in traj.snapshots]
    assert times == sorted(set(times))
    # the appended end state is the field a stride of 1 records last
    every = run(spec, u0, ctrl, 0.064, tol_eq=0.0, nl=nl, snapshot_stride=1)
    assert np.array_equal(traj.final_field.values, every.final_field.values)


def test_run_converges_immediately_at_equilibrium():
    spec, nl = _fisher()
    ctrl = StepControl()
    u0 = Field.constant(nl.grid, 1.0)
    traj = run(spec, u0, ctrl, 5.0, nl=nl)
    assert traj.status == CONVERGED
    assert traj.stop_reason == CONVERGED
    assert traj.steps == 0
    assert traj.diagnostics.ut_sup[0] == 0.0
    assert traj.snapshots == [(0.0, u0)]
    assert traj.final_field is u0


def test_run_logistic_converges_to_one():
    # oracle: the logistic flow from 0.5 tends to 1
    spec, nl = _fisher(m=64)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-2)
    traj = run(spec, Field.constant(nl.grid, 0.5), ctrl, 40.0, nl=nl)
    assert traj.status == CONVERGED
    assert sup_norm(Field(nl.grid, traj.final_field.values - 1.0)) < 1e-6


def test_run_blowup_negative_quadratic():
    # oracle: u' = -u^2 from -1 gives u(t) = -1/(1-t), blow-up at t* = 1
    spec, g = _zero_reaction(m=16)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-7, dt_max=1e-3)
    traj = run(spec, Field.constant(g, -1.0), ctrl, 2.0, nl=Nonlinearity(spec, g))
    assert traj.status == BLOW_UP
    assert abs(traj.final_time - 1.0) <= 0.05
    assert traj.escape_sign == -1


def test_run_tmax_reached():
    spec, nl = _fisher(m=64)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    traj = run(spec, Field.constant(nl.grid, 0.5), ctrl, 0.5, nl=nl)
    assert traj.status == T_MAX_REACHED
    assert traj.stop_reason == T_MAX_REACHED
    assert traj.final_time == pytest.approx(0.5, abs=1e-9)


def test_run_deterministic_bit_identical():
    spec, nl = _fisher(m=64)
    rng = np.random.default_rng(5)
    u0 = Field(nl.grid, 0.5 + 0.1 * rng.standard_normal(nl.grid.m))
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-2)
    t1 = run(spec, u0, ctrl, 2.0, nl=nl)
    t2 = run(spec, u0, ctrl, 2.0, nl=nl)
    assert t1.status == t2.status
    assert np.array_equal(t1.final_field.values, t2.final_field.values)
    assert np.array_equal(t1.diagnostics.action, t2.diagnostics.action)
    assert np.array_equal(t1.diagnostics.energy_cum, t2.diagnostics.energy_cum)


def test_no_nonconstant_time_periodic_orbits():
    # near-identical snapshots at different times only occur at equilibrium
    spec, nl = _fisher(m=64)
    rng = np.random.default_rng(2)
    u0 = Field(nl.grid, 0.4 + 0.3 * verify.random_smooth_field(nl.grid, rng).values)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-2)
    traj = run(spec, u0, ctrl, 30.0, nl=nl, snapshot_stride=16)
    d = traj.diagnostics
    t_to_ut = dict(zip(d.t, d.ut_sup))
    snaps = traj.snapshots
    for i in range(len(snaps)):
        for j in range(i + 1, len(snaps)):
            ti, ui = snaps[i]
            tj, uj = snaps[j]
            if float(np.max(np.abs(ui.values - uj.values))) < 1e-10:
                assert t_to_ut[ti] < 1e-8


def test_even_degree_blowup_escapes_downward():
    # the leading -u^N with N even pushes escapes through u -> -infinity
    spec, g = _zero_reaction(m=16, n=2)
    for c in (-0.5, -1.0, -2.0):
        ctrl = StepControl(dt_init=1e-3, dt_min=1e-7, dt_max=1e-3)
        traj = run(spec, Field.constant(g, c), ctrl, 5.0, nl=Nonlinearity(spec, g))
        assert traj.status == BLOW_UP
        assert traj.escape_sign == -1


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from((2, 4)),
       coeffs=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
       m=st.integers(8, 32),
       boundary=st.sampled_from(("periodic", "dirichlet0", "neumann0")),
       seed=st.integers(0, 2**31))
def test_blow_up_from_negative_data_keeps_the_energy_identity(n, coeffs, m,
                                                              boundary, seed):
    # even N with leading -u^N escapes downward from data near -1.5; the
    # state-scaled increment guard keeps the stepped energy identity within
    # the first-order IMEX error on the way up
    spec = problem.spec_from_dict({
        "N": n, "coeffs": [repr(c) for c in coeffs[:n]], "box_half_length": 5.0,
        "grid_points": m, "boundary": boundary})
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    shape = verify.random_smooth_field(g, np.random.default_rng(seed)).values
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-7, dt_max=1e-3)
    traj = run(spec, Field(g, -1.5 + 0.5 * shape), ctrl, 2.0, nl=nl)
    assert (traj.status, traj.escape_sign) == (BLOW_UP, -1)
    assert verify.monotonicity_violations(traj) == 0
    # 1% of max(L/6, |E|), plus the IMEX defect: per step, energy addend
    # minus action gain is at most (4*mu + min(1, 4*mu)^2) times the addend,
    # mu = dt/h^2, with P' aside
    energy = abs(float(traj.diagnostics.energy_cum[-1]))
    mu = float(traj.diagnostics.dt.max()) / g.h**2
    bound = (0.01 * max(g.length / 6.0, energy)
             + (4.0 * mu + min(1.0, 4.0 * mu) ** 2) * energy)
    assert identity_residual(traj, nl) <= bound


def test_odd_degree_runs_stay_bounded():
    # comparison guard: cubic runs from bounded data never blow up
    spec = verify.cubic_spec(grid_points=64)
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    rng = np.random.default_rng(31)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-2)
    for _ in range(5):
        u0 = Field(g, 3.0 * rng.standard_normal(g.m) / 3.0)
        traj = run(spec, u0, ctrl, 5.0, nl=nl)
        assert traj.status in (CONVERGED, T_MAX_REACHED)


def test_snapshot_stride_and_endpoints():
    spec, nl = _fisher(m=64)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    traj = run(spec, Field.constant(nl.grid, 0.5), ctrl, 0.1, nl=nl,
               snapshot_stride=10)
    times = [t for t, _ in traj.snapshots]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(traj.final_time)
    assert len(times) == 1 + traj.steps // 10 + (1 if traj.steps % 10 else 0)


def test_trajectory_outputs(tmp_path):
    spec, nl = _fisher(m=64)
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    traj = run(spec, Field.constant(nl.grid, 0.5), ctrl, 0.05, nl=nl)
    traj.write_outputs(tmp_path, traj.summary_dict())
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,dt,sup_norm,action,energy_cum,ut_sup"
    assert len(diag) == len(traj.diagnostics) + 1
    assert (tmp_path / "run_summary.json").exists()
    # times at least 1e-6 apart keep the six-decimal names
    assert (sorted(p.name for p in tmp_path.glob("snap_*"))
            == sorted(f"snap_{t:.6f}.csv" for t, _ in traj.snapshots))


def test_snapshots_less_than_1e6_apart_get_their_own_files(tmp_path):
    # 30 steps of 1e-7 at stride 1: 31 snapshots share four six-decimal
    # times, so `snap_{t:.6f}.csv` alone wrote 4 files and overwrote 27
    spec, nl = _fisher(m=16)
    ctrl = StepControl(dt_init=1e-7, dt_min=1e-7, dt_max=1e-7)
    traj = run(spec, Field.constant(nl.grid, 0.5), ctrl, 3e-6, nl=nl, snapshot_stride=1)
    assert len(traj.snapshots) == 31
    assert len({f"{t:.6f}" for t, _ in traj.snapshots}) == 4
    traj.write_outputs(tmp_path, traj.summary_dict())
    for k, (t, field) in enumerate(traj.snapshots):
        name = f"snap_{t:.6f}.csv"
        if k and f"{traj.snapshots[k - 1][0]:.6f}" == f"{t:.6f}":
            name = f"snap_{t:.6f}_{k}.csv"
        assert np.array_equal(read_field_csv(tmp_path / name)[1], field.values), name
    assert len(list(tmp_path.glob("snap_*"))) == 31


def test_recorded_fields_do_not_share_the_step_buffers():
    # run reuses its arrays from step to step: every snapshot, the first one
    # and final_field must be a copy that later steps leave alone
    spec, nl = _fisher(m=32, boundary="neumann0")
    g = nl.grid
    u0 = Field(g, 0.5 + 0.3 * verify.random_smooth_field(g, np.random.default_rng(3)).values)
    before = u0.values.tobytes()
    ctrl = StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    traj = run(spec, u0, ctrl, 0.04, nl=nl, snapshot_stride=1)
    assert traj.snapshots[0][1] is u0 and u0.values.tobytes() == before
    fields = [f for _, f in traj.snapshots]
    assert len(fields) == traj.steps + 1 == 41
    assert traj.final_field is fields[-1]
    # each snapshot still holds the state whose sup norm its row recorded
    assert [sup_norm(f) for f in fields] == list(traj.diagnostics.sup_norm)
    assert len({f.values.tobytes() for f in fields}) == len(fields)
    # and equals the same snapshot of a shorter run, which stops stepping
    # before the later steps of this one
    short = run(spec, u0, ctrl, 0.0205, nl=nl, snapshot_stride=1)
    for (t, got), (t_short, want) in zip(traj.snapshots[:21], short.snapshots[:21]):
        assert t == t_short and got.values.tobytes() == want.values.tobytes()


_AWKWARD = (-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3)


@pytest.mark.parametrize("rows", (0, 1, 1023, 1024, 1025))
def test_csv_writers_match_the_f_string_format(tmp_path, rows):
    # the writers format blocks of grid.CSV_BLOCK_ROWS (256) rows with one
    # `%`; every value must keep the bytes of the per-value f"{value:.17g}"
    # they replaced, on both sides of the block edges
    def value(i):
        return (-1) ** (i // 5) * _AWKWARD[i % 5]

    diag = DiagnosticSeries()
    for c, add in enumerate(diag.appenders()):
        for i in range(rows):
            add(value(i + c))
    for add, extra in zip(diag.appenders(), (math.inf, -math.inf, math.nan, 0.0, 1.0, 2.0)):
        add(extra)
    diag.write_csv(tmp_path / "diagnostics.csv")
    want = "t,dt,sup_norm,action,energy_cum,ut_sup\n" + "".join(
        ",".join(f"{getattr(diag, c)[i].item():.17g}" for c in DiagnosticSeries.COLUMNS) + "\n"
        for i in range(rows + 1))
    assert (tmp_path / "diagnostics.csv").read_text() == want
    if rows < 8:
        return  # a grid has at least 8 nodes
    g = SpatialGrid(5.0, rows, "dirichlet0")
    field = Field(g, [value(i) for i in range(rows)])
    write_field_csv(field, tmp_path / "snap.csv")
    want = "x,u\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(g.nodes, field.values))
    assert (tmp_path / "snap.csv").read_text() == want


def test_mms_zero_solution_zero_error():
    spec = verify.fisher_spec(grid_points=16)
    errors = verify.mms_errors(spec, "0", "1", 1, dt0=0.01, t_final=0.05)
    assert errors == [0.0, 0.0]


def test_mms_tanh_manufactured():
    # neumann-friendly slow front shape; spatially dominated ladder
    spec = verify.fisher_spec(grid_points=31, boundary="dirichlet0")
    errors = verify.mms_errors(spec, f"cos({math.pi / 10.0!r}*x)*tanh(x)", "1+x",
                               2, dt0=1e-4, t_final=0.1)
    assert len(errors) == 3 and all(map(math.isfinite, errors))
    assert 1.7 <= verify.observed_order(errors) <= 2.3
