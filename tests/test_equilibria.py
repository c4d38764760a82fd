import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradflow1d import exprlang, problem, verify
from gradflow1d.equilibria import (
    Equilibrium,
    NewtonNoConvergenceError,
    NonConstantCoefficientsError,
    PowerIterationError,
    SingularJacobianError,
    classify_boundedness,
    constant_equilibria,
    nearest,
    newton_refine,
    real_polynomial_roots,
    shoot,
    unstable_direction,
)
from gradflow1d.grid import BOUNDARIES, Field, laplacian_values
from gradflow1d.nonlinearity import Nonlinearity, horner


def _nl(spec, **kw):
    return Nonlinearity(spec, problem.make_grid(spec), **kw)


def _fisher_box(half, grid_points, boundary):
    """verify.fisher_spec's reaction on the box [-half, half]."""
    data = problem.spec_to_dict(verify.fisher_spec(grid_points=grid_points,
                                                   boundary=boundary))
    return problem.spec_from_dict({**data, "box_half_length": half})


@pytest.fixture
def fisher():
    return _nl(verify.fisher_spec(grid_points=64))


@pytest.fixture
def cubic():
    return _nl(verify.cubic_spec(grid_points=64))


# -- polynomial roots ---------------------------------------------------------


def test_roots_quadratic():
    # p(c) = c - c^2
    assert real_polynomial_roots([0.0, 1.0, -1.0]) == pytest.approx([0.0, 1.0])


def test_roots_cubic_symmetric():
    got = real_polynomial_roots([0.0, 1.0, 0.0, -1.0])
    assert got == pytest.approx([-1.0, 0.0, 1.0])


def test_roots_double_root():
    got = real_polynomial_roots([0.0, 0.0, -1.0])
    assert got == pytest.approx([0.0], abs=1e-12)


def test_roots_tiny_constant_is_no_double_root():
    # -5e-324 - c^2 < 0 everywhere; an absolute floor on the critical-point
    # test used to accept c = 0
    assert real_polynomial_roots([-5e-324, 0.0, -1.0]) == []


def test_roots_random_polynomials_vs_numpy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        deg = rng.integers(2, 6)
        coeffs = rng.standard_normal(deg + 1)
        coeffs[-1] = np.sign(coeffs[-1]) * max(abs(coeffs[-1]), 0.3)
        got = real_polynomial_roots(list(coeffs))
        all_roots = np.roots(coeffs[::-1])
        expected = sorted(
            float(r.real) for r in all_roots if abs(r.imag) < 1e-9
        )
        merged = []
        for r in expected:
            if not merged or abs(r - merged[-1]) > 1e-8:
                merged.append(r)
        assert len(got) == len(merged), (coeffs, got, merged)
        for a, b in zip(got, merged):
            assert a == pytest.approx(b, abs=1e-7)


# -- constant equilibria -------------------------------------------------------


def test_constant_catalog_fisher(fisher):
    eqs = constant_equilibria(fisher)
    vals = [float(e.field.values[0]) for e in eqs]
    assert vals == pytest.approx([0.0, 1.0], abs=1e-12)
    assert all(e.residual < 1e-10 for e in eqs)
    assert all(e.source == "constant" for e in eqs)
    assert all(math.isfinite(e.action) for e in eqs)


def test_constant_catalog_cubic(cubic):
    eqs = constant_equilibria(cubic)
    vals = [float(e.field.values[0]) for e in eqs]
    assert vals == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_constant_catalog_double_root():
    nl = _nl(problem.spec_from_dict({
        "N": 2, "coeffs": ["0", "0"], "box_half_length": 5.0, "grid_points": 16,
    }))
    vals = [float(e.field.values[0]) for e in constant_equilibria(nl)]
    assert vals == pytest.approx([0.0], abs=1e-12)


def test_constant_requires_constant_coefficients():
    nl = _nl(problem.spec_from_dict({
        "N": 2, "coeffs": ["0", "exp(-x^2)"], "box_half_length": 5.0,
        "grid_points": 16,
    }))
    with pytest.raises(NonConstantCoefficientsError):
        constant_equilibria(nl)


def test_constant_dirichlet_drops_nonzero_roots():
    # nonzero constants are not discrete equilibria against zero walls
    nl = _nl(verify.fisher_spec(grid_points=64, boundary="dirichlet0"))
    vals = [float(e.field.values[0]) for e in constant_equilibria(nl)]
    assert vals == pytest.approx([0.0], abs=1e-12)


# -- Newton refinement ----------------------------------------------------------


def test_newton_from_exact_root(fisher):
    eq = newton_refine(fisher, Field.constant(fisher.grid, 1.0))
    assert eq.residual < 1e-12
    assert eq.source == "newton"


def test_newton_basin(fisher):
    # oracle: scalar Newton from 0.9 converges to 1
    c = 0.9
    for _ in range(10):
        c = c - (c - c * c) / (1 - 2 * c)
    assert c == pytest.approx(1.0, abs=1e-12)
    eq = newton_refine(fisher, Field.constant(fisher.grid, 0.9))
    assert np.allclose(eq.field.values, 1.0, atol=1e-10)


def test_newton_nonfinite_guess_rejected(fisher):
    with pytest.raises(ValueError):
        Field(fisher.grid, [np.nan] * fisher.grid.m)


@pytest.mark.parametrize("boundary", ("periodic", "neumann0"))
def test_newton_singular_jacobian_distinct(boundary):
    # dP(0.5) = 0 leaves the bare Laplacian, which is singular on both
    # closures; on the finer grids its rounding pivot grows with M, and the
    # singular test must still see it rather than end in a stalled Newton
    for half, m in ((5.0, 64), (12.0, 4096), (5.0, 8192), (5.0, 32768)):
        nl = _nl(_fisher_box(half, m, boundary))
        with pytest.raises(SingularJacobianError):
            newton_refine(nl, Field.constant(nl.grid, 0.5))


def test_newton_quadratic_convergence(fisher):
    # residual sequence from a near guess contracts at least quadratically
    g = fisher.grid
    u = Field(g, 1.0 + 1e-3 * np.cos(2 * math.pi * g.nodes / g.length))
    eq1 = newton_refine(fisher, u, max_iter=1, tol=1e-4)
    eq2 = newton_refine(fisher, u, max_iter=2, tol=1e-10)
    assert eq1.residual < 1e-4
    assert eq2.residual <= 10.0 * eq1.residual**2


def test_newton_nonconvergence_reported():
    nl = _nl(problem.spec_from_dict({
        "N": 2, "coeffs": ["1", "0"], "box_half_length": 5.0, "grid_points": 16,
    }))
    # P(u) = 1 - u^2 with guess far out and a single iteration
    with pytest.raises(NewtonNoConvergenceError):
        newton_refine(nl, Field.constant(nl.grid, 50.0), max_iter=1)


# -- shooting ---------------------------------------------------------------------


def test_shoot_fixed_points(fisher):
    for c in (0.0, 1.0):
        path = shoot(fisher, c, 0.0, (-5.0, 5.0))
        assert not path.escaped
        assert np.max(np.abs(path.us - c)) == 0.0


def _fisher_drift(grid_points):
    """Drift of H = v^2/2 + u^2/2 - u^3/3, conserved by u'' = u^2 - u, along
    a path shot at a quarter of the periodic grid spacing 10/grid_points."""
    nl = _nl(verify.fisher_spec(grid_points=grid_points))
    path = shoot(nl, 0.5, 0.0, (-5.0, 5.0))
    u, v = path.us, path.vs
    h = 0.5 * v * v + 0.5 * u * u - u**3 / 3.0
    return float(np.max(np.abs(h - h[0])))


def test_shoot_conserves_invariant():
    assert _fisher_drift(2500) <= 1e-10  # step 1e-3


def test_shoot_rk4_convergence():
    # refined-step oracle: quarter step, drift shrinks ~ h^4
    d1 = _fisher_drift(625)  # step 4e-3
    d2 = _fisher_drift(2500)  # step 1e-3
    assert d2 < d1 / 50.0


def test_shoot_escape_direction_even_degree():
    # u'' = u^2 - u: beyond the hilltop the path runs to +infinity only
    fisher = _nl(verify.fisher_spec(grid_points=64))
    path = shoot(fisher, 2.0, 1.0, (-5.0, 5.0))
    assert path.escaped
    assert path.escape_sign == 1
    path = shoot(fisher, -2.0, -5.0, (-5.0, 5.0))
    if path.escaped:
        assert path.escape_sign == 1


def test_shoot_escape_both_directions_odd_degree():
    # u'' = u^3 - u escapes on whichever side it crosses |u| = 1 with speed
    cubic = _nl(replace(verify.cubic_spec(grid_points=64), sup_guard=1e3))
    up = shoot(cubic, 1.5, 1.0, (-5.0, 5.0))
    down = shoot(cubic, -1.5, -1.0, (-5.0, 5.0))
    assert up.escaped and up.escape_sign == 1
    assert down.escaped and down.escape_sign == -1


def test_shoot_bounded_inside_separatrix(cubic):
    # H = s^2/2 < 1/4 keeps the orbit trapped between the hilltops
    path = shoot(cubic, 0.0, 0.5, (-5.0, 5.0))
    assert not path.escaped
    assert np.max(np.abs(path.us)) < 1.0


def _shoot_reference(nl, u, v, x0, x1, h, thr):
    """RK4 that walks every coefficient tree at all four stages of a step;
    P is the grid's fold, -u^N (-u|u|^(N-1)) in the top Horner coefficient."""
    absolute = nl.spec.signed_power and nl.spec.N % 2 == 0

    def p(uu, xx):
        c = [exprlang.evaluate(e, xx) for e in nl.spec.coeffs]
        return horner((*c[:-1], c[-1] - (abs(uu) if absolute else uu)), uu)

    n_steps = max(1, math.ceil((x1 - x0) / h))
    h = (x1 - x0) / n_steps
    x, us, vs, xs = x0, [u], [v], [x0]
    for _ in range(n_steps):
        k1u, k1v = v, -p(u, x)
        k2u = v + 0.5 * h * k1v
        k2v = -p(u + 0.5 * h * k1u, x + 0.5 * h)
        k3u = v + 0.5 * h * k2v
        k3v = -p(u + 0.5 * h * k2u, x + 0.5 * h)
        k4u = v + h * k3v
        k4v = -p(u + h * k3u, x + h)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        x += h
        if not (math.isfinite(u) and math.isfinite(v)):
            break
        xs.append(x)
        us.append(u)
        vs.append(v)
        if abs(u) > thr:
            break
    return np.array(xs), np.array(us), np.array(vs)


@pytest.mark.parametrize("coeffs, signed, start, grid", [
    (["0", "1+0.3*cos(0.7*x)"], False, (0.02, 0.0), (64, "neumann0")),
    (["0", "0.5+0.4*tanh(2*(x-0.3))", "0.1"], False, (0.03, 0.01), (64, "neumann0")),
    (["0.01*x", "1+0.5*exp(-((x-0.7)/1.3)^2)", "-0.2"], True, (0.5, 2.0), (64, "neumann0")),
    (["0", "1+0.3*cos(0.7*x)"], False, (2.0, 1.0), (64, "neumann0")),  # escapes
    # constant on the grid only: every node sample of a_1 is exactly 1.0,
    # since the nodes stop at x = 4.375, but a_1 reaches e^200 at x = 5
    (["0", "1+exp(400*(x-4.5))"], False, (0.02, 0.0), (16, "periodic")),
])
def test_shoot_matches_four_evaluation_loop(coeffs, signed, start, grid):
    # coefficients at x + h/2 are shared by stages 2 and 3, and stage 4's
    # x + h is the next step's x: the path must not move by a bit
    m, boundary = grid
    spec = problem.spec_from_dict({
        "N": len(coeffs), "coeffs": coeffs, "box_half_length": 5.0,
        "grid_points": m, "signed_power": signed, "boundary": boundary,
        "sup_guard": 1e3,
    })
    nl = _nl(spec)
    assert (nl.constant_coefficients() is not None) == (m == 16)
    path = shoot(nl, *start, (-5.0, 5.0))
    want = _shoot_reference(nl, *start, -5.0, 5.0, nl.grid.h / 4.0, spec.sup_guard)
    for got, ref in zip((path.xs, path.us, path.vs), want):
        assert got.tobytes() == ref.tobytes()


def test_shoot_raises_on_a_lattice_point_past_the_escape():
    # every coefficient is sampled on the whole lattice, nodes first, before
    # the first step: a_1 overflows beyond x = 4.855 (the node 5.0 and the
    # midpoint 4.921875), and the path escapes near x = -3 long before, yet
    # shoot raises at the node 5.0
    spec = problem.spec_from_dict({
        "N": 2, "coeffs": ["0", "1+0.1*x+exp(2000*(x-4.5))"], "box_half_length": 5.0,
        "grid_points": 16, "boundary": "periodic", "sup_guard": 1e3,
    })
    nl = _nl(spec)
    assert np.isfinite(nl.coeff_samples[1]).all()
    xs, us, _ = _shoot_reference(nl, 2.0, 1.0, -5.0, 5.0, nl.grid.h / 4.0, spec.sup_guard)
    assert abs(us[-1]) > spec.sup_guard and xs[-1] < -2.9
    with pytest.raises(exprlang.NonFiniteResultError) as exc:
        shoot(nl, 2.0, 1.0, (-5.0, 5.0))
    assert exc.value.x == 5.0


# -- boundedness classification ---------------------------------------------------


def test_classify_constant(fisher):
    eqs = constant_equilibria(fisher)
    for eq in eqs:
        assert classify_boundedness(eq.field, (-1e6, 1e6)) == (True, True)


def test_classify_thresholds():
    g = problem.make_grid(verify.fisher_spec(grid_points=16))
    f = Field(g, np.linspace(-2.0, 3.0, 16))
    assert classify_boundedness(f, (-1.0, 10.0)) == (False, True)
    assert classify_boundedness(f, (-10.0, 1.0)) == (True, False)


def test_nearest_catalog_member(fisher):
    eqs = constant_equilibria(fisher)  # u = 0 and u = 1
    g = fisher.grid
    assert nearest([], Field.constant(g, 0.3)) == (None, math.inf)
    assert nearest(eqs, Field.constant(g, 0.75)) == (1, 0.25)
    assert nearest(eqs, eqs[0].field) == (0, 0.0)
    # a tie goes to the first member
    assert nearest(eqs, Field.constant(g, 0.5)) == (0, 0.5)


# -- leading eigendirection --------------------------------------------------------


def test_unstable_direction_fisher_at_zero(fisher):
    eqs = constant_equilibria(fisher)
    ud = unstable_direction(fisher, eqs[0])
    assert ud.eigenvalue == pytest.approx(1.0, abs=1e-6)
    assert not abs(ud.eigenvalue) < 1e-8
    assert np.max(np.abs(ud.direction.values)) == pytest.approx(1.0)


def test_unstable_direction_fisher_at_one(fisher):
    eqs = constant_equilibria(fisher)
    ud = unstable_direction(fisher, eqs[1])
    assert ud.eigenvalue == pytest.approx(-1.0, abs=1e-6)


def test_unstable_direction_degenerate():
    nl = _nl(problem.spec_from_dict({
        "N": 2, "coeffs": ["0", "0"], "box_half_length": 5.0, "grid_points": 16,
    }))
    eq = constant_equilibria(nl)[0]
    ud = unstable_direction(nl, eq)
    assert abs(ud.eigenvalue) < 1e-8


def _fisher_linearization(boundary, dp, box_half_length=5.0):
    """Fisher (P = u - u^2) grid and an Equilibrium-shaped record with dP = dp.

    unstable_direction reads only the field, so u = (1 - dp)/2 need not be an
    equilibrium.
    """
    dp = np.asarray(dp, dtype=float)
    nl = _nl(_fisher_box(box_half_length, len(dp), boundary))
    eq = Equilibrium(field=Field(nl.grid, 0.5 * (1.0 - dp)), residual=math.nan,
                     action=math.nan, bounded_below=True, bounded_above=True,
                     source="newton")
    return nl, eq


def _dense_linearization(nl, eq):
    g = nl.grid
    lap = np.column_stack([laplacian_values(col, g) for col in np.eye(g.m)])
    return lap + np.diag(nl.apply_dP(eq.field.values))


def test_unstable_direction_nearly_constant_dp_not_accepted_early():
    # dP varies by 1e-3 on a fine periodic grid: a bound scaled by a shifted
    # eigenvalue ~4/h^2 accepted the constant mode, 1.3e-6 off in eigenvalue
    nl, eq = _fisher_linearization(
        "periodic", 1.0 - 1e-3 * np.cos(2.0 * np.pi * np.linspace(-5.0, 5.0, 2048,
                                                                   endpoint=False) / 10.0))
    ud = unstable_direction(nl, eq)
    lam = np.linalg.eigvalsh(_dense_linearization(nl, eq))[-1]
    assert abs(ud.eigenvalue - lam) <= 1e-9 * max(1.0, abs(lam))


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_unstable_direction_fine_grid(boundary):
    # 4/h^2 ~ 1e10: rounding in lam and A w exceeds 1e-8 max(1, |lam|), so
    # the shift and the residual bound need the eps * ||A|| floor
    m = 64
    nl, eq = _fisher_linearization(
        boundary, 1.0 - 0.5 * np.cos(np.pi * np.arange(m) / m), box_half_length=1e-3)
    ud = unstable_direction(nl, eq)
    lam = np.linalg.eigvalsh(_dense_linearization(nl, eq))[-1]
    norm_a = 4.0 / nl.grid.h**2 + 1.5
    assert abs(ud.eigenvalue - lam) <= 1e-8 * max(1.0, abs(lam)) + 8 * np.finfo(float).eps * norm_a
    assert np.all(ud.direction.values > 0.0)


def test_unstable_direction_max_iter_exhausted():
    nl, eq = _fisher_linearization("dirichlet0", np.zeros(16))
    with pytest.raises(PowerIterationError):
        unstable_direction(nl, eq, max_iter=0)


@st.composite
def _linearizations(draw):
    boundary = draw(st.sampled_from(BOUNDARIES))
    m = draw(st.integers(8, 64))  # odd and even: the ring order depends on parity
    level = draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        dp = np.full(m, level)
    else:
        dp = level + np.array(draw(st.lists(st.floats(-3.0, 3.0),
                                            min_size=m, max_size=m)))
    return _fisher_linearization(boundary, dp)


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(_linearizations())
def test_unstable_direction_matches_dense(case):
    nl, eq = case
    ud = unstable_direction(nl, eq)
    lams, vecs = np.linalg.eigh(_dense_linearization(nl, eq))
    scale = max(1.0, abs(lams[-1]))
    assert abs(ud.eigenvalue - lams[-1]) <= 1e-10 * scale
    w = ud.direction.values
    assert np.all(w > 0.0)
    assert w.max() == 1.0
    # the residual bound fixes the direction to about 1e-8*scale/gap: the
    # eigenvector's condition number is 1/gap, so hold it to 1e-7 where the
    # top of the spectrum is well separated
    assume(lams[-1] - lams[-2] >= 0.2 * scale)
    v = vecs[:, -1] / vecs[np.argmax(np.abs(vecs[:, -1])), -1]
    assert np.max(np.abs(w - v)) <= 1e-7
