import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow1d.grid import SpatialGrid, laplacian_values
from gradflow1d.tridiag import ImplicitDiffusionSolver, SingularJacobianError, thomas_solve


def _dense(g, dp):
    return np.column_stack([laplacian_values(col, g) for col in np.eye(g.m)]) + np.diag(dp)


def test_thomas_matches_lapack():
    # the two closures without a wrap, diagonally dominant: the banded LU
    # agrees with LAPACK's dense gesv
    rng = np.random.default_rng(1)
    for boundary in ("dirichlet0", "neumann0"):
        g = SpatialGrid(5.0, 50, boundary)
        dp = -(4.0 / g.h**2 + 5.0 + rng.random(g.m))
        rhs = rng.standard_normal(g.m)
        x = thomas_solve(g, dp, rhs)
        assert np.allclose(x, np.linalg.solve(_dense(g, dp), rhs), atol=1e-12)


def test_cyclic_vs_dense():
    # the periodic wrap, odd and even M, indefinite dP
    rng = np.random.default_rng(2)
    for m in (8, 37):
        g = SpatialGrid(5.0, m, "periodic")
        dp = 4.0 + rng.standard_normal(m)
        rhs = rng.standard_normal(m)
        x = thomas_solve(g, dp, rhs)
        assert np.allclose(x, np.linalg.solve(_dense(g, dp), rhs), atol=1e-11)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("periodic", "dirichlet0", "neumann0")), st.integers(8, 256),
       st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_thomas_solve_vs_dense_property(boundary, m, dp_scale, seed):
    # banded LU with partial pivoting and the dense reference are both
    # backward stable with a backward error of a few eps (5 nonzeros a row;
    # pivot growth in a band of lower width 2 is at most 7, Bohte 1975), so
    # each forward error relative to the solution is a small multiple of
    # eps * cond(A)
    g = SpatialGrid(5.0, m, boundary)
    rng = np.random.default_rng(seed)
    dp = dp_scale * rng.standard_normal(m)
    rhs = rng.standard_normal(m)
    a = np.column_stack([laplacian_values(col, g) for col in np.eye(m)]) + np.diag(dp)
    ref = np.linalg.solve(a, rhs)
    x = thomas_solve(g, dp, rhs)
    err = np.abs(x - ref).max() / np.abs(ref).max()
    assert err <= 16 * np.finfo(float).eps * np.linalg.cond(a, np.inf)


@pytest.mark.parametrize("half, m", (
    pytest.param(5.0, 8, id="8"),
    pytest.param(5.0, 256, id="256"),
    pytest.param(5.0, 4096, id="4096"),
    # the periodic rounding pivot grows with M: 1.7e-14 relative here, above
    # a floor of 1e-14 that does not scale with M
    pytest.param(12.0, 4096, id="L12-4096"),
    pytest.param(5.0, 8192, id="8192"),
    pytest.param(5.0, 32768, id="32768"),
))
@pytest.mark.parametrize("boundary", ("periodic", "neumann0", "dirichlet0"))
def test_thomas_solve_zero_dp(boundary, half, m):
    # the bare periodic and neumann0 Laplacians hold the constants in their
    # null space; the dirichlet0 one is negative definite
    g = SpatialGrid(half, m, boundary)
    rhs = np.ones(m)
    if boundary == "dirichlet0":
        x = thomas_solve(g, np.zeros(m), rhs)
        backward = np.abs(laplacian_values(x, g) - rhs).max() / (4.0 / g.h**2 * np.abs(x).max())
        assert backward <= 16 * np.finfo(float).eps
        return
    with pytest.raises(SingularJacobianError):
        thomas_solve(g, np.zeros(m), rhs)


@pytest.mark.parametrize("boundary", ("periodic", "dirichlet0", "neumann0"))
@pytest.mark.parametrize("dt", (1e-4, 1e-2, 2.5))
def test_implicit_diffusion_residual(boundary, dt):
    rng = np.random.default_rng(5)
    g = SpatialGrid(5.0, 128, boundary)
    solver = ImplicitDiffusionSolver(g, dt)
    for _ in range(5):
        rhs = rng.standard_normal(g.m)
        x = solver.solve(rhs)
        lap_x = laplacian_values(x, g)
        assert solver.relative_residual(x, rhs, lap_x, float(np.abs(rhs).max())) <= 1e-12


def test_implicit_diffusion_identity_on_constants():
    # periodic and neumann closures keep constants fixed
    for boundary in ("periodic", "neumann0"):
        g = SpatialGrid(5.0, 64, boundary)
        solver = ImplicitDiffusionSolver(g, 0.37)
        x = solver.solve(np.full(g.m, 4.2))
        assert np.allclose(x, 4.2, atol=1e-13)


def test_implicit_diffusion_vs_dense():
    g = SpatialGrid(5.0, 32, "periodic")
    dt = 0.05
    a = np.eye(g.m)
    lap = np.column_stack([laplacian_values(col, g) for col in a.T])
    mat = np.eye(g.m) - dt * lap
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(g.m)
    x = ImplicitDiffusionSolver(g, dt).solve(rhs)
    assert np.allclose(x, np.linalg.solve(mat, rhs), atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("periodic", "dirichlet0", "neumann0")), st.integers(8, 128),
       st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_implicit_diffusion_vs_dense_property(boundary, m, mu, seed):
    # cond(I - dt Lap_h) <= 1 + 4 mu, so the forward error scales with it
    g = SpatialGrid(5.0, m, boundary)
    dt = mu * g.h**2
    lap = np.column_stack([laplacian_values(col, g) for col in np.eye(m)])
    rhs = np.random.default_rng(seed).standard_normal(m)
    ref = np.linalg.solve(np.eye(m) - dt * lap, rhs)
    x = ImplicitDiffusionSolver(g, dt).solve(rhs)
    err = np.abs(x - ref).max() / np.abs(ref).max()
    assert err <= 1e-12 * (1.0 + 4.0 * mu)
