import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow1d.grid import SpatialGrid, laplacian_values
from gradflow1d.tridiag import (
    ImplicitDiffusionSolver,
    SingularSystemError,
    cyclic_thomas_solve,
    thomas_solve,
)


def _dense_tridiag(sub, diag, sup, tr=0.0, bl=0.0):
    m = len(diag)
    a = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    a[0, m - 1] += tr
    a[m - 1, 0] += bl
    return a


def test_thomas_matches_lapack():
    rng = np.random.default_rng(1)
    m = 50
    diag = 5.0 + rng.random(m)
    sub = rng.standard_normal(m - 1)
    sup = rng.standard_normal(m - 1)
    rhs = rng.standard_normal(m)
    x1 = np.linalg.solve(_dense_tridiag(sub, diag, sup), rhs)
    x2, min_pivot = thomas_solve(sub, diag, sup, rhs)
    assert np.allclose(x1, x2, atol=1e-12)
    assert min_pivot > 1.0


def test_thomas_singular_pivot():
    with pytest.raises(SingularSystemError):
        thomas_solve([1.0], [0.0, 1.0], [1.0], [1.0, 1.0], pivot_floor=1e-14)


def test_cyclic_vs_dense():
    rng = np.random.default_rng(2)
    for m in (8, 37):
        diag = 4.0 + rng.random(m)
        sub = rng.standard_normal(m - 1)
        sup = rng.standard_normal(m - 1)
        tr, bl = 0.7, -1.3
        rhs = rng.standard_normal(m)
        x, _ = cyclic_thomas_solve(sub, diag, sup, tr, bl, rhs)
        expected = np.linalg.solve(_dense_tridiag(sub, diag, sup, tr, bl), rhs)
        assert np.allclose(x, expected, atol=1e-11)


def test_cyclic_detects_singular():
    # periodic Laplacian is singular (constant null vector)
    m = 16
    sub = np.ones(m - 1)
    sup = np.ones(m - 1)
    diag = np.full(m, -2.0)
    with pytest.raises(SingularSystemError):
        cyclic_thomas_solve(sub, diag, sup, 1.0, 1.0, np.ones(m), pivot_floor=1e-14)


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
