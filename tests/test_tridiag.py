import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow1d import tridiag
from gradflow1d.grid import SpatialGrid, laplacian_values
from gradflow1d.tridiag import (ImplicitDiffusionSolver, SingularJacobianError,
                                thomas_solve, top_eigenvalue)

ROOT = Path(__file__).resolve().parent.parent

# 150 examples, or the profile's count when it is larger (CI's ci-deep: 500)
_DEEP_EXAMPLES = max(150, settings.default.max_examples)


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
    # the step's d = 1, then a diagonal that varies in [1, 10]
    rng = np.random.default_rng(5)
    g = SpatialGrid(5.0, 128, boundary)
    for d in (1.0, 1.0 + 9.0 * np.random.default_rng(6).random(g.m)):
        solver = ImplicitDiffusionSolver(g, dt, d)
        for _ in range(5):
            rhs = rng.standard_normal(g.m)
            x = solver.solve(rhs.copy())
            lap_x = laplacian_values(x, g)
            assert solver.relative_residual(x, rhs, lap_x,
                                            float(np.abs(rhs).max())) <= 1e-12


def test_implicit_diffusion_identity_on_constants():
    # periodic and neumann closures keep constants fixed
    for boundary in ("periodic", "neumann0"):
        g = SpatialGrid(5.0, 64, boundary)
        solver = ImplicitDiffusionSolver(g, 0.37, 1.0)
        x = solver.solve(np.full(g.m, 4.2))
        assert np.allclose(x, 4.2, atol=1e-13)


def test_implicit_diffusion_solves_in_place():
    # the solution is written over b; an array dpttrs would copy (strided,
    # not float64, read-only) is a ValueError and keeps its values
    g = SpatialGrid(5.0, 32, "periodic")
    solver = ImplicitDiffusionSolver(g, 0.05, 1.0)
    rhs = np.random.default_rng(9).standard_normal(g.m)
    b = rhs.copy()
    x = solver.solve(b)
    assert x is b
    assert np.allclose(x - 0.05 * laplacian_values(x, g), rhs, atol=1e-12)
    read_only = np.ones(g.m)
    read_only.setflags(write=False)
    for bad in (np.ones(2 * g.m)[::2], np.ones(g.m, dtype=np.float32), read_only):
        before = bad.copy()
        with pytest.raises(ValueError, match="in place"):
            solver.solve(bad)
        assert np.array_equal(bad, before)


def test_implicit_diffusion_vs_dense():
    g = SpatialGrid(5.0, 32, "periodic")
    dt = 0.05
    a = np.eye(g.m)
    lap = np.column_stack([laplacian_values(col, g) for col in a.T])
    mat = np.eye(g.m) - dt * lap
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(g.m)
    x = ImplicitDiffusionSolver(g, dt, 1.0).solve(rhs.copy())
    assert np.allclose(x, np.linalg.solve(mat, rhs), atol=1e-12)


@settings(max_examples=_DEEP_EXAMPLES, deadline=None)
@given(st.sampled_from(("periodic", "dirichlet0", "neumann0")), st.integers(8, 128),
       st.floats(1e-3, 1e3), st.floats(0.0, 6.0), st.integers(0, 2**32 - 1))
def test_implicit_diffusion_vs_dense_property(boundary, m, mu, spread, seed):
    # diag(d) - dt Lap_h is symmetric positive definite for d > 0 and both
    # solves are backward stable, so the forward error is a small multiple of
    # eps * cond; d is the step's scalar 1 at spread 0, else it varies over
    # spread decades, as inverse iteration's (lam + shift) - dP does
    g = SpatialGrid(5.0, m, boundary)
    dt = mu * g.h**2
    rng = np.random.default_rng(seed)
    d = 10.0 ** (spread * rng.random(m)) if spread else 1.0
    lap = np.column_stack([laplacian_values(col, g) for col in np.eye(m)])
    mat = np.diag(np.broadcast_to(d, (m,))) - dt * lap
    rhs = rng.standard_normal(m)
    ref = np.linalg.solve(mat, rhs)
    x = ImplicitDiffusionSolver(g, dt, d).solve(rhs.copy())
    err = np.abs(x - ref).max() / np.abs(ref).max()
    assert err <= 16 * np.finfo(float).eps * np.linalg.cond(mat, np.inf)


@settings(max_examples=_DEEP_EXAMPLES, deadline=None)
@given(st.sampled_from(("periodic", "dirichlet0", "neumann0")), st.integers(8, 128),
       st.floats(-3.0, 15.0), st.integers(0, 2**32 - 1))
def test_implicit_diffusion_backward_stable_property(boundary, m, log_mu, seed):
    # the L D L^T solve is backward stable with a bound free of mu = dt/h^2,
    # and the Sherman-Morrison wrap keeps that, so the normwise backward
    # error |r|/(|A| |x| + |b|), |A|_inf = 1 + 4 mu, stays a few eps at
    # every mu, while |r|/|b| grows like mu * eps
    g = SpatialGrid(5.0, m, boundary)
    mu = 10.0**log_mu
    dt = mu * g.h**2
    rhs = np.random.default_rng(seed).standard_normal(m)
    x = ImplicitDiffusionSolver(g, dt, 1.0).solve(rhs.copy())
    r = (x - dt * laplacian_values(x, g)) - rhs
    backward = np.abs(r).max() / ((1.0 + 4.0 * mu) * np.abs(x).max() + np.abs(rhs).max())
    assert backward <= 8 * np.finfo(float).eps


@settings(max_examples=_DEEP_EXAMPLES, deadline=None)
@given(st.sampled_from(("periodic", "dirichlet0", "neumann0")), st.integers(8, 256),
       st.floats(-3.0, 8.0), st.integers(0, 2**32 - 1))
def test_top_eigenvalue_vs_dense_property(boundary, m, log_scale, seed):
    # the bisection stops where the computed factor of sigma I - A changes
    # verdict, within a few eps * ||A||_inf of the dense eigenvalue; d is a
    # normal draw scaled by 1e-3 to 1e8
    g = SpatialGrid(5.0, m, boundary)
    d = 10.0**log_scale * np.random.default_rng(seed).standard_normal(m)
    want = np.linalg.eigvalsh(_dense(g, d))[-1]
    bound = 64 * np.finfo(float).eps * (4.0 / g.h**2 + np.abs(d).max())
    assert abs(top_eigenvalue(g, d) - want) <= bound


def test_top_eigenvalue_probe_reads_the_periodic_denominator():
    # sigma below the top eigenvalue leaves sigma I - A indefinite, and the
    # factor of each such sigma raises; its tridiagonal part, the wrap
    # removed, is often positive definite, and then only the Sherman-Morrison
    # denominator rejects the sigma
    rng = np.random.default_rng(11)
    by_denominator = 0
    for _ in range(200):
        g = SpatialGrid(5.0, int(rng.integers(8, 65)), "periodic")
        d = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(g.m)
        lam = np.linalg.eigvalsh(_dense(g, d))[-1]
        shifted = (lam - 0.1 * max(1.0, abs(lam))) - d
        with pytest.raises(np.linalg.LinAlgError) as exc:
            ImplicitDiffusionSolver(g, 1.0, shifted)
        by_denominator += "denominator" in str(exc.value)
    assert by_denominator > 0


@pytest.mark.parametrize("m, denom", ((256, r"0\.0 "), (2048, "-")), ids=("zero", "negative"))
def test_implicit_diffusion_rejects_a_nonpositive_denominator(m, denom):
    # at mu = dt/h^2 near 1e16 and beyond, the wrap's Sherman-Morrison
    # denominator of I - dt Lap_h rounds to zero or below: the constructor
    # raises where a solve would divide by it or return a wrong x
    g = SpatialGrid(1e-6, m, "periodic")
    with pytest.raises(np.linalg.LinAlgError, match=f"denominator {denom}"):
        ImplicitDiffusionSolver(g, 1.0, 1.0)


def test_implicit_diffusion_rejects_a_zero_periodic_corner():
    # the wrap's split divides by the first diagonal entry; zero there is a
    # matrix that is not positive definite, not a ZeroDivisionError
    g = SpatialGrid(5.0, 16, "periodic")
    d = np.ones(g.m)
    d[0] = -2.0 / g.h**2
    with pytest.raises(np.linalg.LinAlgError, match="1-th leading minor"):
        ImplicitDiffusionSolver(g, 1.0, d)


def test_top_eigenvalue_of_constant_d_runs_no_probe(monkeypatch):
    # the constant mode is the top eigenvector on periodic and neumann0, so
    # the bracket [max A_ii or R(1), max d] is closed from the start
    def no_probe(*args):
        raise AssertionError("probed")
    monkeypatch.setattr(tridiag, "ImplicitDiffusionSolver", no_probe)
    for boundary in ("periodic", "neumann0"):
        assert top_eigenvalue(SpatialGrid(5.0, 64, boundary), np.full(64, 1.0)) == 1.0


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_top_eigenvalue_rejects_a_nonfinite_d(bad):
    g = SpatialGrid(5.0, 16, "periodic")
    d = np.zeros(g.m)
    d[3] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        top_eigenvalue(g, d)


def _python(code: str) -> list[str]:
    """The stdout lines of `python -c code` in a fresh process, with this
    checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


# whether scipy.linalg was imported, then the bytes of an eigenvalue, a
# banded LU solve and a factored solve per closure, in hex
_BYTES = """
import sys
import numpy as np
from gradflow1d.grid import SpatialGrid
from gradflow1d.tridiag import ImplicitDiffusionSolver, thomas_solve, top_eigenvalue
print("scipy.linalg" in sys.modules)
rng = np.random.default_rng(3)
for boundary in ("periodic", "dirichlet0", "neumann0"):
    g = SpatialGrid(5.0, 64, boundary)
    d = 4.0 + rng.standard_normal(g.m)
    rhs = rng.standard_normal(g.m)
    solver = ImplicitDiffusionSolver(g, 0.01, 1.0 + rng.random(g.m))
    print(np.float64(top_eigenvalue(g, d)).tobytes().hex(),
          thomas_solve(g, d, rhs).tobytes().hex(),
          solver.solve(rhs.copy()).tobytes().hex())
"""


def test_cli_start_up_loads_lapack_without_scipy_linalg():
    # tridiag loads scipy's _flapack by path under its own name, so a later
    # import of scipy.linalg reuses that module: one load, not two
    assert _python(
        "import sys\n"
        "import gradflow1d.cli\n"
        "from gradflow1d import tridiag\n"
        "print('scipy.linalg' in sys.modules)\n"
        "import scipy.linalg.lapack\n"
        "print(sys.modules['scipy.linalg._flapack'] is tridiag._flapack)\n"
        "print(scipy.linalg.lapack.dpttrf is tridiag.dpttrf)\n") == ["False", "True", "True"]


def test_fallback_import_gives_the_same_bytes():
    # with no extension suffix to try, tridiag finds no file by path and
    # takes _flapack from a plain import of scipy.linalg
    by_path = _python(_BYTES)
    fallback = _python(
        "import importlib.machinery\n"
        "import numpy\n"
        "suffixes = list(importlib.machinery.EXTENSION_SUFFIXES)\n"
        "importlib.machinery.EXTENSION_SUFFIXES.clear()\n"
        "import gradflow1d.tridiag\n"
        "importlib.machinery.EXTENSION_SUFFIXES[:] = suffixes\n" + _BYTES)
    assert by_path[0] == "False" and fallback[0] == "True"
    assert len(by_path) == 4 and fallback[1:] == by_path[1:]


def test_no_scipy_is_an_import_error():
    assert _python(
        "import sys\n"
        "sys.modules['scipy'] = None  # find_spec finds no scipy\n"
        "try:\n"
        "    import gradflow1d.tridiag\n"
        "except ImportError:\n"
        "    print('ImportError')\n") == ["ImportError"]
