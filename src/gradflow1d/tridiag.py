"""Tridiagonal linear solves on the grid, by four LAPACK routines that are
plain Fortran loops calling no BLAS, so their bits do not depend on the CPU.

  * `thomas_solve` solves A x = rhs, A = Lap_h + diag(d), by LU with partial
    pivoting (dgttrf, dgttrs): each Newton step.
  * `ImplicitDiffusionSolver` factors diag(d) - dt*Lap_h as L D L^T (dpttrf)
    and solves with dpttrs: the time step with d = 1, once per (grid, dt),
    and each step of `equilibria.unstable_direction`'s Noda iteration.  Its
    constructor is the one test of positive definiteness.

Both border the periodic wrap off node 0: they factor T = A[1:, 1:] and
finish with node 0's Schur complement s.  The Laplacian sends constants to
zero, so A.1 = d, and s follows from y = T^-1 d[1:]: s = d_0 + mu*(y_first
+ y_last) for the step's matrix (mu = dt/h^2; no term cancels when d >= 0)
and s = d_0 - (y_first + y_last)/h^2 for Newton's.

The routines come from scipy's f2py extension `_flapack`, loaded by its
file path: importing `scipy.linalg` costs more than the rest of the package
together (scipy's array-API layer clones numpy's namespace).  It is
registered as `scipy.linalg._flapack`, so a later `import scipy.linalg`
reuses it, as this module reuses one already registered.  Without the file,
a plain `from scipy.linalg import _flapack` serves; without scipy, that
raises ImportError.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_flapack = sys.modules.get("scipy.linalg._flapack")
if _flapack is None:
    _scipy = importlib.util.find_spec("scipy")  # locates scipy, runs none of it
    _path = next(filter(os.path.isfile, (
        os.path.join(where, "linalg", "_flapack" + suffix)
        for where in (_scipy and _scipy.submodule_search_locations or ())
        for suffix in importlib.machinery.EXTENSION_SUFFIXES)), None)
    if _path is None:
        from scipy.linalg import _flapack
    else:
        _loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", _path)
        _flapack = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(_loader.name, _loader))
        _loader.exec_module(_flapack)
        sys.modules[_loader.name] = _flapack
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

PIVOT_FLOOR = 1e-14
EPS = float(np.finfo(float).eps)


class SingularJacobianError(ArithmeticError):
    """A pivot of `thomas_solve`, or its periodic Schur complement, fell to the floor."""


def thomas_solve(grid, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (Lap_h + diag(d)) x = rhs by tridiagonal LU with partial
    pivoting; on a periodic grid, by the border of node 0.

    The name is kept because the benchmark's tracer wraps it by that name.
    Raises SingularJacobianError when a pivot is zero or min|U_ii|, or on
    periodic |s|, is at most max(PIVOT_FLOOR, M*eps) * max|diag A| (a
    singular A's rounding pivot can grow with M), so also on a singular T.
    """
    m = grid.m
    inv_h2 = 1.0 / grid.h**2
    diag = -2.0 * inv_h2 + d
    if grid.boundary == "neumann0":
        diag[[0, -1]] += inv_h2
    floor = max(PIVOT_FLOOR, m * EPS) * float(np.abs(diag).max())
    periodic = grid.boundary == "periodic"
    if periodic:
        diag = diag[1:]
    off = np.full(diag.size - 1, inv_h2)
    *lu, info = dgttrf(off, diag, off)  # dl, U's diagonal, du, du2, ipiv
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgttrf")
    pivot = float(np.abs(lu[1]).min())
    if info > 0 or pivot <= floor:
        raise SingularJacobianError(
            f"smallest pivot {pivot!r} at or below {floor!r}")

    def solve_t(b):
        x, info = dgttrs(*lu, b)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dgttrs")
        return x

    if not periodic:
        return solve_t(rhs)
    y = solve_t(d[1:])  # A.1 = d, so T^-1 A[1:, 0] = y - 1
    schur = float(d[0] - inv_h2 * (y[0] + y[-1]))
    if not abs(schur) > floor:
        raise SingularJacobianError(
            f"Schur complement {schur!r} of node 0 at or below {floor!r}")

    def bordered(b):
        g = solve_t(b[1:])
        x0 = (b[0] - inv_h2 * (g[0] + g[-1])) / schur
        return np.concatenate(((x0,), g - x0 * (y - 1.0)))

    # T can be far worse conditioned than A: one step of refinement
    x = bordered(rhs)
    return x + bordered(rhs - (inv_h2 * (np.roll(x, 1) - 2.0 * x + np.roll(x, -1)) + d * x))


class ImplicitDiffusionSolver:
    """Prefactored solve of (diag(d) - dt*Lap_h) x = rhs for a fixed grid,
    dt and d (a scalar or one value per node).

    A matrix that is not positive definite in floating point raises
    np.linalg.LinAlgError: the L D L^T factor of it, or on periodic of T,
    finds a pivot <= 0, or on periodic s <= 0 (A is positive definite
    exactly when T is and s > 0, by Haynsworth's inertia additivity).
    """

    def __init__(self, grid, dt: float, d):
        if dt <= 0:
            raise ValueError("dt > 0 required")
        self.grid = grid
        self.dt = float(dt)
        self.d = d
        m = grid.m
        self._mu = mu = self.dt / grid.h**2
        d = np.broadcast_to(np.asarray(d, dtype=float), (m,))
        diag = d + 2.0 * mu
        if grid.boundary == "neumann0":
            diag[[0, -1]] = d[[0, -1]] + mu
        self._periodic = grid.boundary == "periodic"
        if self._periodic:
            diag = diag[1:]
        self._d, self._e, info = dpttrf(diag, np.full(diag.size - 1, -mu),
                                        overwrite_d=1, overwrite_e=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpttrf")
        if self._periodic:
            yw = np.zeros((m - 1, 2), order="F")  # dpttrs takes it without a copy
            yw[:, 0] = d[1:]
            yw[[0, -1], 1] = 1.0
            self._band_solve(yw)
            y, self._w = yw[:, 0], yw[:, 1]  # w = T^-1 (e_first + e_last)
            self._schur = float(d[0] + mu * (y[0] + y[-1]))
            if not self._schur > 0.0:
                raise np.linalg.LinAlgError(
                    f"Schur complement {self._schur!r} of node 0 not positive")
            self._ws = np.empty(m - 1)  # scratch of the border's update

    def _band_solve(self, b: np.ndarray) -> None:
        """Solve with the L D L^T factor in place, overwriting b, a writable
        Fortran-contiguous float64 array (of any other dpttrs makes a copy)."""
        _, info = dpttrs(self._d, self._e, b, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpttrs")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (diag(d) - dt*Lap_h) x = b, written over b; returns b.
        Raises ValueError, with b unchanged, unless b is a writable
        contiguous float64 array."""
        if b.dtype != np.float64 or not b.flags.carray:
            raise ValueError("solve in place needs a writable contiguous float64 array")
        return self.solve_unchecked(b, b[1:])

    def solve_unchecked(self, b: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """`solve` on b with tail its view b[1:], neither checked; the time
        step calls it on its rows with views it makes once per run."""
        if not self._periodic:
            self._band_solve(b)
            return b
        self._band_solve(tail)
        x0 = (b.item(0) + self._mu * (tail.item(0) + tail.item(-1))) / self._schur
        b[0] = x0
        tail += np.multiply(self._w, self._mu * x0, self._ws)
        return b

    def relative_residual(self, x: np.ndarray, rhs: np.ndarray,
                          lap_x: np.ndarray, rhs_sup: float) -> float:
        """max|(diag(d) - dt*Lap_h) x - rhs| / max|rhs|.

        lap_x is laplacian_values(x) and rhs_sup is max|rhs|.  The ratio
        grows like mu*eps with mu = dt/h^2 even though the solve is normwise
        backward stable, so the time stepper does not check it.
        """
        r = (self.d * x - self.dt * lap_x) - rhs
        return float(np.abs(r).max()) / (rhs_sup + 1e-300)
