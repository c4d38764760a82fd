"""Banded linear solves on the grid.

  * `thomas_solve` solves A x = rhs, A = Lap_h + diag(d), by banded LU
    (Newton steps), A in a ring order that makes one band of width 2 hold
    every closure.  No other module knows the band's layout.
  * `ImplicitDiffusionSolver` factors diag(d) - dt*Lap_h as L D L^T (LAPACK
    dpttrf), the periodic wrap by a rank-one Sherman-Morrison correction,
    and solves with dpttrs: the time step with d = 1, once per (grid, dt),
    and each step of `equilibria.unstable_direction`'s Noda iteration for
    A's leading eigenpair.  Its constructor is the one test of positive
    definiteness: it raises LinAlgError on a matrix that is not.

That factor and its solve are host-independent: dpttrf and dpttrs are plain
Fortran loops that call no BLAS, so their bits do not depend on the BLAS
core type the CPU selects, and the correction is elementwise numpy.  The
banded LU of `thomas_solve` (dgbtrf, dgbtrs) calls BLAS, as do the step's
sums of squares (ddot, in `functionals`), and may round differently on
another CPU.

The four LAPACK routines come from scipy's f2py extension `_flapack`, loaded
by its file path: importing `scipy.linalg` costs more than the rest of the
package together (scipy's array-API layer clones numpy's namespace).  It is
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
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

PIVOT_FLOOR = 1e-14
EPS = float(np.finfo(float).eps)


class SingularJacobianError(ArithmeticError):
    """A pivot of the banded LU fell to the floor of `thomas_solve` or below."""


def thomas_solve(grid, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (Lap_h + diag(d)) x = rhs by banded LU with partial pivoting.

    The name is kept because the benchmark's tracer wraps it by that name.
    The ring order 0, m-1, 1, m-2, ... puts every pair of grid neighbours,
    the periodic wrap included, at most two places apart, so A in that
    order goes into LAPACK general-band storage (kl = ku = 2) for every
    closure and is factored by dgbtrf.  Raises SingularJacobianError when
    the factor is exactly singular or its smallest |U_ii| is at or below
    max(PIVOT_FLOOR, M*eps) * max|diag A|: the rounding pivot of a singular
    A (the bare periodic Laplacian's last one) grows with M.  Returns x in
    node order.
    """
    m = grid.m
    order = np.empty(m, dtype=np.intp)  # ring position k holds node order[k]
    order[0::2] = np.arange((m + 1) // 2)
    order[1::2] = np.arange(m - 1, (m - 1) // 2, -1)
    pos = np.empty(m, dtype=np.intp)
    pos[order] = np.arange(m)
    inv_h2 = 1.0 / grid.h**2
    ab = np.zeros((7, m))  # A[i, j] at ab[4 + i - j, j]; rows 0-1 take the fill-in
    diag = -2.0 * inv_h2 + d
    if grid.boundary == "neumann0":
        diag[[0, -1]] += inv_h2
    ab[4] = diag[order]
    floor = max(PIVOT_FLOOR, m * EPS) * float(np.abs(ab[4]).max())
    left, right = pos[:-1], pos[1:]  # ring positions of nodes j and j+1
    ab[4 + left - right, right] = inv_h2
    ab[4 + right - left, left] = inv_h2
    if grid.boundary == "periodic":
        ab[3, 1] = ab[5, 0] = inv_h2  # nodes 0 and m-1 sit at positions 0 and 1
    lu, ipiv, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbtrf")
    pivot = float(np.abs(lu[4]).min())
    if info > 0 or pivot <= floor:
        raise SingularJacobianError(
            f"smallest pivot {pivot!r} at or below {floor!r}")
    x, info = dgbtrs(lu, 2, 2, rhs[order], ipiv)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dgbtrs")
    out = np.empty(m)
    out[order] = x
    return out


class ImplicitDiffusionSolver:
    """Prefactored solve of (diag(d) - dt*Lap_h) x = rhs for a fixed grid,
    dt and d (a scalar or one value per node).

    Its tridiagonal part is factored as L D L^T, and periodic grids add a
    Sherman-Morrison rank-one correction for the wrap.  A matrix that is
    not positive definite in floating point raises np.linalg.LinAlgError:
    the factorization finds a pivot <= 0 or, on periodic, the correction's
    denominator, det(matrix)/det(tridiagonal part), is not positive.
    d > 0 keeps the matrix positive definite in exact arithmetic.
    """

    def __init__(self, grid, dt: float, d):
        if dt <= 0:
            raise ValueError("dt > 0 required")
        self.grid = grid
        self.dt = float(dt)
        self.d = d
        m = grid.m
        mu = self.dt / grid.h**2
        d = np.broadcast_to(np.asarray(d, dtype=float), (m,))
        diag = d + 2.0 * mu
        if grid.boundary == "neumann0":
            diag[[0, -1]] = d[[0, -1]] + mu
        if grid.boundary == "periodic":
            if not diag[0] > 0.0:  # gamma = 0 would divide by zero
                raise np.linalg.LinAlgError("1-th leading minor not positive definite")
            # remove the -mu corners into u v^T with gamma = -diag[0]
            gamma = -float(diag[0])
            diag[0] -= gamma
            diag[-1] -= mu * mu / gamma
        self._d, self._e, info = dpttrf(diag, np.full(m - 1, -mu),
                                        overwrite_d=1, overwrite_e=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpttrf")
        self._periodic = grid.boundary == "periodic"
        if self._periodic:
            u = np.zeros(m)
            u[0] = gamma
            u[-1] = -mu
            self._band_solve(u)
            self._z = u
            self._corner = -mu / gamma
            self._denom = float(1.0 + (u[0] + self._corner * u[-1]))
            if not self._denom > 0.0:
                # det(matrix) / det(tridiagonal part), by the determinant lemma
                raise np.linalg.LinAlgError(
                    f"Sherman-Morrison denominator {self._denom!r} not positive")
            self._zs = np.empty(m)  # scratch of the rank-one correction

    def _band_solve(self, b: np.ndarray) -> None:
        """Solve with the L D L^T factor in place, overwriting b, a writable
        contiguous float64 array (of any other dpttrs makes a copy)."""
        _, info = dpttrs(self._d, self._e, b, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpttrs")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (diag(d) - dt*Lap_h) x = b, written over b; returns b.
        Raises ValueError, with b unchanged, unless b is a writable
        contiguous float64 array."""
        if b.dtype != np.float64 or not b.flags.carray:
            raise ValueError("solve in place needs a writable contiguous float64 array")
        self._band_solve(b)
        if self._periodic:
            vy = b.item(0) + self._corner * b.item(-1)
            np.subtract(b, np.multiply(self._z, vy / self._denom, self._zs), b)
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
