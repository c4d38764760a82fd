"""Banded linear solves on the grid.

  * `ring_band` stores A = Lap_h + diag(d) for every closure as one
    symmetric band of width 2; `thomas_solve` solves with it by banded LU
    (Newton steps) and `equilibria.unstable_direction` takes A's leading
    eigenpair from it.
  * `ImplicitDiffusionSolver` factors I - dt*Lap_h once per (grid, dt) for
    the time step, with the periodic wrap handled by a rank-one
    Sherman-Morrison correction.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrs

PIVOT_FLOOR = 1e-14
EPS = float(np.finfo(float).eps)


class SingularJacobianError(ArithmeticError):
    """A pivot of the banded LU fell to the floor of `thomas_solve` or below."""


def ring_band(grid, d: np.ndarray):
    """Lap_h + diag(d) as an upper band of width 2, in the ring order.

    The ring order 0, m-1, 1, m-2, ... puts every pair of grid neighbours,
    the periodic wrap included, at most two places apart, so one band holds
    every closure; the wrap entry is zero off `periodic`.  Returns the band
    in LAPACK upper storage and the order (band row k is node order[k]).
    """
    m = grid.m
    order = np.empty(m, dtype=np.intp)
    order[0::2] = np.arange((m + 1) // 2)
    order[1::2] = np.arange(m - 1, (m - 1) // 2, -1)
    pos = np.empty(m, dtype=np.intp)
    pos[order] = np.arange(m)
    inv_h2 = 1.0 / grid.h**2
    diag = -2.0 * inv_h2 + d
    if grid.boundary == "neumann0":
        diag[0] += inv_h2
        diag[-1] += inv_h2
    band = np.zeros((3, m))
    band[2] = diag[order]
    left, right = pos[:-1], pos[1:]  # band rows of nodes j and j+1
    band[2 - np.abs(right - left), np.maximum(left, right)] = inv_h2
    if grid.boundary == "periodic":
        band[1, 1] = inv_h2  # nodes 0 and m-1 sit at band rows 0 and 1
    return band, order


def thomas_solve(grid, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (Lap_h + diag(d)) x = rhs by banded LU with partial pivoting.

    The name is kept because the benchmark's tracer wraps it by that name.
    The ring band is copied into LAPACK general-band storage (kl = ku = 2)
    and factored by dgbtrf.  Raises SingularJacobianError when the factor
    is exactly singular or its smallest |U_ii| is at or below
    max(PIVOT_FLOOR, M*eps) * max|diag A|: the rounding pivot of a singular
    A (the bare periodic Laplacian's last one) grows with M.  Returns x in
    node order.
    """
    band, order = ring_band(grid, d)
    m = grid.m
    ab = np.zeros((7, m))  # A[i, j] at ab[4 + i - j, j]; rows 0-1 take the fill-in
    ab[2:5] = band
    ab[5, :-1] = band[1, 1:]  # the lower triangle, by symmetry
    ab[6, :-2] = band[0, 2:]
    lu, ipiv, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbtrf")
    pivot = float(np.abs(lu[4]).min())
    floor = max(PIVOT_FLOOR, m * EPS) * float(np.abs(band[2]).max())
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
    """Prefactored solve of (I - dt*Lap_h) x = rhs for a fixed grid and dt.

    The matrix is symmetric positive definite for every boundary closure;
    periodic grids use a Sherman-Morrison rank-one correction around a
    Cholesky-factored band.
    """

    def __init__(self, grid, dt: float):
        if dt <= 0:
            raise ValueError("dt > 0 required")
        self.grid = grid
        self.dt = float(dt)
        m = grid.m
        mu = self.dt / grid.h**2
        self._mu = mu
        diag = np.full(m, 1.0 + 2.0 * mu)
        if grid.boundary == "neumann0":
            diag[0] = diag[-1] = 1.0 + mu
        if grid.boundary == "periodic":
            # remove the -mu corners into u v^T with gamma = -(1+2mu)
            gamma = -(1.0 + 2.0 * mu)
            diag[0] -= gamma
            diag[-1] -= mu * mu / gamma
            self._gamma = gamma
        cb = np.zeros((2, m))
        cb[0, 1:] = -mu
        cb[1, :] = diag
        self._factor = cholesky_banded(cb, check_finite=False)
        self._periodic = grid.boundary == "periodic"
        if self._periodic:
            u = np.zeros(m)
            u[0] = gamma
            u[-1] = -mu
            z = self._band_solve(u)
            self._z = z
            self._corner = -mu / gamma
            self._vz = z[0] + self._corner * z[-1]
            self._denom = float(1.0 + self._vz)

    def _band_solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = dpbtrs(self._factor, rhs)  # upper factor, lower=0
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._band_solve(rhs)
        if not self._periodic:
            return y
        vy = y.item(0) + self._corner * y.item(-1)
        return y - self._z * (vy / self._denom)

    def relative_residual(self, x: np.ndarray, rhs: np.ndarray,
                          lap_x: np.ndarray, rhs_sup: float) -> float:
        """max|(I - dt*Lap_h) x - rhs| / max|rhs|.

        lap_x is laplacian_values(x) and rhs_sup is max|rhs|, both of which
        the time stepper has already computed.
        """
        r = (x - self.dt * lap_x) - rhs
        return float(np.abs(r).max()) / (rhs_sup + 1e-300)
