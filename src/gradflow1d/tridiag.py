"""Tridiagonal and cyclic-tridiagonal linear solves.

Two lanes:

  * LAPACK banded routines (via scipy) for the hot stepping loop, with the
    periodic wrap handled by a rank-one Sherman-Morrison correction;
  * a plain no-pivot elimination sweep that tracks the smallest pivot, for
    Newton solves that must report near-singular Jacobians distinctly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs


class SingularSystemError(ArithmeticError):
    """Elimination hit a pivot below the configured floor."""


def thomas_solve(sub, diag, sup, rhs, pivot_floor: float = 0.0):
    """No-pivot forward elimination + back substitution.

    Returns (x, min_abs_pivot).  Raises SingularSystemError when any pivot
    falls at or below pivot_floor * max|diag|.
    """
    m = len(diag)
    d = np.array(diag, dtype=float)
    b = np.array(rhs, dtype=float)
    floor = pivot_floor * float(np.max(np.abs(d))) if m else 0.0
    min_pivot = np.inf
    for i in range(1, m):
        piv = d[i - 1]
        if abs(piv) <= floor or piv == 0.0:
            raise SingularSystemError(f"pivot {float(piv)!r} at row {i - 1}")
        min_pivot = min(min_pivot, abs(piv))
        w = sub[i - 1] / piv
        d[i] -= w * sup[i - 1]
        b[i] -= w * b[i - 1]
    piv = d[m - 1]
    if abs(piv) <= floor or piv == 0.0:
        raise SingularSystemError(f"pivot {float(piv)!r} at row {m - 1}")
    min_pivot = min(min_pivot, abs(piv))
    x = np.empty(m)
    x[m - 1] = b[m - 1] / d[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = (b[i] - sup[i] * x[i + 1]) / d[i]
    return x, float(min_pivot)


def cyclic_thomas_solve(sub, diag, sup, corner_tr, corner_bl, rhs,
                        pivot_floor: float = 0.0):
    """Cyclic tridiagonal solve by rank-one correction over `thomas_solve`.

    corner_tr is the (0, m-1) entry, corner_bl the (m-1, 0) entry.
    Returns (x, min_abs_pivot).
    """
    m = len(diag)
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    dmod = np.array(diag, dtype=float)
    dmod[0] -= gamma
    dmod[m - 1] -= corner_tr * corner_bl / gamma
    u = np.zeros(m)
    u[0] = gamma
    u[m - 1] = corner_bl
    y, piv_y = thomas_solve(sub, dmod, sup, rhs, pivot_floor)
    z, piv_z = thomas_solve(sub, dmod, sup, u, pivot_floor)
    # v = e_0 + (corner_tr/gamma) e_{m-1}
    vy = y[0] + (corner_tr / gamma) * y[m - 1]
    vz = z[0] + (corner_tr / gamma) * z[m - 1]
    denom = 1.0 + vz
    floor = pivot_floor * float(np.max(np.abs(diag)))
    if abs(denom) <= floor or denom == 0.0:
        raise SingularSystemError(f"rank-one correction denominator {float(denom)!r}")
    x = y - z * (vy / denom)
    return x, min(piv_y, piv_z, abs(denom))


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
