"""Equilibrium solutions of Lap(u) + P(u) = 0 on the grid.

Sources: real roots of the scalar polynomial for spatially constant
coefficients, damped Newton refinement of grid guesses, and phase-plane
shooting on the steady ODE u'' = -P(u).  Every returned equilibrium
carries its residual, action value, and box-relative boundedness flags.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, eig_banded

from .functionals import action
from .grid import Field, laplacian_values
from .nonlinearity import Nonlinearity, RangeOverflowError, horner
from .tridiag import SingularJacobianError, ring_band, thomas_solve

__all__ = [
    "Equilibrium",
    "NonConstantCoefficientsError",
    "NewtonNoConvergenceError",
    "SingularJacobianError",
    "PowerIterationError",
    "ShootingPath",
    "UnstableDirection",
    "constant_equilibria",
    "newton_refine",
    "shoot",
    "classify_boundedness",
    "unstable_direction",
    "real_polynomial_roots",
]

log = logging.getLogger(__name__)

RESIDUAL_TOL_CONSTANT = 1e-10
RESIDUAL_TOL_NEWTON = 1e-10
RESIDUAL_TOL_SHOOTING = 1e-8


class NonConstantCoefficientsError(ValueError):
    pass


class NewtonNoConvergenceError(ArithmeticError):
    pass


class PowerIterationError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Equilibrium:
    field: Field
    residual: float
    action: float
    bounded_below: bool
    bounded_above: bool
    source: str  # constant | newton | shooting


def equilibrium_residual(nl: Nonlinearity, values: np.ndarray) -> float:
    r = laplacian_values(values, nl.grid) + nl.apply_P_values(values)
    return float(np.max(np.abs(r)))


def classify_boundedness(eq_or_field, thresholds: tuple[float, float]):
    """Compare sample min/max against (lower, upper) thresholds."""
    f = eq_or_field.field if isinstance(eq_or_field, Equilibrium) else eq_or_field
    lo, hi = thresholds
    return bool(f.values.min() >= lo), bool(f.values.max() <= hi)


def _make_equilibrium(nl, values, source, thresholds=None) -> Equilibrium:
    f = Field(nl.grid, values)
    if thresholds is None:
        thresholds = (-nl.spec.sup_guard, nl.spec.sup_guard)
    try:
        a = action(nl, f).value
    except RangeOverflowError:
        raise RangeOverflowError(
            f"{source} equilibrium rejected: non-finite action"
        ) from None
    below, above = classify_boundedness(f, thresholds)
    return Equilibrium(
        field=f,
        residual=equilibrium_residual(nl, values),
        action=a,
        bounded_below=below,
        bounded_above=above,
        source=source,
    )


# -- scalar polynomial roots ------------------------------------------------


def real_polynomial_roots(coeffs) -> list[float]:
    """All real roots of p(c) = sum coeffs[i] c^i, ascending coefficients.

    Sign-change bracketing on [-R, R], R = 1 + max|a_i|/|lead| (Cauchy-style
    bound), bisection to 1e-14.  Even-multiplicity roots leave no sign
    change, so critical points of p (found recursively) are probed as well.
    """
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    deg = len(c) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [-c[0] / c[1]]

    lead = c[-1]
    radius = 1.0 + max(abs(v) for v in c[:-1]) / abs(lead)
    deriv = [i * c[i] for i in range(1, len(c))]
    crit = [v for v in real_polynomial_roots(deriv) if abs(v) <= radius]

    roots = []
    for v in crit:
        scale = sum(abs(a) * abs(v) ** i for i, a in enumerate(c))
        if abs(horner(c, v)) <= 64 * np.finfo(float).eps * scale:
            roots.append(v)

    knots = sorted({-radius, radius, *crit})
    for a, b in zip(knots, knots[1:]):
        fa, fb = horner(c, a), horner(c, b)
        if fa == 0.0:
            roots.append(a)
            continue
        if fb == 0.0:
            continue  # handled as the left end of the next interval
        if (fa < 0.0) != (fb < 0.0):  # a product can underflow to zero
            lo, hi, flo = a, b, fa
            while hi - lo > 1e-14:
                mid = 0.5 * (lo + hi)
                fm = horner(c, mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (flo < 0.0) != (fm < 0.0):
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if horner(c, knots[-1]) == 0.0:
        roots.append(knots[-1])

    # Newton polish, then merge near-duplicates
    polished = []
    for r in roots:
        v = r
        for _ in range(4):
            dp = horner(deriv, v)
            if dp == 0.0:
                break
            step = horner(c, v) / dp
            if not math.isfinite(step) or abs(step) > 1e-6:
                break
            v -= step
        polished.append(v)
    polished.sort()
    merged = []
    for v in polished:
        if not merged or abs(v - merged[-1]) > 1e-10:
            merged.append(v)
    return merged


def constant_equilibria(nl: Nonlinearity, tol: float = RESIDUAL_TOL_CONSTANT,
                        thresholds=None) -> list[Equilibrium]:
    """Spatially constant equilibria (requires constant coefficients).

    Roots whose constant field does not meet the discrete residual bound on
    this grid (nonzero constants under dirichlet0 walls) are dropped with a
    log record.
    """
    if not nl.spatially_constant():
        raise NonConstantCoefficientsError(
            "constant equilibria require spatially constant coefficients"
        )
    consts = nl.constant_coefficients()
    n = nl.degree
    out = []
    seen = []
    if nl.signed_power:
        # -c|c|^{N-1} equals -c^N for c >= 0 and (-1)^N c^N for c < 0;
        # probe both polynomial branches on their own half-lines
        pos = [r for r in real_polynomial_roots(list(consts) + [-1.0])
               if r >= -1e-14]
        neg = [r for r in real_polynomial_roots(list(consts) + [(-1.0) ** n])
               if r < 0.0]
        candidates = sorted(pos + neg)
    else:
        candidates = real_polynomial_roots(list(consts) + [-1.0])
    for root in candidates:
        values = np.full(nl.grid.m, root)
        resid = equilibrium_residual(nl, values)
        if resid > tol:
            log.info("constant root %.17g dropped: residual %.3g > %.3g on %s grid",
                     root, resid, tol, nl.grid.boundary)
            continue
        if any(abs(root - s) <= 1e-10 for s in seen):
            continue
        seen.append(root)
        try:
            out.append(_make_equilibrium(nl, values, "constant", thresholds))
        except RangeOverflowError as e:
            log.warning("%s", e)
    return out


# -- Newton refinement -------------------------------------------------------


def newton_refine(nl: Nonlinearity, guess: Field, max_iter: int = 50,
                  tol: float = RESIDUAL_TOL_NEWTON, thresholds=None) -> Equilibrium:
    """Damped Newton on F(u) = Lap(u) + P(u).

    Step halving (up to 8 times) when the residual does not decrease.
    Raises NewtonNoConvergenceError or SingularJacobianError.
    """
    u = np.array(guess.values, dtype=float)
    resid = laplacian_values(u, nl.grid) + nl.apply_P_values(u)
    r = float(np.max(np.abs(resid)))
    for _ in range(max_iter):
        if r < tol:
            return _make_equilibrium(nl, u, "newton", thresholds)
        dp = nl.apply_dP(u)
        delta = thomas_solve(nl.grid, dp, -resid)
        step = 1.0
        for _ in range(9):
            trial = u + step * delta
            try:
                resid_t = laplacian_values(trial, nl.grid) + nl.apply_P_values(trial)
            except RangeOverflowError:
                step *= 0.5
                continue
            r_t = float(np.max(np.abs(resid_t)))
            if r_t < r:
                break
            step *= 0.5
        else:
            raise NewtonNoConvergenceError(
                f"step halving stalled at residual {r:.3g}"
            )
        u, resid, r = trial, resid_t, r_t
    if r < tol:
        return _make_equilibrium(nl, u, "newton", thresholds)
    raise NewtonNoConvergenceError(f"residual {r:.3g} after {max_iter} iterations")


# -- phase-plane shooting ----------------------------------------------------


@dataclass
class ShootingPath:
    xs: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    escaped: bool
    escape_sign: int
    h_drift: float | None  # conserved-quantity drift, constant coefficients only


def shoot(nl: Nonlinearity, u_left: float, slope_left: float,
          x_span: tuple[float, float], h_ode: float | None = None,
          escape_threshold: float | None = None) -> ShootingPath:
    """RK4 on the steady phase-plane system (u, v): u' = v, v' = -P(u).

    Escape (|u| beyond the threshold) is flagged, not an error.  For
    spatially constant coefficients the drift of H = v^2/2 + Q(u) is
    reported.
    """
    x0, x1 = x_span
    if not x1 > x0:
        raise ValueError("x_span must be increasing")
    h_cap = nl.grid.h / 4.0
    h = h_cap if h_ode is None else min(float(h_ode), h_cap)
    n_steps = max(1, math.ceil((x1 - x0) / h))
    h = (x1 - x0) / n_steps
    thr = nl.spec.sup_guard if escape_threshold is None else float(escape_threshold)

    xs = [x0]
    us = [float(u_left)]
    vs = [float(slope_left)]
    u, v, x = float(u_left), float(slope_left), x0
    escaped = False
    sign = 0
    # Coefficients are needed at x and x + h/2 only: stage 4's x + h is the
    # next step's x, since `x += h` is the same addition.  Each is evaluated
    # just before its first stage, so a failing coefficient raises where a
    # per-stage evaluation would.
    c_x = nl.coeffs_at(x)
    for _ in range(n_steps):
        try:
            k1u, k1v = v, -nl.scalar_P(u, c_x)
            c_mid = nl.coeffs_at(x + 0.5 * h)
            k2u = v + 0.5 * h * k1v
            k2v = -nl.scalar_P(u + 0.5 * h * k1u, c_mid)
            k3u = v + 0.5 * h * k2v
            k3v = -nl.scalar_P(u + 0.5 * h * k2u, c_mid)
            k4u = v + h * k3v
            c_x = nl.coeffs_at(x + h)
            k4v = -nl.scalar_P(u + h * k3u, c_x)
            u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        except OverflowError:
            escaped = True
            sign = 1 if u > 0 else -1
            break
        x += h
        if not (math.isfinite(u) and math.isfinite(v)):
            escaped = True
            sign = 1 if us[-1] > 0 else -1
            break
        xs.append(x)
        us.append(u)
        vs.append(v)
        if abs(u) > thr:
            escaped = True
            sign = 1 if u > 0 else -1
            break

    drift = None
    if nl.spatially_constant():
        uu = np.asarray(us)
        vv = np.asarray(vs)
        coeffs = nl.constant_coefficients()
        q = np.array([nl.scalar_potential(val, coeffs) for val in uu])
        hh = 0.5 * vv * vv + q
        drift = float(np.max(np.abs(hh - hh[0])))
    return ShootingPath(
        xs=np.asarray(xs), us=np.asarray(us), vs=np.asarray(vs),
        escaped=escaped, escape_sign=sign, h_drift=drift,
    )


# -- leading eigenpair of the linearization ----------------------------------


@dataclass
class UnstableDirection:
    eigenvalue: float
    direction: Field  # sup-norm 1
    degenerate: bool
    iterations: int


def unstable_direction(nl: Nonlinearity, eq: Equilibrium,
                       max_iter: int = 10_000, seed: int = 0) -> UnstableDirection:
    """Leading eigenpair of A = Lap_h + diag(dP(u)) by banded inverse iteration.

    The eigenvalue lam is the top one of A's ring-ordered band (LAPACK
    dsbevx).  The direction comes from solving ((lam + d) I - A) w_k = w_{k-1}
    with one Cholesky factor of the shifted band, starting from the constant
    mode plus a small seeded perturbation, until the unshifted residual
    max|A w - lam w| <= d with max w = 1, where
    d = 1e-8 max(1, |lam|) + 8 eps (4/h^2 + max|dP|).  `iterations` counts
    the solves.  A has nonnegative off-diagonals and is irreducible, so by
    Perron-Frobenius the direction is strictly positive; it is scaled to
    maximum 1.  Raises PowerIterationError when the shifted band is not
    positive definite or the residual bound is not met within max_iter
    solves.
    """
    g = nl.grid
    dp = nl.apply_dP(eq.field.values)
    band, order = ring_band(g, dp)
    lam = float(eig_banded(band, eigvals_only=True, select="i",
                           select_range=(g.m - 1, g.m - 1))[0])
    # lam and A w carry rounding of order eps * ||A||_inf, which passes
    # 1e-8 max(1, |lam|) once 4/h^2 nears 1e8; the floor keeps the shifted
    # band positive definite and the residual bound reachable there
    norm_a = 4.0 / g.h**2 + float(np.max(np.abs(dp)))
    tol = 1e-8 * max(1.0, abs(lam)) + 8.0 * np.finfo(float).eps * norm_a
    shifted = -band
    shifted[2] += lam + tol
    try:
        factor = cholesky_banded(shifted)
    except LinAlgError as e:
        raise PowerIterationError(f"shifted band not positive definite: {e}") from e

    rng = np.random.default_rng(seed)
    w = np.ones(g.m) + 1e-12 * rng.standard_normal(g.m)
    for it in range(1, max_iter + 1):
        x = cho_solve_banded((factor, False), w[order])
        w = np.empty(g.m)
        w[order] = x / x[np.argmax(np.abs(x))]
        resid = laplacian_values(w, g) + dp * w - lam * w
        if float(np.max(np.abs(resid))) <= tol:
            return UnstableDirection(
                eigenvalue=lam,
                direction=Field(g, w),
                degenerate=abs(lam) < 1e-8,
                iterations=it,
            )
    raise PowerIterationError(f"no convergence after {max_iter} solves")
