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

from . import exprlang
from .functionals import action
from .grid import Field, laplacian_values
from .nonlinearity import Nonlinearity, RangeOverflowError, horner
from .tridiag import EPS, ImplicitDiffusionSolver, SingularJacobianError, thomas_solve

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
    "nearest",
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


def classify_boundedness(f: Field, bounds: tuple[float, float]):
    """Compare sample min/max against (lower, upper) bounds."""
    lo, hi = bounds
    return bool(f.values.min() >= lo), bool(f.values.max() <= hi)


def nearest(catalog, field: Field) -> tuple[int | None, float]:
    """(index, sup-norm distance) of the catalog member closest to field;
    (None, inf) for an empty catalog."""
    best, best_d = None, math.inf
    for i, eq in enumerate(catalog):
        d = float(np.max(np.abs(eq.field.values - field.values)))
        if d < best_d:
            best, best_d = i, d
    return best, best_d


def _make_equilibrium(nl, values, source, residual: float) -> Equilibrium:
    """The equilibrium at values; residual is their `equilibrium_residual`,
    which every caller has computed already."""
    f = Field(nl.grid, values)
    try:
        a = action(nl, f)
    except RangeOverflowError:
        raise RangeOverflowError(
            f"{source} equilibrium rejected: non-finite action"
        ) from None
    below, above = classify_boundedness(f, (-nl.spec.sup_guard, nl.spec.sup_guard))
    return Equilibrium(
        field=f,
        residual=residual,
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


def constant_equilibria(nl: Nonlinearity) -> list[Equilibrium]:
    """Spatially constant equilibria (requires constant coefficients).

    Roots whose constant field does not meet the discrete residual bound on
    this grid (nonzero constants under dirichlet0 walls) are dropped with a
    log record.
    """
    consts = nl.constant_coefficients()
    if consts is None:
        raise NonConstantCoefficientsError(
            "constant equilibria require spatially constant coefficients"
        )
    n = nl.spec.N
    out = []
    seen = []
    if nl.spec.signed_power:
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
        if resid > RESIDUAL_TOL_CONSTANT:
            log.info("constant root %.17g dropped: residual %.3g > %.3g on %s grid",
                     root, resid, RESIDUAL_TOL_CONSTANT, nl.grid.boundary)
            continue
        if any(abs(root - s) <= 1e-10 for s in seen):
            continue
        seen.append(root)
        try:
            out.append(_make_equilibrium(nl, values, "constant", resid))
        except RangeOverflowError as e:
            log.warning("%s", e)
    return out


# -- Newton refinement -------------------------------------------------------


def newton_refine(nl: Nonlinearity, guess: Field, max_iter: int = 50,
                  tol: float = RESIDUAL_TOL_NEWTON) -> Equilibrium:
    """Damped Newton on F(u) = Lap(u) + P(u).

    Step halving (up to 8 times) when the residual does not decrease.
    Raises NewtonNoConvergenceError or SingularJacobianError.
    """
    u = np.array(guess.values, dtype=float)
    resid = laplacian_values(u, nl.grid) + nl.apply_P_values(u)
    r = float(np.max(np.abs(resid)))
    for _ in range(max_iter):
        if r < tol:
            return _make_equilibrium(nl, u, "newton", r)
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
        return _make_equilibrium(nl, u, "newton", r)
    raise NewtonNoConvergenceError(f"residual {r:.3g} after {max_iter} iterations")


# -- phase-plane shooting ----------------------------------------------------


@dataclass
class ShootingPath:
    xs: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    escaped: bool
    escape_sign: int


def shoot(nl: Nonlinearity, u_left: float, slope_left: float,
          x_span: tuple[float, float]) -> ShootingPath:
    """RK4 on the steady phase-plane system (u, v): u' = v, v' = -P(u).

    The step is the largest that divides x_span evenly and is at most the
    grid spacing h: the path only seeds Newton on Lap_h u + P(u) = 0, which
    is O(h^2) from the ODE, and RK4 at h errs by O(h^4).  Escape (|u| beyond
    the spec's sup_guard, or a step that overflows to a non-finite u or v,
    signed by the last finite u) is flagged, not an error.  Every coefficient
    is sampled before the first step on the lattice the steps reach, the
    nodes x0 + h + ... + h and their midpoints, so a coefficient that is
    non-finite at any lattice point raises NonFiniteResultError even where
    the path would escape before reaching it.
    """
    x0, x1 = x_span
    if not x1 > x0:
        raise ValueError("x_span must be increasing")
    n_steps = max(1, math.ceil((x1 - x0) / nl.grid.h))
    h = (x1 - x0) / n_steps
    thr = nl.spec.sup_guard
    # the nodes accumulate h as `x += h` does; add.accumulate is sequential
    nodes = np.add.accumulate(np.r_[x0, np.full(n_steps, h)])
    lattice = np.concatenate([nodes, nodes[:-1] + 0.5 * h])
    # one row per lattice point, the nodes then the midpoints: stages 2 and 3
    # share a midpoint and stage 4's x + h is the next step's node
    coeffs = np.stack([exprlang.sample(e, lattice) for e in nl.spec.coeffs], axis=1)

    us = [float(u_left)]
    vs = [float(slope_left)]
    u, v = float(u_left), float(slope_left)
    escaped = False
    sign = 0
    # 0.5*h*k and (h/6)*s evaluate as (0.5*h)*k and (h/6)*s: hoisting the
    # products keeps every bit.  Rows become lists as the steps reach them,
    # so the lattice is never held twice
    half, sixth = 0.5 * h, h / 6.0
    p = nl.scalar_P
    c_x = coeffs[0].tolist()
    for c_mid, c_next in zip(map(np.ndarray.tolist, coeffs[n_steps + 1:]),
                             map(np.ndarray.tolist, coeffs[1:n_steps + 1])):
        k1v = -p(u, c_x)
        k2u = v + half * k1v
        k2v = -p(u + half * v, c_mid)
        k3u = v + half * k2v
        k3v = -p(u + half * k2u, c_mid)
        k4u = v + h * k3v
        k4v = -p(u + h * k3u, c_next)
        u = u + sixth * (v + 2 * k2u + 2 * k3u + k4u)
        v = v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
        c_x = c_next
        if not (math.isfinite(u) and math.isfinite(v)):
            escaped = True
            sign = 1 if us[-1] > 0 else -1
            break
        us.append(u)
        vs.append(v)
        if abs(u) > thr:
            escaped = True
            sign = 1 if u > 0 else -1
            break
    return ShootingPath(
        xs=nodes[:len(us)], us=np.asarray(us), vs=np.asarray(vs),
        escaped=escaped, escape_sign=sign,
    )


# -- leading eigenpair of the linearization ----------------------------------


@dataclass
class UnstableDirection:
    eigenvalue: float
    direction: Field  # sup-norm 1
    iterations: int


def unstable_direction(nl: Nonlinearity, eq: Equilibrium,
                       max_iter: int = 10_000) -> UnstableDirection:
    """Leading eigenpair of A = Lap_h + diag(dP(u)) by Noda iteration.

    A has nonnegative off-diagonals and is irreducible, so by
    Perron-Frobenius its top eigenvector is strictly positive, and for a
    positive w the Collatz-Wielandt quotients (A w)_i / w_i bracket the top
    eigenvalue.  From the constant mode, each step solves
    (sigma I - A) w_k = w_{k-1} with the factor `ImplicitDiffusionSolver`
    takes at dt = 1 and diagonal sigma - dP, sigma the upper quotient of
    w_{k-1} capped at max dP (Lap_h <= 0 bounds lam by it; the cap also
    stands in for the quotients of a w whose entries underflowed).  sigma
    falls to lam quadratically (Noda 1971, Elsner 1976).  Once sigma is
    within rounding of lam, its factor is rejected, and the steps go on as
    inverse iteration on one factor at sigma + d.  lam is the Rayleigh
    quotient of w, with max w = 1.  Once max|A w - lam w| <= d, where
    d = 1e-8 max(1, |lam|) + 8 eps (4/h^2 + max|dP|), one more solve on the
    same factor squares away the error of order |A w - lam w|^2 / gap that
    the bound leaves in lam, and the loop stops; the start w = 1 stops at
    once.  `iterations` counts the solves.  Raises PowerIterationError when the matrix at
    sigma + d is not positive definite in floating point or max_iter solves
    miss the bound.
    """
    g = nl.grid
    dp = nl.apply_dP(eq.field.values)
    dp_max = float(dp.max())
    # lam and A w carry rounding of order eps * ||A||_inf, which passes
    # 1e-8 max(1, |lam|) once 4/h^2 nears 1e8; the floor keeps the shifted
    # matrix positive definite and the residual bound reachable there
    norm_a = 4.0 / g.h**2 + float(np.max(np.abs(dp)))
    w = np.ones(g.m)
    step = shifted = None  # shifted: the one factor once sigma is rejected
    polished = False
    for it in range(max_iter + 1):
        aw = laplacian_values(w, g) + dp * w
        # summed by add.reduce, as every sum in the package: no BLAS
        lam = float(np.add.reduce(w * aw) / np.add.reduce(w * w))
        tol = 1e-8 * max(1.0, abs(lam)) + 8.0 * EPS * norm_a
        met = float(np.max(np.abs(aw - lam * w))) <= tol
        if met and (step is None or polished):
            return UnstableDirection(eigenvalue=lam, direction=Field(g, w),
                                     iterations=it)
        if it == max_iter:
            break
        if met:
            polished = True  # one more solve on the same factor
        elif shifted is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                sigma = min(float(np.fmax.reduce(aw / w)), dp_max)  # NaN skipped
            try:
                step = ImplicitDiffusionSolver(g, 1.0, sigma - dp)
            except np.linalg.LinAlgError:
                try:
                    step = shifted = ImplicitDiffusionSolver(g, 1.0, (sigma + tol) - dp)
                except np.linalg.LinAlgError as e:
                    raise PowerIterationError(
                        f"shifted matrix not positive definite: {e}") from e
        step.solve(w)
        w /= w[np.argmax(np.abs(w))]
    raise PowerIterationError(f"no convergence after {max_iter} solves")
