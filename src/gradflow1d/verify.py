"""Built-in verification suites and the code only they use.

Each suite returns a SuiteResult with a pass flag and a details dict; the
CLI `verify` subcommand serializes them into a machine-readable report and
the acceptance tests assert them at their stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import connections, dynamics, exprlang, problem
from .functionals import action, identity_residual
from .grid import Field, extend, laplacian_values
from .nonlinearity import Nonlinearity

__all__ = [
    "SuiteResult",
    "fisher_spec",
    "cubic_spec",
    "random_smooth_field",
    "mms_errors",
    "observed_order",
    "suite_mms",
    "suite_action_monotonicity",
    "suite_identity_residual",
    "suite_reaction_bound",
    "suite_blowup_timing",
    "suite_gradient_consistency",
    "default_suites",
    "SUITES",
    "sobolev_norm",
    "reaction_norm_ratio",
    "fisher_ratio_bound",
]


SUITES = ("mms", "action_monotonicity", "identity_residual", "reaction_bound",
          "blowup_timing", "gradient_consistency")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def fisher_spec(grid_points, boundary="periodic") -> problem.ProblemSpec:
    """N=2, a_1 = 1, a_0 = 0: reaction u - u^2, half-length 5."""
    return problem.spec_from_dict({
        "N": 2,
        "coeffs": ["0", "1"],
        "box_half_length": 5.0,
        "grid_points": grid_points,
        "boundary": boundary,
    })


def cubic_spec(grid_points) -> problem.ProblemSpec:
    """N=3, a_1 = 1, others 0: reaction u - u^3, periodic, half-length 5."""
    return problem.spec_from_dict({
        "N": 3,
        "coeffs": ["0", "1", "0"],
        "box_half_length": 5.0,
        "grid_points": grid_points,
        "boundary": "periodic",
    })


def forward_difference(values: np.ndarray, grid) -> np.ndarray:
    """(u_{j+1} - u_j)/h with one right ghost per the boundary closure."""
    return (extend(values, grid.boundary)[2:] - values) / grid.h


def random_smooth_field(grid, rng) -> Field:
    """Random field of Fourier modes 1..6 normalized so sup|u| = 1."""
    L = grid.length
    x = grid.nodes
    v = np.zeros(grid.m)
    for k in range(1, 7):
        a, b = rng.standard_normal(2) / k**2
        v += a * np.cos(2 * np.pi * k * x / L) + b * np.sin(2 * np.pi * k * x / L)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        v = np.full(grid.m, 1.0)
        peak = 1.0
    return Field(grid, v / peak)


# -- manufactured-solution ladders -------------------------------------------

_MMS_SPATIAL_FD_STEP = 1e-4  # second differences: balances truncation/roundoff
_MMS_TIME_FD_STEP = 1e-6


def mms_errors(spec: problem.ProblemSpec, expr_x: str, expr_t: str,
               refinements: int, *, dt0: float, t_final: float) -> list[float]:
    """Manufactured-solution ladder (h, dt) -> (h/2, dt/2): the sup-norm
    error at t_final per level, NaN for a level that did not reach t_final.

    The exact solution is X(x)*T(t), X and T the expressions expr_x and
    expr_t.  The forcing u*_t - Lap(u*) - P(u*) is built from tiny-step
    finite differences of the sampled expressions, accurate far below the
    solver's own discretization error.
    """
    ex = exprlang.parse(expr_x)
    t_fun = partial(exprlang.evaluate, exprlang.parse(expr_t))
    errors = []
    for lev in range(refinements + 1):
        if spec.boundary == "periodic":
            m = spec.grid_points * 2**lev
        else:
            m = (spec.grid_points + 1) * 2**lev - 1  # halves h exactly
        dt = dt0 / 2**lev
        spec_l = replace(spec, grid_points=m)
        g = problem.make_grid(spec_l)
        nl = Nonlinearity(spec_l, g)
        e = _MMS_SPATIAL_FD_STEP
        x = exprlang.sample(ex, g.nodes)
        xpp = (exprlang.sample(ex, g.nodes + e) - 2.0 * x
               + exprlang.sample(ex, g.nodes - e)) / e**2

        def forcing(t):  # called only by this level's run
            e = _MMS_TIME_FD_STEP
            tt = t_fun(t)
            t_prime = (t_fun(t + e) - t_fun(t - e)) / (2 * e)
            return x * t_prime - xpp * tt - nl.apply_P_values(x * tt)

        ctrl = dynamics.StepControl(dt_init=dt, dt_min=dt, dt_max=dt,
                                    increment_limit=1e9, sup_guard=spec.sup_guard)
        traj = dynamics.run(spec_l, Field(g, x * t_fun(0.0)), ctrl, t_max=t_final,
                            tol_eq=0.0, forcing=forcing, snapshot_stride=10**9, nl=nl)
        if traj.status != dynamics.T_MAX_REACHED:
            errors.append(math.nan)
            continue
        exact = x * t_fun(traj.final_time)
        errors.append(float(np.max(np.abs(traj.final_field.values - exact))))
    return errors


def observed_order(errors: list[float]) -> float:
    """The last finite log2 ratio of consecutive positive finite errors, else NaN."""
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])
              if 0 < a < math.inf and 0 < b < math.inf]
    return next((o for o in reversed(orders) if math.isfinite(o)), math.nan)


def suite_mms() -> SuiteResult:
    """Temporal ladder on a periodic mode, spatial ladder on a wall-compatible
    mode on the box of length 10; expects orders near 1 (time) and 2 (space)."""
    errs_t = mms_errors(fisher_spec(grid_points=128), f"sin({2 * math.pi / 10.0!r}*x)",
                        "exp(-x)", 3, dt0=0.05, t_final=1.0)
    errs_x = mms_errors(fisher_spec(grid_points=31, boundary="dirichlet0"),
                        f"cos({3 * math.pi / 10.0!r}*x)", "exp(-x)", 3, dt0=1e-4,
                        t_final=0.1)
    t_ord = observed_order(errs_t)
    x_ord = observed_order(errs_x)
    passed = (all(map(math.isfinite, errs_t + errs_x))
              and 0.8 <= t_ord <= 1.2 and 1.7 <= x_ord <= 2.3)
    return SuiteResult("mms", passed, {
        "temporal_order": t_ord,
        "temporal_errors": errs_t,
        "spatial_order": x_ord,
        "spatial_errors": errs_x,
    })


# -- action monotonicity ------------------------------------------------------


def monotonicity_violations(traj: dynamics.Trajectory) -> int:
    """Steps where the action decreased by more than 10*dt*max(1, |A|)."""
    a, dt = traj.diagnostics.action, traj.diagnostics.dt
    return sum(1 for i in range(1, len(a))
               if a[i] - a[i - 1] < -10.0 * dt[i] * max(1.0, abs(a[i - 1])))


_MONOTONICITY_RUNS_EACH = 10  # per instance, Fisher and cubic
_MONOTONICITY_CONTROL = dynamics.StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-2)
_MONOTONICITY_T_MAX = 3.0


def suite_action_monotonicity(seed: int) -> SuiteResult:
    """Randomized Fisher and cubic runs, each to t = 3 under the suite's
    step control; the discrete action never decreases beyond the 10*dt
    slack on any accepted step."""
    rng = np.random.default_rng(seed)
    total_violations = 0
    statuses = []
    for spec, base, span in (
        (fisher_spec(grid_points=64), 0.5, 0.4),
        (cubic_spec(grid_points=64), 0.0, 0.8),
    ):
        g = problem.make_grid(spec)
        nl = Nonlinearity(spec, g)
        for _ in range(_MONOTONICITY_RUNS_EACH):
            u0 = Field(g, base + span * random_smooth_field(g, rng).values)
            traj = dynamics.run(spec, u0, _MONOTONICITY_CONTROL, _MONOTONICITY_T_MAX,
                                nl=nl)
            total_violations += monotonicity_violations(traj)
            statuses.append(traj.status)
    return SuiteResult("action_monotonicity", total_violations == 0, {
        "runs": len(statuses),
        "hard_violations": total_violations,
        "statuses": statuses,
    })


# -- energy/action-gap identity ----------------------------------------------


def suite_identity_residual() -> SuiteResult:
    """Homogeneous logistic run: the windowed energy telescopes against the
    action difference; residual under 1% of the L/6 connection scale."""
    spec = fisher_spec(grid_points=256)
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3)
    traj = dynamics.run(spec, Field.constant(g, 0.5), ctrl, t_max=40.0, nl=nl)
    resid = identity_residual(traj, nl)
    scale = 2.0 * spec.box_half_length / 6.0
    tail = connections.tail_energy_rate(traj.diagnostics, connections.TAIL_WINDOW_FRACTION)
    passed = traj.status == dynamics.CONVERGED and resid <= 0.01 * scale
    return SuiteResult("identity_residual", passed, {
        "status": traj.status,
        "residual": resid,
        "scale": scale,
        "energy": float(traj.diagnostics.energy_cum[-1]),
        "tail_rate": tail,
    })


# -- reaction norm growth ------------------------------------------------------

_RATIO_SAMPLES = 1000
_RATIO_NORMS = ((0, 2.0), (1, 2.0), (2, 2.0), (1, 4.0))  # (k, p)
_RATIO_SLACK = 1e-9  # relative, for rounding


def sobolev_norm(u: Field, k: int, p: float) -> float:
    """sum_{j=0..k} (integral |D^j u|^p)^(1/p), D the forward difference; p
    is 1, 2, 4, ..., and |D^j u|^p is repeated squaring, with no power kernel."""
    mantissa, exponent = math.frexp(p)
    if mantissa != 0.5 or exponent < 1:
        raise ValueError(f"p must be a power of two >= 1, got {p!r}")
    total, d = 0.0, u.values
    for _ in range(k + 1):
        a = np.abs(d)
        for _ in range(exponent - 1):
            np.multiply(a, a, a)
        total += float(u.grid.h * np.sum(a)) ** (1.0 / p)
        d = forward_difference(d, u.grid)
    return total


def reaction_norm_ratio(nl: Nonlinearity, u: Field, k: int, p: float) -> float:
    """||P(u) - a_0||_{k,p} / ||u||_{k,p}.

    The constant-in-u coefficient is subtracted so the numerator has no
    zero-order term.  For Fisher the ratio is at most
    `fisher_ratio_bound(u, k)`, which the discrete chain rule gives.
    """
    denom = sobolev_norm(u, k, p)
    if denom == 0.0:
        raise ZeroDivisionError("(k,p)-norm of u is zero")
    pu = nl.apply_P_values(u.values) - nl.coeff_samples[0]
    return sobolev_norm(Field(nl.grid, pu), k, p) / denom


def fisher_ratio_bound(u: Field, k: int) -> float:
    """B with ||u - u^2||_{k,p} <= B ||u||_{k,p} for every p and k <= 2.

    f(u) = u - u^2; D is `forward_difference` (u_M the closure's right ghost;
    the ghost of f(u) is f(u_M) on every closure); c0 = max|1 - u_i|, c1 =
    max|1 - u_i - u_{i+1}|, s = max|Du|.  |f(u_i)| <= c0 |u_i|; Df = q Du,
    q_i = 1 - u_i - u_{i+1} being f's exact difference quotient; D^2 f =
    q_{i+1} D^2u + Dq Du, |Dq_i| = |Du_i + Du_{i+1}| <= 2s (q_M = q_{M-1}
    where the ghost of Du is 0).  Summing the L^p norms over j <= k: B =
    max(c0, c1) for k <= 1, max(c0, c1 + 2s) for k = 2.
    """
    e = extend(u.values, u.grid.boundary)
    c0 = float(np.max(np.abs(1.0 - u.values)))
    c1 = float(np.max(np.abs(1.0 - e[1:-1] - e[2:])))
    if k == 2:
        c1 += 2.0 * float(np.max(np.abs(forward_difference(u.values, u.grid))))
    return max(c0, c1)


def suite_reaction_bound(seed: int) -> SuiteResult:
    """Seeded random smooth fields, periodic Fisher M=64: at each (k, p) of
    _RATIO_NORMS, ||P(u) - a_0||_{k,p} / ||u||_{k,p} <= B (1 + _RATIO_SLACK),
    B the field's `fisher_ratio_bound`.  Rounding moves the ratio by about
    eps (2/h)^k (L/h)^(1/p) B, under 2e-10 B for h >= L/258 (B >= 1/3, M >= 2).
    Reports the largest ratio and the smallest B - ratio per (k, p)."""
    spec = fisher_spec(grid_points=64)
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(_RATIO_SAMPLES):
        u = random_smooth_field(g, rng)
        draws.append([(reaction_norm_ratio(nl, u, k, p), fisher_ratio_bound(u, k))
                      for k, p in _RATIO_NORMS])
    ratio, bound = np.moveaxis(np.array(draws), 2, 0)  # each indexed [draw, (k, p)]
    keys = [f"k={k},p={p:g}" for k, p in _RATIO_NORMS]
    passed = bool(np.all(ratio <= bound * (1.0 + _RATIO_SLACK)))
    return SuiteResult("reaction_bound", passed, {
        "measured": dict(zip(keys, map(float, np.max(ratio, axis=0)))),
        "least_slack": dict(zip(keys, map(float, np.min(bound - ratio, axis=0)))),
    })


# -- blow-up timing ------------------------------------------------------------


def suite_blowup_timing() -> SuiteResult:
    """N=2, zero coefficients, u0 = -1: u' = -u^2 escapes at t* = 1; the
    detected time must land within 5%."""
    spec = problem.spec_from_dict({
        "N": 2,
        "coeffs": ["0", "0"],
        "box_half_length": 5.0,
        "grid_points": 16,
        "boundary": "periodic",
    })
    g = problem.make_grid(spec)
    ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-7, dt_max=1e-3)
    traj = dynamics.run(spec, Field.constant(g, -1.0), ctrl, t_max=2.0,
                        nl=Nonlinearity(spec, g))
    err = abs(traj.final_time - 1.0)
    passed = traj.status == dynamics.BLOW_UP and err <= 0.05
    return SuiteResult("blowup_timing", passed, {
        "status": traj.status,
        "detected_time": traj.final_time,
        "relative_error": err,
        "escape_sign": traj.escape_sign,
        "steps": traj.steps,
        "stop_reason": traj.stop_reason,
    })


# -- discrete action gradient --------------------------------------------------


_GRADIENT_PAIRS = 100
_GRADIENT_EPS = 1e-5  # central-difference step along v
_GRADIENT_TOL = 1e-6


def suite_gradient_consistency(seed: int) -> SuiteResult:
    """Directional finite difference of the action matches the inner product
    with laplacian(u) + P(u) for seeded (u, v) pairs on all closures."""
    rng = np.random.default_rng(seed)
    reactions = [Nonlinearity(spec, problem.make_grid(spec)) for spec in (
        fisher_spec(grid_points=64),
        fisher_spec(grid_points=64, boundary="dirichlet0"),
        fisher_spec(grid_points=64, boundary="neumann0"),
        cubic_spec(grid_points=64),
    )]
    worst = 0.0
    for i in range(_GRADIENT_PAIRS):
        nl = reactions[i % len(reactions)]
        g = nl.grid
        u = random_smooth_field(g, rng)
        v = random_smooth_field(g, rng)
        a_plus = action(nl, Field(g, u.values + _GRADIENT_EPS * v.values))
        a_minus = action(nl, Field(g, u.values - _GRADIENT_EPS * v.values))
        directional = (a_plus - a_minus) / (2.0 * _GRADIENT_EPS)
        grad = laplacian_values(u.values, g) + nl.apply_P_values(u.values)
        inner = g.h * float(np.add.reduce(grad * v.values))
        worst = max(worst, abs(directional - inner))
    return SuiteResult("gradient_consistency", worst <= _GRADIENT_TOL, {
        "pairs": _GRADIENT_PAIRS,
        "eps": _GRADIENT_EPS,
        "worst_abs_error": worst,
    })


_SEEDED_SUITES = ("action_monotonicity", "reaction_bound", "gradient_consistency")


def default_suites(seed: int, names) -> list[SuiteResult]:
    """The suites in names, run in `SUITES` order at their stated
    parameters, as the CLI `verify` subcommand runs them; seed seeds the
    randomized runs, the reaction-bound fields and the gradient pairs."""
    # looked up per call, so a rebound module attribute is the one that runs
    suites = [(name, globals()[f"suite_{name}"]) for name in SUITES if name in names]
    return [suite(seed) if name in _SEEDED_SUITES else suite() for name, suite in suites]
