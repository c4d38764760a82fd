"""Built-in verification suites.

Each suite returns a SuiteResult with a pass flag and a details dict; the
CLI `verify` subcommand serializes them into a machine-readable report and
the acceptance tests assert them at their stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import connections, dynamics, problem
from .functionals import action, identity_residual
from .grid import Field, forward_difference, laplacian_values
from .nonlinearity import Nonlinearity

__all__ = [
    "SuiteResult",
    "fisher_spec",
    "cubic_spec",
    "random_smooth_field",
    "suite_mms",
    "suite_action_monotonicity",
    "suite_identity_residual",
    "suite_reaction_bound",
    "suite_blowup_timing",
    "suite_gradient_consistency",
    "default_suites",
    "SUITES",
    "FROZEN_RATIO_BOUNDS",
    "measure_ratio_bound",
]


SUITES = ("mms", "action_monotonicity", "identity_residual", "reaction_bound",
          "blowup_timing", "gradient_consistency")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def fisher_spec(grid_points=256, boundary="periodic",
                sup_guard=1e6) -> problem.ProblemSpec:
    """N=2, a_1 = 1, a_0 = 0: reaction u - u^2, half-length 5."""
    return problem.spec_from_dict({
        "N": 2,
        "coeffs": ["0", "1"],
        "box_half_length": 5.0,
        "grid_points": grid_points,
        "boundary": boundary,
        "sup_guard": sup_guard,
    })


def cubic_spec(grid_points=256, sup_guard=1e6) -> problem.ProblemSpec:
    """N=3, a_1 = 1, others 0: reaction u - u^3, periodic, half-length 5."""
    return problem.spec_from_dict({
        "N": 3,
        "coeffs": ["0", "1", "0"],
        "box_half_length": 5.0,
        "grid_points": grid_points,
        "boundary": "periodic",
        "sup_guard": sup_guard,
    })


def random_smooth_field(grid, rng, bound_order: int = 0) -> Field:
    """Random field of Fourier modes 1..6 normalized so sup|D^j u| <= 1 for
    j <= bound_order."""
    L = grid.length
    x = grid.nodes
    v = np.zeros(grid.m)
    for k in range(1, 7):
        a, b = rng.standard_normal(2) / k**2
        v += a * np.cos(2 * np.pi * k * x / L) + b * np.sin(2 * np.pi * k * x / L)
    peak = 0.0
    d = v
    for _ in range(bound_order + 1):
        peak = max(peak, float(np.max(np.abs(d))))
        d = forward_difference(d, grid)
    if peak == 0.0:
        v = np.full(grid.m, 1.0)
        peak = 1.0
    return Field(grid, v / peak)


# -- manufactured-solution ladders -------------------------------------------


def suite_mms() -> SuiteResult:
    """Temporal ladder on a periodic mode, spatial ladder on a wall-compatible
    mode; expects observed orders near 1 (time) and 2 (space)."""
    L = 10.0
    spec_t = fisher_spec(grid_points=128)
    rep_t = dynamics.mms_verify(
        spec_t, (f"sin({2 * math.pi / L!r}*x)", "exp(-x)"),
        3, dt0=0.05, t_final=1.0)
    spec_x = fisher_spec(grid_points=31, boundary="dirichlet0")
    rep_x = dynamics.mms_verify(
        spec_x, (f"cos({3 * math.pi / L!r}*x)", "exp(-x)"),
        3, dt0=1e-4, t_final=0.1)
    t_ord = rep_t.observed_order
    x_ord = rep_x.observed_order
    passed = (rep_t.converged and rep_x.converged
              and 0.8 <= t_ord <= 1.2 and 1.7 <= x_ord <= 2.3)
    return SuiteResult("mms", passed, {
        "temporal_order": t_ord,
        "temporal_errors": [lv.error for lv in rep_t.levels],
        "spatial_order": x_ord,
        "spatial_errors": [lv.error for lv in rep_x.levels],
    })


# -- action monotonicity ------------------------------------------------------


def monotonicity_violations(traj: dynamics.Trajectory) -> int:
    """Steps where the action decreased by more than 10*dt*max(1, |A|)."""
    d = traj.diagnostics
    a = d.action
    dt = d.dt
    count = 0
    for i in range(1, len(a)):
        slack = 10.0 * dt[i] * max(1.0, abs(a[i - 1]))
        if a[i] - a[i - 1] < -slack:
            count += 1
    return count


def suite_action_monotonicity(seed: int = 0, n_runs_each: int = 10,
                              ctrl: dynamics.StepControl | None = None,
                              t_max: float = 3.0) -> SuiteResult:
    """Randomized Fisher and cubic runs; the discrete action never decreases
    beyond the 10*dt slack on any accepted step."""
    if ctrl is None:
        ctrl = dynamics.StepControl(dt_init=1e-3, dt_min=1e-9, dt_max=1e-2)
    rng = np.random.default_rng(seed)
    total_violations = 0
    runs = 0
    statuses = []
    for spec, base, span in (
        (fisher_spec(grid_points=64), 0.5, 0.4),
        (cubic_spec(grid_points=64), 0.0, 0.8),
    ):
        g = problem.make_grid(spec)
        nl = Nonlinearity(spec, g)
        for _ in range(n_runs_each):
            u0 = random_smooth_field(g, rng)
            u0 = Field(g, base + span * u0.values)
            traj = dynamics.run(spec, u0, ctrl, t_max, nl=nl)
            total_violations += monotonicity_violations(traj)
            statuses.append(traj.status)
            runs += 1
    return SuiteResult("action_monotonicity", total_violations == 0, {
        "runs": runs,
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


# -- reaction norm-growth regression ------------------------------------------

# Max of ||P(u) - a_0||_{k,p} / ||u||_{k,p} over 1000 seeded random smooth
# fields with sup|D^j u| <= 1 (j <= k), Fisher instance, periodic M=64 box
# L=10.  Measured once with measure_ratio_bound (seed 2026) and frozen; the
# suite regenerates the same fields and must never exceed these.
FROZEN_RATIO_BOUNDS = {
    (0, 2.0): 1.6024784884171146,
    (1, 2.0): 1.7047411778939094,
    (2, 2.0): 1.8810986363523552,
    (1, 4.0): 1.9961253248277508,
}

_RATIO_SEED = 2026
_RATIO_SAMPLES = 1000


def measure_ratio_bound(k: int, p: float, n_samples: int = _RATIO_SAMPLES) -> float:
    spec = fisher_spec(grid_points=64)
    g = problem.make_grid(spec)
    nl = Nonlinearity(spec, g)
    rng = np.random.default_rng(_RATIO_SEED)
    worst = 0.0
    for _ in range(n_samples):
        u = random_smooth_field(g, rng, bound_order=k)
        worst = max(worst, nl.reaction_norm_ratio(u, k, p))
    return worst


def suite_reaction_bound() -> SuiteResult:
    """Regression: measured norm-growth ratios never exceed the frozen bounds."""
    measured = {}
    ok = True
    for (k, p), frozen in FROZEN_RATIO_BOUNDS.items():
        m = measure_ratio_bound(k, p)
        measured[f"k={k},p={p:g}"] = m
        if not m <= frozen * (1.0 + 1e-12):
            ok = False
    return SuiteResult("reaction_bound", ok, {
        "measured": measured,
        "frozen": {f"k={k},p={p:g}": v for (k, p), v in FROZEN_RATIO_BOUNDS.items()},
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
    traj = dynamics.run(spec, Field.constant(g, -1.0), ctrl, t_max=2.0)
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


def suite_gradient_consistency(seed: int = 0, n_pairs: int = 100,
                               eps: float = 1e-5, tol: float = 1e-6) -> SuiteResult:
    """Directional finite difference of the action matches the inner product
    with laplacian(u) + P(u) for seeded (u, v) pairs on all closures."""
    rng = np.random.default_rng(seed)
    specs = [
        fisher_spec(grid_points=64),
        fisher_spec(grid_points=64, boundary="dirichlet0"),
        fisher_spec(grid_points=64, boundary="neumann0"),
        cubic_spec(grid_points=64),
    ]
    worst = 0.0
    for i in range(n_pairs):
        spec = specs[i % len(specs)]
        g = problem.make_grid(spec)
        nl = Nonlinearity(spec, g)
        u = random_smooth_field(g, rng)
        v = random_smooth_field(g, rng)
        a_plus = action(nl, Field(g, u.values + eps * v.values))
        a_minus = action(nl, Field(g, u.values - eps * v.values))
        directional = (a_plus - a_minus) / (2.0 * eps)
        grad = laplacian_values(u.values, g) + nl.apply_P_values(u.values)
        inner = g.h * float(np.dot(grad, v.values))
        worst = max(worst, abs(directional - inner))
    return SuiteResult("gradient_consistency", worst <= tol, {
        "pairs": n_pairs,
        "eps": eps,
        "worst_abs_error": worst,
    })


def default_suites(seed: int = 0,
                   ctrl: dynamics.StepControl | None = None,
                   t_max: float | None = None,
                   names=SUITES) -> list[SuiteResult]:
    """The suites run by the CLI `verify` subcommand, in `SUITES` order.

    Only the suites in names are built.  seed seeds the randomized runs and
    the gradient-consistency pairs.  ctrl and t_max override the
    randomized-runs suite only (they exist so a deliberately out-of-range
    step size can be shown to break monotonicity).
    """
    mono_kwargs = {"seed": seed, "ctrl": ctrl}
    if t_max is not None:
        mono_kwargs["t_max"] = t_max
    kwargs = {"action_monotonicity": mono_kwargs,
              "gradient_consistency": {"seed": seed}}
    # looked up per call, so a rebound module attribute is the one that runs
    return [globals()[f"suite_{name}"](**kwargs.get(name, {}))
            for name in SUITES if name in names]
