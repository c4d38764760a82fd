"""Problem instance: degree, coefficients, domain truncation, mode flags.

The canonical serialization is JSON with field names exactly as in
ProblemSpec.  Coefficients are expression strings in the variable x; they
must sample finite on the grid with finite discrete L1/Linf norms (the
integrability hypothesis, checked numerically on the truncated box).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import exprlang
from .grid import BOUNDARIES, Field, SpatialGrid, integrate, sup_norm

__all__ = [
    "ProblemSpec",
    "SpecValidationError",
    "load_spec",
    "spec_from_dict",
    "spec_to_dict",
    "canonical_text",
    "make_grid",
    "coefficient_norms",
]


class SpecValidationError(ValueError):
    """A ProblemSpec invariant is violated; the message names it."""


@dataclass(frozen=True)
class ProblemSpec:
    """Data of u_t = Lap(u) - u^N + sum_{i<N} a_i(x) u^i on a truncated box.

    signed_power swaps the leading term for -u|u|^(N-1).  sup_guard is the
    blow-up threshold U_max.
    """

    N: int
    coeffs: tuple  # N expression trees, a_0 .. a_{N-1}
    box_half_length: float
    grid_points: int
    boundary: str = "periodic"
    signed_power: bool = False
    sup_guard: float = 1e6
    spatial_dim: int = 1

    def coeff_sources(self) -> tuple[str, ...]:
        return tuple(exprlang.to_source(e) for e in self.coeffs)

    def with_grid_points(self, m: int) -> "ProblemSpec":
        return replace(self, grid_points=int(m))


def make_grid(spec: ProblemSpec) -> SpatialGrid:
    return SpatialGrid(spec.box_half_length, spec.grid_points, spec.boundary)


def spec_from_dict(d: dict) -> ProblemSpec:
    """Build and fully validate a ProblemSpec from plain JSON data."""
    if not isinstance(d, dict):
        raise SpecValidationError("problem spec must be a JSON object")
    required = {"N", "coeffs", "box_half_length", "grid_points"}
    missing = required - d.keys()
    if missing:
        raise SpecValidationError(f"missing fields: {sorted(missing)}")
    unknown = d.keys() - {
        "N", "coeffs", "box_half_length", "grid_points", "boundary",
        "signed_power", "sup_guard", "spatial_dim",
    }
    if unknown:
        raise SpecValidationError(f"unknown fields: {sorted(unknown)}")

    n = d["N"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise SpecValidationError("N >= 2 required")
    sources = d["coeffs"]
    if not isinstance(sources, (list, tuple)) or len(sources) != n:
        raise SpecValidationError(f"coeffs must list exactly N={n} expressions")
    try:
        coeffs = tuple(exprlang.parse(s) for s in sources)
    except exprlang.ExprError as e:
        raise SpecValidationError(f"coefficient expression invalid: {e}") from e

    boundary = d.get("boundary", "periodic")
    if boundary not in BOUNDARIES:
        raise SpecValidationError(f"boundary must be one of {BOUNDARIES}")
    spatial_dim = d.get("spatial_dim", 1)
    if spatial_dim != 1:
        raise SpecValidationError("spatial_dim = 1 required")
    try:
        sup_guard = float(d.get("sup_guard", 1e6))
        box_half_length = float(d["box_half_length"])
    except (TypeError, ValueError) as e:
        raise SpecValidationError(
            f"sup_guard and box_half_length must be numbers: {e}") from e
    if not sup_guard > 0:
        raise SpecValidationError("sup_guard > 0 required")
    if not (math.isfinite(box_half_length) and box_half_length > 0):
        raise SpecValidationError("box_half_length must be finite and > 0")
    grid_points = d["grid_points"]
    if not isinstance(grid_points, int) or grid_points < 8:
        raise SpecValidationError("grid_points M >= 8 required")
    signed_power = d.get("signed_power", False)
    if not isinstance(signed_power, bool):
        raise SpecValidationError(
            f"signed_power must be true or false, got {signed_power!r}")

    spec = ProblemSpec(
        N=n,
        coeffs=coeffs,
        box_half_length=box_half_length,
        grid_points=grid_points,
        boundary=boundary,
        signed_power=signed_power,
        sup_guard=sup_guard,
        spatial_dim=1,
    )
    try:
        g = make_grid(spec)  # checks the spacing before any sample is taken
    except ValueError as e:
        raise SpecValidationError(str(e)) from e
    _validate_coefficient_samples(spec, g)
    return spec


def _validate_coefficient_samples(spec: ProblemSpec, g: SpatialGrid) -> None:
    """Finite samples, finite L1/Linf, and finite differences up to order 4.

    Smoothness of the coefficients cannot be verified symbolically; finite
    sampled differences are the numerical stand-in.
    """
    for i, e in enumerate(spec.coeffs):
        try:
            samples = exprlang.sample(e, g.nodes)
        except exprlang.NonFiniteResultError as err:
            raise SpecValidationError(
                f"coefficient a_{i} has a non-finite sample: {err}"
            ) from err
        d = samples
        for order in range(1, 5):
            d = np.diff(d) / g.h
            if d.size and not np.all(np.isfinite(d)):
                raise SpecValidationError(
                    f"coefficient a_{i}: non-finite order-{order} difference"
                )


def load_spec(config_text: str) -> ProblemSpec:
    """Parse JSON text into a validated ProblemSpec."""
    try:
        data = json.loads(config_text)
    except json.JSONDecodeError as e:
        raise SpecValidationError(f"invalid JSON: {e}") from e
    return spec_from_dict(data)


def spec_to_dict(spec: ProblemSpec) -> dict:
    return {
        "N": spec.N,
        "coeffs": list(spec.coeff_sources()),
        "box_half_length": spec.box_half_length,
        "grid_points": spec.grid_points,
        "boundary": spec.boundary,
        "signed_power": spec.signed_power,
        "sup_guard": spec.sup_guard,
        "spatial_dim": spec.spatial_dim,
    }


def canonical_text(spec: ProblemSpec) -> str:
    """Canonical serialization; load_spec(canonical_text(s)) == s."""
    return json.dumps(spec_to_dict(spec), indent=2)


def coefficient_norms(spec: ProblemSpec) -> list[tuple[float, float]]:
    """Discrete (L1, Linf) of each coefficient on the truncated box.

    Constants are integrable here even though they are not on the whole
    line; run summaries record these norms so the truncation is visible.
    """
    g = make_grid(spec)
    out = []
    for e in spec.coeffs:
        f = Field(g, np.abs(exprlang.sample(e, g.nodes)))
        out.append((integrate(f), sup_norm(f)))
    return out
