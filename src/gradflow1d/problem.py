"""Problem instance: degree, coefficients, domain truncation, mode flags.

The canonical serialization is JSON with field names exactly as in
ProblemSpec.  Coefficients are expression strings in the variable x; they
must sample finite on the grid with finite discrete L1/Linf norms (the
integrability hypothesis, checked numerically on the truncated box).

The `read_*` functions are the typed readers of every config value, the
spec's and those of the run sections in `cli.load_config` alike; each
raises SpecValidationError naming the rule the value breaks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .grid import BOUNDARIES, Field, SpatialGrid, integrate, sup_norm

__all__ = [
    "ProblemSpec",
    "SpecValidationError",
    "spec_from_dict",
    "spec_to_dict",
    "canonical_text",
    "make_grid",
    "coefficient_norms",
    "read_keys",
    "read_object",
    "read_list",
    "read_string",
    "read_boolean",
    "read_integer",
    "read_number",
    "read_positive",
]

SPEC_KEYS = {"N", "coeffs", "box_half_length", "grid_points", "boundary",
             "signed_power", "sup_guard", "spatial_dim"}
# the largest grid_points: a run keeps about ten arrays of M floats
MAX_GRID_POINTS = 2**20


class SpecValidationError(ValueError):
    """A config value breaks a rule; the message names it."""


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

    def coeff_sources(self) -> tuple[str, ...]:
        return tuple(exprlang.to_source(e) for e in self.coeffs)


def make_grid(spec: ProblemSpec) -> SpatialGrid:
    return SpatialGrid(spec.box_half_length, spec.grid_points, spec.boundary)


def spec_from_dict(d: dict) -> ProblemSpec:
    """Build and fully validate a ProblemSpec from plain JSON data."""
    read_keys(d, SPEC_KEYS, "spec")
    n = read_integer(d, "N", None, 2)
    sources = read_list(d, "coeffs", "spec")
    if len(sources) != n:
        raise SpecValidationError(f"coeffs must list exactly N={n} expressions")
    sources = [read_string(s, f"coefficient a_{i}") for i, s in enumerate(sources)]
    try:
        coeffs = tuple(exprlang.parse(s) for s in sources)
    except exprlang.ExprError as e:
        raise SpecValidationError(f"coefficient expression invalid: {e}") from e
    boundary = d.get("boundary", "periodic")
    if boundary not in BOUNDARIES:
        raise SpecValidationError(f"boundary must be one of {BOUNDARIES}")
    if read_integer(d, "spatial_dim", 1, 1) != 1:
        raise SpecValidationError("spatial_dim = 1 required")
    grid_points = read_integer(d, "grid_points", None, 8)
    if grid_points > MAX_GRID_POINTS:
        raise SpecValidationError(
            f"grid_points must be <= {MAX_GRID_POINTS}, got {grid_points}")
    spec = ProblemSpec(
        N=n,
        coeffs=coeffs,
        box_half_length=read_positive(d, "box_half_length", None, "spec"),
        grid_points=grid_points,
        boundary=boundary,
        signed_power=read_boolean(d, "signed_power", False, "spec"),
        sup_guard=read_positive(d, "sup_guard", 1e6, "spec"),
    )
    try:
        g = make_grid(spec)  # checks the spacing before any sample is taken
    except ValueError as e:
        raise SpecValidationError(str(e)) from e
    _validate_coefficient_samples(spec, g)
    return spec


def read_keys(value, allowed, what: str) -> dict:
    """value as an object whose keys all lie in allowed."""
    unknown = read_object(value, what).keys() - allowed
    if unknown:
        raise SpecValidationError(f"unknown {what} fields: {sorted(unknown)}")
    return value


def read_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecValidationError(f"{what} must be an object, got {value!r}")
    return value


def read_list(section: dict, key: str, where: str) -> list:
    value = section.get(key, [])
    if not isinstance(value, list):
        raise SpecValidationError(f"{where}.{key} must be a list, got {value!r}")
    return value


def read_string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SpecValidationError(f"{what} must be a string, got {value!r}")
    return value


def read_boolean(section: dict, key: str, default: bool, where: str) -> bool:
    """A JSON boolean; truthy values such as "no" or 0 are errors."""
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise SpecValidationError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def read_integer(section: dict, key: str, default: int, least: int) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SpecValidationError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def read_number(section: dict, key: str, default: float, where: str) -> float:
    """A finite JSON number as a float; booleans and strings are errors."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(f"{where} field {key!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SpecValidationError(f"{where} field {key!r} must be finite, got {value!r}")
    return value


def read_positive(section: dict, key: str, default: float, where: str) -> float:
    value = read_number(section, key, default, where)
    if not value > 0:
        raise SpecValidationError(f"{where} field {key!r} must be > 0, got {value!r}")
    return value


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


def spec_to_dict(spec: ProblemSpec) -> dict:
    return {
        "N": spec.N,
        "coeffs": list(spec.coeff_sources()),
        "box_half_length": spec.box_half_length,
        "grid_points": spec.grid_points,
        "boundary": spec.boundary,
        "signed_power": spec.signed_power,
        "sup_guard": spec.sup_guard,
        "spatial_dim": 1,
    }


def canonical_text(spec: ProblemSpec) -> str:
    """Canonical serialization; spec_from_dict(json.loads(canonical_text(s))) == s."""
    return json.dumps(spec_to_dict(spec), indent=2)


def coefficient_norms(nl) -> list[tuple[float, float]]:
    """Discrete (L1, Linf) of each coefficient on the truncated box, read off
    the samples of the reaction nl (a `Nonlinearity`) on its grid.

    Constants are integrable here even though they are not on the whole
    line; run summaries record these norms so the truncation is visible.
    """
    out = []
    for a in nl.coeff_samples:
        f = Field(nl.grid, np.abs(a))
        out.append((integrate(f), sup_norm(f)))
    return out
