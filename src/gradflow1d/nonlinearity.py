"""Pointwise reaction term P(u), its u-derivative, and its potential.

P(u)(x) = -u^N + sum_{i=0}^{N-1} a_i(x) u^i, evaluated by Horner with
coefficients sampled once per grid; expression evaluation never enters the
stepping loop.  signed_power mode replaces -u^N with -u|u|^(N-1).
"""

from __future__ import annotations

import numpy as np

from . import exprlang
from .grid import Field, SpatialGrid, sobolev_norm

__all__ = ["Nonlinearity", "RangeOverflowError", "horner"]


class RangeOverflowError(ArithmeticError):
    """Polynomial evaluation overflowed to a non-finite value.

    Callers in the time stepper treat this as blow-up evidence.
    """


def horner(coeffs, v):
    """sum_i coeffs[i] * v^i by Horner's rule, coefficients in ascending order.

    v is a float or an ndarray; each coefficient is a float or an ndarray
    broadcastable against v.  The loop starts from 0.0, so every caller
    rounds in the same order.
    """
    acc = 0.0
    for a in reversed(coeffs):
        acc = acc * v + a
    return acc


class Nonlinearity:
    def __init__(self, spec, grid: SpatialGrid):
        self.spec = spec
        self.grid = grid
        samples = []
        for e in spec.coeffs:
            a = exprlang.sample(e, grid.nodes)
            a.setflags(write=False)
            samples.append(a)
        self.coeff_samples = tuple(samples)
        # Horner coefficients of dP = P' and of the potential Q (before its
        # trailing factor u), sampled once like those of P
        self._dP_coeffs = tuple(i * samples[i] for i in range(1, len(samples)))
        self._Q_coeffs = tuple(a / (i + 1) for i, a in enumerate(samples))
        # off-grid evaluation: the samples when every one agrees, else one
        # compiled function per coefficient
        self._constant = (tuple(float(a[0]) for a in samples)
                          if all(np.ptp(a) == 0.0 for a in samples) else None)
        self._coeff_funs = tuple(exprlang.compile(e) for e in spec.coeffs)
        self._n = spec.N
        self._signed = spec.signed_power

    @property
    def degree(self) -> int:
        return self.spec.N

    @property
    def signed_power(self) -> bool:
        return self.spec.signed_power

    def spatially_constant(self) -> bool:
        return self._constant is not None

    def constant_coefficients(self) -> tuple[float, ...]:
        if self._constant is None:
            raise ValueError("coefficients are not spatially constant")
        return self._constant

    def _check(self, out: np.ndarray, what: str) -> np.ndarray:
        if not np.isfinite(out).all():
            raise RangeOverflowError(f"{what} overflowed to a non-finite value")
        return out

    def apply_P_values(self, v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self._check(self.apply_P_unchecked(v), "P(u)")

    def apply_P_unchecked(self, v: np.ndarray) -> np.ndarray:
        """P at samples v with no finite check.

        The caller holds np.errstate(over="ignore", invalid="ignore") and
        tests the result through a reduction it takes anyway (max or sum
        propagate inf and nan).
        """
        acc = horner(self.coeff_samples, v)
        if self._signed:
            return acc - v * np.abs(v) ** (self._n - 1)
        return acc - v**self._n

    def apply_dP(self, v: np.ndarray) -> np.ndarray:
        """Pointwise derivative of P at samples v (the Jacobian diagonal)."""
        n = self.degree
        with np.errstate(over="ignore", invalid="ignore"):
            acc = horner(self._dP_coeffs, v)
            if self.signed_power:
                acc = acc - n * np.abs(v) ** (n - 1)
            else:
                acc = acc - n * v ** (n - 1)
        return self._check(acc, "dP(u)")

    def potential(self, u: Field) -> Field:
        """Antiderivative in u of P, sampled pointwise (the action integrand)."""
        with np.errstate(over="ignore", invalid="ignore"):
            q = self._check(self.potential_unchecked(u.values), "potential(u)")
        return Field(self.grid, q)

    def potential_unchecked(self, v: np.ndarray) -> np.ndarray:
        """The potential Q at samples v with no finite check, on the terms
        of `apply_P_unchecked`."""
        n = self._n
        acc = horner(self._Q_coeffs, v) * v
        if self._signed:
            return acc - np.abs(v) ** (n + 1) / (n + 1)
        return acc - v ** (n + 1) / (n + 1)

    def coeffs_at(self, xval: float):
        """a_0(x) .. a_{N-1}(x) at a single point, off-grid."""
        if self._constant is not None:
            return self._constant
        return [f(xval) for f in self._coeff_funs]

    def scalar_P(self, uval: float, coeffs) -> float:
        """P at a single u, with coeffs = coeffs_at(x); used by phase-plane shooting."""
        acc = horner(coeffs, uval)
        n = self.degree
        if self.signed_power:
            acc -= uval * abs(uval) ** (n - 1)
        else:
            acc -= uval**n
        return acc

    def scalar_potential(self, uval: float, coeffs) -> float:
        """The potential Q at a single u, with coeffs = coeffs_at(x)."""
        acc = horner([a / (i + 1) for i, a in enumerate(coeffs)], uval) * uval
        n = self.degree
        if self.signed_power:
            acc -= abs(uval) ** (n + 1) / (n + 1)
        else:
            acc -= uval ** (n + 1) / (n + 1)
        return acc

    def reaction_norm_ratio(self, u: Field, k: int, p: float) -> float:
        """||P(u) - a_0||_{k,p} / ||u||_{k,p}.

        The constant-in-u coefficient is subtracted so the numerator has no
        zero-order term; empirically this ratio stays bounded on families
        with bounded samples and differences.
        """
        denom = sobolev_norm(u, k, p)
        if denom == 0.0:
            raise ZeroDivisionError("(k,p)-norm of u is zero")
        pu = self.apply_P_values(u.values) - self.coeff_samples[0]
        return sobolev_norm(Field(self.grid, pu), k, p) / denom
