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


def horner(coeffs, v, out=None):
    """sum_i coeffs[i] * v^i by Horner's rule, coefficients in ascending order.

    v is a float or an ndarray; each coefficient is a float or an ndarray
    broadcastable against v.  The loop starts at the leading coefficient,
    and every caller goes through it, so all round in the same order.
    Empty coeffs give 0.0; one coefficient is returned as is, not broadcast
    against v.  With out, an array of the result's shape, the same
    operations write into out.
    """
    rest = reversed(coeffs)
    acc = next(rest, 0.0)
    for a in rest:
        if out is None:
            acc = acc * v + a
        else:
            acc = np.add(np.multiply(acc, v, out), a, out)
    return acc


def _power_of(k: int):
    """(v, out) -> v**k written into out, by the ufunc that ** calls:
    np.square for k = 2, else np.power with k as a 0-d array, which a ufunc
    takes faster than a Python number."""
    if k == 2:
        return np.square
    exponent = np.array(float(k))
    return lambda v, out: np.power(v, exponent, out)


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
        n = self.degree = spec.N
        self.signed_power = spec.signed_power
        # the array paths' leading terms v^N (v|v|^(N-1)) and
        # v^(N+1)/(N+1) (|v|^(N+1)/(N+1))
        self._power_P = _power_of(n - 1 if self.signed_power else n)
        self._power_Q = _power_of(n + 1)
        self._divisor_Q = np.array(float(n + 1))

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
            return self._check(self.apply_P_unchecked(v, *np.empty((2, len(v)))), "P(u)")

    def apply_P_unchecked(self, v: np.ndarray, out: np.ndarray,
                          work: np.ndarray) -> np.ndarray:
        """P at samples v with no finite check, written into out; work
        takes the leading term.

        The caller holds np.errstate(over="ignore", invalid="ignore") and
        tests the result through a reduction it takes anyway (max or sum
        propagate inf and nan).
        """
        lower = horner(self.coeff_samples, v, out)
        if self.signed_power:
            lead = np.multiply(v, self._power_P(np.abs(v, work), work), work)
        else:
            lead = self._power_P(v, work)
        return np.subtract(lower, lead, out)

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
            q = self.potential_unchecked(u.values, *np.empty((2, self.grid.m)))
        return Field(self.grid, self._check(q, "potential(u)"))

    def potential_unchecked(self, v: np.ndarray, out: np.ndarray,
                            work: np.ndarray) -> np.ndarray:
        """The potential Q at samples v with no finite check, on the terms
        of `apply_P_unchecked`: written into out, the leading term in work."""
        lower = np.multiply(horner(self._Q_coeffs, v, out), v, out)
        lead = self._power_Q(np.abs(v, work) if self.signed_power else v, work)
        return np.subtract(lower, np.divide(lead, self._divisor_Q, work), out)

    def coeffs_at(self, xval: float):
        """a_0(x) .. a_{N-1}(x) at a single point, off-grid."""
        if self._constant is not None:
            return self._constant
        return [f(xval) for f in self._coeff_funs]

    def scalar_P(self, uval: float, coeffs) -> float:
        """P at a single u, with coeffs = coeffs_at(x); used by phase-plane
        shooting.  Builtin abs and ** keep float operations (** raises
        OverflowError)."""
        n = self.degree
        if self.signed_power:
            return horner(coeffs, uval) - uval * abs(uval) ** (n - 1)
        return horner(coeffs, uval) - uval**n

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
