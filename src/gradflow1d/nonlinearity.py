"""Pointwise reaction term P(u), its u-derivative, and its potential.

P(u)(x) = -u^N + sum_{i=0}^{N-1} a_i(x) u^i, evaluated by Horner with
coefficients sampled once per grid; expression evaluation never enters the
stepping loop.  signed_power mode replaces -u^N with -u|u|^(N-1).

On arrays, P, P' and the potential Q take one Horner pass each, with the
leading term folded into the top coefficient: -u^N is the coefficient -1
of u^N, and in signed mode with even N, u|u|^(N-1) = |u| u^(N-1) makes the
top coefficient a_{N-1} - |u| (with odd N the signed term is u^N).  Only
elementwise multiplies, adds, subtractions and |.| run, no power kernel,
so the values do not depend on the SIMD kernels numpy picks for the CPU.
At one point, `scalar_P` runs P's fold on floats.
"""

from __future__ import annotations

import numpy as np

from . import exprlang
from .grid import Field, SpatialGrid

__all__ = ["Nonlinearity", "RangeOverflowError", "horner"]


class RangeOverflowError(ArithmeticError):
    """Polynomial evaluation overflowed to a non-finite value.

    Callers in the time stepper treat this as blow-up evidence.
    """


def horner(coeffs, v):
    """sum_i coeffs[i] * v^i by Horner's rule, coefficients in ascending order.

    v is a float or an ndarray; each coefficient is a float or an ndarray
    broadcastable against v.  The loop starts at the leading coefficient.
    Empty coeffs give 0.0; one coefficient is returned as is, not broadcast
    against v.
    """
    rest = reversed(coeffs)
    acc = next(rest, 0.0)
    for a in rest:
        acc = acc * v + a
    return acc


def _coefficient(a):
    """A sampled coefficient as `_folded_horner` takes it: None when every
    sample is 0.0 (its add is skipped), a 0-d array when all agree (numpy
    adds a 0-d operand faster than an array), else the samples."""
    if a is None or not a.any():
        return None
    return np.array(a[0]) if np.ptp(a) == 0.0 else a


def _fold(coeffs, lead: float, absolute: bool) -> tuple:
    """coeffs[0] + coeffs[1] v + ... + (coeffs[k] + lead*w) v^k, k =
    len(coeffs) - 1 and w = |v| if absolute else v, in the form
    `_folded_horner` takes; a coefficient of None is zero."""
    c = [_coefficient(a) for a in coeffs]
    return (absolute, None if lead == -1.0 else np.array(lead), c[-1],
            tuple(reversed(c[1:-1])) if len(c) > 1 else None, c[0])


def _folded_horner(poly, v, out, work):
    """The polynomial poly = `_fold(...)` at v, written into out.

    Horner's rule from the top coefficient, with the leading term lead*w*v^k
    folded into it; a lead of None is -1, taken by one subtraction, and a
    zero coefficient adds nothing.  The accumulator lives in work and only
    the last operation writes out, reading v and work elementwise, so out
    may be v.
    """
    absolute, lead, top, middle, constant = poly
    w = np.absolute(v, work) if absolute else v
    if lead is None:
        acc = np.negative(w, work) if top is None else np.subtract(top, w, work)
    else:
        acc = np.multiply(w, lead, work)
        if top is not None:
            np.add(acc, top, work)
    if middle is None:  # k = 0
        out[...] = acc
        return out
    for c in middle:
        np.multiply(acc, v, work)
        if c is not None:
            np.add(acc, c, work)
    np.multiply(acc, v, out)
    return out if constant is None else np.add(out, constant, out)


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
        n = spec.N
        # P, P' and Q with their leading terms -u^N, -N u^(N-1) and
        # -u^(N+1)/(N+1) folded into the top coefficient, sampled once like
        # P's; in signed mode with even N the fold takes |u| for one factor u
        absolute = self._absolute = spec.signed_power and n % 2 == 0
        self._below_top = range(n - 2, -1, -1)  # `scalar_P`'s Horner order
        self._P = _fold(samples, -1.0, absolute)
        self._dP = _fold([i * samples[i] for i in range(1, n)], -float(n), absolute)
        self._Q = _fold([None] + [a / (i + 1) for i, a in enumerate(samples)],
                        -1.0 / (n + 1), absolute)
        # the grid samples when every one agrees, for the grid's constant
        # equilibria; off the grid, `shoot` samples the expressions itself
        self._constant = (tuple(float(a[0]) for a in samples)
                          if all(np.ptp(a) == 0.0 for a in samples) else None)

    def constant_coefficients(self) -> tuple[float, ...] | None:
        """a_0 .. a_{N-1} as floats when every grid sample of each agrees,
        else None."""
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
        """P at samples v with no finite check, written into out; work is
        scratch, and out may be v.

        The caller holds np.errstate(over="ignore", invalid="ignore") and
        tests the result through a reduction it takes anyway (max or sum
        propagate inf and nan).
        """
        return _folded_horner(self._P, v, out, work)

    def apply_dP(self, v: np.ndarray) -> np.ndarray:
        """Pointwise derivative of P at samples v (the Jacobian diagonal)."""
        out, work = np.empty((2, len(v)))
        with np.errstate(over="ignore", invalid="ignore"):
            _folded_horner(self._dP, v, out, work)
        return self._check(out, "dP(u)")

    def potential(self, u: Field) -> Field:
        """Antiderivative in u of P, sampled pointwise (the action integrand)."""
        with np.errstate(over="ignore", invalid="ignore"):
            q = self.potential_unchecked(u.values, *np.empty((2, self.grid.m)))
        return Field(self.grid, self._check(q, "potential(u)"))

    def potential_unchecked(self, v: np.ndarray, out: np.ndarray,
                            work: np.ndarray) -> np.ndarray:
        """The potential Q at samples v, or at each row of a stack of them
        (v[..., j] at node j), with no finite check, on the terms of
        `apply_P_unchecked`: written into out, work as scratch."""
        return _folded_horner(self._Q, v, out, work)

    def scalar_P(self, uval: float, coeffs) -> float:
        """P at a single u, with coeffs the floats a_0(x) .. a_{N-1}(x) at one
        point; used by phase-plane shooting.  The fold of `_folded_horner`
        on floats, so at a node's samples it equals `apply_P_values` there
        up to the sign of zero.  Only *, + and - run, which never raise:
        an overflow gives inf or nan."""
        acc = coeffs[-1] - (abs(uval) if self._absolute else uval)
        for i in self._below_top:
            acc = acc * uval + coeffs[i]
        return acc
