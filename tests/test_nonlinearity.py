import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradflow1d import problem, verify
from gradflow1d.equilibria import real_polynomial_roots
from gradflow1d.grid import Field
from gradflow1d.nonlinearity import Nonlinearity, RangeOverflowError, horner


def _nl(spec):
    return Nonlinearity(spec, problem.make_grid(spec))


@pytest.fixture
def fisher():
    return _nl(verify.fisher_spec(grid_points=64))


@pytest.fixture
def pure_cubic():
    return _nl(problem.spec_from_dict({
        "N": 3,
        "coeffs": ["0", "0", "0"],
        "box_half_length": 5.0,
        "grid_points": 64,
    }))


def test_fisher_roots(fisher):
    g = fisher.grid
    assert np.all(fisher.apply_P_values(np.full(g.m, 0.0)) == 0.0)
    assert np.all(fisher.apply_P_values(np.full(g.m, 1.0)) == 0.0)


def test_pure_cubic_value(pure_cubic):
    g = pure_cubic.grid
    out = pure_cubic.apply_P_values(np.full(g.m, 2.0))
    assert np.all(out == -8.0)


def test_signed_mode_sign_algebra():
    nl = _nl(problem.spec_from_dict({
        "N": 2,
        "coeffs": ["0", "0"],
        "box_half_length": 5.0,
        "grid_points": 64,
        "signed_power": True,
    }))
    out = nl.apply_P_values(np.full(nl.grid.m, -3.0))
    assert np.all(out == 9.0)


def test_dP_trivial(fisher, pure_cubic):
    assert np.all(fisher.apply_dP(np.zeros(fisher.grid.m)) == 1.0)
    assert np.all(pure_cubic.apply_dP(np.full(pure_cubic.grid.m, 2.0)) == -12.0)


@pytest.mark.parametrize("maker,name", [
    (lambda: _nl(verify.fisher_spec(grid_points=64)), "fisher"),
    (lambda: _nl(verify.cubic_spec(grid_points=64)), "cubic"),
    (lambda: _nl(problem.spec_from_dict({
        "N": 3,
        "coeffs": ["0.2*exp(-x^2)", "1", "0.1*sin(x)"],
        "box_half_length": 5.0,
        "grid_points": 64,
    })), "variable"),
])
def test_dP_matches_central_difference(maker, name):
    # oracle: (P(u+eps) - P(u-eps)) / (2 eps)
    nl = maker()
    rng = np.random.default_rng(17)
    eps = 1e-5
    for _ in range(10):
        v = rng.uniform(-1, 1, nl.grid.m)
        plus = nl.apply_P_values(v + eps)
        minus = nl.apply_P_values(v - eps)
        fd = (plus - minus) / (2 * eps)
        got = nl.apply_dP(v)
        assert np.max(np.abs(fd - got)) <= 1e-6


def test_potential_trivial(fisher):
    g = fisher.grid
    assert np.all(fisher.potential(Field.constant(g, 0.0)).values == 0.0)
    got = fisher.potential(Field.constant(g, 1.0)).values
    assert np.allclose(got, 1.0 / 6.0, atol=1e-15)


def test_potential_derivative_matches_P(fisher):
    # oracle: central difference of the potential in u
    rng = np.random.default_rng(23)
    eps = 1e-5
    for _ in range(10):
        v = rng.uniform(-1, 1, fisher.grid.m)
        plus = fisher.potential(Field(fisher.grid, v + eps)).values
        minus = fisher.potential(Field(fisher.grid, v - eps)).values
        fd = (plus - minus) / (2 * eps)
        assert np.max(np.abs(fd - fisher.apply_P_values(v))) <= 1e-6


def test_signed_potential_derivative():
    nl = _nl(problem.spec_from_dict({
        "N": 2,
        "coeffs": ["0", "1"],
        "box_half_length": 5.0,
        "grid_points": 64,
        "signed_power": True,
    }))
    rng = np.random.default_rng(29)
    eps = 1e-5
    v = rng.uniform(-2, 2, nl.grid.m)
    plus = nl.potential(Field(nl.grid, v + eps)).values
    minus = nl.potential(Field(nl.grid, v - eps)).values
    fd = (plus - minus) / (2 * eps)
    assert np.max(np.abs(fd - nl.apply_P_values(v))) <= 1e-5


def test_constant_field_matches_scalar_horner(fisher):
    # scalar Horner written independently of the vector path
    def scalar_p(c):
        coeffs = [0.0, 1.0]
        acc = 0.0
        for a in reversed(coeffs):
            acc = acc * c + a
        return acc - c**2

    for c in (-1.5, -0.3, 0.0, 0.4, 1.0, 2.5):
        got = fisher.apply_P_values(np.full(fisher.grid.m, c))
        assert np.allclose(got, scalar_p(c), atol=1e-14)
        assert fisher.scalar_P(c, fisher.coeffs_at(0.0)) == pytest.approx(scalar_p(c), abs=1e-14)


def test_overflow_reported(pure_cubic):
    with pytest.raises(RangeOverflowError):
        pure_cubic.apply_P_values(np.full(pure_cubic.grid.m, 1e200))


def test_ratio_zero_field_rejected(fisher):
    with pytest.raises(ZeroDivisionError):
        fisher.reaction_norm_ratio(Field.constant(fisher.grid, 0.0), 0, 2.0)


def test_ratio_fisher_at_one_is_zero(fisher):
    # P(1) = 0 and a_0 = 0
    got = fisher.reaction_norm_ratio(Field.constant(fisher.grid, 1.0), 0, 2.0)
    assert got == 0.0


def test_ratio_subtracts_constant_coefficient():
    nl = _nl(problem.spec_from_dict({
        "N": 2,
        "coeffs": ["3", "0"],
        "box_half_length": 5.0,
        "grid_points": 64,
    }))
    # P(u) = -u^2 + 3; with a_0 removed the numerator is ||{-u^2}||
    u = Field.constant(nl.grid, 1.0)
    got = nl.reaction_norm_ratio(u, 0, 2.0)
    assert got == pytest.approx(1.0)


def test_ratio_bounded_on_seeded_family():
    # regression against the frozen measurement
    from gradflow1d.verify import FROZEN_RATIO_BOUNDS, measure_ratio_bound

    for (k, p), frozen in FROZEN_RATIO_BOUNDS.items():
        measured = measure_ratio_bound(k, p, n_samples=100)
        assert measured <= frozen * (1 + 1e-12)


# -- one Horner on and off the grid ------------------------------------------

_SHAPES = ("cos({k}*x)", "sin({k}*x)", "tanh({k}*x)", "exp(-{k}*x^2)")


@st.composite
def _coefficient_exprs(draw):
    n = draw(st.integers(2, 5))
    varying = draw(st.booleans())
    amp = st.floats(-2.0, 2.0)
    exprs = []
    for _ in range(n):
        c = draw(amp)
        if varying:
            shape = draw(st.sampled_from(_SHAPES)).format(k=draw(st.floats(0.125, 2.0)))
            exprs.append(f"{c!r}+{draw(amp)!r}*{shape}")
        else:
            exprs.append(repr(c))
    return n, exprs


@settings(max_examples=60, deadline=None)
@given(_coefficient_exprs(), st.booleans(), st.integers(0, 2**32 - 1))
def test_scalar_and_vector_forms_agree(case, signed, seed):
    # the two forms round in the same Horner order but sample the
    # coefficients differently (numpy vs math), so they agree to a tolerance
    # relative to the size of the summed terms, not bitwise
    n, exprs = case
    nl = _nl(problem.spec_from_dict({
        "N": n, "coeffs": exprs, "box_half_length": 5.0, "grid_points": 16,
        "signed_power": signed,
    }))
    v = np.random.default_rng(seed).uniform(-3.0, 3.0, nl.grid.m)
    p_vec = nl.apply_P_values(v)
    q_vec = nl.potential(Field(nl.grid, v)).values
    for j, (x, u) in enumerate(zip(nl.grid.nodes, v)):
        scale = abs(u) ** n + sum(abs(a[j]) * abs(u) ** i
                                  for i, a in enumerate(nl.coeff_samples))
        coeffs = nl.coeffs_at(x)
        assert abs(nl.scalar_P(u, coeffs) - p_vec[j]) <= 1e-13 * scale
        assert abs(nl.scalar_potential(u, coeffs) - q_vec[j]) <= 1e-13 * scale * abs(u)


@settings(max_examples=100, deadline=None)
@example([5e-324, 0.0], -1.0)  # sign products underflowed here
@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=5),
       st.sampled_from((-1.0, 1.0)))
def test_polynomial_roots_are_roots_under_horner(coeffs, lead):
    # roots are bisected to 1e-14 and then polished, so allow rounding in the
    # evaluation plus a 1e-13 displacement along the slope
    c = coeffs + [lead]
    for r in real_polynomial_roots(c):
        scale = sum(abs(a) * abs(r) ** i for i, a in enumerate(c))
        slope = sum(i * abs(a) * abs(r) ** (i - 1) for i, a in enumerate(c) if i)
        assert abs(horner(c, r)) <= 1e-12 * scale + 1e-13 * slope
