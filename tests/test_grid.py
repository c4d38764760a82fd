import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gradflow1d.grid import (
    BOUNDARIES,
    Field,
    SpatialGrid,
    dirichlet_energy_extended,
    extend,
    integrate,
    laplacian_extended,
    laplacian_values,
    read_field_csv,
    set_ghosts,
    sup_norm,
    write_field_csv,
)
from gradflow1d.verify import forward_difference, sobolev_norm


def test_grid_layout_periodic():
    g = SpatialGrid(5.0, 10, "periodic")
    assert g.h == pytest.approx(1.0)
    assert g.nodes[0] == -5.0
    assert g.nodes[-1] == pytest.approx(4.0)
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_layout_interior():
    for b in ("dirichlet0", "neumann0"):
        g = SpatialGrid(5.0, 9, b)
        assert g.h == pytest.approx(1.0)
        assert g.nodes[0] == pytest.approx(-4.0)
        assert g.nodes[-1] == pytest.approx(4.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(5.0, 7, "periodic")
    with pytest.raises(ValueError):
        SpatialGrid(-1.0, 16, "periodic")
    with pytest.raises(ValueError):
        SpatialGrid(5.0, 16, "weird")


def test_field_requires_finite():
    g = SpatialGrid(5.0, 8, "periodic")
    with pytest.raises(ValueError):
        Field(g, [np.nan] + [0.0] * 7)
    with pytest.raises(ValueError):
        Field(g, np.zeros(9))


def test_field_immutable():
    g = SpatialGrid(5.0, 8, "periodic")
    f = Field(g, np.arange(8.0))
    with pytest.raises(ValueError):
        f.values[0] = 99.0


def test_laplacian_of_constant_is_zero():
    for b in BOUNDARIES:
        g = SpatialGrid(5.0, 32, b)
        lap = laplacian_values(np.full(g.m, 3.7), g)
        if b == "dirichlet0":
            # walls see the zero ghost; interior rows vanish
            assert np.all(lap[1:-1] == 0.0)
        else:
            assert np.all(lap == 0.0)


def test_laplacian_exact_for_quadratic_interior():
    g = SpatialGrid(5.0, 63, "dirichlet0")
    lap = laplacian_values(g.nodes**2, g)
    assert np.allclose(lap[1:-1], 2.0, rtol=0, atol=1e-11)


def test_laplacian_periodic_eigenmode():
    # discrete eigenvalue derived by substituting the mode into the stencil:
    # sin(k(x+h)) + sin(k(x-h)) - 2 sin(kx) = 2(cos(kh) - 1) sin(kx)
    g = SpatialGrid(5.0, 64, "periodic")
    L = g.length
    k = 2.0 * math.pi / L
    u = np.sin(k * g.nodes)
    lam = -(2.0 / g.h**2) * (1.0 - math.cos(k * g.h))
    assert np.allclose(laplacian_values(u, g), lam * u, atol=1e-12)


def test_integrate_trivial():
    g = SpatialGrid(5.0, 32, "periodic")
    assert integrate(Field.constant(g, 0.0)) == 0.0
    assert integrate(Field.constant(g, 1.0)) == pytest.approx(10.0)


def test_integrate_gaussian():
    # oracle: adaptive quadrature of the same integrand
    oracle, err = quad(lambda x: math.exp(-(x**2)), -8.0, 8.0, epsabs=1e-13)
    assert err < 1e-7
    g = SpatialGrid(8.0, 512, "periodic")
    got = integrate(Field(g, np.exp(-(g.nodes**2))))
    assert got == pytest.approx(oracle, abs=1e-6)
    assert got == pytest.approx(math.sqrt(math.pi), abs=1e-6)


def test_integrate_nonnegative():
    rng = np.random.default_rng(0)
    g = SpatialGrid(5.0, 64, "periodic")
    for _ in range(20):
        f = Field(g, np.abs(rng.standard_normal(g.m)))
        assert integrate(f) >= 0.0


def test_sup_norm():
    g = SpatialGrid(5.0, 16, "periodic")
    assert sup_norm(Field.constant(g, 0.0)) == 0.0
    assert sup_norm(Field.constant(g, -3.0)) == 3.0
    gf = SpatialGrid(math.pi, 4096, "periodic")
    s = sup_norm(Field(gf, np.sin(gf.nodes)))
    assert abs(s - 1.0) <= gf.h**2


def test_sobolev_norm_trivial():
    g = SpatialGrid(5.0, 64, "periodic")
    L = g.length
    c = -2.0
    for p in (1.0, 2.0, 4.0):
        assert sobolev_norm(Field.constant(g, c), 0, p) == pytest.approx(
            abs(c) * L ** (1.0 / p)
        )
    assert sobolev_norm(Field.constant(g, 0.0), 3, 2.0) == 0.0
    for p in (0.5, 3.0, 6.0):  # |D^j u|^p is repeated squaring: p = 1, 2, 4, ...
        with pytest.raises(ValueError, match="power of two"):
            sobolev_norm(Field.constant(g, c), 0, p)


def test_sobolev_norm_sin():
    # (integral sin^2)^(1/2) + (integral cos^2)^(1/2) = 2 sqrt(pi) on [-pi, pi]
    g = SpatialGrid(math.pi, 2048, "periodic")
    got = sobolev_norm(Field(g, np.sin(g.nodes)), 1, 2.0)
    assert got == pytest.approx(2.0 * math.sqrt(math.pi), rel=0.02)


def test_laplacian_self_adjoint_periodic():
    rng = np.random.default_rng(3)
    g = SpatialGrid(5.0, 128, "periodic")
    for _ in range(10):
        u = rng.standard_normal(g.m)
        v = rng.standard_normal(g.m)
        lhs = integrate(Field(g, laplacian_values(u, g) * v))
        rhs = integrate(Field(g, u * laplacian_values(v, g)))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_summation_by_parts_exact(boundary):
    # <-Lap u, u> equals the matched forward-difference energy, exactly
    rng = np.random.default_rng(11)
    g = SpatialGrid(5.0, 96, boundary)
    for _ in range(10):
        u = rng.standard_normal(g.m)
        quad_form = -integrate(Field(g, laplacian_values(u, g) * u))
        energy = dirichlet_energy_extended(extend(u, boundary), g)
        assert quad_form == pytest.approx(2.0 * energy, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BOUNDARIES), st.integers(8, 40), st.integers(0, 2**31))
def test_stencils_match_concatenate_and_roll_forms_bitwise(boundary, m, seed):
    # the ghost-node slices reproduce the np.concatenate / np.roll / np.diff
    # stencils exactly, so trajectories do not change by a bit
    g = SpatialGrid(5.0, m, boundary)
    v = np.random.default_rng(seed).standard_normal(m)
    if boundary == "periodic":
        e = np.concatenate((v[-1:], v, v[:1]))
        d = np.roll(v, -1) - v
    elif boundary == "dirichlet0":
        e = np.concatenate(((0.0,), v, (0.0,)))
        d = np.diff(e)
    else:
        e = np.concatenate((v[:1], v, v[-1:]))
        d = np.diff(v)
    lap = (e[:-2] - 2.0 * v + e[2:]) / g.h**2
    assert laplacian_values(v, g).tobytes() == lap.tobytes()
    assert forward_difference(v, g).tobytes() == ((e[2:] - v) / g.h).tobytes()
    assert dirichlet_energy_extended(extend(v, boundary), g) == \
        0.5 * float(np.add.reduce(d * d)) / g.h


def test_stacked_add_reduce_rows_equal_each_rows_sum_bitwise():
    # the stacked kernels sum each row's squares with np.add.reduce(axis=-1),
    # the stepper reference and the one-field calls with 1-D np.add.reduce:
    # lengths across its pairwise blocks and their tails, far-apart
    # magnitudes, contiguous stacks and ghost-offset views (the interior and
    # both shifted stencils of an extended block), the rows and their squares
    rng = np.random.default_rng(0)
    for n in (8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256,
              257, 1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096, 4097):
        for scale in (1e-8, 1.0, 1e8):
            e = scale * rng.standard_normal((5, n + 2))
            for v in (np.ascontiguousarray(e[:, 1:-1]), e[:, 1:-1], e[:, 2:], e[:, :-2]):
                for w in (v, v * v):
                    got = np.add.reduce(w, axis=-1)
                    for i, r in enumerate(w):
                        assert got[i] == np.add.reduce(r) == np.add.reduce(r.copy()), (n, i)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BOUNDARIES), st.integers(8, 300), st.integers(1, 5),
       st.integers(0, 2**31))
def test_stacked_stencils_match_each_row_bitwise(boundary, m, rows, seed):
    # set_ghosts, the Laplacian and the Dirichlet energy on a block of
    # extended fields give each row the bits of its own one-field call
    g = SpatialGrid(5.0, m, boundary)
    v = np.random.default_rng(seed).standard_normal((rows, m))
    e = np.empty((rows, m + 2))
    e[:, 1:-1] = v
    set_ghosts(e, boundary)
    lap = laplacian_extended(e, g, np.empty((rows, m)))
    energy = dirichlet_energy_extended(e, g)
    for i in range(rows):
        one = extend(v[i], boundary)
        assert e[i].tobytes() == one.tobytes()
        assert lap[i].tobytes() == laplacian_values(v[i], g).tobytes()
        assert energy[i] == dirichlet_energy_extended(one, g)


def test_field_csv_roundtrip(tmp_path):
    g = SpatialGrid(5.0, 16, "periodic")
    f = Field(g, np.linspace(-1, 1, 16) ** 3)
    path = tmp_path / "snap.csv"
    write_field_csv(f, path)
    first = path.read_text().splitlines()[0]
    assert first == "x,u"
    xs, us = read_field_csv(path)
    assert np.array_equal(xs, g.nodes)
    assert np.array_equal(us, f.values)
