"""Uniform 1-D grid, finite-difference operators, quadrature, discrete norms.

Boundary closures use one ghost node per side:

    periodic    wrap-around
    dirichlet0  ghost value 0 at the walls
    neumann0    ghost mirrors the adjacent interior value (zero flux)

`laplacian_extended` and `dirichlet_energy_extended` form a matched pair:
for every boundary closure, <-laplacian(u), u> equals twice the
forward-difference Dirichlet energy exactly, so the discrete action gradient
is exactly laplacian(u) + P(u).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import exprlang

BOUNDARIES = ("periodic", "dirichlet0", "neumann0")


class SpatialGrid:
    """Uniform grid on [-L/2, L/2].

    periodic:            h = L/M, nodes x_j = -L/2 + j*h
    dirichlet0/neumann0: h = L/(M+1), interior nodes x_j = -L/2 + (j+1)*h
    """

    __slots__ = ("m", "boundary", "length", "h", "nodes")

    def __init__(self, box_half_length: float, m: int, boundary: str):
        if boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
        if m < 8:
            raise ValueError("grid_points M >= 8 required")
        if not box_half_length > 0:
            raise ValueError("box_half_length > 0 required")
        self.m = int(m)
        self.boundary = boundary
        self.length = 2.0 * float(box_half_length)
        if boundary == "periodic":
            self.h = self.length / self.m
            start = -box_half_length
        else:
            self.h = self.length / (self.m + 1)
            start = -box_half_length + self.h
        if not np.finfo(float).tiny <= self.h * self.h < np.inf:
            raise ValueError(f"grid spacing h = {self.h!r}: h*h is not a normal float")
        nodes = start + self.h * np.arange(self.m)
        nodes.setflags(write=False)
        self.nodes = nodes

    def __eq__(self, other):
        return (
            isinstance(other, SpatialGrid)
            and self.m == other.m
            and self.length == other.length
            and self.boundary == other.boundary
        )

    def __hash__(self):
        return hash((self.m, self.length, self.boundary))

    def __repr__(self):
        return f"SpatialGrid(L={self.length}, M={self.m}, boundary={self.boundary!r})"


class Field:
    """Finite real samples of a function on a SpatialGrid; immutable."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: SpatialGrid, values):
        v = np.array(values, dtype=float)
        if v.shape != (grid.m,):
            raise ValueError(f"expected {grid.m} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("Field values must be finite")
        v.setflags(write=False)
        self.grid = grid
        self.values = v

    @classmethod
    def constant(cls, grid: SpatialGrid, c: float) -> "Field":
        return cls(grid, np.full(grid.m, float(c)))

    @classmethod
    def from_expr(cls, grid: SpatialGrid, e) -> "Field":
        if isinstance(e, str):
            e = exprlang.parse(e)
        return cls(grid, exprlang.sample(e, grid.nodes))

    def __repr__(self):
        return f"Field({self.grid!r}, sup={sup_norm(self):.6g})"


def extend(values: np.ndarray, boundary: str) -> np.ndarray:
    """Values with one ghost node appended on each side.

    `laplacian_extended` and `dirichlet_energy_extended` read the result, so
    a caller that needs both stencils of one field extends it once.
    """
    e = np.empty(len(values) + 2)
    e[1:-1] = values
    return set_ghosts(e, boundary)


def set_ghosts(e: np.ndarray, boundary: str) -> np.ndarray:
    """Set the two ghost nodes of e from its interior e[..., 1:-1], in place,
    on every row of a stack of extended fields.

    The time step solves each new field inside such a row, so extending a
    block of them costs two column assignments.
    """
    if boundary == "periodic":
        e[..., 0], e[..., -1] = e[..., -2], e[..., 1]
    elif boundary == "dirichlet0":
        e[..., 0] = e[..., -1] = 0.0
    else:
        e[..., 0], e[..., -1] = e[..., 1], e[..., -2]
    return e


def laplacian_values(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Second central difference with the grid's boundary closure."""
    return laplacian_extended(extend(values, grid.boundary), grid, np.empty(grid.m))


def laplacian_extended(e: np.ndarray, grid: SpatialGrid, out: np.ndarray) -> np.ndarray:
    """The Laplacian stencil (e[:-2] - 2*e[1:-1] + e[2:])/h^2 on
    e = extend(values, grid.boundary), or on each row of a stack of them,
    written into out."""
    c = e[..., 1:-1]
    np.add(c, c, out)  # 2*c, exactly
    np.subtract(e[..., :-2], out, out)
    np.add(out, e[..., 2:], out)
    return np.divide(out, grid.h**2, out)


def dirichlet_energy_extended(e: np.ndarray, grid: SpatialGrid):
    """(1/2) integral of |grad u|^2 on e = extend(values, grid.boundary), in
    the forward-difference convention matched to the Laplacian stencil
    (exact summation by parts for every closure); one value per row of a
    stack of them.  Each row's squares are summed by `np.add.reduce`, which
    gives a row of a stack the bits of its own call on every host."""
    if grid.boundary == "periodic":
        d = e[..., 2:] - e[..., 1:-1]
    elif grid.boundary == "dirichlet0":
        d = e[..., 1:] - e[..., :-1]
    else:
        d = e[..., 2:-1] - e[..., 1:-2]
    return 0.5 * np.add.reduce(np.multiply(d, d, d), axis=-1) / grid.h


def integrate(u: Field) -> float:
    """h * sum over nodes.

    Exact rectangle rule on periodic grids.  On dirichlet0 this equals the
    composite trapezoid rule with zero wall values; on neumann0 the plain
    node sum is kept (a trapezoid wall correction would break the exact
    action-gradient identity) and under-covers the box by one spacing h.
    """
    return u.grid.h * float(np.sum(u.values))


def sup_norm(u: Field) -> float:
    return float(np.max(np.abs(u.values)))


def write_field_csv(u: Field, path) -> None:
    """Snapshot format: header `x,u`, one row per node, 17 significant digits."""
    with open(path, "w") as f:
        f.write("x,u\n")
        for start, rows in zip(range(0, u.grid.m, CSV_BLOCK_ROWS), _node_rows(u.grid)):
            f.write(rows % tuple(u.values[start:start + CSV_BLOCK_ROWS].tolist()))


# rows per `%` of the CSV writers: fewer calls than one per row or value,
# without holding a whole file in memory
CSV_BLOCK_ROWS = 256


@lru_cache(maxsize=1)
def _node_rows(grid: SpatialGrid) -> tuple[str, ...]:
    """The snapshot rows' `%` format per block, each node already written
    as `%.17g` text: the nodes are formatted once for all the snapshots of
    a run.  `%.17g` gives a Python float the bytes of f"{value:.17g}"."""
    return tuple("".join(["%.17g,%%.17g\n" % x
                          for x in grid.nodes[start:start + CSV_BLOCK_ROWS].tolist()])
                 for start in range(0, grid.m, CSV_BLOCK_ROWS))


def read_field_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]
