"""Uniform radial grid for spherically symmetric fields.

Fields f(r) are sampled on nodes r_i = i*h, i = 1..n (the origin is not a
node; regular fields are recovered there by the w = r*f transform).  The
spherical Laplacian uses (1/r) d^2(r f)/dr^2 with second-order central
differences and the boundary values w(0) = 0, w(r_max + h) = 0, which makes
the operator an exactly symmetric tridiagonal matrix in w-space.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

# Largest r_max (trap units) for which 4*pi*r_max^3, the scale of the
# quadrature weights 4*pi*r^2*h summed over the grid, stays a finite float.
_R_MAX_LIMIT = 1e102


@dataclass(frozen=True, eq=False)
class RadialGrid:
    r_max: float
    n_points: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.r_max > 0 and np.isfinite(self.r_max)):
            raise InvalidParameterError(f"r_max must be positive, got {self.r_max}")
        if not self.r_max <= _R_MAX_LIMIT:
            raise InvalidParameterError(
                f"r_max = {self.r_max:g} exceeds {_R_MAX_LIMIT:g}: the volume "
                f"quadrature's 4*pi*r^2*h weights would overflow a float"
            )
        if self.n_points < 16:
            raise InvalidParameterError(
                f"n_points must be at least 16, got {self.n_points}"
            )
        h = self.r_max / self.n_points
        object.__setattr__(self, "nodes", h * np.arange(1, self.n_points + 1))

    @property
    def h(self):
        return self.r_max / self.n_points


@dataclass(frozen=True, eq=False)
class RadialField:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype.kind not in "fc":
            values = values.astype(float)
        if values.shape != (self.grid.n_points,):
            raise InvalidParameterError(
                f"field has {values.shape} values for a grid of {self.grid.n_points} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("field contains non-finite values")
        object.__setattr__(self, "values", values)


def integrate(f):
    """Quadrature of a radial field over all space, 4*pi*h*sum(r^2 f).

    Second order (or better) for smooth localized fields; both endpoint
    contributions r^2 f vanish when f decays by r_max.
    """
    total = 4.0 * np.pi * f.grid.h * np.sum(f.grid.nodes**2 * f.values)
    if f.values.dtype.kind == "c":
        return complex(total)
    return float(total)


def laplacian(f):
    """Spherical Laplacian of a radial field, same grid."""
    r = f.grid.nodes
    h = f.grid.h
    w = np.zeros(f.grid.n_points + 2, dtype=f.values.dtype)
    w[1:-1] = r * f.values
    d2w = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2
    return RadialField(f.grid, d2w / r)


def default_grid(dp, n_points=4000, r_max=None):
    """Grid sized to hold the condensate: r_max covers twice the TF radius."""
    if r_max is None:
        r_max = 8.0
        if dp.g > 0 and dp.b_tf > 0:
            r_max = max(8.0, 2.0 * np.sqrt(dp.b_tf))
    return RadialGrid(r_max=float(r_max), n_points=int(n_points))
