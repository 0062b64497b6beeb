"""Ground condensate mode from the stationary Gross-Pitaevskii equation.

The mode xi0 solves, in trap units,

    -1/2 lap(xi0) + (r^2/2) xi0 + g*nbar*xi0^3 = mu*xi0,   integral(xi0^2) = 1,

and is found by imaginary-time propagation.  Each step applies a
backward-Euler (semi-implicit) update in w = r*xi0 space, which reduces to a
symmetric positive-definite tridiagonal solve and has no step-size stability
limit, followed by renormalization.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .errors import (
    ConvergenceError,
    InvalidParameterError,
    TruncationOverflowError,
    UnsupportedRegimeError,
)
from .grid import RadialField, integrate, laplacian

_METHODS = ("numeric", "thomas_fermi", "gaussian")
# A ground mode may keep at most this weight in the outer tenth of the
# grid; more means the hard wall at r_max cuts the cloud.
_WALL_WEIGHT_TOL = 1e-8
# Imaginary-time step of solve_gpe; backward Euler is stable at any step.
_DTAU = 0.02


@dataclass(frozen=True, eq=False)
class GroundMode:
    xi0: RadialField
    mu: float
    nbar: float
    method: str
    residual: float
    iterations: int

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InvalidParameterError(f"unknown ground-mode method {self.method!r}")
        norm = integrate(RadialField(self.xi0.grid, self.xi0.values**2))
        if abs(norm - 1.0) > 1e-3:
            raise InvalidParameterError(
                f"ground mode is not normalized: integral(xi0^2) = {norm!r}"
            )
        if np.min(self.xi0.values) < -1e-12:
            raise InvalidParameterError("ground mode must be non-negative")


def _apply_h(dp, xi, nbar):
    """Action of the GP Hamiltonian with the interaction evaluated at xi."""
    lap = laplacian(xi)
    r = xi.grid.nodes
    values = -0.5 * lap.values + (0.5 * r**2 + dp.g * nbar * xi.values**2) * xi.values
    return RadialField(xi.grid, values)


def chemical_potential(dp, xi, nbar):
    hxi = _apply_h(dp, xi, nbar)
    return integrate(RadialField(xi.grid, xi.values * hxi.values))


def energy(dp, xi, nbar):
    """GP energy functional; decreases monotonically under imaginary time."""
    mu = chemical_potential(dp, xi, nbar)
    quartic = integrate(RadialField(xi.grid, xi.values**4))
    return mu - 0.5 * dp.g * nbar * quartic


def residual_norm(dp, xi, nbar):
    hxi = _apply_h(dp, xi, nbar)
    mu = integrate(RadialField(xi.grid, xi.values * hxi.values))
    res = hxi.values - mu * xi.values
    return math.sqrt(integrate(RadialField(xi.grid, res * res)))


def gpe_residual(gm, dp):
    """L2 norm of (H[xi0] - mu) xi0 with the discrete operators.

    Converged numeric modes sit at the solver tolerance; analytic profiles
    (Gaussian with g = 0, Thomas-Fermi) show the discretization floor
    instead.
    """
    return residual_norm(dp, gm.xi0, gm.nbar)


def imaginary_time_step(dp, grid, values, nbar, dtau):
    """One backward-Euler imaginary-time step in w-space plus renormalization."""
    r = grid.nodes
    h = grid.h
    pot = 0.5 * r**2 + dp.g * nbar * values**2
    ab = np.empty((2, grid.n_points))
    ab[0, 0] = 0.0
    ab[0, 1:] = -dtau / (2.0 * h**2)
    ab[1, :] = 1.0 + dtau * (1.0 / h**2 + pot)
    w = solveh_banded(ab, r * values)
    w /= math.sqrt(4.0 * np.pi * h * np.sum(w**2))
    return w / r


def _initial_guess(dp, grid):
    if dp.g > 0 and dp.b_tf > 2.0:
        mu = 0.5 * dp.b_tf
        values = np.sqrt(np.maximum(mu - 0.5 * grid.nodes**2, 0.0) / (dp.g * dp.nbar))
    else:
        values = np.pi**-0.75 * np.exp(-0.5 * grid.nodes**2)
    norm = integrate(RadialField(grid, values**2))
    if not norm > 0.0:
        raise InvalidParameterError(
            f"grid spacing h = {grid.h:.6g} is too coarse: the initial guess "
            f"has no weight on any node; lower r_max or add grid points"
        )
    return values / math.sqrt(norm)


def solve_gpe(dp, grid, tol=1e-8, max_iter=100000):
    """Imaginary-time ground-state solve.

    Parameters
    ----------
    dp : DimensionlessParams
    grid : RadialGrid
    tol : float
        Convergence threshold on the L2 residual norm of the discrete
        eigenproblem.
    max_iter : int
        Iteration budget; exceeding it raises a convergence error carrying
        the last residual.

    Returns
    -------
    GroundMode
        Normalized non-negative mode with chemical potential, final
        residual and iteration count.

    Raises TruncationOverflowError when more than _WALL_WEIGHT_TOL of the
    mode's weight lies in the outer tenth of the grid: the hard wall at
    r_max then shapes the mode, which is no longer the trapped ground mode.
    """
    if dp.g < 0:
        raise UnsupportedRegimeError(
            f"attractive interactions (g = {dp.g}) are not supported"
        )
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidParameterError(f"tol must be finite and positive, got {tol}")
    values = _initial_guess(dp, grid)
    res = residual_norm(dp, RadialField(grid, values), dp.nbar)
    iterations = 0
    while res > tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence after {iterations} iterations "
                f"(residual {res:.3e}, tol {tol:.3e})",
                residual=res,
                iterations=iterations,
            )
        steps = min(10, max_iter - iterations)
        for _ in range(steps):
            values = imaginary_time_step(dp, grid, values, dp.nbar, _DTAU)
        iterations += steps
        res = residual_norm(dp, RadialField(grid, values), dp.nbar)
    values = np.maximum(values, 0.0)
    outer = grid.nodes > 0.9 * grid.r_max
    wall_weight = 4.0 * np.pi * grid.h * float(
        np.sum(grid.nodes[outer] ** 2 * values[outer] ** 2)
    )
    if wall_weight > _WALL_WEIGHT_TOL:
        raise TruncationOverflowError(
            f"the mode keeps {wall_weight:.3g} of its weight beyond "
            f"0.9 r_max = {0.9 * grid.r_max:g} (tolerance {_WALL_WEIGHT_TOL:g}): "
            "the hard wall at r_max cuts the cloud; raise r_max"
        )
    xi0 = RadialField(grid, values)
    return GroundMode(
        xi0=xi0,
        mu=chemical_potential(dp, xi0, dp.nbar),
        nbar=dp.nbar,
        method="numeric",
        residual=res,
        iterations=iterations,
    )


def thomas_fermi_mode(dp, grid):
    """Closed-form Thomas-Fermi profile sqrt((mu - r^2/2)/(g*nbar)), mu = b_tf/2.

    Normalization is exact analytically; on the grid it holds to quadrature
    accuracy.  The profile has a kink at the TF radius, so its discrete
    residual does not vanish.
    """
    if dp.g <= 0:
        raise UnsupportedRegimeError("Thomas-Fermi profile requires g > 0")
    mu = 0.5 * dp.b_tf
    values = np.sqrt(np.maximum(mu - 0.5 * grid.nodes**2, 0.0) / (dp.g * dp.nbar))
    xi0 = RadialField(grid, values)
    return GroundMode(
        xi0=xi0,
        mu=mu,
        nbar=dp.nbar,
        method="thomas_fermi",
        residual=residual_norm(dp, xi0, dp.nbar),
        iterations=0,
    )


def gaussian_mode(grid, nbar):
    """Oscillator ground state, the exact g = 0 mode (mu = 3/2)."""
    values = np.pi**-0.75 * np.exp(-0.5 * grid.nodes**2)
    xi0 = RadialField(grid, values)
    return GroundMode(
        xi0=xi0, mu=1.5, nbar=nbar, method="gaussian", residual=0.0, iterations=0
    )
