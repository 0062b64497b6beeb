"""Ground condensate mode from the stationary Gross-Pitaevskii equation.

The mode xi0 solves, in trap units,

    -1/2 lap(xi0) + (r^2/2) xi0 + g*nbar*xi0^3 = mu*xi0,   integral(xi0^2) = 1,

and is found by Newton's method in w = r*xi0 space, where the discrete
operator is symmetric tridiagonal.  Each Newton step solves the bordered
system for (w, mu) under the norm constraint with one tridiagonal
factorization of the Jacobian H[xi0] + 2*g*nbar*xi0^2 - mu and is accepted
only when that Jacobian is positive definite and the residual falls.
Otherwise a block of backward-Euler (semi-implicit) imaginary-time steps
runs, each one positive-definite tridiagonal solve with no step-size
stability limit followed by renormalization, and Newton is tried again.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    IntegratorFailureError,
    InvalidParameterError,
    TruncationOverflowError,
    UnsupportedRegimeError,
)
from .grid import RadialField, integrate, laplacian
from .params import _count, _real

_METHODS = ("numeric", "thomas_fermi")
# A ground mode may keep at most this weight in the outer tenth of the
# grid; more means the hard wall at r_max cuts the cloud.
_WALL_WEIGHT_TOL = 1e-8
# Imaginary-time step of solve_gpe; backward Euler is stable at any step.
_DTAU = 0.02
# Imaginary-time steps taken when a Newton trial is refused.
_FALLBACK_STEPS = 10
_EPS = float(np.finfo(float).eps)
# A converged mode may dip below zero by at most this many eps times its
# maximum before the clamp; a deeper dip is a node.  Measured pre-clamp
# minima are >= 0 from nbar = 1 to 1e6 and for the free gas.
_NODE_ULPS = 16


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


def _apply_h(dp, xi):
    """H[xi] xi, the interaction evaluated at xi, and its Rayleigh quotient mu."""
    lap = laplacian(xi)
    r = xi.grid.nodes
    hxi = -0.5 * lap.values + (0.5 * r**2 + dp.g * dp.nbar * xi.values**2) * xi.values
    return hxi, integrate(RadialField(xi.grid, xi.values * hxi))


def chemical_potential(dp, xi):
    return _apply_h(dp, xi)[1]


def residual_norm(dp, xi):
    hxi, mu = _apply_h(dp, xi)
    res = hxi - mu * xi.values
    return math.sqrt(integrate(RadialField(xi.grid, res * res)))


def gpe_residual(gm, dp):
    """L2 norm of (H[xi0] - mu) xi0 with the discrete operators, at gm.nbar.

    Converged numeric modes sit at the solver tolerance; the Thomas-Fermi
    profile shows the discretization floor instead.
    """
    return residual_norm(replace(dp, nbar=gm.nbar), gm.xi0)


def _ptsv(d, e, b):
    """Solve T x = b for T = tridiag(e, d, e) of order n >= 2, as LAPACK dptsv.

    Returns (x, info): info = i > 0 when the i-th pivot (1-based) of the
    LDL^T factorization is not positive, and x is then b unsolved.  Once
    scipy.linalg is loaded this is dptsv.  Before that, so that a command
    needing nothing else from scipy never imports it, the same operations
    run in Python in LAPACK's order: the dpttrf loop, then for each
    right-hand side dptts2's forward sweep, the division by the last pivot
    and the back sweep.  Both paths give the same bits, but the Python one
    is about twenty times slower: 3 ms against 0.13 ms for two right-hand
    sides at n = 4000 (one core).
    """
    if "scipy.linalg" in sys.modules:
        from scipy.linalg.lapack import dptsv

        _, _, x, info = dptsv(d, e, b)
        return x, info
    d, e = d.tolist(), e.tolist()
    n = len(d)
    for i in range(n - 1):
        if d[i] <= 0.0:
            return b.copy(), i + 1
        ei = e[i]
        e[i] = ei / d[i]
        d[i + 1] = d[i + 1] - e[i] * ei
    if d[n - 1] <= 0.0:
        return b.copy(), n
    columns = []
    for x in b.reshape(n, -1).T.tolist():
        for i in range(1, n):
            x[i] = x[i] - x[i - 1] * e[i - 1]
        x[n - 1] = x[n - 1] / d[n - 1]
        for i in range(n - 2, -1, -1):
            x[i] = x[i] / d[i] - x[i + 1] * e[i]
        columns.append(x)
    return np.array(columns).T.reshape(b.shape), 0


def _unit_w(grid, w):
    """xi = w/r with w scaled to unit norm 4*pi*h*sum(w^2)."""
    return w / math.sqrt(4.0 * np.pi * grid.h * np.sum(w**2)) / grid.nodes


def imaginary_time_step(dp, grid, values, dtau):
    """One backward-Euler imaginary-time step in w-space plus renormalization."""
    r = grid.nodes
    h = grid.h
    pot = 0.5 * r**2 + dp.g * dp.nbar * values**2
    d = 1.0 + dtau * (1.0 / h**2 + pot)
    e = np.full(grid.n_points - 1, -dtau / (2.0 * h**2))
    w, info = _ptsv(d, e, r * values)
    if info != 0:
        raise IntegratorFailureError(f"imaginary-time solve failed: dptsv info {info}")
    return _unit_w(grid, w)


def newton_step(dp, grid, values):
    """One Newton step for (xi0, mu) under the norm constraint, in w-space.

    With mu the Rayleigh quotient, f = (H[xi] - mu) w and J the Jacobian
    H[xi] + 2*g*nbar*xi^2 - mu, one factorization of J gives a = J^-1 f and
    b = J^-1 w, and the bordered step is w - a + (<w,a>/<w,b>) b, then
    renormalized.  Returns None when J is not positive definite.
    """
    r = grid.nodes
    h = grid.h
    hxi, mu = _apply_h(dp, RadialField(grid, values))
    w = r * values
    d = 1.0 / h**2 + 0.5 * r**2 + 3.0 * dp.g * dp.nbar * values**2 - mu
    e = np.full(grid.n_points - 1, -0.5 / h**2)
    ab, info = _ptsv(d, e, np.column_stack((r * (hxi - mu * values), w)))
    if info != 0:
        return None
    a, b = ab[:, 0], ab[:, 1]
    return _unit_w(grid, w - a + (np.sum(w * a) / np.sum(w * b)) * b)


def _thomas_fermi(dp, grid):
    """The Thomas-Fermi profile of thomas_fermi_mode and its mu."""
    mu = 0.5 * dp.b_tf
    return np.sqrt(np.maximum(mu - 0.5 * grid.nodes**2, 0.0) / (dp.g * dp.nbar)), mu


def _initial_guess(dp, grid):
    if dp.g > 0 and dp.b_tf > 2.0:
        values = _thomas_fermi(dp, grid)[0]
    else:  # the oscillator ground state
        values = np.pi**-0.75 * np.exp(-0.5 * grid.nodes**2)
    norm = integrate(RadialField(grid, values**2))
    if not norm > 0.0:
        raise InvalidParameterError(
            f"grid spacing h = {grid.h:.6g} is too coarse: the initial guess "
            f"has no weight on any node; lower r_max or add grid points"
        )
    return values / math.sqrt(norm)


def solve_gpe(dp, grid, tol=1e-8, max_iter=100000):
    """Ground-state solve: Newton steps, with imaginary time as the fallback.

    Each outer iteration tries one Newton step (`newton_step`) and keeps it
    when the Jacobian is positive definite and the residual falls; otherwise
    it takes a block of `_FALLBACK_STEPS` backward-Euler imaginary-time
    steps.  Far from the ground mode (for instance from the Thomas-Fermi
    guess at nbar of a few hundred) the Jacobian is indefinite and imaginary
    time brings the iterate into Newton's basin; near it Newton converges
    quadratically to the round-off floor.

    Parameters
    ----------
    dp : DimensionlessParams
    grid : RadialGrid
    tol : float
        Convergence threshold on the L2 residual norm of the discrete
        eigenproblem; it is the only stopping test.
    max_iter : int
        Step budget, counting each accepted Newton step and each
        imaginary-time step as one; exceeding it raises a convergence error
        carrying the last residual.

    Returns
    -------
    GroundMode
        Normalized non-negative mode with chemical potential, final
        residual and iteration count (Newton plus imaginary-time steps).

    Raises TruncationOverflowError when more than _WALL_WEIGHT_TOL of the
    mode's weight lies in the outer tenth of the grid: the hard wall at
    r_max then shapes the mode, which is no longer the trapped ground mode.
    """
    if dp.g < 0:
        raise UnsupportedRegimeError(
            f"attractive interactions (g = {dp.g}) are not supported"
        )
    tol = _real(tol, "tol", 0.0, strict=True)
    max_iter = _count(max_iter, "max_iter", 0)
    values = _initial_guess(dp, grid)
    res = residual_norm(dp, RadialField(grid, values))
    # Applying H to a unit mode rounds by about eps * max|diag H| in the
    # residual's norm.  Converged residuals sit at 0.2-0.35 of this floor
    # (nbar = 1 to 1e6, 800 and 4000 points), so a tol below it is reached
    # by chance if at all, and the loop would spend its whole budget.
    diag = 1.0 / grid.h**2 + 0.5 * grid.nodes**2 + dp.g * dp.nbar * values**2
    floor = _EPS * float(np.max(diag))
    if tol < floor:
        raise ConvergenceError(
            f"tol {tol:.3e} is below the round-off floor {floor:.3e} of the "
            f"residual on this grid (eps * max|diag H|); raise tol or coarsen the grid",
            residual=res,
            iterations=0,
        )
    iterations = 0
    while res > tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence after {iterations} iterations "
                f"(residual {res:.3e}, tol {tol:.3e})",
                residual=res,
                iterations=iterations,
            )
        trial = newton_step(dp, grid, values)
        if trial is not None:
            trial_res = residual_norm(dp, RadialField(grid, trial))
            if trial_res < res:
                values, res = trial, trial_res
                iterations += 1
                continue
        steps = min(_FALLBACK_STEPS, max_iter - iterations)
        for _ in range(steps):
            values = imaginary_time_step(dp, grid, values, _DTAU)
        iterations += steps
        res = residual_norm(dp, RadialField(grid, values))
    # A nodeless eigenvector of the tridiagonal Z-matrix H[xi0] is its
    # lowest one (Perron-Frobenius), so a sign check certifies the ground
    # state; the clamp then only drops round-off.
    low, high = float(np.min(values)), float(np.max(values))
    if low < -_NODE_ULPS * _EPS * high:
        raise ConvergenceError(
            f"the converged state has a node (min xi0 {low:.3e}, max {high:.3e}): "
            "it is an excited stationary state, not the ground mode",
            residual=res,
            iterations=iterations,
        )
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
        mu=chemical_potential(dp, xi0),
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
    values, mu = _thomas_fermi(dp, grid)
    xi0 = RadialField(grid, values)
    return GroundMode(
        xi0=xi0,
        mu=mu,
        nbar=dp.nbar,
        method="thomas_fermi",
        residual=residual_norm(dp, xi0),
        iterations=0,
    )
