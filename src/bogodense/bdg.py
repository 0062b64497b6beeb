"""Quasiparticle spectrum of the condensate and mode-1 decomposition.

The Bogoliubov-de Gennes pair

    L u - g*nbar*xi0^2 v =  omega u,      L = -1/2 lap + r^2/2 - mu + 2 g nbar xi0^2,
    L v - g*nbar*xi0^2 u = -omega v,

becomes, in w = r*f space with s = w_u + w_v and d = w_u - w_v, the
first-order system

    (A - G) s = omega d,      (A + G) d = omega s,

where A - G is the (positive semi-definite) linearized GP operator minus mu
and G = diag(g*nbar*xi0^2).  Both come from gpe._tridiagonal, the one writer
of the w-space operator.  A + G is the Newton Jacobian of the ground
solve, positive definite at the ground mode; with A + G = L L^T (LAPACK's
dpttrf, L bidiagonal) the pair is the symmetric positive semi-definite
pentadiagonal problem

    S y = omega^2 y,      S = L^T (A - G) L,      s = L y.

Its lowest eigenpairs come from shift-invert subspace iteration on
S + _SHIFT*I: one banded Cholesky factorization, one block solve per sweep,
then QR and Rayleigh-Ritz in numpy (Parlett, The Symmetric Eigenvalue
Problem, ch. 14).  The norm of S grows like 1/h^4, so its residuals stall
near eps*||S||; each mode is therefore refined by inverse iteration on the
first-order system, which is banded with three sub- and superdiagonals
when s and d are interleaved, and kept only when its relative residual is
within EIGEN_RESIDUAL_TOL.  The zero-mode (Goldstone) branch is discarded
explicitly.  Every routine comes from scipy's LAPACK extension alone, so
no scipy package is imported.

Physical amplitudes are projected orthogonal to xi0 and normalized to
integral(U^2 - V^2) = 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, InvalidParameterError
from .gpe import _tridiagonal
from .grid import RadialField, integrate
from .params import _count, _scipy_extension

_flapack = _scipy_extension("scipy.linalg._flapack")
dpttrf, dpbtrf, dpbtrs, dgbsv = _flapack.dpttrf, _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dgbsv

# Eigenvalues with omega below this are treated as the Goldstone zero mode.
# That mode is a Jordan block of the first-order system, with no eigenvector
# for inverse iteration to find, so it is discarded before refinement.
OMEGA_TOL = 1e-3
# Largest relative residual ||K x|| / (omega ||x||) of a kept mode x = (s, d),
# K the first-order system minus omega.  Refined modes measure 1e-16 to
# 4e-11 on grids of 24 to 4000 points; the round-off floor grows like 1/h^2,
# to 8e-10 at 24000 points and nbar = 100.
EIGEN_RESIDUAL_TOL = 1e-9
# The subspace iteration factorizes S + _SHIFT*I, positive definite since S
# is semi-definite, and stops when each wanted Ritz pair's residual is at
# most _SUBSPACE_TOL * ||S||; reaching _MAX_SWEEPS first is a failure.
# Measured sweeps: 3 to 17.
_SHIFT = 10.0
_SUBSPACE_TOL = 1e-12
_MAX_SWEEPS = 50
# Inverse-iteration steps on the first-order system per kept mode.
_REFINE_STEPS = 2


@dataclass(frozen=True, eq=False)
class BdgMode:
    omega: float
    u: RadialField  # projected orthogonal to xi0, normalized
    v: RadialField
    residual: float  # relative first-order residual, before the projection


@dataclass(frozen=True, eq=False)
class QuasiparticleSpectrum:
    modes: tuple
    c_const: float

    @property
    def frequencies(self):
        return np.array([m.omega for m in self.modes])


def _operators(gm, dp):
    """(d, e) of the tridiagonals A - G and A + G, from gpe's writer."""
    g_diag = dp.g * gm.nbar * gm.xi0.values**2
    return tuple(_tridiagonal(gm.xi0.grid, c * g_diag, gm.mu) for c in (1.0, 3.0))


def _band_mul(bands, x):
    """The symmetric band matrix with bands[j] on its j-th super- and
    subdiagonal, times a vector or a block of columns x."""
    col = (slice(None),) + (None,) * (x.ndim - 1)
    y = bands[0][col] * x
    for j, band in enumerate(bands[1:], 1):
        y[:-j] += band[col] * x[j:]
        y[j:] += band[col] * x[:-j]
    return y


def _symmetric_form(minus, plus):
    """(a, b) of the L with A + G = L L^T, and the three diagonals of S.

    L has diagonal a and subdiagonal b.  Column i of L is a_i e_i +
    b_i e_(i+1), so S_ij = (column i)^T (A - G) (column j) vanishes for
    |i - j| > 2.
    """
    pivots, low, info = dpttrf(*plus)
    if info != 0:
        raise EigensolverError(
            f"A + G is not positive definite (dpttrf info {info}): "
            "the ground mode is not a minimum of the energy"
        )
    a = np.sqrt(pivots)
    b = low * a[:-1]
    d, e = minus
    s0 = a * a * d
    s0[:-1] += b * (2.0 * a[:-1] * e + b * d[1:])
    s1 = a[1:] * (a[:-1] * e + b * d[1:])
    s1[:-1] += b[:-1] * b[1:] * e[1:]
    s2 = b[:-1] * a[2:] * e[1:]
    return (a, b), (s0, s1, s2)


def _lowest_vectors(bands, wanted):
    """The `wanted` lowest Ritz vectors of S, in ascending order of their
    values, by shift-invert subspace iteration.

    The block holds twice the wanted pairs (all of S on a smaller grid), so
    on the near-linear ladder omega_k ~ 2k each sweep shrinks the unwanted
    components by about 1/4.  A pair has converged when its residual is at
    most _SUBSPACE_TOL * ||S||, ||S|| bounded by S's largest absolute row sum.
    """
    n = bands[0].size
    ab = np.zeros((3, n))
    ab[0] = bands[0] + _SHIFT
    ab[1, :-1] = bands[1]
    ab[2, :-2] = bands[2]
    chol, info = dpbtrf(ab, lower=1)
    if info != 0:
        raise EigensolverError(
            f"S + {_SHIFT:g} I is not positive definite (dpbtrf info {info})"
        )
    tol = _SUBSPACE_TOL * float(np.max(_band_mul([np.abs(b) for b in bands], np.ones(n))))
    # The lowest sine modes of the grid: deterministic, with weight on
    # every low mode of S.
    q = np.outer(np.arange(1, n + 1) * (np.pi / (n + 1)), np.arange(1, min(2 * wanted, n) + 1))
    np.sin(q, out=q)
    for _ in range(_MAX_SWEEPS):
        q = np.linalg.qr(dpbtrs(chol, q, lower=1)[0])[0]
        sq = _band_mul(bands, q)
        theta, w = np.linalg.eigh(q.T @ sq)
        q, sq = q @ w, sq @ w
        sq -= q * theta
        worst = float(np.max(np.linalg.norm(sq[:, :wanted], axis=0)))
        if worst <= tol:
            return q[:, :wanted]
    raise EigensolverError(
        f"subspace iteration did not converge in {_MAX_SWEEPS} sweeps "
        f"(residual {worst:.3e}, tolerance {tol:.3e})"
    )


def _first_order_band(minus, plus):
    """[[0, A+G], [A-G, 0]] with (s_0, d_0, s_1, d_1, ...) interleaved, in
    dgbsv's layout for kl = ku = 3: row 6 - o holds diagonal o, and rows
    0-2 are room for the fill-in of its pivoting."""
    (dm, em), (dp, ep) = minus, plus
    ab = np.zeros((10, 2 * dm.size))
    ab[3, 3::2] = ep
    ab[5, 1::2] = dp
    ab[5, 2::2] = em
    ab[7, 0::2] = dm
    ab[7, 1:-1:2] = ep
    ab[9, 0:-2:2] = em
    return ab


def _refine(minus, plus, first_order, s, omega):
    """(s, d, omega, residual) after _REFINE_STEPS steps of inverse
    iteration on the first-order system, omega <- <s,(A-G)s> / <s,d>.

    residual is ||K x|| / (omega ||x||) at the final omega, x = (s, d)
    and K the first-order system minus omega.
    """
    x = np.empty(first_order.shape[1])
    x[0::2] = s
    x[1::2] = _band_mul(minus, s) / omega
    for _ in range(_REFINE_STEPS):
        first_order[6] = -omega  # dgbsv factorizes a copy
        _, _, x, info = dgbsv(3, 3, first_order, x / np.linalg.norm(x))
        if info != 0:
            raise EigensolverError(f"first-order refinement failed: dgbsv info {info}")
        s = x[0::2]
        omega = float(s @ _band_mul(minus, s)) / float(s @ x[1::2])
    s, d = x[0::2], x[1::2]
    rs = _band_mul(plus, d) - omega * s
    rd = _band_mul(minus, s) - omega * d
    residual = math.sqrt((rs @ rs + rd @ rd) / (x @ x)) / omega
    return s, d, omega, residual


def project_orthogonal(f, gm):
    """Remove the xi0 component of a radial field."""
    overlap = integrate(RadialField(f.grid, gm.xi0.values * f.values))
    return RadialField(f.grid, f.values - overlap * gm.xi0.values)


def solve_bdg(gm, dp, num_modes=8):
    """Lowest num_modes positive-norm quasiparticle modes of a ground mode.

    Returns the spectrum sorted by frequency together with the quantum
    depletion energy constant C = -sum_k omega_k * integral(V_k^2).
    Raises EigensolverError when the subspace iteration does not converge
    or a refined mode's residual exceeds EIGEN_RESIDUAL_TOL.
    """
    if gm.method == "thomas_fermi":
        raise InvalidParameterError(
            "quasiparticle solve needs a smooth mode; the Thomas-Fermi "
            "profile has a kink at the classical radius"
        )
    num_modes = _count(num_modes, "num_modes", 1)
    grid = gm.xi0.grid
    n = grid.n_points
    k = num_modes + 4
    if k >= n - 1:
        raise EigensolverError(
            f"grid of {n} points cannot resolve {num_modes} requested modes"
        )
    minus, plus = _operators(gm, dp)
    (a, b), bands = _symmetric_form(minus, plus)
    # The wanted pairs: the requested modes and the Goldstone mode.
    vecs = _lowest_vectors(bands, num_modes + 1)
    first_order = _first_order_band(minus, plus)
    r = grid.nodes
    modes = []
    for y in vecs.T:
        s_w = a * y  # s = L y
        s_w[1:] += b * y[:-1]
        # y^T S y from the tridiagonal: the Ritz value itself carries the
        # eps*||S|| rounding of S's entries, about 3e-7 at 4000 points,
        # which is not small beside OMEGA_TOL^2.
        lam = float(s_w @ _band_mul(minus, s_w))
        if lam <= OMEGA_TOL**2:
            continue
        s_w, d_w, omega, residual = _refine(minus, plus, first_order, s_w, math.sqrt(lam))
        if not residual <= EIGEN_RESIDUAL_TOL:
            raise EigensolverError(
                f"mode at omega = {omega:.6g} has relative residual {residual:.3e} "
                f"after refinement (tolerance {EIGEN_RESIDUAL_TOL:g})"
            )
        u = RadialField(grid, 0.5 * (s_w + d_w) / r)
        v = RadialField(grid, 0.5 * (s_w - d_w) / r)
        u = project_orthogonal(u, gm)
        v = project_orthogonal(v, gm)
        norm = integrate(RadialField(grid, u.values**2 - v.values**2))
        if norm <= 1e-10:
            continue
        scale = 1.0 / math.sqrt(norm)
        uv = u.values * scale
        vv = v.values * scale
        if uv[np.argmax(np.abs(uv))] < 0:
            uv, vv = -uv, -vv
        modes.append(
            BdgMode(omega=omega, u=RadialField(grid, uv), v=RadialField(grid, vv), residual=residual)
        )
        if len(modes) == num_modes:
            break
    if len(modes) < num_modes:
        raise EigensolverError(
            f"found only {len(modes)} positive-norm modes of {num_modes} requested"
        )
    c_const = -sum(
        m.omega * integrate(RadialField(grid, m.v.values**2)) for m in modes
    )
    return QuasiparticleSpectrum(modes=tuple(modes), c_const=c_const)


@dataclass(frozen=True, eq=False)
class Mode1Decomposition:
    p: np.ndarray
    q: np.ndarray
    residual: float  # 1 - sum(p^2 - q^2)


def decompose_mode1(m1, spectrum):
    """Expansion of the maximally coupled mode over quasiparticle amplitudes.

    p_k = integral(xi1 * U_k), q_k = integral(xi1 * V_k); completeness of the
    positive-norm family gives sum(p^2 - q^2) = 1, and the residual records
    the truncation deficit.
    """
    grid = m1.xi1.grid
    xi1 = m1.xi1.values
    p = np.array(
        [integrate(RadialField(grid, xi1 * m.u.values)) for m in spectrum.modes]
    )
    q = np.array(
        [integrate(RadialField(grid, xi1 * m.v.values)) for m in spectrum.modes]
    )
    residual = 1.0 - float(np.sum(p**2 - q**2))
    return Mode1Decomposition(p=p, q=q, residual=residual)
