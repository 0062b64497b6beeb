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

The GP equation is (A - G) s0 = 0 for s0 = r*xi0, so S y0 = 0 for
y0 = L^-1 s0.  This known zero mode is projected out (Castin & Dum 1998)
of shift-invert subspace iteration on S + _SHIFT*I: one banded Cholesky
factorization, one block solve per sweep, then QR and Rayleigh-Ritz in
numpy (Parlett, The Symmetric Eigenvalue Problem, ch. 14).  The norm of S
grows like 1/h^4, so its residuals stall near eps*||S||; each mode is
therefore refined by inverse iteration on the first-order system (banded,
kl = ku = 3, with s and d interleaved) until its relative residual meets
the certified bound, and refused when a step fails to halve it.  Every
routine comes from scipy's LAPACK extension alone, so no scipy package is
imported.

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
dtbtrs = _flapack.dtbtrs

# Largest relative residual ||K x|| / (omega ||x||) of a kept mode x = (s, d),
# K the first-order system minus omega, or its round-off floor
# _FLOOR_ULPS * u * ||K||_inf / omega (u = 2^-53) where that is larger.
# Measured: 1e-16 to 4e-11 up to 4000 points, and 0.76 to 2.3 times
# u * ||K||_inf / omega from 4000 to 48000 points.
EIGEN_RESIDUAL_TOL = 1e-9
_FLOOR_ULPS = 32
# The subspace iteration factorizes S + _SHIFT*I, positive definite since S
# is semi-definite, and stops when each wanted Ritz pair's residual is at
# most _SUBSPACE_TOL * ||S||; reaching _MAX_SWEEPS first is a failure.
# Measured sweeps: 3 to 17.
_SHIFT = 10.0
_SUBSPACE_TOL = 1e-12
_MAX_SWEEPS = 50


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


def _row_sum_norm(bands):
    """The infinity norm of the symmetric band matrix of _band_mul."""
    return float(np.max(_band_mul([np.abs(b) for b in bands], np.ones(bands[0].size))))


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


def _lowest_vectors(bands, wanted, y0):
    """The `wanted` lowest Ritz vectors of S orthogonal to the unit vector
    y0, in ascending order of their values.

    y0 is taken out of each solved block and out of S times the block.  The
    block holds 2 * (wanted + 1) vectors, at most n - 1 (one more brings y0
    back as a Ritz pair), so on the ladder omega_k ~ 2k each sweep shrinks
    the unwanted components by about 1/4.  A pair has converged when its
    residual is at most _SUBSPACE_TOL * ||S||, ||S|| by _row_sum_norm.
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
    tol = _SUBSPACE_TOL * _row_sum_norm(bands)
    # The lowest sine modes of the grid: deterministic, with weight on
    # every low mode of S.
    columns = np.arange(1, min(2 * wanted + 2, n - 1) + 1)
    q = np.outer(np.arange(1, n + 1) * (np.pi / (n + 1)), columns)
    np.sin(q, out=q)
    for _ in range(_MAX_SWEEPS):
        q = dpbtrs(chol, q, lower=1)[0]
        q -= np.outer(y0, y0 @ q)
        q = np.linalg.qr(q)[0]
        sq = _band_mul(bands, q)
        sq -= np.outer(y0, y0 @ sq)
        theta, w = np.linalg.eigh(q.T @ sq)
        q, sq = q @ w, sq @ w
        sq -= q * theta
        worst = float(np.max(np.linalg.norm(sq[:, :wanted], axis=0)))
        if worst <= tol:
            return q[:, :wanted]
    raise EigensolverError(
        f"subspace iteration did not converge in {_MAX_SWEEPS} sweeps "
        f"(residual {worst:.3e}, tolerance {tol:.3e}); the ground mode may "
        "not solve the GP equation"
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


def _residual(minus, plus, x, omega):
    """||K x|| / (omega ||x||) for interleaved x = (s, d), K the first-order
    system minus omega."""
    s, d = x[0::2], x[1::2]
    rs = _band_mul(plus, d) - omega * s
    rd = _band_mul(minus, s) - omega * d
    return math.sqrt((rs @ rs + rd @ rd) / (x @ x)) / omega


def _refine(minus, plus, first_order, s, omega, floor):
    """(s, d, omega, residual) by inverse iteration on the first-order
    system from x = (s, (A-G)s/omega), omega <- <s,(A-G)s> / <s,d>.

    Steps run while the _residual of x exceeds its bound
    max(EIGEN_RESIDUAL_TOL, floor/omega), so a start that meets it takes
    none and dgbsv never factorizes a shift that is the eigenvalue to
    every digit.  A step that fails to halve the residual is refused,
    which also bounds the loop.
    """
    x = np.empty(first_order.shape[1])
    x[0::2] = s
    x[1::2] = _band_mul(minus, s) / omega
    residual = _residual(minus, plus, x, omega)
    while not residual <= max(EIGEN_RESIDUAL_TOL, floor / omega):
        first_order[6] = -omega  # dgbsv factorizes a copy
        _, _, x, info = dgbsv(3, 3, first_order, x / np.linalg.norm(x))
        if info != 0:
            raise EigensolverError(f"first-order refinement failed: dgbsv info {info}")
        s = x[0::2]
        omega = float(s @ _band_mul(minus, s)) / float(s @ x[1::2])
        last, residual = residual, _residual(minus, plus, x, omega)
        if not residual <= 0.5 * last:
            raise EigensolverError(
                f"refinement of the mode at omega = {omega:.6g} did not halve its "
                f"relative residual ({last:.3e} -> {residual:.3e})"
            )
    return x[0::2], x[1::2], omega, residual


def project_orthogonal(f, gm):
    """Remove the xi0 component of a radial field."""
    overlap = integrate(RadialField(f.grid, gm.xi0.values * f.values))
    return RadialField(f.grid, f.values - overlap * gm.xi0.values)


def solve_bdg(gm, dp, num_modes=8):
    """Lowest num_modes positive-norm quasiparticle modes of a ground mode.

    Returns the spectrum sorted by frequency together with the quantum
    depletion energy constant C = -sum_k omega_k * integral(V_k^2).
    Raises EigensolverError when the subspace iteration does not converge
    (as when xi0 does not solve the GP equation) or a refinement step
    fails to halve a mode's residual before it meets the larger of
    EIGEN_RESIDUAL_TOL and its round-off floor.
    """
    if gm.method == "thomas_fermi":
        raise InvalidParameterError(
            "quasiparticle solve needs a smooth mode; the Thomas-Fermi "
            "profile has a kink at the classical radius"
        )
    num_modes = _count(num_modes, "num_modes", 1)
    grid = gm.xi0.grid
    n = grid.n_points
    # The wanted pairs and a margin of four must fit beside y0, in n - 1 dimensions.
    if num_modes + 4 >= n - 1:
        raise EigensolverError(
            f"grid of {n} points cannot resolve {num_modes} requested modes"
        )
    minus, plus = _operators(gm, dp)
    (a, b), bands = _symmetric_form(minus, plus)
    r = grid.nodes
    s0 = r * gm.xi0.values  # (A - G) s0 = 0 is the GP equation, so S y0 = 0 for L y0 = s0
    y0, info = dtbtrs(np.vstack((a, np.append(b, 0.0))), s0[:, None], uplo="L")
    if info != 0:
        raise EigensolverError(f"L y0 = r xi0 has no solution (dtbtrs info {info})")
    vecs = _lowest_vectors(bands, num_modes, y0[:, 0] / np.linalg.norm(y0))
    first_order = _first_order_band(minus, plus)
    floor = _FLOOR_ULPS * 2.0**-53 * max(_row_sum_norm(minus), _row_sum_norm(plus))
    modes = []
    for y in vecs.T:
        s_w = a * y  # s = L y
        s_w[1:] += b * y[:-1]
        # y^T S y from the tridiagonal; the Ritz value carries S's rounding.
        lam = float(s_w @ _band_mul(minus, s_w))
        if not lam > 0.0:
            raise EigensolverError(f"Ritz vector has <s, (A - G) s> = {lam:.3e}, not positive")
        s_w, d_w, omega, residual = _refine(minus, plus, first_order, s_w, math.sqrt(lam), floor)
        u = project_orthogonal(RadialField(grid, 0.5 * (s_w + d_w) / r), gm)
        v = project_orthogonal(RadialField(grid, 0.5 * (s_w - d_w) / r), gm)
        norm = integrate(RadialField(grid, u.values**2 - v.values**2))
        scale = math.copysign(1.0 / math.sqrt(norm), u.values[np.argmax(np.abs(u.values))])
        u, v = RadialField(grid, u.values * scale), RadialField(grid, v.values * scale)
        modes.append(BdgMode(omega=omega, u=u, v=v, residual=residual))
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
