"""Quasiparticle spectrum of the condensate and mode-1 decomposition.

The Bogoliubov-de Gennes pair

    L u - g*nbar*xi0^2 v =  omega u,      L = -1/2 lap + r^2/2 - mu + 2 g nbar xi0^2,
    L v - g*nbar*xi0^2 u = -omega v,

reduces, in w = r*f space with s = w_u + w_v and d = w_u - w_v, to

    (A + G)(A - G) s = omega^2 s,

where A - G is the (positive semi-definite) linearized GP operator minus mu
and G = diag(g*nbar*xi0^2).  Both come from gpe._tridiagonal, the one writer
of the w-space operator, which the Newton Jacobian also uses.  The product
is a pentadiagonal real matrix; its lowest eigenpairs come from
shift-invert Arnoldi with a negative shift, which keeps the factorized
matrix nonsingular and also returns the zero-mode (Goldstone) branch so it
can be discarded explicitly.

Physical amplitudes are projected orthogonal to xi0 and normalized to
integral(U^2 - V^2) = 1.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigs

from .errors import EigensolverError, InvalidParameterError
from .gpe import _tridiagonal
from .grid import RadialField, integrate
from .params import _count

# Eigenvalues with omega below this are treated as the Goldstone zero mode.
OMEGA_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class BdgMode:
    omega: float
    u: RadialField  # projected orthogonal to xi0, normalized
    v: RadialField


@dataclass(frozen=True, eq=False)
class QuasiparticleSpectrum:
    modes: tuple
    c_const: float

    @property
    def frequencies(self):
        return np.array([m.omega for m in self.modes])


def _operators(gm, dp):
    """A - G and A + G as sparse matrices, from gpe's tridiagonal writer."""
    g_diag = dp.g * gm.nbar * gm.xi0.values**2
    pair = (_tridiagonal(gm.xi0.grid, c * g_diag, gm.mu) for c in (1.0, 3.0))
    return tuple(sparse.diags([e, d, e], [-1, 0, 1], format="csr") for d, e in pair)


def project_orthogonal(f, gm):
    """Remove the xi0 component of a radial field."""
    overlap = integrate(RadialField(f.grid, gm.xi0.values * f.values))
    return RadialField(f.grid, f.values - overlap * gm.xi0.values)


def solve_bdg(gm, dp, num_modes=8):
    """Lowest num_modes positive-norm quasiparticle modes of a ground mode.

    Returns the spectrum sorted by frequency together with the quantum
    depletion energy constant C = -sum_k omega_k * integral(V_k^2).
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
    m_minus, m_plus = _operators(gm, dp)
    product = (m_plus @ m_minus).tocsc()
    v0 = np.ones(n) / math.sqrt(n)
    try:
        vals, vecs = eigs(product, k=k, sigma=-1.0, which="LM", v0=v0)
    except (ArpackError, ArpackNoConvergence) as exc:
        raise EigensolverError(f"Arnoldi iteration failed: {exc}") from exc
    if np.max(np.abs(vals.imag)) > 1e-6 * np.max(np.abs(vals.real)):
        raise EigensolverError("eigenvalues are not real; solve is unreliable")
    vals = vals.real
    vecs = vecs.real
    order = np.argsort(vals)
    r = grid.nodes
    modes = []
    for idx in order:
        lam = vals[idx]
        if lam <= OMEGA_TOL**2:
            continue
        omega = math.sqrt(lam)
        s_w = vecs[:, idx]
        d_w = (m_minus @ s_w) / omega
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
        modes.append(BdgMode(omega=omega, u=RadialField(grid, uv), v=RadialField(grid, vv)))
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
