"""Independent oracles shared across the test modules.

The dense two-mode Hamiltonian here is built from raw creation/annihilation
matrices on a tensor-product Fock space and restricted to the fixed-total
subspace afterwards.  It shares no code with the banded builder, so matching
it entry-for-entry checks the operator algebra behind the matrix elements.
spectrum_oracle takes a Hamiltonian's spectrum, and on request its
eigenvectors, to 40 digits with mpmath;
dominant_frequency reads the strongest spectral line of a sampled trace;
gpe_residual and the distribution moments restate, for the tests, numbers
the program computes inside its solvers.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np

from bogodense import (
    CouplingCoefficients,
    PhysicalParams,
    build_xi1,
    coefficients,
    default_grid,
    solve_gpe,
    to_dimensionless,
)
from bogodense.errors import InvalidParameterError
from bogodense.gpe import residual_norm

# Reference trap: rubidium-87 mass, a_sc = 10 nm, nu = 1000 Hz.
MASS = 1.44e-25
A_SC = 1.0e-8
NU = 1000.0


def reference_params(nbar, n0=None, a_sc=A_SC):
    return PhysicalParams(
        mass=MASS,
        scattering_length=a_sc,
        trap_frequency=NU,
        nbar=nbar,
        n0=nbar if n0 is None else n0,
    )


def solve_case(nbar, n_points=4000, a_sc=A_SC, r_max=None):
    """Ground mode, excited mode and coefficients at a reference-trap nbar."""
    dp = to_dimensionless(reference_params(nbar, a_sc=a_sc))
    grid = default_grid(dp, n_points=n_points, r_max=r_max)
    gm = solve_gpe(dp, grid)
    m1 = build_xi1(gm)
    return dp, grid, gm, m1, coefficients(gm, m1, dp)


def synthetic_coeffs(
    gamma=0.0, mu=0.0, mu1=0.0, g01=0.0, alpha2=0.1, nbar=0.0
):
    """Coefficients with hand-picked entries for algebraic tests.

    beta is chosen so that g * alpha2 comes out as g01 * beta * alpha2; the
    moment fields only need to be mutually consistent, not physical.
    """
    alpha3 = alpha2**2 + 0.01
    beta = (alpha3 - alpha2**2) ** -0.5
    return CouplingCoefficients(
        alpha2=alpha2,
        alpha3=alpha3,
        alpha4=0.5 * alpha2 * alpha3,
        beta=beta,
        gamma=gamma,
        mu1=mu1,
        mu=mu,
        g01=g01,
        nbar=nbar,
    )


def _lowering(dim):
    a = np.zeros((dim, dim))
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def dense_h01_oracle(coeffs, m_total):
    """Two-mode Hamiltonian assembled from explicit operator products.

    Operators act on the tensor space (mode 0) x (mode 1), truncated a few
    levels above M so no product leaves the representable range, and the
    result is read off on the total-number-M subspace spanned by
    |M - n, n>, n = 0..M.
    """
    dim = m_total + 3
    a = _lowering(dim)
    eye = np.eye(dim)
    a0 = np.kron(a, eye)
    a1 = np.kron(eye, a)
    n0 = a0.T @ a0
    n1 = a1.T @ a1
    nbar = coeffs.nbar
    ga2 = coeffs.g_alpha2

    h = coeffs.mu * n0
    h += 0.5 * ga2 * (a0.T @ a0.T @ a0 @ a0 - 2.0 * nbar * n0)
    h += coeffs.mu1 * n1
    h += coeffs.gamma * (n1 @ (2.0 * n0 - nbar * np.eye(dim * dim)))
    hop = a1.T @ (n0 - nbar * np.eye(dim * dim)) @ a0
    h += coeffs.g01 * (hop + hop.T)
    pair = a1.T @ a1.T @ a0 @ a0
    h += 0.5 * coeffs.gamma * (pair + pair.T)

    # |m0, m1> lives at flat index m0 * dim + m1.
    idx = [(m_total - n) * dim + n for n in range(m_total + 1)]
    return h[np.ix_(idx, idx)]


def spectrum_oracle(h, vectors=False):
    """The eigenvalues of h.to_dense() to 40 digits, ascending (mpmath.eigsy).

    The double matrix elements are taken as exact, so this is the spectrum
    that any interval certified for them must hold.  With vectors=True it
    returns the eigenvalues and the matrix whose k-th column is the unit
    eigenvector of the k-th, also to 40 digits.
    """
    with mpmath.workdps(40):
        if not vectors:
            return sorted(mpmath.eigsy(mpmath.matrix(h.to_dense()), eigvals_only=True))
        w, v = mpmath.eigsy(mpmath.matrix(h.to_dense()))
        order = sorted(range(len(w)), key=lambda k: w[k])
        cols = mpmath.matrix(v.rows, v.cols)
        for j, k in enumerate(order):
            cols[:, j] = v[:, k]
        return [w[k] for k in order], cols


def dominant_frequency(times, values):
    """Angular frequency of the strongest spectral line of a sampled signal.

    Uses a Hann window and parabolic refinement of the FFT peak.  For a
    c2 = 0 occupation trace the strongest line sits at 2*w'.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 8:
        raise InvalidParameterError("need at least 8 samples")
    dt = np.diff(times)
    if not (dt[0] > 0 and np.allclose(dt, dt[0], rtol=1e-9, atol=0.0)):
        raise InvalidParameterError("samples must be increasing and uniformly spaced")
    n = values.size
    window = np.hanning(n)
    spectrum = np.abs(np.fft.rfft((values - values.mean()) * window))
    k = int(np.argmax(spectrum[1:])) + 1
    if 1 <= k < spectrum.size - 1:
        a, b, c = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = a - 2.0 * b + c
        if denom != 0.0:
            k = k + 0.5 * (a - c) / denom
    return 2.0 * math.pi * k / (n * dt[0])


def gpe_residual(gm, dp):
    """L2 norm of (H[xi0] - mu) xi0 with the discrete operators, at gm.nbar.

    Converged numeric modes sit at their round-off floor; the Thomas-Fermi
    profile shows the discretization floor instead.
    """
    return residual_norm(replace(dp, nbar=gm.nbar), gm.xi0)


def distribution_mean(d):
    """Mean total number M of a NumberDistribution."""
    m = np.arange(d.probabilities.size)
    return float(np.sum(m * d.probabilities))


def distribution_variance(d):
    """Variance of the total number M of a NumberDistribution."""
    m = np.arange(d.probabilities.size)
    mu = np.sum(m * d.probabilities)
    return float(np.sum((m - mu) ** 2 * d.probabilities))
