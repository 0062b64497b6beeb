"""Exact two-mode number-conserving dynamics and the analytic oscillation law.

With the total atom number M fixed, the two-mode Hamiltonian acts on the
basis |M - n, n> (n atoms in the excited mode) as a real symmetric banded
matrix of bandwidth 2: a number-fluctuation coupling moves one atom at a
time and the anomalous pair term moves two.

Linearizing about n = 0 gives a driven parametric oscillator whose exact
mean occupation is

    <n1(t)> = c1*sin(w't)^2 + c2*(cos(w't) - 1)^2,

with (w')^2 = Delta^2 - (gamma*M)^2, Delta = gamma*(2M - nbar)
- (M - nbar)*g*alpha2 + mu1 - mu.  Delta^2 < (gamma*M)^2 means parametric
instability and the law does not apply.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig_banded

from .errors import (
    InapplicableLawError,
    IntegratorFailureError,
    InvalidParameterError,
)

# Above this size the dense eigenvector matrix gets large (> ~130 MB) and
# evolution switches to expm_multiply on the sparse band.
_EIG_LIMIT = 4000
# Samples per block of the spectral trace: a block holds a few
# (M+1) x _TRACE_BLOCK real arrays, small next to the (M+1)^2 eigenvectors.
_TRACE_BLOCK = 64


@dataclass(eq=False)
class TwoModeHamiltonian:
    m_total: int
    diag: np.ndarray  # <n|H|n>, length M+1
    off1: np.ndarray  # <n+1|H|n>, length M
    off2: np.ndarray  # <n+2|H|n>, length M-1
    coeffs: object = None
    _eig: tuple = field(default=None, repr=False)

    def to_banded_lower(self):
        """Lower-banded storage (3, M+1) as used by scipy.linalg.eig_banded."""
        m = self.m_total
        band = np.zeros((3, m + 1))
        band[0] = self.diag
        band[1, :m] = self.off1
        if m >= 2:
            band[2, : m - 1] = self.off2
        return band

    def to_dense(self):
        m = self.m_total
        a = np.diag(self.diag)
        idx = np.arange(m)
        a[idx + 1, idx] = self.off1
        a[idx, idx + 1] = self.off1
        if m >= 2:
            idx = np.arange(m - 1)
            a[idx + 2, idx] = self.off2
            a[idx, idx + 2] = self.off2
        return a

    def eigensystem(self):
        if self._eig is None:
            w, v = eig_banded(self.to_banded_lower(), lower=True)
            self._eig = (w, v)
        return self._eig


@dataclass(frozen=True, eq=False)
class TwoModeState:
    m_total: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.m_total + 1,):
            raise InvalidParameterError(
                f"state needs {self.m_total + 1} amplitudes, got {amp.shape}"
            )
        norm = float(np.sum(np.abs(amp) ** 2))
        if abs(norm - 1.0) > 1e-6:
            raise InvalidParameterError(f"state norm^2 = {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", amp)


def fock_state(m_total, n1=0):
    if not 0 <= n1 <= m_total:
        raise InvalidParameterError(f"n1 = {n1} outside 0..{m_total}")
    amp = np.zeros(m_total + 1, dtype=complex)
    amp[n1] = 1.0
    return TwoModeState(m_total=m_total, amplitudes=amp)


def build_h01(coeffs, m_total):
    """Banded matrix of the two-mode Hamiltonian for fixed total number M.

    Matrix elements follow from the elementary action of creation and
    annihilation operators on |M - n, n>:

      diag[n]  = mu*(M-n) + (g*alpha2/2)*((M-n)*(M-n-1) - 2*nbar*(M-n))
                 + mu1*n + gamma*n*(2*(M-n) - nbar)
      off1[n]  = g01*(M-n-1-nbar)*sqrt((n+1)*(M-n))
      off2[n]  = (gamma/2)*sqrt((n+1)*(n+2)*(M-n)*(M-n-1))
    """
    m = int(m_total)
    if m < 1:
        raise InvalidParameterError(f"m_total must be >= 1, got {m_total}")
    nbar = coeffs.nbar
    ga2 = coeffs.g_alpha2
    n = np.arange(m + 1, dtype=float)
    n0 = m - n
    diag = (
        coeffs.mu * n0
        + 0.5 * ga2 * (n0 * (n0 - 1.0) - 2.0 * nbar * n0)
        + coeffs.mu1 * n
        + coeffs.gamma * n * (2.0 * n0 - nbar)
    )
    k = n[:-1]
    off1 = coeffs.g01 * (m - k - 1.0 - nbar) * np.sqrt((k + 1.0) * (m - k))
    k = n[:-2]
    off2 = (
        0.5
        * coeffs.gamma
        * np.sqrt((k + 1.0) * (k + 2.0) * (m - k) * (m - k - 1.0))
    )
    return TwoModeHamiltonian(m_total=m, diag=diag, off1=off1, off2=off2, coeffs=coeffs)


def _expm_multiply_band(h, amp, t):
    """exp(-iHt) amp by scipy's expm_multiply on the sparse band.

    Its Taylor degree and step count follow the a-priori backward-error
    bound of Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011), at double
    precision.  Subtracting the mean diagonal shrinks the norm of t*H, and
    with it the work; the global phase is restored afterwards.
    """
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    shift = float(np.mean(h.diag))
    band = sparse.diags(
        [h.off2, h.off1, h.diag - shift, h.off1, h.off2],
        [-2, -1, 0, 1, 2],
        format="csr",
    )
    return expm_multiply(-1j * t * band, amp) * np.exp(-1j * shift * t)


def evolve_exact(h, s0, t):
    """Evolve a two-mode state for time t (units of 1/omega).

    Up to M = _EIG_LIMIT the cached banded eigensystem propagates exactly;
    above it expm_multiply acts on the band.
    """
    if s0.m_total != h.m_total:
        raise InvalidParameterError(
            f"state has M = {s0.m_total}, Hamiltonian has M = {h.m_total}"
        )
    if not math.isfinite(t):
        raise InvalidParameterError(f"time must be finite, got {t}")
    if t == 0.0:
        return s0
    amp = s0.amplitudes
    if h.m_total <= _EIG_LIMIT:
        # Real GEMVs on the split parts: a complex operand would make numpy
        # copy v to complex on each product.
        w, v = h.eigensystem()
        c = np.exp(-1j * w * t) * (v.T @ amp.real + 1j * (v.T @ amp.imag))
        amp = v @ c.real + 1j * (v @ c.imag)
    else:
        amp = _expm_multiply_band(h, amp, t)
    drift = abs(math.sqrt(float(np.sum(np.abs(amp) ** 2))) - 1.0)
    if drift > 1e-6:
        raise IntegratorFailureError(f"norm drift {drift:.3e} exceeds 1e-6")
    return TwoModeState(m_total=h.m_total, amplitudes=amp)


def mean_n1(s):
    """<n1> of a two-mode state."""
    n = np.arange(s.m_total + 1)
    return float(np.sum(n * np.abs(s.amplitudes) ** 2))


def mean_n1_trace(h, s0, times):
    """<n1>(t) sampled at the given times."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise InvalidParameterError("times must be finite")
    n = np.arange(h.m_total + 1, dtype=float)
    out = np.empty(times.shape)
    if h.m_total <= _EIG_LIMIT:
        # Real GEMMs over blocks of samples: exp(-iwt) c0 is split into its
        # real and imaginary parts so that v is never copied to complex,
        # and no (dimension x samples) array is held at once.
        w, v = h.eigensystem()
        cr = v.T @ s0.amplitudes.real
        ci = v.T @ s0.amplitudes.imag
        for lo in range(0, times.size, _TRACE_BLOCK):
            phase = np.outer(w, times[lo : lo + _TRACE_BLOCK])
            cos, sin = np.cos(phase), np.sin(phase)
            re = v @ (cos * cr[:, None] + sin * ci[:, None])
            im = v @ (cos * ci[:, None] - sin * cr[:, None])
            out[lo : lo + _TRACE_BLOCK] = n @ (re**2 + im**2)
        return out
    state = s0
    t_prev = 0.0
    for i in np.argsort(times):
        t = times[i]
        if t != t_prev:
            state = evolve_exact(h, state, t - t_prev)
            t_prev = t
        out[i] = mean_n1(state)
    return out


@dataclass(frozen=True)
class OscillationLaw:
    m_total: int
    omega_prime: float
    c1: float
    c2: float
    stable: bool


def oscillation_law(coeffs, m_total):
    """Closed-form oscillation parameters of the linearized two-mode model."""
    m = float(m_total)
    nbar = coeffs.nbar
    delta = (
        coeffs.gamma * (2.0 * m - nbar)
        - (m - nbar) * coeffs.g_alpha2
        + coeffs.mu1
        - coeffs.mu
    )
    gm = coeffs.gamma * m
    hw2 = delta**2 - gm**2
    if hw2 <= 0:
        return OscillationLaw(
            m_total=int(m_total),
            omega_prime=float("nan"),
            c1=float("nan"),
            c2=float("nan"),
            stable=False,
        )
    lam2 = coeffs.g01**2 * (m - nbar) ** 2 * m
    c1 = (gm**2 + lam2) / hw2
    c2 = lam2 * (delta - gm) ** 2 / hw2**2
    return OscillationLaw(
        m_total=int(m_total),
        omega_prime=math.sqrt(hw2),
        c1=c1,
        c2=c2,
        stable=True,
    )


def mean_n1_analytic(law, t):
    """Analytic <n1>(t); full period 2*pi/w', and <n1>(pi/w') = 4*c2."""
    if not law.stable:
        raise InapplicableLawError(
            f"oscillation law is parametrically unstable at M = {law.m_total}"
        )
    t = np.asarray(t, dtype=float)
    wt = law.omega_prime * t
    out = law.c1 * np.sin(wt) ** 2 + law.c2 * (np.cos(wt) - 1.0) ** 2
    return float(out) if out.ndim == 0 else out


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
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise InvalidParameterError("samples must be uniformly spaced")
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
