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

# Imported here, not in the functions that call them: once scipy.linalg is
# loaded, gpe._ptsv runs LAPACK's dptsv instead of its Python LDL^T (about
# ten times slower).  A protocol at desk sizes calls neither routine, so
# this import is what keeps its ground solves on LAPACK.
from scipy.linalg import eig_banded
from scipy.linalg.lapack import dpbtrf

from .errors import (
    InapplicableLawError,
    IntegratorFailureError,
    InvalidParameterError,
    UnsupportedRegimeError,
)
from .params import _EIG_LIMIT, _count, _real

# mean_n1_trace samples the cached eigensystem up to M = _EIG_LIMIT (see
# params), on the one window of eigenmodes whose discarded start weight
# delta^2 keeps M*(2*delta + delta^2) <= _WINDOW_TOL for a unit start;
# above it the trace steps the Chebyshev propagator between sorted times.
_WINDOW_TOL = 1e-12
# Samples per block of the spectral trace, and eigenvector rows per block
# of its window's number operator: a block holds a few window x
# _TRACE_BLOCK real arrays, small next to the (M+1)^2 eigenvectors.
_TRACE_BLOCK = 64
# Elements per stacked Chebyshev recursion: sectors are packed into vectors
# of at most this length n, so its work arrays (the (5, n) DIA band, the
# T_{k-1} and T_k rows, the (2, n) accumulator and one buffer: 10 n floats,
# 1.3 MB) stay cache-sized.
_STACK_LIMIT = 1 << 14
# The Chebyshev series stops at the first k > z with |J_k(z)| below this;
# the tail beyond it bounds the truncation error and must stay below
# _TAIL_TOL.
_BESSEL_FLOOR = 1e-16
_TAIL_TOL = 1e-12
# One series takes about z = half-width * |t| terms and holds that many
# coefficients; a longer one is refused, and evolve_exact splits its time
# into equal steps of at most half that.
_Z_MAX = 1e6
# A sector whose Gershgorin series runs more than _REFINE_TERMS terms is
# scaled by a certified tight interval instead.  Its 15-20 banded Cholesky
# factorizations (at most 11 per end) cost 0.24, 1.0 and 4.1 ms at M =
# 130, 1000 and 5000 (one core), and Gershgorin overstates the half-width
# by 2-18 %.  In a stack of 16 sectors of a protocol at n0 = 1000 the
# certificates cost 1.5 ms more than they save at 1800 terms and save
# 5 ms at 2600, so they pay from about 2000 terms.  That protocol's 1190
# kernels, the top 216 sectors at 2000-2600 terms, build in 5.8-6.2 s
# with them and in 5.7-6.2 s without: the gain is below the noise there.
# The certificates run one Hamiltonian at a time: each costs at most a
# few per cent of the series it shortens.  Each end is bisected to
# _BISECT_TOL Gershgorin half-widths.
_REFINE_TERMS = 2000
_BISECT_TOL = 1e-3
# Cholesky's backward error on a band of width p = 2 (Higham, Accuracy and
# Stability of Numerical Algorithms, Thm 10.3, with n + 1 -> p + 2):
# the computed L has L L^T = A + dA, |dA| <= gamma_{p+2} |L| |L^T|.
_UNIT_ROUNDOFF = 2.0**-53
_CHOL_GAMMA = 4.0 * _UNIT_ROUNDOFF / (1.0 - 4.0 * _UNIT_ROUNDOFF)
# Stacked bands in DIA layout: band[d, j] is the weight of x[j] in row
# j - _OFFSETS[d].  Row i adds x[i], x[i-2], x[i-1], x[i+1], x[i+2] to
# its output in this order, which the tests pin.
_OFFSETS = np.array([0, -2, -1, 1, 2], dtype=np.int32)


@dataclass(frozen=True, eq=False)
class TwoModeHamiltonian:
    """The band of H at total number M, checked once and read-only.

    The eigensystem is computed on the first eigensystem() call and cached
    in _eig; the fields cannot change, so the cache cannot go stale.
    """

    m_total: int
    diag: np.ndarray  # <n|H|n>, length M+1
    off1: np.ndarray  # <n+1|H|n>, length M
    off2: np.ndarray  # <n+2|H|n>, length M-1
    _eig: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = _count(self.m_total, "m_total", 1)
        object.__setattr__(self, "m_total", m)
        for name, size in (("diag", m + 1), ("off1", m), ("off2", m - 1)):
            band = np.array(getattr(self, name), dtype=float)
            if band.shape != (size,):
                raise InvalidParameterError(
                    f"{name} needs {size} entries at M = {m}, got shape {band.shape}"
                )
            if not np.all(np.isfinite(band)):
                raise InvalidParameterError(f"{name} has non-finite entries at M = {m}")
            band.flags.writeable = False
            object.__setattr__(self, name, band)

    def to_banded_lower(self):
        """Lower-banded storage (3, M+1) as used by scipy.linalg.eig_banded."""
        m = self.m_total
        band = np.zeros((3, m + 1))
        band[0] = self.diag
        band[1, :m] = self.off1
        band[2, : m - 1] = self.off2
        return band

    def to_dense(self):
        m = self.m_total
        a = np.diag(self.diag)
        idx = np.arange(m)
        a[idx + 1, idx] = self.off1
        a[idx, idx + 1] = self.off1
        idx = np.arange(m - 1)
        a[idx + 2, idx] = self.off2
        a[idx, idx + 2] = self.off2
        return a

    def eigensystem(self):
        if self._eig is None:
            object.__setattr__(
                self, "_eig", eig_banded(self.to_banded_lower(), lower=True)
            )
        return self._eig


@dataclass(frozen=True, eq=False)
class TwoModeState:
    m_total: int
    amplitudes: np.ndarray
    error_bound: float = 0.0  # bound on the propagation error in the 2-norm

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.m_total + 1,):
            raise InvalidParameterError(
                f"state needs {self.m_total + 1} amplitudes, got {amp.shape}"
            )
        norm = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm - 1.0) <= 1e-6:
            raise InvalidParameterError(f"state norm^2 = {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", amp)


def fock_state(m_total, n1=0):
    m_total, n1 = _count(m_total, "m_total", 0), _count(n1, "n1")
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
    m = _count(m_total, "m_total", 1)
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
    return TwoModeHamiltonian(m_total=m, diag=diag, off1=off1, off2=off2)


def _gershgorin(h):
    """Centre and half-width of an interval that holds the spectrum of h.

    Each eigenvalue lies in a Gershgorin disc: within the sum of a row's
    off-diagonal magnitudes of that row's diagonal element.
    """
    m = h.m_total
    radius = np.zeros(m + 1)
    for off in (np.abs(h.off1), np.abs(h.off2)):
        radius[: off.size] += off
        radius[m + 1 - off.size :] += off
    lo = float(np.min(h.diag - radius))
    hi = float(np.max(h.diag + radius))
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _bessel_series(z):
    """J_k(z) for k = 0..K-1, z >= 0, and the tail 2*sum_{k>=K} |J_k(z)|.

    K is the first k > z with |J_k(z)| < _BESSEL_FLOOR.  The values come
    from Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1},
    started far enough above z for the minimal solution to dominate,
    normalized by J_0^2 + 2*sum J_k^2 = 1 and signed by
    J_0 + 2*sum J_2k = 1.
    """
    if z < 1e-30:
        return np.ones(1), z
    if z > _Z_MAX:
        raise UnsupportedRegimeError(
            f"a Chebyshev series at z = {z:.3g} needs more than {_Z_MAX:g} terms"
        )
    n = int(z + 14.0 * z ** (1.0 / 3.0) + 20.0)
    vals = [0.0] * (n + 1)
    vals[n] = 1.0
    above, cur = 0.0, 1.0
    rescaled = []
    two_over_z = 2.0 / z
    for k in range(n, 0, -1):
        below = k * two_over_z * cur - above
        if below > 1e150 or below < -1e150:
            below *= 1e-150
            cur *= 1e-150
            rescaled.append(k)
        vals[k - 1] = below
        above, cur = cur, below
    j = np.array(vals)
    for k in rescaled:
        j[k:] *= 1e-150
    j /= np.max(np.abs(j))
    norm = math.sqrt(j[0] ** 2 + 2.0 * float(np.sum(j[1:] ** 2)))
    j *= math.copysign(1.0 / norm, j[0] + 2.0 * float(np.sum(j[2::2])))
    k_min = int(z) + 1
    small = np.flatnonzero(np.abs(j[k_min:]) < _BESSEL_FLOOR)
    if small.size == 0:
        raise IntegratorFailureError(f"Bessel series at z = {z!r} did not decay")
    k_stop = k_min + int(small[0])
    return j[:k_stop], 2.0 * float(np.sum(np.abs(j[k_stop:])))


def _dia_band(hs, centres, scale):
    """The block-diagonal band of (H - centre) * scale over the sectors hs.

    centres holds each sector's centre, and scale is shared; the sectors
    sit one after another, with zero couplings between them.  Returns the
    (5, n) band in the DIA layout of _OFFSETS and the end of each sector.
    """
    sizes = [h.m_total + 1 for h in hs]
    ends = np.cumsum(sizes)
    band = np.zeros((5, int(ends[-1])))
    for h, centre, end, size in zip(hs, centres, ends, sizes):
        lo = end - size
        band[0, lo:end] = (h.diag - centre) * scale
        band[2, lo : end - 1] = band[3, lo + 1 : end] = h.off1 * scale
        band[1, lo : end - 2] = band[4, lo + 2 : end] = h.off2 * scale
    return band, ends


def _certify_end(band, gersh, sign):
    """A certified bound past one end of the spectrum of one H.

    band is H in lower band storage.  sign = +1 bounds the top: a banded
    Cholesky of sigma*I - H that runs to completion proves sigma -
    lambda_max > -|dA|, the backward error of the factorization plus the
    rounding of the diagonal, so sigma + that bound lies above the
    spectrum (Sylvester's law of inertia; Parlett, The Symmetric Eigenvalue
    Problem, ch. 3).  sigma is bisected between the largest diagonal
    entry, a Rayleigh quotient and so no higher than lambda_max, and the
    Gershgorin end: a factorization that runs to completion moves the
    outer bound in, one that fails moves the inner bound out and proves
    nothing.  The bisection stops at a bracket _BISECT_TOL Gershgorin
    half-widths wide, after at most 11 factorizations, and returns the
    last proven sigma plus its bound.  sign = -1 does the same for the
    bottom with H - sigma*I and the smallest diagonal entry.  gersh =
    (centre, half-width) of the Gershgorin interval, whose end is the
    fallback and clips the bound.
    """
    centre, half = gersh
    wall = centre + sign * half
    inner = sign * float(np.max(sign * band[0]))
    outer, proof = wall, None
    while sign * (outer - inner) > _BISECT_TOL * half:
        sigma = 0.5 * (inner + outer)
        if sigma == inner or sigma == outer:
            break  # the bracket is down to round-off
        ab = -sign * band  # lower band storage of sign*(sigma - H)
        ab[0] += sign * sigma
        chol, info = dpbtrf(ab, lower=1)
        if info < 0:
            raise IntegratorFailureError(f"dpbtrf rejected argument {-info}")
        if info == 0:
            outer, proof = sigma, (ab, chol)
        else:
            inner = sigma
    if proof is None:
        return wall  # no tighter end proven: Gershgorin's stands
    ab, chol = proof
    # The largest row sum of |L| |L^T|.
    mag = np.abs(chol)
    col = mag.sum(axis=0)
    rows = mag[0] * col
    rows[1:] += mag[1, :-1] * col[:-1]
    rows[2:] += mag[2, :-2] * col[:-2]
    err = _CHOL_GAMMA * np.max(rows) + _UNIT_ROUNDOFF * np.max(np.abs(ab[0]))
    proven = outer + sign * (err + 2.0 * _UNIT_ROUNDOFF * abs(outer))
    return proven if sign * (wall - proven) > 0.0 else wall


def _certified(h):
    """The certified (centre, half-width) of h's spectrum.

    Each end is bisected by banded Cholesky factorizations (_certify_end)
    inside the Gershgorin interval, which stays the outer bracket.
    """
    band = h.to_banded_lower()
    gersh = _gershgorin(h)
    a = _certify_end(band, gersh, -1.0)
    b = _certify_end(band, gersh, 1.0)
    return float(b + a) / 2.0, float(b - a) / 2.0


def _intervals(hs, t):
    """Centre and half-width of the interval that scales each h at time t.

    A sector whose Gershgorin series, z = half-width * |t| terms, is at
    most _REFINE_TERMS long keeps its Gershgorin interval; a longer one
    takes its certified interval (_certified).  The choice depends on the
    sector alone; a stack then runs the series of its widest half-width
    (_propagate_block).
    """
    out = []
    for h in hs:
        gersh = _gershgorin(h)
        out.append(_certified(h) if gersh[1] * abs(t) > _REFINE_TERMS else gersh)
    return out


def _propagate_block(stack, t):
    """(exp(-iHt) x, tail) for each (H, real x) pair, in one recursion.

    The sectors sit one after another in one vector, and their banded
    matrices along the diagonal of one block-banded matrix whose couplings
    vanish between sectors.  Each sector is shifted by the centre of its
    interval (_intervals), and the stack is scaled by its widest
    half-width, so every sector's spectrum lies in [-1, 1] and one series,
    z = widest half-width * |t|, with one truncation bound, serves them
    all.  Each term is one in-place banded product, scipy's DIA kernel
    y += A x on y = -T_{k-1}.
    """
    from scipy.sparse._sparsetools import dia_matvec  # not loaded on import

    hs = [h for h, _ in stack]
    intervals = _intervals(hs, t)
    half = max(w for _, w in intervals)
    # 2*H_s, H_s = (H - centre)/half.
    band, ends = _dia_band(hs, [c for c, _ in intervals], 2.0 / half if half else 0.0)
    n = int(ends[-1])
    x = np.zeros((2, n))  # T_{k-1}, T_k
    for (h, start), end in zip(stack, ends):
        x[1, end - h.m_total - 1 : end] = start
    # exp(-iHt) = exp(-i centre t) sum_k (2 - [k = 0]) (-i)^k J_k(z) T_k(H_s)
    # with z = half * t, and J_k(-z) = (-1)^k J_k(z).
    j, tail = _bessel_series(half * abs(t))
    if not tail <= _TAIL_TOL:
        raise IntegratorFailureError(
            f"Chebyshev truncation bound {tail:.3e} exceeds {_TAIL_TOL:g}"
        )
    coef = 2.0 * j
    coef[0] = j[0]
    coef[2::4] *= -1.0
    coef[1::4] *= -math.copysign(1.0, t)
    coef[3::4] *= math.copysign(1.0, t)
    acc = np.zeros((2, n))  # even terms are real, odd terms imaginary
    buf = np.empty(n)
    for k, a_k in enumerate(coef):
        # T_k sits in x[(k + 1) % 2], T_{k-1} in x[k % 2].
        cur, y = x[(k + 1) % 2], x[k % 2]
        np.multiply(cur, a_k, out=buf)
        acc[k % 2] += buf
        # T_{k+1} = 2 H_s T_k - T_{k-1}, written over T_{k-1};
        # T_1 = H_s T_0.
        np.negative(y, out=y)
        dia_matvec(n, n, 5, n, _OFFSETS, band, cur, y)
        if k == 0:
            y *= 0.5
    out = []
    for h, end, (centre, _) in zip(hs, ends, intervals):
        c, s = math.cos(centre * t), -math.sin(centre * t)
        even, odd = acc[:, end - h.m_total - 1 : end]
        out.append((even * c - odd * s + 1j * (even * s + odd * c), tail))
    return out


def propagate(sectors, t):
    """Yield (exp(-iHt) x, tail) for each (H, real x) pair of sectors.

    Chebyshev expansion of the propagator (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)): it needs only band matrix-vector products, and
    its truncation error is at most tail = 2*sum_{k>=K} |J_k(z)| per unit
    start norm.  Each sector's spectrum is held by an interval:
    Gershgorin's for a short series, a certified tight one for a long one
    (_intervals; the certificate runs only unblocked banded LAPACK
    factorizations, no threaded BLAS).
    Consecutive sectors are stacked into recursions of at most
    _STACK_LIMIT elements (a larger sector runs alone), and only one stack
    is held at a time.  A stack runs one series, about z = half-width * |t|
    terms of its widest sector, so a result moves with its stack-mates by
    round-off; the stacks depend only on the sequence of sectors.  Each
    term is one in-place banded product (scipy's DIA kernel, no BLAS),
    which sums every row in a fixed order, so the results do not depend on
    the thread count.
    """
    stack, size = [], 0
    for h, start in sectors:
        if stack and size + h.m_total + 1 > _STACK_LIMIT:
            yield from _propagate_block(stack, t)
            stack, size = [], 0
        stack.append((h, start))
        size += h.m_total + 1
    if stack:
        yield from _propagate_block(stack, t)


def _check_state(h, s0):
    """Raise unless s0 lives in the Fock space of h."""
    if s0.m_total != h.m_total:
        raise InvalidParameterError(
            f"state has M = {s0.m_total}, Hamiltonian has M = {h.m_total}"
        )


def evolve_exact(h, s0, t):
    """Evolve a two-mode state for time t (units of 1/omega).

    The Chebyshev propagator acts on the band at every size, in equal
    steps of at most _Z_MAX / 2 terms each, counted on the Gershgorin
    half-width, which bounds the one that scales each series (_intervals);
    a complex state runs its real and imaginary parts through one stacked
    recursion.  The state's error_bound grows by the truncation bound of
    each series.
    """
    _check_state(h, s0)
    t = _real(t, "t")
    if t == 0.0:
        return s0
    steps = _gershgorin(h)[1] * abs(t) / (0.5 * _Z_MAX)
    # Each step adds up to _TAIL_TOL to the error bound; past 1e-6 in all
    # the bound could exceed the norm-drift tolerance checked below.
    if not steps * _TAIL_TOL <= 1e-6:
        raise UnsupportedRegimeError(
            f"evolving for t = {t:g} takes about {steps:.3g} Chebyshev steps, "
            f"whose truncation bound could exceed 1e-6"
        )
    steps = max(1, math.ceil(steps))
    amp, bound = s0.amplitudes, s0.error_bound
    for _ in range(steps):
        parts = [amp.real, amp.imag] if np.any(amp.imag) else [amp.real]
        out = list(propagate([(h, part) for part in parts], t / steps))
        amp = out[0][0] + 1j * out[1][0] if len(out) == 2 else out[0][0]
        bound += sum(tail for _, tail in out)
    drift = abs(math.sqrt(float(np.sum(np.abs(amp) ** 2))) - 1.0)
    if not drift <= 1e-6:
        raise IntegratorFailureError(f"norm drift {drift:.3e} exceeds 1e-6")
    return TwoModeState(m_total=h.m_total, amplitudes=amp, error_bound=bound)


def mean_n1(s):
    """<n1> of a two-mode state."""
    n = np.arange(s.m_total + 1)
    return float(np.sum(n * np.abs(s.amplitudes) ** 2))


def _check_phases(rate, times):
    """Raise unless every phase rate * t is a finite float."""
    t_max = float(np.max(np.abs(times), initial=0.0))
    if not math.isfinite(rate * t_max):
        raise InvalidParameterError(
            f"phase {rate:.6g} * t overflows a float at |t| = {t_max:.6g}"
        )


def _trace_window(cr, ci, m_total):
    """The narrowest eigen-index window [a, b) the trace may keep, and its bound.

    With q_k = cr_k^2 + ci_k^2 the start state's weight on eigenmode k,
    delta^2 = sum_{k<a} q_k + sum_{k>=b} q_k is the weight left out, each
    part summed from its own end (1 - kept would cancel).  Writing the
    evolved state as psi_S + psi_D with |psi_D| = delta and |psi_S| <= r,
    the norm of the start state, |<N>_psi - <N>_psi_S| <= 2|<psi_S|N|psi_D>|
    + <psi_D|N|psi_D> <= M*delta*(2r + delta) at every t, since |N| = M.
    Returns a, b and that bound, which is at most _WINDOW_TOL.
    """
    q = cr**2 + ci**2
    below = np.concatenate(([0.0], np.cumsum(q)))  # below[a] = sum_{k<a} q_k
    above = np.concatenate((np.cumsum(q[::-1])[::-1], [0.0]))  # sum_{k>=b} q_k
    r = math.sqrt(float(below[-1]))
    x = _WINDOW_TOL / m_total
    # The delta at which the bound reaches _WINDOW_TOL, written without
    # cancellation.
    budget = (x / (r + math.sqrt(r * r + x))) ** 2
    a = np.flatnonzero(below <= budget)
    # For each a the smallest b >= a whose tail fits in what a leaves over.
    b = np.maximum(np.searchsorted(-above, below[a] - budget, side="left"), a)
    delta = np.sqrt(below[a] + above[b])
    bound = m_total * delta * (2.0 * r + delta)
    # Rounding may put a pair a hair over the budget; it drops out.
    fits = np.flatnonzero(bound <= _WINDOW_TOL)
    i = fits[np.argmin(b[fits] - a[fits])]
    return int(a[i]), int(b[i]), float(bound[i])


def mean_n1_trace(h, s0, times):
    """<n1>(t) sampled at the given times.

    Up to M = _EIG_LIMIT the trace projects s0 on the cached eigensystem and
    keeps only the contiguous window of eigenmodes that s0 occupies: the
    weight left out, delta^2, keeps M*(2*delta + delta^2) <= _WINDOW_TOL
    for a unit s0, which bounds the change of every sample (see
    _trace_window, which uses the norm of s0 in place of 1).  The number
    operator is projected on the window once, N_W = v_W^T diag(n) v_W, so
    each block of samples costs two window x window products instead of
    two dimension x window ones.  Forming N_W costs about (M+1) W^2
    multiply-adds up front, so this gains only when the samples are many
    next to the window W: roughly more than W/2 to W of them (measured,
    one core: criterion 2's M = 1000, W = 225 traces of 401 and 2048
    samples gain; at M = 4000, W = 1915 a 401-sample trace loses about
    1 s beside 36 s of eig_banded).  Above _EIG_LIMIT it steps the Chebyshev
    propagator through the sorted times.  As mean_n1_analytic, it returns a
    float for a scalar time and an array of the shape of times otherwise.
    """
    _check_state(h, s0)
    times = np.asarray(times, dtype=float)
    shape, times = times.shape, times.ravel()
    if not np.all(np.isfinite(times)):
        raise InvalidParameterError("times must be finite")
    n = np.arange(h.m_total + 1, dtype=float)
    out = np.empty(times.shape)
    if h.m_total <= _EIG_LIMIT:
        # In the window, <N>(t) = x_r^T N_W x_r + x_i^T N_W x_i with
        # N_W = v_W^T diag(n) v_W and x = exp(-iwt) c0 split into its real
        # and imaginary parts, so v is never copied to complex.  N_W is
        # summed over row blocks of v_W, and the samples go in blocks, so
        # no (dimension x window) or (dimension x samples) array is held.
        w, v = h.eigensystem()
        _check_phases(float(np.max(np.abs(w))), times)
        cr = v.T @ s0.amplitudes.real
        ci = v.T @ s0.amplitudes.imag
        a, b, _ = _trace_window(cr, ci, h.m_total)
        w, cr, ci = w[a:b], cr[a:b], ci[a:b]
        number = np.zeros((b - a, b - a))
        for lo in range(0, n.size, _TRACE_BLOCK):
            rows = v[lo : lo + _TRACE_BLOCK, a:b]
            number += rows.T @ (n[lo : lo + _TRACE_BLOCK, None] * rows)
        for lo in range(0, times.size, _TRACE_BLOCK):
            phase = np.outer(w, times[lo : lo + _TRACE_BLOCK])
            cos, sin = np.cos(phase), np.sin(phase)
            re = cos * cr[:, None] + sin * ci[:, None]
            im = cos * ci[:, None] - sin * cr[:, None]
            out[lo : lo + _TRACE_BLOCK] = np.sum(re * (number @ re), axis=0) + np.sum(
                im * (number @ im), axis=0
            )
        # At t = 0 the state is s0 itself, as in evolve_exact; the GEMMs
        # would leave round-off there that depends on the BLAS thread count.
        out[times == 0.0] = mean_n1(s0)
    else:
        state = s0
        t_prev = 0.0
        for i in np.argsort(times):
            t = times[i]
            if t != t_prev:
                state = evolve_exact(h, state, t - t_prev)
                t_prev = t
            out[i] = mean_n1(state)
    return float(out[0]) if shape == () else out.reshape(shape)


@dataclass(frozen=True)
class OscillationLaw:
    m_total: int
    omega_prime: float
    c1: float
    c2: float
    stable: bool


def oscillation_law(coeffs, m_total):
    """Closed-form oscillation parameters of the linearized two-mode model."""
    m_total = _count(m_total, "m_total", 1)
    # Python floats raise OverflowError where numpy would return inf: in
    # float(M) above about 1.8e308 and in the powers below.
    try:
        m = float(m_total)
        nbar = coeffs.nbar
        delta = (
            coeffs.gamma * (2.0 * m - nbar)
            - (m - nbar) * coeffs.g_alpha2
            + coeffs.mu1
            - coeffs.mu
        )
        gm = coeffs.gamma * m
        lam2 = coeffs.g01**2 * (m - nbar) ** 2 * m
        hw2 = delta**2 - gm**2
    except OverflowError:
        raise InvalidParameterError(
            f"M = {m_total} overflows a float in the oscillation law"
        ) from None
    if not all(map(math.isfinite, (delta, gm, lam2))):
        raise InvalidParameterError(
            f"non-finite coefficients at M = {m_total}: "
            f"Delta = {delta!r}, gamma*M = {gm!r}, lambda^2 = {lam2!r}"
        )
    if hw2 <= 0:
        return OscillationLaw(
            m_total=m_total,
            omega_prime=float("nan"),
            c1=float("nan"),
            c2=float("nan"),
            stable=False,
        )
    c1 = (gm**2 + lam2) / hw2
    c2 = lam2 * (delta - gm) ** 2 / hw2**2
    return OscillationLaw(
        m_total=m_total,
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
    _check_phases(law.omega_prime, t)
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
