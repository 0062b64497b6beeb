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

from .errors import (
    EigensolverError,
    InapplicableLawError,
    IntegratorFailureError,
    InvalidParameterError,
    UnsupportedRegimeError,
)
from .params import _count, _real, _scipy_extension

# The compiled routines this module calls, taken from scipy's extension
# modules without importing the scipy.linalg and scipy.sparse packages.
_flapack = _scipy_extension("scipy.linalg._flapack")
dsbevd, dpbtrf = _flapack.dsbevd, _flapack.dpbtrf
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dia_matvec = _scipy_extension("scipy.sparse._sparsetools").dia_matvec

# mean_n1_trace samples the eigenpairs of one energy window: the window's
# moment bound on the start weight outside it, delta^2, keeps
# M*(2*delta + delta^2) <= _WINDOW_TOL for a unit start.
_WINDOW_TOL = 1e-12
# Samples per block of the spectral trace, and eigenvector rows per block
# of its window's number operator: a block holds a few window x
# _TRACE_BLOCK real arrays, small next to the (M+1) x window eigenvectors.
_TRACE_BLOCK = 64
# The moment window's radius R_m has stalled once it falls by less than
# 1 % in a step; a start spread over the whole spectrum would otherwise
# run all 2(M + 1) steps.
_STALL = math.log(0.99)
# Inverse iteration, after LAPACK's dstein, for the eigenvectors of an
# eigenvalue interval.  Relative to a bound ||H|| on the norm: shifts
# closer than _PERTURB are moved apart (and an exactly singular one is
# moved on), and a vector is reorthogonalized against the ones whose
# eigenvalues lie within _CLUSTER of its own.  A vector is kept at its
# second iterate whose residual ||Hv - lambda v|| is at most
# max(M + 1, 1/_CLUSTER) eps ||H||, within _INVIT_STEPS solves: the
# (M + 1) eps scale of LAPACK's own tests, and the eps/_CLUSTER to which
# inverse iteration orthogonalizes eigenvalues that are not reorthogonalized.
_PERTURB = 10.0 * 2.0**-52
_CLUSTER = 1e-3
_INVIT_STEPS = 5
# The multipliers of _start_vector's hash, SplitMix64's (Steele, Lea &
# Flood, OOPSLA 2014).
_START_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9))
# Elements per stacked Chebyshev recursion: sectors are packed into vectors
# of at most this length n, so its work arrays (the (5, n) DIA band and its
# negation, the S_{k-1} and S_k rows, the (2, n) accumulator and one
# buffer: 15 n floats, 2 MB) stay cache-sized.
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
# scaled by a certified tight interval instead.  Its 7-21 banded Cholesky
# factorizations (at most 12 per end) cost 0.14, 0.58 and 1.0-1.6 ms at
# M = 130, 1000 and 5000 (one core), and Gershgorin overstates the
# half-width by 2-18 %.  In a stack of 16 sectors of a protocol at n0 = 1000 the
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
    """H at total number M, fixed by the coupling coefficients and M alone.

    No band is stored: _sector_bands writes it whenever one is needed, and
    once in __post_init__, so a non-finite matrix element is refused when
    H is made.  diag, off1 and off2 are read-only views of a fresh band.
    The eigenpairs of the last interval asked for are cached in _eig by
    eigensystem(); the fields cannot change, so the cache cannot go stale.
    """

    coeffs: object  # CouplingCoefficients
    m_total: int
    _eig: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m_total", _count(self.m_total, "m_total", 1))
        self.to_dia()  # raises on a non-finite matrix element

    def to_dia(self):
        """The band in the DIA layout of _OFFSETS, (5, M+1), +0.0 outside H."""
        return _sector_bands(self.coeffs, [self.m_total])[0]

    def _row(self, d, size):
        row = self.to_dia()[d, :size]
        row.flags.writeable = False
        return row

    diag = property(lambda self: self._row(0, self.m_total + 1))  # <n|H|n>
    off1 = property(lambda self: self._row(2, self.m_total))  # <n+1|H|n>
    off2 = property(lambda self: self._row(1, self.m_total - 1))  # <n+2|H|n>

    def to_dense(self):
        dia = self.to_dia()
        n = dia.shape[1]
        a = np.zeros((n, n))
        for off, row in zip(_OFFSETS, dia):
            j = np.arange(max(off, 0), n + min(off, 0))
            a[j - off, j] = row[j]
        return a

    def eigensystem(self, lo=-math.inf, hi=math.inf):
        """The eigenpairs with eigenvalue in [lo, hi]: w ascending, v[:, k] the k-th.

        dsbevd's eigenvalues choose the pairs, and banded inverse iteration
        gives their eigenvectors and Rayleigh quotients, each pair certified
        by its residual and the block by its orthogonality (_interval_pairs);
        a certificate that fails raises EigensolverError and caches nothing.
        The result is cached in _eig with its interval, and a call for an
        interval inside it is served by slicing at the returned eigenvalues.
        """
        if not lo <= hi:
            raise InvalidParameterError(f"eigenvalue interval [{lo!r}, {hi!r}] is empty")
        if self._eig is not None:
            interval, pair = self._eig
            if interval == (lo, hi):
                return pair
            if interval[0] <= lo and hi <= interval[1]:
                w, v = pair
                a, b = np.searchsorted(w, lo, side="left"), np.searchsorted(w, hi, side="right")
                return w[a:b], v[:, a:b]
        pair = _interval_pairs(self.to_dia(), lo, hi)
        object.__setattr__(self, "_eig", ((lo, hi), pair))
        return pair


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """A unit state on |M - n, n>, n = 0..M: its M + 1 amplitudes fix M."""

    amplitudes: np.ndarray
    error_bound: float = 0.0  # bound on the propagation error in the 2-norm

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise InvalidParameterError(f"amplitudes must be a 1-d array, got {amp.shape}")
        norm = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm - 1.0) <= 1e-6:
            raise InvalidParameterError(f"state norm^2 = {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", amp)

    m_total = property(lambda self: self.amplitudes.size - 1)


def fock_state(m_total, n1=0):
    m_total, n1 = _count(m_total, "m_total", 0), _count(n1, "n1")
    if not 0 <= n1 <= m_total:
        raise InvalidParameterError(f"n1 = {n1} outside 0..{m_total}")
    amp = np.zeros(m_total + 1, dtype=complex)
    amp[n1] = 1.0
    return TwoModeState(amp)


def _sector_bands(coeffs, ms):
    """The band of H over the sectors M in ms in DIA layout, and their ends.

    The one writer of matrix elements: TwoModeHamiltonian.to_dia is its
    one-sector case, and propagate and evolve_exact build their stacks
    with it.  The sectors sit one after another in a (5, n) array in the
    layout of _OFFSETS, all written in one elementwise pass: row 0 holds
    each <n|H|n>, row 2 each <n+1|H|n> and row 1 each <n+2|H|n>, and rows 3
    and 4 are rows 2 and 1 moved one and two places on.  Every entry that
    would couple a sector to the next is +0.0, so the stack is
    block-diagonal and one sector's slice is its TwoModeHamiltonian.to_dia.
    Matrix elements follow from the elementary action of creation and
    annihilation operators on |M - n, n>:

      diag[n]  = mu*(M-n) + (g*alpha2/2)*((M-n)*(M-n-1) - 2*nbar*(M-n))
                 + mu1*n + gamma*n*(2*(M-n) - nbar)
      off1[n]  = g01*(M-n-1-nbar)*sqrt((n+1)*(M-n))
      off2[n]  = (gamma/2)*sqrt((n+1)*(n+2)*(M-n)*(M-n-1))

    Every M must be at least 1.  Returns the band and each sector's end;
    a non-finite matrix element raises InvalidParameterError, so no
    propagation sees one.
    """
    sizes = np.asarray(ms, dtype=np.int64) + 1
    ends = np.cumsum(sizes)
    nbar = coeffs.nbar
    ga2 = coeffs.g_alpha2
    m = np.repeat(sizes - 1.0, sizes)
    n = (np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)).astype(float)
    n0 = m - n
    dia = np.zeros((5, n.size))
    dia[0] = (
        coeffs.mu * n0
        + 0.5 * ga2 * (n0 * (n0 - 1.0) - 2.0 * nbar * n0)
        + coeffs.mu1 * n
        + coeffs.gamma * n * (2.0 * n0 - nbar)
    )
    dia[2] = coeffs.g01 * (m - n - 1.0 - nbar) * np.sqrt((n + 1.0) * (m - n))
    dia[1] = (
        0.5
        * coeffs.gamma
        * np.sqrt((n + 1.0) * (n + 2.0) * (m - n) * (m - n - 1.0))
    )
    dia[2, ends - 1] = dia[1, ends - 1] = dia[1, ends - 2] = 0.0
    bad = np.flatnonzero(~np.all(np.isfinite(dia[:3]), axis=0))
    if bad.size:
        sector = int(np.searchsorted(ends, bad[0], side="right"))
        raise InvalidParameterError(f"non-finite matrix elements at M = {ms[sector]}")
    dia[3, 1:] = dia[2, :-1]
    dia[4, 2:] = dia[1, :-2]
    return dia, ends


def build_h01(coeffs, m_total):
    """The two-mode Hamiltonian for fixed total number M (TwoModeHamiltonian)."""
    return TwoModeHamiltonian(coeffs, m_total)


def _gershgorin(dia, ends):
    """Centres and half-widths of intervals holding each spectrum up to rounding.

    dia is a stack of sectors in DIA layout (_sector_bands), and ends the
    end of each.  Each eigenvalue lies in a Gershgorin disc: within the
    sum of a row's off-diagonal magnitudes of that row's diagonal element.
    The couplings between sectors are +0.0 and add nothing.
    """
    radius = np.abs(dia[2]) + np.abs(dia[3])
    radius += np.abs(dia[1])
    radius += np.abs(dia[4])
    starts = np.concatenate(([0], np.asarray(ends)[:-1]))
    lo = np.minimum.reduceat(dia[0] - radius, starts)
    hi = np.maximum.reduceat(dia[0] + radius, starts)
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _norm_bound(dia):
    """A bound on ||H|| for one sector: max |lambda| over its Gershgorin
    interval, but at least 2^-970, so that eps times it is a normal float."""
    centre, half = _gershgorin(dia, [dia.shape[1]])
    return max(abs(float(centre[0])) + float(half[0]), 2.0**-970)


def _start_vector(k, n):
    """The inverse-iteration start of the k-th vector of length n.

    Entry j hashes the counter c = k n + j + 1 by two xorshift-multiply
    rounds, z = c a, z ^= z >> 31, z *= b, z ^= z >> 29 (mod 2^64; a, b
    = _START_MIX), and maps its top 53 bits to [-1, 1).  The start is
    fixed, as dstein's starts from dlarnv with a fixed seed are, and no
    pseudo-random generator is loaded.  Integer arithmetic is exact, so
    every platform gets the same start.  A hash, not a low-discrepancy
    lattice: the R2 sequence's starts are shifts of one sequence, and 101
    of them of length 101 span only 90 dimensions, while these are as
    well conditioned as uniform random ones (condition number 4e2).
    """
    z = np.arange(k * n + 1, (k + 1) * n + 1, dtype=np.uint64)
    z *= _START_MIX[0]
    z ^= z >> np.uint64(31)
    z *= _START_MIX[1]
    z ^= z >> np.uint64(29)
    x = (z >> np.uint64(11)).astype(float)
    x *= 2.0**-52
    x -= 1.0
    return x


def _interval_pairs(dia, lo, hi):
    """The eigenpairs of one sector with eigenvalue in [lo, hi], certified.

    dia is the sector in DIA layout.  dsbevd gives every eigenvalue
    (compute_v=0, eig_banded's call with eigvals_only=True), and each
    eigenvalue in [lo, hi] its vector by inverse iteration on a banded LU
    of H - sigma (dgbtrf, dgbtrs), as LAPACK's dstein does: from a fixed
    pseudo-random start (_start_vector), each solve's result is scaled to
    unit norm after the vectors of eigenvalues within _CLUSTER ||H|| below
    its own are taken out of it (twice, classical Gram-Schmidt), and a
    shift within _PERTURB ||H|| of the previous one, or one whose
    factorization has a zero, subnormal-sized or non-finite entry, is
    moved on.  With slack = max(M + 1, 1/_CLUSTER) eps, the band product
    certifies each pair: the vector is kept at its second iterate with
    ||Hv - lambda v|| <= slack ||H||, which puts an eigenvalue of H within
    that of lambda.  The block is then checked in column blocks:
    max |V^T V - I| <= slack.  A failed certificate raises
    EigensolverError.  Each pair returns the vector's Rayleigh quotient,
    lambda + v^T (Hv - lambda v), whose residual is no larger than
    lambda's: the eigenvalues of dsbevd's compute_v=0 path (dsterf) carry
    several times the rounding of its compute_v=1 path, and the quotient
    is as accurate as either.  Returns w ascending and v = (M + 1, w.size),
    a transposed view of the row-major vectors.
    """
    n = dia.shape[1]
    norm = _norm_bound(dia)
    # dsbevd(compute_v=0) rescales a band of norm below about 1e-138 with a
    # call that DLASCL rejects, and returns wrong eigenvalues; squared
    # residuals of such a band underflow.  So a band outside 2^-400..2^400
    # is solved scaled by a power of two, which is exact.
    shift = 0 if 2.0**-400 <= norm <= 2.0**400 else math.frexp(norm)[1]
    if shift:
        dia, lo, hi, norm = (np.ldexp(a, -shift) for a in (dia, lo, hi, norm))
    w, _, info = dsbevd(dia[[0, 2, 1]], compute_v=0, lower=1, overwrite_ab=1)
    if info != 0:
        raise EigensolverError(f"dsbevd failed at M = {n - 1}: info {info}")
    w = w[np.searchsorted(w, lo, side="left") : np.searchsorted(w, hi, side="right")].copy()
    eps = 2.0 * _UNIT_ROUNDOFF
    slack = max(n, 1.0 / _CLUSTER) * eps
    perturb = _PERTURB * norm
    rows, theta = np.empty((w.size, n)), np.empty(w.size)
    general = dia[[4, 3, 0, 2, 1]]  # H in LAPACK's general band storage
    band = np.zeros((7, n))  # dgbtrf's: kl = ku = 2 and 2 rows of fill
    hv = np.empty(n)
    first, sigma = 0, -math.inf
    for k, lam in enumerate(w):
        while first < k and lam - w[first] > _CLUSTER * norm:
            first += 1
        near = rows[first:k]
        sigma = max(lam, sigma + perturb)
        for step in range(_INVIT_STEPS):
            band[:2] = 0.0
            band[2:] = general
            band[4] -= sigma
            lu, piv, info = dgbtrf(band, 2, 2, overwrite_ab=1)
            if info < 0:
                raise EigensolverError(f"dgbtrf rejected argument {-info}")
            # A right-hand side scaled to perturb cannot overflow a solve
            # unless a pivot is below perturb * eps: an exactly singular
            # shift (info > 0), or one next to subnormal couplings, moves on.
            if np.min(np.abs(lu[4])) >= perturb * eps and np.all(np.isfinite(lu)):
                break
            sigma += perturb * 2.0**step
        x = _start_vector(k, n)
        passed = 0
        for _ in range(_INVIT_STEPS):
            x *= perturb / np.max(np.abs(x))
            x, _ = dgbtrs(lu, 2, 2, x, piv, overwrite_b=1)
            for _ in range(2 if k > first else 0):
                x -= near.T @ (near @ x)
            x /= math.sqrt(float(x @ x))
            np.multiply(x, -lam, out=hv)
            dia_matvec(n, n, 5, n, _OFFSETS, dia, x, hv)
            if math.sqrt(float(hv @ hv)) <= slack * norm:
                passed += 1
                if passed == 2:
                    break
        else:
            raise EigensolverError(
                f"inverse iteration at {lam!r} (M = {n - 1}) left a residual "
                f"{math.sqrt(float(hv @ hv)):.3e} above {slack * norm:.3e}"
            )
        rows[k] = x
        theta[k] = lam + float(x @ hv)
    defect = 0.0
    for start in range(0, w.size, _TRACE_BLOCK):
        gram = rows @ rows[start : start + _TRACE_BLOCK].T
        gram[start + np.arange(gram.shape[1]), np.arange(gram.shape[1])] -= 1.0
        defect = max(defect, float(np.max(np.abs(gram))))
    if not defect <= slack:
        raise EigensolverError(
            f"eigenvectors at M = {n - 1} are orthogonal only to {defect:.3e}"
        )
    # Rounding may swap the quotients of two close eigenvalues.
    if np.any(np.diff(theta) < 0.0):
        order = np.argsort(theta, kind="stable")
        theta, rows = theta[order], rows[order]
    return np.ldexp(theta, shift), rows.T


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


def _factor_shifted(band, sign, sigma):
    """(ab, chol, info): dpbtrf of sign*(sigma - H), H in lower band storage."""
    ab = -sign * band
    ab[0] += sign * sigma
    chol, info = dpbtrf(ab, lower=1)
    if info < 0:
        raise IntegratorFailureError(f"dpbtrf rejected argument {-info}")
    return ab, chol, info


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

    When the Gershgorin end lies within the final bracket of the true
    end, every factorization fails.  So when the first probe fails, the
    last point that an all-refused run would probe is factored: every
    probe before it lies deeper inside the spectrum, so if that one fails
    they all would, and the Gershgorin end is returned at once, the result
    the bisection would reach.  If it succeeds, the bisection runs on as
    before, one factorization later.
    """
    centre, half = gersh
    wall = centre + sign * half
    inner = sign * float(np.max(sign * band[0]))
    outer, proof, first = wall, None, True
    while sign * (outer - inner) > _BISECT_TOL * half:
        sigma = 0.5 * (inner + outer)
        if sigma == inner or sigma == outer:
            break  # the bracket is down to round-off
        ab, chol, info = _factor_shifted(band, sign, sigma)
        if info == 0:
            outer, proof = sigma, (ab, chol)
        else:
            inner = sigma
            if first:
                last = _last_refused_probe(inner, wall, sign, half)
                if last != inner and _factor_shifted(band, sign, last)[2] != 0:
                    return wall  # no tighter end can be proven: Gershgorin's stands
        first = False
    if proof is None:
        return wall  # no tighter end proven: Gershgorin's stands
    return _proven_end(proof, outer, wall, sign)


def _last_refused_probe(inner, wall, sign, half):
    """The last point the bisection from inner toward wall probes if every
    factorization fails: inner itself when it probes none."""
    while sign * (wall - inner) > _BISECT_TOL * half:
        sigma = 0.5 * (inner + wall)
        if sigma == inner or sigma == wall:
            break
        inner = sigma
    return inner


def _proven_end(proof, outer, wall, sign):
    """The end that a completed factorization proof = (ab, chol) of
    sign*(outer - H) proves: outer plus its backward error, or wall if
    that does not lie inside it."""
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


def _certified(dia):
    """The certified (centre, half-width) of one sector's spectrum, up to rounding.

    dia is the sector in DIA layout (TwoModeHamiltonian.to_dia).  Each end
    is bisected by banded Cholesky factorizations (_certify_end) of its
    lower band storage inside the Gershgorin interval, which stays the
    outer bracket.
    """
    centre, half = _gershgorin(dia, [dia.shape[1]])
    gersh = float(centre[0]), float(half[0])
    band = dia[[0, 2, 1]]
    a = _certify_end(band, gersh, -1.0)
    b = _certify_end(band, gersh, 1.0)
    return float(b + a) / 2.0, float(b - a) / 2.0


def _intervals(dia, ends, t):
    """Centres and half-widths of the intervals that scale each sector at t.

    A sector whose Gershgorin series, z = half-width * |t| terms, is at
    most _REFINE_TERMS long keeps its Gershgorin interval; a longer one
    takes its certified interval (_certified, on the sector's slice).  The
    choice depends on the sector alone; a stack then runs the series of
    its widest half-width (_propagate_block).
    """
    centres, halves = _gershgorin(dia, ends)
    for i in np.flatnonzero(halves * abs(t) > _REFINE_TERMS):
        lo = ends[i - 1] if i else 0
        centres[i], halves[i] = _certified(dia[:, lo : ends[i]])
    return centres, halves


def _stacks(sizes):
    """Yield (lo, hi): the runs of consecutive sectors that share a recursion.

    Each run holds at most _STACK_LIMIT elements; a larger sector runs alone.
    """
    lo, total = 0, 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > _STACK_LIMIT:
            yield lo, i
            lo, total = i, 0
        total += size
    if sizes:
        yield lo, len(sizes)


def _propagate_block(dia, ends, s, t):
    """(exp(-iHt) x, tail) for each sector of a stack, in one recursion.

    dia holds the sectors one after another in DIA layout, with zero
    couplings between them (_sector_bands), ends the end of each sector,
    and s[1] the real start vector of the whole stack; the recursion runs
    in dia and s, which it overwrites.
    Each sector is shifted by the centre of its interval (_intervals), and
    the stack is scaled by its widest half-width, so every sector's
    spectrum lies in [-1, 1] and one series, z = widest half-width * |t|,
    with one truncation bound, serves them all.  The recursion stores
    S_k = s_k T_k(H_s) with s_k = 1, 1, -1, -1, ..., so that
    S_{k+1} = S_{k-1} + 2 H_s S_k for even k and S_{k-1} - 2 H_s S_k for
    odd k: each term is one in-place banded product, scipy's DIA kernel
    y += A x on y = S_{k-1} with A = +-2 H_s.  Negating a product or a sum
    rounds to the negated result, so every S_k is s_k T_k to the bit.
    """
    sizes = np.diff(ends, prepend=0)
    centres, halves = _intervals(dia, ends, t)
    half = float(np.max(halves))
    # exp(-iHt) = exp(-i centre t) sum_k (2 - [k = 0]) (-i)^k J_k(z) T_k(H_s)
    # with z = half * t, and J_k(-z) = (-1)^k J_k(z); the weight of S_k is
    # s_k times that of T_k.  The series comes before the negated band: on
    # a long series Miller's recurrence holds about as much as the band.
    j, tail = _bessel_series(half * abs(t))
    if not tail <= _TAIL_TOL:
        raise IntegratorFailureError(
            f"Chebyshev truncation bound {tail:.3e} exceeds {_TAIL_TOL:g}"
        )
    coef = 2.0 * j
    coef[0] = j[0]
    coef[1::2] *= -math.copysign(1.0, t)
    # 2*H_s, H_s = (H - centre)/half, written over H.
    dia[0] -= np.repeat(centres, sizes)
    dia *= 2.0 / half if half else 0.0
    signed = (dia, -dia)
    n = dia.shape[1]
    # S_{k-1}, S_k; S_{-1} = -0.0 is the -T_{-1} that T_1 = H_s T_0 adds to.
    s[0] = -0.0
    acc = np.zeros((2, n))  # even terms are real, odd terms imaginary
    buf = np.empty(n)
    for k, a_k in enumerate(coef):
        # S_k sits in s[(k + 1) % 2], S_{k-1} in s[k % 2].
        cur, y = s[(k + 1) % 2], s[k % 2]
        np.multiply(cur, a_k, out=buf)
        acc[k % 2] += buf
        # S_{k+1}, written over S_{k-1}; S_1 = H_s S_0.
        dia_matvec(n, n, 5, n, _OFFSETS, signed[k % 2], cur, y)
        if k == 0:
            y *= 0.5
    del signed, buf  # the negated band goes before the products are made
    # exp(-i centre t) (even + i odd); dia is spent and holds the products.
    c = np.repeat([math.cos(centre * t) for centre in centres], sizes)
    sn = np.repeat([-math.sin(centre * t) for centre in centres], sizes)
    even, odd = acc
    re = np.multiply(even, c, out=dia[0])
    re -= np.multiply(odd, sn, out=dia[1])
    im = np.multiply(even, sn, out=dia[2])
    im += np.multiply(odd, c, out=dia[1])
    amp = re + 1j * im
    return [(part, tail) for part in np.split(amp, ends[:-1])]


def propagate(coeffs, ms, t, starts=None):
    """Yield (exp(-iH_M t) x, tail) for each sector M >= 1 of ms.

    x is the real vector starts[i] for the i-th sector, or |M, 0> when
    starts is None.

    Chebyshev expansion of the propagator (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)): it needs only band matrix-vector products, and
    its truncation error is at most tail = 2*sum_{k>=K} |J_k(z)| per unit
    start norm.  Each sector's spectrum is held by an interval:
    Gershgorin's for a short series, a certified tight one for a long one
    (_intervals; the certificate runs only unblocked banded LAPACK
    factorizations, no threaded BLAS).
    Consecutive sectors are stacked into recursions of at most
    _STACK_LIMIT elements (_stacks), and each stack's bands are built in
    one elementwise pass (_sector_bands), so only one stack is held at a
    time and no per-sector object is made.  A stack runs one series, about
    z = half-width * |t| terms of its widest sector, so a result moves
    with its stack-mates by round-off; the stacks depend only on the
    sequence of sectors.  Each term is one in-place banded product
    (scipy's DIA kernel, no BLAS), which sums every row in a fixed order,
    so the results do not depend on the thread count.
    """
    for lo, hi in _stacks([m + 1 for m in ms]):
        dia, ends = _sector_bands(coeffs, ms[lo:hi])
        s = np.zeros((2, dia.shape[1]))
        if starts is None:
            s[1, np.concatenate(([0], ends[:-1]))] = 1.0  # |M, 0>: n1 = 0
        else:
            s[1] = np.concatenate(starts[lo:hi])
        yield from _propagate_block(dia, ends, s, t)
        del dia, s  # before the next stack is built


def _check_state(h, s0):
    """Raise unless s0 lives in the Fock space of h."""
    if s0.m_total != h.m_total:
        raise InvalidParameterError(
            f"state has M = {s0.m_total}, Hamiltonian has M = {h.m_total}"
        )


def _step_count(h, t):
    """The equal Chebyshev steps, of at most _Z_MAX / 2 terms each, that
    evolve_exact splits t into; UnsupportedRegimeError when so many that
    their truncation bounds, up to _TAIL_TOL each, could exceed 1e-6 in
    all, the norm-drift tolerance of evolve_exact."""
    steps = float(_gershgorin(h.to_dia(), [h.m_total + 1])[1][0]) * abs(t) / (0.5 * _Z_MAX)
    if not steps * _TAIL_TOL <= 1e-6:
        raise UnsupportedRegimeError(
            f"evolving for t = {t:g} takes about {steps:.3g} Chebyshev steps, "
            f"whose truncation bound could exceed 1e-6"
        )
    return max(1, math.ceil(steps))


def evolve_exact(h, s0, t):
    """Evolve a two-mode state for time t (units of 1/omega).

    The Chebyshev propagator acts on the band at every size, in equal
    steps of at most _Z_MAX / 2 terms each, counted on the Gershgorin
    half-width, which bounds the one that scales each series (_intervals);
    a complex state runs its real and imaginary parts as two sectors
    (propagate), whose band is written afresh on each step.
    The state's error_bound grows by the truncation bound of each series.
    """
    _check_state(h, s0)
    t = _real(t, "t")
    if t == 0.0:
        return s0
    steps = _step_count(h, t)
    amp, bound = s0.amplitudes, s0.error_bound
    for _ in range(steps):
        parts = [amp.real, amp.imag] if np.any(amp.imag) else [amp.real]
        out = list(propagate(h.coeffs, [h.m_total] * len(parts), t / steps, parts))
        amp = out[0][0] + 1j * out[1][0] if len(out) == 2 else out[0][0]
        bound += sum(tail for _, tail in out)
    drift = abs(math.sqrt(float(np.sum(np.abs(amp) ** 2))) - 1.0)
    if not drift <= 1e-6:
        raise IntegratorFailureError(f"norm drift {drift:.3e} exceeds 1e-6")
    return TwoModeState(amp, error_bound=bound)


def mean_n1(s):
    """<n1> of a two-mode state."""
    n = np.arange(s.m_total + 1)
    return float(np.sum(n * np.abs(s.amplitudes) ** 2))


def _times(times):
    """times as a float array; InvalidParameterError unless all are finite reals.

    Strings, None, complex numbers and object arrays are refused, not
    converted, as _real refuses them for a single time.
    """
    times = np.asarray(times)
    if times.dtype.kind not in "biuf" or not np.all(np.isfinite(times)):
        raise InvalidParameterError("times must be finite reals")
    return times.astype(float, copy=False)


def _check_phases(rate, times):
    """Raise unless every phase rate * t is a finite float."""
    t_max = float(np.max(np.abs(times), initial=0.0))
    if not math.isfinite(rate * t_max):
        raise InvalidParameterError(
            f"phase {rate:.6g} * t overflows a float at |t| = {t_max:.6g}"
        )


def _moment_window(h, s0):
    """An energy interval that holds all but delta^2 of the weight of s0, and delta^2.

    With E the mean energy of s0 and q_k its weight on eigenvalue
    lambda_k, the weight outside [E - R, E + R] is at most
    mu_2m / R^(2m), where mu_2m = ||(H - E)^m s0||^2 = sum_k q_k
    (lambda_k - E)^(2m).  So R = (mu_2m / delta^2)^(1/(2m)), least over m,
    leaves out at most delta^2, which is half the budget that keeps
    M*delta*(2r + delta) <= _WINDOW_TOL for r = ||s0||: the other half
    absorbs the rounding of the norms and of that arithmetic.  Each
    computed x_m = (H - E) x_{m-1} is off from the exact one by at most
    b_m = |H - E| (b_{m-1} + gamma |x_{m-1}|) componentwise, gamma = 7 eps
    covering the five-term band product and the shifted diagonal, so
    ||x_m|| + ||b_m|| bounds the square root of mu_2m.  Both are rescaled by
    powers of two, which is exact, and R_m, quasi-convex in m because
    log mu_2m is convex, is followed to its first rise, or until it falls
    by less than 1 % in a step (_STALL) while [E - R_m, E + R_m] holds the
    Gershgorin interval: every m bounds the weight left out, so stopping
    early only widens a window that already holds the whole spectrum.
    The interval is widened by (M + 1) eps ||H|| on each side to take in
    the rounding of the computed eigenvalues.  Returns lo, hi and delta^2.
    """
    dia = h.to_dia()
    norm = _norm_bound(dia)
    shift = math.frexp(norm)[1]  # H runs scaled by 2^-shift, exactly
    parts = [p for p in (s0.amplitudes.real, s0.amplitudes.imag) if np.any(p)]
    # The real and imaginary parts run as two sectors of one stacked band.
    band = np.ldexp(np.tile(dia, (1, len(parts))), -shift)
    x = np.concatenate(parts)
    n = x.size
    hx = np.zeros(n)
    dia_matvec(n, n, 5, n, _OFFSETS, band, x, hx)
    r2 = float(x @ x)
    energy = float(x @ hx) / r2
    budget = _WINDOW_TOL / h.m_total
    delta2 = 0.5 * (budget / (math.sqrt(r2) + math.sqrt(r2 + budget))) ** 2
    band[0] -= energy
    centre, half = _gershgorin(band, [n])
    reach = abs(float(centre[0])) + float(half[0])
    mag = np.abs(band)
    gamma = 7.0 * _UNIT_ROUNDOFF / (1.0 - 7.0 * _UNIT_ROUNDOFF)
    b = np.zeros(n)
    log_scale = 0  # x and b are the computed ones divided by 2^log_scale
    best = math.inf
    for m in range(1, n + 1):
        y, c = np.zeros(n), np.abs(x)
        dia_matvec(n, n, 5, n, _OFFSETS, band, x, y)
        c *= gamma
        c += b
        b = np.zeros(n)
        dia_matvec(n, n, 5, n, _OFFSETS, mag, c, b)
        top = max(float(np.max(np.abs(y))), float(np.max(b)))
        if top == 0.0:
            best = -math.inf  # s0 is an eigenvector with eigenvalue E
            break
        # Rescaled so that the largest entry is in [1/2, 1): no square
        # in the norms below underflows or overflows.
        step = math.frexp(top)[1]
        x, b = np.ldexp(y, -step), np.ldexp(b, -step)
        log_scale += step
        bound = math.sqrt(float(x @ x)) + math.sqrt(float(b @ b))
        log_r = (math.log(bound) + log_scale * math.log(2.0)) / m - math.log(delta2) / (2 * m)
        if log_r > best:
            break
        stalled = log_r > best + _STALL and math.exp(log_r) >= reach
        best = log_r
        if stalled:
            break
    radius = math.ldexp(math.exp(best), shift)
    energy = math.ldexp(energy, shift)
    margin = (h.m_total + 1) * 2.0 * _UNIT_ROUNDOFF * norm
    return energy - radius - margin, energy + radius + margin, delta2


def mean_n1_trace(h, s0, times):
    """<n1>(t) sampled at the given times.

    The trace takes the eigenpairs of the one energy window that s0
    occupies (_moment_window: the weight left out, delta^2, keeps
    M*(2*delta + delta^2) <= _WINDOW_TOL for a unit s0, which bounds the
    change of every sample) from h.eigensystem(lo, hi), which computes the
    window's eigenvectors only.  The number operator is projected on the
    window once, N_W = v_W^T diag(n) v_W, so each block of samples costs
    two window x window products instead of two dimension x window ones,
    after about (M+1) W^2 multiply-adds up front.  The trace serves the
    times evolve_exact serves: before any eigenpair is computed, a phase
    that overflows a float at H's norm bound is refused, then a time past
    evolve_exact's step budget (_step_count).  As mean_n1_analytic, it
    returns a float for a scalar time and an array of the shape of times
    otherwise.
    """
    _check_state(h, s0)
    times = _times(times)
    shape, times = times.shape, times.ravel()
    _check_phases(_norm_bound(h.to_dia()), times)
    _step_count(h, float(np.max(np.abs(times), initial=0.0)))
    n = np.arange(h.m_total + 1, dtype=float)
    out = np.empty(times.shape)
    # In the window, <N>(t) = x_r^T N_W x_r + x_i^T N_W x_i with
    # N_W = v^T diag(n) v and x = exp(-iwt) c0 split into its real and
    # imaginary parts, so v is never copied to complex.  N_W is summed
    # over row blocks of v, and the samples go in blocks, so no
    # (dimension x samples) array is held.
    w, v = h.eigensystem(*_moment_window(h, s0)[:2])
    cr = v.T @ s0.amplitudes.real
    ci = v.T @ s0.amplitudes.imag
    number = np.zeros((w.size, w.size))
    for lo in range(0, n.size, _TRACE_BLOCK):
        rows = v[lo : lo + _TRACE_BLOCK]
        number += rows.T @ (n[lo : lo + _TRACE_BLOCK, None] * rows)
    for lo in range(0, times.size, _TRACE_BLOCK):
        phase = np.outer(w, times[lo : lo + _TRACE_BLOCK])
        cos, sin = np.cos(phase), np.sin(phase)
        re = cos * cr[:, None] + sin * ci[:, None]
        im = cos * ci[:, None] - sin * cr[:, None]
        out[lo : lo + _TRACE_BLOCK] = np.sum(re * (number @ re), axis=0) + np.sum(
            im * (number @ im), axis=0
        )
    # At t = 0 the state is s0 itself, as in evolve_exact; the GEMMs would
    # leave round-off there that depends on the BLAS thread count.
    out[times == 0.0] = mean_n1(s0)
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
    t = _times(t)
    _check_phases(law.omega_prime, t)
    wt = law.omega_prime * t
    out = law.c1 * np.sin(wt) ** 2 + law.c2 * (np.cos(wt) - 1.0) ** 2
    return float(out) if out.ndim == 0 else out
