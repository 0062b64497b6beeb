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
    """H at total number M, fixed by the coupling coefficients and M alone.

    No band is stored: _sector_bands writes it whenever one is needed, and
    once in __post_init__, so a non-finite matrix element is refused when
    H is made.  diag, off1 and off2 are read-only views of a fresh band.
    The eigensystem is computed on the first eigensystem() call and cached
    in _eig; the fields cannot change, so the cache cannot go stale.
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

    def eigensystem(self):
        if self._eig is None:
            band = self.to_dia()[[0, 2, 1]]  # lower band storage
            object.__setattr__(self, "_eig", eig_banded(band, lower=True))
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
    from scipy.sparse._sparsetools import dia_matvec  # not loaded on import

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


def propagate(coeffs, ms, t):
    """Yield (exp(-iH_M t)|M, 0>, tail) for each sector M >= 1 of ms.

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
        s[1, np.concatenate(([0], ends[:-1]))] = 1.0  # |M, 0>: n1 = 0
        yield from _propagate_block(dia, ends, s, t)
        del dia, s  # before the next stack is built


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
    a complex state runs its real and imaginary parts as two sectors of one
    stack (_stacks), whose band _sector_bands writes afresh on each step.
    The state's error_bound grows by the truncation bound of each series.
    """
    _check_state(h, s0)
    t = _real(t, "t")
    if t == 0.0:
        return s0
    size = h.m_total + 1
    steps = float(_gershgorin(h.to_dia(), [size])[1][0]) * abs(t) / (0.5 * _Z_MAX)
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
        out = []
        for lo, hi in _stacks([size] * len(parts)):
            dia, ends = _sector_bands(h.coeffs, [h.m_total] * (hi - lo))
            s = np.stack((np.empty(ends[-1]), np.concatenate(parts[lo:hi])))
            out += _propagate_block(dia, ends, s, t / steps)
            del dia, s  # before the next band is built
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
    times = _times(times)
    shape, times = times.shape, times.ravel()
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
    t = _times(t)
    _check_phases(law.omega_prime, t)
    wt = law.omega_prime * t
    out = law.c1 * np.sin(wt) ** 2 + law.c2 * (np.cos(wt) - 1.0) ** 2
    return float(out) if out.ndim == 0 else out
