"""Cyclic depletion protocol driven by the two-mode transfer resonance.

Each cycle evolves every total-number component M from |M, 0> for the fixed
half-period T = pi/w'(n0), measures the excited-mode occupation, and removes
the measured atoms.  The cycle is therefore a Markov kernel on the total
number,

    K(M -> M - j) = |<M - j, j| exp(-i H_M T) |M, 0>|^2,

which only ever moves probability downward.  Components above n0 drift
toward n0, where transfer nearly vanishes, while components below n0 deplete
away at an accelerating rate, so a symmetric initial spread bifurcates into
a retained peak near n0 and a runaway tail toward zero.

Different M sectors are classically mixed, not superposed: the Hamiltonian
conserves total number and the end-of-cycle measurement destroys
inter-sector coherence, so distribution propagation is exact for the
observables reported here.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidParameterError,
    ProtocolInapplicableError,
    TruncationOverflowError,
)
from .params import _count, _real
from .twomode import oscillation_law, propagate

# Cycles per block of run_protocol's buffer: their certificates and
# statistics are row-wise sums over one (_BLOCK, m_max + 1) array, so the
# buffer's size does not depend on the number of cycles.
_BLOCK = 16


def _certify(probs, where="probabilities"):
    """Raise unless probs is non-negative (to 1e-12) and sums to 1 (to 1e-9)."""
    if not np.min(probs) >= -1e-12:
        raise InvalidParameterError(f"{where} must be non-negative")
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidParameterError(f"{where} sum to {total!r}, expected 1")


def _band(lo, hi, m_max):
    """The slice of integers lo <= M <= hi within 0..m_max (may be empty)."""
    lo = max(0, int(math.ceil(lo)))
    hi = min(m_max, int(math.floor(hi)))
    return slice(lo, max(lo, hi + 1))


def _retained_and_lost(n0):
    """(lo, hi) of the retained band around n0 and of the lost band near M = 0."""
    return (0.9 * n0, 1.1 * n0), (0, 0.1 * n0 - 1e-12)


@dataclass(frozen=True, eq=False)
class NumberDistribution:
    """Distribution over total atom number M = 0..len-1."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise InvalidParameterError("probabilities must be a 1-d array")
        _certify(probs)
        object.__setattr__(self, "probabilities", np.maximum(probs, 0.0))

    @property
    def m_max(self):
        return self.probabilities.size - 1

    @property
    def support_max(self):
        nz = np.flatnonzero(self.probabilities)
        return int(nz[-1]) if nz.size else 0

    def mean(self):
        m = np.arange(self.probabilities.size)
        return float(np.sum(m * self.probabilities))

    def variance(self):
        m = np.arange(self.probabilities.size)
        mu = np.sum(m * self.probabilities)
        return float(np.sum((m - mu) ** 2 * self.probabilities))

    def conditional_variance(self, lo, hi):
        """Variance of M restricted to the band [lo, hi]; nan for empty mass."""
        band = _band(lo, hi, self.m_max)
        probs = self.probabilities[band]
        mass = probs.sum()
        if mass <= 0:
            return float("nan")
        m = np.arange(band.start, band.stop)
        mu = np.sum(m * probs) / mass
        return float(np.sum((m - mu) ** 2 * probs) / mass)


def point_distribution(m, m_max=None):
    m = _count(m, "point mass M", 0)
    m_max = m if m_max is None else _count(m_max, "m_max", 0)
    if m > m_max:
        raise InvalidParameterError(f"point mass at {m} outside 0..{m_max}")
    probs = np.zeros(m_max + 1)
    probs[m] = 1.0
    return NumberDistribution(probs)


def gaussian_distribution(mean, sigma, m_max):
    mean = _real(mean, "mean")
    sigma = _real(sigma, "sigma", 0.0, strict=True)
    m = np.arange(_count(m_max, "m_max", 0) + 1)
    # A tiny sigma overflows z**2 to inf off the mean, and exp(-inf) = 0 is
    # the right weight there: the result is the point mass.
    with np.errstate(over="ignore"):
        probs = np.exp(-0.5 * ((m - mean) / sigma) ** 2)
    total = probs.sum()
    if total <= 0:
        raise InvalidParameterError("gaussian has no mass on 0..m_max")
    return NumberDistribution(probs / total)


def two_point_distribution(m1, m2, m_max=None, weight=0.5):
    m1, m2 = _count(m1, "point mass M"), _count(m2, "point mass M")
    m_max = max(m1, m2) if m_max is None else _count(m_max, "m_max")
    for m in (m1, m2):
        if not 0 <= m <= m_max:
            raise InvalidParameterError(f"point mass at {m} outside 0..{m_max}")
    weight = _real(weight, "weight", 0.0)
    if not weight <= 1.0:
        raise InvalidParameterError(f"weight must be in [0, 1], got {weight}")
    probs = np.zeros(m_max + 1)
    probs[m1] += weight
    probs[m2] += 1.0 - weight
    return NumberDistribution(probs)


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Protocol setup.

    n0 is the working point: the ground mode and every coefficient are
    evaluated at nbar = n0, and the cycle time is pi/w'(n0).
    """

    n0: float
    coeffs: object  # CouplingCoefficients built with nbar = n0
    cycles: int
    m_max: int

    def __post_init__(self):
        object.__setattr__(self, "n0", _real(self.n0, "n0", 0.0, strict=True))
        object.__setattr__(self, "cycles", _count(self.cycles, "cycles", 1))
        object.__setattr__(self, "m_max", _count(self.m_max, "m_max", 1))
        if not abs(self.coeffs.nbar - self.n0) <= 1e-6 * max(1.0, abs(self.n0)):
            raise InvalidParameterError(
                f"coefficients were built at nbar = {self.coeffs.nbar}, "
                f"protocol working point is n0 = {self.n0}"
            )

    @property
    def cycle_time(self):
        """Half transfer period pi/w' at M = round(n0), fixed for the run."""
        law = oscillation_law(self.coeffs, max(1, round(self.n0)))
        if not law.stable:
            raise ProtocolInapplicableError(
                f"transfer law is unstable at the working point n0 = {self.n0}"
            )
        return math.pi / law.omega_prime

    def kernel(self, m):
        """Removal probabilities K(M -> M - j), j = 0..M."""
        return self.kernels([m])[0]

    def kernels(self, ms):
        """The kernels of the sectors M in ms, in the order of ms.

        The sectors run from |M, 0> in descending M through stacked
        Chebyshev recursions, whose bands are built a stack at a time
        (twomode.propagate); no per-sector Hamiltonian is made.  Each
        sector keeps its own spectral centre and a stack runs the one
        series of its widest half-width, so a kernel agrees with the one
        built alone to round-off, and the kernels depend only on ms.
        """
        ms = [_count(m, "sector M", 0) for m in ms]
        order = sorted((i for i, m in enumerate(ms) if m > 0), key=lambda i: -ms[i])
        out = [np.ones(1)] * len(ms)
        if not order:
            return out
        sectors = propagate(self.coeffs, [ms[i] for i in order], self.cycle_time)
        for i, (amp, _) in zip(order, sectors):
            probs = amp.real**2 + amp.imag**2
            # Unit-sum measurement probabilities; rescaling removes the
            # roundoff that would otherwise accumulate over many cycles.
            out[i] = probs / probs.sum()
        return out


def run_cycle(dist, cfg):
    """One measure-and-remove cycle applied to a number distribution."""
    return run_protocol(dist, replace(cfg, cycles=1)).final


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Per-cycle trajectory (index 0 is the initial state) and final state.

    retained_mass and lost_mass track the bands of _retained_and_lost(n0).
    """

    final: NumberDistribution
    means: np.ndarray
    variances: np.ndarray
    retained_mass: np.ndarray
    lost_mass: np.ndarray
    removed: np.ndarray  # mean removed during each cycle; removed[0] = 0
    cycle_time: float
    n0: float

    @property
    def cycles(self):
        return self.means.size - 1

    def summary(self):
        retained_band, _ = _retained_and_lost(self.n0)
        return {
            "cycles": int(self.cycles),
            "cycle_time": self.cycle_time,
            "final_mean": self.means[-1],
            "final_variance": self.variances[-1],
            "retained_mass": self.retained_mass[-1],
            "lost_mass": self.lost_mass[-1],
            "retained_variance": self.final.conditional_variance(*retained_band),
            "removed_total": np.cumsum(self.removed)[-1],
        }


def _tally(rows, first, kept, gone, stats):
    """Certify the cycles first, first + 1, ... held in rows and record them.

    Each row is the distribution after one cycle; cycle 0, the initial
    distribution, was certified when it was made.  Every statistic is a
    row-wise sum over the block, each row summed alone as a cycle's own
    vector would be.  stats holds the means, variances, retained and lost
    mass of every cycle.
    """
    means, variances, retained, lost = stats
    totals = rows.sum(axis=1)
    sound = (rows.min(axis=1) >= -1e-12) & (np.abs(totals - 1.0) <= 1e-9)
    for i in np.flatnonzero(~sound):
        if first + i > 0:
            _certify(rows[i], f"cycle {first + i}: probabilities")
    done = slice(first, first + rows.shape[0])
    m = np.arange(rows.shape[1])
    means[done] = np.sum(m * rows, axis=1)
    variances[done] = np.sum((m - means[done, None]) ** 2 * rows, axis=1)
    retained[done] = np.sum(rows[:, kept], axis=1)
    lost[done] = np.sum(rows[:, gone], axis=1)


def run_protocol(init, cfg):
    """Iterate p <- K @ p, certifying sign and mass once per cycle.

    The distributions go through a buffer of _BLOCK cycles, whose
    certificates and statistics are computed together (_tally); a block
    is also closed before new kernel columns are built, so the first
    failing cycle is reported before any later one runs.
    """
    if init.support_max > cfg.m_max:
        raise TruncationOverflowError(
            f"initial support reaches {init.support_max}, "
            f"exceeding the cap {cfg.m_max}"
        )
    # Column m of the lower-triangular K is the kernel of M = m, built the
    # first time M = m carries probability.  Probability only moves down,
    # so K never needs rows or columns above the initial support.
    size = init.support_max + 1
    p = init.probabilities[:size].copy()
    k = np.zeros((size, size))
    built = np.zeros(size, dtype=bool)
    complete = False
    kept, gone = (_band(lo, hi, cfg.m_max) for lo, hi in _retained_and_lost(cfg.n0))
    stats = tuple(np.empty(cfg.cycles + 1) for _ in range(4))
    rows = np.zeros((min(_BLOCK, cfg.cycles + 1), cfg.m_max + 1))
    filled = 0  # rows[:filled] holds the cycles i - filled .. i - 1
    for i in range(cfg.cycles + 1):
        if i > 0:
            if not complete:
                new = np.flatnonzero((p > 0) & ~built)
                if new.size:
                    _tally(rows[:filled], i - filled, kept, gone, stats)
                    filled = 0
                    for j, column in zip(new, cfg.kernels(new)):
                        k[j::-1, j] = column
                    built[new] = True
                    complete = bool(built.all())
            p = k @ p
        rows[filled, :size] = p
        filled += 1
        if filled == len(rows):
            _tally(rows, i + 1 - filled, kept, gone, stats)
            filled = 0
    _tally(rows[:filled], cfg.cycles + 1 - filled, kept, gone, stats)
    means, variances, retained, lost = stats
    removed = np.concatenate(([0.0], means[:-1] - means[1:]))
    final = np.zeros(cfg.m_max + 1)
    final[:size] = p
    return ProtocolResult(
        final=NumberDistribution(final),
        means=means,
        variances=variances,
        retained_mass=retained,
        lost_mass=lost,
        removed=removed,
        cycle_time=cfg.cycle_time,
        n0=cfg.n0,
    )
