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
from .twomode import build_h01, evolve_exact, fock_state, oscillation_law


@dataclass(frozen=True, eq=False)
class NumberDistribution:
    """Distribution over total atom number M = 0..len-1."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise InvalidParameterError("probabilities must be a 1-d array")
        if np.min(probs) < -1e-12:
            raise InvalidParameterError("probabilities must be non-negative")
        total = float(np.sum(probs))
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(f"probabilities sum to {total!r}, expected 1")
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

    def mass_in(self, lo, hi):
        """Probability of lo <= M <= hi."""
        lo = max(0, int(math.ceil(lo)))
        hi = min(self.m_max, int(math.floor(hi)))
        if hi < lo:
            return 0.0
        return float(np.sum(self.probabilities[lo : hi + 1]))

    def conditional_variance(self, lo, hi):
        """Variance of M restricted to the band [lo, hi]; nan for empty mass."""
        lo = max(0, int(math.ceil(lo)))
        hi = min(self.m_max, int(math.floor(hi)))
        if hi < lo:
            return float("nan")
        probs = self.probabilities[lo : hi + 1]
        mass = probs.sum()
        if mass <= 0:
            return float("nan")
        m = np.arange(lo, hi + 1)
        mu = np.sum(m * probs) / mass
        return float(np.sum((m - mu) ** 2 * probs) / mass)


def point_distribution(m, m_max=None):
    m = int(m)
    if m_max is None:
        m_max = m
    if m < 0 or m > m_max:
        raise InvalidParameterError(f"point mass at {m} outside 0..{m_max}")
    probs = np.zeros(int(m_max) + 1)
    probs[m] = 1.0
    return NumberDistribution(probs)


def gaussian_distribution(mean, sigma, m_max):
    if sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    m = np.arange(int(m_max) + 1)
    probs = np.exp(-0.5 * ((m - mean) / sigma) ** 2)
    total = probs.sum()
    if total <= 0:
        raise InvalidParameterError("gaussian has no mass on 0..m_max")
    return NumberDistribution(probs / total)


def two_point_distribution(m1, m2, m_max=None, weight=0.5):
    m1, m2 = int(m1), int(m2)
    if m_max is None:
        m_max = max(m1, m2)
    for m in (m1, m2):
        if not 0 <= m <= m_max:
            raise InvalidParameterError(f"point mass at {m} outside 0..{m_max}")
    if not 0.0 <= weight <= 1.0:
        raise InvalidParameterError(f"weight must be in [0, 1], got {weight}")
    probs = np.zeros(int(m_max) + 1)
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
        if self.cycles < 1:
            raise InvalidParameterError(f"cycles must be >= 1, got {self.cycles}")
        if self.m_max < 1:
            raise InvalidParameterError(f"m_max must be >= 1, got {self.m_max}")
        if abs(self.coeffs.nbar - self.n0) > 1e-6 * max(1.0, abs(self.n0)):
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
        if m == 0:
            return np.ones(1)
        h = build_h01(self.coeffs, m)
        evolved = evolve_exact(h, fock_state(m, 0), self.cycle_time)
        probs = np.abs(evolved.amplitudes) ** 2
        # Unit-sum measurement probabilities; rescaling removes the
        # roundoff that would otherwise accumulate over many cycles.
        return probs / probs.sum()


def run_cycle(dist, cfg):
    """One measure-and-remove cycle applied to a number distribution."""
    return run_protocol(dist, replace(cfg, cycles=1)).final


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Per-cycle trajectory (index 0 is the initial state) and final state.

    retained_mass tracks the band [0.9 n0, 1.1 n0]; lost_mass tracks
    M < 0.1 n0.
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
        band_lo, band_hi = 0.9 * self.n0, 1.1 * self.n0
        return {
            "cycles": int(self.cycles),
            "cycle_time": self.cycle_time,
            "final_mean": self.means[-1],
            "final_variance": self.variances[-1],
            "retained_mass": self.final.mass_in(band_lo, band_hi),
            "lost_mass": self.final.mass_in(0, 0.1 * self.n0 - 1e-12),
            "retained_variance": self.final.conditional_variance(band_lo, band_hi),
            "removed_total": np.cumsum(self.removed)[-1],
        }


def run_protocol(init, cfg):
    """Iterate the removal cycle as K @ p, tracking the trajectory statistics."""
    if init.support_max > cfg.m_max:
        raise TruncationOverflowError(
            f"initial support reaches {init.support_max}, "
            f"exceeding the cap {cfg.m_max}"
        )
    probs = np.zeros(cfg.m_max + 1)
    src = init.probabilities[: cfg.m_max + 1]
    probs[: src.size] = src
    dist = NumberDistribution(probs)
    # Column m of the lower-triangular K is the kernel of M = m, built the
    # first time M = m carries probability.  Probability only moves down,
    # so K never needs rows or columns above the initial support.
    size = dist.support_max + 1
    k = np.zeros((size, size))
    built = np.zeros(size, dtype=bool)
    band_lo, band_hi = 0.9 * cfg.n0, 1.1 * cfg.n0
    n = cfg.cycles + 1
    means = np.empty(n)
    variances = np.empty(n)
    retained = np.empty(n)
    lost = np.empty(n)
    removed = np.zeros(n)
    for i in range(n):
        if i > 0:
            p = dist.probabilities[:size]
            for m in np.flatnonzero((p > 0) & ~built):
                k[m::-1, m] = cfg.kernel(int(m))
                built[m] = True
            out = np.zeros(cfg.m_max + 1)
            out[:size] = k @ p
            dist = NumberDistribution(out)
            removed[i] = means[i - 1] - dist.mean()
        means[i] = dist.mean()
        variances[i] = dist.variance()
        retained[i] = dist.mass_in(band_lo, band_hi)
        lost[i] = dist.mass_in(0, 0.1 * cfg.n0 - 1e-12)
    return ProtocolResult(
        final=dist,
        means=means,
        variances=variances,
        retained_mass=retained,
        lost_mass=lost,
        removed=removed,
        cycle_time=cfg.cycle_time,
        n0=cfg.n0,
    )
