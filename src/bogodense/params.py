"""Physical trap/atom parameters and their dimensionless reduction.

All internal computations use trap units: lengths in the oscillator length
r0 = sqrt(hbar / (m * omega)), energies in hbar * omega, time in 1 / omega,
with omega = 2 * pi * trap_frequency (the trap frequency is an ordinary
frequency in Hz).  The interaction strength in these units is
g = 4 * pi * a_sc / r0.
"""

import math
import numbers
import operator
from dataclasses import dataclass

from .errors import InvalidParameterError

# 2018 CODATA reduced Planck constant, J s.
HBAR = 1.054571817e-34
# Largest total atom number M whose dense two-mode eigensystem is formed:
# the eigenvector matrix holds (M + 1)^2 floats, 128 MB here.  Above it
# twomode.mean_n1_trace steps the propagator, and the CLI refuses an exact
# dynamics trace.  It lives in this scipy-free module so that the CLI's
# --help need not import twomode.
_EIG_LIMIT = 4000


def _count(value, what, low):
    """value as an int; InvalidParameterError unless it is an integer >= low.

    Python and numpy integers pass, and so do integral floats such as 3.0;
    2.5, nan and inf do not.  The two-mode and protocol entry points and
    solve_bdg check their atom numbers and counts with it.
    """
    try:
        count = operator.index(value)
    except TypeError:
        whole = isinstance(value, numbers.Real) and float(value).is_integer()
        count = int(value) if whole else None
    if count is None or count < low:
        raise InvalidParameterError(f"{what} must be an integer >= {low}, got {value!r}")
    return count


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-frame inputs (SI units)."""

    mass: float  # atomic mass, kg
    scattering_length: float  # s-wave scattering length, m
    trap_frequency: float  # isotropic trap frequency, Hz
    nbar: float  # mean total atom number
    n0: float  # mean ground-mode occupation

    def __post_init__(self):
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise InvalidParameterError(f"mass must be positive, got {self.mass}")
        if not (self.scattering_length >= 0 and math.isfinite(self.scattering_length)):
            raise InvalidParameterError(
                f"scattering length must be >= 0, got {self.scattering_length}"
            )
        if not (self.trap_frequency > 0 and math.isfinite(self.trap_frequency)):
            raise InvalidParameterError(
                f"trap frequency must be positive, got {self.trap_frequency}"
            )
        if not (self.nbar >= 1 and math.isfinite(self.nbar)):
            raise InvalidParameterError(f"nbar must be >= 1, got {self.nbar}")
        if not (self.n0 > 0 and math.isfinite(self.n0)):
            raise InvalidParameterError(f"n0 must be positive, got {self.n0}")

    @property
    def omega(self):
        """Angular trap frequency, rad/s."""
        return 2.0 * math.pi * self.trap_frequency


@dataclass(frozen=True)
class DimensionlessParams:
    """Trap-unit parameters derived from :class:`PhysicalParams`.

    Attributes
    ----------
    r0 : float
        Oscillator length in metres (retained for SI conversion).
    g : float
        Interaction strength 4*pi*a_sc/r0 in units of hbar*omega*r0^3.
    b_tf : float
        Thomas-Fermi parameter (15*nbar*a_sc/r0)^(2/5); the TF chemical
        potential is b_tf/2.
    nbar, n0 : float
        Copied occupation numbers.
    """

    r0: float
    g: float
    b_tf: float
    nbar: float
    n0: float

    def __post_init__(self):
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise InvalidParameterError(f"r0 must be positive, got {self.r0}")
        if not math.isfinite(self.g):
            raise InvalidParameterError(f"g must be finite, got {self.g}")


def to_dimensionless(params):
    """Reduce physical parameters to trap units.

    g scales as sqrt(omega) through r0, so doubling the trap frequency
    multiplies g by sqrt(2).
    """
    mass_omega = params.mass * params.omega
    if not (mass_omega > 0 and math.isfinite(mass_omega)):
        raise InvalidParameterError(
            f"mass * omega = {mass_omega} is not a finite positive number"
        )
    r0 = math.sqrt(HBAR / mass_omega)
    if not (r0 > 0 and math.isfinite(r0)):
        raise InvalidParameterError(f"r0 = {r0} is not a finite positive number")
    g = 4.0 * math.pi * params.scattering_length / r0
    b_tf = (15.0 * params.nbar * params.scattering_length / r0) ** 0.4
    return DimensionlessParams(
        r0=r0, g=g, b_tf=b_tf, nbar=params.nbar, n0=params.n0
    )
