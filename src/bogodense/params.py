"""Physical trap/atom parameters and their dimensionless reduction.

All internal computations use trap units: lengths in the oscillator length
r0 = sqrt(hbar / (m * omega)), energies in hbar * omega, time in 1 / omega,
with omega = 2 * pi * trap_frequency (the trap frequency is an ordinary
frequency in Hz).  The interaction strength in these units is
g = 4 * pi * a_sc / r0.
"""

import importlib.machinery
import importlib.util
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass

from .errors import InvalidParameterError

# 2018 CODATA reduced Planck constant, J s.
HBAR = 1.054571817e-34


def _scipy_extension(name):
    """The compiled scipy module name (say "scipy.linalg._flapack"), loaded
    from its file without running the __init__ of scipy or its subpackage.

    It is registered under its own name, so a later `import scipy.linalg`
    reuses it; when scipy loaded it first, scipy's object is returned.
    """
    module = sys.modules.get(name)
    if module is None:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        package = name.rpartition(".")[0].split(".")[1:]
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(root, *package)])
        if spec is None:
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def _count(value, what, low=-math.inf):
    """value as an int; InvalidParameterError unless it is an integer >= low.

    Python and numpy integers, 0-d integer arrays and integral floats such
    as 3.0 pass; 2.5, nan and inf do not.  With no low any integer passes.
    """
    try:
        count = operator.index(value)
    except TypeError:
        whole = isinstance(value, numbers.Real) and float(value).is_integer()
        count = int(value) if whole else None
    if count is None or count < low:
        bound = "" if low == -math.inf else f" >= {low}"
        raise InvalidParameterError(f"{what} must be an integer{bound}, got {value!r}")
    return count


def _real(value, what, low=-math.inf, strict=False):
    """value as a float; InvalidParameterError unless it is a finite real >= low.

    With strict the value must lie above low.  Python and numpy reals
    pass; strings, None, complex numbers, arrays, nan and inf do not.
    """
    try:
        real = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int too large for a float
        real = math.inf
    if not (math.isfinite(real) and (real > low if strict else real >= low)):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise InvalidParameterError(f"{what} must be a finite real{bound}, got {value!r}")
    return real


# Each field of PhysicalParams and of DimensionlessParams, its lower bound
# and whether the bound is strict.
_BOUNDS = (
    ("mass", 0.0, True),
    ("scattering_length", 0.0, False),
    ("trap_frequency", 0.0, True),
    ("nbar", 1.0, False),
    ("n0", 0.0, True),
)
_DIMENSIONLESS_BOUNDS = (
    ("r0", 0.0, True),
    ("g", -math.inf, False),
    ("b_tf", 0.0, False),
    ("nbar", 1.0, False),
)


def _check_fields(obj, bounds):
    """Store each bounded field of the frozen obj as the float _real returns."""
    for name, low, strict in bounds:
        object.__setattr__(obj, name, _real(getattr(obj, name), name, low, strict))


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-frame inputs (SI units)."""

    mass: float  # atomic mass, kg
    scattering_length: float  # s-wave scattering length, m
    trap_frequency: float  # isotropic trap frequency, Hz
    nbar: float  # mean total atom number
    n0: float  # mean ground-mode occupation

    def __post_init__(self):
        _check_fields(self, _BOUNDS)

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
    nbar : float
        Copied mean total atom number.
    """

    r0: float
    g: float
    b_tf: float
    nbar: float

    def __post_init__(self):
        _check_fields(self, _DIMENSIONLESS_BOUNDS)


def to_dimensionless(params):
    """Reduce physical parameters to trap units.

    g scales as sqrt(omega) through r0, so doubling the trap frequency
    multiplies g by sqrt(2).
    """
    mass_omega = _real(params.mass * params.omega, "mass * omega", 0.0, strict=True)
    r0 = _real(math.sqrt(HBAR / mass_omega), "r0", 0.0, strict=True)
    g = 4.0 * math.pi * params.scattering_length / r0
    b_tf = (15.0 * params.nbar * params.scattering_length / r0) ** 0.4
    return DimensionlessParams(r0=r0, g=g, b_tf=b_tf, nbar=params.nbar)
