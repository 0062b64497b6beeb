"""Mean-density two-mode Bogoliubov dynamics of a trapped Bose condensate."""

import importlib
import os
import sys
import warnings


def _cap_threads():
    # BOGODENSE_THREADS caps BLAS/OpenMP pools; it must be applied before
    # numpy initializes, which is why it lives at the package root.
    cap = os.environ.get("BOGODENSE_THREADS")
    if not cap:
        return
    unset = [
        var
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
        if var not in os.environ
    ]
    if unset and "numpy" in sys.modules:
        warnings.warn(
            f"BOGODENSE_THREADS={cap} cannot cap the thread pools: numpy was "
            "imported before bogodense; set the cap before launch or import "
            "bogodense first",
            RuntimeWarning,
            stacklevel=3,
        )
    for var in unset:
        os.environ[var] = cap


_cap_threads()

from .errors import (  # noqa: E402
    BogodenseError,
    ConfigError,
    ConvergenceError,
    DegenerateModeError,
    EigensolverError,
    InapplicableLawError,
    IntegratorFailureError,
    InvalidParameterError,
    ProtocolInapplicableError,
    TruncationOverflowError,
    UnsupportedRegimeError,
)
from .gpe import (  # noqa: E402
    GroundMode,
    gpe_residual,
    solve_gpe,
    thomas_fermi_mode,
)
from .grid import RadialField, RadialGrid, default_grid, integrate, laplacian  # noqa: E402
from .modes import CouplingCoefficients, ModeOne, build_xi1, coefficients, moment  # noqa: E402
from .params import HBAR, DimensionlessParams, PhysicalParams, to_dimensionless  # noqa: E402

# The mean-field names above need numpy alone.  These modules import scipy,
# so their names load on first use (PEP 562): `import bogodense`, and a
# command that stops at the mean-field stages, never pays for scipy.
_LAZY = {
    "bdg": (
        "Mode1Decomposition",
        "QuasiparticleSpectrum",
        "decompose_mode1",
        "project_orthogonal",
        "solve_bdg",
    ),
    "protocol": (
        "NumberDistribution",
        "ProtocolConfig",
        "ProtocolResult",
        "gaussian_distribution",
        "point_distribution",
        "run_cycle",
        "run_protocol",
        "two_point_distribution",
    ),
    "twomode": (
        "OscillationLaw",
        "TwoModeHamiltonian",
        "TwoModeState",
        "build_h01",
        "evolve_exact",
        "fock_state",
        "mean_n1",
        "mean_n1_analytic",
        "mean_n1_trace",
        "oscillation_law",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULE))


__version__ = "0.1.0"

__all__ = sorted(
    [
        "BogodenseError",
        "ConfigError",
        "ConvergenceError",
        "CouplingCoefficients",
        "DegenerateModeError",
        "DimensionlessParams",
        "EigensolverError",
        "GroundMode",
        "HBAR",
        "InapplicableLawError",
        "IntegratorFailureError",
        "InvalidParameterError",
        "ModeOne",
        "PhysicalParams",
        "ProtocolInapplicableError",
        "RadialField",
        "RadialGrid",
        "TruncationOverflowError",
        "UnsupportedRegimeError",
        "build_xi1",
        "coefficients",
        "default_grid",
        "gpe_residual",
        "integrate",
        "laplacian",
        "moment",
        "solve_gpe",
        "thomas_fermi_mode",
        "to_dimensionless",
    ]
    + list(_LAZY_MODULE)
)
