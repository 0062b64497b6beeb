"""Mean-density two-mode Bogoliubov dynamics of a trapped Bose condensate."""

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

from .bdg import (  # noqa: E402
    Mode1Decomposition,
    QuasiparticleSpectrum,
    decompose_mode1,
    project_orthogonal,
    solve_bdg,
)
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
    gaussian_mode,
    gpe_residual,
    solve_gpe,
    thomas_fermi_mode,
)
from .grid import RadialField, RadialGrid, default_grid, integrate, laplacian  # noqa: E402
from .modes import CouplingCoefficients, ModeOne, build_xi1, coefficients, moment  # noqa: E402
from .params import HBAR, DimensionlessParams, PhysicalParams, to_dimensionless  # noqa: E402
from .protocol import (  # noqa: E402
    NumberDistribution,
    ProtocolConfig,
    ProtocolResult,
    gaussian_distribution,
    point_distribution,
    run_cycle,
    run_protocol,
    two_point_distribution,
)
from .twomode import (  # noqa: E402
    OscillationLaw,
    TwoModeHamiltonian,
    TwoModeState,
    build_h01,
    dominant_frequency,
    evolve_exact,
    fock_state,
    mean_n1,
    mean_n1_analytic,
    mean_n1_trace,
    oscillation_law,
)

__version__ = "0.1.0"

__all__ = [
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
    "Mode1Decomposition",
    "ModeOne",
    "NumberDistribution",
    "OscillationLaw",
    "PhysicalParams",
    "ProtocolConfig",
    "ProtocolInapplicableError",
    "ProtocolResult",
    "QuasiparticleSpectrum",
    "RadialField",
    "RadialGrid",
    "TruncationOverflowError",
    "TwoModeHamiltonian",
    "TwoModeState",
    "UnsupportedRegimeError",
    "build_h01",
    "build_xi1",
    "coefficients",
    "decompose_mode1",
    "default_grid",
    "dominant_frequency",
    "evolve_exact",
    "fock_state",
    "gaussian_distribution",
    "gaussian_mode",
    "gpe_residual",
    "integrate",
    "laplacian",
    "mean_n1",
    "mean_n1_analytic",
    "mean_n1_trace",
    "moment",
    "oscillation_law",
    "point_distribution",
    "project_orthogonal",
    "run_cycle",
    "run_protocol",
    "solve_bdg",
    "solve_gpe",
    "thomas_fermi_mode",
    "to_dimensionless",
    "two_point_distribution",
]
