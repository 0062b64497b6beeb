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

# Every public name, under its home module.  Each loads on first use (PEP
# 562), so `import bogodense` loads neither numpy nor scipy, and a name
# costs only its own module's imports: no module imports a scipy package,
# only scipy's compiled LAPACK and DIA extensions.
_NAMES = {
    "bdg": (
        "Mode1Decomposition", "QuasiparticleSpectrum", "decompose_mode1",
        "project_orthogonal", "solve_bdg",
    ),
    "errors": (
        "BogodenseError", "ConfigError", "ConvergenceError", "DegenerateModeError",
        "EigensolverError", "InapplicableLawError", "IntegratorFailureError",
        "InvalidParameterError", "ProtocolInapplicableError",
        "TruncationOverflowError", "UnsupportedRegimeError",
    ),
    "gpe": ("GroundMode", "solve_gpe", "thomas_fermi_mode"),
    "grid": ("RadialField", "RadialGrid", "default_grid", "integrate", "laplacian"),
    "modes": ("CouplingCoefficients", "ModeOne", "build_xi1", "coefficients", "moment"),
    "params": ("HBAR", "DimensionlessParams", "PhysicalParams", "to_dimensionless"),
    "protocol": (
        "NumberDistribution", "ProtocolConfig", "ProtocolResult",
        "gaussian_distribution", "point_distribution", "run_cycle", "run_protocol",
        "two_point_distribution",
    ),
    "twomode": (
        "OscillationLaw", "TwoModeHamiltonian", "TwoModeState", "build_h01",
        "evolve_exact", "fock_state", "mean_n1", "mean_n1_analytic", "mean_n1_trace",
        "oscillation_law",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
