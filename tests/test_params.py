import math

import numpy as np
import pytest

from bogodense import (
    HBAR,
    PhysicalParams,
    ProtocolConfig,
    build_h01,
    fock_state,
    gaussian_distribution,
    oscillation_law,
    point_distribution,
    run_protocol,
    solve_bdg,
    to_dimensionless,
    two_point_distribution,
)
from bogodense.errors import InvalidParameterError

from oracles import reference_params


def test_hbar_is_codata_2018():
    assert HBAR == 1.054571817e-34


def test_reference_trap_scales():
    # r0 = sqrt(hbar / (m * 2*pi*nu)) for the rubidium reference trap.
    dp = to_dimensionless(reference_params(1.0e5))
    r0 = math.sqrt(HBAR / (1.44e-25 * 2.0 * math.pi * 1000.0))
    assert dp.r0 == pytest.approx(r0, rel=1e-12)
    assert dp.r0 == pytest.approx(3.414e-7, rel=1e-3)
    assert 1.0e-8 / dp.r0 == pytest.approx(0.0293, rel=2e-3)
    assert dp.g == pytest.approx(4.0 * math.pi * 1.0e-8 / r0, rel=1e-12)
    assert dp.g == pytest.approx(0.368, rel=2e-3)


def test_b_tf_value_and_zero_interaction():
    dp = to_dimensionless(reference_params(1.0e5))
    assert dp.b_tf == pytest.approx((15.0 * 1.0e5 * 1.0e-8 / dp.r0) ** 0.4, rel=1e-12)
    assert dp.b_tf == pytest.approx(72.0, rel=2e-3)

    free = to_dimensionless(reference_params(1.0e5, a_sc=0.0))
    assert free.g == 0.0
    assert free.b_tf == 0.0


def test_omega_is_angular():
    p = reference_params(10.0)
    assert p.omega == pytest.approx(2.0 * math.pi * 1000.0)


def test_frequency_scaling():
    # r0 ~ omega^(-1/2), so g = 4*pi*a/r0 grows as sqrt(omega).
    p1 = reference_params(100.0)
    p2 = PhysicalParams(
        mass=p1.mass,
        scattering_length=p1.scattering_length,
        trap_frequency=2.0 * p1.trap_frequency,
        nbar=p1.nbar,
        n0=p1.n0,
    )
    d1, d2 = to_dimensionless(p1), to_dimensionless(p2)
    assert d2.r0 == pytest.approx(d1.r0 / math.sqrt(2.0), rel=1e-12)
    assert d2.g == pytest.approx(d1.g * math.sqrt(2.0), rel=1e-12)


def test_b_tf_monotone():
    base = to_dimensionless(reference_params(1.0e4)).b_tf
    assert to_dimensionless(reference_params(2.0e4)).b_tf > base
    assert to_dimensionless(reference_params(1.0e4, a_sc=2.0e-8)).b_tf > base


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mass": 0.0},
        {"mass": -1.0e-25},
        {"mass": float("nan")},
        {"scattering_length": -1.0e-9},
        {"trap_frequency": 0.0},
        {"trap_frequency": float("inf")},
        {"nbar": 0.5},
        {"n0": 0.0},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    base = dict(
        mass=1.44e-25,
        scattering_length=1.0e-8,
        trap_frequency=1000.0,
        nbar=1.0e4,
        n0=1.0e4,
    )
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        PhysicalParams(**base)


@pytest.mark.parametrize(
    "mass, trap_frequency",
    [
        (1.44e-25, 1.0e-300),  # mass * omega underflows to 0
        (1.0e300, 1.0e300),  # mass * omega overflows, so r0 = 0
    ],
)
def test_unrepresentable_oscillator_length_rejected(mass, trap_frequency):
    params = PhysicalParams(
        mass=mass,
        scattering_length=1.0e-8,
        trap_frequency=trap_frequency,
        nbar=1.0e4,
        n0=1.0e4,
    )
    with pytest.raises(InvalidParameterError):
        to_dimensionless(params)


def _protocol(case, cycles=2, m_max=3):
    return ProtocolConfig(n0=100.0, coeffs=case["coeffs"], cycles=cycles, m_max=m_max)


# Each entry point that takes an atom number or a count, called with that
# argument set to n, and the part of its result that depends on n.
COUNTS = {
    "build_h01": lambda c, n: build_h01(c["coeffs"], n).diag,
    "oscillation_law": lambda c, n: oscillation_law(c["coeffs"], n).omega_prime,
    "fock_state": lambda c, n: fock_state(n).amplitudes,
    "fock_state-n1": lambda c, n: fock_state(3, n).amplitudes,
    "point_distribution": lambda c, n: point_distribution(n).probabilities,
    "point_distribution-m_max": lambda c, n: point_distribution(2, n).probabilities,
    "two_point_distribution": lambda c, n: two_point_distribution(n, 4).probabilities,
    "two_point_distribution-m_max": lambda c, n: two_point_distribution(1, 2, n).probabilities,
    "gaussian_distribution": lambda c, n: gaussian_distribution(1.0, 1.0, n).probabilities,
    "ProtocolConfig-cycles": lambda c, n: run_protocol(
        point_distribution(3), _protocol(c, cycles=n)
    ).means,
    "ProtocolConfig-m_max": lambda c, n: run_protocol(
        point_distribution(3), _protocol(c, m_max=n)
    ).means,
    "ProtocolConfig.kernels": lambda c, n: _protocol(c).kernels([n])[0],
    "solve_bdg": lambda c, n: solve_bdg(c["gm"], c["dp"], num_modes=n).frequencies,
}


@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS)
def test_counts_must_be_integers(case100, call):
    # 2.5 built M = 2, truncated a distribution's support, raised a bare
    # TypeError or IndexError, or reached ARPACK as a SystemError.
    with pytest.raises(InvalidParameterError, match="integer"):
        call(case100, 2.5)
    # numpy integers give the bytes of the Python integer.
    assert np.array_equal(call(case100, np.int64(3)), call(case100, 3))
