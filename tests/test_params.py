import math
import pickle
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bogodense import (
    HBAR,
    DimensionlessParams,
    PhysicalParams,
    ProtocolConfig,
    RadialGrid,
    build_h01,
    evolve_exact,
    fock_state,
    gaussian_distribution,
    oscillation_law,
    point_distribution,
    run_protocol,
    solve_bdg,
    solve_gpe,
    to_dimensionless,
    two_point_distribution,
)
from bogodense.errors import InvalidParameterError
from bogodense.params import _count, _real

from oracles import reference_params, synthetic_coeffs


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
    # The offsets keep 3 above each lower bound and 2.5 off the integers.
    "RadialGrid-n_points": lambda c, n: RadialGrid(8.0, n + 13).nodes,
    "solve_gpe-max_iter": lambda c, n: solve_gpe(c["dp"], c["grid"], max_iter=n + 1000).xi0.values,
}


@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS)
def test_counts_must_be_integers(case100, call):
    # 2.5 built M = 2, truncated a distribution's support, raised a bare
    # TypeError or IndexError, or reached ARPACK as a SystemError; nan
    # ended in numpy's bare ValueError or switched off a step budget.
    for bad in (2.5, math.nan):
        with pytest.raises(InvalidParameterError, match="integer"):
            call(case100, bad)
    # numpy integers give the bytes of the Python integer.
    assert np.array_equal(call(case100, np.int64(3)), call(case100, 3))


def test_non_numbers_refused_before_range_checks():
    # Each compared its argument with an integer first and raised a bare
    # TypeError.
    for call in (lambda: fock_state(3, "1"), lambda: fock_state(3, None),
                 lambda: two_point_distribution("80", 120)):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call()
    # Integer inputs keep their range messages.
    with pytest.raises(InvalidParameterError, match="n1 = -1 outside 0..3"):
        fock_state(3, -1)
    with pytest.raises(InvalidParameterError, match="point mass at 1 outside 0..-1"):
        two_point_distribution(1, 2, m_max=-1)


_BASE = dict(mass=1.44e-25, scattering_length=1.0e-8, trap_frequency=1000.0, nbar=1.0e4, n0=1.0e4)
_BELOW_ZERO = float(np.nextafter(0.0, -1.0))


def _physical(name):
    return lambda c, x: astuple(PhysicalParams(**dict(_BASE, **{name: x})))


# Each entry point that takes a real, as (call with that argument set to x,
# a valid x, a value just past its lower bound or None when unbounded).
# Each call returns the part of its result that depends on x.  A bounded
# argument is also tried at minus its valid value.  A key names the
# argument, after its class when the name alone is taken.
REALS = {
    "mass": (_physical("mass"), 1.44e-25, 0.0),
    "scattering_length": (_physical("scattering_length"), 1.0e-8, _BELOW_ZERO),
    "trap_frequency": (_physical("trap_frequency"), 1000.0, 0.0),
    "nbar": (_physical("nbar"), 1.0e4, float(np.nextafter(1.0, 0.0))),
    "n0": (_physical("n0"), 1.0e4, 0.0),
    "r0": (lambda c, x: astuple(DimensionlessParams(x, 0.1, 1.0, 100.0)), 3e-7, 0.0),
    "g": (lambda c, x: astuple(DimensionlessParams(3e-7, x, 1.0, 100.0)), 0.1, None),
    # nbar = -5 gave a ground mode at mu = 1.467 in the attractive regime.
    "DimensionlessParams-b_tf": (
        lambda c, x: astuple(DimensionlessParams(3e-7, 0.1, x, 100.0)), 1.0, _BELOW_ZERO),
    "DimensionlessParams-nbar": (
        lambda c, x: astuple(DimensionlessParams(3e-7, 0.1, 1.0, x)), 100.0,
        float(np.nextafter(1.0, 0.0))),
    # "100" ended in a bare TypeError, nan in a message about the working point.
    "ProtocolConfig-n0": (
        lambda c, x: (ProtocolConfig(n0=x, coeffs=c["coeffs"], cycles=1, m_max=10).n0,),
        100.0, 0.0),
    "r_max": (lambda c, x: RadialGrid(x, 32).nodes, 8.0, 0.0),
    "tol": (lambda c, x: solve_gpe(c["dp"], c["grid"], tol=x).xi0.values, 1e-8, 0.0),
    "mean": (lambda c, x: gaussian_distribution(x, 2.0, 20).probabilities, 10.0, None),
    "sigma": (lambda c, x: gaussian_distribution(10.0, x, 20).probabilities, 2.0, 0.0),
    "weight": (lambda c, x: two_point_distribution(1, 2, weight=x).probabilities, 0.25,
               _BELOW_ZERO),
    "t": (lambda c, x: evolve_exact(build_h01(synthetic_coeffs(gamma=0.3, g01=0.2), 8),
                                    fock_state(8), x).amplitudes, 0.5, None),
}


@pytest.mark.parametrize("name", REALS)
def test_reals_must_be_finite(case100, name):
    # A string or None ended in a bare TypeError, an array in a bare
    # ValueError; sigma = inf gave the uniform distribution, and a nan
    # tol skipped the solve.
    call, good, past = REALS[name]
    what = name.rsplit("-", 1)[-1]
    bad = [math.nan, math.inf, -math.inf, str(good), None, complex(good), np.array([good, good])]
    for x in bad + ([] if past is None else [past, -good]):
        with pytest.raises(InvalidParameterError, match=f"^{what} must be a finite real"):
            call(case100, x)
    # numpy floats give the bytes of the Python float.
    assert pickle.dumps(call(case100, np.float64(good))) == pickle.dumps(call(case100, good))


# Anything a caller might pass: Python and numpy numbers of every kind,
# nan and inf among them, and things that are not real numbers at all.
_ANY = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
    st.none(),
    st.complex_numbers(),
    hnp.arrays(st.sampled_from([np.float64, np.int64]),
               hnp.array_shapes(min_dims=0, max_dims=2, max_side=2)),
)
_FLOATS = (float, np.floating)
_INTEGERS = (bool, int, np.integer)


@given(value=_ANY, low=st.one_of(st.just(-math.inf), st.floats(allow_nan=False)),
       strict=st.booleans())
# Ints beyond the float range, which float() refuses with OverflowError.
@example(value=10**400, low=-math.inf, strict=False)
@example(value=-(10**400), low=-math.inf, strict=False)
def test_real_returns_the_float_or_refuses(value, low, strict):
    want = None
    if isinstance(value, _FLOATS + _INTEGERS):
        # Only a Python int can lie beyond the float range.
        x = math.inf if isinstance(value, int) and abs(value) >= 2**1024 else float(value)
        if math.isfinite(x) and (x > low if strict else x >= low):
            want = x
    if want is None:
        with pytest.raises(InvalidParameterError, match="^x must be a finite real"):
            _real(value, "x", low, strict)
    else:
        got = _real(value, "x", low, strict)
        assert type(got) is float and got.hex() == want.hex()


@given(value=_ANY, low=st.one_of(st.just(-math.inf), st.integers(-3, 3)))
def test_count_returns_the_integer_or_refuses(value, low):
    want = None
    if isinstance(value, _INTEGERS) or (
        isinstance(value, np.ndarray) and value.ndim == 0 and value.dtype.kind == "i"
    ):
        want = int(value)
    elif isinstance(value, _FLOATS) and float(value).is_integer():
        want = int(value)
    if want is None or want < low:
        with pytest.raises(InvalidParameterError, match="^x must be an integer"):
            _count(value, "x", low)
    else:
        got = _count(value, "x", low)
        assert type(got) is int and got == want
