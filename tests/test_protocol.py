"""Cyclic depletion protocol tests: distributions, kernels, trajectories."""

import hashlib
import math
import re
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bogodense.protocol as protocol
import bogodense.twomode as twomode
from bogodense import (
    CouplingCoefficients,
    InvalidParameterError,
    NumberDistribution,
    ProtocolConfig,
    ProtocolInapplicableError,
    TruncationOverflowError,
    gaussian_distribution,
    oscillation_law,
    point_distribution,
    run_cycle,
    run_protocol,
    two_point_distribution,
)

from oracles import synthetic_coeffs


@pytest.fixture(scope="module")
def cfg100(case100):
    return ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=10, m_max=115)


# ---------------------------------------------------------------- distributions


def test_point_distribution():
    d = point_distribution(7)
    assert d.m_max == 7
    assert d.support_max == 7
    assert d.mean() == 7.0
    assert d.variance() == 0.0
    padded = point_distribution(7, m_max=20)
    assert padded.m_max == 20
    assert padded.support_max == 7


def test_gaussian_distribution_moments():
    d = gaussian_distribution(60.0, 5.0, m_max=120)
    assert d.mean() == pytest.approx(60.0, abs=1e-6)
    assert d.variance() == pytest.approx(25.0, rel=1e-3)
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_tiny_gaussian_is_the_point_mass_without_warnings():
    # At sigma = 1e-300 the square of (m - mean)/sigma overflowed with a
    # RuntimeWarning; every weight but the mean's is 0 all the same.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = gaussian_distribution(100.0, 1e-300, 130)
    assert np.array_equal(d.probabilities, point_distribution(100, m_max=130).probabilities)


def test_two_point_distribution():
    d = two_point_distribution(80, 120, weight=0.25)
    assert d.m_max == 120
    assert d.probabilities[80] == 0.25
    assert d.probabilities[120] == 0.75
    assert d.mean() == pytest.approx(0.25 * 80 + 0.75 * 120)


def test_distribution_band_statistics():
    d = two_point_distribution(80, 120, m_max=150)
    assert np.sum(d.probabilities[70:91]) == pytest.approx(0.5)
    assert np.sum(d.probabilities[0:151]) == pytest.approx(1.0)
    assert np.sum(d.probabilities[121:151]) == 0.0
    assert d.conditional_variance(70, 90) == pytest.approx(0.0)
    assert math.isnan(d.conditional_variance(121, 150))
    # Both points inside one band: plain variance of the restriction.
    assert d.conditional_variance(0, 150) == pytest.approx(d.variance())


def test_distribution_validation():
    with pytest.raises(InvalidParameterError):
        NumberDistribution(np.array([0.5, 0.4]))  # does not sum to one
    with pytest.raises(InvalidParameterError):
        NumberDistribution(np.array([1.5, -0.5]))
    with pytest.raises(InvalidParameterError):
        NumberDistribution(np.ones((2, 2)) / 4.0)
    with pytest.raises(InvalidParameterError):
        point_distribution(25, m_max=20)
    with pytest.raises(InvalidParameterError):
        gaussian_distribution(50.0, -1.0, m_max=100)
    with pytest.raises(InvalidParameterError):
        gaussian_distribution(-500.0, 0.1, m_max=10)  # no mass on the lattice
    with pytest.raises(InvalidParameterError):
        two_point_distribution(10, 20, weight=1.5)
    # Both atom numbers must index the support 0..m_max.
    with pytest.raises(InvalidParameterError, match="120 outside 0..100"):
        two_point_distribution(80, 120, m_max=100)
    with pytest.raises(InvalidParameterError, match="-5 outside 0..120"):
        two_point_distribution(-5, 120)
    # NaN fails the certificate instead of slipping through it.
    with pytest.raises(InvalidParameterError):
        NumberDistribution(np.array([np.nan, 1.0]))
    with pytest.raises(InvalidParameterError):
        gaussian_distribution(np.nan, 1.0, m_max=10)  # all-NaN probabilities


# ---------------------------------------------------------------- configuration


def test_config_validation(case100):
    co = case100["coeffs"]
    with pytest.raises(InvalidParameterError):
        ProtocolConfig(n0=100.0, coeffs=co, cycles=0, m_max=115)
    with pytest.raises(InvalidParameterError):
        ProtocolConfig(n0=100.0, coeffs=co, cycles=5, m_max=0)
    # Coefficients must be evaluated at the working point.
    with pytest.raises(InvalidParameterError):
        ProtocolConfig(n0=90.0, coeffs=co, cycles=5, m_max=115)


def test_cycle_lasts_half_a_transfer_period(cfg100, case100):
    law = oscillation_law(case100["coeffs"], 100)
    assert cfg100.cycle_time == pytest.approx(math.pi / law.omega_prime, rel=1e-12)


def test_unstable_working_point_rejected():
    bad = synthetic_coeffs(
        gamma=0.01, mu=1.5, mu1=1.5, g01=0.005, alpha2=0.0, nbar=100.0
    )
    assert not oscillation_law(bad, 100).stable
    cfg = ProtocolConfig(n0=100.0, coeffs=bad, cycles=1, m_max=110)
    with pytest.raises(ProtocolInapplicableError):
        cfg.cycle_time


def test_kernel_rows_are_probabilities(cfg100):
    assert np.array_equal(cfg100.kernel(0), np.ones(1))
    for m in (1, 5, 40):
        k = cfg100.kernel(m)
        assert k.shape == (m + 1,)
        assert np.all(k >= 0)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)


def test_kernels_of_invalid_sectors_rejected(cfg100):
    # M = -3 gave the empty sector's kernel [1.] and M = 2.7 built M = 2.
    for bad in (-3, 2.7, -0.5, math.nan):
        with pytest.raises(InvalidParameterError, match="integer"):
            cfg100.kernels([4, bad])
    with pytest.raises(InvalidParameterError):
        cfg100.kernel(-3)
    # The numpy integers run_protocol passes, and integral floats, stay valid.
    ms = np.array([3, 0], dtype=np.int64)
    for m, column in zip(ms, cfg100.kernels(ms)):
        assert np.array_equal(column, cfg100.kernel(int(m)))
    assert np.array_equal(cfg100.kernel(3.0), cfg100.kernel(3))


def _dense_kernel(cfg, m):
    """K(M -> M - j) from a dense eigendecomposition of H_M."""
    if m == 0:
        return np.ones(1)
    w, v = np.linalg.eigh(twomode.build_h01(cfg.coeffs, m).to_dense())
    amp = v @ (np.exp(-1j * w * cfg.cycle_time) * v[0])
    return np.abs(amp) ** 2


def test_batched_kernels_match_dense_kernels(cfg100, monkeypatch):
    # Any order in, the same order out, and each column is the kernel of
    # that sector.  A stack shares its widest half-width, so a kernel
    # moves with its stack-mates by round-off, and the reference is a
    # dense eigendecomposition rather than the kernel built alone.
    ms = [2, 115, 0, 1, 57]
    for m, column in zip(ms, cfg100.kernels(ms)):
        assert np.max(np.abs(column - _dense_kernel(cfg100, m))) < 1e-12
    # A small stack limit splits 0..40 over many stacked recursions, so
    # most sectors sit at the first or last place of a stack.
    stacks = []
    propagate_block = twomode._propagate_block

    def recorded(dia, ends, s, t):
        stacks.append((np.diff(ends, prepend=0) - 1).tolist())
        return propagate_block(dia, ends, s, t)

    monkeypatch.setattr(twomode, "_propagate_block", recorded)
    monkeypatch.setattr(twomode, "_STACK_LIMIT", 100)
    batched = cfg100.kernels(range(41))
    assert stacks[0] == [40, 39] and stacks[-1] == [5, 4, 3, 2, 1]
    for m, column in enumerate(batched):
        assert np.max(np.abs(column - _dense_kernel(cfg100, m))) < 1e-12


def test_one_bessel_series_per_stack(cfg100, monkeypatch):
    # Every sector of a stack runs the one series of the stack's widest
    # half-width, so the Bessel coefficients are computed once per stack.
    stacks, series = [], []
    propagate_block, bessel_series = twomode._propagate_block, twomode._bessel_series

    def recorded_block(dia, ends, s, t):
        stacks.append(len(ends))
        return propagate_block(dia, ends, s, t)

    def recorded_series(z):
        series.append(z)
        return bessel_series(z)

    monkeypatch.setattr(twomode, "_propagate_block", recorded_block)
    monkeypatch.setattr(twomode, "_bessel_series", recorded_series)
    monkeypatch.setattr(twomode, "_STACK_LIMIT", 100)
    cfg100.kernels(range(41))
    assert sum(stacks) == 40 and len(stacks) > 1
    assert len(series) == len(stacks)


def test_kernels_build_no_hamiltonian(cfg100, monkeypatch):
    # The kernels propagate stacks of bands built from the formula; no
    # per-sector TwoModeHamiltonian is made and checked.
    made = []
    post_init = twomode.TwoModeHamiltonian.__post_init__

    def counted(h):
        made.append(h.m_total)
        post_init(h)

    monkeypatch.setattr(twomode.TwoModeHamiltonian, "__post_init__", counted)
    cfg100.kernels(range(41))
    assert made == []
    twomode.build_h01(cfg100.coeffs, 3)
    assert made == [3]


def test_kernel_bytes_pinned():
    # The kernels of M = 1..130 at the n0 = 100 reference-trap coefficients
    # (oracles.solve_case(100), pinned to full precision), hashed in order.
    # The digest is the same at 1 and at 2 BLAS threads.  A change that
    # moves a kernel bit on purpose records the new digest here and says
    # why in CHANGES.md.
    co = CouplingCoefficients(
        alpha2=0.027172004239325465,
        alpha3=0.0010141606522465969,
        alpha4=4.3238655250103276e-05,
        beta=60.21007163509057,
        gamma=0.010924178773659874,
        mu1=4.447772889808319,
        mu=2.706465773975744,
        g01=0.006113273414595271,
        nbar=100.0,
    )
    cfg = ProtocolConfig(n0=100.0, coeffs=co, cycles=1, m_max=130)
    digest = hashlib.sha256()
    for k in cfg.kernels(range(1, 131)):
        digest.update(k.tobytes())
    assert digest.hexdigest() == (
        "6d87c20a72374a8af6e39dd7e8656d00f11a91c93a956b849cb1e925f29460f5"
    )


# ---------------------------------------------------------------- single cycles


def test_cycle_conserves_probability(cfg100):
    d = run_cycle(gaussian_distribution(90.0, 6.0, m_max=115), cfg100)
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_cycle_is_linear_in_the_distribution(cfg100):
    d1 = point_distribution(90, m_max=115)
    d2 = point_distribution(110, m_max=115)
    mix = two_point_distribution(90, 110, m_max=115, weight=0.3)
    expect = 0.3 * run_cycle(d1, cfg100).probabilities
    expect = expect + 0.7 * run_cycle(d2, cfg100).probabilities
    got = run_cycle(mix, cfg100).probabilities
    assert np.max(np.abs(got - expect)) < 1e-12


def test_cycle_removal_matches_transfer_law(cfg100, case100):
    # A point distribution modestly below the working point sheds close to
    # the analytic one-cycle transfer 4*c2 evaluated at that occupation.
    for m in (90, 80):
        law = oscillation_law(case100["coeffs"], m)
        d = run_cycle(point_distribution(m, m_max=115), cfg100)
        removal = m - d.mean()
        assert removal == pytest.approx(4.0 * law.c2, rel=0.5)


def test_transfer_accelerates_below_working_point(case100):
    co = case100["coeffs"]
    vals = [4.0 * oscillation_law(co, m).c2 for m in (99, 95, 90, 80, 70, 60)]
    assert np.all(np.diff(vals) > 0)
    assert vals[0] < 1e-2


def test_cycle_rejects_overflowing_support(cfg100):
    with pytest.raises(TruncationOverflowError):
        run_cycle(point_distribution(120, m_max=130), cfg100)


# ---------------------------------------------------------------- full protocol


def test_fixed_point_is_nearly_stationary(case100):
    # Right at the working point the transfer is quenched: ten cycles leak
    # well under one particle in the mean.
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=10, m_max=115)
    res = run_protocol(point_distribution(100, m_max=115), cfg)
    assert res.means[0] == 100.0
    assert 100.0 - res.means[-1] < 1.0
    assert np.all(res.removed[1:] < 0.01)


def test_long_run_conservation_and_monotonicity(case100):
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=200, m_max=115)
    res = run_protocol(two_point_distribution(85, 110, m_max=115), cfg)
    assert abs(res.final.probabilities.sum() - 1.0) < 1e-9
    assert np.all(np.diff(res.means) <= 1e-9)
    assert res.summary()["removed_total"] == pytest.approx(
        res.means[0] - res.means[-1], abs=1e-9
    )
    # The branch below the working point drains, the branch at/above stays.
    assert res.retained_mass[-1] == pytest.approx(0.5, abs=0.05)
    assert res.lost_mass[-1] == pytest.approx(0.5, abs=0.05)


def test_trajectory_shapes_and_summary(case100):
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=5, m_max=115)
    res = run_protocol(point_distribution(92, m_max=115), cfg)
    assert res.cycles == 5
    for arr in (res.means, res.variances, res.retained_mass, res.lost_mass, res.removed):
        assert arr.shape == (6,)
    assert res.removed[0] == 0.0
    s = res.summary()
    assert set(s) == {
        "cycles",
        "cycle_time",
        "final_mean",
        "final_variance",
        "retained_mass",
        "lost_mass",
        "retained_variance",
        "removed_total",
    }
    assert s["cycles"] == 5
    assert s["final_mean"] == pytest.approx(res.means[-1])
    assert s["removed_total"] == pytest.approx(res.means[0] - res.means[-1], abs=1e-12)


def test_matrix_iteration_matches_per_state_loop(cfg100):
    # Reference: scatter each occupied M's kernel, one cycle at a time.
    kernels = [cfg100.kernel(m) for m in range(116)]
    p = gaussian_distribution(95.0, 6.0, m_max=115).probabilities
    res = run_protocol(NumberDistribution(p), replace(cfg100, cycles=5))
    for _ in range(5):
        out = np.zeros_like(p)
        for m in np.flatnonzero(p):
            out[m::-1] += p[m] * kernels[m]
        p = out
    # Reordered sums of at most 116 unit-bounded terms per cycle.
    assert np.max(np.abs(res.final.probabilities - p)) < 5 * 116 * np.finfo(float).eps


@pytest.fixture(scope="module")
def kernels100(cfg100):
    return [cfg100.kernel(m) for m in range(116)]


@settings(max_examples=25)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=116, max_size=116),
    anchor=st.integers(0, 115),
    cycles=st.integers(1, 30),
)
def test_random_starts_conserve_mass_and_match_kernel_scatter(
    cfg100, kernels100, weights, anchor, cycles
):
    p = np.array(weights)
    p[anchor] += 1.0
    init = NumberDistribution(p / p.sum())
    res = run_protocol(init, replace(cfg100, cycles=cycles))
    assert abs(res.final.probabilities.sum() - 1.0) <= 1e-9
    assert np.all(np.diff(res.means) <= 1e-9 * cfg100.n0)
    # Reference: scatter each occupied M's kernel, one cycle at a time.
    tol = 5 * 116 * np.finfo(float).eps
    m = np.arange(116)
    ref = init.probabilities
    for i in range(cycles + 1):
        if i > 0:
            out = np.zeros_like(ref)
            for j in np.flatnonzero(ref):
                out[j::-1] += ref[j] * kernels100[j]
            ref = out
        # Means weigh each probability by M <= 115; the bands at n0 = 100
        # are [90, 110] and M < 10.
        assert abs(res.means[i] - m @ ref) <= tol * 115
        assert abs(res.retained_mass[i] - ref[(m >= 90) & (m <= 110)].sum()) <= tol
        assert abs(res.lost_mass[i] - ref[m < 10].sum()) <= tol
    assert np.max(np.abs(res.final.probabilities - ref)) <= tol


def _per_cycle_reference(init, cfg):
    """run_protocol one cycle at a time: each cycle certified and summed on
    its own vector, the kernel columns built in the same batches."""
    size = init.support_max + 1
    p = np.zeros(cfg.m_max + 1)
    p[:size] = init.probabilities[:size]
    k = np.zeros((size, size))
    built = np.zeros(size, dtype=bool)
    m = np.arange(cfg.m_max + 1)
    kept, gone = (protocol._band(lo, hi, cfg.m_max)
                  for lo, hi in protocol._retained_and_lost(cfg.n0))
    stats = []
    for i in range(cfg.cycles + 1):
        if i > 0:
            new = np.flatnonzero((p[:size] > 0) & ~built)
            if new.size:
                for j, column in zip(new, cfg.kernels(new)):
                    k[j::-1, j] = column
                built[new] = True
            p[:size] = k @ p[:size]
            protocol._certify(p, f"cycle {i}: probabilities")
        mean = np.sum(m * p)
        stats.append((mean, np.sum((m - mean) ** 2 * p), np.sum(p[kept]), np.sum(p[gone])))
    return np.array(stats).T, NumberDistribution(p).probabilities


@pytest.mark.parametrize("cycles", [1, protocol._BLOCK - 1, protocol._BLOCK, protocol._BLOCK + 1])
def test_blocked_statistics_equal_per_cycle_sums(cfg100, cycles):
    # Row-wise sums over a block add each row as its own vector would, so
    # blocking the cycles moves no bit on either side of a block's end.
    cfg = replace(cfg100, cycles=cycles)
    init = two_point_distribution(85, 110, m_max=115)
    res = run_protocol(init, cfg)
    (means, variances, retained, lost), final = _per_cycle_reference(init, cfg)
    assert np.array_equal(res.means, means)
    assert np.array_equal(res.variances, variances)
    assert np.array_equal(res.retained_mass, retained)
    assert np.array_equal(res.lost_mass, lost)
    assert res.final.probabilities.tobytes() == final.tobytes()


def test_certificate_names_the_first_failing_cycle(cfg100, monkeypatch):
    # Kernels that gain 1e-11 of mass pass the 1e-9 sum check for about a
    # hundred cycles; the blocked certificate names the cycle that checking
    # every cycle names, past the first block.
    kernels = ProtocolConfig.kernels
    monkeypatch.setattr(
        ProtocolConfig, "kernels",
        lambda cfg, ms: [column * (1.0 + 1e-11) for column in kernels(cfg, ms)],
    )
    cfg = replace(cfg100, cycles=200)
    init = point_distribution(95, m_max=115)
    with pytest.raises(InvalidParameterError) as want:
        _per_cycle_reference(init, cfg)
    assert int(re.match(r"cycle (\d+):", str(want.value)).group(1)) > protocol._BLOCK
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(str(want.value))}$"):
        run_protocol(init, cfg)


def test_certificate_runs_before_later_kernels_are_built(case100, monkeypatch):
    # Three cycles from 80/120 build new columns in each cycle.  The first
    # batch gains mass, so cycle 1 fails its certificate; the second batch
    # is never built, as when each cycle was certified as soon as it ran.
    kernels = ProtocolConfig.kernels
    batches = []

    def inflated_once(cfg, ms):
        batches.append(len(ms))
        if len(batches) > 1:
            raise AssertionError("kernels built after a failed cycle")
        return [column * (1.0 + 1e-6) for column in kernels(cfg, ms)]

    monkeypatch.setattr(ProtocolConfig, "kernels", inflated_once)
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=3, m_max=130)
    with pytest.raises(InvalidParameterError, match="^cycle 1: "):
        run_protocol(two_point_distribution(80, 120, m_max=130), cfg)
    assert len(batches) == 1


def test_cycle_certificate_rejects_a_kernel_that_gains_mass(cfg100, monkeypatch):
    kernels = ProtocolConfig.kernels

    def inflated(cfg, ms):
        return [column * (1.0 + 1e-6) for column in kernels(cfg, ms)]

    monkeypatch.setattr(ProtocolConfig, "kernels", inflated)
    with pytest.raises(InvalidParameterError, match="cycle 1"):
        run_protocol(point_distribution(95, m_max=115), cfg100)


def test_each_kernel_is_built_once(case100, monkeypatch):
    # Each cycle builds the columns it needs in one batched call.
    calls = []
    kernels = ProtocolConfig.kernels

    def counted(cfg, ms):
        calls.extend(int(m) for m in ms)
        return kernels(cfg, ms)

    monkeypatch.setattr(ProtocolConfig, "kernels", counted)
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=3, m_max=130)
    run_protocol(two_point_distribution(80, 120, m_max=130), cfg)
    # Three cycles from 80/120 reach every M in 0..120.
    assert len(calls) == 121
    assert sorted(calls) == list(range(121))
    calls.clear()
    run_protocol(point_distribution(90), replace(cfg, cycles=1))
    assert calls == [90]


def test_config_is_frozen_with_four_fields(cfg100):
    assert [f.name for f in fields(ProtocolConfig)] == ["n0", "coeffs", "cycles", "m_max"]
    with pytest.raises(FrozenInstanceError):
        cfg100.cycles = 2


def test_protocol_pads_narrow_initial_distributions(case100):
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=2, m_max=115)
    res = run_protocol(point_distribution(95), cfg)  # support only reaches 95
    assert res.final.m_max == 115
    assert res.final.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_protocol_rejects_overflowing_start(case100):
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=2, m_max=115)
    with pytest.raises(TruncationOverflowError):
        run_protocol(point_distribution(130, m_max=130), cfg)
