import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bogodense.twomode as twomode
from bogodense import (
    CouplingCoefficients,
    ProtocolConfig,
    TwoModeHamiltonian,
    TwoModeState,
    build_h01,
    evolve_exact,
    fock_state,
    mean_n1,
    mean_n1_analytic,
    mean_n1_trace,
    oscillation_law,
)
from bogodense.errors import (
    InapplicableLawError,
    IntegratorFailureError,
    InvalidParameterError,
    UnsupportedRegimeError,
)

from oracles import dense_h01_oracle, dominant_frequency, synthetic_coeffs


GENERIC = synthetic_coeffs(
    gamma=0.37, mu=1.91, mu1=2.53, g01=0.23, alpha2=0.17, nbar=2.6
)


@pytest.mark.parametrize("m_total", [1, 2, 3, 4])
def test_brute_force_operator_oracle(m_total):
    # The banded matrix elements must coincide exactly with applying the
    # second-quantized operators on the tensor Fock space and restricting
    # to total number M.
    dense = build_h01(GENERIC, m_total).to_dense()
    oracle = dense_h01_oracle(GENERIC, m_total)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(dense - oracle)) <= 1e-13 * scale


def test_oracle_with_interaction_free_corner():
    # Degenerate corner: all couplings off, only single-mode energies.
    co = synthetic_coeffs(mu=1.3, mu1=2.1)
    h = build_h01(co, 1)
    assert h.diag == pytest.approx([1.3, 2.1])
    assert h.off1 == pytest.approx([0.0])
    oracle = dense_h01_oracle(co, 1)
    assert np.max(np.abs(h.to_dense() - oracle)) == 0.0


def test_pair_exchange_element():
    # <2 excited| H |0 excited> at M = 2 is (gamma/2)*sqrt(1*2*2*1) = gamma.
    co = synthetic_coeffs(gamma=0.7)
    assert build_h01(co, 2).off2[0] == pytest.approx(0.7)


def test_banded_storage_matches_dense():
    h = build_h01(GENERIC, 6)
    dense = h.to_dense()
    assert np.array_equal(dense, dense.T)  # exact symmetry
    band = h.to_dia()[[0, 2, 1]]  # lower band storage, as eig_banded reads it
    assert band[0] == pytest.approx(np.diag(dense))
    assert band[1, :6] == pytest.approx(np.diag(dense, -1))
    assert band[2, :5] == pytest.approx(np.diag(dense, -2))
    # DIA layout: dia[d, j] weighs x[j] in row j - offset.
    dia = h.to_dia()
    for d, offset in enumerate(twomode._OFFSETS):
        for j in range(7):
            row = j - offset
            assert dia[d, j] == (dense[row, j] if 0 <= row < 7 else 0.0)


def test_three_level_closed_form():
    # nbar = 1/2 makes the two hops equal and opposite,
    # H = (g01/sqrt(2)) * (|0><1| - |1><2| + h.c.), eigenvalues 0, +-g01:
    #   psi0 = (1 + cos(g01 t))/2, psi1 = -i sin(g01 t)/sqrt(2),
    #   psi2 = (1 - cos(g01 t))/2.
    om = 0.41
    co = synthetic_coeffs(g01=om, nbar=0.5, alpha2=0.0)
    h = build_h01(co, 2)
    assert h.diag == pytest.approx([0.0, 0.0, 0.0])
    assert h.off1 == pytest.approx([om / math.sqrt(2), -om / math.sqrt(2)])
    for t in (0.0, 0.7, 2.3, 5.1):
        s = evolve_exact(h, fock_state(2, 0), t)
        expected = np.array(
            [
                0.5 + 0.5 * math.cos(om * t),
                -1j * math.sin(om * t) / math.sqrt(2),
                0.5 - 0.5 * math.cos(om * t),
            ]
        )
        assert np.max(np.abs(s.amplitudes - expected)) < 1e-12


def test_state_validation():
    with pytest.raises(InvalidParameterError):
        TwoModeState(m_total=2, amplitudes=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        TwoModeState(m_total=3, amplitudes=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        fock_state(4, n1=5)
    with pytest.raises(InvalidParameterError):
        TwoModeState(m_total=1, amplitudes=np.array([np.nan, 1.0]))


@pytest.mark.parametrize(
    "bad", [{"gamma": math.nan}, {"mu": math.inf}, {"g01": math.nan}]
)
def test_non_finite_coefficients_rejected(bad):
    # The band is checked once when the Hamiltonian is built, so neither
    # the propagator, the trace nor the protocol kernels ever see it.
    co = replace(GENERIC, **bad)
    with np.errstate(invalid="ignore"):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            build_h01(co, 8)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            ProtocolConfig(n0=2.6, coeffs=co, cycles=1, m_max=8).kernel(5)
        # The law used to pass NaN as stable and give a NaN cycle time.
        with pytest.raises(InvalidParameterError, match="non-finite"):
            oscillation_law(co, 8)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            ProtocolConfig(n0=2.6, coeffs=co, cycles=1, m_max=8).cycle_time


def test_hamiltonian_is_a_checked_frozen_value():
    # H is its coefficients and M; the band is written from them on demand.
    h = TwoModeHamiltonian(GENERIC, 6)
    assert [f.name for f in fields(h)] == ["coeffs", "m_total", "_eig"]
    assert h.to_dia().tobytes() == twomode._sector_bands(GENERIC, [6])[0].tobytes()
    with pytest.raises(FrozenInstanceError):
        h.diag = np.zeros(7)
    with pytest.raises(FrozenInstanceError):
        h.m_total = 7
    with pytest.raises(ValueError):
        h.off1[0] = 1.0  # the band's views are read-only
    with pytest.raises(TypeError):
        TwoModeHamiltonian(GENERIC, 6, _eig=None)
    with pytest.raises(TypeError):
        TwoModeHamiltonian(GENERIC, 6, h.diag)  # no hand-made band
    assert h.eigensystem() is h.eigensystem()
    # M must be a count of at least 1, and the band is checked when H is made.
    with pytest.raises(InvalidParameterError):
        TwoModeHamiltonian(GENERIC, 0)
    with pytest.raises(InvalidParameterError, match="m_total must be an integer"):
        TwoModeHamiltonian(GENERIC, 6.5)
    with np.errstate(invalid="ignore"):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            TwoModeHamiltonian(replace(GENERIC, g01=math.nan), 6)


def test_mean_n1_reference_states():
    assert mean_n1(fock_state(5, 0)) == 0.0
    assert mean_n1(fock_state(5, 1)) == 1.0
    uniform = TwoModeState(5, np.full(6, 1.0 / math.sqrt(6.0), dtype=complex))
    assert mean_n1(uniform) == pytest.approx(2.5)


def test_evolution_basics():
    h = build_h01(GENERIC, 8)
    s0 = fock_state(8, 0)
    assert np.array_equal(evolve_exact(h, s0, 0.0).amplitudes, s0.amplitudes)
    with pytest.raises(InvalidParameterError):
        evolve_exact(h, fock_state(7, 0), 1.0)
    with pytest.raises(InvalidParameterError):
        evolve_exact(h, s0, float("nan"))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError):
            mean_n1_trace(h, s0, np.array([0.0, bad]))
    # The t = 0 sample is s0 itself, exactly, on the spectral path too.
    assert mean_n1_trace(h, s0, np.array([0.0, 0.5, 0.0]))[[0, 2]].tolist() == [0.0, 0.0]


def test_diagonal_hamiltonian_preserves_occupations():
    co = synthetic_coeffs(mu=0.9, mu1=1.7, nbar=3.0)
    h = build_h01(co, 6)
    assert np.max(np.abs(h.off1)) == 0.0
    amps = np.arange(1.0, 8.0) + 0.0j
    amps /= math.sqrt(np.sum(np.abs(amps) ** 2))
    s = TwoModeState(6, amps)
    out = evolve_exact(h, s, 3.7)
    assert np.abs(out.amplitudes) == pytest.approx(np.abs(amps), abs=1e-12)


def _spectral_amplitudes(h, t):
    """exp(-iHt)|M,0> from the banded eigensystem, the trace's path."""
    w, v = h.eigensystem()
    return v @ (np.exp(-1j * w * t) * v[0])


def test_norm_conservation_both_paths(case1000):
    co = case1000["coeffs"]
    h = build_h01(co, 1000)
    law = oscillation_law(co, 1000)
    t = 2.0 * math.pi / law.omega_prime
    amp_eig = _spectral_amplitudes(h, t)
    assert abs(np.sum(np.abs(amp_eig) ** 2) - 1.0) < 1e-10
    s_cheb = evolve_exact(h, fock_state(1000, 0), t)
    assert abs(np.sum(np.abs(s_cheb.amplitudes) ** 2) - 1.0) < 1e-10
    # total-number bookkeeping: <n0> + <n1> = M
    n = np.arange(1001.0)
    prob = np.abs(s_cheb.amplitudes) ** 2
    total = float(np.sum((1000.0 - n) * prob) + np.sum(n * prob))
    assert abs(total - 1000.0) < 1e-8


def test_spectral_evolution_keeps_eigenvectors_real(case1000):
    # A complex operand would make numpy copy the 8 MB real eigenvector
    # matrix to a 16 MB complex one on each product of the spectral trace;
    # the Chebyshev propagator holds a few vectors of M + 1 numbers.
    h = build_h01(case1000["coeffs"], 1000)
    h.eigensystem()
    s0 = fock_state(1000, 0)
    tracemalloc.start()
    try:
        mean_n1_trace(h, s0, np.linspace(0.0, 0.3, 8))
        evolve_exact(h, s0, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_large_branch_matches_eigensolution(case100):
    co = case100["coeffs"]
    h = build_h01(co, 120)
    law = oscillation_law(co, 120)
    t = math.pi / law.omega_prime
    big = evolve_exact(h, fock_state(120, 0), t)
    assert np.max(np.abs(big.amplitudes - _spectral_amplitudes(h, t))) < 1e-10
    # The truncation bound of the series travels with the state.
    assert 0.0 < big.error_bound < 1e-14


@pytest.mark.parametrize("gamma", [0.37, -0.37])
@pytest.mark.parametrize("ms", [[1], [2], [2, 1, 1], [7, 1, 2, 30, 3]])
def test_sector_bands_stack_each_sectors_band(ms, gamma):
    # One elementwise pass over the stack writes each sector's band to the
    # byte, as build_h01 has it, and +0.0 wherever a row would couple a
    # sector to the next: three entries per sector, all of M = 1's second
    # off-diagonal.  The formula gives -0.0 at each off1 seam here, and at
    # one of the two off2 seams for either sign of gamma.
    co = replace(GENERIC, gamma=gamma)
    dia, ends = twomode._sector_bands(co, ms)
    assert ends.tolist() == np.cumsum(np.add(ms, 1)).tolist()
    assert dia.shape == (5, ends[-1])
    for m, end in zip(ms, ends):
        part = dia[:, end - m - 1 : end]
        h = build_h01(co, m)
        assert part.tobytes() == h.to_dia().tobytes()
        seams = np.concatenate((part[2, m:], part[1, m - 1 :], part[3, :1], part[4, :2]))
        assert seams.size == 6 and np.all(seams == 0.0) and not np.any(np.signbit(seams))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    ms=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    gamma=st.floats(-0.05, 0.05),
    mu=st.floats(-3.0, 3.0),
    g01=st.floats(-0.05, 0.05),
    nbar=st.floats(0.0, 60.0),
)
def test_stacked_gershgorin_is_each_sectors_own(ms, gamma, mu, g01, nbar):
    # The couplings between sectors are +0.0, so no disc reaches across a
    # seam: each sector's interval is the one of its Hamiltonian alone, and
    # that is the interval of the dense matrix's Gershgorin discs.
    co = synthetic_coeffs(gamma=gamma, mu=mu, mu1=1.3, g01=g01, alpha2=0.2, nbar=nbar)
    centres, halves = twomode._gershgorin(*twomode._sector_bands(co, ms))
    for m, centre, half in zip(ms, centres, halves):
        h = build_h01(co, m)
        assert (float(centre), float(half)) == _gershgorin(h)
        dense = h.to_dense()
        radius = np.sum(np.abs(dense), axis=1) - np.abs(np.diag(dense))
        lo, hi = np.min(np.diag(dense) - radius), np.max(np.diag(dense) + radius)
        scale = 1e-13 * (np.max(np.abs(dense)) + 1.0)
        assert abs(centre - 0.5 * (hi + lo)) <= scale and abs(half - 0.5 * (hi - lo)) <= scale


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    m=st.integers(1, 60),
    small=st.integers(1, 60),
    gamma=st.floats(0.0, 0.05),
    mu=st.floats(-3.0, 3.0),
    mu1=st.floats(-3.0, 3.0),
    g01=st.floats(-0.05, 0.05),
    alpha2=st.floats(0.01, 0.5),
    nbar=st.floats(0.0, 60.0),
    t=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_chebyshev_matches_dense_eigh(
    m, small, gamma, mu, mu1, g01, alpha2, nbar, t, seed
):
    co = synthetic_coeffs(gamma=gamma, mu=mu, mu1=mu1, g01=g01, alpha2=alpha2, nbar=nbar)
    h = build_h01(co, m)
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
    amp /= np.linalg.norm(amp)

    def dense(h, x):
        w, v = np.linalg.eigh(h.to_dense())
        return v @ (np.exp(-1j * w * t) * (v.T @ x))

    got = evolve_exact(h, TwoModeState(m, amp), t).amplitudes
    assert np.max(np.abs(got - dense(h, amp))) < 1e-10
    # A sector no larger than h stacked after it runs on its own centre
    # under the stack's widest half-width.
    h2 = build_h01(co, min(small, m))
    x2 = rng.normal(size=h2.m_total + 1)
    x2 /= np.linalg.norm(x2)
    pairs = [(h, amp.real), (h2, x2)]
    dia = np.concatenate([h.to_dia(), h2.to_dia()], axis=1)
    ends = [m + 1, m + h2.m_total + 2]
    s = np.stack((np.empty(ends[-1]), np.concatenate([amp.real, x2])))
    stack = twomode._propagate_block(dia, ends, s, t)
    for (got, _), (hh, x) in zip(stack, pairs):
        assert np.max(np.abs(got - dense(hh, x))) < 1e-10


@pytest.mark.parametrize("z, terms", [(1e-7, 3), (1e-12, 2), (1e-20, 1), (1e-29, 1)])
def test_bessel_series_rescales_at_tiny_z(z, terms):
    # Miller's recurrence grows by about 2k/z a step, so at these z it
    # passes 1e150 and is rescaled on the way down: once at 1e-7 and
    # 1e-12, twice at 1e-20 and four times at 1e-29.  A Chebyshev step
    # between two sample times 1e-12 apart lands here.  Without the
    # rescale the recurrence overflows at 1e-20 and 1e-29, and without the
    # matching rescale of the stored values every case here is wrong.
    j, tail = twomode._bessel_series(z)
    assert j.size == terms
    assert abs(j[0] - (1.0 - z * z / 4.0)) <= 2.0 * math.ulp(1.0)
    if terms > 1:
        assert abs(j[1] - (z / 2.0 - z**3 / 16.0)) <= 2.0 * math.ulp(z / 2.0)
    # The tail is 2 J_K(z) = 2 (z/2)^K / K! to leading order: z at K = 1,
    # z^2/4 at K = 2 and z^3/24 at K = 3.
    assert tail == pytest.approx(2.0 * (z / 2.0) ** terms / math.factorial(terms), rel=1e-7)


def test_long_times_run_in_steps(monkeypatch):
    # A series holds about z = half-width * |t| coefficients: past _Z_MAX
    # one series is refused, and evolve_exact splits its time instead.
    h = build_h01(GENERIC, 30)
    amp = np.exp(1j * np.arange(31.0)) / math.sqrt(31.0)
    t = -7.3
    w, v = np.linalg.eigh(h.to_dense())
    want = v @ (np.exp(-1j * w * t) * (v.T @ amp))
    monkeypatch.setattr(twomode, "_Z_MAX", 400.0)
    with pytest.raises(UnsupportedRegimeError):
        twomode._propagate_block(h.to_dia(), [31], np.stack((amp.real, amp.real)), t)
    got = evolve_exact(h, TwoModeState(30, amp), t)
    assert np.max(np.abs(got.amplitudes - want)) < 1e-10


# Reference-trap coefficients at nbar = 1e4 (oracles.solve_case(1e4),
# pinned to full precision).  At M = 5000 from |M,0> to t = pi/w'(1e4) the
# Gershgorin series would take 21764 terms and the certified one takes
# 18544.
LARGE = dict(
    alpha2=0.002197847795460061,
    alpha3=5.747136986882019e-06,
    alpha4=1.639517340057026e-08,
    beta=1044.5027475804882,
    gamma=0.0007024634974135556,
    mu1=14.929111429419994,
    mu=14.434968020593848,
    g01=0.00035239795306456304,
    nbar=10000.0,
)
LARGE_DIGEST = "25fb8468ce3dbd7a5eb8c5edcc7cd99da5956be5d78795c73289942355ac4021"


def test_large_dimension_matches_dense_eigensolution():
    # Above the eigensolver limit a step-count heuristic once returned
    # <n1> = 565.5 for this case.  The pinned <n1> comes from a one-off
    # dense solve of the same Hamiltonian: scipy.linalg.eig_banded on
    # h's lower band storage for all 5001 eigenpairs (w, v), amplitudes
    # v @ (exp(-i w t) * v[0]), <n1> = sum_n n |amp_n|^2.  The digest pins
    # the amplitude bytes of the Chebyshev recursion itself: a faster
    # recursion must sum every row in the same order.  The term counts pin
    # the series length, so a tighter interval shows as a count.
    co = CouplingCoefficients(**LARGE)
    t = math.pi / oscillation_law(co, 10000).omega_prime
    h = build_h01(co, 5000)
    _, (half,) = twomode._intervals(h.to_dia(), [5001], t)
    assert twomode._bessel_series(_gershgorin(h)[1] * t)[0].size == 21764
    assert twomode._bessel_series(half * t)[0].size == 18544
    s = evolve_exact(h, fock_state(5000, 0), t)
    assert mean_n1(s) == pytest.approx(263.14163520628176, rel=1e-8)
    assert hashlib.sha256(s.amplitudes.tobytes()).hexdigest() == LARGE_DIGEST


def test_large_dimension_bytes_independent_of_thread_count():
    # The certified interval comes from unblocked banded LAPACK
    # factorizations alone, with no BLAS call, so the series, and every
    # amplitude bit, is the same at 1 and at 2 BLAS threads.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import hashlib, math, bogodense as bd\n"
        f"co = bd.CouplingCoefficients(**{LARGE!r})\n"
        "t = math.pi / bd.oscillation_law(co, 10000).omega_prime\n"
        "s = bd.evolve_exact(bd.build_h01(co, 5000), bd.fock_state(5000, 0), t)\n"
        "print(hashlib.sha256(s.amplitudes.tobytes()).hexdigest())\n"
    )
    # Both interpreters run at once, so the test takes about one run.
    procs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", code], env=dict(env, BOGODENSE_THREADS=threads),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for threads in ("1", "2")
    }
    for threads, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert out.decode().strip() == LARGE_DIGEST, threads


def _record_stacks(monkeypatch):
    """Patch twomode's _propagate_block to append each stack's ends to the returned list."""
    stacks = []
    propagate_block = twomode._propagate_block

    def recorded(dia, ends, s, t):
        stacks.append(np.asarray(ends).tolist())
        return propagate_block(dia, ends, s, t)

    monkeypatch.setattr(twomode, "_propagate_block", recorded)
    return stacks


def test_complex_start_bytes_pinned(monkeypatch):
    # The real and imaginary parts of a complex start run as two sectors of
    # one stack; the digest pins the amplitude bytes of that recursion.
    stacks = _record_stacks(monkeypatch)
    co = CouplingCoefficients(**LARGE)
    t = math.pi / oscillation_law(co, 10000).omega_prime
    n = np.arange(301.0)
    amp = np.exp(0.37j * n - ((n - 40.0) / 15.0) ** 2)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)))
    s = evolve_exact(build_h01(co, 300), TwoModeState(300, amp), t)
    assert stacks == [[301, 602]]
    assert hashlib.sha256(s.amplitudes.tobytes()).hexdigest() == (
        "29692ac12cc9625726c8919cf3ca77881fa2acbd0bf0535185a4a6103a1cd349"
    )


def test_stepped_evolution_bytes_pinned(monkeypatch):
    # With _Z_MAX = 400 the call splits into eight steps: the first runs
    # the real start alone, the other seven its real and imaginary parts.
    stacks = _record_stacks(monkeypatch)
    monkeypatch.setattr(twomode, "_Z_MAX", 400.0)
    s = evolve_exact(build_h01(GENERIC, 30), fock_state(30, 0), -7.3)
    assert stacks == [[31]] + [[31, 62]] * 7
    assert hashlib.sha256(s.amplitudes.tobytes()).hexdigest() == (
        "7feb7ed88b997ebc1dc6acae34b32cde0fda1eee5e50c1e89cbbe10b0a70f4e2"
    )


def _gershgorin(h):
    """The Gershgorin (centre, half-width) of h alone."""
    centre, half = twomode._gershgorin(h.to_dia(), [h.m_total + 1])
    return float(centre[0]), float(half[0])


def _check_interval(h, interval):
    """The interval holds every dense eigenvalue, lies inside Gershgorin's
    and is tight.

    All three hold up to a few units of round-off in |H|: eigvalsh's own
    error and the (centre, half-width) form, where an end that falls back
    on a Gershgorin end touching the spectrum (a diagonal H) may move an
    ulp.  With underflow a unit of round-off is at least the subnormal
    spacing (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 2.1): halving a subnormal end rounds, and eps |H| is then 0.
    Tight means each end lies within _BISECT_TOL Gershgorin
    half-widths, plus its Cholesky bound, of the dense end.  That bound,
    and the round-off by which a refused factorization may sit past the
    end, are each below 32 eps (|centre| + half-width) of Gershgorin's: on
    a band of width 2, |L| |L^T| has at most 5 entries a row, each at
    most the largest diagonal entry of sigma - H, itself at most a
    Gershgorin width.
    """
    centre, half = interval
    w = np.linalg.eigvalsh(h.to_dense())
    g_centre, g_half = _gershgorin(h)
    eps = np.finfo(float).eps
    tiny = np.finfo(float).smallest_subnormal
    ulps = 8.0 * max(eps * (abs(g_centre) + g_half), tiny)
    assert centre - half <= w[0] + ulps and w[-1] - ulps <= centre + half
    assert g_centre - g_half - ulps <= centre - half
    assert centre + half <= g_centre + g_half + ulps
    slack = twomode._BISECT_TOL * g_half + ulps + 64.0 * eps * (abs(g_centre) + g_half)
    assert w[0] - (centre - half) <= slack
    assert (centre + half) - w[-1] <= slack


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    m=st.integers(1, 60),
    gamma=st.floats(0.0, 0.05),
    mu=st.floats(-3.0, 3.0),
    mu1=st.floats(-3.0, 3.0),
    g01=st.floats(-0.05, 0.05),
    alpha2=st.floats(0.01, 0.5),
    nbar=st.floats(0.0, 60.0),
)
# Subnormal spectra, where both intervals round to their ends: {0, 5e-324}
# inside [0, 0], and two tightness checks one subnormal spacing off.
@example(m=1, gamma=0.0, mu=0.0, mu1=5e-324, g01=0.0, alpha2=0.5, nbar=0.0)
@example(m=2, gamma=0.0, mu=5e-324, mu1=0.0, g01=5e-324, alpha2=0.5, nbar=0.0)
@example(m=2, gamma=0.0, mu=0.0, mu1=0.0, g01=5e-324, alpha2=0.5, nbar=0.0)
def test_certified_interval_holds_the_spectrum(m, gamma, mu, mu1, g01, alpha2, nbar):
    co = synthetic_coeffs(gamma=gamma, mu=mu, mu1=mu1, g01=g01, alpha2=alpha2, nbar=nbar)
    h = build_h01(co, m)
    _check_interval(h, twomode._certified(h.to_dia()))


def _record_dpbtrf(monkeypatch):
    """Patch twomode's dpbtrf to append each call's info to the returned list."""
    infos = []
    dpbtrf = twomode.dpbtrf

    def recorded(ab, lower):
        out = dpbtrf(ab, lower=lower)
        infos.append(out[1])
        return out

    monkeypatch.setattr(twomode, "dpbtrf", recorded)
    return infos


def test_bisection_refuses_and_proves_at_each_end(case100, monkeypatch):
    # Each end is bisected between its innermost diagonal entry and its
    # Gershgorin end: some factorizations fail (sigma inside the spectrum)
    # and some succeed, at most 11 per end, and the end it proves holds
    # the spectrum.
    infos = _record_dpbtrf(monkeypatch)
    calls = []

    def certify_end(band, gersh, sign):
        start = len(infos)
        out = certify(band, gersh, sign)
        calls.append(infos[start:])
        return out

    certify = twomode._certify_end
    monkeypatch.setattr(twomode, "_certify_end", certify_end)
    h = build_h01(case100["coeffs"], 300)
    _check_interval(h, twomode._certified(h.to_dia()))
    assert len(calls) == 2 and len(infos) <= 22
    for end in calls:
        assert any(info > 0 for info in end) and any(info == 0 for info in end)
        assert len(end) <= math.ceil(math.log2(2.0 / twomode._BISECT_TOL))


def test_bisection_stops_at_round_off():
    # With couplings far below an ulp of a large diagonal, the bracket
    # reaches adjacent floats before _BISECT_TOL half-widths, where the
    # midpoint no longer moves: the bisection stops there.  mu = mu1 puts
    # every diagonal entry near 1e8, and the couplings are below 1e-6.
    h = build_h01(synthetic_coeffs(mu=2.5e7, mu1=2.5e7, g01=1e-7, gamma=1e-7), 4)
    _, half = _gershgorin(h)
    assert twomode._BISECT_TOL * half < math.ulp(float(np.min(h.diag)))
    _check_interval(h, twomode._certified(h.to_dia()))


def test_diagonal_hamiltonian_needs_no_factorization(monkeypatch):
    # Without couplings every Gershgorin disc is a point: the innermost
    # diagonal entry is the Gershgorin end, the bracket is empty, and the
    # exact Gershgorin interval comes back.
    infos = _record_dpbtrf(monkeypatch)
    h = build_h01(synthetic_coeffs(gamma=0.0, g01=0.0, mu=0.9, mu1=1.7, nbar=3.0), 40)
    assert twomode._certified(h.to_dia()) == _gershgorin(h)
    assert infos == []


@pytest.mark.parametrize("bad", ["1", None, 1j, [0.0, "1"], [0.0, math.nan], math.inf])
def test_trace_refuses_non_real_times(case100, bad):
    # "1" was read as t = 1 and gave <n1> = 3.16; evolve_exact refuses it.
    h = build_h01(case100["coeffs"], 4)
    with pytest.raises(InvalidParameterError, match="times must be finite reals"):
        mean_n1_trace(h, fock_state(4), bad)


@pytest.mark.parametrize("bad", ["1", None, 1j, [0.0, "1"], [0.0, math.nan], math.inf])
def test_analytic_law_refuses_non_real_times(case100, bad):
    # The same check as the trace's: nan was reported as an overflowing phase.
    law = oscillation_law(case100["coeffs"], 120)
    with pytest.raises(InvalidParameterError, match="times must be finite reals"):
        mean_n1_analytic(law, bad)


def test_overflowing_phases_rejected():
    # w*t overflowed to inf and the traces came out nan.
    h = build_h01(GENERIC, 8)
    law = oscillation_law(GENERIC, 8)
    times = np.array([0.0, 1e308])
    with np.errstate(all="raise"):
        with pytest.raises(InvalidParameterError, match="overflows"):
            mean_n1_trace(h, fock_state(8, 0), times)
        with pytest.raises(InvalidParameterError, match="overflows"):
            mean_n1_analytic(law, times)


def test_huge_times_refused_before_stepping(case100, monkeypatch):
    # t = 1e300 meant about 1.8e296 Chebyshev steps: the call never returned.
    h = build_h01(case100["coeffs"], 100)
    with pytest.raises(UnsupportedRegimeError, match="steps"):
        evolve_exact(h, fock_state(100, 0), 1e300)
    # The stepped trace above the eigensolver limit takes the same way out.
    monkeypatch.setattr(twomode, "_EIG_LIMIT", 50)
    h = build_h01(case100["coeffs"], 120)
    with pytest.raises(UnsupportedRegimeError, match="steps"):
        mean_n1_trace(h, fock_state(120, 0), np.array([0.0, 1e300]))


def test_truncation_past_its_tolerance_refused(case100, monkeypatch):
    # A series whose tail bound exceeds _TAIL_TOL raises instead of
    # returning amplitudes it cannot vouch for, in evolve_exact and in the
    # protocol kernels alike.
    monkeypatch.setattr(twomode, "_TAIL_TOL", 0.0)
    co = case100["coeffs"]
    with pytest.raises(IntegratorFailureError, match="Chebyshev truncation bound"):
        evolve_exact(build_h01(co, 20), fock_state(20, 0), 0.5)
    cfg = ProtocolConfig(n0=100.0, coeffs=co, cycles=1, m_max=20)
    with pytest.raises(IntegratorFailureError, match="Chebyshev truncation bound"):
        cfg.kernels([20, 3])


def test_trace_refuses_a_state_of_another_size(monkeypatch):
    # The eigensystem branch died in numpy's matmul on an M = 12 state for an
    # M = 10 Hamiltonian; the stepped branch refused through evolve_exact.
    h = build_h01(GENERIC, 10)
    times = np.array([0.0, 0.5])
    for limit in (twomode._EIG_LIMIT, 5):
        monkeypatch.setattr(twomode, "_EIG_LIMIT", limit)
        with pytest.raises(InvalidParameterError, match="state has M = 12"):
            mean_n1_trace(h, fock_state(12, 0), times)


def test_trace_fallback_path_matches(case100, monkeypatch):
    co = case100["coeffs"]
    law = oscillation_law(co, 120)
    times = np.linspace(0.0, 2.0 * math.pi / law.omega_prime, 40)
    ref = mean_n1_trace(build_h01(co, 120), fock_state(120, 0), times)
    # sample order must not matter
    idx = np.random.default_rng(1).permutation(times.size)
    shuffled = mean_n1_trace(build_h01(co, 120), fock_state(120, 0), times[idx])
    assert np.max(np.abs(shuffled - ref[idx])) == 0.0
    # Above the limit the trace steps the Chebyshev propagator.
    monkeypatch.setattr(twomode, "_EIG_LIMIT", 50)
    alt = mean_n1_trace(build_h01(co, 120), fock_state(120, 0), times)
    assert np.max(np.abs(ref - alt)) < 1e-10


@pytest.mark.parametrize("limit", [twomode._EIG_LIMIT, 50])
def test_trace_keeps_the_shape_of_times(case100, monkeypatch, limit):
    # A scalar time raised a bare IndexError and a (2, 2) array a broadcast
    # ValueError; like mean_n1_analytic, the trace now returns a float for
    # a scalar and the shape of times otherwise, on both branches.
    monkeypatch.setattr(twomode, "_EIG_LIMIT", limit)
    h, s0 = build_h01(case100["coeffs"], 120), fock_state(120, 0)
    grid = np.array([[0.0, 0.5], [1.5, 1.0]])
    flat = mean_n1_trace(h, s0, grid.ravel())
    scalar = mean_n1_trace(h, s0, 0.5)
    assert type(scalar) is float and scalar == pytest.approx(flat[1], rel=1e-12)
    assert mean_n1_trace(h, s0, 0.0) == 0.0
    square = mean_n1_trace(h, s0, grid)
    assert square.shape == (2, 2) and np.array_equal(square.ravel(), flat)
    assert mean_n1_trace(h, s0, [[0.5]]).shape == (1, 1)
    assert mean_n1_trace(h, s0, np.empty((0, 3))).shape == (0, 3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    m=st.integers(1, 150),
    gamma=st.floats(0.0, 0.05),
    mu=st.floats(-3.0, 3.0),
    mu1=st.floats(-3.0, 3.0),
    g01=st.floats(-0.05, 0.05),
    alpha2=st.floats(0.01, 0.5),
    nbar=st.floats(0.0, 60.0),
    t_max=st.floats(0.0, 5.0),
    occupied=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_trace_matches_dense_eigh(
    m, gamma, mu, mu1, g01, alpha2, nbar, t_max, occupied, seed
):
    # A complex start on a few Fock states occupies few eigenmodes, so the
    # window cuts; the dense trace keeps every mode.
    co = synthetic_coeffs(gamma=gamma, mu=mu, mu1=mu1, g01=g01, alpha2=alpha2, nbar=nbar)
    h = build_h01(co, m)
    rng = np.random.default_rng(seed)
    amp = np.zeros(m + 1, dtype=complex)
    at = rng.choice(m + 1, size=min(occupied, m + 1), replace=False)
    amp[at] = rng.normal(size=at.size) + 1j * rng.normal(size=at.size)
    amp /= np.linalg.norm(amp)
    times = np.concatenate(([0.0], np.sort(rng.uniform(-t_max, t_max, 20))))
    w, v = np.linalg.eigh(h.to_dense())
    c = v.T @ amp
    n = np.arange(m + 1.0)
    want = [n @ np.abs(v @ (np.exp(-1j * w * t) * c)) ** 2 for t in times]
    got = mean_n1_trace(h, TwoModeState(m, amp), times)
    assert np.max(np.abs(got - want)) <= 1e-12 + 1e-14 * m
    # The discarded weight is summed from the two ends of the cached
    # eigensystem's coefficients, and its bound on <n1> holds.
    wb, vb = h.eigensystem()
    cr, ci = vb.T @ amp.real, vb.T @ amp.imag
    a, b, bound = twomode._trace_window(cr, ci, m)
    q = cr**2 + ci**2
    delta = math.sqrt(float(np.sum(q[:a]) + np.sum(q[b:])))
    assert bound <= 1e-12
    assert m * (2.0 * delta + delta**2) == pytest.approx(bound, rel=1e-9, abs=1e-30)


def test_window_engages_at_criterion_two_shape(case1000):
    # |M, 0> at M = nbar = 1000 occupies a few percent of the eigenmodes
    # above 1e-14; the trace samples at most a third of them.
    h = build_h01(case1000["coeffs"], 1000)
    w, v = h.eigensystem()
    a, b, bound = twomode._trace_window(v[0], np.zeros(1001), 1000)
    assert 0 < b - a <= 1001 // 3
    assert bound <= 1e-12


def test_oscillation_law_formulas(case1000):
    co = case1000["coeffs"]
    law = oscillation_law(co, 1000)
    assert law.stable
    m = 1000.0
    delta = (
        co.gamma * (2.0 * m - co.nbar)
        - (m - co.nbar) * co.g_alpha2
        + co.mu1
        - co.mu
    )
    hw2 = delta**2 - (co.gamma * m) ** 2
    assert law.omega_prime == pytest.approx(math.sqrt(hw2), rel=1e-12)
    # M = nbar kills the anomalous-drive coefficient exactly
    assert law.c2 == 0.0
    lam2 = co.g01**2 * (m - co.nbar) ** 2 * m
    assert law.c1 == pytest.approx(((co.gamma * m) ** 2 + lam2) / hw2, rel=1e-12)


def test_analytic_trace_reference_points(case100):
    co = case100["coeffs"]
    law = oscillation_law(co, 120)
    assert mean_n1_analytic(law, 0.0) == 0.0
    t_half = math.pi / law.omega_prime
    assert mean_n1_analytic(law, t_half) == pytest.approx(4.0 * law.c2, rel=1e-9)
    t_quarter = 0.5 * t_half
    assert mean_n1_analytic(law, t_quarter) == pytest.approx(
        law.c1 + law.c2, rel=1e-9
    )
    arr = mean_n1_analytic(law, np.array([0.0, t_half]))
    assert arr == pytest.approx([0.0, 4.0 * law.c2])


def test_unstable_law_flagged():
    # mu1 = mu and M = nbar give Delta = gamma*M exactly: marginal, not stable.
    co = synthetic_coeffs(gamma=0.01, mu=1.5, mu1=1.5, g01=0.005, alpha2=0.0, nbar=100.0)
    law = oscillation_law(co, 100)
    assert not law.stable
    assert math.isnan(law.omega_prime) and math.isnan(law.c1)
    with pytest.raises(InapplicableLawError):
        mean_n1_analytic(law, 0.3)


def test_oscillation_law_needs_atoms():
    # M = 0 gave c1 = c2 = 0 and M < 0 a negative <n1>.
    for bad in (0, -5):
        with pytest.raises(InvalidParameterError):
            oscillation_law(GENERIC, bad)


def test_transfer_coefficient_chain_near_working_point():
    # With the closed Thomas-Fermi coefficient set (B = 72 reference trap),
    # c2*16M/(M-N0)^2 stays order unity around M = N0 +- sqrt(N0).
    B, nbar = 71.966, 1.0e5
    g01 = 2.0 * B / (7.0 * math.sqrt(6.0) * nbar)
    alpha2 = 5.586e-4  # TF moment at this B
    beta = (2.0 * B / (7.0 * nbar)) / (g01 * alpha2)
    coeffs = CouplingCoefficients(
        alpha2=alpha2,
        alpha3=3.641e-7,
        alpha4=2.9e-10,
        beta=beta,
        gamma=20.0 * B / (77.0 * nbar),
        mu1=0.5 * B + 63.0 / (4.0 * B),
        mu=0.5 * B,
        g01=g01,
        nbar=nbar,
    )
    for m in (round(nbar + math.sqrt(nbar)), round(nbar - math.sqrt(nbar))):
        law = oscillation_law(coeffs, m)
        ratio = law.c2 * 16.0 * m / (m - nbar) ** 2
        assert 0.5 < ratio < 2.0


def test_dominant_frequency():
    w = 2.547
    times = np.linspace(0.0, 2.0 * math.pi / w, 1024)
    signal = 1.2 * np.sin(w * times) ** 2 + 0.3
    assert dominant_frequency(times, signal) == pytest.approx(2.0 * w, rel=1e-3)
    with pytest.raises(InvalidParameterError):
        dominant_frequency(times[:4], signal[:4])
    with pytest.raises(InvalidParameterError):
        dominant_frequency(np.sqrt(times + 1.0), signal)
    # Zero spacing divided by zero and returned inf; decreasing times gave
    # the line with its sign flipped.
    for bad in (np.zeros(16), np.arange(16.0)[::-1]):
        with pytest.raises(InvalidParameterError, match="increasing"):
            dominant_frequency(bad, np.arange(16.0))
