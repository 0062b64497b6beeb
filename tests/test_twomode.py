import math
import tracemalloc

import numpy as np
import pytest

import bogodense.twomode as twomode
from bogodense import (
    CouplingCoefficients,
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
from bogodense.errors import InapplicableLawError, InvalidParameterError

from oracles import dense_h01_oracle, synthetic_coeffs


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
    band = h.to_banded_lower()
    assert band[0] == pytest.approx(np.diag(dense))
    assert band[1, :6] == pytest.approx(np.diag(dense, -1))
    assert band[2, :5] == pytest.approx(np.diag(dense, -2))


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


def test_diagonal_hamiltonian_preserves_occupations():
    co = synthetic_coeffs(mu=0.9, mu1=1.7, nbar=3.0)
    h = build_h01(co, 6)
    assert np.max(np.abs(h.off1)) == 0.0
    amps = np.arange(1.0, 8.0) + 0.0j
    amps /= math.sqrt(np.sum(np.abs(amps) ** 2))
    s = TwoModeState(6, amps)
    out = evolve_exact(h, s, 3.7)
    assert np.abs(out.amplitudes) == pytest.approx(np.abs(amps), abs=1e-12)


def test_norm_conservation_both_paths(case1000, monkeypatch):
    co = case1000["coeffs"]
    h = build_h01(co, 1000)
    law = oscillation_law(co, 1000)
    t = 2.0 * math.pi / law.omega_prime
    s_eig = evolve_exact(h, fock_state(1000, 0), t)
    assert abs(np.sum(np.abs(s_eig.amplitudes) ** 2) - 1.0) < 1e-10
    monkeypatch.setattr(twomode, "_EIG_LIMIT", 500)
    s_big = evolve_exact(h, fock_state(1000, 0), t)
    assert abs(np.sum(np.abs(s_big.amplitudes) ** 2) - 1.0) < 1e-10
    # total-number bookkeeping: <n0> + <n1> = M
    n = np.arange(1001.0)
    prob = np.abs(s_eig.amplitudes) ** 2
    total = float(np.sum((1000.0 - n) * prob) + np.sum(n * prob))
    assert abs(total - 1000.0) < 1e-8


def test_spectral_evolution_keeps_eigenvectors_real(case1000):
    # A complex operand would make numpy copy the 8 MB real eigenvector
    # matrix to a 16 MB complex one on each product.
    h = build_h01(case1000["coeffs"], 1000)
    h.eigensystem()
    s0 = fock_state(1000, 0)
    tracemalloc.start()
    try:
        evolve_exact(h, s0, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_large_branch_matches_eigensolution(case100, monkeypatch):
    co = case100["coeffs"]
    h = build_h01(co, 120)
    law = oscillation_law(co, 120)
    t = math.pi / law.omega_prime
    exact = evolve_exact(h, fock_state(120, 0), t)
    monkeypatch.setattr(twomode, "_EIG_LIMIT", 50)
    big = evolve_exact(h, fock_state(120, 0), t)
    assert np.max(np.abs(big.amplitudes - exact.amplitudes)) < 1e-10


def test_large_dimension_matches_dense_eigensolution():
    # Above the eigensolver limit a step-count heuristic once returned
    # <n1> = 565.5 for this case.  Reference-trap coefficients at
    # nbar = 1e4 (oracles.solve_case(1e4), pinned to full precision),
    # M = 5000, start |M,0>, t = pi/w'(1e4).  The pinned <n1> comes from a
    # one-off dense solve of the same Hamiltonian: scipy.linalg.eig_banded
    # on h.to_banded_lower() for all 5001 eigenpairs (w, v), amplitudes
    # v @ (exp(-i w t) * v[0]), <n1> = sum_n n |amp_n|^2.
    co = CouplingCoefficients(
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
    t = math.pi / oscillation_law(co, 10000).omega_prime
    s = evolve_exact(build_h01(co, 5000), fock_state(5000, 0), t)
    assert mean_n1(s) == pytest.approx(263.14163520628176, rel=1e-8)


def test_trace_fallback_path_matches(case100, monkeypatch):
    co = case100["coeffs"]
    law = oscillation_law(co, 120)
    times = np.linspace(0.0, 2.0 * math.pi / law.omega_prime, 40)
    ref = mean_n1_trace(build_h01(co, 120), fock_state(120, 0), times)
    # sample order must not matter
    idx = np.random.default_rng(1).permutation(times.size)
    shuffled = mean_n1_trace(build_h01(co, 120), fock_state(120, 0), times[idx])
    assert np.max(np.abs(shuffled - ref[idx])) == 0.0
    monkeypatch.setattr(twomode, "_EIG_LIMIT", 50)
    alt = mean_n1_trace(build_h01(co, 120), fock_state(120, 0), times)
    assert np.max(np.abs(ref - alt)) < 1e-10


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
    for m in (nbar + math.sqrt(nbar), nbar - math.sqrt(nbar)):
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
