"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line into
the terminal summary (see conftest), and enforces its runtime budget.  The
tolerances are pinned; a red criterion here means the implementation and the
pinned reference numbers disagree, not that the tolerance drifted.
"""

import math
import time

import numpy as np
import pytest

from bogodense import (
    ProtocolConfig,
    RadialField,
    RadialGrid,
    build_h01,
    decompose_mode1,
    fock_state,
    evolve_exact,
    integrate,
    laplacian,
    mean_n1_analytic,
    mean_n1_trace,
    oscillation_law,
    point_distribution,
    run_cycle,
    run_protocol,
    solve_bdg,
    two_point_distribution,
)

from oracles import dense_h01_oracle, dominant_frequency, solve_case, synthetic_coeffs

REPORT = []


def _report(k, ok, detail, elapsed):
    REPORT.append(
        f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail} [{elapsed:.1f}s]"
    )


def _finish(k, checks, t0, budget):
    """Record the report line, then enforce budget and every clause."""
    elapsed = time.perf_counter() - t0
    ok = all(dev <= tol for _, dev, tol in checks)
    detail = "; ".join(f"{name} {dev:.3g} (tol {tol:g})" for name, dev, tol in checks)
    _report(k, ok, detail, elapsed)
    assert elapsed <= budget, f"criterion {k} took {elapsed:.1f}s, budget {budget}s"
    for name, dev, tol in checks:
        assert dev <= tol, f"{name}: deviation {dev:.4g} exceeds tolerance {tol}"


def test_criterion_1_reference_coefficients(fig1):
    # Coefficients at the reference trap against their closed-form targets:
    # relative deviations for mu vs B/2 (5%), g*alpha2 vs (2/7)B/nbar,
    # g01 vs 2B/(7*sqrt(6)*nbar), gamma vs (20/77)B/nbar (10% each) and
    # mu1 - mu vs 63/(4B) (15%).
    #
    # The mu1 target follows from the defining integral (see
    # bogodense.modes.coefficients).  With u = xi0^2, expanding lap(xi0^3)
    # and integrating by parts once gives
    #     mu1 - mu = (beta^2/2) * integral(u * |grad u|^2).
    # On the Thomas-Fermi profile u = P*(1 - s^2), s = r/R, R^2 = 2*mu = B,
    # normalization gives 4*pi*P*R^3 = 15/2, the moments give
    # alpha2 = 4P/7 and alpha3 = 8P^2/21, so beta^2 = 147/(8*P^2), and
    # integral(u*|grad u|^2) = 32*pi*P^3*R/35 = (12/7)*P^2/B.  Hence
    # mu1 - mu = (147/16)*(12/7)/B = 63/(4B).
    t0 = time.perf_counter()
    dp, gm, co = fig1["dp"], fig1["gm"], fig1["coeffs"]
    B, nbar = dp.b_tf, dp.nbar
    checks = [
        ("mu/(B/2)", abs(gm.mu / (0.5 * B) - 1.0), 0.05),
        ("g*alpha2", abs(co.g_alpha2 / ((2.0 / 7.0) * B / nbar) - 1.0), 0.10),
        ("g01", abs(co.g01 / (2.0 * B / (7.0 * math.sqrt(6.0) * nbar)) - 1.0), 0.10),
        ("gamma", abs(co.gamma / ((20.0 / 77.0) * B / nbar) - 1.0), 0.10),
        ("mu1-mu", abs((co.mu1 - co.mu) / (63.0 / (4.0 * B)) - 1.0), 0.15),
    ]
    _finish(1, checks, t0, budget=60.0)


def test_criterion_2_exact_vs_analytic_trace(case1000):
    # nbar = M = 1000: the analytic oscillation law tracks the exact Fock
    # evolution over a full period within 15% of the oscillation amplitude,
    # and the strongest spectral line of the exact trace sits at 2*w'
    # within 2%.
    t0 = time.perf_counter()
    co = case1000["coeffs"]
    m_total = 1000
    law = oscillation_law(co, m_total)
    h = build_h01(co, m_total)
    period = 2.0 * math.pi / law.omega_prime
    times = np.linspace(0.0, period, 401)
    exact = mean_n1_trace(h, fock_state(m_total, 0), times)
    analytic = mean_n1_analytic(law, times)
    amplitude = max(law.c1 + 4.0 * law.c2, 1e-3)
    dev = float(np.max(np.abs(exact - analytic))) / amplitude
    long_times = np.linspace(0.0, 8.0 * period, 2048)
    long_trace = mean_n1_trace(h, fock_state(m_total, 0), long_times)
    freq = dominant_frequency(long_times, long_trace)
    freq_dev = abs(freq / (2.0 * law.omega_prime) - 1.0)
    checks = [
        ("max|exact-analytic|/amplitude", dev, 0.15),
        ("dominant freq vs 2w'", freq_dev, 0.02),
    ]
    _finish(2, checks, t0, budget=60.0)


def test_criterion_3_reference_oscillation_numbers(fig1):
    # Headline transfer numbers at the reference trap with M = nbar = 1e5:
    # w' within 10% and c1 within 25% of their Thomas-Fermi closed forms.
    #
    # At M = nbar the oscillation law reduces to w'^2 = D^2 + 2*G*D and
    # c1 = G^2 / w'^2, with D = mu1 - mu and G = gamma*nbar.  The TF values
    # are D = 63/(4B) (derived in criterion 1) and G = 20B/77, which at
    # B = 71.97 give w' = 2.87 and c1 = 42.5.
    t0 = time.perf_counter()
    B = fig1["dp"].b_tf
    d_tf = 63.0 / (4.0 * B)
    g_tf = 20.0 * B / 77.0
    omega_tf = math.sqrt(d_tf**2 + 2.0 * g_tf * d_tf)
    c1_tf = g_tf**2 / omega_tf**2
    law = oscillation_law(fig1["coeffs"], 100000)
    checks = [
        ("omega' vs TF", abs(law.omega_prime / omega_tf - 1.0), 0.10),
        ("c1 vs TF", abs(law.c1 / c1_tf - 1.0), 0.25),
    ]
    _finish(3, checks, t0, budget=10.0)


def test_criterion_4_single_cycle_removal():
    # Working point n0 = 400: the exact mean removal of one half-period
    # cycle from a point distribution at M = 380 and M = 420 agrees with
    # the analytic transfer 4*c2(M) within 50%.
    t0 = time.perf_counter()
    dp, grid, gm, m1, co = solve_case(400.0)
    cfg = ProtocolConfig(n0=400.0, coeffs=co, cycles=1, m_max=460)
    checks = []
    for m in (380, 420):
        law = oscillation_law(co, m)
        after = run_cycle(point_distribution(m, m_max=460), cfg)
        removal = m - after.mean()
        checks.append(
            (f"removal(M={m})/4c2", abs(removal / (4.0 * law.c2) - 1.0), 0.50)
        )
    _finish(4, checks, t0, budget=120.0)


def test_criterion_5_bimodal_selection(case100):
    # 800 cycles at n0 = 100 from an even 80/120 two-point start: the branch
    # above the working point is retained (mass 0.5 +- 0.1 in [90, 110]),
    # the branch below drains to small M, and the final distribution is
    # bimodal with an interior gap.
    t0 = time.perf_counter()
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=800, m_max=130)
    res = run_protocol(two_point_distribution(80, 120, m_max=130), cfg)
    summary = res.summary()
    probs = res.final.probabilities
    interior = slice(20, 81)
    k_min = 20 + int(np.argmin(probs[interior]))
    gap = probs[k_min]
    left_peak = probs[:k_min].max()
    right_peak = probs[k_min:].max()
    checks = [
        ("|retained-0.5|", abs(summary["retained_mass"] - 0.5), 0.10),
        ("gap/left-peak", gap / left_peak, 0.01),
        ("gap/right-peak", gap / right_peak, 0.01),
    ]
    _finish(5, checks, t0, budget=300.0)


def test_criterion_6_quasiparticle_decomposition(fig1):
    # Eight quasiparticle modes at the reference trap: the xi1 overlap
    # coefficients satisfy the sum rule within 0.05, the weight beyond the
    # second mode is below 0.05, and (|p1|, |q1|, |p2|) match the reference
    # values (1.755, 1.443, 0.986) within 20%.
    t0 = time.perf_counter()
    spec = solve_bdg(fig1["gm"], fig1["dp"], num_modes=8)
    dec = decompose_mode1(fig1["m1"], spec)
    tail = abs(float(np.sum(dec.p[2:] ** 2 - dec.q[2:] ** 2)))
    checks = [
        ("|sum rule - 1|", abs(dec.residual), 0.05),
        ("k>=3 weight", tail, 0.05),
        ("|p1| vs 1.755", abs(abs(dec.p[0]) / 1.755 - 1.0), 0.20),
        ("|q1| vs 1.443", abs(abs(dec.q[0]) / 1.443 - 1.0), 0.20),
        ("|p2| vs 0.986", abs(abs(dec.p[1]) / 0.986 - 1.0), 0.20),
    ]
    _finish(6, checks, t0, budget=300.0)


def test_criterion_7_infrastructure(case100, case1000):
    # Cross-cutting numerical guarantees: quadrature and Laplacian are
    # second/second order accurate (error ratio ~4 under grid halving), the
    # truncated two-mode Hamiltonian matches a brute-force operator build
    # for M <= 4, both propagation paths conserve the norm to 1e-8, the
    # depletion protocol conserves probability to 1e-9 over 200 cycles, and
    # the non-interacting limits come out exact (mu = 3/2, v = 0, w_k = 2k).
    t0 = time.perf_counter()
    checks = []

    # Quadrature order: 4*pi*int r^2 exp(-2r) dr = pi exactly.  The weighted
    # integrand vanishes with zero slope at both ends, so the halving order
    # can exceed two; the guarantee is "second order or better".
    errs = []
    for n in (400, 800):
        grid = RadialGrid(r_max=30.0, n_points=n)
        val = integrate(RadialField(grid, np.exp(-2.0 * grid.nodes)))
        errs.append(abs(val - math.pi))
    quad_order = math.log2(errs[0] / errs[1])
    checks.append(
        (f"quadrature order {quad_order:.2f} (need >= 1.8)", 1.8 - quad_order, 0.0)
    )

    # Laplacian order on the oscillator ground state.
    lap_errs = []
    for n in (800, 1600):
        grid = RadialGrid(r_max=10.0, n_points=n)
        f = RadialField(grid, np.exp(-0.5 * grid.nodes**2))
        exact = (grid.nodes**2 - 3.0) * f.values
        err = np.max(np.abs(laplacian(f).values[:-1] - exact[:-1]))
        lap_errs.append(err)
    lap_ratio = lap_errs[0] / lap_errs[1]
    checks.append(("laplacian order ratio in [3.4,4.6]", abs(lap_ratio - 4.0), 0.6))

    # Brute-force operator oracle for every M <= 4.
    generic = synthetic_coeffs(
        gamma=0.37, mu=1.91, mu1=2.53, g01=0.23, alpha2=0.17, nbar=2.6
    )
    worst = 0.0
    for m in (1, 2, 3, 4):
        dense = build_h01(generic, m).to_dense()
        oracle = dense_h01_oracle(generic, m)
        scale = max(1.0, np.max(np.abs(oracle)))
        worst = max(worst, np.max(np.abs(dense - oracle)) / scale)
    checks.append(("operator oracle M<=4", worst, 1e-12))

    # Norm conservation over one period, both propagation paths.
    co = case1000["coeffs"]
    law = oscillation_law(co, 1000)
    h = build_h01(co, 1000)
    period = 2.0 * math.pi / law.omega_prime
    s0 = fock_state(1000, 0)

    def norm2(state):
        return float(np.sum(np.abs(state.amplitudes) ** 2))

    w, v = h.eigensystem()  # the spectral trace's path
    spectral = v @ (np.exp(-1j * w * period) * v[0])
    drift_eig = abs(float(np.sum(np.abs(spectral) ** 2)) - 1.0)
    drift_cheb = abs(norm2(evolve_exact(h, s0, period)) - 1.0)
    checks.append(("norm drift (spectral)", drift_eig, 1e-8))
    checks.append(("norm drift (Chebyshev)", drift_cheb, 1e-8))

    # Probability conservation across 200 protocol cycles.
    cfg = ProtocolConfig(n0=100.0, coeffs=case100["coeffs"], cycles=200, m_max=115)
    res = run_protocol(two_point_distribution(85, 110, m_max=115), cfg)
    checks.append(
        ("protocol mass drift", abs(res.final.probabilities.sum() - 1.0), 1e-9)
    )

    # Non-interacting limits.
    dp0, grid0, gm0, m10, co0 = solve_case(30.0, n_points=1500, a_sc=0.0)
    checks.append(("free-gas mu - 3/2", abs(gm0.mu - 1.5), 1e-4))
    spec0 = solve_bdg(gm0, dp0, num_modes=4)
    vmax = max(np.max(np.abs(mode.v.values)) for mode in spec0.modes)
    checks.append(("free-gas max|v|", vmax, 1e-6))
    freq_dev = max(
        abs(om / (2.0 * k) - 1.0) for k, om in enumerate(spec0.frequencies, start=1)
    )
    checks.append(("free-gas w_k vs 2k", freq_dev, 0.02))

    _finish(7, checks, t0, budget=120.0)
