"""Quasiparticle spectrum tests: sparse solver, mode structure, decomposition."""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from bogodense import (
    EigensolverError,
    GroundMode,
    InvalidParameterError,
    RadialField,
    RadialGrid,
    decompose_mode1,
    integrate,
    project_orthogonal,
    solve_bdg,
    thomas_fermi_mode,
    to_dimensionless,
)
from bogodense.bdg import OMEGA_TOL, _operators

from oracles import reference_params, solve_case


@pytest.fixture(scope="module")
def fig1_spec(fig1):
    spec = solve_bdg(fig1["gm"], fig1["dp"], num_modes=8)
    dec = decompose_mode1(fig1["m1"], spec)
    return {"spec": spec, "dec": dec, **fig1}


def test_frequencies_positive_and_sorted(fig1_spec):
    om = fig1_spec["spec"].frequencies
    assert om.shape == (8,)
    assert np.all(om > OMEGA_TOL)
    assert np.all(np.diff(om) > 0)


def test_lowest_frequencies_near_hydrodynamic_values(fig1_spec):
    # Breathing-branch frequencies sqrt(2n^2 + 3n) for a strongly repulsive
    # isotropic condensate; finite interaction strength shifts them slightly.
    om = fig1_spec["spec"].frequencies
    for k, n in enumerate((1, 2, 3)):
        assert om[k] == pytest.approx(math.sqrt(2 * n * n + 3 * n), rel=1e-2)


def test_mode_normalization(fig1_spec):
    grid = fig1_spec["grid"]
    for mode in fig1_spec["spec"].modes:
        nrm = integrate(RadialField(grid, mode.u.values**2 - mode.v.values**2))
        assert nrm == pytest.approx(1.0, abs=1e-10)


def test_modes_orthogonal_to_ground_mode(fig1_spec):
    grid = fig1_spec["grid"]
    xi0 = fig1_spec["gm"].xi0.values
    for mode in fig1_spec["spec"].modes:
        assert abs(integrate(RadialField(grid, xi0 * mode.u.values))) < 1e-10
        assert abs(integrate(RadialField(grid, xi0 * mode.v.values))) < 1e-10


def test_symplectic_orthogonality_between_modes(fig1_spec):
    # int (u_k u_j - v_k v_j) vanishes for distinct non-degenerate modes.
    grid = fig1_spec["grid"]
    modes = fig1_spec["spec"].modes
    worst = 0.0
    for i, mi in enumerate(modes):
        for mj in modes[i + 1 :]:
            s = integrate(
                RadialField(grid, mi.u.values * mj.u.values - mi.v.values * mj.v.values)
            )
            worst = max(worst, abs(s))
    assert worst < 1e-6


def test_sign_convention(fig1_spec):
    for mode in fig1_spec["spec"].modes:
        u = mode.u.values
        assert u[np.argmax(np.abs(u))] > 0


def test_frequencies_stable_under_grid_refinement(fig1_spec):
    dp2, grid2, gm2, _, _ = solve_case(1.0e5, n_points=2000)
    spec2 = solve_bdg(gm2, dp2, num_modes=2)
    om_ref = fig1_spec["spec"].frequencies[:2]
    assert np.all(np.abs(spec2.frequencies / om_ref - 1.0) < 1e-3)


def test_sparse_solver_matches_dense_eigenproblem():
    # Coarse grid, so the full 2n x 2n non-symmetric eigenproblem is cheap.
    dp, grid, gm, _, _ = solve_case(1.0e4, n_points=360)
    m_minus, m_plus = _operators(gm, dp)
    L = 0.5 * (m_minus + m_plus).toarray()
    G = 0.5 * (m_plus - m_minus).toarray()
    big = np.block([[L, -G], [G, -L]])
    vals = np.linalg.eigvals(big)
    keep = (np.abs(vals.imag) < 1e-8) & (vals.real > OMEGA_TOL)
    dense = np.sort(vals.real[keep])[:4]
    spec = solve_bdg(gm, dp, num_modes=4)
    assert np.all(np.abs(spec.frequencies / dense - 1.0) < 1e-8)


def test_free_gas_limit():
    # Without interactions the spectrum is the bare oscillator ladder 2k
    # (even-parity s-wave states) and the v component vanishes identically.
    dp, grid, gm, m1, _ = solve_case(30.0, n_points=1500, a_sc=0.0)
    spec = solve_bdg(gm, dp, num_modes=5)
    for k, om in enumerate(spec.frequencies, start=1):
        assert om == pytest.approx(2.0 * k, rel=1e-3)
    for mode in spec.modes:
        assert np.max(np.abs(mode.v.values)) < 1e-6
    dec = decompose_mode1(m1, spec)
    assert np.max(np.abs(dec.q)) < 1e-6
    assert float(np.sum(dec.p**2)) == pytest.approx(1.0, abs=5e-3)


def test_mode1_decomposition_reference_scale(fig1_spec):
    dec = fig1_spec["dec"]
    assert abs(dec.p[0]) == pytest.approx(1.755, rel=0.2)
    assert abs(dec.q[0]) == pytest.approx(1.443, rel=0.2)
    assert abs(dec.p[1]) == pytest.approx(0.986, rel=0.2)
    assert 1.0 - dec.residual == pytest.approx(1.0, abs=0.02)  # the sum rule
    assert dec.residual == pytest.approx(0.0, abs=0.02)
    # Weight beyond the second mode is a small correction.
    tail = float(np.sum(dec.p[2:] ** 2 - dec.q[2:] ** 2))
    assert abs(tail) < 0.05


def test_decomposition_coefficients_are_overlaps(fig1_spec):
    grid = fig1_spec["grid"]
    xi1 = fig1_spec["m1"].xi1.values
    dec = fig1_spec["dec"]
    for k, mode in enumerate(fig1_spec["spec"].modes):
        p = integrate(RadialField(grid, xi1 * mode.u.values))
        q = integrate(RadialField(grid, xi1 * mode.v.values))
        assert dec.p[k] == pytest.approx(p, abs=1e-12)
        assert dec.q[k] == pytest.approx(q, abs=1e-12)


def test_energy_constant_negative_and_recomputable(fig1_spec):
    grid = fig1_spec["grid"]
    spec = fig1_spec["spec"]
    assert np.isfinite(spec.c_const)
    assert spec.c_const < 0.0
    single = -sum(
        m.omega * integrate(RadialField(grid, m.v.values**2)) for m in spec.modes
    )
    assert spec.c_const == pytest.approx(single, rel=1e-12)
    # The same sum taken with cross terms between distinct modes retained is
    # materially different: the v-components are far from mutually orthogonal.
    double = -sum(
        mk.omega * integrate(RadialField(grid, mj.v.values * mk.v.values))
        for mk in spec.modes
        for mj in spec.modes
    )
    assert np.isfinite(double)
    assert abs(double / single - 1.0) > 0.5


def test_project_orthogonal(fig1_spec):
    grid = fig1_spec["grid"]
    gm = fig1_spec["gm"]
    xi1 = fig1_spec["m1"].xi1
    # The condensate direction itself projects to zero.
    gone = project_orthogonal(gm.xi0, gm)
    assert np.max(np.abs(gone.values)) < 1e-10
    # Anything already orthogonal passes through unchanged.
    same = project_orthogonal(xi1, gm)
    assert np.max(np.abs(same.values - xi1.values)) < 1e-10
    # Mixtures lose exactly their condensate component.
    mix = RadialField(grid, gm.xi0.values + xi1.values)
    out = project_orthogonal(mix, gm)
    assert np.max(np.abs(out.values - xi1.values)) < 1e-10
    # Idempotent.
    again = project_orthogonal(out, gm)
    assert np.max(np.abs(again.values - out.values)) < 1e-13


def test_rejects_thomas_fermi_ground_mode(fig1):
    tf = thomas_fermi_mode(fig1["dp"], fig1["grid"])
    with pytest.raises(InvalidParameterError):
        solve_bdg(tf, fig1["dp"], num_modes=2)


def test_rejects_bad_mode_count(fig1):
    with pytest.raises(InvalidParameterError):
        solve_bdg(fig1["gm"], fig1["dp"], num_modes=0)


def _no_convergence(a, k, **kwargs):
    raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))


def _complex_pairs(a, k, **kwargs):
    # Eigenvalues whose imaginary parts match their real parts.
    return np.full(k, 2.0 + 2.0j), np.ones((a.shape[0], k), dtype=complex)


@pytest.mark.parametrize(
    "fake, message",
    [(_no_convergence, "Arnoldi iteration failed"), (_complex_pairs, "eigenvalues are not real")],
)
def test_unreliable_arnoldi_solve_refused(fig1, monkeypatch, fake, message):
    monkeypatch.setattr("bogodense.bdg.eigs", fake)
    with pytest.raises(EigensolverError, match=message) as err:
        solve_bdg(fig1["gm"], fig1["dp"], num_modes=2)
    assert err.value.category == "eigensolver-failure"


def test_grid_too_small_for_requested_modes():
    pp = reference_params(nbar=1.0, a_sc=0.0)
    dp = to_dimensionless(pp)
    grid = RadialGrid(r_max=8.0, n_points=16)
    psi = np.exp(-0.5 * grid.nodes**2)
    psi /= math.sqrt(integrate(RadialField(grid, psi**2)))
    gm = GroundMode(
        xi0=RadialField(grid, psi),
        mu=1.5,
        nbar=1.0,
        method="numeric",
        residual=0.0,
        iterations=0,
    )
    with pytest.raises(EigensolverError):
        solve_bdg(gm, dp, num_modes=15)
