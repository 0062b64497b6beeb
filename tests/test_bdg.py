"""Quasiparticle spectrum tests: banded solver, mode structure, decomposition."""

import math

import numpy as np
import pytest

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
from bogodense.bdg import EIGEN_RESIDUAL_TOL, _band_mul, _operators, _row_sum_norm
from bogodense.gpe import (
    _DTAU,
    _initial_guess,
    chemical_potential,
    imaginary_time_step,
    residual_norm,
)

from oracles import reference_params, solve_case


@pytest.fixture(scope="module")
def fig1_spec(fig1):
    spec = solve_bdg(fig1["gm"], fig1["dp"], num_modes=8)
    dec = decompose_mode1(fig1["m1"], spec)
    return {"spec": spec, "dec": dec, **fig1}


def test_frequencies_positive_and_sorted(fig1_spec):
    om = fig1_spec["spec"].frequencies
    assert om.shape == (8,)
    assert np.all(om > 1e-3)
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


@pytest.fixture(scope="module")
def coarse():
    """nbar = 1e4 on 360 points, where dense 2n x 2n eigensolves are cheap."""
    dp, grid, gm, _, _ = solve_case(1.0e4, n_points=360)
    minus, plus = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in _operators(gm, dp))
    return {"spec": solve_bdg(gm, dp, num_modes=4), "minus": minus, "plus": plus}


def _dense_frequencies(big, count):
    # The zero mode is a Jordan block that rounding splits into a pair near
    # |omega| = 1e-6 or less (5e-8 to 1.5e-6 on 24 to 360 points).
    vals = np.linalg.eigvals(big)
    keep = (np.abs(vals.imag) < 1e-8) & (vals.real > 1e-3)
    return np.sort(vals.real[keep])[:count]


def _first_order_matrix(gm, dp):
    """The dense [[0, A+G], [A-G, 0]] acting on (s, d)."""
    minus, plus = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in _operators(gm, dp))
    zero = np.zeros_like(plus)
    return np.block([[zero, plus], [minus, zero]])


def test_sparse_solver_matches_dense_eigenproblem(coarse):
    # The full non-symmetric eigenproblem in (u, v) form.
    L = 0.5 * (coarse["minus"] + coarse["plus"])
    G = 0.5 * (coarse["plus"] - coarse["minus"])
    dense = _dense_frequencies(np.block([[L, -G], [G, -L]]), 4)
    assert np.all(np.abs(coarse["spec"].frequencies / dense - 1.0) < 1e-8)


def test_frequencies_match_dense_first_order_system(coarse):
    # [[0, A+G], [A-G, 0]] acting on (s, d) = (w_u + w_v, w_u - w_v).
    zero = np.zeros_like(coarse["plus"])
    big = np.block([[zero, coarse["plus"]], [coarse["minus"], zero]])
    dense = _dense_frequencies(big, 4)
    assert np.all(np.abs(coarse["spec"].frequencies / dense - 1.0) < 1e-10)


@pytest.mark.parametrize("n_points", [24, 40])
def test_every_served_mode_count_matches_dense_on_small_grids(n_points):
    # A block that fills the zero mode's complement must neither bring the
    # zero mode back (omega <= 0) nor reach a math domain error: every
    # count the size guard accepts is the dense spectrum.  On 40 points the
    # start omega of some modes is the eigenvalue to every digit, so the
    # shifted first-order matrix is exactly singular; a start that already
    # meets its bound takes no step and is served.
    for nbar in (100.0, 1000.0):
        dp, _, gm, _, _ = solve_case(nbar, n_points=n_points)
        dense = _dense_frequencies(_first_order_matrix(gm, dp), n_points)
        for num_modes in range(1, n_points - 5):
            om = solve_bdg(gm, dp, num_modes=num_modes).frequencies
            assert np.all(om > 0.0)
            assert np.all(np.abs(om / dense[:num_modes] - 1.0) < 1e-10), (nbar, num_modes)
        with pytest.raises(EigensolverError, match="cannot resolve"):
            solve_bdg(gm, dp, num_modes=n_points - 5)


def test_fine_grid_serves_every_mode():
    # At 12000 points the subspace tolerance 1e-12*||S|| is about 20, so a
    # search that kept the zero mode would read <s,(A-G)s> ~ 3e-6 for it.
    # Projected out, it never reaches the refinement, where it has no
    # eigenvector, and all eight omega converge with the grid.
    dp, _, gm, _, _ = solve_case(10.0, n_points=12000, a_sc=1e-9)
    fine = solve_bdg(gm, dp, num_modes=8).frequencies
    dp, _, gm, _, _ = solve_case(10.0, n_points=6000, a_sc=1e-9)
    coarse = solve_bdg(gm, dp, num_modes=8).frequencies
    assert fine.shape == (8,)
    assert np.all(np.abs(fine / coarse - 1.0) < 1e-5)


def test_loosely_converged_ground_mode_served(fig1_spec):
    # Imaginary time from the initial guess, stopped at a residual of 3e-3
    # (77 steps): r*xi0 is a null vector of A - G only to that residual.
    # Taking y0 out of S times the block as well as out of the block keeps
    # the subspace iteration converging; omega_1 moves with the ground mode,
    # by about 0.37 times the residual.
    dp, grid = fig1_spec["dp"], fig1_spec["grid"]
    values = _initial_guess(dp, grid)
    while residual_norm(dp, RadialField(grid, values)) > 3e-3:
        values = imaginary_time_step(dp, grid, values, _DTAU)
    xi0 = RadialField(grid, values)
    gm = GroundMode(
        xi0=xi0,
        mu=chemical_potential(dp, xi0),
        nbar=dp.nbar,
        method="numeric",
        residual=residual_norm(dp, xi0),
        iterations=0,
    )
    om = solve_bdg(gm, dp, num_modes=8).frequencies
    assert om.shape == (8,)
    assert om[0] == pytest.approx(fig1_spec["spec"].frequencies[0], rel=2e-3)


def test_residual_bound_follows_round_off_floor():
    # At 32000 points the refined residuals exceed the fixed tolerance but
    # stay within the floor bound 32 u ||K||_inf / omega, at nbar = 100 and
    # at the CLI default nbar = 1e5, where mode 8 needs three steps.
    for nbar in (100.0, 1.0e5):
        dp, _, gm, _, _ = solve_case(nbar, n_points=32000)
        spec = solve_bdg(gm, dp, num_modes=8)
        knorm = max(_row_sum_norm(op) for op in _operators(gm, dp))
        assert max(m.residual for m in spec.modes) > EIGEN_RESIDUAL_TOL
        for mode in spec.modes:
            assert 0.0 <= mode.residual <= 32 * 2.0**-53 * knorm / mode.omega


def test_single_mode_on_a_fine_grid_matches_the_eight_mode_solve():
    # One wanted mode on 16000 points: its Ritz vector starts further from
    # the eigenvector than in a wider block, so refinement takes three steps.
    dp, _, gm, _, _ = solve_case(100.0, n_points=16000)
    one = solve_bdg(gm, dp, num_modes=1).frequencies
    eight = solve_bdg(gm, dp, num_modes=8).frequencies
    assert one.shape == (1,)
    assert one[0] == pytest.approx(eight[0], rel=1e-9)


def test_printed_modes_satisfy_first_order_system(fig1_spec):
    # Each mode's reported residual is within the tolerance, and the printed
    # (u, v, omega) solve the first-order system projected orthogonal to
    # the ground mode (Castin & Dum) to the same tolerance.
    gm, dp, grid = fig1_spec["gm"], fig1_spec["dp"], fig1_spec["grid"]
    minus, plus = _operators(gm, dp)
    r = grid.nodes
    w0 = r * gm.xi0.values / np.linalg.norm(r * gm.xi0.values)

    def proj(x):
        return x - (w0 @ x) * w0

    for mode in fig1_spec["spec"].modes:
        assert 0.0 <= mode.residual <= EIGEN_RESIDUAL_TOL
        s = r * (mode.u.values + mode.v.values)
        d = r * (mode.u.values - mode.v.values)
        rs = proj(_band_mul(plus, proj(d))) - mode.omega * s
        rd = proj(_band_mul(minus, proj(s))) - mode.omega * d
        rel = math.sqrt((rs @ rs + rd @ rd) / (s @ s + d @ d)) / mode.omega
        assert rel <= EIGEN_RESIDUAL_TOL


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


def _indefinite(d, e):
    # dpttrf's answer when the fifth pivot of A + G is not positive.
    return d, e, 5


def _singular(ab, b, uplo):
    # dtbtrs's answer when the third diagonal entry of L is zero.
    return b, 3


def _no_progress(kl, ku, ab, b):
    # A refinement step that leaves x where it was.
    return ab, None, b, 0


def _zero_vectors(bands, wanted, y0):
    # A subspace of zero vectors, for which <s, (A - G) s> = 0.
    return np.zeros((bands[0].size, wanted))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("_MAX_SWEEPS", 1, "subspace iteration did not converge in 1 sweeps"),
        # The start misses its bound at the golden input, so one step runs.
        ("dgbsv", _no_progress, "did not halve its relative residual"),
        ("dpttrf", _indefinite, "A \\+ G is not positive definite \\(dpttrf info 5\\)"),
        ("dtbtrs", _singular, "dtbtrs info 3"),
        ("_lowest_vectors", _zero_vectors, "not positive"),
    ],
    ids=["sweep-cap", "residual", "dpttrf", "dtbtrs", "zero-ritz-value"],
)
def test_unreliable_eigensolve_refused(fig1, monkeypatch, name, value, message):
    monkeypatch.setattr(f"bogodense.bdg.{name}", value)
    with pytest.raises(EigensolverError, match=message) as err:
        solve_bdg(fig1["gm"], fig1["dp"], num_modes=2)
    assert err.value.category == "eigensolver-failure"


def _gaussian_mode(n_points, nbar):
    """A hand-made ground mode: the unit-width Gaussian with mu = 1.5."""
    grid = RadialGrid(r_max=8.0, n_points=n_points)
    psi = np.exp(-0.5 * grid.nodes**2)
    psi /= math.sqrt(integrate(RadialField(grid, psi**2)))
    return GroundMode(
        xi0=RadialField(grid, psi),
        mu=1.5,
        nbar=nbar,
        method="numeric",
        residual=0.0,
        iterations=0,
    )


def test_grid_too_small_for_requested_modes():
    dp = to_dimensionless(reference_params(nbar=1.0, a_sc=0.0))
    with pytest.raises(EigensolverError):
        solve_bdg(_gaussian_mode(16, 1.0), dp, num_modes=15)


def test_ground_mode_off_the_gp_equation_refused():
    # A Gaussian is no solution of the GP equation at nbar = 100, so r*xi0
    # is not a null vector of A - G and the projected search cannot settle.
    dp = to_dimensionless(reference_params(nbar=100.0))
    with pytest.raises(EigensolverError, match="may not solve the GP equation"):
        solve_bdg(_gaussian_mode(400, 100.0), dp, num_modes=8)
