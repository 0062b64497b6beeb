import math
import struct
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dptsv

from bogodense import (
    DimensionlessParams,
    RadialField,
    RadialGrid,
    default_grid,
    gpe_residual,
    integrate,
    solve_gpe,
    thomas_fermi_mode,
    gpe,
    to_dimensionless,
)
from bogodense.errors import (
    ConvergenceError,
    IntegratorFailureError,
    InvalidParameterError,
    UnsupportedRegimeError,
)
from bogodense.gpe import (
    GroundMode,
    _initial_guess,
    _ptsv,
    chemical_potential,
    imaginary_time_step,
    newton_step,
    residual_norm,
)

from oracles import reference_params


def test_free_gas_ground_state():
    dp = to_dimensionless(reference_params(1.0e4, a_sc=0.0))
    grid = default_grid(dp, n_points=2000)
    gm = solve_gpe(dp, grid)
    assert abs(gm.mu - 1.5) < 1e-4
    gauss = np.pi**-0.75 * np.exp(-0.5 * grid.nodes**2)
    assert np.max(np.abs(gm.xi0.values - gauss)) < 1e-4
    assert gm.method == "numeric"
    assert gm.residual <= 1e-8


def test_reference_chemical_potential(fig1):
    gm, dp = fig1["gm"], fig1["dp"]
    mu_tf = 0.5 * dp.b_tf
    assert abs(gm.mu - mu_tf) / mu_tf < 0.05
    assert gm.mu > mu_tf  # boundary-layer correction is positive
    # peak density against the inverted-parabola value mu/(nbar*g)
    peak = gm.xi0.values[0] ** 2
    tf_peak = mu_tf / (dp.nbar * dp.g)
    assert abs(peak - tf_peak) / tf_peak < 0.05


def test_normalization_and_nonnegativity(fig1):
    gm = fig1["gm"]
    norm = integrate(RadialField(gm.xi0.grid, gm.xi0.values**2))
    assert abs(norm - 1.0) < 1e-6
    assert np.min(gm.xi0.values) >= 0.0


def test_residual_at_tolerance(fig1):
    gm, dp = fig1["gm"], fig1["dp"]
    assert gpe_residual(gm, dp) <= 1e-8
    # The residual is taken at the mode's own nbar, whatever dp carries.
    assert gpe_residual(gm, replace(dp, nbar=2.0 * dp.nbar)) == gpe_residual(gm, dp)


def test_residual_discretization_floor():
    dp = to_dimensionless(reference_params(10.0, a_sc=0.0))
    grid = default_grid(dp, n_points=1000)
    gaussian = np.pi**-0.75 * np.exp(-0.5 * grid.nodes**2)
    res = residual_norm(dp, RadialField(grid, gaussian))
    # sampled Gaussian on h = 8e-3: pure O(h^2) floor
    assert 0.0 < res < 1e-3


def test_thomas_fermi_profile():
    dp = to_dimensionless(reference_params(1.0e5))
    grid = default_grid(dp, n_points=4000)
    tf = thomas_fermi_mode(dp, grid)
    assert tf.mu == pytest.approx(0.5 * dp.b_tf)
    assert tf.method == "thomas_fermi"
    radius = math.sqrt(2.0 * tf.mu)
    assert radius == pytest.approx(8.49, abs=0.02)
    assert tf.xi0.values[0] ** 2 == pytest.approx(9.78e-4, rel=2e-3)
    outside = grid.nodes >= radius
    assert np.all(tf.xi0.values[outside] == 0.0)
    # residual is finite (kinetic term ignored by the profile), just recorded
    assert gpe_residual(tf, dp) > 0.0


def test_thomas_fermi_mu_scales_with_b():
    # b_tf ~ nbar^(2/5): scaling nbar by 2^(5/2) doubles B and hence mu_TF.
    dp = to_dimensionless(reference_params(1.0e5))
    doubled = to_dimensionless(reference_params(1.0e5 * 2.0**2.5))
    assert doubled.b_tf == pytest.approx(2.0 * dp.b_tf, rel=1e-12)
    grid = default_grid(doubled, n_points=2000)
    assert thomas_fermi_mode(doubled, grid).mu == pytest.approx(dp.b_tf, rel=1e-12)


def test_thomas_fermi_needs_interaction():
    dp = to_dimensionless(reference_params(100.0, a_sc=0.0))
    with pytest.raises(UnsupportedRegimeError):
        thomas_fermi_mode(dp, default_grid(dp, n_points=500))


def test_attractive_rejected():
    dp = to_dimensionless(reference_params(100.0))
    bad = DimensionlessParams(r0=dp.r0, g=-dp.g, b_tf=dp.b_tf, nbar=dp.nbar)
    with pytest.raises(UnsupportedRegimeError):
        solve_gpe(bad, default_grid(dp, n_points=500))


def test_convergence_error_carries_state():
    # A reachable tol (the round-off floor is 8.0e-13 here) with too
    # small a step budget: the error carries the last residual and the
    # budget spent.
    dp = to_dimensionless(reference_params(1.0e5))
    grid = default_grid(dp, n_points=1000)
    with pytest.raises(ConvergenceError) as err:
        solve_gpe(dp, grid, tol=1e-11, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.residual > 1e-11
    assert err.value.category == "convergence"


def test_tolerance_below_the_round_off_floor_is_refused():
    # The residual does not fall far below eps * max|diag H| (5.6e-11 on
    # this grid, reached ~2e-11); a tol under it used to spend the whole
    # step budget (33 s at 1e-12).
    dp = to_dimensionless(reference_params(100.0))
    grid = default_grid(dp)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as err:
        solve_gpe(dp, grid, tol=1e-14)
    assert time.perf_counter() - start < 0.5
    assert err.value.iterations == 0
    assert "round-off floor 5.552e-11" in str(err.value)
    # Just above the floor the solve converges.
    assert solve_gpe(dp, grid, tol=5.6e-11).residual <= 5.6e-11


def test_a_converged_state_with_a_node_is_refused(monkeypatch):
    # Free gas: the second eigenvector of the discrete H is a stationary
    # state with one node and a round-off residual, so a Newton trial that
    # returns it is accepted and the loop stops; the sign check before the
    # clamp must refuse it instead of clamping it into a wrong mode.
    dp = to_dimensionless(reference_params(100.0, a_sc=0.0))
    grid = default_grid(dp, n_points=500)
    r, h = grid.nodes, grid.h
    diag, off = 1.0 / h**2 + 0.5 * r**2, np.full(grid.n_points - 1, -0.5 / h**2)
    _, w = eigh_tridiagonal(diag, off, select="i", select_range=(1, 1))
    excited = w[:, 0] / r
    excited /= math.sqrt(integrate(RadialField(grid, excited**2)))
    assert residual_norm(dp, RadialField(grid, excited)) < 1e-8
    monkeypatch.setattr(gpe, "newton_step", lambda *args: excited)
    with pytest.raises(ConvergenceError, match="has a node") as err:
        solve_gpe(dp, grid)
    assert err.value.iterations == 1


def _spd_system(n, nrhs, bad, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n - 1)
    d = np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]) + rng.random(n) + 0.1
    if bad is not None:
        d[bad] = -d[bad]  # that pivot goes non-positive
    b = rng.standard_normal(n if nrhs is None else (n, nrhs))
    return d, e, b


@pytest.mark.parametrize("bad", ["none", "middle", "last"])
@pytest.mark.parametrize("nrhs", [None, 2])
@pytest.mark.parametrize("n", [2, 16, 4000])
def test_ptsv_python_path_matches_dptsv(monkeypatch, n, nrhs, bad):
    index = {"none": None, "middle": n // 2, "last": n - 1}[bad]
    d, e, b = _spd_system(n, nrhs, index, seed=n + 7 * (nrhs or 1))
    _, _, want, want_info = dptsv(d, e, b)
    assert want_info == (0 if index is None else index + 1)
    got, info = _ptsv(d, e, b)
    assert info == want_info and np.array_equal(got, want)
    monkeypatch.delitem(sys.modules, "scipy.linalg")
    got, info = _ptsv(d, e, b)
    assert "scipy.linalg" not in sys.modules  # the Python path ran
    assert info == want_info
    assert got.shape == want.shape and np.array_equal(got, want)


def _bits(gm):
    floats = (gm.mu, gm.nbar, gm.residual)
    return gm.xi0.values.tobytes(), struct.pack("3d", *floats), gm.method, gm.iterations


@pytest.mark.parametrize("nbar", [100.0, 1.0e5])
def test_solve_gpe_bits_do_not_depend_on_the_solver_path(monkeypatch, nbar):
    # Whichever of LAPACK's dptsv and the Python LDL^T runs (it depends on
    # whether scipy.linalg was imported first), the goldens see the same mode.
    dp = to_dimensionless(reference_params(nbar))
    grid = default_grid(dp)
    lapack = solve_gpe(dp, grid)
    monkeypatch.delitem(sys.modules, "scipy.linalg")
    python = solve_gpe(dp, grid)
    assert "scipy.linalg" not in sys.modules
    assert _bits(python) == _bits(lapack)


def test_energy_monotone_under_imaginary_time():
    dp = to_dimensionless(reference_params(1.0e4))
    grid = default_grid(dp, n_points=1500)

    def energy(values):
        """GP energy functional, mu - (g*nbar/2) integral(xi^4)."""
        mu = chemical_potential(dp, RadialField(grid, values))
        return mu - 0.5 * dp.g * dp.nbar * integrate(RadialField(grid, values**4))

    values = np.pi**-0.75 * np.exp(-0.5 * grid.nodes**2)
    values /= math.sqrt(integrate(RadialField(grid, values**2)))
    energies = [energy(values)]
    for _ in range(60):
        values = imaginary_time_step(dp, grid, values, 0.02)
        energies.append(energy(values))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10)
    assert energies[-1] < energies[0]


@pytest.mark.parametrize("nbar", [1.0, 100.0, 1.0e4, 1.0e6])
def test_newton_converges_in_few_iterations(nbar):
    # Imaginary time alone needs 280-370 steps on these grids.
    dp = to_dimensionless(reference_params(nbar))
    gm = solve_gpe(dp, default_grid(dp))
    assert gm.residual <= 1e-8
    assert gm.iterations <= 20


@pytest.mark.parametrize("nbar", [100.0, 1.0e4, 1.0e5])
def test_matches_tightly_converged_imaginary_time(nbar):
    # Independent oracle: backward-Euler imaginary time alone, run well past
    # the default tolerance.  Imaginary time stopped at 1e-8 is ~1.5e-9 off.
    dp = to_dimensionless(reference_params(nbar))
    grid = default_grid(dp, n_points=1000)
    values = np.pi**-0.75 * np.exp(-0.5 * grid.nodes**2)
    values /= math.sqrt(integrate(RadialField(grid, values**2)))
    for _ in range(20000):
        if residual_norm(dp, RadialField(grid, values)) <= 1e-10:
            break
        values = imaginary_time_step(dp, grid, values, 0.02)
    ref = RadialField(grid, values)
    assert residual_norm(dp, ref) <= 1e-10
    ref_mu = chemical_potential(dp, ref)
    gm = solve_gpe(dp, grid)
    assert np.max(np.abs(gm.xi0.values - values)) <= 1e-9 * np.max(np.abs(values))
    assert abs(gm.mu - ref_mu) <= 1e-10 * ref_mu


def test_imaginary_time_runs_until_the_jacobian_is_positive_definite():
    # From the Thomas-Fermi guess at nbar = 100 the Jacobian is indefinite,
    # so dptsv refuses the Newton step and an imaginary-time block runs.
    dp = to_dimensionless(reference_params(100.0))
    grid = default_grid(dp)
    assert newton_step(dp, grid, _initial_guess(dp, grid)) is None
    gm = solve_gpe(dp, grid)
    assert gm.residual <= 1e-8
    assert 10 < gm.iterations <= 20
    # At nbar = 1e5 the same guess already gives an accepted Newton step.
    dp = to_dimensionless(reference_params(1.0e5))
    grid = default_grid(dp)
    guess = _initial_guess(dp, grid)
    step = newton_step(dp, grid, guess)
    assert step is not None
    assert residual_norm(dp, RadialField(grid, step)) < residual_norm(
        dp, RadialField(grid, guess)
    )


def test_newton_trial_that_raises_the_residual_is_refused(monkeypatch):
    # Every trial returns the initial guess, whose residual is larger than
    # that of any later iterate: the solve must run on imaginary time alone.
    dp = to_dimensionless(reference_params(100.0))
    grid = default_grid(dp, n_points=1000)
    guess = _initial_guess(dp, grid)
    monkeypatch.setattr(gpe, "newton_step", lambda *args: guess)
    gm = solve_gpe(dp, grid, max_iter=2000)
    assert gm.residual <= 1e-8
    assert gm.iterations % 10 == 0 and gm.iterations > 100


def test_imaginary_time_refusal_is_categorized():
    # A negative step makes the backward-Euler matrix indefinite.
    dp = to_dimensionless(reference_params(100.0))
    grid = default_grid(dp, n_points=500)
    with pytest.raises(IntegratorFailureError) as err:
        imaginary_time_step(dp, grid, _initial_guess(dp, grid), -1.0)
    assert err.value.category == "integrator-failure"


def test_mu_monotone_in_nbar():
    mus = []
    for nbar in (1.0e3, 1.0e4, 1.0e5):
        dp = to_dimensionless(reference_params(nbar))
        mus.append(solve_gpe(dp, default_grid(dp, n_points=1500)).mu)
    assert mus[0] < mus[1] < mus[2]


def test_mu_approaches_tf_from_above():
    ratios = []
    for nbar in (1.0e3, 1.0e4, 1.0e5):
        dp = to_dimensionless(reference_params(nbar))
        gm = solve_gpe(dp, default_grid(dp, n_points=1500))
        ratios.append(gm.mu / (0.5 * dp.b_tf))
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_ground_mode_validation():
    grid = RadialGrid(r_max=8.0, n_points=500)
    gauss = np.pi**-0.75 * np.exp(-0.5 * grid.nodes**2)
    with pytest.raises(InvalidParameterError):
        GroundMode(
            xi0=RadialField(grid, 2.0 * gauss),
            mu=1.5,
            nbar=10.0,
            method="numeric",
            residual=0.0,
            iterations=0,
        )
    with pytest.raises(InvalidParameterError):
        GroundMode(
            xi0=RadialField(grid, gauss),
            mu=1.5,
            nbar=10.0,
            method="variational",
            residual=0.0,
            iterations=0,
        )
