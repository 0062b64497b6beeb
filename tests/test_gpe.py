import math
import os
import struct
import subprocess
import sys
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
    _tridiagonal,
    chemical_potential,
    imaginary_time_step,
    newton_step,
    residual_norm,
)

from oracles import gpe_residual, reference_params


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


@pytest.mark.parametrize("case", ["case100", "fig1"])
def test_tridiagonal_writer_is_the_applied_operator(request, case):
    # The factored operator tridiag(e, d, e) = H[xi0] - mu, applied to
    # w = r*xi0, is r*(H[xi0] - mu)xi0 as _apply_h evaluates it, to
    # round-off in units of max|d|*max|w|; so it is also the A - G of bdg,
    # which annihilates the ground mode up to the GPE residual.
    dp, grid, gm = (request.getfixturevalue(case)[k] for k in ("dp", "grid", "gm"))
    xi0, r = gm.xi0.values, grid.nodes
    w = r * xi0
    d, e = _tridiagonal(grid, dp.g * gm.nbar * xi0**2, gm.mu)
    tw = d * w
    tw[:-1] += e * w[1:]
    tw[1:] += e * w[:-1]
    hxi, mu = gpe._apply_h(dp, gm.xi0)
    assert mu == gm.mu
    ulp = np.finfo(float).eps * np.max(np.abs(d))
    assert np.max(np.abs(tw - r * (hxi - mu * xi0))) <= 4.0 * ulp * np.max(w)
    res = math.sqrt(integrate(RadialField(grid, (tw / r) ** 2)))
    assert res <= gm.residual + ulp


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


def test_convergence_error_carries_state(monkeypatch):
    # Too small a step budget (the round-off bound is 3.2e-12 here): the
    # error carries the last residual and the budget spent.
    dp = to_dimensionless(reference_params(1.0e5))
    grid = default_grid(dp, n_points=1000)
    monkeypatch.setattr(gpe, "_MAX_STEPS", 3)
    with pytest.raises(ConvergenceError, match="no convergence after 3 iterations") as err:
        solve_gpe(dp, grid)
    assert err.value.iterations == 3
    assert err.value.residual > 1e-11
    assert err.value.category == "convergence"


@pytest.mark.parametrize(
    "nbar, a_sc, n_points",
    [(1.0, 1e-8, 4000), (100.0, 1e-8, 4000), (1.0e4, 1e-8, 4000), (1.0e6, 1e-8, 4000),
     (100.0, 0.0, 800), (100.0, 0.0, 2000)],
    ids=["nbar1", "nbar100", "nbar1e4", "nbar1e6", "free800", "free2000"],
)
def test_residual_at_its_round_off_floor(nbar, a_sc, n_points):
    # The solve stops at 4 eps max|diag H| whatever the trap and grid, the
    # free gas's imaginary time included.
    dp = to_dimensionless(reference_params(nbar, a_sc=a_sc))
    grid = default_grid(dp, n_points=n_points)
    gm = solve_gpe(dp, grid)
    d = _tridiagonal(grid, dp.g * gm.nbar * gm.xi0.values**2)[0]
    floor = np.finfo(float).eps * np.max(d)
    assert gm.residual <= 4.0 * floor
    assert gpe_residual(gm, dp) <= 4.0 * floor


def test_a_converged_state_with_a_node_is_refused(monkeypatch):
    # Free gas: the second eigenvector of the discrete H is a stationary
    # state with one node and a round-off residual, so a Newton trial that
    # returns it is accepted and the loop stops; the sign check before the
    # clamp must refuse it instead of clamping it into a wrong mode.
    dp = to_dimensionless(reference_params(100.0, a_sc=0.0))
    grid = default_grid(dp, n_points=500)
    _, w = eigh_tridiagonal(*_tridiagonal(grid, 0.0), select="i", select_range=(1, 1))
    excited = w[:, 0] / grid.nodes
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


def _python_ptsv(d, e, b):
    """dptsv's operations in Python, in LAPACK's order: the dpttrf loop,
    then for each right-hand side dptts2's forward sweep, the division by
    the last pivot and the back sweep.  Returns dptsv's (x, info)."""
    d, e = d.tolist(), e.tolist()
    n = len(d)
    for i in range(n - 1):
        if d[i] <= 0.0:
            return b.copy(), i + 1
        ei = e[i]
        e[i] = ei / d[i]
        d[i + 1] = d[i + 1] - e[i] * ei
    if d[n - 1] <= 0.0:
        return b.copy(), n
    columns = []
    for x in b.reshape(n, -1).T.tolist():
        for i in range(1, n):
            x[i] = x[i] - x[i - 1] * e[i - 1]
        x[n - 1] = x[n - 1] / d[n - 1]
        for i in range(n - 2, -1, -1):
            x[i] = x[i] / d[i] - x[i + 1] * e[i]
        columns.append(x)
    return np.array(columns).T.reshape(b.shape), 0


@pytest.mark.parametrize("bad", ["none", "middle", "last"])
@pytest.mark.parametrize("nrhs", [None, 2])
@pytest.mark.parametrize("n", [2, 16, 4000])
def test_ptsv_python_path_matches_dptsv(monkeypatch, n, nrhs, bad):
    # gpe.dptsv is scipy's dptsv, loaded without scipy.linalg; an LDL^T written
    # in Python in LAPACK's order gives the same bits and the same refusal.
    index = {"none": None, "middle": n // 2, "last": n - 1}[bad]
    d, e, b = _spd_system(n, nrhs, index, seed=n + 7 * (nrhs or 1))
    _, _, want, want_info = dptsv(d, e, b)
    assert want_info == (0 if index is None else index + 1)
    assert gpe.dptsv is dptsv
    _, _, got, info = gpe.dptsv(d, e, b)
    assert info == want_info and np.array_equal(got, want)
    monkeypatch.delitem(sys.modules, "scipy.linalg")
    _, _, got, info = gpe.dptsv(d, e, b)
    assert "scipy.linalg" not in sys.modules
    assert info == want_info and np.array_equal(got, want)
    python, python_info = _python_ptsv(d, e, b)
    assert python_info == want_info
    assert python.shape == want.shape and np.array_equal(python, want)


def _bits(gm):
    floats = (gm.mu, gm.nbar, gm.residual)
    return gm.xi0.values.tobytes(), struct.pack("3d", *floats), gm.method, gm.iterations


# Solves the ground mode in a fresh interpreter that loads no scipy package
# and prints its bits, as hex, and the scipy modules then loaded.
_FRESH_SOLVE = """\
import struct, sys
from bogodense import default_grid, solve_gpe, to_dimensionless
from oracles import reference_params
dp = to_dimensionless(reference_params(float(sys.argv[1])))
gm = solve_gpe(dp, default_grid(dp))
print(gm.xi0.values.tobytes().hex())
print(struct.pack("3d", gm.mu, gm.nbar, gm.residual).hex(), gm.method, gm.iterations)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("nbar", [100.0, 1.0e5])
def test_solve_gpe_bits_do_not_depend_on_the_solver_path(nbar):
    # The ground solve has one path, dptsv, whether or not scipy.linalg was
    # imported first: here it was, and a fresh interpreter that loads only
    # scipy's LAPACK extension gives the goldens the same mode.
    dp = to_dimensionless(reference_params(nbar))
    lapack = _bits(solve_gpe(dp, default_grid(dp)))
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SOLVE, repr(nbar)], env=env, capture_output=True, check=True
    )
    values, floats, loaded = proc.stdout.decode().splitlines()
    assert loaded == "['scipy.linalg._flapack']"
    floats, method, iterations = floats.split()
    fresh = (bytes.fromhex(values), bytes.fromhex(floats), method, int(iterations))
    assert fresh == lapack


# Loads gpe before scipy.linalg, then reaches LAPACK through scipy.
_GPE_THEN_SCIPY = """\
import sys
from bogodense import gpe
import scipy.linalg
from scipy.linalg import _flapack
print(_flapack is sys.modules["scipy.linalg._flapack"])
print(scipy.linalg.lapack.get_lapack_funcs(("ptsv",), dtype=float)[0] is gpe.dptsv)
"""


def test_scipy_linalg_after_gpe_reuses_its_lapack_module():
    # gpe registers _flapack before scipy.linalg runs its __init__, which
    # then leaves the package attribute unset; the import statement and
    # scipy's own LAPACK lookup still reach the one module gpe loaded.
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(tests), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _GPE_THEN_SCIPY], env=env, capture_output=True, check=True
    )
    assert proc.stdout.decode().split() == ["True", "True"]


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
    gm = solve_gpe(dp, grid)
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
