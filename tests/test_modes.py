import math

import numpy as np
import pytest

from bogodense import (
    RadialField,
    RadialGrid,
    build_xi1,
    coefficients,
    default_grid,
    integrate,
    laplacian,
    moment,
    solve_gpe,
    to_dimensionless,
)
from bogodense.errors import DegenerateModeError
from bogodense.gpe import GroundMode, thomas_fermi_mode

from oracles import reference_params, solve_case


def test_alpha1_is_one(fig1):
    assert moment(fig1["gm"], 1) == pytest.approx(1.0, abs=1e-6)


def test_gaussian_moments_closed_form():
    # For the oscillator ground state, alpha_n = n^(-3/2) * pi^(-3(n-1)/2).
    dp, grid, gm, m1, co = solve_case(50.0, n_points=3000, a_sc=0.0)
    assert co.alpha2 == pytest.approx((2.0 * math.pi) ** -1.5, rel=1e-4)
    assert co.alpha3 == pytest.approx(3.0**-1.5 * math.pi**-3, rel=1e-4)
    assert co.alpha4 == pytest.approx(0.125 * math.pi**-4.5, rel=1e-4)
    assert co.beta == pytest.approx(
        (co.alpha3 - co.alpha2**2) ** -0.5, rel=1e-12
    )


def test_free_gas_couplings_vanish():
    dp, grid, gm, m1, co = solve_case(50.0, n_points=2000, a_sc=0.0)
    assert co.gamma == 0.0
    assert co.g01 == 0.0
    assert co.g == 0.0


def test_free_gas_mu1_closed_form():
    # g = 0 lets the kinetic integral be done in closed form:
    # mu1 - mu = beta^2 * alpha3 = alpha3 / (alpha3 - alpha2^2).
    dp, grid, gm, m1, co = solve_case(50.0, n_points=3000, a_sc=0.0)
    oracle = co.alpha3 / (co.alpha3 - co.alpha2**2)
    assert (co.mu1 - co.mu) == pytest.approx(oracle, rel=1e-4)


def test_tf_moments_match_beta_function_integrals():
    # On the inverted-parabola profile, alpha_n reduces to
    # 4*pi*(mu/(nbar*g))^n * R^3 * Gamma(3/2)*Gamma(n+1) / (2*Gamma(n+5/2)),
    # and the kinetic-mismatch integral to mu1 - mu = 63/(4B) (derivation in
    # test_acceptance.test_criterion_1_reference_coefficients).
    dp = to_dimensionless(reference_params(1.0e5))
    grid = default_grid(dp, n_points=20000)
    tf = thomas_fermi_mode(dp, grid)
    mu = 0.5 * dp.b_tf
    radius = math.sqrt(2.0 * mu)
    pref = mu / (dp.nbar * dp.g)
    for n in (1, 2, 3, 4):
        closed = (
            4.0
            * math.pi
            * pref**n
            * radius**3
            * math.gamma(1.5)
            * math.gamma(n + 1)
            / (2.0 * math.gamma(n + 2.5))
        )
        assert abs(moment(tf, n) - closed) < 1e-6
    co = coefficients(tf, build_xi1(tf), dp)
    assert (co.mu1 - co.mu) == pytest.approx(63.0 / (4.0 * dp.b_tf), rel=1e-5)


def test_xi1_orthonormal(fig1):
    gm, m1 = fig1["gm"], fig1["m1"]
    grid = gm.xi0.grid
    assert abs(integrate(RadialField(grid, m1.xi1.values**2)) - 1.0) < 1e-5
    assert abs(integrate(RadialField(grid, gm.xi0.values * m1.xi1.values))) < 1e-5


def test_beta_from_moments_matches_normalizer(fig1):
    gm, m1 = fig1["gm"], fig1["m1"]
    raw = (gm.xi0.values**2 - m1.alpha2) * gm.xi0.values
    direct = 1.0 / math.sqrt(integrate(RadialField(gm.xi0.grid, raw**2)))
    assert abs(m1.beta / direct - 1.0) < 1e-6


def test_xi1_shape(fig1):
    xi1 = fig1["m1"].xi1.values
    assert xi1[0] > 0.0  # positive core by the sign convention
    body = xi1[np.abs(xi1) > 1e-10 * np.max(np.abs(xi1))]
    flips = int(np.sum(np.diff(np.sign(body)) != 0))
    assert flips == 1  # a single interior node


def test_degenerate_profile_rejected():
    grid = RadialGrid(r_max=4.0, n_points=500)
    flat = np.ones(500)
    flat /= math.sqrt(integrate(RadialField(grid, flat**2)))
    gm = GroundMode(
        xi0=RadialField(grid, flat),
        mu=0.0,
        nbar=10.0,
        method="numeric",
        residual=0.0,
        iterations=0,
    )
    with pytest.raises(DegenerateModeError):
        build_xi1(gm)


def test_reference_tf_coefficient_values(fig1):
    # The closed Thomas-Fermi forms: g*alpha2 = (2/7) B/nbar,
    # g01 = 2B/(7*sqrt(6)*nbar), gamma = (20/77) B/nbar.
    dp, co = fig1["dp"], fig1["coeffs"]
    B, nbar = dp.b_tf, dp.nbar
    assert co.g_alpha2 == pytest.approx((2.0 / 7.0) * B / nbar, rel=0.1)
    assert co.g01 == pytest.approx(2.0 * B / (7.0 * math.sqrt(6.0) * nbar), rel=0.1)
    assert co.g01 == pytest.approx(8.39e-5, rel=0.02)
    assert co.gamma == pytest.approx((20.0 / 77.0) * B / nbar, rel=0.1)


def test_coefficient_ratio_chain(fig1):
    # The single-coupling reading gamma ~ g*alpha2 ~ 2*g01 holds as ratios.
    # Exact TF values of the two ratios are 10/11 and 5*sqrt(6)/11; the
    # numeric-profile ratios land within 5% of them (edge corrections pull
    # gamma down harder than g*alpha2).
    co = fig1["coeffs"]
    tf_first = 10.0 / 11.0
    tf_second = 5.0 * math.sqrt(6.0) / 11.0
    assert 0.9 < tf_first < 1.1
    assert 0.85 < tf_second < 1.15
    assert co.gamma / co.g_alpha2 == pytest.approx(tf_first, rel=0.05)
    assert co.gamma / (2.0 * co.g01) == pytest.approx(tf_second, rel=0.05)


def test_mu1_operator_identity(fig1):
    # The kinetic-mismatch integral satisfies
    # mu1 = <xi1| -lap/2 + r^2/2 |xi1> + nbar*gamma exactly; this ties the
    # excited-mode energy to the single-particle energy plus the mean-field
    # shift and pins the integral's normalization.
    dp, gm, m1, co = fig1["dp"], fig1["gm"], fig1["m1"], fig1["coeffs"]
    grid = gm.xi0.grid
    xi1 = m1.xi1.values
    lap1 = laplacian(m1.xi1).values
    single = integrate(
        RadialField(grid, xi1 * (-0.5 * lap1 + 0.5 * grid.nodes**2 * xi1))
    )
    assert co.mu1 == pytest.approx(single + dp.nbar * co.gamma, rel=1e-8)


def test_g_round_trip(fig1):
    dp, co = fig1["dp"], fig1["coeffs"]
    assert co.g == pytest.approx(dp.g, rel=1e-12)
