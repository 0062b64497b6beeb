import math

import numpy as np
import pytest

from bogodense import RadialField, RadialGrid, default_grid, integrate, laplacian
from bogodense.errors import InvalidParameterError

from oracles import reference_params
from bogodense import to_dimensionless
from bogodense.gpe import thomas_fermi_mode


def test_grid_nodes_cell_layout():
    grid = RadialGrid(r_max=8.0, n_points=16)
    assert grid.h == pytest.approx(0.5)
    assert grid.nodes[0] == pytest.approx(0.5)  # no node at the origin
    assert grid.nodes[-1] == pytest.approx(8.0)
    assert np.allclose(np.diff(grid.nodes), grid.h)


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        RadialGrid(r_max=8.0, n_points=15)
    with pytest.raises(InvalidParameterError):
        RadialGrid(r_max=0.0, n_points=100)
    # Squared nodes of r_max = 1e308 overflowed in every quadrature.
    for r_max in (1e308, 1e160, 1.01e102):
        with pytest.raises(InvalidParameterError, match="r_max"):
            RadialGrid(r_max=r_max, n_points=100)
    # At the largest accepted r_max the weights 4*pi*r^2*h of a unit field
    # still sum to a finite float.
    grid = RadialGrid(r_max=1e102, n_points=16)
    with np.errstate(over="raise"):
        assert math.isfinite(integrate(RadialField(grid, np.ones(16))))


def test_field_validation():
    grid = RadialGrid(r_max=4.0, n_points=32)
    with pytest.raises(InvalidParameterError):
        RadialField(grid, np.zeros(31))
    bad = np.zeros(32)
    bad[5] = np.nan
    with pytest.raises(InvalidParameterError):
        RadialField(grid, bad)


def test_integrate_normalized_gaussian():
    grid = RadialGrid(r_max=8.0, n_points=2000)
    f = RadialField(grid, np.pi**-1.5 * np.exp(-grid.nodes**2))
    assert abs(integrate(f) - 1.0) < 1e-6


def test_integrate_unit_ball():
    # The integrand is discontinuous, so the error is O(h); halving h must
    # roughly halve it.
    errs = []
    for n in (2000, 4000):
        grid = RadialGrid(r_max=8.0, n_points=n)
        f = RadialField(grid, (grid.nodes <= 1.0).astype(float))
        errs.append(abs(integrate(f) - 4.0 * np.pi / 3.0))
    assert errs[0] < 0.05
    assert errs[1] < 0.6 * errs[0]


def test_integrate_thomas_fermi_norm():
    dp = to_dimensionless(reference_params(1.0e5))
    grid = default_grid(dp, n_points=4000)
    tf = thomas_fermi_mode(dp, grid)
    norm = integrate(RadialField(grid, tf.xi0.values**2))
    assert abs(norm - 1.0) < 1e-4


def test_integrate_complex_field():
    grid = RadialGrid(r_max=8.0, n_points=1000)
    f = RadialField(grid, (1.0 + 2.0j) * np.pi**-1.5 * np.exp(-grid.nodes**2))
    val = integrate(f)
    assert isinstance(val, complex)
    assert val == pytest.approx(1.0 + 2.0j, rel=1e-6)


def test_quadrature_order():
    # integral of exp(-r) over all space = 8*pi; r_max = 30 makes the tail
    # negligible, so the sampling error dominates and must fall at least
    # quadratically when h halves.
    errs = []
    for n in (100, 200):
        grid = RadialGrid(r_max=30.0, n_points=n)
        f = RadialField(grid, np.exp(-grid.nodes))
        errs.append(abs(integrate(f) - 8.0 * math.pi))
    assert errs[0] > 1e-5  # above the roundoff floor, the ratio is meaningful
    assert errs[0] / errs[1] > 3.5


def test_laplacian_gaussian_identity_and_order():
    errs = []
    for n in (500, 1000):
        grid = RadialGrid(r_max=10.0, n_points=n)
        f = np.exp(-0.5 * grid.nodes**2)
        lap = laplacian(RadialField(grid, f)).values
        exact = (grid.nodes**2 - 3.0) * f
        errs.append(np.max(np.abs(lap - exact)))
    assert errs[0] < 1e-3
    assert 3.4 < errs[0] / errs[1] < 4.6  # clean second order


def test_laplacian_constant_interior():
    grid = RadialGrid(r_max=10.0, n_points=2000)
    lap = laplacian(RadialField(grid, np.ones(2000))).values
    # the outer ghost w(r_max + h) = 0 only affects the last node
    assert np.max(np.abs(lap[:-1])) < 1e-9


def test_laplacian_spherical_bessel():
    grid = RadialGrid(r_max=10.0, n_points=2000)
    j0 = np.sin(grid.nodes) / grid.nodes
    lap = laplacian(RadialField(grid, j0)).values
    err = np.abs(lap + j0)
    assert np.max(err[:-5]) < 1e-4


def test_laplacian_self_adjoint():
    grid = RadialGrid(r_max=10.0, n_points=2000)
    a = np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
    b = grid.nodes * np.exp(-0.5 * (grid.nodes - 3.0) ** 2)
    lhs = integrate(RadialField(grid, laplacian(RadialField(grid, a)).values * b))
    rhs = integrate(RadialField(grid, a * laplacian(RadialField(grid, b)).values))
    assert abs(lhs - rhs) < 1e-9


def test_default_grid_extents():
    dp = to_dimensionless(reference_params(1.0e5))
    grid = default_grid(dp)
    assert grid.n_points == 4000
    assert grid.r_max == pytest.approx(2.0 * math.sqrt(dp.b_tf))

    free = to_dimensionless(reference_params(1.0e5, a_sc=0.0))
    assert default_grid(free).r_max == 8.0

    assert default_grid(dp, n_points=500, r_max=12.0).r_max == 12.0
