"""The reluctivity law as the runs evaluate it: MaterialModel.coefficients
resolved per element by element_data, then ElementData.nu and dnu_db2."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eddy2d.assembly import MaterialTable, element_data
from eddy2d.materials import MaterialModel, NU0
from eddy2d.mesh import Mesh2D, RegionTag

from conftest import AIR

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def law(m: MaterialModel):
    """The ElementData of one conductor triangle made of ``m``."""
    mesh = Mesh2D(UNIT_RIGHT, [[0, 1, 2]], [RegionTag("conductor", 0)])
    return element_data(mesh, MaterialTable({0: m}, AIR))


def test_coefficients_encode_both_laws():
    assert MaterialModel.linear(1e6, 570.0).coefficients == (570.0, 0.0, 0.0)
    assert MaterialModel.brauer(1e6, 520.6, 49.4, 1.46).coefficients == (520.6, 49.4, 1.46)


def test_element_data_resolves_each_region():
    # air, coil, and two conductors with different laws, one triangle each
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    regions = [RegionTag("air"), RegionTag("conductor", 1), RegionTag("coil", 0),
               RegionTag("conductor", 2)]
    mesh = Mesh2D(nodes, [[0, 1, 2], [1, 3, 2]] * 2, regions)
    table = MaterialTable({1: MaterialModel.linear(2e6, 570.0),
                           2: MaterialModel.brauer(5e7, 3.5, 2.25, 7.0)}, AIR)
    data = element_data(mesh, table)
    assert data.kappa.tolist() == [0.0, 2e6, 0.0, 5e7]
    assert data.k1.tolist() == [NU0, 570.0, NU0, 3.5]
    assert data.k2.tolist() == [0.0, 0.0, 0.0, 2.25]
    assert data.k3.tolist() == [0.0, 0.0, 0.0, 7.0]


def test_linear_nu_is_constant():
    data = law(MaterialModel.linear(1e6, 100.0))
    assert data.nu(5.0).tolist() == [100.0]
    assert data.nu(0.0).tolist() == [100.0]


def test_brauer_at_zero_field():
    data = law(MaterialModel.brauer(1e6, 3.5, 2.25, 7.0))
    assert data.nu(0.0)[0] == pytest.approx(3.5 + 2.25)


def test_brauer_direct_evaluation():
    # direct evaluation of k1 + k2*exp(k3*b2); finite in float64
    data = law(MaterialModel.brauer(1e6, 49.4, 1.46, 520.6))
    expected = 49.4 + 1.46 * math.exp(520.6 * 1.0)
    assert math.isfinite(expected)
    assert data.nu(1.0)[0] == pytest.approx(expected, rel=1e-15)


def test_dnu_linear_is_zero():
    data = law(MaterialModel.linear(1e6, 570.0))
    assert data.dnu_db2(0.0).tolist() == [0.0]
    assert data.dnu_db2(123.4).tolist() == [0.0]


def test_dnu_degenerate_brauer_is_zero():
    data = law(MaterialModel.brauer(1e6, 5.0, 0.0, 3.0))
    assert data.dnu_db2(2.0).tolist() == [0.0]


@pytest.mark.parametrize("b2", [0.3, 1.0, 2.5])
def test_dnu_matches_central_difference(b2):
    # central-difference oracle at delta = 1e-6 * max(1, b2)
    data = law(MaterialModel.brauer(1e6, 520.6, 49.4, 1.46))
    delta = 1e-6 * max(1.0, b2)
    fd = (data.nu(b2 + delta)[0] - data.nu(b2 - delta)[0]) / (2.0 * delta)
    assert data.dnu_db2(b2)[0] == pytest.approx(fd, rel=1e-6)


def test_vectorized_evaluation():
    data = law(MaterialModel.brauer(1e6, 520.6, 49.4, 1.46))
    b2 = np.array([0.0, 1.0, 4.0])
    np.testing.assert_allclose(data.nu(b2), [data.nu(v)[0] for v in b2], rtol=1e-15)


@given(st.floats(min_value=0.0, max_value=50.0))
def test_brauer_nu_bounded_below_by_k1(b2):
    data = law(MaterialModel.brauer(1e6, 520.6, 49.4, 0.5))
    assert data.nu(b2)[0] >= 520.6 > 0


@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
def test_brauer_monotone_in_b2(b2a, b2b):
    data = law(MaterialModel.brauer(1e6, 520.6, 49.4, 0.5))
    lo, hi = min(b2a, b2b), max(b2a, b2b)
    assert data.nu(hi)[0] >= data.nu(lo)[0]
    assert data.dnu_db2(lo)[0] >= 0


def test_validation_rules():
    with pytest.raises(ValueError):
        MaterialModel.linear(-1.0, 570.0)     # negative conductivity
    with pytest.raises(ValueError):
        MaterialModel.linear(0.0, 0.0)        # nonpositive reluctivity
    with pytest.raises(ValueError):
        MaterialModel.brauer(0.0, 0.0, 1.0, 1.0)   # k1 must be > 0
    with pytest.raises(ValueError):
        MaterialModel.brauer(0.0, 1.0, -1.0, 1.0)  # k2 >= 0
