import numpy as np
import pytest

from qdlab.gap_tools import RegionProjector, martingale_measurement
from qdlab.groups import make_cyclic
from qdlab.lattice import TorusLattice, parse_region, split_region
from qdlab.quantum_double import QuantumDoubleModel


def test_dense_and_matrix_free_routes_agree():
    """The dense isometry W and the network route T (factors) Gram^{-1/2} give one P."""
    lat = TorusLattice(3)
    model = QuantumDoubleModel(make_cyclic(2), lat)
    p = RegionProjector(model, parse_region(lat, "rect:0,0,1,1"), 1.0)
    assert p._w is not None
    x = np.random.default_rng(0).standard_normal(p.dim)
    assert np.abs(p.apply(x) - p._w_apply(p._w_dagger_apply(x))).max() < 1e-12


def test_martingale_measurement_rejects_the_trivial_group():
    lat = TorusLattice(4)
    split = split_region(parse_region(lat, "rect:0,0,3,1"), "ABC-cols", 1, 1)
    with pytest.raises(ValueError, match="order >= 2"):
        martingale_measurement(QuantumDoubleModel(make_cyclic(1), lat), 1.0, split)
