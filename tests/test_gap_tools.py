import numpy as np
import pytest

from qdlab.gap_tools import EmbeddedProjector, RegionProjector, martingale_measurement
from qdlab.groups import group_by_name, make_cyclic
from qdlab.lattice import TorusLattice, parse_region, split_region
from qdlab.quantum_double import QuantumDoubleModel


def test_dense_and_matrix_free_routes_agree():
    """The dense isometry W and the network route (T G_dR^{-1}) Gram^{-1/2}, applied
    vector by vector, give one P."""
    lat = TorusLattice(3)
    model = QuantumDoubleModel(make_cyclic(2), lat)
    p = RegionProjector(model, parse_region(lat, "rect:0,0,1,1"), 1.0)
    assert p._w is not None
    x = np.random.default_rng(0).standard_normal(p.dim)
    assert np.abs(p.apply(x) - p._w_apply(p._w_dagger_apply(x))).max() < 1e-12


@pytest.mark.parametrize("name, beta, expect", [
    ("Z2", 0.0, 2.2139934371900896e-4),
    ("Z2", -0.5, 2.2139934371900896e-4),
    ("Z3", 0.0, 3.2949048981780897e-4),
    ("Z3", -0.5, 3.2949048981780897e-4),
])
def test_projector_at_nonpositive_beta(name, beta, expect):
    """At beta <= 0 the boundary weights are singular and P is taken from the span
    of the network's reduced map; pinned to the values of the unweighted T."""
    lat = TorusLattice(3)
    p = RegionProjector(QuantumDoubleModel(group_by_name(name), lat), parse_region(lat, "rect:0,0,1,1"), beta)
    x = np.random.default_rng(0).standard_normal(p.dim)
    assert p.rank == 1
    assert x @ p.apply(x) / (x @ x) == pytest.approx(expect, rel=1e-12, abs=0)


def test_martingale_measurement_rejects_the_trivial_group():
    lat = TorusLattice(4)
    split = split_region(parse_region(lat, "rect:0,0,3,1"), "ABC-cols", 1, 1)
    with pytest.raises(ValueError, match="order >= 2"):
        martingale_measurement(QuantumDoubleModel(make_cyclic(1), lat), 1.0, split)


def test_embedding_needs_every_region_edge():
    lat = TorusLattice(3)
    p = RegionProjector(QuantumDoubleModel(make_cyclic(2), lat), parse_region(lat, "rect:0,0,1,1"), 1.0)
    with pytest.raises(ValueError, match="missing from ambient patch"):
        EmbeddedProjector(p, list(parse_region(lat, "rect:1,1,1,1").edges()))
