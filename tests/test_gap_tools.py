import math

import numpy as np
import pytest

from qdlab.gap_tools import (
    EmbeddedProjector,
    RegionProjector,
    delta_function,
    martingale_measurement,
    n_beta,
    recursion_bound,
)
from qdlab.linalg import ConvergenceError
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


def test_n_beta_at_beta_one():
    # ceil(4 (1 + (1 + (e - 1)/2) log 1152)) = ceil(56.42)
    assert n_beta(1.0, 2) == 57


def test_delta_function_closed_form():
    ratio = math.tanh(0.5)  # gamma/(1+gamma) at beta = 1, |G| = 2, gamma = (e - 1)/2
    assert delta_function(1, 1.0, 2) == 1.0
    assert delta_function(9, 1.0, 2) == 1.0  # 576 ratio^8 = 1.198, capped
    for ell in (10, 15, 30):
        assert delta_function(ell, 1.0, 2) == pytest.approx(576 * ratio ** (ell - 1), rel=1e-12)
    assert delta_function(1, 0.0, 3) == 1.0
    assert delta_function(2, 0.0, 3) == 0.0
    for ell in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            delta_function(ell, 1.0, 2)


def test_recursion_bound_without_decay():
    """With delta = 0 the bound is prod_k 1/(1 + 1/s_k) times the tail factor over 16."""
    rb = recursion_bound(57, lambda ell: 0.0)
    s_k = [max(int((4 / 3) ** (k / 2)), 1) for k in range(200)]
    assert rb.s_values == s_k and rb.deltas == [0.0] * 200
    product = math.prod(1 / (1 + 1 / s) for s in s_k)
    tail = math.exp(-sum(1 / int((4 / 3) ** (k / 2)) for k in range(200, 800)))
    assert rb.truncated_product == pytest.approx(product, rel=1e-12)
    assert rb.tail_lower_factor == pytest.approx(tail, rel=1e-15)
    assert rb.final_constant == pytest.approx(product * tail / 16, rel=1e-12)


def test_recursion_bound_rejects():
    with pytest.raises(ValueError, match="r >= 16"):
        recursion_bound(15, lambda ell: 0.0)
    with pytest.raises(ConvergenceError):
        recursion_bound(57, lambda ell: 1.0)
