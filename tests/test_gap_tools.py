import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qdlab.gap_tools import (
    EmbeddedProjector,
    RegionProjector,
    complement_gap,
    delta_function,
    martingale_measurement,
    n_beta,
    recursion_bound,
)
from qdlab.linalg import ConvergenceError
from qdlab.groups import make_cyclic
from qdlab.lattice import TorusLattice, parse_region, split_region
from qdlab.peps import RegionNetwork
from qdlab.quantum_double import QuantumDoubleModel
from oracles import embed_by_digits


def test_dense_and_matrix_free_routes_agree():
    """The dense isometry W and the network route (T G_dR^{-1}) Gram^{-1/2} give one P,
    on a vector and on a block of columns."""
    lat = TorusLattice(3)
    model = QuantumDoubleModel(make_cyclic(2), lat)
    p = RegionProjector(model, parse_region(lat, "rect:0,0,1,1"), 1.0)
    assert p._w is not None
    network = copy.copy(p)
    network._w = None
    rng = np.random.default_rng(0)
    for x in (rng.standard_normal(p.dim), rng.standard_normal((p.dim, 3))):
        got = network.apply(x)
        assert got.shape == x.shape
        assert np.abs(p.apply(x) - got).max() < 1e-12


@pytest.mark.parametrize("beta", [0.0, -0.5])
@pytest.mark.parametrize("build", [RegionNetwork, RegionProjector])
def test_region_maps_refuse_nonpositive_beta(build, beta):
    """At beta <= 0 the boundary weights are singular: both region maps refuse to build."""
    lat = TorusLattice(3)
    with pytest.raises(ValueError, match="beta > 0"):
        build(QuantumDoubleModel(make_cyclic(2), lat), parse_region(lat, "rect:0,0,1,1"), beta)


def test_martingale_split_halves_take_the_network_route():
    """The 2^14-dim halves of the smallest martingale split are above DENSE_PROJECTOR_DIM
    and hold no dense W; the split's 256-dim overlap keeps it."""
    lat = TorusLattice(4)
    model = QuantumDoubleModel(make_cyclic(2), lat)
    split = split_region(parse_region(lat, "rect:0,0,3,1"), "ABC-cols", 1, 1)
    half = RegionProjector(model, split.r1, 1.0)
    assert half.dim == 2**14
    assert half._w is None
    assert RegionProjector(model, split.overlaps[0], 1.0)._w is not None


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


def test_embedded_projector_in_a_scrambled_ambient_order():
    """The embedding of a map P on the doubled legs of 3 edges into a 5-edge ambient set
    that lists them out of order, against P x 1 built digit by digit on the 10 doubled
    legs. P is a random matrix, so that a wrong leg order shows; a Z2 plaquette
    projector would not show it, being invariant under permuting its edges."""
    lat = TorusLattice(3)
    edges = list(parse_region(lat, "rect:0,0,1,1").edges())[:3]
    extra = [e for e in parse_region(lat, "rect:1,1,1,1").edges() if e not in edges][:2]
    ambient = [edges[2], extra[0], edges[0], extra[1], edges[1]]
    dense_p = np.random.default_rng(1).standard_normal((64, 64))
    block = SimpleNamespace(model=QuantumDoubleModel(make_cyclic(2), lat), edges=edges, dim=64,
                            apply=lambda m: dense_p @ m)
    emb = EmbeddedProjector(block, ambient)
    pos = [ambient.index(e) for e in edges]
    oracle = embed_by_digits(dense_p, pos + [5 + i for i in pos], 2, 10)
    for x in np.random.default_rng(2).standard_normal((3, emb.dim)):
        assert np.abs(emb.apply(x) - oracle @ x).max() < 1e-12


def test_complement_gap_against_a_dense_spectrum():
    """sum_i (1 - P_i) for three random rank-31 projectors whose ranges share the unit
    vector v: the gap off v and the residual ||H v|| against eigh of the dense sum."""
    rng = np.random.default_rng(4)
    v = rng.standard_normal(100)
    v /= np.linalg.norm(v)
    dense = [q @ q.T for q in (np.linalg.qr(np.column_stack([v, rng.standard_normal((100, 30))]))[0]
                               for _ in range(3))]
    projectors = [SimpleNamespace(apply=lambda x, p=p: p @ x) for p in dense]
    gap, residual = complement_gap(projectors, 100, [v], tol=1e-10)
    vals = np.linalg.eigvalsh(sum(np.eye(100) - p for p in dense))
    assert abs(vals[0]) < 1e-12 and vals[1] > 0.1
    assert gap == pytest.approx(vals[1], abs=1e-9)
    assert residual < 1e-12


def test_complement_gap_hands_real_projectors_real_vectors():
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((100, 30)))[0]
    dtypes = []

    def apply(x):
        dtypes.append(np.asarray(x).dtype)
        return q @ (q.T @ x)

    complement_gap([SimpleNamespace(apply=apply)], 100, [q[:, 0]])
    assert set(dtypes) == {np.dtype(float)}


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
