import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qdlab.gap_tools import (
    EmbeddedProjector,
    RegionProjector,
    _isometry,
    complement_gap,
    delta_function,
    martingale_measurement,
    n_beta,
    parent_hamiltonian,
    recursion_bound,
)
from qdlab import linalg
from qdlab.linalg import ConvergenceError, FeasibilityError
from qdlab.boundary import BlockBoundary
from qdlab.groups import group_by_name, make_cyclic, make_symmetric
from qdlab.lattice import TorusLattice, parse_region, split_region
from qdlab.peps import RegionNetwork
from qdlab.quantum_double import QuantumDoubleModel
from oracles import embed_by_digits, embedded_apply_by_transposes, region_projector_w, reversed_word_scatter


@pytest.mark.parametrize("beta", [0.0, -0.5])
@pytest.mark.parametrize("build", [RegionNetwork, RegionProjector])
def test_region_maps_refuse_nonpositive_beta(build, beta):
    """At beta <= 0 the boundary weights are singular: both region maps refuse to build."""
    lat = TorusLattice(3)
    with pytest.raises(ValueError, match="beta > 0"):
        build(QuantumDoubleModel(make_cyclic(2), lat), parse_region(lat, "rect:0,0,1,1"), beta)


def test_martingale_certificate_on_the_smallest_split():
    """Z2 N=4 rect:0,0,3,1, ABC-cols at 1, 1, beta = 1: || P_r1 P_r2 - P_whole || pinned at
    its value from the contracted region networks. Its overlap has epsilon = 12, so the
    bound's hypothesis fails and the report is vacuous, never a pass."""
    lat = TorusLattice(4)
    split = split_region(parse_region(lat, "rect:0,0,3,1"), "ABC-cols", 1, 1)
    rep = martingale_measurement(QuantumDoubleModel(make_cyclic(2), lat), 1.0, split)
    assert rep.measured == pytest.approx(0.38079707797788237, rel=1e-12)
    assert (rep.epsilon, rep.bound) == (12.0, 192.0)
    assert not rep.hypothesis_ok and rep.vacuous and not rep.passed


@pytest.mark.parametrize("name, n, spec", [
    ("Z2", 4, "rect:0,0,3,1"),
    ("Z2", 4, "rect:1,0,1,1"),
    ("S3", 3, "rect:0,0,1,1"),
    ("Z2", 3, "cyl:v,0,1"),
    ("Z3", 3, "rect:0,0,1,1"),
])
def test_region_projector_matches_w_w_transpose(name, n, spec):
    """P x = Q (Q^T x) against W (W^T x), W = T times the half-inverse of its Gram, to
    1e-12 relative, for a vector and for a 3-column block: on the martingale split's
    whole region and its overlap, on S3, on a cylinder and on Z3. Q is an isometry
    with the rank that `BlockBoundary.rank` counts."""
    lat = TorusLattice(n)
    model, region = QuantumDoubleModel(group_by_name(name), lat), parse_region(lat, spec)
    p, w = RegionProjector(model, region, 1.0), region_projector_w(model, region, 1.0)
    assert _isometry_defect(p.q) <= 1e-12
    assert p.q.shape[1] == p.rank == BlockBoundary(model.group, region, 1.0).rank()
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal(p.dim), rng.standard_normal((p.dim, 3))):
        want = w @ (w.T @ x)
        assert np.abs(p.apply(x) - want).max() <= 1e-12 * np.abs(want).max()


def _isometry_defect(q) -> float:
    """max |Q^T Q - 1| over the entries, for a sparse Q."""
    d = (q.T @ q).tocsr()
    d.setdiag(d.diagonal() - 1.0)
    return float(abs(d).max())


def test_s3_region_projector_is_an_orthogonal_projector():
    """S3 N=3 rect:0,0,1,1 (1.7M doubled dims): Q^T Q = 1 on the 653,184 columns that
    `BlockBoundary.rank` counts, so Q Q^T is an orthogonal projector of that rank.
    Control: with each plaquette word folded in reverse order, the same half-inverse
    H gives a Q' = T' H that is no isometry."""
    lat = TorusLattice(3)
    model = QuantumDoubleModel(make_symmetric(3), lat)
    region = parse_region(lat, "rect:0,0,1,1")
    p, bb = RegionProjector(model, region, 1.0), BlockBoundary(model.group, region, 1.0)
    assert p.q.shape[1] == p.rank == bb.rank() == 653184
    assert _isometry_defect(p.q) <= 1e-12
    control = _isometry(reversed_word_scatter(RegionNetwork(model, region, 1.0)), bb.orbit_half_inverse())
    assert _isometry_defect(control) > 0.1


def _refused_build(monkeypatch, budget, group, n, spec):
    """The FeasibilityError of a RegionProjector build under `budget`, and the
    build's peak of traced allocations."""
    lat = TorusLattice(n)
    model, region = QuantumDoubleModel(group, lat), parse_region(lat, spec)
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        with pytest.raises(FeasibilityError) as info:
            RegionProjector(model, region, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.traceback[-1].name == "require_fits"
    return info, peak


def test_half_inverse_over_budget_is_refused_before_it_is_made(monkeypatch):
    """S3 N=3 rect:0,0,1,1: the half-inverse H holds the orbit index of each of the
    1,679,616 reduced states; with twice one anchor's indices for a key's 216
    labellings, each key's mask and labellings and the fold's 5 uint8 arrays over
    the 1,296 labellings that is 17,943,120 bytes. One byte less refuses H before
    any of them is made: the build allocates less than 1/4 MiB. At the count H is
    made, and T, which needs 26,873,860 bytes, is refused."""
    info, peak = _refused_build(monkeypatch, 17943120 - 1, make_symmetric(3), 3, "rect:0,0,1,1")
    assert info.match(r"uint8 array of shape \(17943120,\)")
    assert info.traceback[-2].name == "orbit_half_inverse"
    assert peak < 2**18
    info, _ = _refused_build(monkeypatch, 17943120, make_symmetric(3), 3, "rect:0,0,1,1")
    assert info.match(r"uint8 array of shape \(26873860,\)")
    assert info.traceback[-2].name == "t_sparse"


def test_holonomy_fold_over_budget_is_refused_before_it_is_made(monkeypatch):
    """S3 N=4 rect:0,0,2,2: folding the holonomies of its 6^8 = 1,679,616 labellings
    holds one uint8 key and 8 uint8 vertex words for each, and the running
    holonomy with its successor, 18,475,776 bytes. A 16 MiB budget refuses the
    fold before any of them is made: the build allocates less than 1 MiB."""
    info, peak = _refused_build(monkeypatch, 2**24, make_symmetric(3), 4, "rect:0,0,2,2")
    assert info.match(r"uint8 array of shape \(18475776,\)")
    assert info.traceback[-2].name == "_fold"
    assert peak < 2**20


def test_t_over_budget_is_refused_after_the_half_inverse(monkeypatch):
    """Z2 N=4 rect:0,0,3,1, the martingale split's whole region: the check of the
    half-inverse H counts 1,054,976 bytes (its 65,536 orbit indices, twice one
    anchor's indices for a key, a key's mask and labellings and the fold) and T's
    3,407,876 (its 1 MiB of rows, 2 MiB of values and 1/4 MiB of column pointers).
    A 3 MiB budget admits the first and refuses T before its row array is made:
    the peak stays within H's count."""
    info, peak = _refused_build(monkeypatch, 3 * 2**20, make_cyclic(2), 4, "rect:0,0,3,1")
    assert info.match(r"uint8 array of shape \(3407876,\)")
    assert info.traceback[-2].name == "t_sparse"
    assert peak < 1054976


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
    block = SimpleNamespace(model=QuantumDoubleModel(make_cyclic(2), lat), edges=edges, support=np.arange(64),
                            on_support=lambda m: dense_p @ m)
    emb = EmbeddedProjector(block, ambient)
    pos = [ambient.index(e) for e in edges]
    oracle = embed_by_digits(dense_p, pos + [5 + i for i in pos], 2, 10)
    for x in np.random.default_rng(2).standard_normal((3, emb.dim)):
        assert np.abs(emb.apply(x) - oracle @ x).max() < 1e-12


def _benchmark_split():
    lat = TorusLattice(4)
    return QuantumDoubleModel(make_cyclic(2), lat), split_region(parse_region(lat, "rect:0,0,3,1"), "ABC-cols", 1, 1)


@pytest.mark.parametrize("part", ["overlap", "r1", "r2"])
def test_embedded_projector_equals_the_transposes_path(part):
    """Z2 N=4 rect:0,0,3,1, ABC-cols at 1, 1: the embedded overlap and halves, applied
    on their support rows, equal the whole-matrix-view path entry for entry, on a real
    and a complex vector. T reaches 128 of the overlap's 256 rows and 4,096 of each
    half's 16,384."""
    model, split = _benchmark_split()
    region = split.overlaps[0] if part == "overlap" else getattr(split, part)
    emb = EmbeddedProjector(RegionProjector(model, region, 1.0), list(split.whole.edges()))
    assert emb.proj.support.size == {"overlap": 128, "r1": 4096, "r2": 4096}[part]
    rng = np.random.default_rng(6)
    for x in (rng.standard_normal(emb.dim), rng.standard_normal(emb.dim) + 1j * rng.standard_normal(emb.dim)):
        assert np.array_equal(emb.apply(x), embedded_apply_by_transposes(emb, x))


def test_parent_family_applies_equal_the_transposes_path():
    """Every embedded rectangle of the Z2 N=2 parent Hamiltonian, entry for entry."""
    ph = parent_hamiltonian(QuantumDoubleModel(make_cyclic(2), TorusLattice(2)), 1.0)
    x = np.random.default_rng(7).standard_normal(ph.dim)
    for emb in ph.projectors:
        assert np.array_equal(emb.apply(x), embedded_apply_by_transposes(emb, x))


def test_support_and_index_budgets_are_exact(monkeypatch):
    """The overlap of the benchmark split (T 256 x 256 with one int32 row each, Q
    with 128 columns of one entry) in its whole region (20 doubled legs). Q = T H
    gathers 256 entries (int32 rows and float64 values), with room for the 128
    that scipy copies when duplicates shrink them below half, and 129 column
    pointers: 384 x 12 + 516 = 5,124 bytes. Q's support rows need a mask, the
    support (at most 256 intp), each row's new number and Q_S's 128 rows,
    256 x 17 + 512 = 4,864 bytes. The embedding needs the offsets of the 256
    overlap states, of the 128 support rows and of the 4,096 states of the other
    legs, and the 128 x 4,096 index: 528,768 intp entries. Each budget admits its
    request at exactly its bytes and refuses it one byte below."""
    model, split = _benchmark_split()
    proj = RegionProjector(model, split.overlaps[0], 1.0)
    t = RegionNetwork(model, split.overlaps[0], 1.0).t_sparse
    half_inverse = BlockBoundary(model.group, split.overlaps[0], 1.0).orbit_half_inverse()
    ambient = list(split.whole.edges())
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 5124 - 1)
    with pytest.raises(FeasibilityError, match=r"uint8 array of shape \(5124,\)"):
        _isometry(t, half_inverse)
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 5124)
    assert _isometry(t, half_inverse).nnz == 128
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 4864 - 1)
    with pytest.raises(FeasibilityError, match=r"uint8 array of shape \(4864,\)"):
        proj.support
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 4864)
    assert proj.support.size == 128
    count = (256 + 128 * (4096 + 1) + 4096) * np.dtype(np.intp).itemsize
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", count - 1)
    with pytest.raises(FeasibilityError, match=r"array of shape \(528768,\)"):
        EmbeddedProjector(proj, ambient)
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", count)
    assert EmbeddedProjector(proj, ambient).index.shape == (128, 4096)


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
    # sum_k delta_k diverges, so the product is 0 and no truncation bounds it
    for delta in (lambda ell: 0.3, lambda ell: 0.4 / math.log(ell + 2)):
        with pytest.raises(ConvergenceError, match="tail did not fall"):
            recursion_bound(57, delta)
