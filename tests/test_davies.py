import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from qdlab import davies, linalg, records

from qdlab.davies import (
    BOHR_FREQUENCIES,
    CouplingError,
    CouplingSet,
    DaviesGenerator,
    HTilde,
    IotaKernelProjector,
    RateError,
    _embedded,
    _local_generator,
    _local_patch,
    _phase_split,
    c1_constant,
    c2_constant,
    davies_gap,
    default_coupling,
    fourier_components,
    gap_chain,
    kms_rates,
    level_projectors,
    local_gap_check,
    parent_link_passed,
    thermofield_vector,
)
from qdlab.gap_tools import complement_gap
from qdlab.groups import group_by_name, make_cyclic
from qdlab.lattice import TorusLattice, parse_region
from qdlab.linalg import FeasibilityError, LinearMapHandle, dagger, matrix_power_hermitian
from qdlab.quantum_double import QuantumDoubleModel, gibbs_state
from oracles import (
    apply_dissipator, c2_explicit_basis, davies_gap_arpack, embedded_local_generator_per_edge,
    fourier_components_eigh, iota, iota_inverse, kernel_projector_oracle, local_generator_by_stack, local_term_sum,
)

BETA = 1.0
TOL = 1e-10


@pytest.fixture(scope="module")
def patch():
    """Z2 single-plaquette patch of the N=2 torus: d = 16, doubled dimension 256."""
    lat = TorusLattice(2)
    model = QuantumDoubleModel(make_cyclic(2), lat).restrict(parse_region(lat, "rect:0,0,1,1"))
    gen = DaviesGenerator.build(model, BETA)
    rho = gibbs_state(model, BETA)
    return model, gen, HTilde(gen), rho


def dense_of(apply, dim):
    eye = np.eye(dim, dtype=complex)
    return np.column_stack([apply(eye[:, i]) for i in range(dim)])


def test_htilde_equals_minus_iota_l_iota_inverse(patch):
    model, gen, ht, rho = patch
    assert ht.dim == 256
    h = dense_of(lambda x: ht.matrix @ x, ht.dim)
    rho_sqrt = matrix_power_hermitian(rho, 0.5)
    rho_sqrt_inv = matrix_power_hermitian(rho, -0.5)

    def oracle(v):
        return -iota(apply_dissipator(gen, iota_inverse(v, rho_sqrt_inv)), rho_sqrt)

    expect = dense_of(oracle, ht.dim)
    assert np.abs(h - expect).max() < TOL
    assert np.abs(h - dagger(h)).max() < TOL
    for _, gen_e in ht.local.values():  # each L_e is a Dirichlet form, so positive semidefinite
        dense = gen_e.toarray()
        assert np.linalg.eigvalsh(dense)[0] >= -1e-12 * np.linalg.norm(dense, 2)


def test_complex_coupling_stays_complex(patch):
    """A coupling with an operator that is not real up to a phase, (sigma_x+sigma_y)/sqrt 2,
    gives complex L_e, and H~ still equals -iota L iota^{-1}."""
    model, _, _, rho = patch
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
    gen = DaviesGenerator.build(model, BETA, coupling=CouplingSet((x + 0j, z + 0j, (x + y) / np.sqrt(2))))
    ht = HTilde(gen)
    for _, gen_e in ht.local.values():
        assert gen_e.dtype == complex and abs(gen_e.imag).max() > 0.1
    assert ht.matrix.dtype == complex
    assert abs(ht.matrix - ht.matrix.conj().T).max() <= 1e-14 * abs(ht.matrix).max()
    rho_sqrt = matrix_power_hermitian(rho, 0.5)
    rho_sqrt_inv = matrix_power_hermitian(rho, -0.5)
    expect = dense_of(lambda v: -iota(apply_dissipator(gen, iota_inverse(v, rho_sqrt_inv)), rho_sqrt), ht.dim)
    assert np.abs(dense_of(lambda x: ht.matrix @ x, ht.dim) - expect).max() < TOL


@pytest.fixture(scope="module")
def cylinder_patch():
    """Z2 N=2 patch cyl:v,0,1 (d = 64): four of its six edges have 4-edge jump supports."""
    lat = TorusLattice(2)
    model = QuantumDoubleModel(make_cyclic(2), lat).restrict(parse_region(lat, "cyl:v,0,1"))
    gen = DaviesGenerator.build(model, BETA)
    rho = gibbs_state(model, BETA)
    return model, gen, HTilde(gen), rho


def test_htilde_on_proper_subset_supports(cylinder_patch):
    model, gen, ht, rho = cylinder_patch
    assert sum(len(gen.jumps[e].support) < model.n_edges for e in model.edge_list) == 4
    rho_sqrt = matrix_power_hermitian(rho, 0.5)
    rho_sqrt_inv = matrix_power_hermitian(rho, -0.5)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(ht.dim) + 1j * rng.standard_normal(ht.dim)
        q = iota_inverse(x, rho_sqrt_inv)
        expect = -iota(apply_dissipator(gen, q), rho_sqrt)
        assert np.abs(ht.matrix @ x - expect).max() < TOL * np.abs(expect).max()
        for e in model.edge_list:
            expect = -iota(apply_dissipator(gen, q, edges=[e]), rho_sqrt)
            assert np.abs(ht.apply_edges(x, [e]) - expect).max() < TOL * np.abs(expect).max()


def test_each_edge_term_is_hermitian_and_kills_the_thermofield_double(cylinder_patch):
    model, _, ht, rho = cylinder_patch
    tfd = thermofield_vector(model, BETA, rho)
    for e in model.edge_list:
        _, gen_e = ht.local[e]
        assert abs(gen_e - gen_e.conj().T).max() < TOL
        assert np.linalg.norm(ht.apply_edges(tfd, [e])) < TOL


def test_davies_gap_scales_with_the_rates(cylinder_patch):
    """H~ is linear in the rates, so rates 100 g(w) give 100 times the gap (about 270)
    and 100 times the norm bound that davies_gap deflates with."""
    model, gen, ht, rho = cylinder_patch
    tfd = thermofield_vector(model, BETA, rho)
    rates = kms_rates(BETA, "custom", {w: 100 * gen.rates(w) for w in BOHR_FREQUENCIES})
    ht100 = HTilde(DaviesGenerator.build(model, BETA, rates=rates))
    assert ht100.norm_bound == pytest.approx(100 * ht.norm_bound, rel=1e-12)
    assert davies_gap(ht100, tfd) == pytest.approx(100 * davies_gap(ht, tfd), rel=1e-9)


class RealOnlyHTilde(HTilde):
    """Counts the vectors `apply_edges` takes, and refuses a complex one."""

    def __init__(self, gen):
        super().__init__(gen)
        self.calls = 0

    def apply_edges(self, x, edges):
        if np.iscomplexobj(x):
            raise TypeError("complex input to a real H~ in apply_edges")
        self.calls += 1
        return super().apply_edges(x, edges)


@pytest.fixture(scope="module")
def z3_plaquette():
    """Z3 N=3 plaquette `rect:0,0,1,1` (d = 81): the block of H~ that holds the
    thermofield double has 81 indices, so ARPACK solves it."""
    lat = TorusLattice(3)
    model = QuantumDoubleModel(make_cyclic(3), lat).restrict(parse_region(lat, "rect:0,0,1,1"))
    gen = DaviesGenerator.build(model, BETA)
    return model, gen, HTilde(gen), gibbs_state(model, BETA)


@pytest.fixture(scope="module")
def z2_rectangle():
    """Z2 N=3 `rect:0,0,2,1` (d = 128): the block of H~ that holds the thermofield
    double has 128 indices."""
    lat = TorusLattice(3)
    model = QuantumDoubleModel(make_cyclic(2), lat).restrict(parse_region(lat, "rect:0,0,2,1"))
    gen = DaviesGenerator.build(model, BETA)
    return model, gen, HTilde(gen), gibbs_state(model, BETA)


def test_default_coupling_solves_run_real(request):
    """With real L_e, H~ is a float64 matrix and a real vector stays real. So the
    Davies gap reaches the dense `eigvalsh` and `eigh` of its blocks, and on the Z3
    plaquette the ARPACK handle of its block of 81 indices, only with float64
    arrays, and the local check runs its eigensolve (through `apply_edges`) in real
    arithmetic. The cylinder's gap keeps the value pinned for the complex solves."""
    solve = linalg.lowest_eigs_matrix_free
    seen, gaps = [], {}

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            seen.append((name, a.dtype))
            return fn(a, *args, **kwargs)
        return wrapped

    def arpack(h, *args, **kwargs):
        return solve(LinearMapHandle(dim=h.dim, apply=spy("handle", h.apply)), *args, **kwargs)

    for fixture, reached in (("cylinder_patch", {"eigvalsh", "eigh"}), ("z3_plaquette", {"eigvalsh", "handle"})):
        model, gen, ht, rho = request.getfixturevalue(fixture)
        assert ht.matrix.dtype == np.float64
        x = np.random.default_rng(5).standard_normal(ht.dim)
        assert (ht.matrix @ x).dtype == ht.apply_edges(x, model.edge_list).dtype == float
        tfd = thermofield_vector(model, BETA, rho)
        seen.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
            mp.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
            mp.setattr(linalg, "lowest_eigs_matrix_free", arpack)
            gap = davies_gap(ht, tfd)
        assert {name for name, _ in seen} == reached
        assert {dtype for _, dtype in seen} == {np.dtype(float)}
        real_ht = RealOnlyHTilde(gen)
        check = local_gap_check(gen, real_ht, model.edge_list[0], rho)
        assert check.passed and abs(check.min_eig) < 1e-9
        assert real_ht.calls > 0
        gaps[fixture] = gap
    assert gaps["cylinder_patch"] == pytest.approx(2.697855988183939, rel=1e-9)


@pytest.mark.parametrize("fixture", ["cylinder_patch", "z3_plaquette", "z2_rectangle"])
def test_davies_gap_agrees_with_the_whole_space_solve(fixture, request):
    """The gap from the connected blocks of H~ (largest 64, 81 and 128 indices) is
    that of one deflated ARPACK solve over the whole doubled space."""
    model, _, ht, rho = request.getfixturevalue(fixture)
    tfd = thermofield_vector(model, BETA, rho)
    assert davies_gap(ht, tfd) == pytest.approx(davies_gap_arpack(ht, tfd), rel=1e-12)


@pytest.fixture(scope="module", params=["Z2 cyl:v,0,1", "Z3 rect:0,0,1,1"])
def embedding_patch(request, cylinder_patch):
    """The cylinder patch (four supports with other legs, two full) and the Z3 N=3
    plaquette (four full supports, so H~ is the sum of the L_e themselves)."""
    return (cylinder_patch if request.param == "Z2 cyl:v,0,1" else request.getfixturevalue("z3_plaquette"))[2]


def test_htilde_matrix_is_the_sum_of_the_edge_terms(embedding_patch):
    """The one CSR product equals the per-edge products summed, and the matrix is symmetric."""
    ht = embedding_patch
    rng = np.random.default_rng(11)
    for x in (rng.standard_normal(ht.dim), rng.standard_normal(ht.dim) + 1j * rng.standard_normal(ht.dim)):
        expect = sum(ht.apply_edges(x, [e]) for e in ht.model.edge_list)
        assert np.abs(ht.matrix @ x - expect).max() <= 1e-13 * np.abs(expect).max()
    assert abs(ht.matrix - ht.matrix.T).max() <= 1e-14 * abs(ht.matrix).max()


def htilde_budget(ht):
    """The bytes HTilde budgets for assembling `matrix`: twice every embedded entry of
    the L_e (the old running sum and the new one before pruning) and the largest
    edge's embedded copies, each a float64 value and an int32 column index, and three
    sets of int32 row pointers."""
    sizes = [gen_e.nnz * ht.dim // gen_e.shape[0] for _, gen_e in ht.local.values()]
    return (2 * sum(sizes) + max(sizes)) * (8 + 4) + 3 * 4 * (ht.dim + 1)


def test_htilde_budget_counts_the_embedded_bytes(cylinder_patch, monkeypatch):
    """A budget of exactly `htilde_budget` admits the build, and one byte less
    refuses it before any L_e is embedded. Each L_e build has its own, larger count
    (`test_local_generator_budget_bounds_its_traced_peak`), so here
    `_local_generator` hands back the L_e already built."""
    model, gen, ht, _ = cylinder_patch
    budget = htilde_budget(ht)
    m = ht.matrix
    embedded = []
    built = {id(gen.jumps[e].components): gen_e for e, (_, gen_e) in ht.local.items()}

    def counted(*args):
        embedded.append(args)
        return _embedded(*args)

    monkeypatch.setattr(davies, "_embedded", counted)
    monkeypatch.setattr(davies, "_local_generator", lambda gen, dec, d: built[id(dec.components)])
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", budget)
    assert (HTilde(gen).matrix != m).nnz == 0
    assert len(embedded) == model.n_edges
    embedded.clear()
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", budget - 1)
    with pytest.raises(FeasibilityError):
        HTilde(gen)
    assert embedded == []


def test_htilde_budget_bounds_the_traced_peak(cylinder_patch):
    """The budgeted bytes are at least the traced peak of assembling `matrix`, and
    the assembled matrix takes less than that."""
    _, gen, _, _ = cylinder_patch
    ht = HTilde(gen)
    tracemalloc.start()
    try:
        m = ht.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.data.nbytes + m.indices.nbytes + m.indptr.nbytes < peak <= htilde_budget(ht)


def local_generator_budget(gen, dec, d):
    """The bytes `_local_generator` budgets for one edge, from its J jumps R and the
    nonzeros of A = sum g R^dag R and B = sum g c^2 conj(R) R^T: every R, their stack,
    A and B at 16 bytes an entry; six copies of the jumps' nonzeros (int64 index,
    value); the product's entries, at most sum nnz(R)^2 and the square of the
    positions some R holds, as five int32 arrays and a value; L_e's triplets,
    d nnz(A) + d nnz(B) and twice the product's, as three int64 and three int32
    arrays and two values; and four sets of int64 pointers."""
    jumps = [(0.5 * gen.rates(w), np.exp(-gen.beta * w / 2.0), _phase_split(s)[1])
             for comps in dec.components for w, s in comps.items()]
    a = sum(g * (r.conj().T @ r) for g, _, r in jumps)
    b = sum(g * c**2 * (r.conj() @ r.T) for g, c, r in jumps)
    sizes = np.array([np.count_nonzero(r) for *_, r in jumps])
    positions = np.count_nonzero(sum(np.abs(r) for *_, r in jumps))
    products = min(int(sizes @ sizes), positions**2)
    entries = d * (np.count_nonzero(a) + np.count_nonzero(b)) + 2 * products
    value = np.result_type(*(r for *_, r in jumps)).itemsize
    held = 16 * d * d * (2 * len(jumps) + 2) + sizes.sum() * 6 * (8 + value) + products * (5 * 4 + value)
    return held + entries * (3 * 8 + 3 * 4 + 2 * value) + 8 * 4 * (d * d + len(jumps) + 1)


def test_local_generator_budget_bounds_its_traced_peak(cylinder_patch, monkeypatch):
    """On the patch's largest support (d = 64): a budget of exactly
    `local_generator_budget` admits the build of L_e, whose traced peak is at most
    that count, and one byte less refuses it in `_local_generator`."""
    model, gen, ht, _ = cylinder_patch
    e = max(gen.jumps, key=lambda e: len(gen.jumps[e].support))
    dec = gen.jumps[e]
    d = model.local_dim ** len(dec.support)
    budget = local_generator_budget(gen, dec, d)
    assert d == 64
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", budget)
    tracemalloc.start()
    try:
        gen_e = _local_generator(gen, dec, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (gen_e != ht.local[e][1]).nnz == 0
    assert peak <= budget
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", budget - 1)
    with pytest.raises(FeasibilityError) as info:
        _local_generator(gen, dec, d)
    assert [entry.name for entry in info.traceback[-2:]] == ["_local_generator", "require_fits"]


def named_model(name):
    """The `gap_chain` patch (Z2 cyl:v,0,1), the Z3 N=3 plaquette (Z3 rect:0,0,1,1) or
    the four edges of one Z3 N=3 star (Z3 star: 81-dim supports whose S(w) hold ninths)."""
    if name == "Z2 cyl:v,0,1":
        lat = TorusLattice(2)
        return QuantumDoubleModel(make_cyclic(2), lat).restrict(parse_region(lat, "cyl:v,0,1"))
    lat = TorusLattice(3)
    if name == "Z3 rect:0,0,1,1":
        return QuantumDoubleModel(make_cyclic(3), lat).restrict(parse_region(lat, "rect:0,0,1,1"))
    return QuantumDoubleModel(make_cyclic(3), lat, tuple(e for e, _ in lat.edges_of_star((0, 0))))


@pytest.mark.parametrize("name, beta, custom, stack_has_roundoff", [
    ("Z2 cyl:v,0,1", 0.3, False, True), ("Z2 cyl:v,0,1", 1.0, False, True), ("Z2 cyl:v,0,1", 2.5, False, False),
    ("Z2 cyl:v,0,1", 0.3, True, False), ("Z2 cyl:v,0,1", 1.0, True, True), ("Z2 cyl:v,0,1", 2.5, True, True),
    ("Z3 rect:0,0,1,1", 1.0, False, True), ("Z3 star", 1.0, False, True), ("Z3 star", 2.5, True, True),
])
def test_local_generator_equals_the_stack_oracle(name, beta, custom, stack_has_roundoff):
    """With the default rates or the KMS table g(w) = e^{beta w/2} (1 + 0.3 |w|), each
    class's L_e from the Kronecker expansion equals B^dag B from the stacked jumps to
    1e-13 of its largest entry. It stores every entry of the oracle above 1e-12 of
    that and none below: cancelled terms store nothing, also where the S(w) hold
    ninths (the Z3 star) and, with that table, the cancelling terms of K come from
    different jumps. The stack's product stores such entries in seven of the nine cases."""
    model = named_model(name)
    table = {w: float(np.exp(beta * w / 2) * (1 + 0.3 * abs(w))) for w in BOHR_FREQUENCIES}
    gen = DaviesGenerator.build(model, beta, rates=kms_rates(beta, "custom", table) if custom else None)
    decs = {id(dec.components): dec for dec in gen.jumps.values()}.values()  # one per translation class
    pairs = [(_local_generator(gen, dec, d), local_generator_by_stack(gen, dec, d))
             for dec in decs for d in [model.local_dim ** len(dec.support)]]
    for gen_e, oracle in pairs:
        top = abs(oracle).max()
        assert abs(gen_e - oracle).max() <= 1e-13 * top
        above = abs(oracle) > 1e-12 * top
        assert abs(gen_e).multiply(above).nnz == above.nnz
        assert abs(gen_e.data).min() >= 1e-12 * top
    assert any(abs(o.data).min() < 1e-12 * abs(o).max() for _, o in pairs) is stack_has_roundoff


def test_patch_entry_counts(cylinder_patch):
    """The `gap_chain` patch's L_e hold 11,008 entries over its six edges (the stack's
    product held 11,264), and H~ holds 9,728 (13,824)."""
    _, _, ht, _ = cylinder_patch
    assert sum(gen_e.nnz for _, gen_e in ht.local.values()) == 11_008
    assert ht.matrix.nnz == 9_728


def test_local_gap_check_leaves_the_matrix_unbuilt(cylinder_patch):
    """The local check reads the L_e alone, so the patch H~ of the gap chain is
    never assembled."""
    model, gen, _, rho = cylinder_patch
    ht = HTilde(gen)
    local_gap_check(gen, ht, model.edge_list[0], rho, tol=1e-7)
    assert "matrix" not in vars(ht)


def test_jump_budget_counts_the_stored_bytes(cylinder_patch, monkeypatch):
    """The build budgets the bytes its S(w) take, each array once, as the edges of a
    translation class share theirs: float64 for the real-phase operators, so a
    budget that fits them but not complex S(w) admits the default build."""
    model, gen, _, _ = cylinder_patch
    held = {id(s): s for dec in gen.jumps.values() for comps in dec.components for s in comps.values()}
    jumps = list(held.values())
    assert len(jumps) < sum(len(comps) for dec in gen.jumps.values() for comps in dec.components)
    stored = sum(s.nbytes for s in jumps)
    assert stored < sum(s.size for s in jumps) * np.dtype(complex).itemsize
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", stored)
    DaviesGenerator.build(model, BETA)
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", stored - 1)
    with pytest.raises(FeasibilityError):
        DaviesGenerator.build(model, BETA)


def test_patch_generator_from_the_torus_jumps():
    """gap_chain's first link takes the support patch's H~_e from the torus's edge-0
    L_e alone (`HTilde.on_patch`); on Z2 N=2 it equals the one built on the patch,
    entry for entry."""
    torus = QuantumDoubleModel(make_cyclic(2), TorusLattice(2))
    gen = DaviesGenerator.build(torus, BETA)
    e0 = torus.edge_list[0]
    patch = _local_patch(torus, e0)[0]
    on_patch = DaviesGenerator.build(patch, BETA)
    assert gen.jumps[e0].support == on_patch.jumps[e0].support
    patch_ht = HTilde(gen).on_patch(e0, patch)
    assert list(patch_ht.local) == [e0] and patch_ht.dim == patch.dim**2
    pos, gen_e = patch_ht.local[e0]
    pos_patch, gen_patch = HTilde(on_patch).local[e0]
    assert pos == pos_patch
    assert (gen_e != gen_patch).nnz == 0


CLASS_MODELS = {
    # name: (group order, N, region, "star" for the four edges of the star at (0, 0)
    # or None for the torus, translation classes of edges)
    "Z2 N=2 torus": (2, 2, None, 2),
    "Z2 N=2 cyl:v,0,1": (2, 2, "cyl:v,0,1", 3),
    "Z2 N=3 cyl:v,0,1": (2, 3, "cyl:v,0,1", 3),
    "Z3 N=3 rect:0,0,1,1": (3, 3, "rect:0,0,1,1", 4),
    "Z2 N=3 star": (2, 3, "star", 4),
}


@pytest.fixture(scope="module", params=list(CLASS_MODELS))
def class_model(request):
    """A model, its generator and H~, with the calls of `fourier_components` and
    `_local_generator` that building them made."""
    order, n, spec, classes = CLASS_MODELS[request.param]
    lat = TorusLattice(n)
    model = QuantumDoubleModel(make_cyclic(order), lat)
    if spec == "star":
        model = QuantumDoubleModel(model.group, lat, tuple(e for e, _ in lat.edges_of_star((0, 0))))
    elif spec is not None:
        model = model.restrict(parse_region(lat, spec))
    calls = {"fourier_components": 0, "_local_generator": 0}

    def counted(name):
        inner = getattr(davies, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(davies, name, counted(name))
        gen = DaviesGenerator.build(model, BETA)
        ht = HTilde(gen)
    return model, gen, ht, calls, classes


def test_jumps_and_local_generators_are_built_once_per_class(class_model):
    """One `fourier_components` and one `_local_generator` call per translation class:
    3 classes of 6 edges on the benchmark patch, 2 of 8 on the torus. The edges of a
    class share the S(w) and the L_e objects, and each has its own support."""
    model, gen, ht, calls, classes = class_model
    assert calls == {"fourier_components": classes, "_local_generator": classes}
    assert len({id(dec.components) for dec in gen.jumps.values()}) == classes
    assert len({id(gen_e) for _, gen_e in ht.local.values()}) == classes
    for e, dec in gen.jumps.items():
        assert e in dec.support
        assert sorted(dec.support) == sorted(_local_patch(model, e)[0].edge_list)


def test_each_shared_local_generator_equals_the_edges_own_build(class_model):
    """Each edge's embedded L_e, taken from its class, equals the one built from the
    edge's own jumps on its own support to 1e-13 of its largest entry."""
    model, gen, ht, _, _ = class_model
    for e in model.edge_list:
        own = embedded_local_generator_per_edge(gen, e)
        shared = _embedded(model, *ht.local[e])
        assert abs(shared - own).max() <= 1e-13 * abs(own).max()


def test_gap_chain_refuses_nonpositive_beta_on_entry(monkeypatch):
    """At beta = 0 the gap chain raises before it builds the Davies generator,
    not in the parent Hamiltonian after the Davies stages."""

    def build(*args, **kwargs):
        raise AssertionError("DaviesGenerator.build reached")

    monkeypatch.setattr(DaviesGenerator, "build", build)
    with pytest.raises(ValueError, match="beta > 0"):
        gap_chain(QuantumDoubleModel(make_cyclic(2), TorusLattice(2)), 0.0)


@pytest.fixture(scope="module", params=["Z2 cyl:v,0,1", "Z3 star"])
def jump_patch(request):
    """The Z2 N=2 patch cyl:v,0,1, and the four edges of one Z3 star (81-dim
    supports, scale 3: the non-dyadic 1/|G| case)."""
    if request.param == "Z3 star":
        lat = TorusLattice(3)
        model = QuantumDoubleModel(make_cyclic(3), lat, tuple(e for e, _ in lat.edges_of_star((0, 0))))
    else:
        lat = TorusLattice(2)
        model = QuantumDoubleModel(make_cyclic(2), lat).restrict(parse_region(lat, "cyl:v,0,1"))
    return model, default_coupling(model.group).operators


def test_jumps_match_the_eigh_construction(jump_patch):
    """Same S(w) to 1e-13, and exact zeros exactly where the eigh oracle is below 1e-12 of S."""
    model, ops = jump_patch
    for e in model.edge_list:
        dec = fourier_components(model, e, ops)
        assert dec.support == local_term_sum(model, e)[0].edge_list
        for s_op, comps in zip(ops, dec.components):
            oracle = fourier_components_eigh(model, e, s_op)
            assert all(s.any() for s in comps.values())
            for w in BOHR_FREQUENCIES:
                s = comps.get(w, np.zeros_like(oracle[w]))
                assert np.abs(s - oracle[w]).max() <= 1e-13
                assert np.count_nonzero(s) == np.count_nonzero(np.abs(oracle[w]) > 1e-12 * np.abs(s_op).max())


def test_jumps_against_their_definition(jump_patch):
    """sum_w S(w) = S and [sum of terms, S(w)] = w S(w)."""
    model, ops = jump_patch
    for e in model.edge_list:
        sub, total = local_term_sum(model, e)
        for s_op, comps in zip(ops, fourier_components(model, e, ops).components):
            s_emb = sub._embed_multi([e], s_op)
            assert np.abs(sum(comps.values()) - s_emb).max() <= 1e-14
            for w, s in comps.items():
                assert np.abs(total @ s - s @ total - w * s).max() <= 1e-13


def test_real_phase_sums_equal_the_complex_sums(jump_patch):
    """S(w) summed as c R(w) in real arithmetic are the complex sums sum_k Q_{k+w} S Q_k, bit for bit."""
    model, ops = jump_patch
    for e in model.edge_list:
        sub, levels, scale = level_projectors(model, e)
        for s_op, comps in zip(ops, fourier_components(model, e, ops).components):
            s_emb = sub._embed_multi([e], s_op)
            for w in BOHR_FREQUENCIES:
                direct = sum((levels[k + w] @ s_emb @ q for k, q in levels.items() if k + w in levels),
                             np.zeros_like(s_emb)) / scale**2
                assert np.array_equal(comps.get(w, np.zeros_like(direct)), direct)


def test_default_coupling_gives_real_local_generators(jump_patch):
    """Every default coupling operator is real up to a phase (1 or i), so every L_e is float64."""
    model = jump_patch[0]
    ht = HTilde(DaviesGenerator.build(model, BETA))
    assert {gen_e.dtype for _, gen_e in ht.local.values()} == {np.dtype(float)}


def test_level_projectors_resolve_the_identity(jump_patch):
    """The Q_k are orthogonal projectors summing to 1; c1 is the top eigenvalue of the term sum."""
    model = jump_patch[0]
    for e in model.edge_list:
        sub, levels, scale = level_projectors(model, e)
        qs = [q / scale for q in levels.values()]
        for q in qs:
            assert np.abs(q @ q - q).max() <= 1e-14
            assert np.array_equal(q, q.T)
        assert np.abs(sum(qs) - np.eye(sub.dim)).max() <= 1e-14
        top = np.linalg.eigvalsh(local_term_sum(model, e)[1])[-1]
        assert c1_constant(model, e) == pytest.approx(top, abs=1e-12)


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3"])
def test_c2_constant_against_an_explicit_basis(name):
    """The default coupling's c2 is 4|G| - 2; Z2's 6.0 is the value in the gap chain record."""
    group = group_by_name(name)
    c2 = c2_constant(default_coupling(group))
    assert c2 == pytest.approx(c2_explicit_basis(default_coupling(group)), rel=1e-12)
    assert c2 == pytest.approx(4 * group.order - 2, rel=1e-12)


def test_thermofield_double_is_in_the_kernel(patch):
    model, _, ht, rho = patch
    tfd = thermofield_vector(model, BETA, rho)
    assert np.linalg.norm(ht.matrix @ tfd) < TOL


def test_kernel_projector_range_against_matrix_units(patch):
    """Pi_X for X = edges 1 and 2 of 4 projects onto span{iota(E_ij x 1_X)} over the
    matrix units E_ij of edges 0 and 3."""
    model, _, ht, rho = patch
    pi = IotaKernelProjector(model, rho, model.edge_list[1:3])
    assert np.abs(dense_of(pi.apply, ht.dim) - kernel_projector_oracle(model, rho, [0, 3])).max() < TOL


def test_davies_gap_against_the_dense_spectrum(patch):
    """H~ from its 256 columns has a 1-dim kernel; davies_gap is its lowest nonzero
    eigenvalue (3.2436)."""
    model, _, ht, rho = patch
    vals = np.linalg.eigvalsh(dense_of(lambda x: ht.matrix @ x, ht.dim))
    assert np.count_nonzero(np.abs(vals) < 1e-9) == 1
    assert davies_gap(ht, thermofield_vector(model, BETA, rho)) == pytest.approx(vals[1], rel=1e-9)


def test_local_gap_check_against_the_dense_spectrum(patch):
    """min_eig at edge 0 is the lowest eigenvalue of H~_e - bound (1 - Pi_e), both dense."""
    model, gen, ht, rho = patch
    e0 = model.edge_list[0]
    check = local_gap_check(gen, ht, e0, rho)
    h_e = dense_of(lambda x: ht.apply_edges(x, [e0]), ht.dim)
    pi_e = kernel_projector_oracle(model, rho, [1, 2, 3])
    expect = np.linalg.eigvalsh(h_e - check.bound * (np.eye(ht.dim) - pi_e))[0]
    assert check.min_eig == pytest.approx(expect, abs=1e-9)


def test_complement_gap_against_the_dense_spectrum(patch):
    """sum_e Pi_e^perp over the four edges, dense, has a 1-dim kernel; complement_gap
    with the thermofield double deflated is its lowest nonzero eigenvalue (0.7191)."""
    model, _, ht, rho = patch
    pis = [IotaKernelProjector(model, rho, (e,)) for e in model.edge_list]
    n = model.n_edges
    dense = sum(np.eye(ht.dim) - kernel_projector_oracle(model, rho, [j for j in range(n) if j != i])
                for i in range(n))
    vals = np.linalg.eigvalsh(dense)
    assert np.count_nonzero(np.abs(vals) < 1e-9) == 1
    gap, residual = complement_gap(pis, ht.dim, [thermofield_vector(model, BETA, rho)])
    assert gap == pytest.approx(vals[1], rel=1e-9)
    assert residual < TOL


def test_edge_kernel_projector_is_an_orthogonal_projector(patch):
    model, _, ht, rho = patch
    pi = IotaKernelProjector(model, rho, (model.edge_list[0],))
    p = dense_of(pi.apply, ht.dim)
    assert np.abs(p - dagger(p)).max() < TOL
    assert np.abs(p @ p - p).max() < TOL


@pytest.mark.parametrize("gap_parent, passed", [(-8.0e-15, False), (8.0e-15, False), (0.45, True)])
def test_final_link_needs_a_resolved_parent_gap(gap_parent, passed):
    """The m-link and the final link, at the Z2 N=2, beta=1 figures: gap(L) = 2.19,
    gap(sum Pi_perp) = 0.452, local prefactor 1.65e-3, m = 2, tol 1e-7."""
    assert parent_link_passed(0.452, gap_parent / 2, gap_parent, tol=1e-7) is passed
    final_bound = 1.65e-3 * gap_parent / 2
    assert parent_link_passed(2.19, final_bound, gap_parent, tol=1e-7) is passed


@pytest.fixture(scope="module")
def z2_chain_traced():
    """The whole chain on the Z2 N=2 torus at beta = 1 (about 4 s with 1 BLAS thread),
    with the generators and L_e that `_local_generator` built, the generator and H~
    the local check read, and the entry count of the H~ whose gap the chain took."""
    built, checked, matrix_nnz = [], [], []

    def build(*args):
        built.append((args[0], _local_generator(*args)))
        return built[-1][1]

    def check(gen, htilde, *args, **kwargs):
        checked.append((gen, htilde))
        return local_gap_check(gen, htilde, *args, **kwargs)

    def gap(htilde, *args, **kwargs):
        out = davies_gap(htilde, *args, **kwargs)
        matrix_nnz.append(htilde.matrix.nnz)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(davies, "_local_generator", build)
        mp.setattr(davies, "local_gap_check", check)
        mp.setattr(davies, "davies_gap", gap)
        report = gap_chain(QuantumDoubleModel(make_cyclic(2), TorusLattice(2)), BETA)
    return report, built, checked, matrix_nnz


@pytest.fixture(scope="module")
def z2_chain(z2_chain_traced):
    return z2_chain_traced[0]


def test_gap_chain_local_check_reuses_the_torus_local_generator(z2_chain_traced):
    """The chain builds the torus's two L_e, one per translation class, and no
    more: the local check on edge 0's patch applies the torus's L_e object, and
    reads the chain's own generator, the one those L_e were built from."""
    _, built, checked, _ = z2_chain_traced
    assert len(built) == 2 and len(checked) == 1
    torus = QuantumDoubleModel(make_cyclic(2), TorusLattice(2))
    gen, htilde = checked[0]
    assert all(gen is g for g, _ in built)
    assert len(gen.jumps) == torus.n_edges
    (e0, (pos, gen_e)), = htilde.local.items()
    assert e0 == torus.edge_list[0]
    assert any(gen_e is b for _, b in built)
    assert [htilde.model.edge_list[i] for i in pos] == list(_local_patch(torus, e0)[0].edge_list)


def test_gap_chain_torus_htilde_entry_count(z2_chain_traced):
    """The torus H~ holds 6,602,752 entries; built from the stack's product, whose
    L_e keep the entries where their terms cancel, it held 7,127,040."""
    assert z2_chain_traced[3] == [6_602_752]


def test_gap_chain_on_the_z2_torus(z2_chain):
    """The two gaps match the exact sector-resolved values. The 1x1 rectangles of the
    parent family have no interior vertex, so ker H_parent has 8192 dimensions and
    the parent gap is at roundoff: the m-link and the final link fail, and the chain."""
    assert z2_chain.gaps["davies"] == pytest.approx(2.193550161050, rel=1e-9)
    assert z2_chain.gaps["sum_pi_perp"] == pytest.approx(0.452271364200, rel=1e-9)
    c = z2_chain.constants
    assert (c["C1"], c["C2"], c["m_X"], c["n_beta"], c["n_omega"]) == (4, 6, 2, 57, 9)
    # local, (1), the two probe links, the m-link, the final link
    assert [bool(iq.passed) for iq in z2_chain.inequalities] == [True, True, True, True, False, False]
    assert z2_chain.passed is False
    assert json.loads(records.to_json(z2_chain)) == dataclasses.asdict(z2_chain)


def test_coupling_label_names_the_default_only(patch):
    model, gen, _, _ = patch
    assert gen.coupling.label == "matrix-units"
    x, z = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1, -1]).astype(complex)
    assert DaviesGenerator.build(model, BETA, coupling=CouplingSet((x, z))).coupling.label == "custom"


@pytest.mark.parametrize("operator, message", [
    (np.array([[0, 1], [0, 0]], dtype=complex), "not Hermitian"),  # sigma^+
    (np.diag([1, 0]).astype(complex), "commutant has dimension 2"),  # E_00 alone
])
def test_custom_coupling_is_validated(operator, message):
    model = QuantumDoubleModel(make_cyclic(2), TorusLattice(2))
    with pytest.raises(CouplingError, match=message):
        DaviesGenerator.build(model, BETA, coupling=CouplingSet((operator,)))


def test_default_rates_satisfy_kms():
    for beta in (0.0, 1.0, 3.0):
        rf = kms_rates(beta)
        assert rf.kms_defect() <= 1e-10
        assert rf(2) == pytest.approx(np.exp(beta))


@pytest.mark.parametrize("form, table, match", [
    ("linear", None, "unknown rate form"),
    ("custom", None, "needs a table"),
    ("custom", {w: 1.0 for w in BOHR_FREQUENCIES if w != 3}, "misses Bohr frequencies"),
    ("custom", {w: 0.0 for w in BOHR_FREQUENCIES}, "strictly positive"),
    ("custom", {w: 1.0 for w in BOHR_FREQUENCIES}, "KMS condition"),
    # a key 0.5 would be truncated onto omega = 0, a key 9 would set g_min
    ("custom", {**{w: float(np.exp(w / 2)) for w in BOHR_FREQUENCIES}, 0.5: 7.0}, "not Bohr frequencies"),
    ("custom", {**{w: float(np.exp(w / 2)) for w in BOHR_FREQUENCIES}, 9: 1e-6}, "not Bohr frequencies"),
])
def test_kms_rates_rejects(form, table, match):
    with pytest.raises(RateError, match=match):
        kms_rates(1.0, form, table)
