import itertools
import tracemalloc

import numpy as np
import pytest

from qdlab.groups import group_by_name, make_cyclic, make_symmetric
from qdlab.lattice import RECT, CYL_H, TORUS, Region, TorusLattice, classify_region, parse_region
from qdlab import linalg
from qdlab.linalg import FeasibilityError, kron
from qdlab.peps import RegionNetwork, edge_tensor, weight_plaq
from qdlab.quantum_double import QuantumDoubleModel, gamma_beta
from qdlab.boundary import (
    BlockBoundary,
    BoundaryError,
    kappa_epsilon,
    support_and_sigma,
    verify_leading_term,
)
from oracles import (
    boundary_state_edge,
    delta_projector,
    edge_boundary_entry,
    first_labelling_inputs,
    gathering_check,
    group_function_matrix_oracle,
    holonomy_key,
    holonomy_walk,
    interior_sum_broadcast,
    interior_sum_brute_force,
    interior_sum_closed_form,
    interior_sum_enumerated,
    labellings,
    leading_term_edge,
    phi_operator,
    plaquette_loop_scalar,
    psi_operator,
    summaries_per_labelling,
    vertex_contraction_scalar,
)


class TestToolBox1:
    def test_phi_group_law(self):
        grp = make_symmetric(3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b = rng.integers(0, 6, 2)
            lhs = phi_operator(grp, a) @ phi_operator(grp, b)
            assert np.allclose(lhs, phi_operator(grp, grp.mul[b, a]))
        assert np.allclose(phi_operator(grp, 0) @ phi_operator(grp, 0), phi_operator(grp, 0))

    def test_psi_orthogonality(self):
        grp = make_cyclic(3)
        for g in grp.elements():
            pg = psi_operator(grp, g) / grp.order
            assert np.allclose(pg @ pg, pg)
            for h in grp.elements():
                if h != g:
                    assert np.abs(psi_operator(grp, g) @ psi_operator(grp, h)).max() < 1e-12

    def test_delta_absorbs_psi(self):
        grp = make_symmetric(3)
        d = delta_projector(grp)
        assert np.allclose(d @ d, d)
        for g in (0, 2, 5):
            pg = psi_operator(grp, g)
            assert np.allclose(d @ pg, pg)
            assert np.allclose(pg @ d, pg)

    def test_delta_commutes_with_plaq_weight(self):
        grp = make_cyclic(3)
        d = delta_projector(grp)
        w = weight_plaq(grp, 1.1)
        ww = kron(w, w)
        assert np.abs(ww @ d - d @ ww).max() < 1e-12


class TestScalars:
    def test_vertex_contraction(self):
        grp = make_symmetric(3)
        closed, brute = vertex_contraction_scalar(grp, 0, 1.7)
        assert closed == pytest.approx(1 + gamma_beta(1.7, 6))
        assert brute == pytest.approx(closed, abs=1e-12)
        closed, brute = vertex_contraction_scalar(grp, 3, 1.7)
        assert closed == pytest.approx(gamma_beta(1.7, 6))
        assert brute == pytest.approx(closed, abs=1e-12)
        closed, _ = vertex_contraction_scalar(grp, 3, 0.0)
        assert closed == 0.0

    def test_plaquette_loop(self):
        rng = np.random.default_rng(1)
        for grp in (make_cyclic(3), make_symmetric(3)):
            for _ in range(20):
                gs = tuple(int(v) for v in rng.integers(0, grp.order, 4))
                closed, brute = plaquette_loop_scalar(grp, gs, 0.9)
                assert brute == pytest.approx(closed, abs=1e-12)
            g1, g2, g3 = (int(v) for v in rng.integers(0, grp.order, 3))
            g4 = grp.prod([g1, g2, grp.inv[g3]])
            closed, _ = plaquette_loop_scalar(grp, (g1, g2, g3, g4), 0.9)
            assert closed == pytest.approx(1 + gamma_beta(0.9, grp.order) * grp.order)

    def test_gathering_lemma(self):
        rng = np.random.default_rng(2)
        for grp in (make_cyclic(2), make_symmetric(3)):
            for _ in range(10):
                u, v = (int(x) for x in rng.integers(0, grp.order, 2))
                coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                brute, closed = gathering_check(grp, u, v, *coeffs, m=2)
                assert abs(brute - closed) <= 1e-10 * max(abs(closed), 1.0)
        # b0 = b1 = 0 degenerate case
        brute, closed = gathering_check(make_cyclic(3), 1, 2, 2.0, 0.0, 3.0, 0.0, m=2)
        assert brute == pytest.approx(9 * 6.0)
        # u = v^{-1}, a = 0, b = 1: |G| (|G| - 1)
        grp = make_symmetric(3)
        u = 4
        brute, closed = gathering_check(grp, u, grp.inv[u], 0.0, 1.0, 0.0, 1.0, m=1)
        assert closed == pytest.approx(6 * 5.0)
        assert brute == pytest.approx(closed)


class TestEdgeBoundary:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("make", [make_cyclic, lambda n=3: make_cyclic(3)])
    def test_formula_vs_contraction_dense(self, beta, make):
        grp = make(2) if make is make_cyclic else make()
        for slim in (True, False):
            rho = boundary_state_edge(grp, beta, slim=slim, orientation="v")
            t = edge_tensor(grp, beta, "slim" if slim else "full")
            v = t.reshape(grp.order**2, grp.order**8)
            assert np.abs(rho - v.conj().T @ v).max() <= 1e-12

    def test_s3_sampled_entries_and_probes(self):
        grp = make_symmetric(3)
        beta = 1.0
        t = edge_tensor(grp, beta, "full")
        n = grp.order
        v = t.reshape(n * n, n**8)
        rng = np.random.default_rng(3)
        # sampled entries, exact comparison
        for _ in range(200):
            row = tuple(int(x) for x in rng.integers(0, n, 8))
            col = tuple(int(x) for x in rng.integers(0, n, 8))
            want = edge_boundary_entry(grp, beta, row, col, slim=False)
            ridx = int(np.ravel_multi_index(row, (n,) * 8))
            cidx = int(np.ravel_multi_index(col, (n,) * 8))
            got = float(v[:, ridx] @ v[:, cidx])
            assert got == pytest.approx(want, abs=1e-12)

    def test_slim_edge_state_is_beta_independent(self):
        grp = make_cyclic(2)
        a = boundary_state_edge(grp, 0.3, slim=True)
        b = boundary_state_edge(grp, 2.9, slim=True)
        assert np.abs(a - b).max() == 0.0

    def test_leading_term_edge_properties(self):
        grp = make_cyclic(2)
        s = leading_term_edge(grp)
        assert np.abs(s @ s - s).max() < 1e-12
        rho = boundary_state_edge(grp, 0.9, slim=True)
        assert np.abs(s @ rho - rho).max() < 1e-10
        assert np.abs(rho @ s - rho).max() < 1e-10
        # commutes with the boundary weight product
        wp = weight_plaq(grp, 0.9)
        d = delta_projector(grp)
        ww = kron(wp, wp)
        assert np.abs(ww @ d - d @ ww).max() < 1e-12


def closed_form(grp, reg, fmap, beta):
    """The closed form at the boundary holonomy of the reduced labels `fmap`."""
    bb = BlockBoundary(grp, reg, beta)
    (holonomy,), _ = holonomy_walk(bb, [fmap[e] for e in bb.boundary_edges])
    return interior_sum_closed_form(grp, bb.cls, holonomy, beta)


class TestInteriorSums:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
    def test_closed_form_z2_all_assignments(self, shape):
        grp = make_cyclic(2)
        lat = TorusLattice(4)
        reg = Region(lat, RECT, x0=0, a=shape[0], y0=0, b=shape[1])
        cls = classify_region(reg)
        for f in itertools.product(grp.elements(), repeat=len(cls.boundary_edges)):
            fmap = {e: g for e, g in zip(cls.boundary_edges, f)}
            cf = closed_form(grp, reg, fmap, 1.0)
            bf = interior_sum_brute_force(grp, reg, fmap, 1.0)
            assert abs(cf - bf) <= 1e-10 * max(abs(bf), 1.0)

    def test_closed_form_z3_random_assignments(self):
        grp = make_cyclic(3)
        lat = TorusLattice(4)
        rng = np.random.default_rng(4)
        for shape in ((1, 1), (2, 1), (2, 2)):
            reg = Region(lat, RECT, x0=1, a=shape[0], y0=1, b=shape[1])
            cls = classify_region(reg)
            for _ in range(25):
                f = tuple(int(x) for x in rng.integers(0, 3, len(cls.boundary_edges)))
                fmap = {e: g for e, g in zip(cls.boundary_edges, f)}
                cf = closed_form(grp, reg, fmap, 1.0)
                bf = interior_sum_brute_force(grp, reg, fmap, 1.0)
                assert abs(cf - bf) <= 1e-10 * max(abs(bf), 1.0)

    def test_single_plaquette_closed_form_direct(self):
        grp = make_cyclic(3)
        lat = TorusLattice(4)
        reg = Region(lat, RECT, x0=0, a=1, y0=0, b=1)
        cls = classify_region(reg)
        gamma = gamma_beta(1.0, 3)
        fmap = {e: 0 for e in cls.boundary_edges}
        assert closed_form(grp, reg, fmap, 1.0) == pytest.approx(
            1 + gamma * 3
        )

    def test_cylinder_sum_propagates_to_interior_vertices(self):
        """Z2 cyl:v,0,2 @ N=3 has interior vertices (1,0), (1,1), (1,2) and 9 interior
        edges, so the vertex values reach them from the boundary. In an abelian group
        every chain value is its component's anchor and the rungs tie the two
        components: equal anchors give the full brute-force sum, unequal ones exactly
        0. Each labelling reads its holonomy key's sums, which equal the enumeration
        at the key's first labelling."""
        grp = make_cyclic(2)
        reg = parse_region(TorusLattice(3), "cyl:v,0,2")
        bb = BlockBoundary(grp, reg, 1.0)
        assert len(bb.cls.interior_vertices) == 3 and len(bb.cls.interior_edges) == 9
        enumerated = {}  # holonomy key -> the enumeration at its first labelling
        rng = np.random.default_rng(5)
        for _ in range(10):
            f_hat = tuple(int(g) for g in rng.integers(0, 2, len(bb.boundary_edges)))
            key = holonomy_key(bb, holonomy_walk(bb, f_hat)[0])
            bf = interior_sum_brute_force(grp, reg, dict(zip(bb.boundary_edges, f_hat)), 1.0)
            subgroup = bb._subgroups[key]
            assert subgroup == list(itertools.product(range(2), repeat=2))
            if key not in enumerated:
                g_phys, words = first_labelling_inputs(bb, key)
                enumerated[key] = [interior_sum_enumerated(bb, g_phys, t, words) for t in subgroup]
            for anchors, got, want in zip(subgroup, bb._sums[key].tolist(), enumerated[key], strict=True):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                if anchors[0] == anchors[1]:
                    assert abs(got - bf) <= 1e-10 * max(abs(bf), 1.0)
                else:
                    assert got == 0.0

    @pytest.mark.parametrize("name, n, spec, trivial_only", [
        ("Z2", 6, "rect:0,0,4,4", False),  # 24 interior edges, 9 interior vertices
        ("Z3", 5, "rect:0,0,3,3", False),  # 12 interior edges, 4 interior vertices
        ("S3", 4, "rect:0,0,2,2", True),
    ])
    def test_rectangle_sums_equal_the_closed_form(self, name, n, spec, trivial_only):
        """On a rectangle the closed form holds for every anchor tuple of an abelian
        group and for the trivial anchors of any group; the elimination's sums equal
        it to 1e-12 relative, also where no enumeration fits."""
        grp = group_by_name(name)
        bb = BlockBoundary(grp, parse_region(TorusLattice(n), spec), 1.0)
        checked = 0
        for key, (subgroup, sums) in enumerate(zip(bb._subgroups, bb._sums, strict=True)):
            expect = interior_sum_closed_form(grp, bb.cls, key, 1.0)  # one component: the key is its holonomy
            for anchors, got in zip(subgroup, sums.tolist(), strict=True):
                if not trivial_only or anchors == (0,):
                    assert got == pytest.approx(expect, rel=1e-12)
                    checked += 1
        assert checked == (grp.order if trivial_only else grp.order**2)


class TestInteriorBroadcast:
    @pytest.mark.parametrize("name, n, spec", [
        ("S3", 4, "rect:0,0,2,2"),  # an interior vertex, non-trivial anchors
        ("S3", 3, "cyl:v,0,1"),
        ("Z3", 3, "cyl:v,0,1"),
        ("Z2", 3, "cyl:v,0,2"),  # three interior vertices
    ])
    def test_broadcast_matches_the_enumeration(self, name, n, spec):
        """Every anchor tuple of every holonomy key, at the key's first labelling: the
        masked broadcast oracle equals the enumeration with its vertex-value fixpoint
        bit for bit, and the elimination's sums, in another summation order, equal it
        to 1e-12 relative (zero where it is zero)."""
        bb = BlockBoundary(group_by_name(name), parse_region(TorusLattice(n), spec), 1.0)
        assert len(bb._sums) == bb.n ** len(bb._walks)
        nonzero = 0
        for key, (subgroup, sums) in enumerate(zip(bb._subgroups, bb._sums, strict=True)):
            g_phys, words = first_labelling_inputs(bb, key)
            expect = [interior_sum_enumerated(bb, g_phys, anchors, words) for anchors in subgroup]
            assert interior_sum_broadcast(bb, g_phys, subgroup, words) == expect
            for got, want in zip(sums.tolist(), expect, strict=True):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                nonzero += want != 0.0
        assert nonzero > 0

    def test_budget_counts_the_largest_joined_factor(self, monkeypatch):
        """S3 N=4 rect:0,0,2,2 has 4 interior edges and 1 interior vertex, and its 6
        keys have 18 anchor tuples in all (the centralizers: 6, 3, 3, 2, 2, 2). Each
        interior edge lies on two plaquettes and its edge relation reads the interior
        vertex, so the first variable summed out joins 4 variables and the batch:
        18 * 6^4 float64 entries, 186,624 bytes, the largest joined factor. A budget
        of exactly that builds the blocks; one byte less refuses them inside
        `interior_sum`, before the factor exists. The fold of the labellings and the
        first labelling of each key are made under the default budget beforehand and
        shared."""
        bb = BlockBoundary(make_symmetric(3), parse_region(TorusLattice(4), "rect:0,0,2,2"), 1.0)
        assert (len(bb.cls.interior_edges), len(bb.cls.interior_vertices)) == (4, 1)
        assert sorted(map(len, bb._subgroups)) == [2, 2, 2, 3, 3, 6]
        budget = 18 * 6**4 * 8
        expect = bb.block(0).coeffs
        admitted, refused = (BlockBoundary(bb.group, bb.region, 1.0) for _ in range(2))
        admitted._fold = refused._fold = bb._fold
        admitted._first = refused._first = bb._first
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", budget)
        assert admitted.block(0).coeffs == expect
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", budget - 1)
        tracemalloc.start()
        try:
            with pytest.raises(FeasibilityError) as info:
                refused.block(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [entry.name for entry in info.traceback[-2:]] == ["interior_sum", "require_fits"]
        assert peak < budget


class TestKappaEpsilon:
    def test_2x2_at_gamma_one(self):
        lat = TorusLattice(4)
        cls = classify_region(Region(lat, RECT, x0=0, a=2, y0=0, b=2))
        kappa, eps = kappa_epsilon(cls, np.log(3.0), 2)
        assert kappa == pytest.approx(2**5 * 2**12)
        assert eps == pytest.approx(6.0)

    def test_beta_zero(self):
        lat = TorusLattice(4)
        cls = classify_region(Region(lat, RECT, x0=0, a=2, y0=0, b=2))
        kappa, eps = kappa_epsilon(cls, 0.0, 2)
        assert kappa == pytest.approx(2.0**12)
        assert eps == 0.0

    def test_epsilon_decreases_with_interior_vertices(self):
        lat = TorusLattice(6)
        vals = []
        for a in (2, 3, 4):
            cls = classify_region(Region(lat, RECT, x0=0, a=a, y0=0, b=a))
            vals.append(kappa_epsilon(cls, 1.0, 2)[1])
        assert vals[0] > vals[1] > vals[2]


DECAY_RECTS = {"Z2": 4, "Z3": 3}  # largest side of the rectangles a x b, 1 <= b <= a


@pytest.mark.parametrize("name", list(DECAY_RECTS))
def test_leading_term_decays_at_the_theorem_rate(name):
    """The measured leading-term norm of the a x b rectangles (N = a + 2, beta = 1)
    stays below epsilon = 3|G|^2 (gamma/(1+gamma))^{v_int} and falls at its rate:
    - from the (n-1) x n to the n x n rectangle (n the largest side), by a factor
      within 1% of gamma/(1+gamma) per interior vertex (Z2 0.4613 against 0.4621,
      Z3 0.3614 against 0.3642);
    - measured/epsilon on the n x n rectangle is within 1% of (|G|-1)/(3|G|^2)
      (Z2 0.0837 against 0.0833, Z3 0.0746 against 0.0741)."""
    grp, side = group_by_name(name), DECAY_RECTS[name]
    n = grp.order
    certs = {}
    for a in range(1, side + 1):
        for b in range(1, a + 1):
            reg = Region(TorusLattice(a + 2), RECT, x0=0, a=a, y0=0, b=b)
            certs[a, b] = verify_leading_term(grp, reg, 1.0), len(classify_region(reg).interior_vertices)
    assert all(cert.measured <= cert.epsilon for cert, _ in certs.values())
    (small, v_small), (large, v_large) = certs[side, side - 1], certs[side, side]
    g = gamma_beta(1.0, n)
    per_vertex = (large.measured / small.measured) ** (1.0 / (v_large - v_small))
    assert per_vertex == pytest.approx(g / (1 + g), rel=0.01)
    assert large.measured / large.epsilon == pytest.approx((n - 1) / (3 * n * n), rel=0.01)


class TestBlocks:
    @pytest.mark.parametrize("name, n, spec", [
        ("Z2", 4, "rect:0,0,2,2"),
        ("Z2", 3, "cyl:v,0,1"),
        ("Z2", 3, "cyl:h,1,1"),
        ("S3", 3, "rect:0,0,1,1"),
        ("Z2", 4, "rect:0,0,3,1"),
    ])
    def test_reduced_basis_order_matches_blocks(self, name, n, spec):
        """The projector applies the block boundary's Gram half-inverse to the
        network's reduced axes by position, so the two orders must agree."""
        grp, lat = group_by_name(name), TorusLattice(n)
        region = parse_region(lat, spec)
        net = RegionNetwork(QuantumDoubleModel(grp, lat), region, 1.0)
        bb = BlockBoundary(grp, region, 1.0)
        assert list(net.cls.boundary_edges) == bb.boundary_edges
        assert list(net.cls.boundary_vertices) == bb.boundary_vertices

    def test_block_gram_matches_network(self):
        grp = make_cyclic(2)
        lat = TorusLattice(4)
        model = QuantumDoubleModel(grp, lat)
        beta = 1.0
        reg = Region(lat, RECT, x0=0, a=1, y0=0, b=1)
        net = RegionNetwork(model, reg, beta)
        t = net.t_matrix()
        gram = t.T @ t
        bb = BlockBoundary(grp, reg, beta)
        # the network undoes the boundary weights, so its Gram is kappa times the slim blocks
        n = 2
        slim = np.zeros_like(gram)
        nv = len(bb.boundary_vertices)
        for f, f_hat in enumerate(labellings(bb)):
            blk = bb.block(f)
            _, words = holonomy_walk(bb, f_hat)
            chain = np.zeros((n**nv, n**nv))
            for anchors, c in blk.coeffs.items():
                # right-multiplication by a(v)^{-1} at each boundary vertex
                value = bb._anchor_values(words, anchors)
                idx = [grp.mul[:, grp.inv[a]] for a in value]
                perm = np.zeros((n**nv, n**nv))
                for hv in itertools.product(range(n), repeat=nv):
                    src = tuple(m[h] for m, h in zip(idx, hv))
                    perm[np.ravel_multi_index(hv, (n,) * nv), np.ravel_multi_index(src, (n,) * nv)] = 1.0
                chain += c * perm
            lo = int(np.ravel_multi_index(f_hat, (n,) * 4)) * n**nv
            slim[lo : lo + n**nv, lo : lo + n**nv] = chain
        assert np.abs(gram - bb.kappa * slim).max() <= 1e-10 * np.abs(gram).max()

    def test_leading_term_exact_at_beta_zero(self):
        grp = make_cyclic(2)
        lat = TorusLattice(4)
        for shape in ((2, 2), (3, 2)):
            reg = Region(lat, RECT, x0=0, a=shape[0], y0=0, b=shape[1])
            bb = BlockBoundary(grp, reg, 0.0)
            assert bb.leading_term_norm() <= 1e-14

    def test_certificate_passes_z2(self):
        grp = make_cyclic(2)
        lat = TorusLattice(5)
        reg = Region(lat, RECT, x0=0, a=2, y0=0, b=2)
        for beta in (1.0, 4.0):
            cert = verify_leading_term(grp, reg, beta)
            assert cert.passed
            assert cert.measured <= cert.epsilon + 1e-8

    def test_certificate_s3_single_plaquette(self):
        grp = make_symmetric(3)
        lat = TorusLattice(4)
        reg = Region(lat, RECT, x0=0, a=1, y0=0, b=1)
        cert = verify_leading_term(grp, reg, 2.0)
        assert cert.passed  # vacuous bound but measured must still be below it
        assert cert.vacuous

    def test_support_certificate_2x2(self):
        grp = make_cyclic(2)
        lat = TorusLattice(5)
        reg = Region(lat, RECT, x0=0, a=2, y0=0, b=2)
        cert = support_and_sigma(grp, reg, 4.0)
        assert cert.extras["rank"] == cert.extras["leading_rank"]
        assert cert.measured < cert.epsilon

    def test_support_rank_defect_single_plaquette(self):
        # with no interior vertex the two anchor blocks coincide and the support
        # is strictly smaller than the leading-term projector
        grp = make_cyclic(2)
        lat = TorusLattice(5)
        reg = Region(lat, RECT, x0=0, a=1, y0=0, b=1)
        cert = support_and_sigma(grp, reg, 4.0)
        assert cert.vacuous  # epsilon = 12 >= 1
        assert cert.extras["rank"] == cert.extras["leading_rank"] // 2

    def test_cylinder_blocks_match_network_probes(self):
        grp = make_cyclic(2)
        lat = TorusLattice(2)
        model = QuantumDoubleModel(grp, lat)
        beta = 1.3
        reg = Region(lat, CYL_H, y0=0, b=1)
        net = RegionNetwork(model, reg, beta)
        bb = BlockBoundary(grp, reg, beta)
        # Gram probes of the network's reduced map: T^dag (T y) vs kappa S~ y
        smat = bb.group_function_matrix(lambda v: v)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(net.reduced_dim)
        got = net.t_dagger_apply(net.t_apply(y))
        want = bb.kappa * (smat @ y)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("name, n, spec", [
        ("Z2", 4, "rect:0,0,2,2"),
        ("Z2", 3, "cyl:v,0,1"),
        ("Z3", 3, "cyl:h,0,1"),  # two components, 9 keys
        ("S3", 3, "rect:0,0,1,1"),
    ])
    def test_block_summaries_match_svd_oracle(self, name, n, spec):
        """The summaries read one eigh per block; the oracle takes SVD norms and
        an SVD pseudo-inverse of each block matrix m at the same cutoff."""
        grp, lat = group_by_name(name), TorusLattice(n)
        bb = BlockBoundary(grp, parse_region(lat, spec), 1.0)
        chain_dim = grp.order ** len(bb.boundary_vertices)
        lead = norm_a = norm_b = 0.0
        rank = 0
        for f in range(grp.order ** len(bb.boundary_edges)):
            m = bb.block(f).m_matrix
            assert np.array_equal(m, m.T)  # eigh reads one triangle
            lead = max(lead, np.linalg.norm(m - np.eye(len(m)), 2))
            s = np.linalg.svd(m, compute_uv=False)
            rank += chain_dim // len(m) * int(np.sum(s > 1e-10 * s[0]))
            pinv = np.linalg.pinv(m, rcond=1e-10)
            supp = m @ pinv
            norm_a = max(norm_a, np.linalg.norm(m - supp, 2))
            norm_b = max(norm_b, np.linalg.norm(pinv - supp, 2))
        assert bb.leading_term_norm() == pytest.approx(lead, rel=1e-10)
        assert bb.rank() == rank
        assert bb.support_norms() == pytest.approx((norm_a, norm_b), rel=1e-10)

    @pytest.mark.parametrize("name, n, spec", [
        ("Z2", 4, "rect:0,0,2,2"),
        ("Z3", 3, "cyl:h,0,1"),  # two components, 9 keys
        ("Z2", 3, "cyl:v,0,1"),
        ("S3", 3, "rect:0,0,1,1"),
        ("S3", 3, "cyl:v,0,1"),  # 36 keys
    ])
    def test_summaries_per_key_equal_the_per_labelling_loop(self, name, n, spec):
        """`rank` and `support_norms` read the block of each key's first labelling
        once, the rank weighted by the |G|^(L-c) labellings of a key: exactly the
        values of the loop over every labelling."""
        bb = BlockBoundary(group_by_name(name), parse_region(TorusLattice(n), spec), 1.0)
        assert (bb.rank(), bb.support_norms()) == summaries_per_labelling(bb)

    @pytest.mark.parametrize("name, n, spec, n_keys", [
        ("S3", 4, "rect:0,0,2,2", 6),
        ("Z3", 3, "cyl:h,0,1", 9),
    ])
    def test_support_certificate_builds_each_key_once(self, monkeypatch, name, n, spec, n_keys):
        """`support_and_sigma` calls `block` once per key in `rank` and once in
        `support_norms`, and `interior_sum` once, for the sums of every key."""
        calls = dict.fromkeys(["block", "interior_sum"], 0)
        for attr in calls:
            def counting(*args, _attr=attr, _inner=getattr(BlockBoundary, attr)):
                calls[_attr] += 1
                return _inner(*args)
            monkeypatch.setattr(BlockBoundary, attr, counting)
        support_and_sigma(group_by_name(name), parse_region(TorusLattice(n), spec), 1.0)
        assert calls == {"block": 2 * n_keys, "interior_sum": 1}

    @pytest.mark.parametrize("name, n, spec", [
        ("Z2", 4, "rect:0,0,2,2"),
        ("Z3", 3, "rect:0,0,1,1"),
        ("Z2", 3, "cyl:v,0,1"),
        ("Z3", 3, "cyl:h,0,1"),
        ("S3", 3, "rect:0,0,1,1"),
    ])
    def test_holonomy_key_matches_per_labelling_build(self, name, n, spec):
        """A block depends on its labelling only through the holonomies: the block
        one instance shares across a key equals the one a fresh instance builds
        from that labelling alone, and each key has |G|^(L-c) labellings."""
        grp, lat = group_by_name(name), TorusLattice(n)
        region = parse_region(lat, spec)
        bb = BlockBoundary(grp, region, 1.0)
        by_key: dict = {}
        for f, f_hat in enumerate(labellings(bb)):
            by_key.setdefault(holonomy_walk(bb, f_hat)[0], []).append(f)
        n_edges, n_comp = len(bb.boundary_edges), len(next(iter(by_key)))
        assert {len(fs) for fs in by_key.values()} == {grp.order ** (n_edges - n_comp)}
        rng = np.random.default_rng(6)
        for fs in by_key.values():
            if np.array_equal(grp.mul, grp.mul.T):
                sample = fs
            else:
                sample = [fs[i] for i in rng.choice(len(fs), 6, replace=False)]
            for f in sample:
                shared = bb.block(f)
                fresh = BlockBoundary(grp, region, 1.0).block(f)
                assert fresh.subgroup == shared.subgroup
                assert np.abs(fresh.m_matrix - shared.m_matrix).max() <= 1e-12
        assert len(bb._block_cache) == len(by_key) <= grp.order**n_comp

    @pytest.mark.parametrize("name, n, spec", [
        ("Z2", 4, "rect:0,0,2,2"),
        ("Z3", 3, "rect:0,0,1,1"),
        ("Z2", 3, "cyl:v,0,1"),  # two components
        ("S3", 3, "rect:0,0,1,1"),
    ])
    def test_fold_matches_the_scalar_walk(self, name, n, spec):
        """The fold's key and vertex words of every labelling, in row-major order,
        equal those of the walk taken one label at a time."""
        grp, lat = group_by_name(name), TorusLattice(n)
        bb = BlockBoundary(grp, parse_region(lat, spec), 1.0)
        keys, words = bb._fold
        assert keys.dtype == words.dtype == np.uint8
        walked = [holonomy_walk(bb, f_hat) for f_hat in labellings(bb)]
        assert keys.tolist() == [holonomy_key(bb, hols) for hols, _ in walked]
        assert words.T.tolist() == [u for _, u in walked]

    def test_fold_budget_is_exact(self, monkeypatch):
        """S3 N=4 rect:0,0,2,2: the fold of its 6^8 = 1,679,616 labellings holds one
        uint8 key and 8 uint8 vertex words each, and the walk's running holonomy
        and its successor, 1,679,616 * 11 = 18,475,776 bytes. That budget makes
        the fold, within its count; one byte less refuses it before any of its
        arrays is made."""
        grp, lat = make_symmetric(3), TorusLattice(4)
        region = parse_region(lat, "rect:0,0,2,2")
        count = 18475776
        keys, words = BlockBoundary(grp, region, 1.0)._fold
        admitted, refused = (BlockBoundary(grp, region, 1.0) for _ in range(2))
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", count)
        tracemalloc.start()
        try:
            got = admitted._fold
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got[0], keys) and np.array_equal(got[1], words)
        assert peak <= count
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", count - 1)
        tracemalloc.start()
        try:
            with pytest.raises(FeasibilityError, match=r"shape \(18475776,\)") as info:
                refused._fold
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [entry.name for entry in info.traceback[-2:]] == ["_fold", "require_fits"]
        assert peak < 2**16

    @pytest.mark.parametrize("name, n, spec", [
        ("Z3", 3, "rect:0,0,1,1"),
        ("Z2", 2, "cyl:v,0,1"),  # two rings, each of two edges on the same two vertices
        ("Z2", 2, "cyl:h,1,1"),
        ("Z2", 3, "rect:2,2,2,1"),  # the perimeter crosses the wrap
        ("Z3", 2, "rect:1,1,1,1"),
    ])
    def test_gram_probes_match_network_z3(self, name, n, spec):
        """T^dag (T y) = kappa S~ y through the network, for a group other than Z2 and
        for the boundary walk's edge cases; the identity does not depend on the walk."""
        grp, lat = group_by_name(name), TorusLattice(n)
        region = parse_region(lat, spec)
        net = RegionNetwork(QuantumDoubleModel(grp, lat), region, 1.0)
        bb = BlockBoundary(grp, region, 1.0)
        smat = bb.group_function_matrix(lambda v: v)
        y = np.random.default_rng(7).standard_normal(net.reduced_dim)
        got = net.t_dagger_apply(net.t_apply(y))
        want = bb.kappa * (smat @ y)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("name, n, spec", [
        ("Z2", 3, "rect:0,0,2,2"),  # an interior vertex; 2^24 doubled dims
        ("Z3", 4, "rect:0,0,2,1"),
    ])
    def test_gram_is_kappa_times_the_slim_blocks(self, name, n, spec):
        """T^dag T = kappa S~ entry by entry, T from the network's sparse scatter and
        S~ from the blocks."""
        grp, lat = group_by_name(name), TorusLattice(n)
        region = parse_region(lat, spec)
        t = RegionNetwork(QuantumDoubleModel(grp, lat), region, 1.0).t_sparse
        bb = BlockBoundary(grp, region, 1.0)
        want = bb.kappa * bb.group_function_matrix(lambda v: v)
        assert abs(t.T @ t - want).max() <= 1e-12 * abs(want).max()

    @pytest.mark.parametrize("name, n, spec", [
        ("Z2", 4, "rect:0,0,3,1"),
        ("Z2", 4, "rect:0,0,2,2"),
        ("Z3", 3, "rect:0,0,1,1"),
        ("S3", 3, "rect:0,0,1,1"),  # anchor subgroups of 6, 3 and 2 elements
        ("Z2", 3, "cyl:v,0,1"),  # two components
    ])
    @pytest.mark.parametrize("half_inverse", [False, True], ids=["v", "half-inverse"])
    def test_group_function_matrix_matches_the_per_labelling_loop(self, name, n, spec, half_inverse):
        """The matrix made for all labellings at once, in column order, against the
        loop over each labelling and anchor sorted by scipy, entry for entry, for
        func = v (the slim Gram) and (kappa v)^{-1/2} (the projector's half-inverse)."""
        grp, lat = group_by_name(name), TorusLattice(n)
        region = parse_region(lat, spec)
        bb = BlockBoundary(grp, region, 1.0)
        func = (lambda v: (bb.kappa * v) ** -0.5) if half_inverse else (lambda v: v)
        got = bb.group_function_matrix(func)
        want = group_function_matrix_oracle(BlockBoundary(grp, region, 1.0), func)
        assert got.format == "csc"
        assert got.nnz == want.nnz and (got != want).nnz == 0

    def test_torus_has_no_boundary(self):
        with pytest.raises(BoundaryError, match="the torus has no boundary"):
            BlockBoundary(make_cyclic(2), Region(TorusLattice(2), TORUS), 1.0)

    def test_s3_two_plaquette_certificates(self):
        """S3 rect:0,0,2,1 @ N=3, beta=1, pinned at the values of the per-labelling
        build (46,656 labellings, 6 holonomy keys)."""
        grp, lat = make_symmetric(3), TorusLattice(3)
        reg = parse_region(lat, "rect:0,0,2,1")
        lead = verify_leading_term(grp, reg, 1.0)
        supp = support_and_sigma(grp, reg, 1.0)
        for cert in (lead, supp):
            assert cert.epsilon == 108.0
            assert cert.measured == pytest.approx(4.673919497403015, rel=1e-10)
            assert cert.vacuous
        assert lead.passed
        assert supp.extras["inverse_norm"] == pytest.approx(2.3095485768622956, rel=1e-10)
        assert supp.extras["rank"] == supp.extras["leading_rank"] == 2176782336

    def test_s3_two_by_two_certificates(self):
        """S3 rect:0,0,2,2 @ N=4, beta=1: 6^8 = 1,679,616 labellings, 6 holonomy
        keys and an interior vertex; both certificates pinned at their values."""
        grp, lat = make_symmetric(3), TorusLattice(4)
        reg = parse_region(lat, "rect:0,0,2,2")
        lead = verify_leading_term(grp, reg, 1.0)
        supp = support_and_sigma(grp, reg, 1.0)
        for cert in (lead, supp):
            assert cert.epsilon == pytest.approx(24.04349071438699, rel=1e-10)
            assert cert.measured == pytest.approx(0.2538603289553283, rel=1e-10)
            assert cert.passed and cert.vacuous
        assert supp.extras["inverse_norm"] == pytest.approx(0.20246300412649287, rel=1e-10)
        assert supp.extras["rank"] == supp.extras["leading_rank"] == 2821109907456

    def test_non_vacuous_certificates_z2_3x3(self):
        """The smallest Z2 rectangle with epsilon < 1 at beta = 1: both certificates
        pass on their hypothesis, pinned at their values."""
        grp, lat = make_cyclic(2), TorusLattice(5)
        reg = Region(lat, RECT, x0=0, a=3, y0=0, b=3)
        lead = verify_leading_term(grp, reg, 1.0)
        supp = support_and_sigma(grp, reg, 1.0)
        for cert in (lead, supp):
            assert cert.epsilon == pytest.approx(0.547254849064702, rel=1e-10)
            assert cert.measured == pytest.approx(0.04660950191129053, rel=1e-10)
            assert cert.passed and not cert.vacuous
        assert supp.extras["inverse_norm"] == pytest.approx(0.04879172144804957, rel=1e-10)
        assert supp.extras["rank"] == supp.extras["leading_rank"] == 16777216

    @pytest.mark.parametrize("name, a, b, epsilon, measured, rank", [
        ("Z2", 4, 3, 0.11686751366315634, 0.009834730517843893, 2**28),
        ("Z2", 4, 4, 0.011533206919775519, 0.0009654302057060526, 2**32),
        ("Z3", 3, 3, 0.47490401394530535, 0.035411334817479156, 3**24),
    ], ids=["Z2-4x3", "Z2-4x4", "Z3-3x3"])
    def test_non_vacuous_certificates(self, name, a, b, epsilon, measured, rank):
        """The other rectangles with epsilon < 1 at beta = 1 that run in under 0.3 s
        (N = longer side + 2): both certificates pass on their hypothesis, with the
        leading rank, pinned at their values."""
        reg = Region(TorusLattice(a + 2), RECT, x0=0, a=a, y0=0, b=b)
        lead = verify_leading_term(group_by_name(name), reg, 1.0)
        supp = support_and_sigma(group_by_name(name), reg, 1.0)
        for cert in (lead, supp):
            assert cert.epsilon == pytest.approx(epsilon, rel=1e-10)
            assert cert.measured == pytest.approx(measured, rel=1e-10)
            assert cert.passed and not cert.vacuous
        assert supp.extras["rank"] == supp.extras["leading_rank"] == rank
