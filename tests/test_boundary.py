import itertools

import numpy as np
import pytest

from qdlab.groups import group_by_name, make_cyclic, make_symmetric
from qdlab.lattice import RECT, CYL_H, Region, TorusLattice, classify_region, parse_region
from qdlab.linalg import kron
from qdlab.peps import RegionNetwork, edge_tensor, weight_plaq
from qdlab.quantum_double import QuantumDoubleModel, gamma_beta
from qdlab.boundary import (
    BlockBoundary,
    boundary_components,
    chi_boundary,
    interior_sum_closed_form,
    kappa_epsilon,
    support_and_sigma,
    verify_leading_term,
)
from oracles import (
    boundary_state_edge,
    delta_projector,
    edge_boundary_entry,
    gathering_check,
    interior_sum_brute_force,
    leading_term_edge,
    phi_operator,
    plaquette_loop_scalar,
    psi_operator,
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
        w = weight_plaq(grp, 1.1).matrix
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
            t = edge_tensor(grp, beta, "v", "slim" if slim else "full")
            v = t.data.reshape(grp.order**2, grp.order**8)
            assert np.abs(rho - v.conj().T @ v).max() <= 1e-12

    def test_s3_sampled_entries_and_probes(self):
        grp = make_symmetric(3)
        beta = 1.0
        t = edge_tensor(grp, beta, "v", "full")
        n = grp.order
        v = t.data.reshape(n * n, n**8)
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
        wp = weight_plaq(grp, 0.9).matrix
        d = delta_projector(grp)
        ww = kron(wp, wp)
        assert np.abs(ww @ d - d @ ww).max() < 1e-12


def closed_form(grp, reg, fmap, beta):
    """The closed form at the boundary word of the reduced labels `fmap`."""
    word = chi_boundary(grp, boundary_components(reg)[0], fmap)
    return interior_sum_closed_form(grp, classify_region(reg), word, beta)


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
        assert list(net.reduced.edges) == bb.boundary_edges
        assert list(net.reduced.vertices) == bb.boundary_vertices

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
        for f_hat in bb.f_hat_iter():
            blk = bb.block(f_hat)
            chain = np.zeros((n**nv, n**nv))
            for anchors, c in blk.coeffs.items():
                # right-multiplication by a(v)^{-1} at each boundary vertex
                value = bb._anchor_values(blk.anchors_words, anchors)
                idx = [grp.mul[:, grp.inv[value[v]]] for v in bb.boundary_vertices]
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
        y = rng.standard_normal(net.reduced.dim)
        got = net.t_dagger_apply(net.t_apply(y))
        want = bb.kappa * (smat @ y)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("name, n, spec", [
        ("Z2", 4, "rect:0,0,2,2"),
        ("Z2", 3, "cyl:v,0,1"),
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
        for f_hat in bb.f_hat_iter():
            m = bb.block(f_hat).m_matrix
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

    def test_non_vacuous_certificates_z2_3x3(self):
        """The one instance with epsilon < 1 that fits: both certificates pass on
        their hypothesis, pinned at their values."""
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
