import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdlab import linalg, peps
from qdlab.davies import thermofield_vector
from qdlab.groups import FiniteGroup, make_cyclic, make_symmetric
from qdlab.lattice import RECT, TORUS, Region, TorusLattice, parse_region
from qdlab.linalg import FeasibilityError
from qdlab.peps import RegionNetwork, edge_tensor, star_leg_weights, weight_plaq
from qdlab.quantum_double import QuantumDoubleModel, gamma_beta, gibbs_state
from oracles import (
    contract_region,
    edge_tensor_from_quarters,
    hamiltonian_dense,
    layout_copies_oracle,
    matrix_exp_hermitian,
    min_contraction_cost_oracle,
    plan_cost_oracle,
    plan_counts_oracle,
    t_apply_oracle,
    t_dagger_apply_oracle,
    v_matrix,
    weight_star,
)


@pytest.fixture(scope="module")
def z2_model():
    return QuantumDoubleModel(make_cyclic(2), TorusLattice(2))


class TestWeights:
    def test_star_weight_entries(self):
        grp = make_cyclic(3)
        beta = 1.7
        q = gamma_beta(beta / 2, 3)
        w = weight_star(grp, beta)
        assert w[0, 0] == pytest.approx((1 + q) ** 0.125)
        assert w[1, 1] == pytest.approx(q**0.125)

    def test_star_weight_beta_zero_projects(self):
        grp = make_cyclic(3)
        w = weight_star(grp, 0.0)
        assert np.allclose(w, np.diag([1.0, 0.0, 0.0]))
        assert np.linalg.matrix_rank(weight_star(grp, 0.0)) < grp.order

    def test_plaq_weight_eigenvalues(self):
        grp = make_symmetric(3)
        beta = 0.9
        q = gamma_beta(beta / 2, 6)
        w = weight_plaq(grp, beta)
        vals = np.linalg.eigvalsh(w)
        assert vals[-1] == pytest.approx((1 + q) ** 0.125)
        assert np.allclose(vals[:-1], q**0.125)

    def test_plaq_weight_beta_zero_is_p1(self):
        grp = make_cyclic(2)
        p1, _ = grp.trivial_projector()
        assert np.allclose(weight_plaq(grp, 0.0), p1)

    def test_squared_star_weight_quarter_power(self):
        grp = make_cyclic(3)
        beta = 1.1
        q = gamma_beta(beta / 2, 3)
        w = weight_star(grp, beta)
        expect = np.diag(star_leg_weights(grp, beta, power=0.25))
        assert np.allclose(w @ w, expect)


class TestEdgeTensor:
    def test_entry_counts_z2(self):
        t = edge_tensor(make_cyclic(2), 1.0, "slim")
        assert t.size == 4 * 256
        # one structured block per (g, h, k) triple
        assert np.count_nonzero(t) == 8 * 2 * 2

    @pytest.mark.parametrize("orientation", ["v", "h"])
    @pytest.mark.parametrize("variant", ["slim", "full"])
    def test_quarter_contraction_oracle(self, orientation, variant):
        for grp in (make_cyclic(2), make_cyclic(3)):
            t = edge_tensor(grp, 1.3, variant)
            q = edge_tensor_from_quarters(grp, 1.3, orientation, variant)
            assert np.abs(t - q).max() < 1e-12

    def test_full_beta0_is_diagonal_channel(self):
        grp = make_cyclic(2)
        t = edge_tensor(grp, 0.0, "full")
        nz = np.argwhere(np.abs(t) > 1e-14)
        for idx in nz:
            ket, pur = idx[0], idx[1]
            assert ket == pur  # only g-diagonal terms survive at beta=0
            assert idx[6] == idx[7] == 0 and idx[8] == idx[9] == 0  # h = k = identity

    def test_cache_is_keyed_by_group_table(self):
        a = np.arange(4)
        klein = FiniteGroup(order=4, mul=a[:, None] ^ a[None, :], inv=a, label="V4")
        z4 = edge_tensor(make_cyclic(4), 1.0, "slim")
        v4 = edge_tensor(klein, 1.0, "slim")
        assert not np.array_equal(z4, v4)
        assert np.abs(v4 - edge_tensor_from_quarters(klein, 1.0, "v", "slim")).max() < 1e-12
        edge_tensor(make_cyclic(2), 1.0, "full")
        size = len(peps._EDGE_CACHE)
        # an equal group built anew reuses the entry
        edge_tensor(make_cyclic(2), 1.0, "full")
        assert len(peps._EDGE_CACHE) == size

    def test_cache_evicts_oldest_entries_beyond_budget(self, monkeypatch):
        z3 = make_cyclic(3)
        entry = 8 * 3**10
        monkeypatch.setattr(peps, "_EDGE_CACHE", {})
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 3 * entry)
        for beta in (1.0, 1.1, 1.2):
            edge_tensor(z3, beta)
        oldest = next(iter(peps._EDGE_CACHE))
        edge_tensor(z3, 1.3)
        assert oldest not in peps._EDGE_CACHE
        assert len(peps._EDGE_CACHE) == 3
        assert sum(a.nbytes for a in peps._EDGE_CACHE.values()) <= linalg.DENSE_BUDGET_BYTES

    def test_over_budget_tensor_is_refused(self):
        """Z7: 7^10 float64 entries, 2.1 GiB."""
        with pytest.raises(FeasibilityError, match="2.1 GiB"):
            edge_tensor(make_cyclic(7), 1.0)

    def test_full_build_peak_stays_near_one_tensor(self):
        """Z5 (75 MiB tensor), in a fresh process: the build adds at most twice its size to peak RSS."""
        code = (
            "import resource, sys; from qdlab.groups import make_cyclic; from qdlab.peps import edge_tensor\n"
            "unit = 1 if sys.platform == 'darwin' else 1024  # ru_maxrss is in bytes on macOS, KiB elsewhere\n"
            "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit\n"
            "before = rss(); data = edge_tensor(make_cyclic(5), 1.0, 'full')\n"
            "print(rss() - before, data.nbytes)"
        )
        src = str(Path(peps.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        added, nbytes = map(int, out.stdout.split())
        assert added <= 2 * nbytes


class TestRegionContraction:
    @staticmethod
    def _z2_plaquette_network():
        lat = TorusLattice(3)
        return RegionNetwork(QuantumDoubleModel(make_cyclic(2), lat), Region(lat, RECT, a=1, b=1), 1.0)

    @pytest.mark.parametrize("method", ["t_apply", "t_dagger_apply"])
    def test_contraction_step_over_budget_is_refused(self, monkeypatch, method):
        """Edge tensors (8 KiB) fit a 16 KiB budget; the pairwise merges (up to 128 KiB) do not."""
        monkeypatch.setattr(peps, "_EDGE_CACHE", {})
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 2**14)
        net = self._z2_plaquette_network()
        with pytest.raises(FeasibilityError) as info:
            getattr(net, method)(np.ones(256))
        assert "_merge" in [entry.name for entry in info.traceback]

    def test_t_matrix_over_budget_is_refused_before_contracting(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 2**18)
        net = self._z2_plaquette_network()
        with pytest.raises(FeasibilityError, match=r"\(256, 256\)") as info:
            net.t_matrix()
        assert "_contract" not in [entry.name for entry in info.traceback]

    def test_t_apply_over_budget_output_is_refused_before_planning(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 2**10)
        net = self._z2_plaquette_network()
        with pytest.raises(FeasibilityError, match=r"\(256, 1\)") as info:
            net.t_apply(np.ones(net.reduced.dim))
        assert "_contract" not in [entry.name for entry in info.traceback]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_pepo_equals_exponential(self, z2_model, beta):
        """The torus network is the PEPO e^{-beta H / 2}, here from eigh of the dense H."""
        vec = contract_region(z2_model, Region(z2_model.lattice, TORUS), beta)
        ref = matrix_exp_hermitian(hamiltonian_dense(z2_model), -beta / 2)
        assert np.abs(vec.reshape(256, 256) - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_single_edge_network_matches_edge_tensor(self):
        # one-plaquette region's v_matrix columns reproduce edge tensors exactly
        grp = make_cyclic(2)
        model = QuantumDoubleModel(grp, TorusLattice(4))
        reg = Region(model.lattice, RECT, x0=0, a=1, y0=0, b=1)
        net = RegionNetwork(model, reg, 1.0)
        v = v_matrix(net)
        assert v.shape == (2 ** 8, 2 ** 16)
        # cross-check against t_matrix through the reduced basis Gram
        t = net.t_matrix()
        gram_t = t.T @ t
        rng = np.random.default_rng(0)
        y = rng.standard_normal(t.shape[1])
        assert np.allclose(t.T @ (t @ y), gram_t @ y, atol=1e-10)

    @staticmethod
    def _assert_applies_match(net, t_apply, t_dagger_apply, cases=((None, 0), (1, 1), (3, 1))):
        """Vectors and blocks of 1 and 3 columns, real (imag 0) and complex (imag 1):
        the legs leave each merge in planned orders, which a wrong permutation breaks."""
        rng = np.random.default_rng(1)
        for width, imag in cases:
            shape = (lambda dim: (dim,)) if width is None else (lambda dim: (dim, width))
            draw = lambda dim: rng.standard_normal(shape(dim)) + imag * 1j * rng.standard_normal(shape(dim))
            y, x = draw(net.reduced.dim), draw(net.phys_dim)
            if not imag:
                y, x = y.real, x.real
            got_y, got_x = net.t_apply(y), net.t_dagger_apply(x)
            assert got_y.shape == shape(net.phys_dim) and got_x.shape == shape(net.reduced.dim)
            assert np.allclose(got_y, t_apply(y), atol=1e-11)
            assert np.allclose(got_x, t_dagger_apply(x), atol=1e-11)

    def _assert_applies_match_t_matrix(self, net):
        t = net.t_matrix()
        # real and imaginary parts apart, so that no complex copy of t is made
        self._assert_applies_match(
            net, lambda y: t @ y.real + 1j * (t @ y.imag), lambda x: t.T @ x.real + 1j * (t.T @ x.imag)
        )

    def test_t_apply_matches_t_matrix(self):
        grp = make_cyclic(2)
        model = QuantumDoubleModel(grp, TorusLattice(4))
        reg = Region(model.lattice, RECT, x0=1, a=1, y0=2, b=1)
        self._assert_applies_match_t_matrix(RegionNetwork(model, reg, 0.8))

    def test_t_apply_matches_t_matrix_z3(self):
        lat = TorusLattice(3)
        model = QuantumDoubleModel(make_cyclic(3), lat)
        self._assert_applies_match_t_matrix(RegionNetwork(model, parse_region(lat, "rect:0,0,1,1"), 1.0))

    def test_t_apply_matches_t_matrix_across_the_wrap(self):
        lat = TorusLattice(3)
        model = QuantumDoubleModel(make_cyclic(2), lat)
        self._assert_applies_match_t_matrix(RegionNetwork(model, parse_region(lat, "rect:2,2,2,1"), 1.0))

    def test_applies_match_a_tensordot_contraction_on_a_cylinder(self):
        """Z2 N=3 `cyl:v,0,1`, whose dense T (2^18 x 2^12) is above the budget: the
        reference is the network contracted with `np.tensordot` in the planned order,
        on one complex column (each apply takes about a second)."""
        lat = TorusLattice(3)
        net = RegionNetwork(QuantumDoubleModel(make_cyclic(2), lat), parse_region(lat, "cyl:v,0,1"), 1.0)
        self._assert_applies_match(
            net, lambda y: t_apply_oracle(net, y), lambda x: t_dagger_apply_oracle(net, x), cases=((1, 1),)
        )

    def test_martingale_region_fits_a_quarter_gib_budget(self, monkeypatch):
        """The whole region of the smallest martingale split (2^20 doubled dims): the
        planned order's largest step is 64 MiB; a column sweep needs 1 GiB."""
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 2**28)
        lat = TorusLattice(4)
        net = RegionNetwork(QuantumDoubleModel(make_cyclic(2), lat), parse_region(lat, "rect:0,0,3,1"), 1.0)
        rng = np.random.default_rng(2)
        y = rng.standard_normal(net.reduced.dim)
        x = rng.standard_normal(net.phys_dim)
        lhs = np.vdot(net.t_apply(y), x)
        rhs = np.vdot(y, net.t_dagger_apply(x))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @staticmethod
    def _martingale_region_network():
        lat = TorusLattice(4)
        return RegionNetwork(QuantumDoubleModel(make_cyclic(2), lat), parse_region(lat, "rect:0,0,3,1"), 1.0)

    def test_martingale_region_fits_a_64_mib_budget(self, monkeypatch):
        """The same region: the planned order's largest step is 2^23 float64 entries, 64 MiB."""
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 2**26)
        net = self._martingale_region_network()
        rng = np.random.default_rng(2)
        y = rng.standard_normal(net.reduced.dim)
        x = rng.standard_normal(net.phys_dim)
        lhs = np.vdot(net.t_apply(y), x)
        rhs = np.vdot(y, net.t_dagger_apply(x))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_martingale_region_plans_stay_cheap(self):
        """Counts, not times: T y plus T^dagger x on the martingale region take at most
        6.0e9 multiply-adds (the greedy order took 2.17e10) with steps of at most 2^23
        entries, and the Z2 N=2 torus, whose cheapest multiply-add-only order writes
        2^26 entries in one step, keeps its steps within 2^24."""
        net = self._martingale_region_network()
        net.t_apply(np.zeros(net.reduced.dim))
        net.t_dagger_apply(np.zeros(net.phys_dim))
        assert len(net._plans) == 2
        counts = [c for nodes, steps in net._plans.items() for c in plan_counts_oracle(nodes, steps)]
        assert sum(m for m, _ in counts) <= 6.0e9
        assert max(w for _, w in counts) <= 2**23
        lat = TorusLattice(2)
        torus = RegionNetwork(QuantumDoubleModel(make_cyclic(2), lat), Region(lat, TORUS), 1.0)
        torus._plan([torus._edge_array(e) for e in torus.edges])
        ((nodes, steps),) = torus._plans.items()
        assert max(w for _, w in plan_counts_oracle(nodes, steps)) <= 2**24

    def test_martingale_region_layouts_copy_little(self):
        """Counts, not times: under the planned layouts T y plus T^dagger x on the
        martingale region copy at most 4.0e7 entries; `np.tensordot` in the same
        order copied 6.2e7."""
        net = self._martingale_region_network()
        net.t_apply(np.zeros(net.reduced.dim))
        net.t_dagger_apply(np.zeros(net.phys_dim))
        assert len(net._layouts) == 2
        copies = [sum(layout_copies_oracle(nodes, layouts, out)) for (nodes, out), layouts in net._layouts.items()]
        assert sum(copies) <= 4.0e7

    def test_operand_copy_over_budget_is_refused_before_it_is_made(self, monkeypatch):
        """T^dagger x on the martingale region copies x (2^20 float64 entries, 8 MiB)
        into the order of its first merge; under a 6 MiB budget every step before
        fits, and that copy is refused by the budget check ahead of it."""
        net = self._martingale_region_network()
        net._bundles
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 6 * 2**20)
        with pytest.raises(FeasibilityError, match=r"needs 0\.00781 GiB") as info:
            net.t_dagger_apply(np.ones(net.phys_dim))
        names = [entry.name for entry in info.traceback]
        assert names[-3:] == ["_merge", "_arranged", "require_fits"]

    @pytest.mark.parametrize("group", [make_cyclic(2), make_cyclic(3)], ids=["Z2", "Z3"])
    def test_plan_has_the_brute_force_minimum_cost(self, group):
        """T^dagger x on one plaquette of the N=3 torus: five nodes."""
        lat = TorusLattice(3)
        net = RegionNetwork(QuantumDoubleModel(group, lat), parse_region(lat, "rect:0,0,1,1"), 1.0)
        net.t_dagger_apply(np.ones(net.phys_dim))
        ((nodes, steps),) = net._plans.items()
        assert len(nodes) == 5
        assert plan_cost_oracle(nodes, steps) == min_contraction_cost_oracle(list(nodes))

    def test_a_network_plans_once_per_input_shape(self, monkeypatch):
        """Applying T again reuses the plan; another batch width plans again."""
        planned = []
        plan = peps.plan_contraction
        monkeypatch.setattr(peps, "plan_contraction", lambda nodes: planned.append(nodes) or plan(nodes))
        net = self._z2_plaquette_network()
        dim = net.reduced.dim
        assert np.array_equal(net.t_apply(np.ones(dim)), net.t_apply(np.ones(dim)))
        assert len(planned) == 1
        net.t_apply(np.ones((dim, 2)))
        net.t_apply(np.ones((dim, 2)))
        assert len(planned) == 2

    def test_t_apply_on_the_torus_takes_an_outer_product(self):
        """The whole torus has no reduced boundary, so the input vector shares no leg
        with the edge nodes and is joined to them last, by an outer product."""
        lat = TorusLattice(2)
        net = RegionNetwork(QuantumDoubleModel(make_cyclic(2), lat), Region(lat, TORUS), 1.0)
        assert net.reduced.dim == 1
        y = np.array([[2.0, -1.0]])
        assert np.allclose(net.t_apply(y), net.t_matrix() @ y, rtol=1e-12, atol=0)

    def test_thermofield_state(self, z2_model):
        beta = 1.0
        rho = gibbs_state(z2_model, beta)
        tfd = thermofield_vector(z2_model, beta)
        assert np.linalg.norm(tfd) == pytest.approx(1.0)
        vec = contract_region(z2_model, Region(z2_model.lattice, TORUS), beta)
        vec = vec / np.linalg.norm(vec)
        overlap = abs(np.vdot(vec, tfd))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        # reduced state on the ket layer is the Gibbs state
        # vectorize is row-major, so m[a, k] has ket index a and purifying index k
        m = tfd.reshape(256, 256)
        red = m @ m.conj().T
        assert np.abs(red - rho).max() < 1e-10


class TestGaugeRelation:
    def test_full_equals_slim_with_boundary_weights(self):
        # V_e = V~_e G_de on a single edge: weights act pairwise on the dangling legs
        grp = make_cyclic(3)
        beta = 1.2
        slim = edge_tensor(grp, beta, "slim")
        full = edge_tensor(grp, beta, "full")
        wp = weight_plaq(grp, beta)
        ws = np.diag(star_leg_weights(grp, beta, power=1 / 8))
        out = slim
        for ax, w in zip(range(2, 10), [wp, wp, wp, wp, ws, ws, ws, ws]):
            out = np.moveaxis(np.tensordot(w, out, axes=(1, ax)), 0, ax)
        assert np.abs(out - full).max() < 1e-12
