import numpy as np
import pytest

from qdlab.groups import make_cyclic, make_symmetric
from qdlab.lattice import Edge, TorusLattice
from qdlab.linalg import FeasibilityError, dagger, hermitian_spectrum
from qdlab.quantum_double import QuantumDoubleModel, gamma_beta, gibbs_state
from oracles import embed_by_digits, hamiltonian_dense, hamiltonian_terms, matrix_exp_hermitian

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


@pytest.fixture(scope="module")
def z2_model():
    return QuantumDoubleModel(make_cyclic(2), TorusLattice(2))


@pytest.fixture(scope="module")
def z2_hamiltonian(z2_model):
    return hamiltonian_dense(z2_model)


def test_t_operator_identity_and_bitflip(z2_model):
    lat = z2_model.lattice
    v = (0, 0)
    e = Edge("h", 0, 0)
    assert np.array_equal(z2_model.t_operator(v, e, 0), np.eye(2))
    assert np.array_equal(z2_model.t_operator(v, e, 1), X)
    other_end = (1, 0)
    assert np.array_equal(z2_model.t_operator(other_end, e, 1), X)


def test_t_operator_group_law_s3():
    model = QuantumDoubleModel(make_symmetric(3), TorusLattice(2))
    v, e = (0, 0), Edge("h", 0, 0)
    rng = np.random.default_rng(0)
    for _ in range(6):
        g, h = rng.integers(0, 6, 2)
        tg = model.t_operator(v, e, g)
        th = model.t_operator(v, e, h)
        assert np.array_equal(tg @ th, model.t_operator(v, e, model.group.mul[g, h]))
        assert np.array_equal(dagger(tg), model.t_operator(v, e, model.group.inv[g]))
    # away-pointing edge acts by left multiplication
    away_v = (1, 0)
    for g in range(6):
        assert np.array_equal(
            model.t_operator(away_v, e, g), model.group.left_regular_matrix(g)
        )


def test_star_operator_z2_form(z2_model):
    a = z2_model.star_operator((0, 0))
    x4 = np.kron(np.kron(X, X), np.kron(X, X))
    assert np.allclose(a, 0.5 * (np.eye(16) + x4))


def test_star_is_projection_s3():
    model = QuantumDoubleModel(make_symmetric(3), TorusLattice(2))
    a = model.star_operator((1, 1))
    assert np.abs(a @ a - a).max() < 1e-12
    assert np.abs(a - dagger(a)).max() < 1e-12


def test_star_trace_z3():
    model = QuantumDoubleModel(make_cyclic(3), TorusLattice(2))
    a = model.star_operator((0, 0))
    assert np.trace(a) == pytest.approx(27.0)


def test_plaquette_operator_z2_form(z2_model):
    b = z2_model.plaquette_operator((0, 0))
    z4 = np.kron(np.kron(Z, Z), np.kron(Z, Z))
    assert np.allclose(b, 0.5 * (np.eye(16) + z4))


def test_plaquette_projection_and_trace():
    s3 = QuantumDoubleModel(make_symmetric(3), TorusLattice(2))
    b = s3.plaquette_operator((0, 1))
    assert np.abs(b @ b - b).max() < 1e-12
    assert np.trace(b) == pytest.approx(6.0**3)
    z3 = QuantumDoubleModel(make_cyclic(3), TorusLattice(2))
    assert np.trace(z3.plaquette_operator((0, 0))) == pytest.approx(27.0)


def test_full_hamiltonian_spectrum(z2_hamiltonian):
    h = z2_hamiltonian
    assert h.shape == (256, 256)
    vals, _ = hermitian_spectrum(h)
    assert vals[0] == pytest.approx(-8.0, abs=1e-10)
    shifted = -vals
    assert np.all(np.abs(shifted - np.round(shifted)) < 1e-9)
    assert np.round(shifted).max() == 8 and np.round(shifted).min() == 0


def test_all_terms_commute(z2_model):
    terms = hamiltonian_terms(z2_model)
    worst = 0.0
    for i, a in enumerate(terms):
        for b in terms[i + 1 :]:
            worst = max(worst, np.abs(a @ b - b @ a).max())
    assert worst <= 1e-12


def test_ground_space_dimension_toric_code(z2_hamiltonian):
    vals, _ = hermitian_spectrum(z2_hamiltonian)
    assert int(np.sum(vals < -8.0 + 1e-9)) == 4


def test_gibbs_state(z2_model):
    rho = gibbs_state(z2_model, 2.0)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    vals, _ = hermitian_spectrum(rho)
    assert vals[0] > 0
    for term in hamiltonian_terms(z2_model):
        assert np.abs(rho @ term - term @ rho).max() < 1e-12
    rho0 = gibbs_state(z2_model, 0.0)
    assert np.allclose(np.diag(rho0), 1.0 / 256)


def test_exp_factorization(z2_model, z2_hamiltonian):
    """The product of the factors 1 + (e^beta - 1) P_t against e^{-beta H} from eigh."""
    for beta in (0.7, 2.5):
        rhs = matrix_exp_hermitian(z2_hamiltonian, -beta)
        rhs /= np.trace(rhs)
        assert np.abs(gibbs_state(z2_model, beta) - rhs).max() < 1e-10 * np.abs(rhs).max()


def test_gamma_beta():
    assert gamma_beta(0.0, 4) == 0.0
    assert gamma_beta(np.log(3.0), 2) == pytest.approx(1.0)
    betas = np.linspace(0, 3, 7)
    vals = [gamma_beta(b, 6) for b in betas]
    assert all(b <= a for a, b in zip(vals[1:], vals))


def test_embedding_with_a_scrambled_support_order():
    """op on three of the four edges of a Z3 star, given in the order (3, 0, 2)."""
    lat = TorusLattice(3)
    model = QuantumDoubleModel(make_cyclic(3), lat, tuple(e for e, _ in lat.edges_of_star((0, 0))))
    rng = np.random.default_rng(3)
    op = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
    support = [model.edge_list[i] for i in (3, 0, 2)]
    assert np.array_equal(model._embed_multi(support, op), embed_by_digits(op, [3, 0, 2], 3, 4))


def test_open_patch_hamiltonian():
    """A patch that holds no whole star or plaquette has H = 0 and Gibbs state 1/d."""
    lat = TorusLattice(3)
    model = QuantumDoubleModel(make_cyclic(2), lat)
    patch_edges = tuple(
        [Edge("h", 0, 0), Edge("h", 1, 0), Edge("v", 0, 0)]
    )
    patch = QuantumDoubleModel(model.group, lat, patch_edges)
    assert patch.stars() == []
    assert patch.plaquettes() == []
    assert np.array_equal(gibbs_state(patch, 1.0), np.eye(8) / 8)


def test_gibbs_state_over_budget_is_refused():
    """Z2 on N=3 has 2^18 states: a dense Gibbs state would take 512 GiB."""
    with pytest.raises(FeasibilityError, match="512 GiB"):
        gibbs_state(QuantumDoubleModel(make_cyclic(2), TorusLattice(3)), 1.0)
