import numpy as np
import pytest

from qdlab.davies import (
    BOHR_FREQUENCIES,
    CouplingError,
    CouplingSet,
    DaviesGenerator,
    HTilde,
    IotaKernelProjector,
    RateError,
    final_link_passed,
    iota,
    iota_inverse,
    kms_rates,
    thermofield_vector,
)
from qdlab.groups import make_cyclic
from qdlab.lattice import TorusLattice, parse_region
from qdlab.linalg import dagger, matrix_power_hermitian
from qdlab.quantum_double import QuantumDoubleModel, gibbs_state

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
    h = dense_of(ht.apply, ht.dim)
    rho_sqrt = matrix_power_hermitian(rho, 0.5)
    rho_sqrt_inv = matrix_power_hermitian(rho, -0.5)

    def oracle(v):
        return -iota(gen.apply_dissipator(iota_inverse(v, rho_sqrt_inv)), rho_sqrt)

    expect = dense_of(oracle, ht.dim)
    assert np.abs(h - expect).max() < TOL
    assert np.abs(h - dagger(h)).max() < TOL


def test_thermofield_double_is_in_the_kernel(patch):
    model, _, ht, rho = patch
    tfd = thermofield_vector(model, BETA, rho)
    assert np.linalg.norm(ht.apply(tfd)) < TOL


def test_edge_kernel_projector_is_an_orthogonal_projector(patch):
    model, _, ht, rho = patch
    pi = IotaKernelProjector(model, rho, (model.edge_list[0],))
    p = dense_of(pi.apply, ht.dim)
    assert np.abs(p - dagger(p)).max() < TOL
    assert np.abs(p @ p - p).max() < TOL


@pytest.mark.parametrize("gap_parent, passed", [(-8.0e-15, False), (8.0e-15, False), (0.45, True)])
def test_final_link_needs_a_resolved_parent_gap(gap_parent, passed):
    """Z2 N=2, beta=1 figures: gap(L) = 2.19, local prefactor 1.65e-3, m = 2, tol 1e-7."""
    final_bound = 1.65e-3 * gap_parent / 2
    assert final_link_passed(2.19, final_bound, gap_parent, tol=1e-7) is passed


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
])
def test_kms_rates_rejects(form, table, match):
    with pytest.raises(RateError, match=match):
        kms_rates(1.0, form, table)
