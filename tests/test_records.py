import json

import numpy as np
import pytest

from qdlab import records
from qdlab.boundary import verify_leading_term
from qdlab.davies import ChainInequality, DaviesGenerator, GapChainReport, HTilde, local_gap_check
from qdlab.gap_tools import MartingaleReport, delta_function, recursion_bound
from qdlab.groups import make_cyclic
from qdlab.lattice import TorusLattice, parse_region
from qdlab.quantum_double import QuantumDoubleModel, gibbs_state


def round_trip(report) -> dict:
    return json.loads(records.to_json(report))


def test_factorization_certificate():
    lat = TorusLattice(3)
    cert = verify_leading_term(make_cyclic(2), parse_region(lat, "rect:0,0,1,1"), 1.0)
    out = round_trip(cert)
    assert out["passed"] is bool(cert.passed)
    assert out["measured"] == pytest.approx(cert.measured)
    assert out["extras"] == {}


def test_local_gap_check():
    lat = TorusLattice(2)
    model = QuantumDoubleModel(make_cyclic(2), lat).restrict(parse_region(lat, "rect:0,0,1,1"))
    gen = DaviesGenerator.build(model, 1.0)
    check = local_gap_check(gen, HTilde(gen), model.edge_list[0], gibbs_state(model, 1.0))
    out = round_trip(check)
    assert out["passed"] is bool(check.passed)
    assert out["bound"] == pytest.approx(check.bound)


def test_recursion_bound():
    rb = recursion_bound(48, lambda ell: delta_function(ell, 1.0, 2))
    out = round_trip(rb)
    assert out["r"] == 48
    assert out["final_constant"] == pytest.approx(rb.final_constant)
    assert len(out["deltas"]) == rb.terms


def test_martingale_report_with_numpy_flags():
    rep = MartingaleReport(
        region="rect", split="a|b", beta=1.0, measured=np.float64(0.25), bound=48.0,
        epsilon=np.float64(3.0), hypothesis_ok=np.bool_(False), passed=np.bool_(True),
        method="matrix-free", seed=0,
    )
    out = round_trip(rep)
    assert out["hypothesis_ok"] is False and out["passed"] is True


def test_gap_chain_report_with_numpy_flags():
    ineq = ChainInequality(name="final", lhs=np.float64(2.2), rhs=np.float64(-1e-17), sense=">=",
                           passed=np.bool_(False))
    rep = GapChainReport(
        group="Z2", lattice_n=2, beta=1.0, coupling="matrix-units", rate_form="exponential-half",
        n_parent=2, constants={"m_X": np.int64(2), "C1": np.float64(4.0)},
        gaps={"davies": np.float64(2.2)}, inequalities=[ineq], final_bound=np.float64(-1e-17),
        passed=np.bool_(False), seed=0,
    )
    out = round_trip(rep)
    assert out["passed"] is False
    assert out["inequalities"][0]["passed"] is False
    assert out["constants"]["m_X"] == 2
