"""Which scipy modules each step of a qdlab run loads, in a fresh interpreter (the
test process has imported scipy already): importing qdlab loads numpy only, and
the boundary certificates and the Davies jumps load no scipy at all; H~ and the
first region projector load scipy.sparse, and only an ARPACK eigensolve loads
scipy.sparse.linalg: the Davies gap of a patch whose connected blocks of H~ all
have at most 64 indices loads neither it nor scipy.sparse.csgraph."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

STEPS = f"""
import json
import sys

sys.path.insert(0, {str(SRC)!r})
import numpy as np
from qdlab import boundary, davies, gap_tools, linalg, peps
from qdlab.groups import make_cyclic, make_symmetric
from qdlab.lattice import TorusLattice, parse_region
from qdlab.quantum_double import QuantumDoubleModel


def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


steps = {{"import": loaded()}}
for group, n, spec in ((make_cyclic(2), 4, "rect:0,0,2,2"), (make_symmetric(3), 3, "rect:0,0,1,1")):
    region = parse_region(TorusLattice(n), spec)
    boundary.verify_leading_term(group, region, 1.0)
    boundary.support_and_sigma(group, region, 1.0)
steps["certificates"] = loaded()
lat = TorusLattice(2)
model = QuantumDoubleModel(make_cyclic(2), lat).restrict(parse_region(lat, "cyl:v,0,1"))
gen = davies.DaviesGenerator.build(model, 1.0)
steps["davies build"] = loaded()
ht = davies.HTilde(gen)
ht.matrix
steps["htilde"] = loaded()
davies.davies_gap(ht, davies.thermofield_vector(model, 1.0))
steps["davies gap"] = loaded()
lat = TorusLattice(3)
proj = gap_tools.RegionProjector(QuantumDoubleModel(make_cyclic(2), lat), parse_region(lat, "rect:0,0,1,1"), 1.0)
proj.apply(np.ones(proj.dim))
steps["projector"] = loaded()
diag = np.arange(100.0)
linalg.lowest_eigs_matrix_free(linalg.LinearMapHandle(dim=diag.size, apply=lambda x: diag * x))
steps["eigensolve"] = loaded()
print(json.dumps(steps))
"""


def test_scipy_loads_only_where_it_is_used():
    run = subprocess.run([sys.executable, "-c", STEPS], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    steps = json.loads(run.stdout)
    assert steps["import"] == steps["certificates"] == steps["davies build"] == []
    assert "scipy.sparse" in steps["htilde"] and "scipy.sparse.linalg" not in steps["htilde"]
    # every connected block of this H~ has at most 64 indices, so no ARPACK solve runs
    assert not {"scipy.sparse.csgraph", "scipy.sparse.linalg"} & set(steps["davies gap"])
    assert "scipy.sparse" in steps["projector"] and "scipy.sparse.linalg" not in steps["projector"]
    assert "scipy.sparse.linalg" in steps["eigensolve"]
