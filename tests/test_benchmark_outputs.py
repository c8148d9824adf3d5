"""One pass of each benchmark workload against its references in perfbench/reference.json.

The benchmark itself runs for tens of seconds; one pass of each workload takes
about a second in all, so an interface change that breaks a workload fails here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
from workloads import WORKLOADS, PassClock  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", ["boundary_certs", "gap_chain", "martingale_mf"])
def test_one_pass_matches_the_references(name):
    child._import_program()
    workload = WORKLOADS[name]
    outputs = workload.run_pass(workload.setup(), 1, PassClock())
    attempted, failed, messages = child.check_outputs(outputs, REFERENCE["workloads"][name])
    assert attempted > 0
    assert failed == 0, messages
