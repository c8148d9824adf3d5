"""The benchmark's own tests; they take seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from refcheck import compare, plain  # noqa: E402
from workloads import (  # noqa: E402
    PassClock, Workload, boundary_setup, martingale_pass, martingale_setup)

SMOKE_REGION = ("Z2", 4, "rect:0,0,2,2")
SMOKE_CERT = "Z2 N=4 rect:0,0,2,2 leading_term"


# -- reference comparator ------------------------------------------------------------


def test_mixed_tolerance_is_absolute_below_one_and_relative_above():
    assert compare({"x": 1e-10}, {"x": 0.0}) == []
    assert compare({"x": 2e-9}, {"x": 0.0}) != []
    assert compare({"x": 1e6 * (1 + 5e-10)}, {"x": 1e6}) == []
    assert compare({"x": 1e6 * (1 + 2e-9)}, {"x": 1e6}) != []


def test_flags_match_exactly_and_numpy_bools_are_converted():
    assert compare({"pass": np.bool_(True)}, {"pass": True}) == []
    assert compare({"pass": np.bool_(False)}, {"pass": True}) != []
    # a flag never matches a number, even 1 == True
    assert compare({"pass": 1}, {"pass": True}) != []
    assert compare({"rank": True}, {"rank": 1}) != []


def test_infinite_bounds_match_only_the_same_infinity():
    assert compare({"b": float("inf")}, {"b": float("inf")}) == []
    assert compare({"b": 1e300}, {"b": float("inf")}) != []
    assert compare({"b": -math.inf}, {"b": math.inf}) != []
    assert compare({"b": math.nan}, {"b": math.nan}) != []


def test_missing_and_extra_keys_are_mismatches():
    assert compare({"a": 1.0}, {"a": 1.0, "b": 2.0}) != []
    assert compare({"a": 1.0, "b": 2.0}, {"a": 1.0}) != []


def test_plain_reads_dataclass_fields_and_numpy_scalars():
    from dataclasses import dataclass

    @dataclass
    class Report:
        passed: object
        rank: object
        norm: object
        extras: dict

    out = plain(Report(np.bool_(True), np.int64(3), np.float64(0.5), {"b": (np.bool_(False),)}))
    assert out == {"passed": True, "rank": 3, "norm": 0.5, "extras": {"b": [False]}}
    assert type(out["passed"]) is bool and type(out["rank"]) is int
    json.dumps(out)


# -- span arithmetic --------------------------------------------------------------------


def _span(name, start, end, parent, rss=0.0):
    return [name, start, end, parent, rss]


def test_self_time_subtracts_direct_children_only():
    s = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),  # grandchild: counted inside b, not again in a
        _span("b", 5.0, 6.0, 0),
    ]
    assert spans.self_times(s) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children():
    s = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 5.0, 0), _span("c", 3.0, 7.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(4.0)


def test_layer_totals_do_not_double_count_reentry():
    s = [
        _span("a", 0.0, 10.0, -1, rss=5.0),
        _span("a", 2.0, 4.0, 0, rss=1.0),  # re-entered: inclusive time stays 10
        _span("b", 11.0, 12.0, -1),
    ]
    t = spans.layer_totals(s)
    assert t["a"]["calls"] == 2
    assert t["a"]["s"] == pytest.approx(10.0)
    assert t["a"]["self_s"] == pytest.approx(8.0 + 2.0)
    assert t["a"]["rss_mb"] == pytest.approx(5.0)
    assert spans.top_level_seconds(s) == pytest.approx(11.0)


def test_per_layer_specs_are_unique_and_cover_every_layer():
    names = [n for n, _, _ in spans.per_layer_metric_specs()]
    assert len(names) == len(set(names))
    assert len(names) == 4 * len(spans.LAYERS) + len(spans.EXTRA_METRICS)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == names


# -- harness smoke run ------------------------------------------------------------------


def test_harness_smoke_run_traced_and_untraced():
    child._import_program()

    def leading_term_only(inputs, seed, clock):
        from qdlab import boundary

        (_, group, region), = inputs
        with clock.segment():
            cert = boundary.verify_leading_term(group, region, 1.0, seed=seed)
        out = plain(cert)
        out.pop("seed")
        return {SMOKE_CERT: out}

    smoke = Workload(lambda: boundary_setup((SMOKE_REGION,)), leading_term_only)
    reference = json.loads((HERE / "reference.json").read_text())
    expected = {SMOKE_CERT: reference["workloads"]["boundary_certs"][SMOKE_CERT]}
    inputs = smoke.setup()
    res = child.run_passes(smoke, inputs, seed=3, budget=0.0, trace=True, first_traced=True,
                           expected=expected)
    res2 = child.run_passes(smoke, inputs, seed=3, budget=0.0, trace=False, first_traced=True,
                            expected=expected)
    passes = res["passes"] + res2["passes"]
    assert [p["traced"] for p in passes] == [True, False]
    assert all(p["attempted"] == 1 and p["failed"] == 0 for p in passes), passes
    traced = passes[0]
    assert traced["layers"]["boundary.BlockBoundary.block"]["calls"] == 256
    assert 0 < traced["blocks_distinct"] <= traced["blocks_computed"] == 256
    assert traced["top_level_s"] <= traced["wall_s"]
    assert all(p["probe_s"] > 0 for p in passes)

    result = {"setup_s": 0.1, "scaled_setup_s": 0.1, "maxrss_mb": 100.0, "first_traced": True}
    metrics = run.per_layer([{**result, **res}, {**result, **res2, "first_traced": False}])
    assert set(metrics) == {n for n, _, _ in spans.per_layer_metric_specs()}
    assert metrics["boundary.BlockBoundary.leading_term_norm.calls"]["value"] == 1
    assert metrics["davies.HTilde.apply_edges.calls"]["value"] == 0
    assert metrics["host.probe_s"]["value"] > 0
    e2e = run.end_to_end([{**result, **res2}])
    assert set(e2e) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_pass_clock_pairs_each_segment_with_the_probes_around_it():
    probes = iter([1.0, 3.0, 5.0])
    clock = PassClock(lambda: next(probes))
    for _ in range(2):
        with clock.segment():
            pass
    assert [p for _, p in clock.take()] == [2.0, 4.0]
    assert clock.take() == []


def test_a_segment_that_raises_is_still_timed():
    clock = PassClock()
    with pytest.raises(ValueError), clock.segment():
        raise ValueError
    assert len(clock.take()) == 1


def test_wrappers_are_removed_after_tracing():
    child._import_program()
    from qdlab import boundary, davies, gap_tools, linalg

    before = (boundary.BlockBoundary.block, davies.lowest_eigs_matrix_free,
              gap_tools.lowest_eigs_matrix_free, linalg.lowest_eigs_matrix_free,
              davies.DaviesGenerator.__dict__["build"])
    with spans.installed(spans.Tracer()):
        assert davies.lowest_eigs_matrix_free is not before[1]
    after = (boundary.BlockBoundary.block, davies.lowest_eigs_matrix_free,
             gap_tools.lowest_eigs_matrix_free, linalg.lowest_eigs_matrix_free,
             davies.DaviesGenerator.__dict__["build"])
    assert after == before


def test_mismatch_counts_as_failed():
    attempted, failed, msgs = child.check_outputs(
        {"a": {"x": 1.0}, "b": {"error": "ValueError: boom"}},
        {"a": {"x": 2.0}, "b": {"x": 1.0}, "c": {"x": 1.0}})
    assert (attempted, failed) == (3, 3)
    assert any("not produced" in m for m in msgs)


def test_zeroed_projector_apply_fails_the_martingale_check(monkeypatch):
    """A contraction that returns zeros must not pass: <x, P x> no longer matches
    the reference and the residual of P_B on w = 0 is nan."""
    child._import_program()
    from qdlab import gap_tools

    monkeypatch.setattr(gap_tools.RegionProjector, "apply", lambda self, x: np.zeros_like(x))
    outputs = martingale_pass(martingale_setup(), seed=0, clock=PassClock())
    reference = json.loads((HERE / "reference.json").read_text())
    attempted, failed, msgs = child.check_outputs(outputs, reference["workloads"]["martingale_mf"])
    assert (attempted, failed) == (1, 1)
    for field in ("x_p_x", "projector_residual_ok", "contained"):
        assert any(m.startswith(f"whole_in_overlap: {field}:") for m in msgs), msgs
