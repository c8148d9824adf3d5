"""One measuring process of a benchmark run; started by run.py.

It builds the workload's inputs, then repeats passes over the workload's
certificates until its time budget is spent, checks every output against
reference.json and prints one JSON line with its measurements.

A pass is timed as the sum of its segments, the certificate calls and the
work they share. Between segments, outside the timed intervals, it times
``host_probe``, a fixed pure-Python loop that no program code touches. The
probe's time tracks how fast the host runs interpreter-bound code at that
moment, so each segment is also reported scaled to ``PROBE_NOMINAL_S``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_ITERATIONS = 300_000
# The probe's time on an idle core of the reference host (2-vCPU VM,
# Python 3.11); host speed there drifts so that the probe takes 20-36 ms.
PROBE_NOMINAL_S = 0.020


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _import_program():
    """Import qdlab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from qdlab import boundary, davies, gap_tools, linalg, peps

    for mod in (boundary, davies, gap_tools, linalg, peps):
        if Path(mod.__file__).resolve().parent != src / "qdlab":
            raise ImportError(f"{mod.__name__} imported from {mod.__file__}, not from {src}")


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def check_outputs(outputs: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one pass against the workload's references."""
    from refcheck import compare

    messages = []
    failed = 0
    names = sorted(set(expected) | set(outputs))
    for name in names:
        if name not in expected:
            bad = [f"{name}: no reference for this certificate"]
        elif name not in outputs:
            bad = [f"{name}: not produced"]
        else:
            bad = [f"{name}: {m}" for m in compare(outputs[name], expected[name])]
        failed += bool(bad)
        messages += bad
    return len(names), failed, messages


def run_passes(workload, inputs, seed: int, budget: float, trace: bool, first_traced: bool,
               expected: dict, spans_path: Path | None = None) -> dict:
    """Repeat passes until the budget is spent; every other pass is traced if ``trace``."""
    from qdlab import peps
    from workloads import PassClock

    tracer = spans.Tracer() if trace else None
    passes = []
    all_spans = []
    start = time.perf_counter()
    clock = PassClock(host_probe)
    i = 0
    while True:
        traced = trace and (i % 2 == 0) == first_traced
        peps._EDGE_CACHE.clear()  # users pay the edge-tensor fill on every invocation
        gc.collect()
        if traced:
            tracer.reset()
        with spans.installed(tracer) if traced else contextlib.nullcontext():
            outputs = _safe_pass(workload, inputs, seed, clock)
        segments = clock.take()
        attempted, failed, messages = check_outputs(outputs, expected)
        rec = {"wall_s": sum(s for s, _ in segments),
               "scaled_wall_s": sum(s * PROBE_NOMINAL_S / p for s, p in segments),
               "probe_s": statistics.median([p for _, p in segments] or [clock.last_probe_s]),
               "traced": traced, "attempted": attempted, "failed": failed,
               "messages": messages[:20]}
        if traced:
            rec["layers"] = spans.layer_totals(tracer.spans)
            rec["top_level_s"] = spans.top_level_seconds(tracer.spans)
            rec["matvecs"] = tracer.matvecs
            rec["blocks_computed"] = tracer.blocks_computed
            rec["blocks_distinct"] = tracer.blocks_distinct
            all_spans.append(list(tracer.spans))
        passes.append(rec)
        i += 1
        if time.perf_counter() - start >= budget:
            break
    if spans_path is not None and all_spans:
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rss_growth_mb"],
                       "passes": all_spans}, fh)
    return {"passes": passes}


def _safe_pass(workload, inputs, seed: int, clock) -> dict:
    """A pass that raises before its certificates are recorded produces none of them."""
    try:
        return workload.run_pass(inputs, seed, clock)
    except Exception as exc:  # noqa: BLE001 - reported as failed certificates
        print(f"pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--first-traced", type=int, choices=(0, 1), default=1)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--spans", default=None, help="file to write the spans to")
    args = p.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup()
    setup_s = time.monotonic() - args.t0

    ref = json.loads((HERE / "reference.json").read_text())
    expected = ref["workloads"][args.workload]
    result = run_passes(workload, inputs, args.seed, args.budget, bool(args.trace),
                        bool(args.first_traced), expected,
                        Path(args.spans) if args.spans else None)
    result["setup_s"] = setup_s
    # set-up is interpreter-bound in every workload; scaled by this process's median probe
    probe_s = statistics.median(p["probe_s"] for p in result["passes"])
    result["scaled_setup_s"] = setup_s * PROBE_NOMINAL_S / probe_s
    result["first_traced"] = bool(args.trace and args.first_traced)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
