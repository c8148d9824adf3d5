"""qdlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload boundary_certs --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
The run starts measuring processes one after another until ``--seconds`` have
passed (a fresh process per sample, since a process's peak RSS never goes
down), each with single-threaded BLAS. Every output is checked against
``perfbench/reference.json``.

The host's speed drifts by up to 1.7x over seconds to minutes, so times are
scaled by a host probe (see child.py). ``wall_s`` is the median pass time,
with each segment of a pass first multiplied by ``PROBE_NOMINAL_S`` over the
probe's time around it: the pass then reads as the seconds it would take at
the host speed where the probe takes ``PROBE_NOMINAL_S``. ``setup_s`` is the
median over processes of the set-up time, scaled the same way by the median
probe of its process. The raw pass median stays in the per-layer metric
``trace.untraced_wall_s`` and the probe's median in ``host.probe_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics (medians over the run's samples), with ``--trace 1`` the per-layer
metrics from spans recorded around the program's public callables. The line
before it records the machine and versions. The same record, with every
sample, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Children are started one after another while another one still fits in the
# run's seconds, each measuring passes for a share of them: CPU speed here drifts by 10-30% between
# processes and over seconds, so many short processes average it out better
# than a few long ones.
CHILD_SHARE = 8
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 120
# With two threads on two vCPUs, OpenBLAS workers spin between the small
# products that gap_chain and boundary_certs make: their passes took 3.3 s
# instead of 0.75 s and 1.3 s instead of 0.9 s, and varied with whatever else
# ran on the second vCPU. One thread measures the program's own code; it
# costs martingale_mf, whose contractions are large, 10 s per pass instead of 6.4 s.
BLAS_THREADS = 1


def git_commit() -> str:
    """The checked-out commit; "unknown" outside a git checkout or without git."""
    if not (ROOT / ".git").exists():  # never report the commit of an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def run_child(workload: str, seed: int, budget: float, trace: bool, index: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--budget", str(budget), "--trace", str(int(trace)),
           "--first-traced", str(int(index % 2 == 0))]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}-child{index}.json")]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(children: list[dict]) -> dict:
    walls = [p["scaled_wall_s"] for c in children for p in c["passes"] if not p["traced"]]
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(c["scaled_setup_s"] for c in children), "s"),
        "peak_rss_mb": _metric(statistics.median(c["maxrss_mb"] for c in children), "MB"),
    }


def per_layer(children: list[dict]) -> dict:
    import spans

    traced = [p for c in children for p in c["passes"] if p["traced"]]
    untraced = [p for c in children for p in c["passes"] if not p["traced"]]
    first = [c for c in children if c["first_traced"]]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    out = {}
    for name, unit, _ in spans.per_layer_metric_specs():
        layer, _, field = name.rpartition(".")
        if field == "rss_mb":
            # peak RSS grows once per process: count it in processes that traced their first pass
            value = med(sum(p["layers"].get(layer, {}).get(field, 0.0)
                            for p in c["passes"] if p["traced"]) for c in first)
        elif field in ("calls", "s", "self_s"):
            value = med(p["layers"].get(layer, {}).get(field, 0) for p in traced)
        else:
            continue
        out[name] = _metric(value, unit)
    trace_wall = med(p["wall_s"] for p in traced)
    plain_wall = med(p["wall_s"] for p in untraced)
    extras = {
        "linalg.lowest_eigs_matrix_free.matvecs": med(p["matvecs"] for p in traced),
        "boundary.BlockBoundary.block.distinct_ratio": med(
            p["blocks_distinct"] / p["blocks_computed"] if p["blocks_computed"] else 0.0
            for p in traced),
        "trace.wall_s": trace_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": trace_wall - plain_wall,
        "trace.top_level_s": med(p["top_level_s"] for p in traced),
        "host.probe_s": med(p["probe_s"] for c in children for p in c["passes"]),
    }
    for name, unit, _ in spans.EXTRA_METRICS:
        out[name] = _metric(extras[name], unit)
    return out


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qdlab" / "boundary.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'qdlab'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    budget = args.seconds / CHILD_SHARE
    children = []
    start = time.monotonic()
    try:
        while True:
            children.append(run_child(args.workload, args.seed, budget, bool(args.trace),
                                      len(children)))
            elapsed = time.monotonic() - start
            if len(children) >= MIN_CHILDREN and elapsed * (1 + 1 / len(children)) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    passes = [p for c in children for p in c["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for msg in sorted({m for p in passes for m in p["messages"]}):
        print(f"mismatch: {msg}", file=sys.stderr)
    metrics = per_layer(children) if args.trace else end_to_end(children)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **machine_record(), **children[0]["versions"],
           "children": len(children)}
    record = {"env": env, "result": result, "children": children}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind so that subprocess.run kills and waits for the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
