"""Regenerate perfbench/reference.json from the checked-out program.

    python3 perfbench/make_reference.py [--seeds 3]

Run it only at a commit whose certificate values are known to be right: the
benchmark treats every later output that differs from these as a failure.
Each workload runs once per seed; seed 0 gives the reference, and the largest
move of each number across seeds is recorded. It stops with an error if any
output moves by more than the comparator's 1e-9 mixed tolerance: the gate then
needs a decision, not a looser number written here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _numbers(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, f"{path}/{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, f"{path}/{i}")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, float(obj)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=3)
    args = p.parse_args(argv)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    from refcheck import DEFAULT_TOL, compare
    from workloads import WORKLOADS

    ref = {"workloads": {}, "seed_spread": {}}
    for name, wl in WORKLOADS.items():
        inputs = wl.setup()
        runs = [wl.run_pass(inputs, seed) for seed in range(args.seeds)]
        base = runs[0]
        for cert, out in base.items():
            if "error" in out:
                raise SystemExit(f"{name}/{cert} raised: {out['error']}")
            ref_nums = dict(_numbers(out))
            for other in runs[1:]:
                bad = compare(other[cert], out)
                if bad:
                    raise SystemExit(f"{name}/{cert} changes with the seed beyond the "
                                     f"{DEFAULT_TOL:g} mixed tolerance: {bad}")
                for path, value in _numbers(other[cert]):
                    spread = abs(value - ref_nums[path]) / max(1.0, abs(ref_nums[path]))
                    key = f"{cert}/{path}"
                    if spread > ref["seed_spread"].get(name, {}).get(key, 0.0):
                        ref["seed_spread"].setdefault(name, {})[key] = spread
        ref["workloads"][name] = base
        print(f"{name}: {len(base)} certificates", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
