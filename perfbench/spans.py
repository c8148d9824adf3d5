"""Span tracing installed from outside the program.

The tracer wraps public callables of ``qdlab`` (see ``LAYERS``) and records one
span per call: name, start, end, parent, and the growth of the process's peak
RSS across the call. Spans live in memory until the measuring process writes
them out; ``layer_totals`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import resource
import time
import importlib
import weakref
from contextlib import contextmanager

# (module, attribute path) of every wrapped public callable. Methods are named
# by class; "__init__" is reported as "init".
LAYERS = (
    ("davies", "HTilde.apply_edges"),
    ("davies", "HTilde.__init__"),
    ("davies", "DaviesGenerator.build"),
    ("davies", "fourier_components"),
    ("davies", "IotaKernelProjector.__init__"),
    ("davies", "IotaKernelProjector.apply"),
    ("davies", "local_gap_check"),
    ("linalg", "lowest_eigs_matrix_free"),
    ("peps", "RegionNetwork.t_apply"),
    ("peps", "RegionNetwork.t_dagger_apply"),
    ("peps", "RegionNetwork.t_matrix"),
    ("peps", "edge_tensor"),
    ("gap_tools", "RegionProjector.__init__"),
    ("gap_tools", "RegionProjector.apply"),
    ("gap_tools", "EmbeddedProjector.apply"),
    ("boundary", "BlockBoundary.__init__"),
    ("boundary", "BlockBoundary.block"),
    ("boundary", "BlockBoundary.interior_sum"),
    ("boundary", "BlockBoundary.leading_term_norm"),
    ("boundary", "BlockBoundary.support_norms"),
    ("boundary", "BlockBoundary.rank"),
    ("boundary", "BlockBoundary.group_function_matrix"),
)

# Modules that import lowest_eigs_matrix_free by name and call it from there.
SOLVER_IMPORTERS = ("davies", "gap_tools")

LAYER_SUFFIXES = ("calls", "s", "self_s", "rss_mb")
EXTRA_METRICS = (
    ("linalg.lowest_eigs_matrix_free.matvecs", "count", "lower"),
    ("boundary.BlockBoundary.block.distinct_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.top_level_s", "s", "lower"),
    ("host.probe_s", "s", "lower"),
)


def layer_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    units = {"calls": "count", "s": "s", "self_s": "s", "rss_mb": "MB"}
    specs = [
        (f"{layer_name(m, p)}.{suffix}", units[suffix], "lower")
        for m, p in LAYERS
        for suffix in LAYER_SUFFIXES
    ]
    return specs + list(EXTRA_METRICS)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans; ``spans[i] = [name, start, end, parent index, rss growth in MB]``.

    ``spans`` and the open-span stack are cleared in place, never replaced: the
    installed wrappers hold them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.matvecs = 0
        self.blocks_computed = 0
        self.blocks_distinct = 0
        self._block_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, _maxrss_mb()]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[4] = _maxrss_mb() - rec[4]
                stack.pop()

        return traced

    def wrap_solver(self, fn):
        """Span the eigensolver and count the matvecs it asks of its handle."""
        from qdlab.linalg import LinearMapHandle

        traced = self.wrap("linalg.lowest_eigs_matrix_free", fn)

        @functools.wraps(fn)
        def counting(h, *args, **kwargs):
            inner = h.apply

            def apply(x):
                self.matvecs += 1
                return inner(x)

            return traced(LinearMapHandle(dim=h.dim, apply=apply), *args, **kwargs)

        return counting

    def wrap_block(self, fn):
        """Span BlockBoundary.block and count distinct block matrices per boundary."""
        traced = self.wrap("boundary.BlockBoundary.block", fn)

        @functools.wraps(fn)
        def counting(bb, f_hat):
            blk = traced(bb, f_hat)
            fhats, mats = self._block_seen.setdefault(bb, (set(), set()))
            if f_hat not in fhats:
                fhats.add(f_hat)
                self.blocks_computed += 1
                key = (blk.m_matrix.shape, blk.m_matrix.tobytes())
                if key not in mats:
                    mats.add(key)
                    self.blocks_distinct += 1
            return blk

        return counting

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.matvecs = self.blocks_computed = self.blocks_distinct = 0


def _resolve(owner, path: str):
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer callable for the duration of the block, then restore them."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for module, path in LAYERS:
            mod = importlib.import_module(f"qdlab.{module}")
            owner, attr = _resolve(mod, path)
            raw = owner.__dict__[attr]
            name = layer_name(module, path)
            if isinstance(raw, classmethod):
                patch(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
            elif name == "linalg.lowest_eigs_matrix_free":
                wrapped = tracer.wrap_solver(raw)
                patch(owner, attr, wrapped)
                for importer in SOLVER_IMPORTERS:
                    patch(importlib.import_module(f"qdlab.{importer}"), attr, wrapped)
            elif name == "boundary.BlockBoundary.block":
                patch(owner, attr, tracer.wrap_block(raw))
            else:
                patch(owner, attr, tracer.wrap(name, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if ce <= cs:
                continue
            if cur_end is None or cs > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = cs, ce
            else:
                cur_end = max(cur_end, ce)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and RSS growth.

    Inclusive time and RSS growth count only spans with no ancestor of the same
    name, so a layer that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, rss) in enumerate(spans):
        t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rss_mb": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            t["s"] += end - start
            t["rss_mb"] += rss
    return out


def top_level_seconds(spans: list[list]) -> float:
    return sum(s[2] - s[1] for s in spans if s[3] < 0)
