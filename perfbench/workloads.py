"""The benchmark's workloads: fixed certificate instances at beta = 1.

Each workload has a ``setup`` that builds the inputs (group tables, lattice,
model, regions or splits) and a ``run_pass`` that makes the public certificate
calls once and returns ``{certificate name: plain output}``. Calls go through
module attributes (``davies.local_gap_check``, not a name imported here), so
the tracer's wrappers see them.

Why these instances:

* ``boundary_certs``: nearly all time is in ``boundary.BlockBoundary``. The four
  regions cover the abelian closed form, the abelian cylinder brute-force sum
  and the non-abelian brute force. The abelian regions take about 36% of a
  pass and S3 about 64% (single-threaded BLAS), so a
  block-deduplication change that helps one path and slows another shows up
  in ``wall_s``.
* ``gap_chain``: the Davies stages of ``davies.gap_chain`` (generator, H~ build
  and matvecs, kernel projector, deflated and local eigensolves) on a Z2 patch
  of the N=2 torus. The whole chain fits only on the full N=2 torus, where it
  takes minutes, longer than one benchmark run may last.
* ``martingale_mf``: the matrix-free whole-region projector that
  ``gap_tools.martingale_measurement`` applies in every matvec on its smallest
  instance (2^20 doubled dimensions), checked against the embedded overlap
  projector. The full certificate builds two more projectors densely and
  needs at least 21 matvecs, about 3 minutes, longer than one run may last.
  The projector is applied to a vector drawn at a fixed seed, so that
  <x, P x> can be checked against the reference whatever ``--seed`` is.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from refcheck import plain

BETA = 1.0
SOLVER_TOL = 1e-7  # the tolerance gap_chain passes to its eigensolves
LOCAL_CHECK_SEED = 0  # see gap_chain_pass
MARTINGALE_X_SEED = 0  # see martingale_pass
PROJECTOR_TOL = 1e-9

BOUNDARY_REGIONS = (
    ("Z2", 4, "rect:0,0,2,2"),  # abelian closed form, 256 blocks
    ("Z3", 3, "rect:0,0,1,1"),  # abelian closed form, larger block subgroups
    ("Z2", 3, "cyl:v,0,1"),     # abelian cylinder: brute-force interior sum
    ("S3", 3, "rect:0,0,1,1"),  # non-abelian brute force
)
DAVIES_PATCH = ("Z2", 2, "cyl:v,0,1")
MARTINGALE_SPLIT = ("Z2", 4, "rect:0,0,3,1", "ABC-cols", 1, 1)


class PassClock:
    """Times a pass as its segments: the certificate calls and the work they share.

    Between segments, outside the timed intervals, it runs ``probe`` (if
    given) and pairs each segment with the mean of the probe times just
    before and just after it. ``take`` returns a pass's segments as
    ``(seconds, probe seconds)`` and starts the next pass.
    """

    def __init__(self, probe: Callable[[], float] | None = None):
        self._probe = probe
        self.last_probe_s = probe() if probe else 0.0
        self._segments: list[tuple[float, float]] = []

    @contextmanager
    def segment(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            after = self._probe() if self._probe else 0.0
            self._segments.append((seconds, (self.last_probe_s + after) / 2))
            self.last_probe_s = after

    def take(self) -> list[tuple[float, float]]:
        segments, self._segments = self._segments, []
        return segments


@dataclass
class Workload:
    setup: Callable[[], object]
    run_pass: Callable[[object, int, PassClock], dict]


def _attempt(outputs: dict, name: str, fn, clock: PassClock) -> None:
    """Record one certificate; one that raises is recorded as an error and fails."""
    try:
        with clock.segment():
            result = fn()
        outputs[name] = plain(result)
    except Exception as exc:  # noqa: BLE001 - every certificate error is a failure to report
        outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}


# -- boundary_certs -------------------------------------------------------------


def boundary_setup(regions=BOUNDARY_REGIONS):
    from qdlab import groups, lattice

    out = []
    for gname, n, spec in regions:
        group = groups.group_by_name(gname)
        group.conjugacy_classes()
        region = lattice.parse_region(lattice.TorusLattice(n), spec)
        out.append((f"{gname} N={n} {spec}", group, region))
    return out


def boundary_pass(inputs, seed: int, clock: PassClock) -> dict:
    from qdlab import boundary

    outputs: dict = {}
    for label, group, region in inputs:
        _attempt(outputs, f"{label} leading_term",
                 lambda: boundary.verify_leading_term(group, region, BETA, seed=seed), clock)
        _attempt(outputs, f"{label} support",
                 lambda: boundary.support_and_sigma(group, region, BETA, seed=seed), clock)
    # the seed is an input of the certificates, which record it; it is not an output
    for out in outputs.values():
        out.pop("seed", None)
    return outputs


# -- gap_chain --------------------------------------------------------------------


def davies_setup():
    from qdlab import groups, lattice, quantum_double

    gname, n, spec = DAVIES_PATCH
    lat = lattice.TorusLattice(n)
    torus = quantum_double.QuantumDoubleModel(groups.group_by_name(gname), lat)
    return torus.restrict(lattice.parse_region(lat, spec))


def gap_chain_pass(model, seed: int, clock: PassClock) -> dict:
    """The Davies gap with the thermofield double deflated, and the local gap
    check at the first edge, as in ``gap_chain``.

    The local check runs at a fixed solver seed: its ARPACK iteration count
    swings from 22 to 140 matvecs with the start vector on this patch, which
    would make the workload's cost a function of ``--seed`` rather than of the
    code.
    """
    from qdlab import davies, quantum_double

    with clock.segment():
        gen = davies.DaviesGenerator.build(model, BETA)
        ht = davies.HTilde(gen)
        rho = quantum_double.gibbs_state(model, BETA)
        tfd = davies.thermofield_vector(model, BETA, rho)
    outputs: dict = {}
    _attempt(outputs, "davies_gap",
             lambda: {"gap": davies.davies_gap(ht, tfd, seed=seed, tol=SOLVER_TOL)}, clock)
    _attempt(outputs, "local_gap_check",
             lambda: davies.local_gap_check(gen, ht, model.edge_list[0], rho,
                                            seed=LOCAL_CHECK_SEED, tol=SOLVER_TOL), clock)
    return outputs


# -- martingale_mf ------------------------------------------------------------------


def martingale_setup():
    from qdlab import groups, lattice, quantum_double

    gname, n, spec, pattern, at, ell = MARTINGALE_SPLIT
    lat = lattice.TorusLattice(n)
    model = quantum_double.QuantumDoubleModel(groups.group_by_name(gname), lat)
    split = lattice.split_region(lattice.parse_region(lat, spec), pattern, at, ell)
    return model, split


def _projector_residual(x: np.ndarray, px: np.ndarray) -> float:
    """| <x, P x> - ||P x||^2 | / ||x||^2, zero for an orthogonal projector P; nan if x = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return abs(np.vdot(x, px).real - np.vdot(px, px).real) / np.vdot(x, x).real


def projector_checks(x: np.ndarray, w: np.ndarray, bw: np.ndarray) -> dict:
    """Outputs of the containment check from x, w = P_whole x and bw = P_B w.

    ``x_p_x`` = <x, P_whole x> / ||x||^2 depends on what the contraction
    computes and is compared with the reference. A nan residual or w = 0
    fails the flags.
    """
    residuals = (_projector_residual(x, w), _projector_residual(w, bw))
    w_norm = np.linalg.norm(w)
    return {
        "x_p_x": np.vdot(x, w).real / np.vdot(x, x).real,
        "projector_residual_ok": all(r <= PROJECTOR_TOL for r in residuals),
        "contained": bool(w_norm > 0 and np.linalg.norm(bw - w) <= PROJECTOR_TOL * w_norm),
    }


def martingale_pass(inputs, seed: int, clock: PassClock) -> dict:
    """Build the matrix-free projector P_whole of the split's whole region, as
    ``martingale_measurement`` builds it, and apply it to a vector x.

    Checked without a reference vector: <x, P x> = ||P x||^2 for P_whole and
    for the overlap projector P_B embedded in the whole region, and
    P_B P_whole x = P_whole x, the containment that the martingale bound
    rests on. <x, P_whole x> itself is compared with the reference, so x is
    drawn at ``MARTINGALE_X_SEED`` and ``seed`` is not used. The two-column
    projectors P1 and P2 of the full matvec are left out: each takes about
    10 s to build densely.
    """
    from qdlab import gap_tools

    model, split = inputs
    ambient = list(split.whole.edges())
    outputs: dict = {}

    def containment():
        p_whole = gap_tools.RegionProjector(model, split.whole, BETA)
        p_b = gap_tools.EmbeddedProjector(
            gap_tools.RegionProjector(model, split.overlaps[0], BETA), ambient)
        x = np.random.default_rng(MARTINGALE_X_SEED).standard_normal(p_b.dim)
        w = p_whole.apply(x)
        bw = p_b.apply(w)
        bound, eps, hypothesis_ok = gap_tools.martingale_bound(model.local_dim, split, BETA)
        return {
            "ranks": [p_whole.rank, p_b.proj.rank],
            "bound": bound,
            "epsilon": eps,
            "hypothesis_ok": hypothesis_ok,
            **projector_checks(x, w, bw),
        }

    _attempt(outputs, "whole_in_overlap", containment, clock)
    return outputs


WORKLOADS = {
    "boundary_certs": Workload(boundary_setup, boundary_pass),
    "gap_chain": Workload(davies_setup, gap_chain_pass),
    "martingale_mf": Workload(martingale_setup, martingale_pass),
}
