"""Ground-space projectors, martingale measurements, parent Hamiltonians and
the gap-recursion combinators."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .boundary import BlockBoundary, kappa_epsilon
from .lattice import Region, RegionSplit, classify_region, rectangles_up_to
from .linalg import (
    ConvergenceError,
    LinearMapHandle,
    lowest_eigs_matrix_free,
    require_fits,
    sites_first_axes,
)
from .peps import RegionNetwork
from .quantum_double import QuantumDoubleModel, gamma_beta

if TYPE_CHECKING:
    import scipy.sparse as sp


# -- region ground projectors ---------------------------------------------------------


class RegionProjector:
    """Orthogonal projector onto Im(V_X) on the doubled space of the region.

    P = Q Q^T, the projector onto Im T, for the isometry Q = T H (Q^T Q = 1): T is
    the network's reduced map (boundary weights already undone), the gauge-orbit
    scatter

        T = sum_{g,h} |G|^{E_b/2} prod_{interior v} (delta(h_v = 1) + q)
            prod_p (1 + q |G| delta(hol_p(g) = 1)) |ket(g, h), g><gamma(g), h_dangling|

    of `RegionNetwork` (Kitaev, quant-ph/9707021; Schuch, Cirac and
    Perez-Garcia, arXiv:1001.3807), and H, with H H^T the pseudo-inverse of T's
    Gram kappa S~, combines the columns of T on each anchor orbit of the reduced
    basis with the kept eigenvectors of its block
    (`BlockBoundary.orbit_half_inverse`, under `linalg.RANK_CUTOFF`). So Q has
    one column per kept mode of each orbit: `rank`, the rank that
    `BlockBoundary.rank` counts, is Q's column count. Q is real, so
    P x = Q (Q^T x): two sparse products with vectors.

    Q reaches the same doubled states as T, its support rows: 128 of 256 on the
    overlap of the smallest martingale split, 4,096 of 16,384 on each of its
    halves.  P is zero off them, and on them it is Q_S Q_S^T (`on_support`),
    with Q_S the support rows of Q renumbered in order, so that every column
    keeps its entries' order.  `support` and Q_S are made on first use, by an
    embedding (`EmbeddedProjector`).
    """

    def __init__(self, model: QuantumDoubleModel, region: Region, beta: float):
        self.model = model
        net = RegionNetwork(model, region, beta)
        self.edges = net.edges
        self.dim = net.phys_dim
        half_inverse = BlockBoundary(model.group, region, beta).orbit_half_inverse()
        self.q = _isometry(net.t_sparse, half_inverse)
        self.rank = self.q.shape[1]

    @functools.cached_property
    def _support_rows(self) -> tuple[np.ndarray, sp.csc_matrix]:
        """(support, Q_S): the sorted rows Q reaches, and Q on them."""
        import scipy.sparse as sp

        q = self.q
        index = q.indices.dtype
        # a mask of the reached rows, the support, each support row's new number and Q_S's rows
        require_fits((self.dim * (1 + 8 + 2 * index.itemsize) + q.indices.nbytes,), np.uint8)
        reached = np.zeros(self.dim, bool)
        reached[q.indices] = True
        support = np.flatnonzero(reached)
        renumber = np.empty(self.dim, index)
        renumber[support] = np.arange(support.size, dtype=index)
        return support, sp.csc_matrix((q.data, renumber[q.indices], q.indptr), shape=(support.size, q.shape[1]))

    @property
    def support(self) -> np.ndarray:
        return self._support_rows[0]

    def on_support(self, y: np.ndarray) -> np.ndarray:
        """P on its support rows, Q_S (Q_S^T y), for y indexed by `support` along its first axis."""
        q_s = self._support_rows[1]
        return q_s @ (q_s.T @ y)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P x for a vector x or for every column of a (dim, m) block at once."""
        return self.q @ (self.q.T @ x)


def _isometry(t: sp.csc_matrix, half_inverse: list[tuple[np.ndarray, np.ndarray]]) -> sp.csc_matrix:
    """Q = T H as a CSC matrix, for T with the same number of entries in each column
    and H as `BlockBoundary.orbit_half_inverse` gives it: column (f, h0, j) gathers
    the entries of T's columns orbits[(f, h0), t], each times scale[t, j], in
    column order; scipy's `sum_duplicates` adds those that meet at one row, and the
    entries that cancel to exact zeros are dropped. The gathered rows, values and
    column pointers are checked against the dense budget before any of them is
    made, with the larger of one key's gather from T and the copy that scipy makes
    of the rows and values left when duplicates shrink them below half."""
    import scipy.sparse as sp

    width = t.nnz // t.shape[1]
    index = t.indices.dtype
    shapes = [(len(orbits), scale.shape[1], scale.shape[0] * width) for orbits, scale in half_inverse]
    nnz, n_cols = sum(m * k * e for m, k, e in shapes), sum(m * k for m, k, _ in shapes)
    extra = max(nnz // 2, *(m * e for m, _, e in shapes))
    require_fits(((nnz + extra) * (index.itemsize + 8) + (n_cols + 1) * index.itemsize,), np.uint8)
    rows, data, indptr = np.empty(nnz, index), np.empty(nnz), np.zeros(n_cols + 1, index)
    t_rows, t_data = t.indices.reshape(-1, width), t.data.reshape(-1, width)
    start = col = 0
    for (orbits, scale), (m, k, e) in zip(half_inverse, shapes):
        stop = start + m * k * e
        indptr[col + 1 : col + 1 + m * k] = np.arange(start + e, stop + 1, e, dtype=index)
        col += m * k
        rows[start:stop].reshape(m, k, e)[:] = np.take(t_rows, orbits, axis=0).reshape(m, 1, e)
        np.multiply(np.take(t_data, orbits, axis=0)[:, None], scale.T[:, :, None],
                    out=data[start:stop].reshape(m, k, len(scale), width))
        start = stop
    q = sp.csc_matrix((data, rows, indptr), shape=(t.shape[0], n_cols))
    q.sum_duplicates()
    q.eliminate_zeros()
    return q


class EmbeddedProjector:
    """A region projector acting on the doubled space of an ambient edge set:
    P x 1, with P on the doubled legs of the region's edges.

    Its matrix view, one row per ket-and-bra state of the region's edges and one
    column per state of the other legs (`linalg.sites_first_axes`), is zero off
    P's support rows, the rows its isometry Q reaches, so `index` holds the
    ambient positions of the support rows times every column, and `apply` runs
    P's `on_support`, Q_S (Q_S^T y), on x gathered there and scatters the result
    into zeros, with no transposed copy of x.
    """

    def __init__(self, proj: RegionProjector, ambient_edges: list):
        self.proj = proj
        n = proj.model.local_dim
        self.ambient = list(ambient_edges)
        pos = {e: i for i, e in enumerate(self.ambient)}
        missing = [e for e in proj.edges if e not in pos]
        if missing:
            raise ValueError(f"region edges {missing} missing from ambient patch")
        n_amb = len(self.ambient)
        self.dim = n ** (2 * n_amb)
        axes = sites_first_axes(n_amb, [pos[e] for e in proj.edges])
        place = n ** np.arange(2 * n_amb - 1, -1, -1, dtype=np.intp)  # place value of each ambient leg

        def offsets(legs):
            """The ambient offset of each state of `legs`, in row-major order."""
            return functools.reduce(np.add.outer, (place[leg] * np.arange(n) for leg in legs), np.intp(0)).ravel()

        rows = 2 * len(proj.edges)
        cols = n ** (2 * n_amb - rows)
        # the offsets of every region state, of the support rows and of every column, and the index
        require_fits((n**rows + len(proj.support) * (cols + 1) + cols,), np.intp)
        self.index = np.add.outer(offsets(axes[:rows])[proj.support], offsets(axes[rows:]))

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.proj.on_support(np.asarray(x)[self.index])
        out = np.zeros(self.dim, y.dtype)
        out[self.index] = y
        return out


def complement_gap(projectors, dim: int, kernel_vectors, seed: int = 0, tol: float = 1e-9) -> tuple[float, float]:
    """(gap, kernel residual) of H = sum_i (1 - P_i), matrix-free, for projectors with `apply`.

    The gap is the smallest eigenvalue of H on the orthogonal complement of the
    expected kernel, spanned by the orthonormal `kernel_vectors`; the residual
    is max ||H v|| over them (~0 when they do lie in the kernel). The deflation
    shift is the number of terms, which bounds ||H||. H returns the dtype its
    terms return, so real projectors keep the solve in real arithmetic.
    """
    count = len(projectors)

    def apply(x):
        return count * np.asarray(x) - sum(p.apply(x) for p in projectors)

    vals = lowest_eigs_matrix_free(
        LinearMapHandle(dim=dim, apply=apply), k=1, seed=seed, tol=tol, deflate=kernel_vectors, shift=count
    )
    residual = max(float(np.linalg.norm(apply(v))) for v in kernel_vectors)
    return float(vals[0]), residual


# -- martingale measurements ------------------------------------------------------------


@dataclass
class MartingaleReport:
    region: str
    split: str
    beta: float
    measured: float
    bound: float
    epsilon: float
    hypothesis_ok: bool
    vacuous: bool  # the bound's hypothesis fails, so the measurement certifies nothing
    passed: bool  # only when the hypothesis holds and measured <= min(1, bound)
    method: str
    seed: int


def martingale_bound(group_order: int, split: RegionSplit, beta: float) -> tuple[float, float, bool]:
    """(bound, epsilon, hypothesis_ok) per the factorization corollaries."""
    overlap = split.overlaps[0]
    cls = classify_region(overlap)
    _, eps = kappa_epsilon(cls, beta, group_order)
    return 16.0 * eps, eps, eps < 0.5


def martingale_measurement(
    model: QuantumDoubleModel,
    beta: float,
    split: RegionSplit,
    seed: int = 0,
    tol: float = 1e-7,
) -> MartingaleReport:
    """Measured || P_r1 P_r2 - P_whole || against the theorem bound, matrix-free."""
    if model.local_dim < 2:
        raise ValueError("the martingale measurement needs a group of order >= 2")
    whole, r1, r2 = split.whole, split.r1, split.r2
    ambient = list(whole.edges())
    p_whole = RegionProjector(model, whole, beta)
    p1 = EmbeddedProjector(RegionProjector(model, r1, beta), ambient)
    p2 = EmbeddedProjector(RegionProjector(model, r2, beta), ambient)
    dim = model.local_dim ** (2 * len(ambient))

    # || P1 P2 - Pw ||^2 = lambda_max(P1 P2 P1 - Pw) = -lambda_min(Pw - P1 P2 P1)
    def matvec(x):
        return p_whole.apply(x) - p1.apply(p2.apply(p1.apply(x)))

    top = -lowest_eigs_matrix_free(LinearMapHandle(dim=dim, apply=matvec), seed=seed, tol=tol)[0]
    measured = float(np.sqrt(max(top, 0.0)))

    bound, eps, ok = martingale_bound(model.local_dim, beta=beta, split=split)
    passed = ok and measured <= 1.0 + 1e-9 and measured <= bound + 1e-8
    return MartingaleReport(
        region=whole.describe(),
        split=f"{r1.describe()}|{r2.describe()}",
        beta=beta,
        measured=measured,
        bound=bound,
        epsilon=eps,
        hypothesis_ok=ok,
        vacuous=not ok,
        passed=passed,
        method="matrix-free",
        seed=seed,
    )


# -- decay function and recursion ----------------------------------------------------------


def delta_function(ell: float, beta: float, order: int) -> float:
    """min{1, 144 |G|^2 (gamma/(1+gamma))^{ell-1}}."""
    if ell <= 0:
        raise ValueError("overlap width must be positive")
    g = gamma_beta(beta, order)
    if g == 0.0:
        return 0.0 if ell > 1 else 1.0
    return min(1.0, 144.0 * order**2 * (g / (1 + g)) ** (ell - 1))


def n_beta(beta: float, order: int) -> int:
    """Interaction range making delta(ell/4) summable: ceil of 4(1+(1+gamma)log(288|G|^2))."""
    g = gamma_beta(beta, order)
    return int(math.ceil(4.0 * (1.0 + (1.0 + g) * math.log(288.0 * order**2))))


@dataclass
class RecursionBound:
    r: int
    terms: int
    deltas: list[float]
    s_values: list[int]
    truncated_product: float
    tail_lower_factor: float
    final_constant: float  # includes the 1/16 torus-to-rectangle prefactor


# Factors of the recursion product evaluated before the tail bound takes over.
RECURSION_TERMS = 200


def recursion_bound(r: int, delta_fn) -> RecursionBound:
    """Truncated evaluation of prod_k (1 - delta_k)/(1 + 1/s_k) with a rigorous tail factor.

    delta_k = delta(floor((r/4) (9/8)^{k/2})), s_k = floor((4/3)^{k/2}); the tail
    beyond the truncation is bounded below by exp[-2 sum delta_k - sum 1/s_k], whose
    terms must fall below 1e-18 within 4 RECURSION_TERMS k (else ConvergenceError).
    """
    if r < 16:
        raise ValueError("recursion requires r >= 16")
    deltas, s_values = [], []
    product, tail_sum = 1.0, 0.0
    # the first RECURSION_TERMS k give the product, the rest the geometrically decaying tail
    for k in range(4 * RECURSION_TERMS):
        ell = math.floor((r / 4.0) * (9.0 / 8.0) ** (k / 2.0))
        dk = float(delta_fn(max(ell, 1)))
        sk = max(int((4.0 / 3.0) ** (k / 2.0)), 1)
        if k < RECURSION_TERMS:
            deltas.append(dk)
            s_values.append(sk)
            product *= (1.0 - dk) / (1.0 + 1.0 / sk)
        elif product <= 0.0:
            raise ConvergenceError("recursion product vanished: decay function does not decay")
        elif dk >= 0.5:
            raise ConvergenceError("decay function not below 1/2 in the tail")
        else:
            tail_sum += 2.0 * dk + 1.0 / sk
            if 2.0 * dk + 1.0 / sk < 1e-18:
                break
    else:
        raise ConvergenceError("recursion tail did not fall below 1e-18: sum of delta_k may diverge")
    tail_lower = math.exp(-tail_sum)
    return RecursionBound(
        r=r,
        terms=RECURSION_TERMS,
        deltas=deltas,
        s_values=s_values,
        truncated_product=product,
        tail_lower_factor=tail_lower,
        final_constant=product * tail_lower / 16.0,
    )


# -- parent Hamiltonian ---------------------------------------------------------------------


# Sides of the parent Hamiltonian's rectangles go up to this. The gap chain fits
# only on the Z2 N=2 torus, where `rectangles_up_to` caps each side at N - 1 = 1.
PARENT_MAX_SIDE = 2


@dataclass
class ParentHamiltonian:
    family: list[Region]
    projectors: list[EmbeddedProjector]
    ambient_edges: list
    dim: int

    def max_terms_per_edge(self) -> int:
        worst = 0
        for e in self.ambient_edges:
            worst = max(worst, sum(e in set(x.edges()) for x in self.family))
        return worst


def parent_hamiltonian(model: QuantumDoubleModel, beta: float) -> ParentHamiltonian:
    """H = sum_X P_X^perp over the rectangles X of the torus with sides in [1, PARENT_MAX_SIDE]."""
    ambient = list(model.lattice.edges())
    family = rectangles_up_to(model.lattice, PARENT_MAX_SIDE)
    projectors = [EmbeddedProjector(RegionProjector(model, x, beta), ambient) for x in family]
    return ParentHamiltonian(
        family=family,
        projectors=projectors,
        ambient_edges=ambient,
        dim=model.local_dim ** (2 * len(ambient)),
    )
