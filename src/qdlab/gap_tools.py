"""Ground-space projectors, martingale measurements, parent Hamiltonians and
the gap-recursion combinators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BlockBoundary, kappa_epsilon
from .lattice import Region, RegionSplit, classify_region, rectangles_up_to
from .linalg import (
    ConvergenceError,
    LinearMapHandle,
    apply_on_sites,
    dagger,
    lowest_eigs_matrix_free,
)
from .peps import RegionNetwork
from .quantum_double import QuantumDoubleModel, gamma_beta


# -- region ground projectors ---------------------------------------------------------


DENSE_PROJECTOR_DIM = 2**13  # doubled dimension up to which RegionProjector holds W densely


class RegionProjector:
    """Orthogonal projector onto Im(V_X) on the doubled space of the region.

    P = W W^dagger with W = T G_dR^{-1} (kappa S~)^{-1/2}: the network's reduced
    map (boundary weights already undone) times the half-inverse of its Gram, the
    slim block boundary.  Dense mode holds W; matrix-free mode applies it through
    the network.  The half-inverse is built on `BlockBoundary`'s reduced basis,
    whose order the network's reduced axes share, from the one `eigh` of each
    block, on the modes that `BlockBoundary.rank` counts (`linalg.RANK_CUTOFF`).
    """

    def __init__(self, model: QuantumDoubleModel, region: Region, beta: float):
        self.model = model
        self.region = region
        self.beta = beta
        self.net = RegionNetwork(model, region, beta)
        self.edges = self.net.edges
        self.dim = self.net.phys_dim
        bb = BlockBoundary(model.group, region, beta)
        self._halfinv = bb.group_function_matrix(lambda v: (bb.kappa * v) ** -0.5)  # sparse Gram^{-1/2}
        self.rank = bb.rank()
        self._w = (self._halfinv.T @ self.net.t_matrix().T).T if self.dim <= DENSE_PROJECTOR_DIM else None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P x for a vector x or for every column of a (dim, m) block at once."""
        if self._w is not None:
            return self._w @ (dagger(self._w) @ x)
        y = self._halfinv.T.conj() @ self.net.t_dagger_apply(x)
        return self.net.t_apply(self._halfinv @ y)


class EmbeddedProjector:
    """A region projector acting on the doubled space of an ambient edge set."""

    def __init__(self, proj: RegionProjector, ambient_edges: list):
        self.proj = proj
        self.n = proj.model.local_dim
        self.ambient = list(ambient_edges)
        pos = {e: i for i, e in enumerate(self.ambient)}
        missing = [e for e in proj.edges if e not in pos]
        if missing:
            raise ValueError(f"region edges {missing} missing from ambient patch")
        self.inner = [pos[e] for e in proj.edges]
        self.dim = self.n ** (2 * len(self.ambient))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return apply_on_sites(x, self.n, len(self.ambient), self.inner, self.proj.apply)


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
    passed: bool
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
    passed = measured <= 1.0 + 1e-9 and (not ok or measured <= bound + 1e-8)
    return MartingaleReport(
        region=whole.describe(),
        split=f"{r1.describe()}|{r2.describe()}",
        beta=beta,
        measured=measured,
        bound=bound,
        epsilon=eps,
        hypothesis_ok=ok,
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
    beyond the truncation is bounded below by exp[-2 sum delta_k - sum 1/s_k].
    """
    if r < 16:
        raise ValueError("recursion requires r >= 16")
    deltas, s_values = [], []
    product = 1.0
    for k in range(RECURSION_TERMS):
        ell = math.floor((r / 4.0) * (9.0 / 8.0) ** (k / 2.0))
        dk = float(delta_fn(max(ell, 1)))
        sk = max(int((4.0 / 3.0) ** (k / 2.0)), 1)
        deltas.append(dk)
        s_values.append(sk)
        product *= (1.0 - dk) / (1.0 + 1.0 / sk)
    if product <= 0.0:
        raise ConvergenceError("recursion product vanished: decay function does not decay")
    # tail: sum_{k >= RECURSION_TERMS}; both series decay geometrically, bound by doubling range
    tail_sum = 0.0
    for k in range(RECURSION_TERMS, 4 * RECURSION_TERMS):
        ell = math.floor((r / 4.0) * (9.0 / 8.0) ** (k / 2.0))
        dk = float(delta_fn(max(ell, 1)))
        if dk >= 0.5:
            raise ConvergenceError("decay function not below 1/2 in the tail")
        sk = max(int((4.0 / 3.0) ** (k / 2.0)), 1)
        tail_sum += 2.0 * dk + 1.0 / sk
        if 2.0 * dk + 1.0 / sk < 1e-18:
            break
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


@dataclass
class ParentHamiltonian:
    model: QuantumDoubleModel
    beta: float
    n_max: int
    family: list[Region]
    projectors: list[EmbeddedProjector]
    ambient_edges: list
    dim: int

    def max_terms_per_edge(self) -> int:
        worst = 0
        for e in self.ambient_edges:
            worst = max(worst, sum(e in set(x.edges()) for x in self.family))
        return worst


def parent_hamiltonian(model: QuantumDoubleModel, beta: float, n_max: int = 2) -> ParentHamiltonian:
    """H = sum_X P_X^perp over the rectangles X of the torus with sides in [1, n_max]."""
    ambient = list(model.lattice.edges())
    family = rectangles_up_to(model.lattice, n_max)
    projectors = [EmbeddedProjector(RegionProjector(model, x, beta), ambient) for x in family]
    return ParentHamiltonian(
        model=model,
        beta=beta,
        n_max=n_max,
        family=family,
        projectors=projectors,
        ambient_edges=ambient,
        dim=model.local_dim ** (2 * len(ambient)),
    )
