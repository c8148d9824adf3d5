"""Ground-space projectors, martingale measurements, parent Hamiltonians and
the gap-recursion combinators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BlockBoundary, kappa_epsilon
from .lattice import Region, RegionSplit, classify_region, rectangles_up_to
from .linalg import (
    ARPACK_MAXITER,
    ConvergenceError,
    FeasibilityError,
    LinearMapHandle,
    dagger,
    lowest_eigs_matrix_free,
    orthonormal_columns,
)
from .peps import RegionNetwork, star_leg_weights
from .quantum_double import QuantumDoubleModel, gamma_beta


# -- region ground projectors ---------------------------------------------------------


def _reduced_weight_factors(bb: BlockBoundary, beta: float) -> list[np.ndarray]:
    """Per reduced index axis, the boundary weight matrix of G_dR (edges then vertices)."""
    G = bb.group
    n = G.order
    q = gamma_beta(beta / 2, n)
    mw = np.full((n, n), ((1 + q) ** 0.25 - q**0.25) / n) + q**0.25 * np.eye(n)
    factors = [mw for _ in bb.boundary_edges]
    for v in bb.boundary_vertices:
        m = bb.cls.vertex_multiplicity[v]
        factors.append(np.diag(star_leg_weights(G, beta, power=m / 4.0)))
    return factors


def _apply_factors(mat: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Right-multiply a (m, reduced) matrix by the kron of per-axis factors.

    The factors are symmetric, so on a single row this is also their left action
    on the reduced vector.
    """
    n = factors[0].shape[0]
    out = mat.reshape(mat.shape[0], *([n] * len(factors)))
    for ax, f in enumerate(factors, start=1):
        out = np.moveaxis(np.tensordot(out, f, axes=(ax, 0)), -1, ax)
    return out.reshape(mat.shape)


DENSE_PROJECTOR_DIM = 2**15  # doubled dimension up to which RegionProjector holds W densely


class RegionProjector:
    """Orthogonal projector onto Im(V_X) on the doubled space of the region.

    Dense mode holds W with P = W W^dagger; matrix-free mode applies W through
    the tensor network and the block Gram of the boundary state.
    """

    def __init__(self, model: QuantumDoubleModel, region: Region, beta: float):
        self.model = model
        self.region = region
        self.beta = beta
        self.net = RegionNetwork(model, region, beta, "full")
        self.edges = self.net.edges
        self.dim = self.net.phys_dim
        self.rank: int | None = None
        self._w: np.ndarray | None = None
        self._halfinv = None  # sparse Gram^{-1/2} on the reduced basis
        self._inv_factors = None  # inverse boundary weight factors, one per reduced axis
        if self.dim <= DENSE_PROJECTOR_DIM:
            self._build_dense()
        else:
            self._build_matrix_free()

    def _gram_halfinv(self):
        bb = BlockBoundary(self.model.group, self.region, self.beta)
        self._bb = bb
        self._inv_factors = [np.linalg.inv(f) for f in _reduced_weight_factors(bb, self.beta)]
        kappa = bb.kappa

        def halfinv(vals):
            out = np.zeros_like(vals)
            scaled = vals * kappa
            keep = scaled > 1e-12 * max(scaled.max(), 1e-300)
            out[keep] = scaled[keep] ** -0.5
            return out

        self._halfinv = bb.group_function_matrix(bb.matrix_function_weights(halfinv))
        self.rank = bb.rank()

    def _build_dense(self):
        t = self.net.t_matrix()
        if self.beta <= 0:
            w = orthonormal_columns(t)
            self.rank = w.shape[1]
            self._w = w
            return
        self._gram_halfinv()
        t = _apply_factors(t, self._inv_factors)
        self._w = (self._halfinv.T @ t.T).T

    def _build_matrix_free(self):
        if self.beta <= 0:
            raise FeasibilityError("matrix-free region projectors need beta > 0")
        self._gram_halfinv()

    def _w_dagger_apply(self, x: np.ndarray) -> np.ndarray:
        y = self.net.t_dagger_apply(x)
        y = _apply_factors(y[None, :], self._inv_factors)[0]
        return self._halfinv.T.conj() @ y

    def _w_apply(self, y: np.ndarray) -> np.ndarray:
        y = self._halfinv @ y
        y = _apply_factors(y[None, :], self._inv_factors)[0]
        return self.net.t_apply(y)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self._w is not None:
            return self._w @ (dagger(self._w) @ x)
        return self._w_apply(self._w_dagger_apply(x))

    def apply_block(self, mat: np.ndarray) -> np.ndarray:
        """Apply to every column of a (dim, m) block at once."""
        if self._w is not None:
            return self._w @ (dagger(self._w) @ mat)
        return np.column_stack([self.apply(mat[:, j]) for j in range(mat.shape[1])])


class EmbeddedProjector:
    """A region projector acting on the doubled space of an ambient edge set."""

    def __init__(self, proj: RegionProjector, ambient_edges: list):
        self.proj = proj
        self.n = proj.model.local_dim
        self.ambient = list(ambient_edges)
        pos = {e: i for i, e in enumerate(self.ambient)}
        self.inner = [pos[e] for e in proj.edges]
        missing = [e for e in proj.edges if e not in pos]
        if missing:
            raise ValueError(f"region edges {missing} missing from ambient patch")
        self.outer = [i for i in range(len(self.ambient)) if i not in self.inner]
        self.dim = self.n ** (2 * len(self.ambient))

    def apply(self, x: np.ndarray) -> np.ndarray:
        n, na = self.n, len(self.ambient)
        t = np.asarray(x).reshape([n] * (2 * na))
        perm = (
            self.inner
            + [na + i for i in self.inner]
            + self.outer
            + [na + i for i in self.outer]
        )
        t = t.transpose(perm)
        shape = t.shape
        t = self.proj.apply_block(t.reshape(self.proj.dim, -1)).reshape(shape)
        inv = np.argsort(perm)
        return t.transpose(inv).reshape(-1)


def sum_of_complements(projectors, dim: int) -> LinearMapHandle:
    """sum_i (1 - P_i) = count x - sum_i P_i x, matrix-free, for projectors with `apply`."""
    count = len(projectors)

    def apply(x):
        acc = count * np.asarray(x, dtype=complex)
        for p in projectors:
            acc -= p.apply(x)
        return acc

    return LinearMapHandle(dim=dim, apply=apply)


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
    cylinderish = len(split.overlaps) == 2
    factor = 48.0 if cylinderish else 16.0
    return factor * eps, eps, eps < 0.5


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

    # || P1 P2 - Pw ||^2 = lambda_max(P1 P2 P1 - Pw)
    def matvec(x):
        y = p1.apply(p2.apply(p1.apply(x)))
        return y - p_whole.apply(x)

    top = _largest_eig(LinearMapHandle(dim=dim, apply=matvec), seed=seed, tol=tol)
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


def _largest_eig(handle: LinearMapHandle, seed: int, tol: float) -> float:
    """Largest eigenvalue; ConvergenceError when ARPACK has not converged after ARPACK_MAXITER restarts."""
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(seed)
    op = spla.LinearOperator((handle.dim, handle.dim), matvec=handle.apply, dtype=float)
    try:
        vals = spla.eigsh(op, k=1, which="LA", v0=rng.standard_normal(handle.dim), tol=tol,
                          maxiter=ARPACK_MAXITER, return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"largest-eigenvalue solve failed: {exc}") from exc
    return float(vals[0])


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


def recursion_bound(r: int, delta_fn, k_terms: int = 200) -> RecursionBound:
    """Truncated evaluation of prod_k (1 - delta_k)/(1 + 1/s_k) with a rigorous tail factor.

    delta_k = delta(floor((r/4) (9/8)^{k/2})), s_k = floor((4/3)^{k/2}); the tail
    beyond the truncation is bounded below by exp[-2 sum delta_k - sum 1/s_k].
    """
    if r < 16:
        raise ValueError("recursion requires r >= 16")
    deltas, s_values = [], []
    product = 1.0
    for k in range(k_terms):
        ell = math.floor((r / 4.0) * (9.0 / 8.0) ** (k / 2.0))
        dk = float(delta_fn(max(ell, 1)))
        sk = max(int((4.0 / 3.0) ** (k / 2.0)), 1)
        deltas.append(dk)
        s_values.append(sk)
        product *= (1.0 - dk) / (1.0 + 1.0 / sk)
    if product <= 0.0:
        raise ConvergenceError("recursion product vanished: decay function does not decay")
    # tail: sum_{k >= k_terms}; both series decay geometrically, bound by doubling range
    tail_sum = 0.0
    for k in range(k_terms, 4 * k_terms):
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
        terms=k_terms,
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
    region: Region | None  # None = the ambient torus / patch itself
    beta: float
    n_max: int
    min_side: int
    family: list[Region]
    projectors: list[EmbeddedProjector]
    ambient_edges: list
    dim: int

    def handle(self) -> LinearMapHandle:
        return sum_of_complements(self.projectors, self.dim)

    def max_terms_per_edge(self) -> int:
        worst = 0
        for e in self.ambient_edges:
            worst = max(worst, sum(e in set(x.edges()) for x in self.family))
        return worst


def parent_hamiltonian(
    model: QuantumDoubleModel,
    beta: float,
    region: Region | None = None,
    n_max: int = 2,
    min_side: int = 1,
) -> ParentHamiltonian:
    """H = sum_X P_X^perp over rectangles with sides in [min_side, n_max] inside the region."""
    lat = model.lattice
    if region is None:
        ambient = list(lat.edges())
        inside = None
    else:
        ambient = list(region.edges())
        inside = set(region.plaquettes())
    family = []
    for x in rectangles_up_to(lat, n_max, min_side=min_side):
        if inside is not None and not set(x.plaquettes()) <= inside:
            continue
        family.append(x)
    projectors = [EmbeddedProjector(RegionProjector(model, x, beta), ambient) for x in family]
    return ParentHamiltonian(
        model=model,
        region=region,
        beta=beta,
        n_max=n_max,
        min_side=min_side,
        family=family,
        projectors=projectors,
        ambient_edges=ambient,
        dim=model.local_dim ** (2 * len(ambient)),
    )


def parent_gap(
    ph: ParentHamiltonian,
    kernel_vectors,
    k: int = 1,
    seed: int = 0,
    tol: float = 1e-9,
    shift: float = 50.0,
) -> tuple[float, float]:
    """(gap, kernel residual) of the parent Hamiltonian.

    The gap is the smallest eigenvalue of H on the orthogonal complement of the
    expected kernel, spanned by the orthonormal `kernel_vectors`; the residual
    is max ||H v|| over them (~0 when they do lie in the kernel).
    """
    handle = ph.handle()
    vals = lowest_eigs_matrix_free(handle, k=k, seed=seed, tol=tol, deflate=kernel_vectors, shift=shift)
    residual = max(float(np.linalg.norm(handle.apply(v))) for v in kernel_vectors)
    return float(vals[0]), residual
