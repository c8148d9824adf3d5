"""Boundary states, plaquette constants and approximate-factorization
certificates.

The slim boundary state of a region is block diagonal over boundary-edge
assignments f.  Within one block, the edge part is a rank-one projector and the
vertex-chain part is a sum of right-translation permutations indexed by the
anchor value a, so every spectral quantity reduces to a small matrix in the
group algebra of the subgroup of admissible anchors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup
from .lattice import (
    HORIZONTAL,
    RECT,
    VERTICAL,
    Edge,
    Region,
    RegionClassification,
    classify_region,
)
from .linalg import RANK_CUTOFF
from .quantum_double import gamma_beta


class BoundaryError(ValueError):
    pass


def reduced_character(group: FiniteGroup, g: int) -> float:
    """chi~_reg(g) = chi_reg(g) - 1."""
    return group.regular_character(g) - 1.0


# -- boundary enumeration for rectangles/cylinders ----------------------------------


@dataclass(frozen=True)
class PerimeterStep:
    edge: Edge
    from_vertex: tuple[int, int]
    to_vertex: tuple[int, int]


@dataclass
class BoundaryComponent:
    """One connected ring of the region boundary, walked counterclockwise."""

    anchor: tuple[int, int]
    steps: list[PerimeterStep]

    def vertices(self) -> list[tuple[int, int]]:
        return [s.from_vertex for s in self.steps]


def _rectangle_perimeter(region: Region) -> BoundaryComponent:
    lat = region.lattice
    N = lat.N
    x0, y0, a, b = region.x0, region.y0, region.a, region.b
    steps = []

    def step(edge, frm, to):
        steps.append(PerimeterStep(edge, frm, to))

    for i in range(a):  # bottom, walking east
        step(lat.norm_edge(HORIZONTAL, x0 + i, y0), ((x0 + i) % N, y0 % N), ((x0 + i + 1) % N, y0 % N))
    for j in range(b):  # right side, walking north
        step(lat.norm_edge(VERTICAL, x0 + a, y0 + j), ((x0 + a) % N, (y0 + j) % N), ((x0 + a) % N, (y0 + j + 1) % N))
    for i in range(a):  # top, walking west
        step(lat.norm_edge(HORIZONTAL, x0 + a - 1 - i, y0 + b), ((x0 + a - i) % N, (y0 + b) % N), ((x0 + a - 1 - i) % N, (y0 + b) % N))
    for j in range(b):  # left side, walking south
        step(lat.norm_edge(VERTICAL, x0, y0 + b - 1 - j), (x0 % N, (y0 + b - j) % N), (x0 % N, (y0 + b - 1 - j) % N))
    anchor = ((x0 + a) % N, y0 % N)  # lower-right corner
    return BoundaryComponent(anchor, steps)


def _cylinder_rings(region: Region) -> list[BoundaryComponent]:
    """The two boundary rings of a cylinder, each walked in its wrap direction."""
    lat = region.lattice
    N = lat.N
    rings = []
    if region.kind == "cylinder-horizontal":
        rows = [(region.y0 + region.b) % N, region.y0 % N]  # top ring, bottom ring
        for row in rows:
            steps = []
            for i in range(N):
                e = lat.norm_edge(HORIZONTAL, i, row)
                steps.append(PerimeterStep(e, ((i + 1) % N, row), (i % N, row)))
            rings.append(BoundaryComponent(steps[0].from_vertex, steps))
    elif region.kind == "cylinder-vertical":
        cols = [(region.x0 + region.a) % N, region.x0 % N]
        for col in cols:
            steps = []
            for j in range(N):
                e = lat.norm_edge(VERTICAL, col, j)
                steps.append(PerimeterStep(e, (col, (j + 1) % N), (col, j % N)))
            rings.append(BoundaryComponent(steps[0].from_vertex, steps))
    else:
        raise BoundaryError(f"no boundary rings for region kind {region.kind}")
    return rings


def boundary_components(region: Region) -> list[BoundaryComponent]:
    if region.kind == RECT:
        return [_rectangle_perimeter(region)]
    if region.kind.startswith("cylinder"):
        return _cylinder_rings(region)
    raise BoundaryError("the torus has no boundary")


def chi_boundary(group: FiniteGroup, component: BoundaryComponent, gammas: dict[Edge, int]) -> int:
    """The boundary word: the ordered product of reduced labels along the walk."""
    return group.prod(gammas[s.edge] for s in component.steps)


# -- plaquette-constant closed form ---------------------------------------------------


def kappa_epsilon(cls: RegionClassification, beta: float, order: int) -> tuple[float, float]:
    """kappa_R and epsilon_R of the leading-term theorem."""
    g = gamma_beta(beta, order)
    v_int, n_p = len(cls.interior_vertices), cls.n_plaquettes
    kappa = (1 + g) ** (v_int + n_p) * float(order) ** len(cls.edges)
    ratio = g / (1 + g)
    eps = 3.0 * order**2 * (ratio**v_int if v_int > 0 else 1.0)
    return kappa, eps


def interior_sum_closed_form(group: FiniteGroup, cls: RegionClassification, word: int, beta: float) -> float:
    """sum over interior extensions of prod_p (1 + gamma chi_reg) in closed form.

    Holds for a proper rectangle classified as `cls`, whose boundary word
    (`chi_boundary` of the reduced labels: the dangling-pair convention needs
    no extra inversion signs) is `word`.
    """
    g = gamma_beta(beta, group.order)
    n_p = cls.n_plaquettes
    return group.order ** len(cls.interior_edges) * (
        (1 + g) ** n_p + (g**n_p) * reduced_character(group, word)
    )


def _propagate_anchor_words(
    group: FiniteGroup, lattice, component: BoundaryComponent, g_phys: dict[Edge, int]
) -> tuple[dict[tuple[int, int], int], int]:
    """Conjugating word u_v per boundary vertex (a(v) = u_v a u_v^{-1}) and the holonomy word."""
    lat_words = {component.anchor: 0}
    steps = component.steps
    start = next(i for i, s in enumerate(steps) if s.from_vertex == component.anchor)
    ordered = steps[start:] + steps[:start]
    current = 0
    for s in ordered:
        e, g = s.edge, g_phys[s.edge]
        away, toward = lattice.vertices_of_edge(e)
        # value relation across e: a(away) = g a(toward) g^{-1}
        if s.from_vertex == toward and s.to_vertex == away:
            current = group.mul[g, current]
        elif s.from_vertex == away and s.to_vertex == toward:
            current = group.mul[group.inv[g], current]
        else:
            raise BoundaryError("perimeter step endpoints inconsistent with edge")
        if s.to_vertex not in lat_words:
            lat_words[s.to_vertex] = current
    return lat_words, current


@dataclass
class BoundaryBlock:
    f_hat: tuple[int, ...]
    anchors_words: list[dict]  # per component: vertex -> conjugating word
    coeffs: dict  # anchor tuple -> scalar coefficient (kappa-normalized)
    subgroup: list[tuple[int, ...]]  # admissible anchor tuples: a product subgroup
    m_matrix: np.ndarray  # group-algebra matrix over the subgroup (a symmetric Gram block)
    vals: np.ndarray  # eigenvalues of m_matrix, ascending
    vecs: np.ndarray  # orthonormal eigenvectors, one column per value
    kept: np.ndarray  # mask of the modes above RANK_CUTOFF relative to the largest |value|


class BlockBoundary:
    """Structured slim boundary state of a proper rectangle or cylinder region.

    Every spectral quantity is a function of the small symmetric matrix m of
    each block.  `block` decomposes m once with `eigh`; the leading-term norm,
    the rank, the support norms and `group_function_matrix` all read those
    eigenvalues, under the one cutoff `linalg.RANK_CUTOFF`.
    """

    def __init__(self, group: FiniteGroup, region: Region, beta: float):
        self.group = group
        self.region = region
        self.beta = beta
        self.cls = classify_region(region)
        self.components = boundary_components(region)
        self.kappa, self.epsilon = kappa_epsilon(self.cls, beta, group.order)
        self.boundary_edges = list(self.cls.boundary_edges)
        self.boundary_vertices = list(self.cls.boundary_vertices)
        self.n = group.order
        self.gamma = gamma_beta(beta, group.order)
        self._block_cache: dict = {}
        walk_edges = {s.edge for c in self.components for s in c.steps}
        if walk_edges != set(self.boundary_edges):
            raise BoundaryError("boundary walk does not cover the boundary edges")

    # -- label plumbing ---------------------------------------------------------

    def phys_of_gamma(self, e: Edge, gam: int) -> int:
        return self.group.inv[gam] if self.cls.gamma_inverted[e] else gam

    def f_hat_iter(self):
        return itertools.product(range(self.n), repeat=len(self.boundary_edges))

    # -- per-block data ----------------------------------------------------------

    def _component_words(self, g_phys: dict[Edge, int]):
        words, holonomies = [], []
        for comp in self.components:
            w, hol = _propagate_anchor_words(self.group, self.region.lattice, comp, g_phys)
            words.append(w)
            holonomies.append(hol)
        return words, holonomies

    def _anchor_subgroup(self, holonomies: list[int]) -> list[tuple[int, ...]]:
        G = self.group
        per_comp = [
            [a for a in G.elements() if G.conj(w, a) == a] for w in holonomies
        ]
        return list(itertools.product(*per_comp))

    def interior_sum(self, g_phys: dict[Edge, int], word: int | None, anchors: tuple, words: list[dict]) -> float:
        """Interior-extension sum for the block of physical boundary labels `g_phys`
        (boundary word `word`, None off rectangles) and component anchors `anchors`."""
        G = self.group
        if self.region.kind == RECT and (G.is_abelian() or all(a == 0 for a in anchors)):
            return interior_sum_closed_form(G, self.cls, word, self.beta)
        interior = list(self.cls.interior_edges)
        lat = self.region.lattice
        plaqs = self.region.plaquettes()
        seed = self._anchor_values(words, anchors)
        total = 0.0
        for assign in itertools.product(G.elements(), repeat=len(interior)):
            g_all = dict(g_phys)
            g_all.update({e: g for e, g in zip(interior, assign)})
            values = dict(seed)
            if not _consistent_vertex_values(G, lat, self.cls, g_all, values):
                continue
            val = 1.0
            for p in plaqs:
                loop = 0
                for e, sign in lat.edges_of_plaquette(p):
                    g = g_all[e]
                    loop = G.mul[loop, g if sign > 0 else G.inv[g]]
                val *= 1.0 + self.gamma * G.regular_character(loop)
            total += val
        return total

    def block(self, f_hat: tuple[int, ...]) -> BoundaryBlock:
        cached = self._block_cache.get(f_hat)
        if cached is not None:
            return cached
        G = self.group
        g_phys = {e: self.phys_of_gamma(e, gam) for e, gam in zip(self.boundary_edges, f_hat)}
        word = (chi_boundary(G, self.components[0], dict(zip(self.boundary_edges, f_hat)))
                if self.region.kind == RECT else None)
        words, holonomies = self._component_words(g_phys)
        subgroup = self._anchor_subgroup(holonomies)
        v_int = len(self.cls.interior_vertices)
        coeffs = {}
        for anchors in subgroup:
            vc = 1.0 + self.gamma if all(a == 0 for a in anchors) else self.gamma
            pref = vc**v_int if v_int > 0 else 1.0
            inner = self.interior_sum(g_phys, word, anchors, words)
            c = self.n ** len(self.boundary_edges) * pref * inner / self.kappa
            coeffs[anchors] = c
        # group-algebra matrix over the product subgroup: right-multiplication perms
        order = {t: i for i, t in enumerate(subgroup)}
        m = np.zeros((len(subgroup), len(subgroup)))
        for anchors, c in coeffs.items():
            for t in subgroup:
                prod = tuple(G.mul[z, a] for z, a in zip(t, anchors))
                m[order[prod], order[t]] += c
        vals, vecs = np.linalg.eigh(m)
        kept = np.abs(vals) > RANK_CUTOFF * max(np.abs(vals).max(), 1e-300)
        blk = BoundaryBlock(f_hat, words, coeffs, subgroup, m, vals, vecs, kept)
        self._block_cache[f_hat] = blk
        return blk

    # -- spectral summaries --------------------------------------------------------

    def leading_term_norm(self) -> float:
        """|| rho~/kappa - S~ || as the max over f-blocks of max |lambda - 1|."""
        return max(float(np.abs(self.block(f_hat).vals - 1.0).max()) for f_hat in self.f_hat_iter())

    def rank(self) -> int:
        """Numerical rank of the slim (equivalently full, beta>0) boundary state."""
        chain_dim = self.n ** len(self.boundary_vertices)
        return sum(chain_dim // len(blk.subgroup) * int(blk.kept.sum()) for blk in map(self.block, self.f_hat_iter()))

    def leading_rank(self) -> int:
        return self.n ** (len(self.boundary_edges) + len(self.boundary_vertices))

    def support_norms(self) -> tuple[float, float]:
        """(|| rho^{1/2} sigma^{-1} rho^{1/2} - J ||, || rho^{-1/2} sigma rho^{-1/2} - J ||).

        Computed in the gauge-reduced form: per block these are ||m - supp(m)||
        and ||pinv(m) - supp(m)|| for the group-algebra matrix m, that is
        max |lambda - [kept]| and max |1/lambda - 1| over the kept lambda.
        """
        worst_a = worst_b = 0.0
        for f_hat in self.f_hat_iter():
            blk = self.block(f_hat)
            worst_a = max(worst_a, float(np.abs(blk.vals - blk.kept).max()))
            worst_b = max(worst_b, float(np.abs(1.0 / blk.vals[blk.kept] - 1.0).max(initial=0.0)))
        return worst_a, worst_b

    # -- lifting block data to reduced-basis vectors ---------------------------------

    def _anchor_values(self, words: list[dict], anchors: tuple[int, ...]) -> dict:
        """Per boundary vertex, its chain value a(v) = u_v a u_v^{-1} for the component anchors."""
        return {v: self.group.conj(w, a) for w_map, a in zip(words, anchors) for v, w in w_map.items()}

    def group_function_matrix(self, func):
        """func(m) per block, applied on the kept modes only (e.g. x -> x^{-1/2} gives
        the pseudo-inverse square root), as a sparse matrix on the reduced basis:
        block diagonal over f, a permutation sum within a block."""
        import scipy.sparse as sp

        G = self.group
        n, ne, nv = self.n, len(self.boundary_edges), len(self.boundary_vertices)
        chain_dim = n**nv
        base_idx = np.arange(chain_dim)
        ident = (0,) * len(self.components)
        rows, cols, vals = [], [], []
        for f_hat in self.f_hat_iter():
            blk = self.block(f_hat)
            # func(m) lies in the group algebra: its identity column holds the weights
            vecs = blk.vecs[:, blk.kept]
            weights = vecs @ (func(blk.vals[blk.kept]) * vecs[blk.subgroup.index(ident)])
            offset = int(np.ravel_multi_index(f_hat, (n,) * ne)) * chain_dim if ne else 0
            for anchors, d in zip(blk.subgroup, weights):
                if d == 0.0:
                    continue
                value = self._anchor_values(blk.anchors_words, anchors)
                maps = [G.mul[:, value[v]] for v in self.boundary_vertices]  # h -> h a(v)
                grids = np.meshgrid(*maps, indexing="ij") if maps else []
                dest = (
                    np.ravel_multi_index([g.ravel() for g in grids], (n,) * nv)
                    if nv
                    else np.zeros(1, dtype=int)
                )
                rows.append(offset + dest)
                cols.append(offset + base_idx)
                vals.append(np.full(chain_dim, d))
        dim = self.n ** (ne + nv)
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        )
        return mat.tocsr()


def _consistent_vertex_values(group, lat, cls, g_all, values) -> bool:
    """Propagate vertex values over all region edges; False on any contradiction."""
    edges = list(cls.edges)
    pending = True
    while pending:
        pending = False
        for e in edges:
            away, toward = lat.vertices_of_edge(e)
            g = g_all[e]
            va, vt = values.get(away), values.get(toward)
            if vt is not None:
                expect = group.conj(g, vt)
                if va is None:
                    values[away] = expect
                    pending = True
                elif va != expect:
                    return False
            elif va is not None:
                values[toward] = group.conj(group.inv[g], va)
                pending = True
    return all(v in values for v in cls.vertices)


# -- certificates ----------------------------------------------------------------------


@dataclass
class FactorizationCertificate:
    region: str
    beta: float
    kappa: float
    epsilon: float
    measured: float
    bound: float
    passed: bool
    vacuous: bool
    exact: bool
    method: str
    seed: int
    extras: dict = field(default_factory=dict)


PASS_TOL = 1e-8


def verify_leading_term(group: FiniteGroup, region: Region, beta: float, seed: int = 0) -> FactorizationCertificate:
    """Certificate for || rho~_bdry / kappa - S~ || <= epsilon_R."""
    blocks = BlockBoundary(group, region, beta)
    measured = blocks.leading_term_norm()
    bound = blocks.epsilon
    passed = measured <= bound + PASS_TOL * max(1.0, bound)
    return FactorizationCertificate(
        region=region.describe(),
        beta=beta,
        kappa=blocks.kappa,
        epsilon=bound,
        measured=measured,
        bound=bound,
        passed=passed,
        vacuous=bound >= 1.0,
        exact=measured <= 1e-12,
        method="block-group-algebra",
        seed=seed,
    )


def support_and_sigma(group: FiniteGroup, region: Region, beta: float, seed: int = 0) -> FactorizationCertificate:
    """Support projector check: rank comparison plus the two sigma-approximation norms."""
    if beta <= 0:
        raise BoundaryError("support certificates need invertible weights (beta > 0)")
    blocks = BlockBoundary(group, region, beta)
    rank = blocks.rank()
    lead_rank = blocks.leading_rank()
    norm_a, norm_b = blocks.support_norms()
    eps = blocks.epsilon
    hypothesis_ok = eps < 1.0
    passed = rank == lead_rank and norm_a < eps + PASS_TOL and (
        not hypothesis_ok or norm_b <= eps / (1 - eps) + PASS_TOL
    )
    return FactorizationCertificate(
        region=region.describe(),
        beta=beta,
        kappa=blocks.kappa,
        epsilon=eps,
        measured=norm_a,
        bound=eps,
        passed=passed,
        vacuous=not hypothesis_ok,
        exact=False,
        method="block-group-algebra",
        seed=seed,
        extras={
            "rank": rank,
            "leading_rank": lead_rank,
            "inverse_norm": norm_b,
            "inverse_bound": eps / (1 - eps) if hypothesis_ok else float("inf"),
        },
    )
