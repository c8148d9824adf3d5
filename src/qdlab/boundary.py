"""Boundary states, plaquette constants, the leading-term projector, and
approximate-factorization certificates.

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
from .linalg import FeasibilityError, kron
from .peps import star_leg_weights, weight_plaq
from .quantum_double import gamma_beta


class BoundaryError(ValueError):
    pass


# -- elementary phi / psi operators (dense, on l2(G) x l2(G)) --------------------


def phi_operator(group: FiniteGroup, a: int, beta: float = 0.0, m: int = 1, slim: bool = True) -> np.ndarray:
    """Vertex-chain operator sum_h w(h) w(ha) |ha,ha><h,h| with chain length m."""
    n = group.order
    w = np.ones(n) if slim else star_leg_weights(group, beta, power=m / 4.0)
    out = np.zeros((n * n, n * n))
    for h in range(n):
        ha = group.mul[h, a]
        out[ha * n + ha, h * n + h] = w[h] * w[ha]
    return out


def psi_operator(group: FiniteGroup, g: int, beta: float = 0.0, slim: bool = True) -> np.ndarray:
    """|L^g><L^g| (slim) or its weighted version |w L^g w><w L^g w|."""
    lg = group.left_regular_matrix(g)
    if not slim:
        w = weight_plaq(group, beta).matrix
        lg = w @ lg @ w
    v = lg.reshape(-1)
    return np.outer(v, v)


def delta_projector(group: FiniteGroup) -> np.ndarray:
    """(1/|G|) sum_g |L^g><L^g|, the projector onto the translation span."""
    n = group.order
    out = np.zeros((n * n, n * n))
    for g in range(n):
        out += psi_operator(group, g)
    return out / n


# -- scalar contractions -----------------------------------------------------------


def vertex_contraction_scalar(group: FiniteGroup, a: int, beta: float) -> tuple[float, float]:
    """(closed form, brute force) of the full vertex loop: delta_{a,1} + gamma_beta."""
    q = gamma_beta(beta / 2, group.order)
    closed = (1.0 if a == 0 else 0.0) + gamma_beta(beta, group.order)
    w = star_leg_weights(group, beta, power=1.0)
    brute = float(sum(w[h] * w[group.mul[h, a]] for h in group.elements()))
    return closed, brute


def plaquette_loop_scalar(group: FiniteGroup, gs: tuple[int, int, int, int], beta: float) -> tuple[float, float]:
    """(closed form, trace-sum oracle) for the full plaquette loop.

    Closed form: 1 + gamma_beta chi_reg(g1 g2 g3^-1 g4^-1); the oracle sums the
    m, n in {0, 1} projector traces of the squared weighted loop.
    """
    g1, g2, g3, g4 = gs
    word = group.prod([g1, g2, group.inv[g3], group.inv[g4]])
    closed = 1.0 + gamma_beta(beta, group.order) * group.regular_character(word)
    q = gamma_beta(beta / 2, group.order)
    p1, p0 = group.trivial_projector()
    loop = (
        group.left_regular_matrix(g4)
        @ group.left_regular_matrix(g3)
        @ group.left_regular_matrix(group.inv[g2])
        @ group.left_regular_matrix(group.inv[g1])
    )
    brute = 0.0
    for proj_n, wn in ((p1, 1 + q), (p0, q)):
        for proj_m, wm in ((p1, 1 + q), (p0, q)):
            brute += wn * wm * np.trace(proj_n @ loop) * np.trace(proj_m @ loop)
    return closed, float(brute.real)


def reduced_character(group: FiniteGroup, g: int) -> float:
    """chi~_reg(g) = chi_reg(g) - 1."""
    return group.regular_character(g) - 1.0


def gathering_check(
    group: FiniteGroup, u: int, v: int, a0: complex, b0: complex, a1: complex, b1: complex, m: int
) -> tuple[complex, complex]:
    """(brute force, closed form) for the plaquette-gathering sum over m inner legs."""
    if m < 1:
        raise BoundaryError("need at least one inner leg")
    closed = group.order**m * (a0 * a1 + b0 * b1 * reduced_character(group, group.mul[u, v]))
    brute = 0.0 + 0.0j
    for gs in itertools.product(group.elements(), repeat=m):
        left = group.mul[u, group.prod(gs)]
        right = group.mul[group.prod(group.inv[g] for g in reversed(gs)), v]
        brute += (a0 + b0 * reduced_character(group, left)) * (a1 + b1 * reduced_character(group, right))
    return brute, closed


# -- boundary enumeration for rectangles/cylinders ----------------------------------


@dataclass(frozen=True)
class PerimeterStep:
    edge: Edge
    from_vertex: tuple[int, int]
    to_vertex: tuple[int, int]
    gamma_inverted: bool  # reduced label gamma = g^{-1} on south/east dangling pairs


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
        north_or_west, _ = lat.plaquettes_of_edge(edge)
        plaqs = set(region.plaquettes())
        if edge.orientation == HORIZONTAL:
            inverted = north_or_west in plaqs  # inside plaquette north => dangling south
        else:
            inverted = north_or_west in plaqs  # inside west => dangling east
        steps.append(PerimeterStep(edge, frm, to, inverted))

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
    plaqs = set(region.plaquettes())
    rings = []
    if region.kind == "cylinder-horizontal":
        rows = [(region.y0 + region.b) % N, region.y0 % N]  # top ring, bottom ring
        for row in rows:
            steps = []
            for i in range(N):
                e = lat.norm_edge(HORIZONTAL, i, row)
                inverted = (e.x, e.y) in plaqs
                steps.append(PerimeterStep(e, ((i + 1) % N, row), (i % N, row), inverted))
            rings.append(BoundaryComponent(steps[0].from_vertex, steps))
    elif region.kind == "cylinder-vertical":
        cols = [(region.x0 + region.a) % N, region.x0 % N]
        for col in cols:
            steps = []
            for j in range(N):
                e = lat.norm_edge(VERTICAL, col, j)
                inverted = ((col - 1) % N, j) in plaqs
                steps.append(PerimeterStep(e, (col, (j + 1) % N), (col, j % N), inverted))
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


def interior_sum_closed_form(group: FiniteGroup, region: Region, f_hat: dict[Edge, int], beta: float) -> float:
    """sum over interior extensions of prod_p (1 + gamma chi_reg) in closed form.

    f_hat maps boundary edges to reduced labels (the dangling-pair convention,
    where the boundary word needs no extra inversion signs).
    """
    if region.kind != RECT:
        raise BoundaryError("closed form applies to proper rectangles")
    cls = classify_region(region)
    comp = boundary_components(region)[0]
    g = gamma_beta(beta, group.order)
    word = chi_boundary(group, comp, f_hat)
    n_p = cls.n_plaquettes
    return group.order ** len(cls.interior_edges) * (
        (1 + g) ** n_p + (g**n_p) * reduced_character(group, word)
    )


def inverted_flags(region: Region) -> dict[Edge, bool]:
    """Which boundary edges carry gamma = g^{-1} on the dangling pair (south/east sides)."""
    lat = region.lattice
    plaqs = set(region.plaquettes())
    flags = {}
    for e in classify_region(region).boundary_edges:
        north_or_west, _ = lat.plaquettes_of_edge(e)
        flags[e] = north_or_west in plaqs
    return flags


def interior_sum_brute_force(group: FiniteGroup, region: Region, f_hat: dict[Edge, int], beta: float) -> float:
    """Oracle: sum over all interior extensions of prod_p (1 + gamma chi_reg(g|_p)).

    `f_hat` carries reduced (gamma) labels; physical labels are recovered via
    the dangling-side inversion rule before evaluating the plaquette words.
    """
    cls = classify_region(region)
    lat = region.lattice
    flags = inverted_flags(region)
    g_bdry = {e: (group.inv[f_hat[e]] if flags[e] else f_hat[e]) for e in cls.boundary_edges}
    gamma = gamma_beta(beta, group.order)
    total = 0.0
    interior = list(cls.interior_edges)
    for assign in itertools.product(group.elements(), repeat=len(interior)):
        g_all = dict(g_bdry)
        g_all.update({e: g for e, g in zip(interior, assign)})
        val = 1.0
        for p in region.plaquettes():
            word = 0
            for e, sign in lat.edges_of_plaquette(p):
                g = g_all[e]
                word = group.mul[word, g if sign > 0 else group.inv[g]]
            val *= 1.0 + gamma * group.regular_character(word)
        total += val
    return total


def leading_term_edge(group: FiniteGroup) -> np.ndarray:
    """The slim leading-term projector of a single edge: Delta x Delta x phi_1 x phi_1."""
    d = delta_projector(group)
    p = phi_operator(group, 0)
    return kron(d, d, p, p)


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
    m_matrix: np.ndarray  # group-algebra matrix over the subgroup


class BlockBoundary:
    """Structured slim boundary state of a proper rectangle or cylinder region."""

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
        self._inverted = {}
        for c in self.components:
            for s in c.steps:
                self._inverted[s.edge] = s.gamma_inverted

    # -- label plumbing ---------------------------------------------------------

    def phys_of_gamma(self, e: Edge, gam: int) -> int:
        return self.group.inv[gam] if self._inverted[e] else gam

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

    def interior_sum(self, f_hat: tuple[int, ...], anchors: tuple[int, ...], words: list[dict]) -> float:
        """Interior-extension sum for the block (f_hat, anchors)."""
        G = self.group
        g_phys = {
            e: self.phys_of_gamma(e, gam) for e, gam in zip(self.boundary_edges, f_hat)
        }
        all_trivial = all(a == 0 for a in anchors)
        if (all_trivial or G.is_abelian()) and self.region.kind == RECT:
            return interior_sum_closed_form(G, self.region,
                {e: f for e, f in zip(self.boundary_edges, f_hat)}, self.beta)
        return self._interior_sum_brute(g_phys, anchors, words)

    def _interior_sum_brute(self, g_phys: dict[Edge, int], anchors: tuple[int, ...], words) -> float:
        G = self.group
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
                word = 0
                for e, sign in lat.edges_of_plaquette(p):
                    g = g_all[e]
                    word = G.mul[word, g if sign > 0 else G.inv[g]]
                val *= 1.0 + self.gamma * G.regular_character(word)
            total += val
        return total

    def block(self, f_hat: tuple[int, ...]) -> BoundaryBlock:
        cached = self._block_cache.get(f_hat)
        if cached is not None:
            return cached
        G = self.group
        g_phys = {e: self.phys_of_gamma(e, gam) for e, gam in zip(self.boundary_edges, f_hat)}
        words, holonomies = self._component_words(g_phys)
        subgroup = self._anchor_subgroup(holonomies)
        v_int = len(self.cls.interior_vertices)
        coeffs = {}
        for anchors in subgroup:
            vc = 1.0 + self.gamma if all(a == 0 for a in anchors) else self.gamma
            pref = vc**v_int if v_int > 0 else 1.0
            inner = self.interior_sum(f_hat, anchors, words)
            c = self.n ** len(self.boundary_edges) * pref * inner / self.kappa
            coeffs[anchors] = c
        # group-algebra matrix over the product subgroup: right-multiplication perms
        order = {t: i for i, t in enumerate(subgroup)}
        m = np.zeros((len(subgroup), len(subgroup)))
        for anchors, c in coeffs.items():
            for t in subgroup:
                prod = tuple(G.mul[z, a] for z, a in zip(t, anchors))
                m[order[prod], order[t]] += c
        blk = BoundaryBlock(f_hat, words, coeffs, subgroup, m)
        self._block_cache[f_hat] = blk
        return blk

    # -- spectral summaries --------------------------------------------------------

    def block_norm_to_identity(self, blk: BoundaryBlock) -> float:
        return float(np.linalg.norm(blk.m_matrix - np.eye(len(blk.subgroup)), 2))

    def leading_term_norm(self) -> float:
        """|| rho~/kappa - S~ || as the max over f-blocks."""
        worst = 0.0
        for f_hat in self.f_hat_iter():
            worst = max(worst, self.block_norm_to_identity(self.block(f_hat)))
        return worst

    def rank(self, cutoff: float = 1e-10) -> int:
        """Numerical rank of the slim (equivalently full, beta>0) boundary state."""
        total = 0
        nv = len(self.boundary_vertices)
        for f_hat in self.f_hat_iter():
            blk = self.block(f_hat)
            mult = self.n**nv // len(blk.subgroup)
            s = np.linalg.svd(blk.m_matrix, compute_uv=False)
            r = int(np.sum(s > cutoff * max(s[0], 1e-300))) if s.size else 0
            total += mult * r
        return total

    def leading_rank(self) -> int:
        return self.n ** (len(self.boundary_edges) + len(self.boundary_vertices))

    def support_norms(self) -> tuple[float, float]:
        """(|| rho^{1/2} sigma^{-1} rho^{1/2} - J ||, || rho^{-1/2} sigma rho^{-1/2} - J ||).

        Computed in the gauge-reduced form: per block these are ||m - supp(m)||
        and ||pinv(m) - supp(m)|| for the group-algebra matrix m.
        """
        worst_a = worst_b = 0.0
        for f_hat in self.f_hat_iter():
            blk = self.block(f_hat)
            m = blk.m_matrix
            vals, vecs = np.linalg.eigh((m + m.T) / 2)
            keep = np.abs(vals) > 1e-10 * max(np.abs(vals).max(), 1e-300)
            supp = (vecs[:, keep]) @ vecs[:, keep].T
            pinv = (vecs[:, keep] * (1.0 / vals[keep])) @ vecs[:, keep].T
            worst_a = max(worst_a, np.linalg.norm(m - supp, 2))
            worst_b = max(worst_b, np.linalg.norm(pinv - supp, 2))
        return float(worst_a), float(worst_b)

    # -- lifting block data to reduced-basis vectors ---------------------------------

    def _anchor_values(self, words: list[dict], anchors: tuple[int, ...]) -> dict:
        """Per boundary vertex, its chain value a(v) = u_v a u_v^{-1} for the component anchors."""
        return {v: self.group.conj(w, a) for w_map, a in zip(words, anchors) for v, w in w_map.items()}

    def _vertex_perm_indices(self, blk: BoundaryBlock, anchors: tuple[int, ...]) -> list[np.ndarray]:
        """Per boundary vertex, the index map of right-multiplication by a(v)^{-1}."""
        G = self.group
        value = self._anchor_values(blk.anchors_words, anchors)
        return [G.mul[:, G.inv[value[v]]] for v in self.boundary_vertices]

    def matrix_function_weights(self, func) -> dict:
        """Per-block weights of func(m) back in the group algebra (e.g. x -> x^{-1/2})."""
        table = {}
        for f_hat in self.f_hat_iter():
            blk = self.block(f_hat)
            m = (blk.m_matrix + blk.m_matrix.T) / 2
            vals, vecs = np.linalg.eigh(m)
            fv = func(vals)
            fm = (vecs * fv) @ vecs.T
            ident = blk.subgroup.index(tuple(0 for _ in self.components))
            weights = {}
            for anchors in blk.subgroup:
                weights[anchors] = float(fm[blk.subgroup.index(anchors), ident])
            table[f_hat] = {"block": blk, "weights": weights}
        return table

    def group_function_matrix(self, table: dict):
        """The operator of `matrix_function_weights` as a sparse matrix on the
        reduced basis (block diagonal over f, a permutation sum within a block)."""
        import scipy.sparse as sp

        G = self.group
        n, ne, nv = self.n, len(self.boundary_edges), len(self.boundary_vertices)
        chain_dim = n**nv
        base_idx = np.arange(chain_dim)
        rows, cols, vals = [], [], []
        for f_hat in self.f_hat_iter():
            entry = table[f_hat]
            blk = entry["block"]
            offset = int(np.ravel_multi_index(f_hat, (n,) * ne)) * chain_dim if ne else 0
            for anchors, d in entry["weights"].items():
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


# -- dense single-edge boundary states ------------------------------------------------


def boundary_state_edge(group: FiniteGroup, beta: float, slim: bool = True, orientation: str = VERTICAL) -> np.ndarray:
    """Dense boundary state of a single edge on (l2(G) x l2(G))^{x4}.

    Pair order matches the edge tensor sides: (west, east, top, bottom) for a
    vertical edge, (north, south, east, west) for a horizontal one; in both
    cases (psi_g, psi_{g^-1}, phi_a, phi_b) with a = g b g^{-1}.
    """
    G = group
    n2 = group.order**2
    if n2**4 > 2**14:
        raise FeasibilityError("dense edge boundary too large; use probe comparison")
    out = np.zeros((n2**4, n2**4))
    for g in G.elements():
        psi1 = psi_operator(G, g, beta, slim)
        psi2 = psi_operator(G, G.inv[g], beta, slim)
        for b in G.elements():
            a = G.conj(g, b)
            term = kron(psi1, psi2, phi_operator(G, a, beta, 1, slim), phi_operator(G, b, beta, 1, slim))
            out += term
    return out


def edge_boundary_entry(
    group: FiniteGroup, beta: float, row: tuple, col: tuple, slim: bool = True
) -> float:
    """Single matrix element of the edge boundary state from the structured formula.

    row/col are 8-tuples of group labels in pair order ((o,i) per side).
    """
    G = group
    total = 0.0
    wq = weight_plaq(group, beta).matrix
    ws = star_leg_weights(group, beta, power=0.25)
    for g in G.elements():
        lg = G.left_regular_matrix(g)
        lgi = G.left_regular_matrix(G.inv[g])
        if not slim:
            lg, lgi = wq @ lg @ wq, wq @ lgi @ wq
        p1 = lg[row[0], row[1]] * lg[col[0], col[1]]
        p2 = lgi[row[2], row[3]] * lgi[col[2], col[3]]
        if p1 == 0.0 or p2 == 0.0:
            continue
        for b in G.elements():
            a = G.conj(g, b)
            f1 = _phi_entry(G, a, row[4:6], col[4:6], ws if not slim else None)
            f2 = _phi_entry(G, b, row[6:8], col[6:8], ws if not slim else None)
            total += p1 * p2 * f1 * f2
    return total


def _phi_entry(G, a, row_pair, col_pair, ws):
    if col_pair[0] != col_pair[1] or row_pair[0] != row_pair[1]:
        return 0.0
    h, ha = col_pair[0], row_pair[0]
    if G.mul[h, a] != ha:
        return 0.0
    return 1.0 if ws is None else float(ws[h] * ws[ha])


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
