"""Boundary states, plaquette constants and approximate-factorization
certificates.

The slim boundary state of a region is block diagonal over boundary-edge
assignments f.  Within one block, the edge part is a rank-one projector and the
vertex-chain part is a sum of right-translation permutations indexed by the
anchor value a, so every spectral quantity reduces to a small matrix in the
group algebra of the subgroup of admissible anchors.  By gauge invariance that
matrix depends on f only through the holonomy of f around each boundary
component, and each holonomy tuple is shared by |G|^(L-c) assignments (L
boundary edges, c components), as for G-injective PEPS (Schuch, Cirac and
Perez-Garcia, arXiv:1001.3807).

One walk serves every region kind.  Each boundary vertex lies on exactly two
boundary edges, so the boundary components are cycles; a walk starts at the
first boundary vertex no earlier walk reached and follows unused boundary edges
back to it.  Another anchor conjugates a component's holonomy and the other
direction inverts it.  Both are bijections of the keys, and a block's anchor
values enter only through the chain value a(v) = u_v a u_v^{-1} each fixes at
every boundary vertex, so the number of blocks, every summary and
`group_function_matrix` do not depend on the walk.

The walks are folded once, over all |G|^L labellings in row-major order, into
each labelling's holonomy tuple as one base-|G| number (its key) and its vertex
words u_v; everything else reads that fold by the labelling's index, and all
but the leading-term norm read only the first labelling of each key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .groups import FiniteGroup
from .lattice import (
    RECT,
    Edge,
    Region,
    RegionClassification,
    classify_region,
)
from .linalg import RANK_CUTOFF, require_fits
from .quantum_double import gamma_beta

if TYPE_CHECKING:
    import scipy.sparse as sp


class BoundaryError(ValueError):
    pass


def reduced_character(group: FiniteGroup, g: int) -> float:
    """chi~_reg(g) = chi_reg(g) - 1."""
    return group.regular_character(g) - 1.0


# -- plaquette-constant closed form ---------------------------------------------------


def kappa_epsilon(cls: RegionClassification, beta: float, order: int) -> tuple[float, float]:
    """kappa_R and epsilon_R of the leading-term theorem."""
    g = gamma_beta(beta, order)
    v_int, n_p = len(cls.interior_vertices), cls.n_plaquettes
    kappa = (1 + g) ** (v_int + n_p) * float(order) ** len(cls.edges)
    ratio = g / (1 + g)
    eps = 3.0 * order**2 * (ratio**v_int if v_int > 0 else 1.0)
    return kappa, eps


def interior_sum_closed_form(group: FiniteGroup, cls: RegionClassification, holonomy: int, beta: float) -> float:
    """sum over interior extensions of prod_p (1 + gamma chi_reg) in closed form.

    Holds for a proper rectangle classified as `cls` whose boundary labels have
    the holonomy `holonomy` (its digit in `BlockBoundary`'s holonomy key, from
    any anchor and in either direction).  The formula needs chi_reg of the
    ordered product of the reduced labels around the perimeter; the holonomy is
    conjugate to that product or to its inverse, and chi_reg is a class
    function with chi(g^{-1}) = chi(g).
    """
    g = gamma_beta(beta, group.order)
    n_p = cls.n_plaquettes
    return group.order ** len(cls.interior_edges) * (
        (1 + g) ** n_p + (g**n_p) * reduced_character(group, holonomy)
    )


@dataclass
class BoundaryBlock:
    """The block of one holonomy tuple, shared by every labelling f that has it."""

    coeffs: dict  # anchor tuple -> scalar coefficient (kappa-normalized)
    subgroup: list[tuple[int, ...]]  # admissible anchor tuples: a product subgroup
    m_matrix: np.ndarray  # group-algebra matrix over the subgroup (a symmetric Gram block)
    vals: np.ndarray  # eigenvalues of m_matrix, ascending
    vecs: np.ndarray  # orthonormal eigenvectors, one column per value
    kept: np.ndarray  # mask of the modes above RANK_CUTOFF relative to the largest |value|
    lead: float  # max |lambda - 1|
    n_kept: int  # number of kept modes
    support: tuple[float, float]  # max |lambda - [kept]|, max |1/lambda - 1| over the kept lambda


class BlockBoundary:
    """Structured slim boundary state of a proper rectangle or cylinder region.

    Every spectral quantity is a function of the small symmetric matrix m of
    each block.  By gauge invariance a block depends on its labelling f only
    through the holonomy of f around each boundary component (the product of
    its labels along the walk from the anchor): gauge moves at the other
    boundary vertices keep the holonomies, so each holonomy tuple is shared by
    |G|^(L-c) labellings, for L boundary edges and c components.  The walks
    follow the classified boundary edges alone, the same for rectangles and
    cylinders (see the module docstring).  `block` takes f by its row-major
    index, reads its holonomy key from the one fold of all labellings, looks the
    block up by it, and on a miss takes its coefficients from one
    `interior_sum` call for all its anchor tuples and decomposes m once with
    `eigh`, so at most |G|^c blocks are built.
    The leading-term norm, the rank, the support norms and
    `group_function_matrix` all read those eigenvalues, under the one cutoff
    `linalg.RANK_CUTOFF`; all but the first read one labelling per key (`_first`).
    """

    def __init__(self, group: FiniteGroup, region: Region, beta: float):
        self.group = group
        self.region = region
        self.beta = beta
        self.cls = classify_region(region)
        self.kappa, self.epsilon = kappa_epsilon(self.cls, beta, group.order)
        self.boundary_edges = list(self.cls.boundary_edges)
        self.boundary_vertices = list(self.cls.boundary_vertices)
        self.n = group.order
        self.n_labellings = self.n ** len(self.boundary_edges)  # f in row-major order
        self.gamma = gamma_beta(beta, group.order)
        self._block_cache: dict = {}  # holonomy key -> BoundaryBlock
        if not self.boundary_edges:
            raise BoundaryError("the torus has no boundary")
        self._walks, self._vertex_component = self._component_walks()

    def _component_walks(self):
        """Per component, its walk as steps (position of the edge in f, whether the
        step's factor is the inverse of that label, slot of the vertex reached in
        `boundary_vertices`, or None on the step back to the anchor); and per
        boundary vertex the index of its component.

        Each walk starts at the first boundary vertex that no earlier walk
        reached and follows unused boundary edges until it is back there.
        """
        lat = self.region.lattice
        slot = {v: i for i, v in enumerate(self.boundary_vertices)}
        incident: dict = {}  # vertex -> positions of its boundary edges
        for i, e in enumerate(self.boundary_edges):
            for v in lat.vertices_of_edge(e):
                incident.setdefault(v, []).append(i)
        if incident.keys() != slot.keys() or any(len(es) != 2 for es in incident.values()):
            raise BoundaryError("each boundary vertex must lie on exactly two boundary edges")
        unused = set(range(len(self.boundary_edges)))
        component = [-1] * len(slot)
        walks = []
        for anchor in self.boundary_vertices:
            if component[slot[anchor]] >= 0:
                continue
            c = component[slot[anchor]] = len(walks)
            walk, v = [], anchor
            while not walk or v != anchor:
                i = next(i for i in incident[v] if i in unused)
                unused.remove(i)
                e = self.boundary_edges[i]
                away, toward = lat.vertices_of_edge(e)
                # value relation across e: a(away) = g a(toward) g^{-1}, g the physical
                # label, which is the reduced one inverted where gamma_inverted
                backward = v == away
                v = toward if backward else away
                component[slot[v]] = c
                walk.append((i, backward != self.cls.gamma_inverted[e], None if v == anchor else slot[v]))
            walks.append(walk)
        return walks, np.array(component)

    @cached_property
    def _fold(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, words) of every labelling f in row-major order: its holonomy tuple as
        one base-|G| number, the first component's digit leading, and its running
        word u_v at each boundary vertex (1 at the anchors).  The walks fold as
        broadcasts, an axis per boundary edge, in the smallest unsigned dtypes that
        hold |G|^c - 1 and |G| - 1; the keys, the words and the running holonomy with
        its successor are checked against the dense budget before any is made."""
        G, n, ne, nv = self.group, self.n, len(self.boundary_edges), len(self.boundary_vertices)
        key_type, word_type = np.min_scalar_type(n ** len(self._walks) - 1), np.min_scalar_type(n - 1)
        require_fits((n**ne * (key_type.itemsize + (nv + 2) * word_type.itemsize),), np.uint8)
        tables = G.mul.astype(word_type), G.mul[G.inv].astype(word_type)  # [g, h] -> g h, g^{-1} h
        keys, words = np.zeros((n,) * ne, key_type), np.zeros((nv,) + (n,) * ne, word_type)
        for walk in self._walks:
            cur = np.zeros((), word_type)
            for i, inverted, slot in walk:
                label = np.arange(n, dtype=word_type).reshape((n,) + (1,) * (ne - 1 - i))
                cur = tables[inverted][label, cur]
                if slot is not None:
                    words[slot] = cur
            keys *= n
            keys += cur
        return keys.reshape(-1), words.reshape(nv, -1)

    @cached_property
    def _first(self) -> list[int]:
        """The first labelling of each holonomy key, in key order."""
        keys = self._fold[0]
        return [int((keys == k).argmax()) for k in range(self.n ** len(self._walks))]

    @cached_property
    def _interior(self) -> tuple[list, list, np.ndarray]:
        """For `interior_sum`: each plaquette's (edge, sign) steps, each region edge's
        (edge, away, toward) and the weight 1 + gamma chi_reg(h) of each h in G."""
        G, lat = self.group, self.region.lattice
        loops = [lat.edges_of_plaquette(p) for p in self.region.plaquettes()]
        relations = [(e, *lat.vertices_of_edge(e)) for e in self.cls.edges]
        weight = 1.0 + self.gamma * np.array([G.regular_character(h) for h in G.elements()])
        return loops, relations, weight

    # -- label plumbing ---------------------------------------------------------

    def phys_of_gamma(self, e: Edge, gam: int) -> int:
        return self.group.inv[gam] if self.cls.gamma_inverted[e] else gam

    def _anchor_values(self, words, anchors) -> np.ndarray:
        """Per boundary vertex, its chain value a(v) = u_v a u_v^{-1} for the component
        anchors, from `words` with u_v on the first axis and `anchors` with the
        component on the first axis (their further axes broadcast)."""
        G, u, a = self.group, np.asarray(words), np.asarray(anchors)[self._vertex_component]
        a = a.reshape(a.shape[:1] + (1,) * (u.ndim - a.ndim) + a.shape[1:])
        return G.mul[G.mul[u, a], G.inv[u]]

    # -- per-block data ----------------------------------------------------------

    def _anchor_subgroup(self, holonomies: tuple[int, ...]) -> list[tuple[int, ...]]:
        G = self.group
        per_comp = [[a for a in G.elements() if G.conj(w, a) == a] for w in holonomies]
        return list(itertools.product(*per_comp))

    def interior_sum(self, g_phys: dict[Edge, int], holonomy: int, subgroup: list[tuple], words) -> list[float]:
        """Interior-extension sums for the block of physical boundary labels `g_phys`
        (first component's holonomy `holonomy`, vertex words `words`), one per
        anchor tuple of `subgroup`: `interior_sum_closed_form` on a rectangle with
        an abelian group or trivial anchors, the rest one broadcast with an axis
        per such anchor tuple, then per interior edge and interior vertex (the
        gauge configurations, laid out as in `RegionNetwork.t_sparse`). A cell is
        prod_p (1 + gamma chi_reg(hol_p)), in plaquette order, masked by
        a(away) = g a(toward) g^{-1} on every region edge, which fixes the interior
        vertices: a row's running sum in C order adds its unmasked cells in the
        order of the interior edge assignments. The stacked tuples, at most |G|^c,
        multiply the cells and running sums, checked against the dense budget first."""
        G, n, sums = self.group, self.n, {}
        rest = [t for t in subgroup if self.region.kind != RECT or (any(t) and not G.is_abelian())]
        if rest:
            free = [*self.cls.interior_edges, *self.cls.interior_vertices]
            require_fits((2, len(rest)) + (n,) * len(free))
            loops, relations, weight = self._interior
            label = dict(g_phys)  # edge or vertex -> its group element, an axis where free
            values = self._anchor_values(np.asarray(words)[:, None], np.array(rest).T)  # [v, anchor tuple]
            label.update(zip(self.boundary_vertices, values.reshape(values.shape + (1,) * len(free))))
            for i, x in enumerate(free):
                label[x] = np.arange(n).reshape((n,) + (1,) * (len(free) - 1 - i))
            cells = np.ones((n,) * len(free))
            for loop_edges in loops:
                loop = 0
                for e, sign in loop_edges:
                    loop = G.mul[loop, label[e] if sign > 0 else G.inv[label[e]]]
                cells *= weight[loop]
            cells = np.repeat(cells[None], len(rest), axis=0)
            for e, away, toward in relations:
                cells *= label[away] == G.conj(label[e], label[toward])
            sums = dict(zip(rest, np.cumsum(cells.reshape(len(rest), -1), axis=1)[:, -1].tolist()))
        return [sums[t] if t in sums else interior_sum_closed_form(G, self.cls, holonomy, self.beta) for t in subgroup]

    def block(self, f: int) -> BoundaryBlock:
        """The block of the labelling of row-major index f, looked up by its holonomy key."""
        keys, words = self._fold
        key = int(keys[f])
        cached = self._block_cache.get(key)
        if cached is not None:
            return cached
        G, n, ne, c = self.group, self.n, len(self.boundary_edges), len(self._walks)
        f_hat = [f // n ** (ne - 1 - i) % n for i in range(ne)]  # the labels: f's base-|G| digits
        holonomies = tuple(key // n ** (c - 1 - k) % n for k in range(c))
        g_phys = {e: self.phys_of_gamma(e, gam) for e, gam in zip(self.boundary_edges, f_hat)}
        subgroup = self._anchor_subgroup(holonomies)
        coeffs, v_int = {}, len(self.cls.interior_vertices)
        for anchors, inner in zip(subgroup, self.interior_sum(g_phys, holonomies[0], subgroup, words[:, f])):
            vc = 1.0 + self.gamma if all(a == 0 for a in anchors) else self.gamma
            coeffs[anchors] = n**ne * vc**v_int * inner / self.kappa
        # group-algebra matrix over the product subgroup: right-multiplication perms
        order = {t: i for i, t in enumerate(subgroup)}
        m = np.zeros((len(subgroup), len(subgroup)))
        for anchors, coeff in coeffs.items():
            for t in subgroup:
                prod = tuple(G.mul[z, a] for z, a in zip(t, anchors))
                m[order[prod], order[t]] += coeff
        vals, vecs = np.linalg.eigh(m)
        kept = np.abs(vals) > RANK_CUTOFF * max(np.abs(vals).max(), 1e-300)
        support = (float(np.abs(vals - kept).max()), float(np.abs(1.0 / vals[kept] - 1.0).max(initial=0.0)))
        blk = BoundaryBlock(coeffs, subgroup, m, vals, vecs, kept,
                            float(np.abs(vals - 1.0).max()), int(kept.sum()), support)
        self._block_cache[key] = blk
        return blk

    # -- spectral summaries --------------------------------------------------------

    def leading_term_norm(self) -> float:
        """|| rho~/kappa - S~ || as the max over f-blocks of max |lambda - 1|."""
        return max(self.block(f).lead for f in range(self.n_labellings))

    def rank(self) -> int:
        """Numerical rank of the slim (equivalently full, beta>0) boundary state: each
        key's block counts once for each of its |G|^(L-c) labellings."""
        chain_dim, per_key = self.n ** len(self.boundary_vertices), self.n_labellings // len(self._first)
        return per_key * sum(chain_dim // len(blk.subgroup) * blk.n_kept for blk in map(self.block, self._first))

    def leading_rank(self) -> int:
        return self.n ** (len(self.boundary_edges) + len(self.boundary_vertices))

    def support_norms(self) -> tuple[float, float]:
        """(|| rho^{1/2} sigma^{-1} rho^{1/2} - J ||, || rho^{-1/2} sigma rho^{-1/2} - J ||).

        Computed in the gauge-reduced form: per block these are ||m - supp(m)||
        and ||m^+ - supp(m)|| for the group-algebra matrix m and its pseudo-inverse m^+, that is
        max |lambda - [kept]| and max |1/lambda - 1| over the kept lambda, maxima
        over the keys.
        """
        worst_a = worst_b = 0.0
        for f in self._first:
            a, b = self.block(f).support
            worst_a, worst_b = max(worst_a, a), max(worst_b, b)
        return worst_a, worst_b

    # -- lifting block data to reduced-basis vectors ---------------------------------

    def group_function_matrix(self, func) -> sp.csc_matrix:
        """func(m) per block, applied on the kept modes only (e.g. x -> 1/(kappa x)
        gives the pseudo-inverse of the Gram kappa m, which `RegionProjector` holds),
        as a sparse CSC matrix on the reduced basis:
        block diagonal over f, and within the block of f the sum over anchors a of
        d_a times the permutation that takes the chain state h to h a(v) at every
        boundary vertex v, where d is func(m)'s identity column (anchors with
        d_a = 0 are left out).

        Every holonomy key is taken, by |G|^(L-c) labellings, and its block is
        built once, from its first labelling (`_first`). Each anchor's rows for
        all the labellings with that key are sums of one small table per boundary
        vertex, the first half of the vertices and the second added as one outer
        sum, and go straight to their places in column order: column (f, h) holds
        one entry per anchor, in subgroup order, so nothing is sorted. The fold
        and four int arrays over the labellings are checked against the dense
        budget first, and again with the matrix and one anchor's rows and
        positions for the largest key before the matrix is made."""
        import scipy.sparse as sp

        G, n, nv, n_f = self.group, self.n, len(self.boundary_vertices), self.n_labellings
        chain_dim, n_keys = n**nv, n ** len(self._walks)
        keys, words = self._fold
        # `_first`'s bool mask (within an intp array), and each f's entry count, running count and first entry
        labelled = keys.nbytes + words.nbytes + 4 * (n_f + 1) * np.dtype(np.intp).itemsize
        require_fits((labelled,), np.uint8)
        ident = (0,) * len(self._walks)
        anchors, weights = [], []
        for f in self._first:
            blk = self.block(f)
            # func(m) lies in the group algebra: its identity column holds the weights
            vecs = blk.vecs[:, blk.kept]
            w = vecs @ (func(blk.vals[blk.kept]) * vecs[blk.subgroup.index(ident)])
            nonzero = np.flatnonzero(w != 0.0)
            anchors.append(np.array(blk.subgroup)[nonzero])
            weights.append(w[nonzero])
        per_col = np.array([len(w) for w in weights])[keys]  # entries in each column of f
        start = chain_dim * np.concatenate(([0], np.cumsum(per_col)))  # f's first entry
        nnz, dim = int(start[-1]), n_f * chain_dim
        index = np.dtype(np.int32 if max(dim, nnz) < 2**31 else np.int64)  # scipy's choice, so no copy
        emit = chain_dim * (n_f // n_keys)
        require_fits((labelled + (nnz + emit) * (index.itemsize + 8) + (dim + 1) * index.itemsize,), np.uint8)
        rows, data, indptr = np.empty(nnz, index), np.empty(nnz), np.empty(dim + 1, index)
        pointers = indptr[:-1].reshape(n_f, chain_dim)  # column (f, h) starts at start_f + h per_col_f
        np.multiply.outer(per_col.astype(index), np.arange(chain_dim, dtype=index), out=pointers)
        pointers += start[:-1, None].astype(index)
        indptr[-1] = nnz
        strides = n ** np.arange(nv - 1, -1, -1, dtype=index)
        right = G.mul.astype(index)  # right[h, a] = h a
        for k, (key_anchors, key_weights) in enumerate(zip(anchors, weights)):
            fs = np.flatnonzero(keys == k)
            u, offsets = words[:, fs], (fs * chain_dim).astype(index)
            pos = start[fs, None] + np.arange(chain_dim) * len(key_weights)  # the first anchor's entries
            for a, d in zip(key_anchors, key_weights):
                value = self._anchor_values(u, a)  # a(v) per vertex and f
                steps = strides[:, None, None] * right[:, value].transpose(1, 2, 0)  # [v, f, h_v]: digit of h_v a(v)
                head, tail = _outer_sum(steps[: nv // 2]), _outer_sum(steps[nv // 2 :])
                rows[pos] = (offsets[:, None, None] + head[:, :, None] + tail[:, None, :]).reshape(len(fs), chain_dim)
                data[pos] = d
                pos += 1
        return sp.csc_matrix((data, rows, indptr), shape=(dim, dim))


def _outer_sum(tables: np.ndarray) -> np.ndarray:
    """sum_v tables[v][f, h_v] as an array over f and the states of all the v, in row-major order."""
    out = np.zeros((tables.shape[1], 1), tables.dtype)
    for t in tables:
        out = (out[:, :, None] + t[:, None, :]).reshape(len(out), -1)
    return out


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
