"""Independent dense and brute-force oracles the tests compare `qdlab` against.

None of these has a production caller: each rebuilds a quantity from its
definition (the Hamiltonian as a dense sum of its terms, dense operators on
l2(G) x l2(G), sums over every interior extension, matrix elements one at a
time, the Davies dissipator on dense operators, the jumps from an
eigendecomposition of the local terms) so that the structured code in `qdlab`
can be checked against it. The last sections hold the small builders only
the tests use: region families, dense handles and random matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

from qdlab.boundary import BlockBoundary, BoundaryError
from qdlab.davies import (
    BOHR_FREQUENCIES, CouplingSet, DaviesGenerator, HTilde, JumpDecomposition, _embedded, _local_generator,
    _local_patch, _phase_split, fourier_components,
)
from qdlab.groups import FiniteGroup
from qdlab.lattice import (
    CYL_H,
    CYL_V,
    RECT,
    TORUS,
    VERTICAL,
    Edge,
    GeometryError,
    Region,
    RegionClassification,
    TorusLattice,
    classify_region,
)
from qdlab.gap_tools import EmbeddedProjector
from qdlab.linalg import (
    LinalgError, LinearMapHandle, apply_on_sites, dagger, hermitian_spectrum, kron, lowest_eigs_matrix_free,
    matrix_power_hermitian, require_fits, vectorize,
)
from qdlab.peps import PLAQ_SIDES, STAR_SIDES, RegionNetwork, edge_tensor, star_leg_weights, weight_plaq
from qdlab.quantum_double import QuantumDoubleModel, gamma_beta


# -- the quantum double Hamiltonian ----------------------------------------------------


def hamiltonian_terms(model: QuantumDoubleModel) -> list[np.ndarray]:
    """The embedded star and plaquette projectors of the terms inside the patch."""
    return [model.star_operator(v, embed=True) for v in model.stars()] + [
        model.plaquette_operator(p, embed=True) for p in model.plaquettes()
    ]


def hamiltonian_dense(model: QuantumDoubleModel) -> np.ndarray:
    """H = -sum_v A(v) - sum_p B(p), the terms summed densely."""
    return -sum(hamiltonian_terms(model), np.zeros((model.dim, model.dim)))


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
        w = weight_plaq(group, beta)
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


def reduced_character(group: FiniteGroup, g: int) -> float:
    """chi~_reg(g) = chi_reg(g) - 1."""
    return group.regular_character(g) - 1.0


def vertex_contraction_scalar(group: FiniteGroup, a: int, beta: float) -> tuple[float, float]:
    """(closed form, brute force) of the full vertex loop: delta_{a,1} + gamma_beta."""
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


# -- interior sums -------------------------------------------------------------------


def interior_sum_closed_form(group: FiniteGroup, cls: RegionClassification, holonomy: int, beta: float) -> float:
    """The sum over interior extensions of prod_p (1 + gamma chi_reg) in closed form.

    Holds for a proper rectangle classified as `cls` whose boundary labels have
    the holonomy `holonomy` (its digit in `BlockBoundary`'s holonomy key, from
    any anchor and in either direction), and so for every anchor tuple of an
    abelian group and the trivial anchors of any group.  The formula needs
    chi_reg of the ordered product of the reduced labels around the perimeter;
    the holonomy is conjugate to that product or to its inverse, and chi_reg is
    a class function with chi(g^{-1}) = chi(g).
    """
    g = gamma_beta(beta, group.order)
    n_p = cls.n_plaquettes
    return group.order ** len(cls.interior_edges) * (
        (1 + g) ** n_p + (g**n_p) * reduced_character(group, holonomy)
    )


def interior_sum_brute_force(group: FiniteGroup, region: Region, f_hat: dict[Edge, int], beta: float) -> float:
    """Sum over all interior extensions of prod_p (1 + gamma chi_reg(g|_p)).

    `f_hat` carries reduced (gamma) labels; physical labels are recovered via
    the dangling-side inversion rule before evaluating the plaquette words.
    """
    cls = classify_region(region)
    lat = region.lattice
    g_bdry = {e: (group.inv[f_hat[e]] if cls.gamma_inverted[e] else f_hat[e]) for e in cls.boundary_edges}
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


def interior_sum_enumerated(bb: BlockBoundary, g_phys: dict[Edge, int], anchors: tuple, words: list[int]) -> float:
    """The interior sum of one labelling's anchor tuple, one interior edge assignment
    at a time: the vertex values spread from the boundary chain values over the
    region edges until they settle, an assignment that contradicts them adds
    nothing, and the others add prod_p (1 + gamma chi_reg(hol_p)) in enumeration order."""
    G, cls, lat = bb.group, bb.cls, bb.region.lattice
    interior = list(cls.interior_edges)
    seed = dict(zip(bb.boundary_vertices, bb._anchor_values(words, anchors).tolist()))
    total = 0.0
    for assign in itertools.product(G.elements(), repeat=len(interior)):
        g_all = dict(g_phys)
        g_all.update(zip(interior, assign))
        if not consistent_vertex_values(G, lat, cls, g_all, dict(seed)):
            continue
        val = 1.0
        for p in bb.region.plaquettes():
            loop = 0
            for e, sign in lat.edges_of_plaquette(p):
                g = g_all[e]
                loop = G.mul[loop, g if sign > 0 else G.inv[g]]
            val *= 1.0 + bb.gamma * G.regular_character(loop)
        total += val
    return total


def interior_sum_broadcast(bb: BlockBoundary, g_phys: dict[Edge, int], subgroup: list[tuple], words) -> list[float]:
    """`interior_sum_enumerated` for every anchor tuple of `subgroup` as one masked
    broadcast, with an axis per anchor tuple, then per interior edge and interior
    vertex.  A cell is prod_p (1 + gamma chi_reg(hol_p)), in plaquette order,
    masked by a(away) = g a(toward) g^{-1} on every region edge, which fixes the
    interior vertices: a row's running sum in C order adds its unmasked cells in
    the order of the interior edge assignments, as the enumeration does."""
    G, n, cls, lat = bb.group, bb.n, bb.cls, bb.region.lattice
    free = [*cls.interior_edges, *cls.interior_vertices]
    require_fits((2, len(subgroup)) + (n,) * len(free))
    weight = 1.0 + bb.gamma * np.array([G.regular_character(h) for h in G.elements()])
    label = dict(g_phys)  # edge or vertex -> its group element, an axis where free
    values = bb._anchor_values(np.asarray(words)[:, None], np.array(subgroup).T)  # [v, anchor tuple]
    label.update(zip(bb.boundary_vertices, values.reshape(values.shape + (1,) * len(free))))
    for i, x in enumerate(free):
        label[x] = np.arange(n).reshape((n,) + (1,) * (len(free) - 1 - i))
    cells = np.ones((n,) * len(free))
    for p in bb.region.plaquettes():
        loop = 0
        for e, sign in lat.edges_of_plaquette(p):
            loop = G.mul[loop, label[e] if sign > 0 else G.inv[label[e]]]
        cells *= weight[loop]
    cells = np.repeat(cells[None], len(subgroup), axis=0)
    for e in cls.edges:
        away, toward = lat.vertices_of_edge(e)
        cells *= label[away] == G.conj(label[e], label[toward])
    return np.cumsum(cells.reshape(len(subgroup), -1), axis=1)[:, -1].tolist()


def consistent_vertex_values(group, lat, cls, g_all, values) -> bool:
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


def holonomy_walk(bb: BlockBoundary, f_hat) -> tuple[tuple[int, ...], list[int]]:
    """`BlockBoundary._fold` for one labelling, one scalar step at a time: the
    holonomy of the reduced labels f_hat around each boundary component (the
    product of the step factors along its walk from the anchor, each the label or
    its inverse) and the running word u_v at each boundary vertex (1 at the
    anchors)."""
    G = bb.group
    hols, words = [], [0] * len(bb.boundary_vertices)
    for walk in bb._walks:
        cur = 0
        for i, inverted, slot in walk:
            g = int(f_hat[i])
            cur = int(G.mul[G.inv[g] if inverted else g, cur])
            if slot is not None:
                words[slot] = cur
        hols.append(cur)
    return tuple(hols), words


def holonomy_key(bb: BlockBoundary, hols: tuple[int, ...]) -> int:
    """The holonomy tuple as one base-|G| number, the first component's digit leading."""
    key = 0
    for h in hols:
        key = key * bb.n + h
    return key


def first_labelling_inputs(bb: BlockBoundary, key: int) -> tuple[dict[Edge, int], list[int]]:
    """(physical labels, vertex words) of the first labelling with holonomy key `key`,
    where `BlockBoundary.interior_sum` reads the key's sums. A physical label is the
    reduced one, inverted where the reduced label is gamma = g^{-1}."""
    f, ne = bb._first[key], len(bb.boundary_edges)
    f_hat = [f // bb.n ** (ne - 1 - i) % bb.n for i in range(ne)]
    g_phys = {e: bb.group.inv[g] if bb.cls.gamma_inverted[e] else g for e, g in zip(bb.boundary_edges, f_hat)}
    return g_phys, holonomy_walk(bb, f_hat)[1]


def labellings(bb: BlockBoundary):
    """Every reduced labelling f_hat of the boundary edges, in row-major order."""
    return itertools.product(range(bb.n), repeat=len(bb.boundary_edges))


def group_function_matrix_oracle(bb: BlockBoundary, func) -> sp.csr_matrix:
    """`BlockBoundary.group_function_matrix` one labelling and one anchor at a time:
    for each f in row-major order, the scalar walk gives its holonomies and vertex
    words, its block (built by its index on the first labelling of its holonomies)
    gives func(m)'s identity column d, and each anchor tuple with d_a != 0 adds d_a
    at (f, h a(v)) x (f, h) for every chain state h; the entries are sorted by
    scipy's COO to CSR conversion."""
    G = bb.group
    n, ne, nv = bb.n, len(bb.boundary_edges), len(bb.boundary_vertices)
    chain_dim = n**nv
    base_idx = np.arange(chain_dim)
    digits = np.indices((n,) * nv).reshape(nv, chain_dim)  # h_v of each chain basis state
    strides = n ** np.arange(nv - 1, -1, -1)
    ident = (0,) * len(bb._walks)
    weights = {}  # holonomy tuple -> (subgroup, func(m)'s identity column)
    rows, cols, vals = [], [], []
    for k, f_hat in enumerate(labellings(bb)):
        key, words = holonomy_walk(bb, f_hat)
        if key not in weights:
            blk = bb.block(k)
            vecs = blk.vecs[:, blk.kept]
            weights[key] = (blk.subgroup, vecs @ (func(blk.vals[blk.kept]) * vecs[blk.subgroup.index(ident)]))
        subgroup, w = weights[key]
        offset = k * chain_dim
        for anchors, d in zip(subgroup, w):
            if d == 0.0:
                continue
            value = bb._anchor_values(words, anchors)
            rows.append(offset + strides @ G.mul[digits, value[:, None]])  # h -> h a(v) per vertex
            cols.append(offset + base_idx)
            vals.append(np.full(chain_dim, d))
    dim = n ** (ne + nv)
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)).tocsr()


def summaries_per_labelling(bb: BlockBoundary) -> tuple[int, tuple[float, float]]:
    """`BlockBoundary.rank` and `.support_norms` read block by block over every
    labelling f in row-major order, not once per holonomy key: the rank sums each
    f's kept modes, and the norms take their maxima over every f."""
    chain_dim = bb.n ** len(bb.boundary_vertices)
    rank = sum(chain_dim // len(blk.subgroup) * blk.n_kept for blk in map(bb.block, range(bb.n_labellings)))
    worst_a = worst_b = 0.0
    for f in range(bb.n_labellings):
        a, b = bb.block(f).support
        worst_a, worst_b = max(worst_a, a), max(worst_b, b)
    return rank, (worst_a, worst_b)


# -- dense single-edge boundary states ------------------------------------------------


def leading_term_edge(group: FiniteGroup) -> np.ndarray:
    """The slim leading-term projector of a single edge: Delta x Delta x phi_1 x phi_1."""
    d = delta_projector(group)
    p = phi_operator(group, 0)
    return kron(d, d, p, p)


def boundary_state_edge(group: FiniteGroup, beta: float, slim: bool = True, orientation: str = VERTICAL) -> np.ndarray:
    """Dense boundary state of a single edge on (l2(G) x l2(G))^{x4}.

    Pair order matches the edge tensor sides: (west, east, top, bottom) for a
    vertical edge, (north, south, east, west) for a horizontal one; in both
    cases (psi_g, psi_{g^-1}, phi_a, phi_b) with a = g b g^{-1}.
    """
    G = group
    n2 = group.order**2
    require_fits((n2**4, n2**4))
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
    wq = weight_plaq(group, beta)
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


# -- PEPS tensors and region maps -----------------------------------------------------


def weight_star(group: FiniteGroup, beta: float) -> np.ndarray:
    """Diagonal eighth-power weight (1+gamma)^{1/8} |1><1| + gamma^{1/8} sum_{g!=1} |g><g|."""
    q = gamma_beta(beta / 2, group.order)
    diag = np.full(group.order, q ** (1 / 8) if q > 0 else 0.0)
    diag[0] = (1 + q) ** (1 / 8)
    return np.diag(diag)


def edge_tensor_from_quarters(group: FiniteGroup, beta: float, orientation: str, variant: str = "slim") -> np.ndarray:
    """Independent route: compose the four per-operator quarter tensors on one edge.

    Plaquette quarters are applied before star quarters (the fixed contraction
    order); returns an array with the same leg layout as `edge_tensor`.
    """
    n = group.order
    ws = star_leg_weights(group, beta, power=1 / 8) if variant == "full" else np.ones(n)
    wp = weight_plaq(group, beta) if variant == "full" else np.eye(n)

    def lmat(g):
        return group.left_regular_matrix(g)

    # physical operator indexed [out, in], virtual pair [o, i] per quarter
    plaq_a = np.zeros((n, n, n, n))  # L^g side
    plaq_b = np.zeros((n, n, n, n))  # L^{g^-1} side
    star_away = np.zeros((n, n, n, n))
    star_toward = np.zeros((n, n, n, n))
    for g in range(n):
        proj = np.zeros((n, n))
        proj[g, g] = 1.0
        plaq_a[:, :] += np.einsum("pq,oi->pqoi", proj, wp @ lmat(g) @ wp)
        plaq_b[:, :] += np.einsum("pq,oi->pqoi", proj, wp @ lmat(group.inv[g]) @ wp)
        tg = lmat(g)  # away: h -> g h
        tg_t = np.zeros((n, n))
        tg_t[group.mul[np.arange(n), group.inv[g]], np.arange(n)] = 1.0  # toward: h -> h g^-1
        wdot = np.zeros((n, n))
        wdot[g, g] = ws[g] ** 2
        star_away += np.einsum("pq,oi->pqoi", tg, wdot)
        star_toward += np.einsum("pq,oi->pqoi", tg_t, wdot)
    # compose physical ops: star_away . star_toward . plaq_a . plaq_b
    comp = np.einsum("pqAB,qrCD,rsEF,stGH->ptABCDEFGH", star_away, star_toward, plaq_a, plaq_b)
    # purify the physical operator: |out><in| -> |out>|in>, then order legs as edge_tensor:
    # (ket, pur, plaq_a pair, plaq_b pair, star_away pair, star_toward pair)
    comp = comp.transpose(0, 1, 6, 7, 8, 9, 2, 3, 4, 5)
    return comp


def _phys_legs(net: RegionNetwork) -> list:
    return [("ket", i) for i in range(len(net.edges))] + [("pur", i) for i in range(len(net.edges))]


def _red_legs(net: RegionNetwork) -> list:
    return [("red", "e", e) for e in net.cls.boundary_edges] + [("red", "v", v) for v in net.cls.boundary_vertices]


def paired_network(net: RegionNetwork) -> tuple[list, dict]:
    """The network of `net`'s region on the dense (n,)*10 edge tensors, with every
    leg named here and each star pair kept as its (out, in) legs.

    Edge i of `net.edges` holds ("ket", i), ("pur", i) and (i, side, direction)
    for the (out, in) pair of each side, `PLAQ_SIDES` then `STAR_SIDES`, as in
    `edge_tensor`. Around each plaquette of the region the pairs facing it are
    bonded edge to edge, the out-leg of one to the in-leg of the next,
    counterclockwise from the top edge. Around each vertex the star pairs are
    bonded the same way in the cyclic order of `edges_of_star`: a closed star
    is a loop, an open one a chain that starts after a gap in the ring. Returns
    the (data, legs) nodes and the open ends: per dangling edge the (out, in)
    pair facing the outside plaquette, per dangling vertex its chain's (first
    in, last out).
    """
    lat = net.lattice
    pos = {e: i for i, e in enumerate(net.edges)}
    bond, ends = {}, {}

    def plaq_leg(e: Edge, p, direction: str) -> tuple:
        return (pos[e], PLAQ_SIDES[e.orientation][lat.plaquettes_of_edge(e).index(p)], direction)

    def star_leg(e: Edge, v, direction: str) -> tuple:
        return (pos[e], STAR_SIDES[e.orientation][lat.vertices_of_edge(e).index(v)], direction)

    for p in net.region.plaquettes():
        ring = [e for e, _ in lat.edges_of_plaquette(p)]
        for cur, nxt in zip(ring, ring[1:] + ring[:1]):
            a, b = plaq_leg(cur, p, "out"), plaq_leg(nxt, p, "in")
            bond[a] = bond[b] = ("plaquette bond", a, b)
    for e in net.cls.boundary_edges:
        # the north/west plaquette is inside where gamma is inverted: the pair faces south/east
        side = PLAQ_SIDES[e.orientation][net.cls.gamma_inverted[e]]
        ends[e] = ((pos[e], side, "out"), (pos[e], side, "in"))
    for v in net.cls.vertices:
        ring = [e for e, _ in lat.edges_of_star(v)]
        start = next((i for i in range(4) if ring[i] in pos and ring[i - 1] not in pos), 0)
        chain = [e for e in ring[start:] + ring[:start] if e in pos]
        closed = len(chain) == 4
        for cur, nxt in zip(chain, chain[1:] + chain[:1] * closed):
            a, b = star_leg(cur, v, "out"), star_leg(nxt, v, "in")
            bond[a] = bond[b] = ("star bond", a, b)
        if not closed:
            ends[v] = (star_leg(chain[0], v, "in"), star_leg(chain[-1], v, "out"))
    nodes = []
    for e, i in pos.items():
        pairs = [(i, side, d) for side in PLAQ_SIDES[e.orientation] + STAR_SIDES[e.orientation] for d in ("out", "in")]
        nodes.append((edge_tensor(net.group, net.beta), [("ket", i), ("pur", i)] + [bond.get(leg, leg) for leg in pairs]))
    return nodes, ends


def reduction_nodes(net: RegionNetwork, ends: dict) -> list:
    """3-leg reduction tensors for every open end of `paired_network`, with the
    inverse boundary weight on the reduced leg: |L^gamma> / sqrt(|G|) times
    (wp wp)^{-1} per edge pair, delta(in = out = h) times the star weight to the
    power -m/4 per vertex chain."""
    group, n = net.group, net.group.order
    idx = np.arange(n)
    psi = np.zeros((n, n, n))  # [out, in, gamma]
    for gam in range(n):
        psi[group.mul[gam, idx], idx, gam] = 1.0 / np.sqrt(n)
    wp = weight_plaq(group, net.beta)
    psi = psi @ np.linalg.inv(wp @ wp)
    nodes = [(psi, [*ends[e], ("red", "e", e)]) for e in net.cls.boundary_edges]
    for v in net.cls.boundary_vertices:
        phi = np.zeros((n, n, n))  # [in_first, out_last, h]
        phi[idx, idx, idx] = star_leg_weights(group, net.beta, power=-net.cls.vertex_multiplicity[v] / 4)
        nodes.append((phi, [*ends[v], ("red", "v", v)]))
    return nodes


def v_matrix(net: RegionNetwork) -> np.ndarray:
    """Unreduced PEPS map on raw dangling legs ((out,in) per pair), or the torus vector,
    from the paired network."""
    nodes, ends = paired_network(net)
    raw = [leg for e in net.cls.boundary_edges for leg in ends[e]]
    raw += [leg for v in net.cls.boundary_vertices for leg in ends[v]]
    require_fits((net.phys_dim, net.group.order ** len(raw)))
    return contract_nodes(nodes, _phys_legs(net) + raw).reshape(net.phys_dim, -1)


def contract_region(model: QuantumDoubleModel, region: Region, beta: float):
    """V_R as a dense matrix (or the contracted vector on the torus)."""
    net = RegionNetwork(model, region, beta)
    if region.kind == TORUS:
        return v_matrix(net).reshape(net.phys_dim)
    return v_matrix(net)


# -- contraction orders ----------------------------------------------------------------

# What one written entry costs in `contraction_order`, in multiply-adds: the "combo"
# cost of opt_einsum (Smith & Gray, JOSS 3(26):753, 2018) with its default factor.
WRITE_COST = 64


def contraction_order(nodes: list) -> list[tuple[int, int]]:
    """The cheapest pairwise order of (data, legs) nodes where each leg has one holder
    (an output leg) or two (a bond, summed when its holders merge).

    Step k merges two nodes into node len(nodes) + k, at a cost of its multiply-adds,
    the product of the dims of every leg of either operand, plus WRITE_COST per entry
    written. The dynamic program runs over the connected subsets, smallest first,
    and splits each into two connected parts that share a leg in every way
    (Pfeifer, Haegeman & Verstraete, PRE 90, 033315, 2014); the open legs of a
    subset are the XOR of its nodes' legs. Connected components join last, by
    outer products.
    """
    n = len(nodes)
    bit, by_dim, held, holders = {}, {}, [], {}
    for data, legs in nodes:
        mask = 0
        for leg, d in zip(legs, data.shape):
            b = bit.setdefault(leg, 1 << len(bit))
            by_dim[d] = by_dim.get(d, 0) | b
            holders[leg] = holders.get(leg, 0) + 1
            mask |= b
        held.append(mask)
    if max(holders.values(), default=0) > 2:
        raise ValueError("each leg needs at most two holders")
    volume = lambda mask: math.prod(d ** (mask & bits).bit_count() for d, bits in by_dim.items())
    full = (1 << n) - 1
    open_legs = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        open_legs[s] = open_legs[s ^ low] ^ held[low.bit_length() - 1]
    cost = {1 << i: 0 for i in range(n)}  # one entry per connected subset
    split = {}  # the part holding the lowest node, in the cheapest split
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        best, written = math.inf, WRITE_COST * volume(open_legs[s])
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            a, b = sub | low, rest ^ sub
            if a in cost and b in cost and open_legs[a] & open_legs[b]:
                c = cost[a] + cost[b] + volume(open_legs[a] | open_legs[b]) + written
                if c < best:
                    best, split[s] = c, a
        if best < math.inf:
            cost[s] = best

    steps: list[tuple[int, int]] = []

    def emit(s: int) -> int:
        if not s & (s - 1):
            return s.bit_length() - 1
        steps.append((emit(split[s]), emit(s ^ split[s])))
        return n + len(steps) - 1

    left, acc = full, None
    while left:
        part = max((s for s in cost if s & left & -left and not s & ~left), key=int.bit_count)
        left ^= part
        root = emit(part)
        if acc is not None:
            steps.append((acc, root))
            root = n + len(steps) - 1
        acc = root
    return steps


def _tensordot(x: tuple, y: tuple) -> tuple:
    (xd, xl), (yd, yl) = x, y
    shared = [leg for leg in yl if leg in xl]
    data = np.tensordot(xd, yd, axes=([xl.index(leg) for leg in shared], [yl.index(leg) for leg in shared]))
    return data, [leg for leg in xl if leg not in shared] + [leg for leg in yl if leg not in shared]


def contract_nodes(nodes: list, out_legs: list) -> np.ndarray:
    """(data, legs) nodes contracted with `np.tensordot` in the order of
    `contraction_order`, transposed to `out_legs`."""
    pool = list(nodes)
    for a, b in contraction_order(nodes):
        pool.append(_tensordot(pool[a], pool[b]))
        pool[a] = pool[b] = None
    data, legs = pool[-1]
    return data.transpose([legs.index(leg) for leg in out_legs])


def _reduced_contraction(net: RegionNetwork, start: tuple, out_legs: list) -> np.ndarray:
    """The paired network's edge tensors, its reduction nodes and the input node
    `start`: each reduction node is contracted into the edge holding its last leg,
    then the rest by `contract_nodes`."""
    pool, ends = paired_network(net)
    for data, legs in reduction_nodes(net, ends):
        i = max(leg[0] for leg in legs if leg[0] != "red")
        pool[i] = _tensordot(pool[i], (data, legs))
    return contract_nodes(pool + [start], out_legs)


def t_apply_oracle(net: RegionNetwork, y: np.ndarray) -> np.ndarray:
    """T y for a vector or a block of columns, through `_reduced_contraction`."""
    cols = y.reshape(net.reduced_dim, -1)
    data = cols.reshape((net.group.order,) * len(_red_legs(net)) + (cols.shape[1],))
    out = _reduced_contraction(net, (data, _red_legs(net) + [("batch",)]), _phys_legs(net) + [("batch",)])
    return out.reshape((net.phys_dim,) + y.shape[1:])


def t_dagger_apply_oracle(net: RegionNetwork, x: np.ndarray) -> np.ndarray:
    """T^dagger x for a vector or a block of columns, through `_reduced_contraction`."""
    cols = x.conj().reshape(net.phys_dim, -1)
    data = cols.reshape((net.group.order,) * (2 * len(net.edges)) + (cols.shape[1],))
    out = _reduced_contraction(net, (data, _phys_legs(net) + [("batch",)]), _red_legs(net) + [("batch",)])
    return out.conj().reshape((net.reduced_dim,) + x.shape[1:])


class _ReversedPlaquetteWords:
    """A lattice that lists the edges of each plaquette in reverse order."""

    def __init__(self, lattice: TorusLattice):
        self._lattice = lattice

    def __getattr__(self, name):
        return getattr(self._lattice, name)

    def edges_of_plaquette(self, p):
        return self._lattice.edges_of_plaquette(p)[::-1]


def reversed_word_scatter(net: RegionNetwork):
    """The sparse T of `net`'s region built with each plaquette word folded in
    reverse order: a control. On a non-abelian group the reversed holonomy is
    another group element, so this T is no longer the reduced boundary map."""
    control = RegionNetwork(net.model, net.region, net.beta)
    control.lattice = _ReversedPlaquetteWords(net.lattice)
    return control.t_sparse


def _broadcast_on(small: np.ndarray, axes: list[int], ndim: int) -> np.ndarray:
    """`small`, whose k-th axis is axis axes[k] of an `ndim`-axis array, shaped to broadcast against it."""
    shape = [1] * ndim
    for a in axes:
        shape[a] = small.shape[0]
    return small.transpose(np.argsort(axes)).reshape(shape)


def t_scatter_oracle(net: RegionNetwork) -> sp.csr_matrix:
    """The sparse T of `net` as a COO scatter over the configuration axes in their
    natural order (the region edges, then `cls.vertices`), with each entry's row,
    column and value computed on its own and the entries sorted, and summed where
    configurations meet, by scipy's COO to CSR conversion."""
    G, lat, cls = net.group, net.lattice, net.cls
    n, mul, inv = G.order, G.mul, G.inv
    n_edges = len(net.edges)
    axis = {e: i for i, e in enumerate(net.edges)}
    axis.update({v: n_edges + i for i, v in enumerate(cls.vertices)})
    ndim = len(axis)
    shape = (n,) * ndim
    require_fits(shape, np.int64)
    g = np.arange(n)
    ket = mul[mul.T[:, :, None], inv]  # [g, h, k] -> h g k^-1
    row = np.zeros(shape, np.int64)
    for i, e in enumerate(net.edges):
        away, toward = lat.vertices_of_edge(e)
        digits = ket * n ** (2 * n_edges - 1 - i) + g[:, None, None] * n ** (n_edges - 1 - i)
        row += _broadcast_on(digits, [i, axis[away], axis[toward]], ndim)
    col = np.zeros(shape, np.int64)
    stride = net.reduced_dim
    for e in net.cls.boundary_edges:
        stride //= n
        col += _broadcast_on((inv if cls.gamma_inverted[e] else g) * stride, [axis[e]], ndim)
    for v in net.cls.boundary_vertices:
        stride //= n
        col += _broadcast_on(g * stride, [axis[v]], ndim)
    q = gamma_beta(net.beta / 2, n)
    value = np.full(shape, float(n) ** (len(net.cls.boundary_edges) / 2))
    for v in cls.interior_vertices:
        value *= _broadcast_on(q + (g == 0), [axis[v]], ndim)
    for p in net.region.plaquettes():
        word, axes = np.zeros((), np.int64), []
        for e, sign in lat.edges_of_plaquette(p):
            word = mul[word[..., None], g if sign > 0 else inv]
            axes.append(axis[e])
        value *= _broadcast_on(1.0 + q * n * (word == 0), axes, ndim)
    return sp.csr_matrix((value.ravel(), (row.ravel(), col.ravel())), shape=(net.phys_dim, net.reduced_dim))


def region_projector_w(model: QuantumDoubleModel, region: Region, beta: float) -> sp.csc_matrix:
    """W = T (kappa S~)^{-1/2}, T times the half-inverse of its Gram on the kept
    modes, as one sparse product: the region projector is P = W W^T, a second
    construction of the P that `RegionProjector` applies as T G^+ T^T."""
    bb = BlockBoundary(model.group, region, beta)
    halfinv = bb.group_function_matrix(lambda v: (bb.kappa * v) ** -0.5)
    return RegionNetwork(model, region, beta).t_sparse @ halfinv


def embedded_apply_by_transposes(emb: EmbeddedProjector, x: np.ndarray) -> np.ndarray:
    """P x 1 on x through x's whole matrix view: two transposed copies of x bring the
    region's legs first (`linalg.apply_on_sites`) and P's `apply` runs on every row,
    the support rows and the rows where P is zero alike."""
    inner = [emb.ambient.index(e) for e in emb.proj.edges]
    return apply_on_sites(x, emb.proj.model.local_dim, len(emb.ambient), inner, emb.proj.apply)


# -- the Davies generator on dense operators -------------------------------------------


def devectorize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise LinalgError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d)


def iota(q: np.ndarray, rho_sqrt: np.ndarray) -> np.ndarray:
    return vectorize(q @ rho_sqrt)


def iota_inverse(v: np.ndarray, rho_sqrt_inv: np.ndarray) -> np.ndarray:
    return devectorize(v) @ rho_sqrt_inv


def kernel_projector_oracle(model: QuantumDoubleModel, rho: np.ndarray, rest) -> np.ndarray:
    """The orthogonal projector onto span{iota(E_ij x 1)} over the matrix units E_ij of
    the edges at positions `rest`, embedded digit by digit."""
    d = model.local_dim ** len(rest)
    rho_sqrt = matrix_power_hermitian(rho, 0.5)
    units = np.eye(d * d).reshape(d * d, d, d)
    embedded = [embed_by_digits(u, rest, model.local_dim, model.n_edges) for u in units]
    q = np.linalg.qr(np.column_stack([iota(u, rho_sqrt) for u in embedded]))[0]
    return q @ dagger(q)


def apply_dissipator(gen: DaviesGenerator, q: np.ndarray, edges=None) -> np.ndarray:
    """L(Q) = sum_e sum_{alpha, w} g(w) ( S^dag(w) [Q, S(w)] + [S^dag(w), Q] S(w) ) / 2."""
    model = gen.model
    edges = model.edge_list if edges is None else edges
    out = np.zeros_like(q, dtype=complex)
    for e in edges:
        dec = gen.jumps[e]
        for comps in dec.components:
            for w, s_local in comps.items():
                g = gen.rates(w)
                s_w = model._embed_multi(list(dec.support), s_local)
                s_d = dagger(s_w)
                out += 0.5 * g * (s_d @ (q @ s_w - s_w @ q) + (s_d @ q - q @ s_d) @ s_w)
    return out


def local_term_sum(model: QuantumDoubleModel, e: Edge) -> tuple[QuantumDoubleModel, np.ndarray]:
    """The edge's support patch and the sum of its star and plaquette terms on it."""
    sub, stars, plaqs = _local_patch(model, e)
    total = np.zeros((sub.dim, sub.dim))
    for v in stars:
        total += sub.star_operator(v, embed=True)
    for p in plaqs:
        total += sub.plaquette_operator(p, embed=True)
    return sub, total


def fourier_components_eigh(model: QuantumDoubleModel, e: Edge, s_op: np.ndarray) -> dict:
    """{w: S(w)} from the eigenprojectors of the local term sum, its spectrum rounded to integers."""
    sub, total = local_term_sum(model, e)
    s_emb = sub._embed_multi([e], s_op)
    vals, vecs = hermitian_spectrum(total)
    ks = np.round(vals).astype(int)
    assert np.abs(vals - ks).max() < 1e-9, "local term sum is not integer-spectral"
    projs = {k: vecs[:, ks == k] @ dagger(vecs[:, ks == k]) for k in set(ks.tolist())}
    return {
        w: sum((projs[k + w] @ s_emb @ p for k, p in projs.items() if k + w in projs), np.zeros_like(s_emb))
        for w in BOHR_FREQUENCIES
    }


def local_generator_by_stack(gen: DaviesGenerator, dec: JumpDecomposition, d: int) -> sp.csr_matrix:
    """L_e = B^dag B in CSR, on the edge's support of dimension d: B stacks d^2 rows
    per jump (w, R), R = S(w) c^* the real form of S(w), holding
    sqrt(g(w)/2) (c (1 x R^T) - R x 1) written entry by entry. The product stores the
    entries where the Dirichlet-form terms cancel as roundoff."""
    jumps = [(w, _phase_split(s)[1]) for comps in dec.components for w, s in comps.items()]
    a = np.arange(d)[:, None]
    rows, cols, vals = [], [], []
    for j, (w, r) in enumerate(jumps):
        amp = np.sqrt(0.5 * gen.rates(w))
        c = float(np.exp(-gen.beta * w / 2.0))
        p, k = np.nonzero(r)
        v = np.broadcast_to(r[p, k], (d, p.size))
        rows += [((j * d + a) * d + k).ravel(), ((j * d + p) * d + a).ravel()]  # c (1 x R^T), then R x 1
        cols += [(a * d + p).ravel(), (k * d + a).ravel()]
        vals += [(amp * c * v).ravel(), (-amp * v).ravel()]
    b = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(len(jumps) * d * d, d * d)
    )
    return (b.conj().T @ b).tocsr()


def embedded_local_generator_per_edge(gen: DaviesGenerator, e: Edge) -> sp.csr_matrix:
    """The edge's L_e on the doubled space, built from the edge's own jumps: its
    `fourier_components` and `_local_generator` on its own support, in that
    support's order, with no class shared with another edge."""
    model = gen.model
    dec = fourier_components(model, e, gen.coupling.operators)
    gen_e = _local_generator(gen, dec, model.local_dim ** len(dec.support))
    return _embedded(model, [model.edge_pos[f] for f in dec.support], gen_e)


def davies_gap_arpack(htilde: HTilde, tfd: np.ndarray, seed: int = 0, tol: float = 1e-8) -> float:
    """The Davies gap by one deflated ARPACK solve over the whole doubled space, each
    matvec one product with H~'s CSR matrix, with no split into connected blocks."""
    vals = lowest_eigs_matrix_free(
        LinearMapHandle(dim=htilde.dim, apply=lambda x: htilde.matrix @ x), k=1, seed=seed, tol=tol, deflate=[tfd],
        shift=htilde.norm_bound,
    )
    return float(vals[0])


def c2_explicit_basis(coupling: CouplingSet) -> float:
    """min of sum_a ||[X, S_a]||^2 over traceless unit X, compressed onto the orthonormal
    traceless basis E_gh (g != h) and diag(1, ..., 1, -l, 0, ...) / sqrt(l (l + 1))."""
    d = coupling.operators[0].shape[0]
    basis = []
    for g, h in itertools.permutations(range(d), 2):
        m = np.zeros((d, d))
        m[g, h] = 1.0
        basis.append(m)
    for ell in range(1, d):
        diag = np.zeros(d)
        diag[:ell] = 1.0
        diag[ell] = -ell
        basis.append(np.diag(diag) / np.sqrt(ell * (ell + 1)))
    comms = [[b @ s - s @ b for s in coupling.operators] for b in basis]
    gram = np.array([[sum(np.vdot(x, y) for x, y in zip(ca, cb)) for cb in comms] for ca in comms])
    return float(np.linalg.eigvalsh(gram)[0])


# -- region families ------------------------------------------------------------------


def enumerate_family(lattice: TorusLattice, kind: str, r: int | None = None) -> list[Region]:
    """The region families: the torus, all cylinders, or rectangles with sides in [2, r]."""
    N = lattice.N
    if kind == "torus":
        return [Region(lattice, TORUS)]
    if kind == "cylinders":
        out = []
        for start in range(N):
            for width in range(2, N):
                out.append(Region(lattice, CYL_H, y0=start, b=width))
                out.append(Region(lattice, CYL_V, x0=start, a=width))
        return out
    if kind == "rectangles":
        if r is None or r < 2:
            raise GeometryError("rectangle family needs a max side r >= 2")
        r = min(r, N - 1)
        out = []
        for y0 in range(N):
            for x0 in range(N):
                for a in range(2, r + 1):
                    for b in range(2, r + 1):
                        out.append(Region(lattice, RECT, x0=x0, a=a, y0=y0, b=b))
        return out
    raise GeometryError(f"unknown family kind {kind!r}")


# -- operators on a subset of sites ------------------------------------------------------


def embed_by_digits(op: np.ndarray, support, local_dim: int, n_sites: int) -> np.ndarray:
    """op on the sites `support` (in that order) times the identity on the others, as a
    matrix on all `n_sites` sites, entry by entry from the base-`local_dim` digits of the
    row and column indices (site 0 the most significant)."""
    dim = local_dim**n_sites
    digits = np.array([[(i // local_dim ** (n_sites - 1 - s)) % local_dim for s in range(n_sites)]
                       for i in range(dim)], dtype=np.int64)

    def index(sites):
        return digits[:, sites] @ (local_dim ** np.arange(len(sites), dtype=np.int64)[::-1])

    sup = index(list(support))
    other = index([s for s in range(n_sites) if s not in support])
    return op[sup[:, None], sup[None, :]] * (other[:, None] == other[None, :])


# -- dense handles and random matrices -----------------------------------------------


def matrix_exp_hermitian(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{tM} by spectral decomposition; exact on projectors."""
    vals, vecs = hermitian_spectrum(m)
    return (vecs * np.exp(t * vals)) @ dagger(vecs)


def handle_from_dense(m: np.ndarray) -> LinearMapHandle:
    m = np.asarray(m)
    return LinearMapHandle(dim=m.shape[0], apply=lambda x: m @ x)


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + dagger(m)) / 2


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def block_diagonal(sizes, seed, dtype):
    """A random Hermitian matrix of dense blocks of the given sizes, each shifted by a
    random multiple of the identity so that the lowest eigenvalues come from several
    blocks, with its indices randomly permuted: (CSR matrix, dense copy, the block of
    each index)."""
    rng = np.random.default_rng(seed)
    blocks = [random_hermitian(s, seed + i) + rng.uniform(-8.0, 8.0) * np.eye(s) for i, s in enumerate(sizes)]
    if dtype is float:
        blocks = [b.real for b in blocks]
    perm = rng.permutation(sum(sizes))
    m = sp.block_diag(blocks, format="csr")[perm][:, perm]
    return m, m.toarray(), np.repeat(np.arange(len(sizes)), sizes)[perm]
