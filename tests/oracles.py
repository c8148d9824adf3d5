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

from qdlab.boundary import BoundaryError, reduced_character
from qdlab.davies import BOHR_FREQUENCIES, CouplingSet, DaviesGenerator, _local_patch
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
    TorusLattice,
    classify_region,
)
from qdlab.linalg import (
    LinalgError, LinearMapHandle, dagger, hermitian_spectrum, kron, matrix_power_hermitian, require_fits, vectorize,
)
from qdlab.peps import WRITE_COST, RegionNetwork, plan_contraction, star_leg_weights, weight_plaq
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


def _raw_dangling_legs(net: RegionNetwork) -> list:
    out = []
    for e in net.reduced.edges:
        out += list(net.dangling_edge_pairs[e])
    for v in net.reduced.vertices:
        out += list(net.dangling_vertex_pairs[v])
    return out


def v_matrix(net: RegionNetwork) -> np.ndarray:
    """Unreduced PEPS map on raw dangling legs ((out,in) per pair), or the torus vector."""
    n_dangle = 2 * (len(net.reduced.edges) + len(net.reduced.vertices))
    bdry = net.group.order**n_dangle
    require_fits((net.phys_dim, bdry))
    nodes = [net._edge_array(e) for e in net.edges]
    out = net._contract(nodes, net._phys_legs() + _raw_dangling_legs(net))
    return out.reshape(net.phys_dim, bdry)


def contract_region(model: QuantumDoubleModel, region: Region, beta: float):
    """V_R as a dense matrix (or the contracted vector on the torus)."""
    net = RegionNetwork(model, region, beta)
    if region.kind == TORUS:
        return v_matrix(net).reshape(net.phys_dim)
    return v_matrix(net)


# -- contraction orders ----------------------------------------------------------------
# A node is a frozenset of (leg, dim); merging two nodes contracts the legs they share.


def _step_counts(x: frozenset, y: frozenset) -> tuple[int, int]:
    """(multiply-adds, output entries) of merging x and y: every leg of either once, and
    the legs in just one of them."""
    return math.prod(d for _, d in x | y), math.prod(d for _, d in x ^ y)


def _step_cost(x: frozenset, y: frozenset) -> int:
    multiply_adds, written = _step_counts(x, y)
    return multiply_adds + WRITE_COST * written


def plan_counts_oracle(nodes, steps) -> list[tuple[int, int]]:
    """(multiply-adds, output entries) of each step of the pairwise sequence `steps`;
    step k merges two nodes into node len(nodes) + k."""
    pool = list(nodes)
    counts = []
    for a, b in steps:
        counts.append(_step_counts(pool[a], pool[b]))
        pool.append(pool[a] ^ pool[b])
    return counts


def plan_cost_oracle(nodes, steps) -> int:
    """Cost of the pairwise sequence `steps` under the planner's rule."""
    return sum(m + WRITE_COST * w for m, w in plan_counts_oracle(nodes, steps))


def min_contraction_cost_oracle(nodes) -> int:
    """Least cost over every pairwise contraction tree, outer products included, by trying
    each pair at each step (for networks of up to about 7 nodes)."""
    if len(nodes) == 1:
        return 0
    return min(
        _step_cost(nodes[i], nodes[j])
        + min_contraction_cost_oracle([n for k, n in enumerate(nodes) if k not in (i, j)] + [nodes[i] ^ nodes[j]])
        for i, j in itertools.combinations(range(len(nodes)), 2)
    )


def _tensordot(x: tuple, y: tuple) -> tuple:
    (xd, xl), (yd, yl) = x, y
    shared = [leg for leg in yl if leg in xl]
    data = np.tensordot(xd, yd, axes=([xl.index(leg) for leg in shared], [yl.index(leg) for leg in shared]))
    return data, [leg for leg in xl if leg not in shared] + [leg for leg in yl if leg not in shared]


def _tensordot_contraction(net: RegionNetwork, start: tuple, out_legs: list) -> np.ndarray:
    """The network's edge tensors, its reduction nodes and the input node `start`,
    contracted with `np.tensordot`: each reduction node into the edge holding its
    last leg, then the bundles and `start` pairwise in the order
    `plan_contraction` gives; the result is transposed to `out_legs`."""
    pool = [net._edge_array(e) for e in net.edges]
    for data, legs in net._reduction_nodes():
        i = max(leg[0] for leg in legs if leg[0] != "red")
        pool[i] = _tensordot(pool[i], (data, legs))
    pool.append(start)
    for a, b in plan_contraction(tuple(frozenset(zip(legs, data.shape)) for data, legs in pool)):
        pool.append(_tensordot(pool[a], pool[b]))
    data, legs = pool[-1]
    return data.transpose([legs.index(leg) for leg in out_legs])


def t_apply_oracle(net: RegionNetwork, y: np.ndarray) -> np.ndarray:
    """T y for a vector or a block of columns, through `_tensordot_contraction`."""
    cols = y.reshape(net.reduced.dim, -1)
    data = cols.reshape(net.reduced.shape() + (cols.shape[1],))
    out = _tensordot_contraction(net, (data, net._red_legs() + [("batch",)]), net._phys_legs() + [("batch",)])
    return out.reshape((net.phys_dim,) + y.shape[1:])


def t_dagger_apply_oracle(net: RegionNetwork, x: np.ndarray) -> np.ndarray:
    """T^dagger x for a vector or a block of columns, through `_tensordot_contraction`."""
    cols = x.conj().reshape(net.phys_dim, -1)
    data = cols.reshape((net.group.order,) * (2 * len(net.edges)) + (cols.shape[1],))
    out = _tensordot_contraction(net, (data, net._phys_legs() + [("batch",)]), net._red_legs() + [("batch",)])
    return out.conj().reshape((net.reduced.dim,) + x.shape[1:])


def layout_copies_oracle(nodes: tuple, layouts: tuple, out_legs: tuple) -> list[int]:
    """Entries copied by each planned step under its layouts, then by the final
    arrangement into `out_legs`, replayed on leg orders alone.

    `nodes` holds each node's legs in memory order with their dims, as the keys of
    `RegionNetwork._layouts` do. An operand is copied when its legs, those of
    dimension 1 left out, are not in the order its step reads them in. Each
    layout is checked on the way: the view's shared legs are contiguous, the
    other operand has them at one end in the view's order, and the output
    holds the legs of the two that they do not share.
    """
    dims = {leg: d for node in nodes for leg, d in node}
    nontrivial = lambda order: [leg for leg in order if dims[leg] != 1]
    pool = [[leg for leg, _ in node] for node in nodes]
    copies = []
    for lay in layouts:
        view, other = pool[lay.view], pool[lay.other]
        assert set(lay.view_order) == set(view) and len(lay.view_order) == len(view)
        assert set(lay.other_order) == set(other) and len(lay.other_order) == len(other)
        v, c = nontrivial(lay.view_order), nontrivial(lay.other_order)
        shared = [leg for leg in v if leg in other]
        start = v.index(shared[0]) if shared else 0
        assert v[start : start + len(shared)] == shared
        assert c[: len(shared)] == shared or c[len(c) - len(shared) :] == shared
        assert set(lay.out_order) == set(view) ^ set(other)
        copies.append(sum(math.prod(dims[leg] for leg in order)
                          for now, order in ((view, lay.view_order), (other, lay.other_order))
                          if nontrivial(now) != nontrivial(order)))
        pool.append(list(lay.out_order))
    copies.append(math.prod(dims[leg] for leg in out_legs) if nontrivial(pool[-1]) != nontrivial(out_legs) else 0)
    return copies


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
