"""Independent dense and brute-force oracles the tests compare `qdlab` against.

None of these has a production caller: each rebuilds a quantity from its
definition (dense operators on l2(G) x l2(G), sums over every interior
extension, matrix elements one at a time) so that the structured code in
`qdlab.boundary` and `qdlab.peps` can be checked against it.
"""

from __future__ import annotations

import itertools

import numpy as np

from qdlab.boundary import BoundaryError, reduced_character
from qdlab.groups import FiniteGroup
from qdlab.lattice import VERTICAL, Edge, Region, classify_region
from qdlab.linalg import kron, require_fits
from qdlab.peps import star_leg_weights, weight_plaq
from qdlab.quantum_double import gamma_beta


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
