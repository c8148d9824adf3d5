"""Thermal PEPO/PEPS tensors for the quantum double model, and region contraction.

Leg conventions.  Each edge tensor has two physical legs (ket and purifier,
dimension |G| each) and four virtual *pairs*, one per side.  A pair is the
(out, in) index pair of the operator-valued loop passing through that side:

* vertical edge (points down):  plaquette pairs west `L^g` / east `L^{g^-1}`,
  star pairs top `|h><h|` (away vertex) / bottom `|k><k|` (toward vertex);
* horizontal edge (points left): plaquette pairs north `L^g` / south `L^{g^-1}`,
  star pairs east `|h><h|` / west `|k><k|`;

with the physical PEPO action |h g k^-1><g| (plaquette factors applied first).
Around a plaquette the loop composes counterclockwise from the top edge; around
a vertex the loop factors are diagonal, so their order is immaterial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .lattice import (
    HORIZONTAL,
    TORUS,
    VERTICAL,
    Edge,
    Region,
    RegionClassification,
    classify_region,
)
from . import linalg
from .quantum_double import QuantumDoubleModel, gamma_beta


# -- weights -------------------------------------------------------------------


@dataclass(frozen=True)
class WeightOperator:
    kind: str
    beta: float
    matrix: np.ndarray  # operator form on l2(G)

    @property
    def invertible(self) -> bool:
        return bool(np.linalg.matrix_rank(self.matrix) == self.matrix.shape[0])


def weight_star(group: FiniteGroup, beta: float) -> WeightOperator:
    """Diagonal eighth-power weight (1+gamma)^{1/8} |1><1| + gamma^{1/8} sum_{g!=1} |g><g|."""
    q = gamma_beta(beta / 2, group.order)
    diag = np.full(group.order, q ** (1 / 8) if q > 0 else 0.0)
    diag[0] = (1 + q) ** (1 / 8)
    return WeightOperator("star-weight", beta, np.diag(diag))


def weight_plaq(group: FiniteGroup, beta: float) -> WeightOperator:
    """(1+gamma)^{1/8} P_1 + gamma^{1/8} P_0 on l2(G)."""
    q = gamma_beta(beta / 2, group.order)
    p1, p0 = group.trivial_projector()
    mat = (1 + q) ** (1 / 8) * p1 + (q ** (1 / 8) if q > 0 else 0.0) * p0
    return WeightOperator("plaquette-weight", beta, mat)


def star_leg_weights(group: FiniteGroup, beta: float, power: float = 0.25) -> np.ndarray:
    """(delta_{h,1} + gamma_{beta/2})^power, the per-edge star-leg weight."""
    q = gamma_beta(beta / 2, group.order)
    w = np.full(group.order, q**power if q > 0 else 0.0)
    w[0] = (1 + q) ** power
    return w


# -- edge tensors ----------------------------------------------------------------

PLAQ_SIDES = {VERTICAL: ("west", "east"), HORIZONTAL: ("north", "south")}
STAR_SIDES = {VERTICAL: ("top", "bottom"), HORIZONTAL: ("east", "west")}


def side_order(orientation: str) -> tuple[str, ...]:
    return PLAQ_SIDES[orientation] + STAR_SIDES[orientation]


@dataclass(frozen=True)
class EdgeTensor:
    """Slim or full edge tensor with legs (ket, pur, then (out, in) per side)."""

    variant: str
    beta: float
    orientation: str
    sides: tuple[str, ...]
    data: np.ndarray  # shape (n, n) + (n, n) per side


def _edge_data(group: FiniteGroup, beta: float, variant: str) -> np.ndarray:
    """Entries of the edge tensor, written in place: one (n,)*10 array and no copy.

    The full variant carries wp on both legs of each plaquette pair, which makes
    the pair wp L^g wp, and ws on each of the four star legs, one scalar per
    (h, k).
    """
    n = group.order
    if variant == "full":
        wp = weight_plaq(group, beta).matrix
        ws = star_leg_weights(group, beta, power=1 / 8)
    else:
        wp, ws = np.eye(n), np.ones(n)
    data = np.zeros((n, n) + (n, n) * 4)
    for g in range(n):
        lg = wp @ group.left_regular_matrix(g) @ wp  # [out, in]
        lginv = wp @ group.left_regular_matrix(group.inv[g]) @ wp
        pair = np.multiply.outer(lg, lginv)
        for h in range(n):
            for k in range(n):
                phys = group.mul[group.mul[h, g], group.inv[k]]
                data[phys, g, :, :, :, :, h, h, k, k] += pair * (ws[h] * ws[h] * ws[k] * ws[k])
    return data


# Keyed by the group table's bytes, so equal groups share an entry and no group
# is handed another's data. The data does not depend on the edge orientation.
# Holds at most DENSE_BUDGET_BYTES in all; the oldest entries go first.
_EDGE_CACHE: dict = {}


def edge_tensor(group: FiniteGroup, beta: float, orientation: str, variant: str = "full") -> EdgeTensor:
    """The PEPS tensor of one edge; `variant` is 'slim' or 'full' (with weights)."""
    if variant not in ("slim", "full"):
        raise ValueError(f"unknown edge tensor variant {variant!r}")
    key = (group.mul.tobytes(), round(beta, 14), variant)
    if key in _EDGE_CACHE:
        data = _EDGE_CACHE[key]
    else:
        linalg.require_fits((group.order,) * 10)
        data = _edge_data(group, beta, variant)
        data.setflags(write=False)
        _EDGE_CACHE[key] = data
        while sum(a.nbytes for a in _EDGE_CACHE.values()) > linalg.DENSE_BUDGET_BYTES:
            del _EDGE_CACHE[next(iter(_EDGE_CACHE))]
    return EdgeTensor(variant, beta, orientation, side_order(orientation), data)


def edge_tensor_from_quarters(group: FiniteGroup, beta: float, orientation: str, variant: str = "slim") -> np.ndarray:
    """Independent route: compose the four per-operator quarter tensors on one edge.

    Plaquette quarters are applied before star quarters (the fixed contraction
    order); returns an array with the same leg layout as `edge_tensor`.
    """
    n = group.order
    ws = star_leg_weights(group, beta, power=1 / 8) if variant == "full" else np.ones(n)
    wp = weight_plaq(group, beta).matrix if variant == "full" else np.eye(n)

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


# -- region networks --------------------------------------------------------------

@dataclass
class ReducedBoundary:
    """Ordering and dimensions of the reduced (leading-term) boundary basis."""

    group: FiniteGroup
    edges: tuple[Edge, ...]
    vertices: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return self.group.order ** (len(self.edges) + len(self.vertices))

    def shape(self) -> tuple[int, ...]:
        n = self.group.order
        return (n,) * (len(self.edges) + len(self.vertices))


class RegionNetwork:
    """Tensor network of a region: builds V_R and the reduced boundary map T_R.

    The reduced map T feeds each dangling plaquette pair with |L^gamma> and each
    dangling vertex chain with |h, h>; its columns span Im(V_R) exactly (the
    boundary state is supported inside the leading-term product subspace).

    Every map contracts one node per edge (its tensor with the reduction nodes
    of its dangling pairs) and, for t_apply/t_dagger_apply, the input vector,
    pairwise in a greedy order (see `_contract`); each step is checked against
    the dense budget before it allocates.
    """

    def __init__(self, model: QuantumDoubleModel, region: Region, beta: float, variant: str = "full"):
        if model.edges is not None:
            raise ValueError("region networks live on the full torus model")
        self.model = model
        self.region = region
        self.beta = beta
        self.variant = variant
        self.group = model.group
        self.lattice = model.lattice
        self.cls: RegionClassification = classify_region(region)
        self.edges = list(self.cls.edges)
        self.edge_pos = {e: i for i, e in enumerate(self.edges)}
        self._build_graph()
        self._bond_of = {}
        for a, b in self.bonds:
            self._bond_of[a] = b
            self._bond_of[b] = a

    # -- graph construction ----------------------------------------------------

    def _pair_leg(self, e: Edge, side: str, direction: str) -> tuple:
        return (self.edge_pos[e], side, direction)

    def _facing_side(self, e: Edge, p: tuple[int, int]) -> str:
        north_or_west, south_or_east = self.lattice.plaquettes_of_edge(e)
        if e.orientation == HORIZONTAL:
            return "north" if p == north_or_west else "south"
        return "west" if p == north_or_west else "east"

    def _star_side(self, e: Edge, v: tuple[int, int]) -> str:
        away, toward = self.lattice.vertices_of_edge(e)
        if e.orientation == VERTICAL:
            return "top" if v == away else "bottom"
        return "east" if v == away else "west"

    def _build_graph(self):
        lat, region = self.lattice, self.region
        plaqs = set(region.plaquettes())
        edge_set = set(self.edges)
        self.bonds: list[tuple[tuple, tuple]] = []  # (out-leg, in-leg)
        self.dangling_edge_pairs: dict[Edge, tuple[tuple, tuple]] = {}
        self.dangling_vertex_pairs: dict[tuple[int, int], tuple[tuple, tuple]] = {}

        for p in plaqs:
            ring = lat.edges_of_plaquette(p)  # [(top,+),(left,+),(bottom,-),(right,-)]
            sides = [self._facing_side(e, p) for e, _ in ring]
            for i in range(4):
                e_cur, _ = ring[i]
                e_nxt, _ = ring[(i + 1) % 4]
                self.bonds.append(
                    (self._pair_leg(e_cur, sides[i], "out"), self._pair_leg(e_nxt, sides[(i + 1) % 4], "in"))
                )

        for e in self.cls.boundary_edges:
            # the dangling pair faces the outside plaquette: south/east when gamma is inverted
            side = PLAQ_SIDES[e.orientation][self.cls.gamma_inverted[e]]
            self.dangling_edge_pairs[e] = (self._pair_leg(e, side, "out"), self._pair_leg(e, side, "in"))

        for v in self.cls.vertices:
            ring = lat.edges_of_star(v)
            present = [(e, self._star_side(e, v)) for e, _ in ring if e in edge_set]
            m = len(present)
            if m == 4:
                for i in range(4):
                    e_cur, s_cur = present[i]
                    e_nxt, s_nxt = present[(i + 1) % 4]
                    self.bonds.append(
                        (self._pair_leg(e_cur, s_cur, "out"), self._pair_leg(e_nxt, s_nxt, "in"))
                    )
                continue
            # open chain: rotate the cyclic ring so it starts right after a gap
            flags = [e in edge_set for e, _ in ring]
            start = next(i for i in range(4) if flags[i] and not flags[i - 1])
            ordered = []
            for off in range(4):
                e, _ = ring[(start + off) % 4]
                if e in edge_set:
                    ordered.append((e, self._star_side(e, v)))
            for (e_cur, s_cur), (e_nxt, s_nxt) in zip(ordered, ordered[1:]):
                self.bonds.append(
                    (self._pair_leg(e_cur, s_cur, "out"), self._pair_leg(e_nxt, s_nxt, "in"))
                )
            first_in = self._pair_leg(ordered[0][0], ordered[0][1], "in")
            last_out = self._pair_leg(ordered[-1][0], ordered[-1][1], "out")
            self.dangling_vertex_pairs[v] = (first_in, last_out)

        self.reduced = ReducedBoundary(
            group=self.group,
            edges=self.cls.boundary_edges,
            vertices=tuple(sorted(self.dangling_vertex_pairs)),
        )

    # -- tensors -----------------------------------------------------------------

    def _edge_array(self, e: Edge) -> tuple[np.ndarray, list[tuple]]:
        t = edge_tensor(self.group, self.beta, e.orientation, self.variant)
        i = self.edge_pos[e]
        legs = [(i, "ket"), (i, "pur")]
        for s in t.sides:
            legs += [(i, s, "out"), (i, s, "in")]
        return t.data, legs

    def _reduction_nodes(self):
        """3-leg reduction tensors for every dangling pair, keyed by reduced label."""
        n = self.group.order
        nodes = []
        # [out, in, gamma] = delta(out = gamma * in) / sqrt(|G|): normalized |L^gamma>
        psi = np.zeros((n, n, n))
        for gam in range(n):
            psi[self.group.mul[gam, np.arange(n)], np.arange(n), gam] = 1.0 / np.sqrt(n)
        for e in self.reduced.edges:
            out_leg, in_leg = self.dangling_edge_pairs[e]
            nodes.append((psi, [out_leg, in_leg, ("red", "e", e)]))
        phi = np.zeros((n, n, n))  # [in_first, out_last, h]
        for h in range(n):
            phi[h, h, h] = 1.0
        for v in self.reduced.vertices:
            first_in, last_out = self.dangling_vertex_pairs[v]
            nodes.append((phi, [first_in, last_out, ("red", "v", v)]))
        return nodes

    def _bundles(self, reduce_boundary: bool) -> list:
        """Edge tensors, in `self.edges` order, with the reduction nodes merged in.

        Each reduction node is merged into the edge holding its last leg; a vertex
        node's other leg, on another edge, is joined to that edge by name in a later
        pairwise step."""
        bundles = [self._edge_array(e) for e in self.edges]
        if reduce_boundary:
            for data, legs in self._reduction_nodes():
                i = max(l[0] for l in legs if l[0] != "red")
                bundles[i] = self._merge(bundles[i], (data, legs))
        return bundles

    def _merge(self, x, y):
        xd, xl = x
        yd, yl = y
        ax_x, ax_y = self._shared_axes(xl, yl)
        linalg.require_fits(
            [d for k, d in enumerate(xd.shape) if k not in ax_x]
            + [d for k, d in enumerate(yd.shape) if k not in ax_y],
            np.result_type(xd, yd),
        )
        data = np.tensordot(xd, yd, axes=(ax_x, ax_y))
        legs = [l for k, l in enumerate(xl) if k not in ax_x] + [
            l for k, l in enumerate(yl) if k not in ax_y
        ]
        return data, legs

    def _shared_axes(self, xl: list, yl: list) -> tuple[list[int], list[int]]:
        """Axes of x and y joined by a bond, or by the same leg name (e.g. a vector's)."""
        pos = {l: k for k, l in enumerate(xl)}
        ax_x, ax_y = [], []
        for k, leg in enumerate(yl):
            a = pos.get(self._bond_of.get(leg, leg))
            if a is not None:
                ax_x.append(a)
                ax_y.append(k)
        return ax_x, ax_y

    def _contract(self, extra, reduce_boundary: bool, out_legs: list) -> np.ndarray:
        """Greedy pairwise contraction of the edge bundles; returns the array over `out_legs`.

        extra: optional start tensor (data, legs) joined to the bundles by leg
        name, e.g. a physical vector or a reduced boundary vector.  Each step
        merges, among the pairs that share a leg, the pair whose output grows
        least over its inputs (output size minus both input sizes), ties broken
        by the multiply-add count: the greedy rule of opt_einsum (Smith & Gray,
        JOSS 3(26):753, 2018).  Pairs that share no leg rank after all others.
        """
        nodes = self._bundles(reduce_boundary)
        if extra is not None:
            nodes.append((extra[0], list(extra[1])))

        def cost(pair):
            (xd, xl), (yd, yl) = nodes[pair[0]], nodes[pair[1]]
            ax_x, _ = self._shared_axes(xl, yl)
            inner = math.prod(xd.shape[k] for k in ax_x)
            out = (xd.size // inner) * (yd.size // inner)
            return (not ax_x, out - xd.size - yd.size, out * inner)

        while len(nodes) > 1:
            i, j = min(itertools.combinations(range(len(nodes)), 2), key=cost)
            merged = self._merge(nodes[i], nodes[j])
            nodes = [node for k, node in enumerate(nodes) if k not in (i, j)] + [merged]
        acc_data, acc_legs = nodes[0]
        remaining = set(acc_legs) - set(out_legs)
        if remaining:
            raise RuntimeError(f"unconsumed legs after contraction: {remaining}")
        perm = [acc_legs.index(l) for l in out_legs]
        return acc_data.transpose(perm)

    def _phys_legs(self) -> list:
        return [(self.edge_pos[e], "ket") for e in self.edges] + [
            (self.edge_pos[e], "pur") for e in self.edges
        ]

    def _red_legs(self) -> list:
        return [("red", "e", e) for e in self.reduced.edges] + [
            ("red", "v", v) for v in self.reduced.vertices
        ]

    def _raw_dangling_legs(self) -> list:
        out = []
        for e in self.reduced.edges:
            out += list(self.dangling_edge_pairs[e])
        for v in self.reduced.vertices:
            out += list(self.dangling_vertex_pairs[v])
        return out

    # -- public maps ---------------------------------------------------------------

    @property
    def phys_dim(self) -> int:
        return self.group.order ** (2 * len(self.edges))

    def t_matrix(self) -> np.ndarray:
        """Dense reduced boundary map, shape (phys_doubled, reduced_dim)."""
        linalg.require_fits((self.phys_dim, self.reduced.dim))
        out = self._contract(None, reduce_boundary=True, out_legs=self._phys_legs() + self._red_legs())
        return out.reshape(self.phys_dim, self.reduced.dim)

    def t_apply(self, y: np.ndarray) -> np.ndarray:
        """T y for a reduced boundary vector y (or a batch of columns)."""
        y = np.asarray(y)
        batched = y.ndim == 2
        k = y.shape[1] if batched else 1
        data = y.reshape(self.reduced.shape() + (k,))
        extra = (data, self._red_legs() + [("batch",)])
        out = self._contract(extra, reduce_boundary=True, out_legs=self._phys_legs() + [("batch",)])
        out = out.reshape(self.phys_dim, k)
        return out if batched else out.reshape(self.phys_dim)

    def t_dagger_apply(self, x: np.ndarray) -> np.ndarray:
        """T^dagger x for a doubled physical vector x."""
        n = self.group.order
        ne = len(self.edges)
        data = np.asarray(x).conj().reshape((n,) * (2 * ne))
        out = self._contract((data, self._phys_legs()), reduce_boundary=True, out_legs=self._red_legs())
        return out.conj().reshape(self.reduced.dim)

    def v_matrix(self) -> np.ndarray:
        """Unreduced PEPS map on raw dangling legs ((out,in) per pair), or the torus vector."""
        n_dangle = 2 * (len(self.reduced.edges) + len(self.reduced.vertices))
        bdry = self.group.order**n_dangle
        linalg.require_fits((self.phys_dim, bdry))
        out = self._contract(None, reduce_boundary=False, out_legs=self._phys_legs() + self._raw_dangling_legs())
        return out.reshape(self.phys_dim, bdry)


def contract_region(model: QuantumDoubleModel, region: Region, beta: float, variant: str = "full"):
    """V_R as a dense matrix (or the contracted vector on the torus)."""
    net = RegionNetwork(model, region, beta, variant)
    if region.kind == TORUS:
        return net.v_matrix().reshape(net.phys_dim)
    return net.v_matrix()
