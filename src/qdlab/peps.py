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
from .linalg import FeasibilityError
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


def _slim_edge_data(group: FiniteGroup) -> np.ndarray:
    n = group.order
    data = np.zeros((n, n) + (n, n) * 4)
    for g in range(n):
        lg = group.left_regular_matrix(g)            # L^g[out, in]
        lginv = group.left_regular_matrix(group.inv[g])
        for h in range(n):
            for k in range(n):
                phys = group.mul[group.mul[h, g], group.inv[k]]
                data[phys, g, :, :, :, :, h, h, k, k] += np.multiply.outer(lg, lginv)
    return data


# Keyed by the group table's bytes, so equal groups share an entry and no group
# is handed another's data. The data does not depend on the edge orientation.
_EDGE_CACHE: dict = {}


def edge_tensor(group: FiniteGroup, beta: float, orientation: str, variant: str = "full") -> EdgeTensor:
    """The PEPS tensor of one edge; `variant` is 'slim' or 'full' (with weights)."""
    if variant not in ("slim", "full"):
        raise ValueError(f"unknown edge tensor variant {variant!r}")
    key = (group.mul.tobytes(), round(beta, 14), variant)
    if key in _EDGE_CACHE:
        data = _EDGE_CACHE[key]
    else:
        data = _slim_edge_data(group)
        if variant == "full":
            ws = star_leg_weights(group, beta, power=1 / 8)
            wp = weight_plaq(group, beta).matrix
            # plaquette pairs occupy axes (2,3) and (4,5); star pairs (6,7), (8,9)
            for ax in (2, 3, 4, 5):
                data = np.moveaxis(np.tensordot(wp, data, axes=(1, ax)), 0, ax)
            for ax in (6, 7, 8, 9):
                shape = [1] * data.ndim
                shape[ax] = group.order
                data = data * ws.reshape(shape)
        data.setflags(write=False)
        _EDGE_CACHE[key] = data
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

DENSE_MAP_LIMIT = 2**28  # entries of a dense t_matrix / v_matrix


@dataclass
class ReducedBoundary:
    """Ordering and dimensions of the reduced (leading-term) boundary basis."""

    group: FiniteGroup
    edges: tuple[Edge, ...]
    vertices: tuple[tuple[int, int], ...]
    edge_gamma_inverted: dict  # edge -> True when gamma = g^{-1} on the dangling pair
    vertex_chain_lengths: dict

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
        self._supernode_cache: dict = {}
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
        self.dangling_edge_pairs: dict[Edge, tuple[tuple, tuple, bool]] = {}
        self.dangling_vertex_pairs: dict[tuple[int, int], tuple[tuple, tuple, int]] = {}

        for p in plaqs:
            ring = lat.edges_of_plaquette(p)  # [(top,+),(left,+),(bottom,-),(right,-)]
            sides = [self._facing_side(e, p) for e, _ in ring]
            for i in range(4):
                e_cur, _ = ring[i]
                e_nxt, _ = ring[(i + 1) % 4]
                self.bonds.append(
                    (self._pair_leg(e_cur, sides[i], "out"), self._pair_leg(e_nxt, sides[(i + 1) % 4], "in"))
                )

        for e in self.edges:
            for p in lat.plaquettes_of_edge(e):
                if p not in plaqs:
                    side = self._facing_side(e, p)
                    out_leg = self._pair_leg(e, side, "out")
                    in_leg = self._pair_leg(e, side, "in")
                    # gamma label: the V-layer carries L^g on north/west pairs, L^{g^-1} on south/east
                    inverted = side in ("south", "east")
                    self.dangling_edge_pairs[e] = (out_leg, in_leg, inverted)

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
            self.dangling_vertex_pairs[v] = (first_in, last_out, m)

        self.reduced = ReducedBoundary(
            group=self.group,
            edges=tuple(e for e in self.edges if e in self.dangling_edge_pairs),
            vertices=tuple(sorted(self.dangling_vertex_pairs)),
            edge_gamma_inverted={e: self.dangling_edge_pairs[e][2] for e in self.dangling_edge_pairs},
            vertex_chain_lengths={v: self.dangling_vertex_pairs[v][2] for v in self.dangling_vertex_pairs},
        )

    # -- tensors -----------------------------------------------------------------

    def _edge_array(self, e: Edge) -> tuple[np.ndarray, list[tuple]]:
        t = edge_tensor(self.group, self.beta, e.orientation, self.variant)
        i = self.edge_pos[e]
        legs = [(i, "ket"), (i, "pur")]
        for s in t.sides:
            legs += [(i, s, "out"), (i, s, "in")]
        return t.data, legs

    def _edge_order(self) -> list[Edge]:
        def key(e: Edge):
            cx = e.x + (0.5 if e.orientation == HORIZONTAL else 0.0)
            return (cx, e.y, e.orientation)

        return sorted(self.edges, key=key)

    def _reduction_nodes(self):
        """3-leg reduction tensors for every dangling pair, keyed by reduced label."""
        n = self.group.order
        nodes = []
        # [out, in, gamma] = delta(out = gamma * in) / sqrt(|G|): normalized |L^gamma>
        psi = np.zeros((n, n, n))
        for gam in range(n):
            psi[self.group.mul[gam, np.arange(n)], np.arange(n), gam] = 1.0 / np.sqrt(n)
        for e in self.reduced.edges:
            out_leg, in_leg, _ = self.dangling_edge_pairs[e]
            nodes.append((psi, [out_leg, in_leg, ("red", "e", e)]))
        phi = np.zeros((n, n, n))  # [in_first, out_last, h]
        for h in range(n):
            phi[h, h, h] = 1.0
        for v in self.reduced.vertices:
            first_in, last_out, _ = self.dangling_vertex_pairs[v]
            nodes.append((phi, [first_in, last_out, ("red", "v", v)]))
        return nodes

    def _bundles(self, reduce_boundary: bool) -> list:
        """Edge tensors in absorption order, each pre-merged with the reduction
        nodes whose last touched edge it is (dangling pairs never linger)."""
        order = self._edge_order()
        rank_of = {self.edge_pos[e]: i for i, e in enumerate(order)}
        by_edge: dict[int, list] = {i: [] for i in range(len(order))}
        if reduce_boundary:
            for data, legs in self._reduction_nodes():
                last = max(rank_of[l[0]] for l in legs if l[0] != "red")
                by_edge[last].append((data, legs))
        bundles = []
        for i, e in enumerate(order):
            data, legs = self._edge_array(e)
            for rdata, rlegs in by_edge[i]:
                ax_here = [k for k, l in enumerate(rlegs) if l in legs]
                ax_edge = [legs.index(rlegs[k]) for k in ax_here]
                data = np.tensordot(data, rdata, axes=(ax_edge, ax_here))
                legs = [l for k, l in enumerate(legs) if k not in ax_edge] + [
                    l for k, l in enumerate(rlegs) if k not in ax_here
                ]
            bundles.append((data, legs))
        return bundles

    def _merge(self, x, y):
        xd, xl = x
        yd, yl = y
        ax_x, ax_y = [], []
        for k, leg in enumerate(yl):
            partner = self._bond_of.get(leg, leg)
            if partner in xl:
                ax_x.append(xl.index(partner))
                ax_y.append(k)
        data = np.tensordot(xd, yd, axes=(ax_x, ax_y))
        legs = [l for k, l in enumerate(xl) if k not in ax_x] + [
            l for k, l in enumerate(yl) if k not in ax_y
        ]
        return data, legs

    def _supernodes(self, reduce_boundary: bool) -> list:
        """Column-grouped contractions of the edge bundles, cached per variant."""
        key = bool(reduce_boundary)
        if key in self._supernode_cache:
            return self._supernode_cache[key]
        bundles = self._bundles(reduce_boundary)
        order = self._edge_order()
        cols: dict[int, list] = {}
        for (data, legs), e in zip(bundles, order):
            cols.setdefault(e.x, []).append((data, legs))
        merged = []
        for cx in sorted(cols):
            node = cols[cx][0]
            for other in cols[cx][1:]:
                node = self._merge(node, other)
            merged.append(node)
        self._supernode_cache[key] = merged
        return merged

    def _contract(self, extra, reduce_boundary: bool, out_legs: list) -> np.ndarray:
        """Column-sweep contraction; returns the array over `out_legs`.

        extra: optional starting tensor (data, legs) contracted against matching
        legs, e.g. a physical vector or a reduced boundary vector.  Absorbing it
        first keeps boundary legs from lingering in the accumulator.
        """
        acc = (np.array(1.0), [])
        if extra is not None:
            acc = (extra[0], list(extra[1]))
        for node in self._supernodes(reduce_boundary):
            acc = self._merge(acc, node)
        acc_data, acc_legs = acc
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
            out_leg, in_leg, _ = self.dangling_edge_pairs[e]
            out += [out_leg, in_leg]
        for v in self.reduced.vertices:
            first_in, last_out, _ = self.dangling_vertex_pairs[v]
            out += [first_in, last_out]
        return out

    # -- public maps ---------------------------------------------------------------

    @property
    def phys_dim(self) -> int:
        return self.group.order ** (2 * len(self.edges))

    def t_matrix(self) -> np.ndarray:
        """Dense reduced boundary map, shape (phys_doubled, reduced_dim)."""
        if self.phys_dim * self.reduced.dim > DENSE_MAP_LIMIT:
            raise FeasibilityError(
                f"dense reduced map {self.phys_dim} x {self.reduced.dim} exceeds limit"
            )
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
        if self.phys_dim * bdry > DENSE_MAP_LIMIT:
            raise FeasibilityError(f"dense map {self.phys_dim} x {bdry} exceeds limit")
        out = self._contract(None, reduce_boundary=False, out_legs=self._phys_legs() + self._raw_dangling_legs())
        return out.reshape(self.phys_dim, bdry)


def contract_region(model: QuantumDoubleModel, region: Region, beta: float, variant: str = "full"):
    """V_R as a dense matrix (or the contracted vector on the torus)."""
    net = RegionNetwork(model, region, beta, variant)
    if region.kind == TORUS:
        return net.v_matrix().reshape(net.phys_dim)
    return net.v_matrix()
