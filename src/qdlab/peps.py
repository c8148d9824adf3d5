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

In a region network the star pairs enter on their diagonal, so each edge node
has eight legs: ket, pur, the two plaquette pairs, then one star leg per end
(away vertex h, toward vertex k). A plaquette bond joins two legs under one
name. A vertex has one index, named by the vertex and held by every region
edge at it, so a leg may have more than two holders.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .lattice import (
    HORIZONTAL,
    VERTICAL,
    Edge,
    Region,
    RegionClassification,
    classify_region,
)
from . import linalg
from .quantum_double import QuantumDoubleModel, gamma_beta


# -- weights -------------------------------------------------------------------


def weight_plaq(group: FiniteGroup, beta: float) -> np.ndarray:
    """(1+gamma)^{1/8} P_1 + gamma^{1/8} P_0 on l2(G)."""
    q = gamma_beta(beta / 2, group.order)
    p1, p0 = group.trivial_projector()
    return (1 + q) ** (1 / 8) * p1 + (q ** (1 / 8) if q > 0 else 0.0) * p0


def star_leg_weights(group: FiniteGroup, beta: float, power: float = 0.25) -> np.ndarray:
    """(delta_{h,1} + gamma_{beta/2})^power, the per-edge star-leg weight; entries
    with h != 1 are 0 when gamma <= 0 (a negative power gives the pseudo-inverse)."""
    q = gamma_beta(beta / 2, group.order)
    w = np.full(group.order, q**power if q > 0 else 0.0)
    w[0] = (1 + q) ** power
    return w


# -- edge tensors ----------------------------------------------------------------

PLAQ_SIDES = {VERTICAL: ("west", "east"), HORIZONTAL: ("north", "south")}
STAR_SIDES = {VERTICAL: ("top", "bottom"), HORIZONTAL: ("east", "west")}


def _edge_data(group: FiniteGroup, beta: float, variant: str) -> np.ndarray:
    """Entries of the edge tensor, written in place: one (n,)*10 array and no copy.

    The full variant carries wp on both legs of each plaquette pair, which makes
    the pair wp L^g wp, and ws on each of the four star legs, one scalar per
    (h, k).
    """
    n = group.order
    if variant == "full":
        wp = weight_plaq(group, beta)
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


def edge_tensor(group: FiniteGroup, beta: float, variant: str = "full") -> np.ndarray:
    """The PEPS tensor of one edge, read-only, with legs (ket, pur, then (out, in)
    per side: the PLAQ_SIDES, then the STAR_SIDES of its orientation); `variant`
    is 'slim' or 'full' (with weights)."""
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
    return data


# -- contraction plans --------------------------------------------------------------

# What one entry written by a pairwise step costs, in multiply-adds: the "combo"
# cost of opt_einsum (Smith & Gray, JOSS 3(26):753, 2018) with its default
# factor. Without the write term the cheapest order of the Z2 N=2 torus takes a
# 2^21-entry step; with it, steps of at most 2^18.
WRITE_COST = 64


def plan_contraction(nodes: tuple[frozenset, ...], out_legs: frozenset) -> tuple[tuple[int, int], ...]:
    """The cheapest pairwise order of a network, each node given as its set of (leg, dim).

    Step k merges two nodes into node n + k, for n nodes. A leg may have any
    number of holders (a vertex index is held by every region edge at its
    vertex). It stays open while a node outside the merged part holds it, and
    to the end when it is one of `out_legs`; otherwise it is summed when its
    last holder merges, so a leg that is not an output needs two holders or
    more. A step costs its multiply-adds, the product of the dims of every leg
    of either operand, plus WRITE_COST per output entry. The dynamic program
    runs over the connected subsets of the nodes (nodes sharing a leg are
    adjacent), smallest first, and splits each into two connected parts in
    every way (Pfeifer, Haegeman & Verstraete, PRE 90, 033315, 2014), in about
    3^n steps; legs are bits, so a subset's open legs and size come from
    tables. Each connected component gets its cheapest order that takes no
    outer product; the components are then joined by outer products, last.
    """
    n = len(nodes)
    bit: dict = {}  # leg -> its bit
    by_dim: dict = {}  # dim -> the bits of the legs of that dim
    held = [0] * n  # the legs of each node
    holders: dict = {}  # bit -> the nodes holding it
    for i, node in enumerate(nodes):
        for leg, dim in node:
            b = bit.setdefault(leg, 1 << len(bit))
            by_dim[dim] = by_dim.get(dim, 0) | b
            held[i] |= b
            holders[b] = holders.get(b, 0) | 1 << i
    kept = sum(bit[leg] for leg in out_legs if leg in bit)
    lone = [leg for leg, b in bit.items() if not b & kept and not holders[b] & (holders[b] - 1)]
    if lone:
        raise ValueError(f"legs held by one node must be output legs: {lone}")
    adj = [0] * n
    for h in holders.values():
        for i in range(n):
            if h >> i & 1:
                adj[i] |= h & ~(1 << i)
    dim_bits = [(d, bits) for d, bits in by_dim.items() if d != 1]
    volume = lambda mask: math.prod(d ** (mask & bits).bit_count() for d, bits in dim_bits)

    full = (1 << n) - 1
    legs = [0] * (full + 1)  # the legs any node of a subset holds
    nbr = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        i = low.bit_length() - 1
        legs[s] = legs[s ^ low] | held[i]
        nbr[s] = nbr[s ^ low] | adj[i]
    # entries of a subset's contracted tensor: its legs held outside it or kept
    size = [volume(legs[s] & (legs[full ^ s] | kept)) for s in range(full + 1)]
    connected = [False] * (full + 1)
    cost = [0] * (full + 1)
    split = [0] * (full + 1)  # the part holding the lowest node, in the cheapest split

    def component(low: int, s: int) -> int:
        """The nodes of s reachable from the node set low within s."""
        reach = low
        while (grown := (reach | nbr[reach]) & s) != reach:
            reach = grown
        return reach

    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        connected[s] = component(low, s) == s
        if not rest or not connected[s]:
            continue
        best, written = math.inf, WRITE_COST * size[s]
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            a = sub | low
            b = s ^ a
            if connected[a] and connected[b]:
                # every leg of either part once: a leg both hold is open in each
                c = cost[a] + cost[b] + size[a] * size[b] // volume(legs[a] & legs[b]) + written
                if c < best:
                    best, split[s] = c, a
        cost[s] = best

    steps: list[tuple[int, int]] = []

    def emit(s: int) -> int:
        if not s & (s - 1):
            return s.bit_length() - 1
        steps.append((emit(split[s]), emit(s ^ split[s])))
        return n + len(steps) - 1

    left = full
    acc = None
    while left:
        part = component(left & -left, left)
        left ^= part
        root = emit(part)
        if acc is not None:
            steps.append((acc, root))
            root = n + len(steps) - 1
        acc = root
    return tuple(steps)


# -- merges ------------------------------------------------------------------------


def _arranged(data: np.ndarray, legs: list, order: list, dtype) -> np.ndarray:
    """`data` with its legs in `order`: a view when its memory already is in that
    order (legs of dimension 1 aside) and of `dtype`, else a budget-checked copy."""
    at = {leg: k for k, leg in enumerate(legs)}
    view = data.transpose([at[leg] for leg in order])
    if view.dtype == dtype and view.flags.c_contiguous:
        return view
    linalg.require_fits(view.shape, dtype)
    return np.ascontiguousarray(view, dtype=dtype)


def _matrices(node: tuple, batch: list, free: list, summed: list, dtype, copy: bool):
    """The node as a stack of matrices, (batch, free, summed): a view when its
    memory is in order batch + free + summed or batch + summed + free, else a
    budget-checked copy, or None when `copy` is False."""
    data, legs = node
    dims = dict(zip(legs, data.shape))
    nb, nf, ns = (math.prod(dims[leg] for leg in part) for part in (batch, free, summed))
    if data.dtype == dtype:
        at = {leg: k for k, leg in enumerate(legs)}
        view = data.transpose([at[leg] for leg in batch + free + summed])
        if view.flags.c_contiguous:
            return view.reshape(nb, nf, ns)
        view = data.transpose([at[leg] for leg in batch + summed + free])
        if view.flags.c_contiguous:
            return view.reshape(nb, ns, nf).swapaxes(1, 2)
    if not copy:
        return None
    return _arranged(data, legs, batch + free + summed, dtype).reshape(nb, nf, ns)


def _merge(x: tuple, y: tuple, keep: set) -> tuple:
    """One pairwise step of two (data, legs) nodes, as one `np.matmul`.

    The legs both hold are batch legs B when `keep` holds them, else summed
    legs S; the others are each operand's free legs F. Each operand is read as
    B + F + S or B + S + F, a view when its memory is already in one of those
    orders, else a budget-checked copy. B and S are taken in the memory order
    of the larger operand, or of the other one when the larger is copied
    anyway. The output, checked against the budget first, has the legs B +
    the larger operand's F + the other's F.
    """
    if x[0].size < y[0].size:
        x, y = y, x
    (_, xl), (_, yl) = x, y
    dtype = np.result_type(x[0], y[0])
    free_x = [leg for leg in xl if leg not in yl]
    free_y = [leg for leg in yl if leg not in xl]

    def shared(order):
        both = [leg for leg in order if leg in xl and leg in yl]
        return [leg for leg in both if leg in keep], [leg for leg in both if leg not in keep]

    batch, summed = shared(xl)
    xm = _matrices(x, batch, free_x, summed, dtype, copy=False)
    if xm is None:
        batch, summed = shared(yl)
        xm = _matrices(x, batch, free_x, summed, dtype, copy=True)
    ym = _matrices(y, batch, free_y, summed, dtype, copy=True)
    out_legs = batch + free_x + free_y
    dims = dict(zip(xl, x[0].shape)) | dict(zip(yl, y[0].shape))
    out_shape = [dims[leg] for leg in out_legs]
    linalg.require_fits(out_shape, dtype)
    return np.matmul(xm, ym.swapaxes(1, 2)).reshape(out_shape), out_legs


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
    """Tensor network of a region: builds the reduced boundary map T G_dR^{-1}.

    T feeds each dangling plaquette pair with |L^gamma> and each dangling vertex
    with |h>; its columns span Im(V_R) exactly (the boundary state is supported
    inside the leading-term product subspace).  The reduced map (t_matrix,
    t_apply, t_dagger_apply) also undoes the boundary weights G_dR on each
    reduced leg, (wp wp)^{-1} per edge and the star weight to the power -m/4
    per vertex, so its Gram is kappa S~, the slim `BlockBoundary` operator.

    The star loop around a vertex is diagonal in the group basis, so all its
    legs carry one group element: the network has one index of dimension |G|
    per vertex, shared by every region edge at the vertex (a hyperedge). A
    closed star's index is summed once its last holder has merged; a dangling
    vertex's index is its reduced leg ("red", "v", v). Plaquette pairs are
    bonds of two holders, leg names shared.

    Every map contracts one node per edge (its tensor with its dangling
    plaquette pair reduced and, on one holder of each dangling vertex, that
    vertex's weight, built once per network) and, for t_apply and
    t_dagger_apply, the input vector, pairwise in the cheapest order under
    opt_einsum's combo cost (see `_contract`), planned once per set of input
    shapes. Each pairwise step is one matrix product, or one per matrix of a
    batch; each step, and each copy it makes, is checked against the dense
    budget before it allocates.
    """

    def __init__(self, model: QuantumDoubleModel, region: Region, beta: float):
        if beta <= 0:
            raise ValueError(f"region networks need beta > 0, where the boundary weights invert; got {beta}")
        if model.edges is not None:
            raise ValueError("region networks live on the full torus model")
        self.model = model
        self.region = region
        self.beta = beta
        self.group = model.group
        self.lattice = model.lattice
        self.cls: RegionClassification = classify_region(region)
        self.edges = list(self.cls.edges)
        self.edge_pos = {e: i for i, e in enumerate(self.edges)}
        self._build_graph()
        self._plans: dict = {}  # see `_contract`

    # -- graph construction ----------------------------------------------------

    def _pair_leg(self, e: Edge, side: str, direction: str) -> tuple:
        return (self.edge_pos[e], side, direction)

    def _facing_side(self, e: Edge, p: tuple[int, int]) -> str:
        north_or_west, south_or_east = self.lattice.plaquettes_of_edge(e)
        if e.orientation == HORIZONTAL:
            return "north" if p == north_or_west else "south"
        return "west" if p == north_or_west else "east"

    def _build_graph(self):
        self._bond_name: dict[tuple, tuple] = {}  # each bonded leg -> the name its bond shares
        self.dangling_edge_pairs: dict[Edge, tuple[tuple, tuple]] = {}

        for p in self.region.plaquettes():
            # counterclockwise from the top edge: top, left, bottom, right
            ring = [(e, self._facing_side(e, p)) for e, _ in self.lattice.edges_of_plaquette(p)]
            for (e_out, side_out), (e_in, side_in) in zip(ring, ring[1:] + ring[:1]):
                a, b = self._pair_leg(e_out, side_out, "out"), self._pair_leg(e_in, side_in, "in")
                self._bond_name[a] = self._bond_name[b] = ("bond", a, b)

        for e in self.cls.boundary_edges:
            # the dangling pair faces the outside plaquette: south/east when gamma is inverted
            side = PLAQ_SIDES[e.orientation][self.cls.gamma_inverted[e]]
            self.dangling_edge_pairs[e] = (self._pair_leg(e, side, "out"), self._pair_leg(e, side, "in"))

        self.reduced = ReducedBoundary(
            group=self.group,
            edges=self.cls.boundary_edges,
            vertices=self.cls.boundary_vertices,
        )

    def _vertex_leg(self, v: tuple[int, int]) -> tuple:
        """The index of vertex v: its reduced leg when its star is open."""
        return ("red", "v", v) if self.cls.vertex_multiplicity[v] < 4 else ("vertex", v)

    # -- tensors -----------------------------------------------------------------

    def _edge_array(self, e: Edge) -> tuple[np.ndarray, list[tuple]]:
        """The edge tensor with its star pairs taken on their diagonal, (n,)*10 to
        (n,)*8, and its legs named: a bonded plaquette leg takes its bond's name,
        and a star leg its vertex's index (away vertex h, then toward vertex k)."""
        i = self.edge_pos[e]
        legs = [(i, "ket"), (i, "pur")]
        for s in PLAQ_SIDES[e.orientation]:
            legs += [self._bond_name.get(leg, leg) for leg in ((i, s, "out"), (i, s, "in"))]
        legs += [self._vertex_leg(v) for v in self.lattice.vertices_of_edge(e)]
        data = np.einsum("...hhkk->...hk", edge_tensor(self.group, self.beta))
        linalg.require_fits(data.shape)
        return np.ascontiguousarray(data), legs

    @functools.cached_property
    def _bundles(self) -> list:
        """The edge nodes, in `self.edges` order, with the boundary folded in.

        Each dangling plaquette pair is contracted with [out, in, gamma] =
        delta(out = gamma in) / sqrt(|G|), the normalized |L^gamma>, times the
        inverse boundary weight (wp wp)^{-1} on gamma, the reduced leg. Each
        dangling vertex's index is its reduced leg already; its inverse weight,
        the star weight to the power -m/4, multiplies the first edge holding it.
        """
        n = self.group.order
        idx = np.arange(n)
        psi = np.zeros((n, n, n))
        for gam in range(n):
            psi[self.group.mul[gam, idx], idx, gam] = 1.0 / np.sqrt(n)
        wp = weight_plaq(self.group, self.beta)
        psi = psi @ np.linalg.inv(wp @ wp)
        bundles = [self._edge_array(e) for e in self.edges]
        for e in self.reduced.edges:
            i = self.edge_pos[e]
            bundles[i] = _merge(bundles[i], (psi, [*self.dangling_edge_pairs[e], ("red", "e", e)]), set())
        for v in self.reduced.vertices:
            leg = ("red", "v", v)
            i = next(i for i, (_, legs) in enumerate(bundles) if leg in legs)
            data, legs = bundles[i]  # made by this network, so scaled in place
            w = star_leg_weights(self.group, self.beta, power=-self.cls.vertex_multiplicity[v] / 4)
            data *= w.reshape([-1 if l == leg else 1 for l in legs])
        return bundles

    def _contract(self, nodes: list, out_legs: list) -> np.ndarray:
        """Pairwise contraction of `nodes`, each (data, legs); returns the array over `out_legs`.

        Nodes are joined by leg name: a plaquette bond's two legs share one, a
        vertex index is one name on every edge at the vertex, and an input
        vector's legs take the names of the physical or reduced legs of the
        bundles. The merges replay the plan of `plan_contraction`, the order
        with the least multiply-adds plus WRITE_COST per written entry
        (opt_einsum's combo cost, Smith & Gray, JOSS 3(26):753, 2018), found by
        exact search over connected subsets (Pfeifer, Haegeman & Verstraete,
        PRE 90, 033315, 2014), once per set of input shapes and `out_legs`.
        Shared legs (Gray & Kourtis, Quantum 5, 410, 2021) follow the
        last-holder rule: a leg that two merging nodes hold stays open, as a
        batch leg of the step, while another node holds it or when it is one of
        `out_legs`, and is summed by the step that merges its last two holders.
        Each step is one `np.matmul` (see `_merge`).
        """
        key = (tuple(tuple(zip(legs, data.shape)) for data, legs in nodes), tuple(out_legs))
        if key not in self._plans:
            self._plans[key] = plan_contraction(tuple(map(frozenset, key[0])), frozenset(out_legs))
        out = set(out_legs)
        holders = collections.Counter(leg for _, legs in nodes for leg in legs)
        pool = list(nodes)
        for a, b in self._plans[key]:
            x, y = pool[a], pool[b]
            pool[a] = pool[b] = None
            shared = [leg for leg in x[1] if leg in y[1]]
            for leg in shared:
                holders[leg] -= 1
            pool.append(_merge(x, y, {leg for leg in shared if holders[leg] > 1 or leg in out}))
        data, legs = pool[-1]
        remaining = set(legs) - out
        if remaining:
            raise RuntimeError(f"unconsumed legs after contraction: {remaining}")
        return _arranged(data, legs, out_legs, data.dtype)

    def _phys_legs(self) -> list:
        return [(self.edge_pos[e], "ket") for e in self.edges] + [
            (self.edge_pos[e], "pur") for e in self.edges
        ]

    def _red_legs(self) -> list:
        return [("red", "e", e) for e in self.reduced.edges] + [
            ("red", "v", v) for v in self.reduced.vertices
        ]

    # -- public maps ---------------------------------------------------------------

    @property
    def phys_dim(self) -> int:
        return self.group.order ** (2 * len(self.edges))

    def t_matrix(self) -> np.ndarray:
        """Dense reduced boundary map, shape (phys_doubled, reduced_dim)."""
        linalg.require_fits((self.phys_dim, self.reduced.dim))
        out = self._contract(self._bundles, self._phys_legs() + self._red_legs())
        return out.reshape(self.phys_dim, self.reduced.dim)

    def t_apply(self, y: np.ndarray) -> np.ndarray:
        """T y for a reduced boundary vector y (or a batch of columns)."""
        y = np.asarray(y)
        batched = y.ndim == 2
        k = y.shape[1] if batched else 1
        linalg.require_fits((self.phys_dim, k))  # before planning, which takes ~3^(edges + 1) steps
        data = y.reshape(self.reduced.shape() + (k,))
        nodes = self._bundles + [(data, self._red_legs() + [("batch",)])]
        out = self._contract(nodes, self._phys_legs() + [("batch",)])
        out = out.reshape(self.phys_dim, k)
        return out if batched else out.reshape(self.phys_dim)

    def t_dagger_apply(self, x: np.ndarray) -> np.ndarray:
        """T^dagger x for a doubled physical vector x (or a batch of columns)."""
        x = np.asarray(x)
        batched = x.ndim == 2
        k = x.shape[1] if batched else 1
        data = x.conj().reshape((self.group.order,) * (2 * len(self.edges)) + (k,))
        nodes = self._bundles + [(data, self._phys_legs() + [("batch",)])]
        out = self._contract(nodes, self._red_legs() + [("batch",)]).conj()
        return out.reshape(self.reduced.dim, k) if batched else out.reshape(self.reduced.dim)
