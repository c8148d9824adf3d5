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


def side_order(orientation: str) -> tuple[str, ...]:
    return PLAQ_SIDES[orientation] + STAR_SIDES[orientation]


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
    per side in `side_order`); `variant` is 'slim' or 'full' (with weights)."""
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
# 2^26-entry step with an inner dimension of 16.
WRITE_COST = 64


def plan_contraction(nodes: tuple[frozenset, ...]) -> tuple[tuple[int, int], ...]:
    """The cheapest pairwise order of a network, each node given as its set of (leg, dim).

    Step k merges two nodes into node n + k, for n nodes. A leg held by two
    nodes is contracted when they merge; a leg held by one stays open to the
    end. A step costs its multiply-adds plus WRITE_COST per output entry. The
    dynamic program runs over the connected subsets of the nodes, smallest
    first, and splits each into two connected parts in every way (Pfeifer,
    Haegeman & Verstraete, PRE 90, 033315, 2014), in about 3^n steps. Each
    connected component gets its cheapest order that takes no outer product;
    the components are then joined by outer products, last.
    """
    n = len(nodes)
    holders: dict = {}
    for i, legs in enumerate(nodes):
        for leg, dim in legs:
            holders.setdefault(leg, []).append((i, dim))
    adj = [0] * n
    bond = [[1] * n for _ in range(n)]  # product of the dims of the legs i and j share
    for held in holders.values():
        if len(held) == 2:
            (i, dim), (j, _) = held
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            bond[i][j] *= dim
            bond[j][i] *= dim

    full = (1 << n) - 1
    size = [1] * (full + 1)  # entries of a subset's contracted tensor
    nbr = [0] * (full + 1)
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
        i = low.bit_length() - 1
        rest = s ^ low
        shared = math.prod(bond[i][j] for j in range(n) if rest >> j & 1)
        size[s] = size[rest] * math.prod(d for _, d in nodes[i]) // shared**2
        nbr[s] = nbr[rest] | adj[i]
        connected[s] = component(low, s) == s
        if not rest or not connected[s]:
            continue
        cost[s] = math.inf
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            a = sub | low
            if connected[a] and connected[s ^ a]:
                # every leg of either part once, the shared ones (whose dims squared
                # are size[a] size[s ^ a] / size[s]) included
                multiply_adds = size[s] * math.isqrt(size[a] * size[s ^ a] // size[s])
                c = cost[a] + cost[s ^ a] + multiply_adds + WRITE_COST * size[s]
                if c < cost[s]:
                    cost[s], split[s] = c, a

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


# -- merge layouts -------------------------------------------------------------------

# What a layout costs, in entries of a plain copy: about 2.5 ns each on a 2-vCPU
# Xeon VM with 1 BLAS thread, for 2^23-entry arrays. A transposed copy runs near
# that speed when the legs that end both orders hold 32 entries or more, and up
# to 8 times slower when they hold fewer: one entry costs 1 + COPY_LOOP / run, at
# most 8. One matrix of a batched product costs BATCH_COST: a batch of 2^16 took
# 10 ms more than one product of the same size. An output its next step cannot
# read as a view costs MISS per entry, the least that step's copy costs. From
# LARGE entries on, a copied operand is also tried in its memory order, and a
# batch whose other operand is that large is refused: each product of the batch
# would stream all of it.
COPY_LOOP = 16
BATCH_COST = 64
MISS = 2
LARGE = 2**16
WISH_DEPTH = 2


@dataclass(frozen=True)
class MergeLayout:
    """How one pairwise step runs, on views of its operands: one matrix product, or
    one per matrix of a batch.

    The operand `view` is read in `view_order`, P + S + Q with S its legs shared
    with `other`, and `other` in `other_order`, J + S or S + J. Each is copied
    only when its memory is not in that order already (legs of dimension 1 are
    free). The output's legs are P + J + Q ("mid"), P + Q + J ("end") or, when
    Q is empty, J + P ("front"), then the free legs of dimension 1. With P and
    Q both non-empty the product runs once per entry of P.
    """

    view: int
    other: int
    view_order: tuple
    other_order: tuple
    out_order: tuple
    form: str


def _contiguous(legs, order) -> bool:
    at = [i for i, leg in enumerate(order) if leg in legs]
    return not at or at[-1] - at[0] + 1 == len(at)


def _copy_cost(src: tuple, dst: tuple, dims) -> float:
    """What arranging legs in memory order `src` into `dst` costs; 0 for a view."""
    if src == dst:
        return 0
    run = 1
    for a, b in zip(reversed(src), reversed(dst)):
        if a != b:
            break
        run *= dims[a]
    return math.prod(dims[leg] for leg in src) * min(1 + COPY_LOOP / run, 8)


def _misses(out: tuple, wish) -> float:
    """How far `out` is from the wish of `_merge_choices`: 0 when it is kept."""
    if isinstance(wish, tuple):
        return float(out != wish)
    missed = 0.0
    for t, legs in enumerate(wish, 1):
        if not _contiguous(legs, out):
            missed += 1 / t
        out = tuple(leg for leg in out if leg not in legs)
    return missed


def _merge_choices(lv: tuple, lc: tuple, dims, wish, when: dict):
    """(cost, P, S, Q, J, other_order, form) for each way to merge the operand with
    legs `lv` (the view) and the one with legs `lc`, legs of dimension 1 left out.

    The cost counts the copies made now, the batch, and MISS per output entry if
    the output is not laid out as `wish` asks. The wish is either (a tuple) the
    final order or a list of leg sets, one per later step on the output's way:
    each must be contiguous once the legs of the sets before it are gone, as
    when every step before put its new legs elsewhere; the t-th set counts 1/t.
    A copied operand's free legs are laid out for the wish: the legs of its
    first set next to the contracted ones, the others by the step that
    contracts them.
    """
    shared = set(lv) & set(lc)
    size = lambda legs: math.prod(dims[leg] for leg in legs)
    final = isinstance(wish, tuple)

    def lay_out(free, large):
        """Orders of the legs `free`, given in memory order, for the wish."""
        if final:
            orders = [tuple(leg for leg in wish if leg in free)] + [tuple(free)] * large
        else:
            near = [leg for leg in free if leg in wish[0]]
            far = [leg for leg in free if leg not in wish[0]]
            soon = sorted(far, key=lambda leg: when.get(leg, math.inf))
            orders = [tuple(near + soon), tuple(soon[::-1] + near)] + [tuple(near + far), tuple(far + near)] * large
        return list(dict.fromkeys(orders))

    j_now = tuple(leg for leg in lc if leg not in shared)
    c_large = size(lc) >= LARGE
    at = [i for i, leg in enumerate(lv) if leg in shared]
    splits = []
    if _contiguous(shared, lv):
        i = at[0] if at else 0
        splits.append((lv[:i], lv[i : i + len(at)], lv[i + len(at) :]))
    if not splits or (at and 0 < at[0] and at[-1] < len(lv) - 1 and c_large):
        s = tuple(leg for leg in lc if leg in shared)
        rests = lay_out([leg for leg in lv if leg not in shared], size(lv) >= LARGE)
        splits += [split for rest in rests for split in (((), s, rest), (rest, s, ()))]
    for p, s, q in splits:
        v_cost = _copy_cost(lv, p + s + q, dims)
        batch = size(p) if p and q else 0
        if batch and c_large:
            continue
        if lc in (j_now + s, s + j_now):
            others = [(j_now, lc)]
        else:
            others = [(j, order) for j in lay_out(j_now, c_large) for order in (j + s, s + j)[: 1 + c_large]]
        for j, c_order in others:
            base = v_cost + _copy_cost(lc, c_order, dims) + BATCH_COST * batch
            for form in ("mid", "end" if q else "front"):
                out = {"mid": p + j + q, "end": p + q + j, "front": j + p}[form]
                yield base + MISS * size(out) * _misses(out, wish), p, s, q, j, c_order, form


def plan_layouts(nodes: tuple, steps: tuple, out_legs: tuple) -> tuple[MergeLayout, ...]:
    """A layout for each step of `steps` on `nodes`, each node given as its legs in
    memory order paired with their dims; `out_legs` is the order of the result.

    Step by step, in the plan's order, it takes the cheapest choice of
    `_merge_choices` over both roles of the two operands. The wish for a step's
    output looks WISH_DEPTH steps ahead on its way, or, for the last step, is
    `out_legs`, so that step takes over the final transpose where it can. The
    legs are numbered first, so that the search compares small ints.
    """
    names = list(dict.fromkeys([leg for node in nodes for leg, _ in node]))
    number = {leg: i for i, leg in enumerate(names)}
    dims = [1] * len(names)
    for node in nodes:
        for leg, d in node:
            dims[number[leg]] = d
    eff = lambda legs: tuple(leg for leg in legs if dims[leg] != 1)
    pool = [tuple(number[leg] for leg, _ in node) for node in nodes]
    sets = [set(legs) for legs in pool]
    shared, when, step_of = [], {}, {}
    for k, (a, b) in enumerate(steps):
        sets.append(sets[a] ^ sets[b])
        shared.append(sets[a] & sets[b])
        when.update(dict.fromkeys(shared[k], k))
        step_of[a] = step_of[b] = k

    def wish(i: int):
        """The final order for the last node, else the sets of legs that the next
        WISH_DEPTH steps on the node's way contract."""
        if i not in step_of:
            return eff(number[leg] for leg in out_legs)
        sets_ahead = []
        while i in step_of and len(sets_ahead) < WISH_DEPTH:
            sets_ahead.append(shared[step_of[i]])
            i = len(nodes) + step_of[i]
        return sets_ahead

    layouts = []
    for k, (a, b) in enumerate(steps):
        best = None
        for v, c in ((a, b), (b, a)):
            for cost, *choice in _merge_choices(eff(pool[v]), eff(pool[c]), dims, wish(len(nodes) + k), when):
                if best is None or cost < best[0]:
                    best = (cost, v, c, *choice)
        _, v, c, p, s, q, j, c_order, form = best
        v_ones = tuple(leg for leg in pool[v] if dims[leg] == 1)
        c_ones = tuple(leg for leg in pool[c] if dims[leg] == 1)
        free = tuple(leg for leg in v_ones + c_ones if leg not in shared[k])
        pool.append({"mid": p + j + q, "end": p + q + j, "front": j + p}[form] + free)
        named = lambda legs: tuple(names[leg] for leg in legs)
        layouts.append(MergeLayout(v, c, named(p + s + q + v_ones), named(c_order + c_ones), named(pool[-1]), form))
    return tuple(layouts)


def _arranged(data: np.ndarray, legs: list, order: tuple, dtype) -> np.ndarray:
    """`data` with its legs in `order`: a view when its memory already is in that
    order (legs of dimension 1 aside) and of `dtype`, else a budget-checked copy."""
    at = {leg: k for k, leg in enumerate(legs)}
    view = data.transpose([at[leg] for leg in order])
    if view.dtype == dtype and view.flags.c_contiguous:
        return view
    linalg.require_fits(view.shape, dtype)
    return np.ascontiguousarray(view, dtype=dtype)


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
    """Tensor network of a region: builds V_R and the reduced boundary map T G_dR^{-1}.

    T feeds each dangling plaquette pair with |L^gamma> and each dangling vertex
    chain with |h, h>; its columns span Im(V_R) exactly (the boundary state is
    supported inside the leading-term product subspace).  The reduced map
    (t_matrix, t_apply, t_dagger_apply) also undoes the boundary weights G_dR on
    each reduced leg, (wp wp)^{-1} per edge and the star weight to the power -m/4
    per vertex, so its Gram is kappa S~, the slim `BlockBoundary` operator.

    Every map contracts one node per edge (its tensor with the reduction nodes
    of its dangling pairs, built once per network) and, for t_apply and
    t_dagger_apply, the input vector, pairwise in the cheapest order under
    opt_einsum's combo cost (see `_contract`). Each pairwise step multiplies
    views of its operands, as one matrix product or one per matrix of a batch,
    with the legs of every intermediate laid out for the steps that contract
    them next (`plan_layouts`), so an operand is copied only where no layout
    avoids it. The network plans the order and the layouts once per set of
    input shapes and replays them on every later call; each step, and each
    copy it makes, is checked against the dense budget before it allocates.
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
        self._plans: dict = {}  # see `_plan`
        self._layouts: dict = {}  # see `_contract`

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
        lat = self.lattice
        edge_set = set(self.edges)
        self._bond_name: dict[tuple, tuple] = {}  # each bonded leg -> the name its bond shares
        self.dangling_edge_pairs: dict[Edge, tuple[tuple, tuple]] = {}
        self.dangling_vertex_pairs: dict[tuple[int, int], tuple[tuple, tuple]] = {}

        for p in self.region.plaquettes():
            # counterclockwise from the top edge: top, left, bottom, right
            ring = [(e, self._facing_side(e, p)) for e, _ in lat.edges_of_plaquette(p)]
            for cur, nxt in zip(ring, ring[1:] + ring[:1]):
                self._bond(*cur, *nxt)

        for e in self.cls.boundary_edges:
            # the dangling pair faces the outside plaquette: south/east when gamma is inverted
            side = PLAQ_SIDES[e.orientation][self.cls.gamma_inverted[e]]
            self.dangling_edge_pairs[e] = (self._pair_leg(e, side, "out"), self._pair_leg(e, side, "in"))

        for v in self.cls.vertices:
            ring = lat.edges_of_star(v)
            flags = [e in edge_set for e, _ in ring]
            # an open chain starts right after a gap in the cyclic ring
            start = next((i for i in range(4) if flags[i] and not flags[i - 1]), 0)
            chain = [(e, self._star_side(e, v)) for e, _ in ring[start:] + ring[:start] if e in edge_set]
            closed = len(chain) == 4
            for cur, nxt in zip(chain, chain[1:] + chain[:1] * closed):
                self._bond(*cur, *nxt)
            if not closed:
                first_in, last_out = self._pair_leg(*chain[0], "in"), self._pair_leg(*chain[-1], "out")
                self.dangling_vertex_pairs[v] = (first_in, last_out)

        self.reduced = ReducedBoundary(
            group=self.group,
            edges=self.cls.boundary_edges,
            vertices=self.cls.boundary_vertices,
        )

    def _bond(self, e_out: Edge, side_out: str, e_in: Edge, side_in: str) -> None:
        """Bond the out-leg of e_out's pair on side_out to the in-leg of e_in's pair on side_in."""
        a, b = self._pair_leg(e_out, side_out, "out"), self._pair_leg(e_in, side_in, "in")
        self._bond_name[a] = self._bond_name[b] = ("bond", a, b)

    # -- tensors -----------------------------------------------------------------

    def _edge_array(self, e: Edge) -> tuple[np.ndarray, list[tuple]]:
        """The edge tensor with its legs named; a bonded leg takes its bond's name."""
        i = self.edge_pos[e]
        legs = [(i, "ket"), (i, "pur")]
        for s in side_order(e.orientation):
            legs += [(i, s, "out"), (i, s, "in")]
        return edge_tensor(self.group, self.beta), [self._bond_name.get(leg, leg) for leg in legs]

    def _reduction_nodes(self):
        """3-leg reduction tensors for every dangling pair, with the inverse boundary
        weight on the reduced leg."""
        n = self.group.order
        idx = np.arange(n)
        nodes = []
        # [out, in, gamma] = delta(out = gamma * in) / sqrt(|G|): normalized |L^gamma>
        psi = np.zeros((n, n, n))
        for gam in range(n):
            psi[self.group.mul[gam, idx], idx, gam] = 1.0 / np.sqrt(n)
        wp = weight_plaq(self.group, self.beta)
        psi = psi @ np.linalg.inv(wp @ wp)
        for e in self.reduced.edges:
            out_leg, in_leg = self.dangling_edge_pairs[e]
            nodes.append((psi, [out_leg, in_leg, ("red", "e", e)]))
        for v in self.reduced.vertices:
            phi = np.zeros((n, n, n))  # [in_first, out_last, h]
            m = self.cls.vertex_multiplicity[v]
            phi[idx, idx, idx] = star_leg_weights(self.group, self.beta, power=-m / 4)
            first_in, last_out = self.dangling_vertex_pairs[v]
            nodes.append((phi, [first_in, last_out, ("red", "v", v)]))
        return nodes

    @functools.cached_property
    def _bundles(self) -> list:
        """Edge tensors, in `self.edges` order, with the reduction nodes merged in.

        Each reduction node is merged into the edge holding its last leg; a vertex
        node's other leg, on another edge, is joined to that edge by name in a later
        pairwise step."""
        bundles = [self._edge_array(e) for e in self.edges]
        for data, legs in self._reduction_nodes():
            i = max(l[0] for l in legs if l[0] != "red")
            pair = [bundles[i], (data, legs)]
            out = [l for l in bundles[i][1] if l not in legs] + [l for l in legs if l not in bundles[i][1]]
            (layout,) = plan_layouts(self._layout_key(pair), ((0, 1),), tuple(out))
            bundles[i] = self._merge(pair[layout.view], pair[layout.other], layout)
        return bundles

    @staticmethod
    def _merge(view, other, layout: MergeLayout):
        """One planned step: views of the operands, arranged as `layout` says, and one
        matrix product, or one per matrix of the batch P. Every array it makes, a
        copy of an operand included, is checked against the dense budget first."""
        (vd, vl), (cd, cl) = view, other
        dtype = np.result_type(vd, cd)
        dims = dict(zip(vl, vd.shape)) | dict(zip(cl, cd.shape))
        shared = set(vl) & set(cl)
        vd = _arranged(vd, vl, layout.view_order, dtype)
        cd = _arranged(cd, cl, layout.other_order, dtype)
        at = [i for i, leg in enumerate(layout.view_order) if leg in shared and dims[leg] != 1]
        p = math.prod(vd.shape[: at[0]]) if at else 1
        s = math.prod(dims[leg] for leg in shared)
        q, j = vd.size // (p * s), cd.size // s
        c = cd.reshape(s, j).T if layout.other_order and layout.other_order[0] in shared else cd.reshape(j, s)
        out_shape = [dims[leg] for leg in layout.out_order]
        linalg.require_fits(out_shape, dtype)
        if layout.form == "front":  # J + P, with Q of one entry
            out = c @ (vd.reshape(s, q) if p == 1 else vd.reshape(p, s).T)
        elif q == 1:
            out = vd.reshape(p, s) @ c.T
        elif p == 1:
            out = c @ vd.reshape(s, q) if layout.form == "mid" else vd.reshape(s, q).T @ c.T
        elif layout.form == "mid":
            out = np.matmul(c, vd.reshape(p, s, q))
        else:
            out = np.matmul(vd.reshape(p, s, q).transpose(0, 2, 1), c.T)
        return out.reshape(out_shape), list(layout.out_order)

    def _plan(self, nodes: list) -> tuple[tuple[int, int], ...]:
        """The merge steps for `nodes`, planned on first use and kept on the network.

        They are keyed by each node's set of (leg, dim); the output legs are those
        no two nodes share, so the key fixes them.
        """
        key = tuple(frozenset(zip(legs, data.shape)) for data, legs in nodes)
        if key not in self._plans:
            self._plans[key] = plan_contraction(key)
        return self._plans[key]

    @staticmethod
    def _layout_key(nodes: list) -> tuple:
        return tuple(tuple(zip(legs, data.shape)) for data, legs in nodes)

    def _contract(self, nodes: list, out_legs: list) -> np.ndarray:
        """Pairwise contraction of `nodes`, each (data, legs); returns the array over `out_legs`.

        Nodes are joined by leg name: a bond's two legs share one name, and an
        input vector's legs take the names of the physical or reduced legs of
        the bundles. The merges replay the plan of `plan_contraction`, the order
        with the least multiply-adds plus WRITE_COST per written entry (opt_einsum's
        combo cost, Smith & Gray, JOSS 3(26):753, 2018), found by exact search over
        connected subsets (Pfeifer, Haegeman & Verstraete, PRE 90, 033315, 2014).
        Each merge multiplies views of its operands as matrices, batched over the
        leading legs of one operand when its contracted legs sit in the middle,
        without the transposed copies of `np.tensordot` (Matthews, SIAM J. Sci.
        Comput. 40(1), 2018). The legs of each output are laid out by
        `plan_layouts` for the steps that contract them next, and the last one
        for `out_legs`; those layouts are planned once per set of input shapes,
        with the plan. An operand is copied only where no layout avoids it.
        """
        steps = self._plan(nodes)
        key = (self._layout_key(nodes), tuple(out_legs))
        if key not in self._layouts:
            self._layouts[key] = plan_layouts(key[0], steps, key[1])
        pool = list(nodes)
        for layout in self._layouts[key]:
            pool.append(self._merge(pool[layout.view], pool[layout.other], layout))
            pool[layout.view] = pool[layout.other] = None
        data, legs = pool[-1]
        remaining = set(legs) - set(out_legs)
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
