"""Thermal PEPO/PEPS tensors for the quantum double model, and region maps.

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

Region maps.  The network of a region's edge tensors, with its dangling legs
reduced, is supported on gauge configurations: one group element g_e per
region edge and h_v per region vertex, as in the gauge structure of the
quantum double (Kitaev, Ann. Phys. 303, 2 (2003), quant-ph/9707021) and the
virtual G-symmetry of G-injective PEPS (Schuch, Cirac and Perez-Garcia,
Ann. Phys. 325, 2153 (2010), arXiv:1001.3807).  `RegionNetwork` therefore
builds its reduced boundary map in closed form, as the sparse scatter

    T = sum_{g,h} |G|^{E_b/2} prod_{interior v} (delta(h_v = 1) + q)
        prod_p (1 + q |G| delta(hol_p(g) = 1)) |ket(g, h), g><gamma(g), h_dangling|

with q = gamma_{beta/2} (see its docstring), and contracts no network.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .groups import FiniteGroup
from .lattice import (
    HORIZONTAL,
    VERTICAL,
    Region,
    RegionClassification,
    classify_region,
)
from . import linalg
from .quantum_double import QuantumDoubleModel, gamma_beta

if TYPE_CHECKING:
    import scipy.sparse as sp


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


# -- region networks --------------------------------------------------------------

def _spread(small: np.ndarray, axes: list[int], ndim: int) -> np.ndarray:
    """`small`, whose k-th axis is configuration axis axes[k], shaped to broadcast
    against an array over all `ndim` configuration axes."""
    shape = [1] * ndim
    for a in axes:
        shape[a] = small.shape[0]
    return small.transpose(np.argsort(axes)).reshape(shape)


class RegionNetwork:
    """The reduced boundary map T G_dR^{-1} of a region, as one sparse matrix.

    T feeds each dangling plaquette pair with |L^gamma> and each dangling vertex
    with |h>; its columns span Im(V_R) exactly (the boundary state is supported
    inside the leading-term product subspace).  The reduced map also undoes the
    boundary weights G_dR on each reduced leg, so its Gram is kappa S~, the slim
    `BlockBoundary` operator.

    Contracting the region's edge tensors leaves one term per gauge
    configuration: a group element g_e on each region edge and h_v on each
    region vertex (Kitaev, quant-ph/9707021; the vertex freedom is the virtual
    G-symmetry of G-injective PEPS, Schuch, Cirac and Perez-Garcia,
    arXiv:1001.3807).  Each edge tensor is nonzero only where its ket is
    h_away g_e h_toward^{-1}; a plaquette ring traces to 1 + q |G| delta(hol_p = 1),
    since wp commutes with every L^g and wp^8 = (1+q) P_1 + q P_0; a closed star
    gives delta(h_v = 1) + q; a dangling plaquette pair, reduced with its
    inverse weight, gives sqrt|G| delta(gamma_e = g_e), or g_e^{-1} where
    `gamma_inverted`; a dangling vertex's weight cancels. So, with q = gamma_{beta/2},

        T = sum_{g,h} |G|^{E_b/2} prod_{interior v} (delta(h_v = 1) + q)
            prod_p (1 + q |G| delta(hol_p(g) = 1)) |ket(g, h), g><gamma(g), h_dangling|,

    where hol_p folds g_e^{sign} in the order of `lattice.edges_of_plaquette`
    and E_b counts the boundary edges. `t_sparse` lays those |G|^(E+V) terms
    out once, in column order, as a CSC matrix whose columns each hold
    |G|^(interior edges + interior vertices) of them, and sums the terms that
    meet at one entry (on the torus, whose columns are one); rows are the kets
    then the purifiers of `self.edges`, columns the boundary edges of `cls` (by
    gamma) then its boundary vertices.
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

    @property
    def phys_dim(self) -> int:
        return self.group.order ** (2 * len(self.edges))

    @property
    def reduced_dim(self) -> int:
        """Dimension of the reduced boundary basis: one label per boundary edge and vertex."""
        return self.group.order ** (len(self.cls.boundary_edges) + len(self.cls.boundary_vertices))

    @functools.cached_property
    def t_sparse(self) -> sp.csc_matrix:
        """T as a sparse (phys_doubled, reduced_dim) CSC matrix, one entry per gauge
        configuration, laid out in column order so that nothing is sorted.

        The configuration axes are the boundary edges and the boundary vertices,
        in the order of T's column digits, then the interior edges and the
        interior vertices; the C-order ravel of the configurations is then T's
        column order, each column holding the |G|^(interior axes) configurations
        that share its reduced labels. On a gamma-inverted boundary edge the axis
        runs over gamma = g_e^{-1}, the column digit, so the small tables of that
        edge are indexed by g_e = gamma^{-1} before they are spread. The row and
        value arrays are each one array over the configuration axes, summed or
        multiplied from small per-edge, per-vertex and per-plaquette tables by
        broadcasting, and become the matrix's indices and data without a copy;
        they and the column pointers are checked against the dense budget before
        any of them is made."""
        import scipy.sparse as sp

        G, lat, cls = self.group, self.lattice, self.cls
        n, mul, inv = G.order, G.mul, G.inv
        n_edges = len(self.edges)
        order = [*cls.boundary_edges, *cls.boundary_vertices, *cls.interior_edges, *cls.interior_vertices]
        axis = {x: i for i, x in enumerate(order)}
        ndim = len(axis)
        shape = (n,) * ndim
        nnz, n_cols = n**ndim, self.reduced_dim
        index = np.dtype(np.int32 if max(self.phys_dim, nnz) < 2**31 else np.int64)  # scipy's choice, so no copy
        linalg.require_fits((nnz * (index.itemsize + 8) + (n_cols + 1) * index.itemsize,), np.uint8)
        g = np.arange(n)
        label = {e: inv if cls.gamma_inverted[e] else g for e in cls.boundary_edges}  # axis value -> g_e
        ket = mul[mul.T[:, :, None], inv]  # [g, h, k] -> h g k^-1
        row = np.zeros(shape, index)
        for i, e in enumerate(self.edges):
            away, toward = lat.vertices_of_edge(e)
            digits = ket * n ** (2 * n_edges - 1 - i) + g[:, None, None] * n ** (n_edges - 1 - i)
            row += _spread(digits[label.get(e, g)].astype(index), [axis[e], axis[away], axis[toward]], ndim)
        q = gamma_beta(self.beta / 2, n)
        value = np.full(shape, float(n) ** (len(cls.boundary_edges) / 2))
        closed_star = q + (g == 0)
        for v in cls.interior_vertices:
            value *= _spread(closed_star, [axis[v]], ndim)
        for p in self.region.plaquettes():
            word, axes = np.zeros((), np.int64), []
            for e, sign in lat.edges_of_plaquette(p):
                factor = label.get(e, g)
                word = mul[word[..., None], factor if sign > 0 else inv[factor]]
                axes.append(axis[e])
            value *= _spread(1.0 + q * n * (word == 0), axes, ndim)
        t = sp.csc_matrix(
            (value.ravel(), row.ravel(), np.arange(0, nnz + 1, nnz // n_cols, dtype=index)),
            shape=(self.phys_dim, n_cols),
        )
        if not cls.boundary_vertices:
            # configurations meet at one entry only when no vertex dangles (the
            # torus): a dangling h_v fixes every other h_v through the kets and g
            t.sum_duplicates()
        return t

    def t_matrix(self) -> np.ndarray:
        """Dense reduced boundary map, shape (phys_doubled, reduced_dim)."""
        linalg.require_fits((self.phys_dim, self.reduced_dim))
        return self.t_sparse.toarray()

    def t_apply(self, y: np.ndarray) -> np.ndarray:
        """T y for a reduced boundary vector y (or a batch of columns)."""
        y = np.asarray(y)
        linalg.require_fits((self.phys_dim, y.shape[1] if y.ndim == 2 else 1))
        return self.t_sparse @ y

    def t_dagger_apply(self, x: np.ndarray) -> np.ndarray:
        """T^dagger x for a doubled physical vector x (or a batch of columns); T is real."""
        return self.t_sparse.T @ np.asarray(x)
