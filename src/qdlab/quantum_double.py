"""Star/plaquette operators of the quantum double model, and its Gibbs state as the product
e^{-beta H} = prod_t (1 + (e^beta - 1) P_t) over its commuting terms, stars first, then plaquettes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteGroup
from .lattice import Edge, Region, TorusLattice
from .linalg import kron, require_fits, sites_first_axes


def gamma_beta(beta: float, order: int) -> float:
    """(e^beta - 1)/|G|, the scalar controlling all weight and error formulas."""
    return float(np.expm1(beta)) / order


@dataclass(frozen=True)
class QuantumDoubleModel:
    """Quantum double model of a finite group on the torus or on an edge patch.

    `edges` restricts to an open sub-collection; terms whose support leaves the
    patch are dropped.  With edges=None the model lives on the full torus.
    """

    group: FiniteGroup
    lattice: TorusLattice
    edges: tuple[Edge, ...] | None = None

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        if self.edges is not None:
            return tuple(sorted(self.edges, key=self.lattice.edge_index))
        return tuple(self.lattice.edges())

    @cached_property
    def edge_pos(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edge_list)}

    @property
    def n_edges(self) -> int:
        return len(self.edge_list)

    @property
    def local_dim(self) -> int:
        return self.group.order

    @property
    def dim(self) -> int:
        return self.group.order ** self.n_edges

    def restrict(self, region: Region) -> "QuantumDoubleModel":
        return QuantumDoubleModel(self.group, self.lattice, tuple(region.edges()))

    # -- star/plaquette membership on the patch ------------------------------

    def stars(self) -> list[tuple[int, int]]:
        have = set(self.edge_list)
        out = []
        for v in self.lattice.vertices():
            if all(e in have for e, _ in self.lattice.edges_of_star(v)):
                out.append(v)
        return out

    def plaquettes(self) -> list[tuple[int, int]]:
        have = set(self.edge_list)
        out = []
        for p in self.lattice.plaquettes():
            if all(e in have for e, _ in self.lattice.edges_of_plaquette(p)):
                out.append(p)
        return out

    # -- local operators ------------------------------------------------------

    def t_operator(self, v: tuple[int, int], e: Edge, g: int) -> np.ndarray:
        """Translation matrix on one edge: h -> gh if e points away from v, h -> h g^{-1} if towards."""
        star = dict((ed, away) for ed, away in self.lattice.edges_of_star(v))
        if e not in star:
            raise ValueError(f"edge {e} is not incident to vertex {v}")
        G = self.group
        n = G.order
        mat = np.zeros((n, n))
        h = np.arange(n)
        if star[e]:
            mat[G.mul[g, h], h] = 1.0
        else:
            mat[G.mul[h, G.inv[g]], h] = 1.0
        return mat

    def star_operator(self, v: tuple[int, int], embed: bool = False) -> np.ndarray:
        """A(v) = (1/|G|) sum_g tensor of T^g over the four incident edges."""
        G = self.group
        star = self.lattice.edges_of_star(v)
        d4 = self.local_dim**4
        acc = np.zeros((d4, d4))
        for g in G.elements():
            acc += kron(*[self.t_operator(v, e, g) for e, _ in star])
        acc /= G.order
        if not embed:
            return acc
        return self._embed_multi([e for e, _ in star], acc)

    def plaquette_operator(self, p: tuple[int, int], embed: bool = False) -> np.ndarray:
        """Diagonal projector enforcing trivial holonomy around the plaquette."""
        G = self.group
        n = G.order
        edges = self.lattice.edges_of_plaquette(p)
        grids = np.meshgrid(*[np.arange(n)] * 4, indexing="ij")
        word = np.zeros_like(grids[0])
        for (e, sign), g in zip(edges, grids):
            term = g if sign > 0 else G.inv[g]
            word = G.mul[word, term]
        diag = (word == 0).astype(float).reshape(-1)
        mat = np.diag(diag)
        if not embed:
            return mat
        return self._embed_multi([e for e, _ in edges], mat)

    def _embed_multi(self, support: list[Edge], op: np.ndarray) -> np.ndarray:
        """Embed an operator given on `support` (in that leg order) into the patch:
        the legs of op x 1 as an outer product are in the order of `sites_first_axes`."""
        require_fits((self.dim, self.dim), np.result_type(op, float))
        pos = [self.edge_pos[e] for e in support]
        if len(set(pos)) != len(pos):
            raise ValueError("support edges must be distinct")
        big = np.multiply.outer(op, np.eye(self.dim // op.shape[0]))
        axes = np.argsort(sites_first_axes(self.n_edges, pos))
        return big.reshape((self.local_dim,) * (2 * self.n_edges)).transpose(axes).reshape(self.dim, self.dim)


def gibbs_state(model: QuantumDoubleModel, beta: float) -> np.ndarray:
    """rho = e^{-beta H}/Tr e^{-beta H} (dense) for H = -sum_t P_t over the terms inside the patch.

    The terms commute, so e^{-beta H} = prod_t (1 + (e^beta - 1) P_t), multiplied in
    this order: the stars in `stars()` order, then the plaquettes in `plaquettes()` order.
    """
    if beta < 0:
        raise ValueError("inverse temperature must be >= 0")
    require_fits((model.dim, model.dim))
    terms = [(model.star_operator, v) for v in model.stars()]
    terms += [(model.plaquette_operator, p) for p in model.plaquettes()]
    w = np.eye(model.dim)
    for build, site in terms:
        w = w @ (np.eye(model.dim) + np.expm1(beta) * build(site, embed=True))
    return w / np.trace(w)
