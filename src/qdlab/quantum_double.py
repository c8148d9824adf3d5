"""Star/plaquette operators, the quantum double Hamiltonian and its Gibbs state."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteGroup
from .lattice import Edge, Region, TorusLattice
from .linalg import dagger, kron, require_fits


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
        """Embed an operator given on `support` (in that leg order) into the patch."""
        require_fits((self.dim, self.dim))
        n = self.local_dim
        k = len(support)
        ne = self.n_edges
        pos = [self.edge_pos[e] for e in support]
        if len(set(pos)) != k:
            raise ValueError("support edges must be distinct")
        rest = [i for i in range(ne) if i not in pos]
        big = np.kron(op, np.eye(n ** len(rest))).reshape([n] * (2 * ne))
        # axes now ordered (support..., rest...) on both sides; permute to global order
        src = {}
        for i, p in enumerate(pos):
            src[p] = i
        for i, p in enumerate(rest):
            src[p] = k + i
        perm = [src[g] for g in range(ne)] + [ne + src[g] for g in range(ne)]
        return big.transpose(perm).reshape(self.dim, self.dim)


@dataclass
class HamiltonianAssembly:
    model: QuantumDoubleModel
    star_terms: dict
    plaquette_terms: dict
    dense: np.ndarray | None = None

    @property
    def n_terms(self) -> int:
        return len(self.star_terms) + len(self.plaquette_terms)

    def terms(self):
        yield from self.star_terms.items()
        yield from self.plaquette_terms.items()


def full_hamiltonian(model: QuantumDoubleModel, dense: bool = True) -> HamiltonianAssembly:
    """H = -sum_v A(v) - sum_p B(p) with only the terms fully inside the patch."""
    stars = {v: model.star_operator(v, embed=dense) for v in model.stars()}
    plaqs = {p: model.plaquette_operator(p, embed=dense) for p in model.plaquettes()}
    h = None
    if dense:
        require_fits((model.dim, model.dim))
        h = np.zeros((model.dim, model.dim))
        for term in stars.values():
            h -= term
        for term in plaqs.values():
            h -= term
    return HamiltonianAssembly(model, stars, plaqs, h)


def gibbs_state(model: QuantumDoubleModel, beta: float, assembly: HamiltonianAssembly | None = None) -> np.ndarray:
    """rho_beta = e^{-beta H}/Tr e^{-beta H} (dense)."""
    if beta < 0:
        raise ValueError("inverse temperature must be >= 0")
    assembly = assembly or full_hamiltonian(model)
    w = exp_minus_beta_h(model, beta, assembly, half=False)
    return w / np.trace(w).real


def exp_minus_beta_h(
    model: QuantumDoubleModel, beta: float, assembly: HamiltonianAssembly | None = None, half: bool = True
) -> np.ndarray:
    """e^{-beta H / 2} (half=True) or e^{-beta H} as the product of commuting factors."""
    assembly = assembly or full_hamiltonian(model)
    t = beta / 2 if half else beta
    out = np.eye(model.dim)
    for _, term in assembly.terms():
        out = out @ exp_projector_term(term, 2 * t)
    return out


def exp_projector_term(term: np.ndarray, beta: float) -> np.ndarray:
    """e^{(beta/2) P} = 1 + (e^{beta/2} - 1) P for a projector P."""
    vals = np.linalg.eigvalsh((term + dagger(term)) / 2)
    if np.abs(vals * (1 - vals)).max() > 1e-10:
        raise ValueError("exp_projector_term requires a projector (spectrum in {0,1})")
    return np.eye(term.shape[0]) + np.expm1(beta / 2) * term
