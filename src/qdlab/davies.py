"""Davies generators for the quantum double model: jump operators, KMS rates,
the GNS-vectorized Hamiltonian H~, kernel projectors, and the gap chain."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .groups import FiniteGroup
from .lattice import Edge
from .linalg import (
    FeasibilityError,
    LinearMapHandle,
    apply_on_sites,
    dagger,
    lowest_eigs_matrix_free,
    matrix_power_hermitian,
    require_fits,
    sites_first_axes,
    vectorize,
)
from .quantum_double import QuantumDoubleModel, gibbs_state

if TYPE_CHECKING:
    import scipy.sparse as sp

BOHR_FREQUENCIES = tuple(range(-4, 5))


class CouplingError(ValueError):
    pass


class RateError(ValueError):
    pass


# -- couplings -------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingSet:
    """Per-edge Hermitian jump operators; identical on every edge (translation invariant).

    So `DaviesGenerator.build` computes the jumps, and `HTilde` each L_e, once per
    translation class of edges, and every edge of a class shares them, its support
    listed in the leg order of the class's first edge, translated. Couplings that
    differ from edge to edge would need to be part of that class key.
    """

    operators: tuple[np.ndarray, ...]
    label: str = "custom"


def hermitian_unit_basis(d: int) -> list[np.ndarray]:
    """{E_gg} + {E_gh + E_hg} + {i(E_gh - E_hg)} for g < h: spans all of M_d."""
    out = []
    for g in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[g, g] = 1.0
        out.append(m)
    for g in range(d):
        for h in range(g + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[g, h] = m[h, g] = 1.0
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[g, h] = 1.0j
            m[h, g] = -1.0j
            out.append(m)
    return out


def _commutator_stack(operators) -> np.ndarray:
    """K with K vec(X) = (vec [S_a, X])_a for row-major vec."""
    eye = np.eye(operators[0].shape[0])
    return np.vstack([np.kron(s, eye) - np.kron(eye, s.T) for s in operators])


def commutant_dimension(operators) -> int:
    """Dimension of {X : [X, S_a] = 0 for all a} inside M_d."""
    d = operators[0].shape[0]
    return d * d - np.linalg.matrix_rank(_commutator_stack(operators), tol=1e-10)


def default_coupling(group: FiniteGroup) -> CouplingSet:
    return CouplingSet(operators=tuple(hermitian_unit_basis(group.order)), label="matrix-units")


def validate_coupling(operators) -> None:
    for i, s in enumerate(operators):
        if np.abs(s - dagger(s)).max() > 1e-12:
            raise CouplingError(f"coupling operator {i} is not Hermitian")
    dim = commutant_dimension(operators)
    if dim != 1:
        raise CouplingError(f"coupling commutant has dimension {dim}; need 1 for ergodicity")


# -- KMS rates --------------------------------------------------------------------


@dataclass(frozen=True)
class RateFunction:
    beta: float
    form: str
    table: dict  # omega -> rate

    @property
    def g_min(self) -> float:
        return min(self.table.values())

    def __call__(self, omega: int) -> float:
        return self.table[omega]

    def kms_defect(self) -> float:
        worst = 0.0
        for w in BOHR_FREQUENCIES:
            if w <= 0:
                continue
            lhs = self.table[-w]
            rhs = np.exp(-self.beta * w) * self.table[w]
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        return worst


def kms_rates(beta: float, form: str = "exponential-half", table: dict | None = None) -> RateFunction:
    """Default rate family g(w) = e^{beta w / 2}; custom tables must satisfy KMS."""
    if form == "exponential-half":
        table = {w: float(np.exp(beta * w / 2.0)) for w in BOHR_FREQUENCIES}
    elif form == "custom":
        if table is None:
            raise RateError("custom rate form needs a table")
        if stray := [w for w in table if not isinstance(w, (int, np.integer)) or w not in BOHR_FREQUENCIES]:
            raise RateError(f"rate table keys {stray} are not Bohr frequencies")
        table = {int(w): float(v) for w, v in table.items()}
        missing = [w for w in BOHR_FREQUENCIES if w not in table]
        if missing:
            raise RateError(f"rate table misses Bohr frequencies {missing}")
    else:
        raise RateError(f"unknown rate form {form!r}")
    rf = RateFunction(beta=beta, form=form, table=table)
    if any(v <= 0 for v in table.values()):
        raise RateError("rates must be strictly positive")
    defect = rf.kms_defect()
    if defect > 1e-10:
        raise RateError(f"rate table violates the KMS condition (worst ratio defect {defect:.3e})")
    return rf


# -- Fourier components --------------------------------------------------------------


@dataclass
class JumpDecomposition:
    """The Davies jumps of one edge: for each coupling operator S, the dense
    S(w) on the support edges for the Bohr frequencies w at which S makes a
    transition (S(w) = 0 at the others, which are left out).

    An S that is real up to a phase, S = c R with c the phase of its first
    nonzero entry, has S(w) = c R(w): float64 for c = +-1, complex for c = +-i
    (a Hermitian S real up to a phase has one of these four). Every default
    coupling operator is of this kind; any other S gives complex S(w).

    The edges of one translation class (`DaviesGenerator.build`) share one
    `components` list: the S(w) of the class's first edge, the representative.
    Each other edge's `support` is the representative's, translated onto it and
    kept in the representative's leg order, so the S(w) are the same matrices.
    """

    support: tuple[Edge, ...]
    components: list[dict]  # per coupling operator: omega -> S(omega)


def _local_patch(model: QuantumDoubleModel, e: Edge) -> tuple[QuantumDoubleModel, list, list]:
    """The patch supporting the edge's stars and plaquettes, and those stars and plaquettes."""
    lat = model.lattice
    have_stars = set(map(tuple, model.stars()))
    have_plaqs = set(map(tuple, model.plaquettes()))
    stars = [v for v in lat.vertices_of_edge(e) if tuple(v) in have_stars]
    plaqs = [p for p in lat.plaquettes_of_edge(e) if tuple(p) in have_plaqs]
    support = {e}
    for v in stars:
        support.update(ed for ed, _ in lat.edges_of_star(v))
    for p in plaqs:
        support.update(ed for ed, _ in lat.edges_of_plaquette(p))
    sub = QuantumDoubleModel(model.group, lat, tuple(sorted(support, key=lat.edge_index)))
    return sub, stars, plaqs


def level_projectors(model: QuantumDoubleModel, e: Edge) -> tuple[QuantumDoubleModel, dict, int]:
    """The edge's support patch, {k: scale Q_k} over the non-empty levels k, and scale.

    Q_k projects onto the states where exactly k of the edge's star and plaquette
    terms P hold; the terms commute, so Q <- {k: Q_k (1 - P) + Q_{k-1} P} over
    the terms builds them. |G| A(v) is a 0/1 matrix (each g moves a basis state
    to another; `rint` undoes the rounding of star_operator's 1/|G|) and B(p) a
    0/1 diagonal, so with scale = |G|^(#stars) every scale Q_k is an integer
    matrix, computed exactly.
    """
    sub, stars, plaqs = _local_patch(model, e)
    n = model.group.order
    terms = [(np.rint(n * sub.star_operator(v, embed=True)), n) for v in stars]
    terms += [(sub.plaquette_operator(p, embed=True), 1) for p in plaqs]
    eye = np.eye(sub.dim)
    qs = [eye]
    for m, c in terms:
        nxt = [q @ (c * eye - m) for q in qs] + [np.zeros_like(eye)]
        for k, q in enumerate(qs):
            nxt[k + 1] += q @ m
        qs = nxt
    return sub, {k: q for k, q in enumerate(qs) if q.any()}, n ** len(stars)


def _phase_split(m: np.ndarray) -> tuple[complex | float, np.ndarray]:
    """(c, R) with m = c R: when m is exactly real up to the phase c of its first
    nonzero entry, R is float64 (and c = 1 for a real or zero m); else (1, m)."""
    if not np.iscomplexobj(m):
        return 1.0, m
    flat = m.ravel()
    nonzero = np.flatnonzero(flat)
    c = flat[nonzero[0]] / abs(flat[nonzero[0]]) if nonzero.size else 1.0
    r = m * np.conj(c)
    if r.imag.any():
        return 1.0, m
    return (c.real if c.imag == 0 else c), r.real


def fourier_components(model: QuantumDoubleModel, e: Edge, operators) -> JumpDecomposition:
    """S(w) = sum_k Q_{k+w} S Q_k for each coupling operator S acting on the edge.

    With H = -(sum of the <= 4 local projector terms), S(w) collects the
    transitions raising the number of satisfied terms by w, so that
    e^{itH} S e^{-itH} = sum_w e^{-iwt} S(w). The sums run over the integer
    scale Q_k of `level_projectors` and are divided by scale^2 once, so an
    entry is exactly zero where the transition is absent, and an S(w) that is
    zero is not stored. An S that is real up to its phase c (`_phase_split`)
    is summed as the real R = S c^* and stored as c R(w): scale Q_k and R are
    small-integer matrices, so these are the values of the complex sums, bit
    for bit. FeasibilityError is raised before the stored S(w) of the edge
    exceed the dense budget in bytes.
    """
    sub, levels, scale = level_projectors(model, e)
    components = []
    stored = 0  # bytes of the stored S(w)
    for s_op in operators:
        c, s_op = _phase_split(s_op)
        s_emb = sub._embed_multi([e], s_op)
        s_q = {k: s_emb @ q for k, q in levels.items()}
        comps = {}
        for w in BOHR_FREQUENCIES:
            acc = np.zeros_like(s_emb)
            for k, sq in s_q.items():
                if k + w in levels:
                    acc += levels[k + w] @ sq
            if acc.any():
                stored += acc.size * np.result_type(acc, c).itemsize
                require_fits((stored,), np.uint8)
                comps[w] = c * (acc / scale**2)
        components.append(comps)
    return JumpDecomposition(support=sub.edge_list, components=components)


# -- the Davies generator ------------------------------------------------------------------


@dataclass
class DaviesGenerator:
    """All jump data of the dissipative generator on a model (torus or patch)."""

    model: QuantumDoubleModel
    beta: float
    coupling: CouplingSet
    rates: RateFunction
    jumps: dict = field(default_factory=dict)  # edge -> JumpDecomposition

    @classmethod
    def build(cls, model: QuantumDoubleModel, beta: float, coupling: CouplingSet | None = None,
              rates: RateFunction | None = None) -> "DaviesGenerator":
        coupling = coupling or default_coupling(model.group)
        validate_coupling(coupling.operators)
        rates = rates or kms_rates(beta)
        gen = cls(model=model, beta=beta, coupling=coupling, rates=rates)
        lat = model.lattice
        stars, plaqs = set(model.stars()), set(model.plaquettes())
        reps = {}  # translation class -> its first edge
        stored = 0  # bytes of each class's S(w), checked against the dense budget
        for e in model.edge_list:
            # the coupling is the same on every edge, so an edge's jumps follow from its
            # orientation and which of its stars and plaquettes the model has
            key = (e.orientation, tuple(v in stars for v in lat.vertices_of_edge(e)),
                   tuple(p in plaqs for p in lat.plaquettes_of_edge(e)))
            r = reps.setdefault(key, e)
            if r == e:
                gen.jumps[e] = dec = fourier_components(model, e, coupling.operators)
                stored += sum(s.nbytes for comps in dec.components for s in comps.values())
                require_fits((stored,), np.uint8)
            else:
                rep = gen.jumps[r]
                support = tuple(lat.norm_edge(f.orientation, f.x + e.x - r.x, f.y + e.y - r.y) for f in rep.support)
                gen.jumps[e] = JumpDecomposition(support=support, components=rep.components)
        return gen


# -- H~ (vectorized GNS Hamiltonian) ----------------------------------------------------------


class HTilde:
    """H~ = sum_e H~_e on the doubled space, equal to -iota L iota^{-1}, held as one
    CSR matrix `matrix`, so that `apply` is one sparse product.

    The jumps S(w) of edge e act only on its support, the edges of its stars and
    plaquettes, whose space has dimension D. With iota delta_{alpha,w} iota^{-1} = c (1 x S^T) - (S x 1)
    on row-major vectors and c = e^{-beta w/2}, H~_e is, on the ket and bra legs of
    that support, the sparse D^2 x D^2 Dirichlet form

        L_e = sum_{alpha,w} g(w)/2 D^dag D = B^dag B,    D = c (1 x S^T) - S x 1,

    with B the stack of the sqrt(g(w)/2) D, and the identity on every other leg;
    `linalg.sites_first_axes` gives the leg layout. L_e is Hermitian and positive
    semidefinite by construction. `fourier_components` leaves an entry of S(w)
    exactly zero where its transition is absent, so B holds only the true jumps.
    S -> S c^* with |c| = 1 multiplies D by c^*, so L_e is unchanged: it is built
    from the real R of each S(w) = c R (`_phase_split`) and is float64 when every
    S(w) of the edge is real up to a phase, as for the default coupling; otherwise
    it is complex. `local` keeps each L_e; `matrix` is their sum, each embedded
    into the doubled space (`_embedded`), float64 when every L_e is, and is built
    only when `apply` first needs it; its budget is checked here. `apply_edges`
    applies the L_e of a subset of the edges one by one, for the local gap check.
    Both return the dtype of their input and the matrices they apply, so on real
    L_e a real vector stays real and the eigensolves run in real arithmetic.

    The edges of a translation class share their S(w) (`JumpDecomposition`), so
    they share one L_e too: it is built, and its row-sum norm taken, once per
    class, and each edge holds that one CSR matrix with its own positions, those
    of its support in the representative's translated leg order.
    """

    def __init__(self, gen: DaviesGenerator):
        shared = {}  # id of a class's shared S(w) -> its L_e
        local = {}
        for e, dec in gen.jumps.items():
            if id(dec.components) not in shared:
                shared[id(dec.components)] = _local_generator(gen, dec, gen.model.local_dim ** len(dec.support))
            local[e] = ([gen.model.edge_pos[f] for f in dec.support], shared[id(dec.components)])
        self._hold(gen.model, local)

    def _hold(self, model: QuantumDoubleModel, local: dict) -> None:
        """Keep `local`, edge -> (positions of its support edges, L_e), on `model`,
        with the norm bound, and check the budget of assembling `matrix`."""
        self.model = model
        self.dim = model.dim**2
        self.local = local
        norms = {id(gen_e): float(abs(gen_e).sum(axis=1).max()) for _, gen_e in local.values()}
        # sum_e ||L_e||_inf >= ||H~||, as L_e is Hermitian
        self.norm_bound = sum(norms[id(gen_e)] for _, gen_e in local.values())
        self.dtype = np.result_type(*(gen_e.dtype for _, gen_e in local.values()))
        # `matrix` adds each embedded L_e to a running sum, holding the old sum, the new
        # one before scipy prunes it (each at most every embedded entry) and the edge's
        # embedded copies: a value and an int32 column index each, and three row pointers
        sizes = [gen_e.nnz * (self.dim // gen_e.shape[0]) for _, gen_e in self.local.values()]
        entries = 2 * sum(sizes) + max(sizes)
        require_fits((entries * (self.dtype.itemsize + 4) + 3 * 4 * (self.dim + 1),), np.uint8)

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """H~ in CSR, built on the first `apply` as a running sum over the edges: one
        COO of every edge's entries would hold them all at once, with int64 indices."""
        import scipy.sparse as sp

        total = sp.csr_matrix((self.dim, self.dim), dtype=self.dtype)
        for pos, gen_e in self.local.values():
            total = total + _embedded(self.model, pos, gen_e)
        return total

    def apply_edges(self, x: np.ndarray, edges) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.result_type(x, *(self.local[e][1].dtype for e in edges)))
        for e in edges:
            pos, gen_e = self.local[e]
            out += apply_on_sites(x, self.model.local_dim, self.model.n_edges, pos, lambda m: gen_e @ m)
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def on_patch(self, e: Edge, patch: QuantumDoubleModel) -> "HTilde":
        """H~_e alone on `patch`, a model holding e's support: the same L_e object,
        at the patch's positions of that support."""
        pos, gen_e = self.local[e]
        out = HTilde.__new__(HTilde)
        out._hold(patch, {e: ([patch.edge_pos[self.model.edge_list[i]] for i in pos], gen_e)})
        return out


def _embedded(model: QuantumDoubleModel, pos: list[int], gen_e: sp.csr_matrix) -> sp.csr_matrix:
    """L_e x 1 on the doubled space in CSR. With idx[i, r] the doubled index at row i,
    column r of the matrix view of `linalg.apply_on_sites`, entry (i, j) of L_e lands at
    (idx[i, r], idx[j, r]) for every state r of the other legs: one copy of L_e per r,
    its columns relabelled by idx, then its rows put in doubled order. The indices are
    int32, as scipy stores them: HTilde's budget check keeps the dimension below 2^29."""
    import scipy.sparse as sp

    legs = (model.local_dim,) * (2 * model.n_edges)
    idx = np.arange(model.dim**2, dtype=np.int32).reshape(legs).transpose(sites_first_axes(model.n_edges, pos))
    idx = idx.reshape(gen_e.shape[0], -1)  # a sum of place values: idx[i, r] = idx[i, 0] + idx[0, r]
    n_r = idx.shape[1]
    indptr = np.append((gen_e.indptr[:-1] + gen_e.nnz * np.arange(n_r)[:, None]).ravel(), gen_e.nnz * n_r)
    cols = (idx[0, :, None] + idx[gen_e.indices, 0]).ravel()
    copies = sp.csr_matrix((np.tile(gen_e.data, n_r), cols, indptr), shape=(idx.size, idx.size))
    order = np.empty(idx.size, dtype=np.int32)
    order[idx.T.ravel()] = np.arange(idx.size, dtype=np.int32)
    return copies[order]


def _local_generator(gen: DaviesGenerator, dec: JumpDecomposition, d: int) -> sp.csr_matrix:
    """L_e = B^dag B of HTilde in CSR, on the edge's support of dimension d. B stacks
    d^2 rows per jump (w, R), R = S(w) c^* the real form of S(w) when it is real up
    to a phase: sqrt(g(w)/2) (c (1 x R^T) - R x 1), written entry by entry. Row (x, y)
    of a jump's block holds at most the nonzeros of R's row x and of its column y, so
    B's row counts bound the product's entries; the build's arrays are checked
    against the dense budget before B's first triplet is made."""
    import scipy.sparse as sp

    jumps = [(w, _phase_split(s)[1]) for comps in dec.components for w, s in comps.items()]
    entries = products = 0  # B's triplets; the sum over B's rows of their squared counts
    for _, r in jumps:
        in_rows, in_cols = np.count_nonzero(r, axis=1), np.count_nonzero(r, axis=0)
        nnz = int(in_rows.sum())
        entries += 2 * d * nnz
        products += d * int(in_rows @ in_rows + in_cols @ in_cols) + 2 * nnz**2
    value = np.result_type(*(r for _, r in jumps)).itemsize
    # held at once at most: every R; B's triplets (int64 rows and columns) as pieces and
    # joined, with their int32 COO indices; B, its conjugate and scipy's CSC copy of B
    # for the product; the product and its CSR copy; the five matrices' int64 pointers
    held = sum(r.nbytes for _, r in jumps) + entries * (2 * (16 + value) + 8 + 3 * (4 + value))
    require_fits((held + products * 2 * (8 + value) + 8 * (2 * len(jumps) + 3) * (d * d + 1),), np.uint8)
    a = np.arange(d)[:, None]
    rows, cols, vals = [], [], []
    for j, (w, r) in enumerate(jumps):
        # the half makes H~ equal to -iota L iota^{-1}: the +-omega pairing in the
        # Dirichlet form double counts each squared commutator
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


# -- kernel projectors (iota images) -----------------------------------------------------------


class IotaKernelProjector:
    """Orthogonal projector onto {iota(Q) : Q in B(H_{E \\ X})} on the doubled space,
    applied to the matrix view of a vector in the edge order (rest, X) (`linalg.sites_first_axes`)."""

    def __init__(self, model: QuantumDoubleModel, rho: np.ndarray, x_edges: tuple[Edge, ...]):
        self.model = model
        pos = [model.edge_pos[e] for e in x_edges]
        self.order = [i for i in range(model.n_edges) if i not in pos] + pos
        self.d_e = model.local_dim ** len(pos)
        self.d_r = model.dim // self.d_e
        legs = (model.local_dim,) * (2 * model.n_edges)
        rho_p = rho.reshape(legs).transpose(sites_first_axes(model.n_edges, self.order)).reshape(rho.shape)
        self.sigma_p = matrix_power_hermitian(rho_p, 0.5)
        rho_red = np.trace(rho_p.reshape(self.d_r, self.d_e, self.d_r, self.d_e), axis1=1, axis2=3)
        self.rho_red_inv = np.linalg.inv(rho_red)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return apply_on_sites(x, self.model.local_dim, self.model.n_edges, self.order, self._apply_view)

    def _apply_view(self, xm: np.ndarray) -> np.ndarray:
        d = self.model.dim
        z = xm.reshape(d, d) @ self.sigma_p
        w = np.trace(z.reshape(self.d_r, self.d_e, self.d_r, self.d_e), axis1=1, axis2=3)
        m = w @ self.rho_red_inv
        return m @ self.sigma_p.reshape(self.d_r, self.d_e * d)


def thermofield_vector(model: QuantumDoubleModel, beta: float, rho: np.ndarray | None = None) -> np.ndarray:
    rho = gibbs_state(model, beta) if rho is None else rho
    v = vectorize(matrix_power_hermitian(rho, 0.5))
    return v / np.linalg.norm(v)


# -- local gap constants --------------------------------------------------------------------


def c1_constant(model: QuantumDoubleModel, e: Edge) -> float:
    """Operator norm of the sum of the local terms of the edge (stars + plaquettes):
    their number, as the quantum double is frustration free and some state
    satisfies all of them at once."""
    _, stars, plaqs = _local_patch(model, e)
    return float(len(stars) + len(plaqs))


def c2_constant(coupling: CouplingSet) -> float:
    """min of sum_a ||[X, S_a]||^2 over traceless X with ||X|| = 1.

    That is the second-smallest eigenvalue of K^dag K for the commutator stack K,
    whose kernel is span(1) (the commutant of a validated coupling) and is
    orthogonal to the traceless matrices.
    """
    k = _commutator_stack(coupling.operators)
    return float(np.linalg.eigvalsh(dagger(k) @ k)[1])


@dataclass
class LocalGapCheck:
    c1: float
    c2: float
    g_min: float
    n_omega: int
    bound: float
    min_eig: float
    passed: bool


def local_gap_check(
    gen: DaviesGenerator,
    htilde: HTilde,
    e: Edge,
    rho: np.ndarray,
    seed: int = 0,
    tol: float = 1e-7,
) -> LocalGapCheck:
    """lambda_min( H~_e - bound * Pi_e^perp ) >= -1e-9 with the stated constants."""
    model = gen.model
    c1 = c1_constant(model, e)
    c2 = c2_constant(gen.coupling)
    g_min = gen.rates.g_min
    n_omega = len(BOHR_FREQUENCIES)
    bound = (c2 / n_omega) * g_min * float(np.exp(-c1 * gen.beta))
    pi_e = IotaKernelProjector(model, rho, (e,))

    def matvec(x):
        hx = htilde.apply_edges(x, [e])
        perp = x - pi_e.apply(x)
        return hx - bound * perp

    vals = lowest_eigs_matrix_free(LinearMapHandle(dim=htilde.dim, apply=matvec), k=1, seed=seed, tol=tol)
    return LocalGapCheck(
        c1=c1, c2=c2, g_min=g_min, n_omega=n_omega,
        bound=bound, min_eig=float(vals[0]), passed=vals[0] >= -1e-9,
    )


# -- gaps and the chain ------------------------------------------------------------------------


def davies_gap(htilde: HTilde, tfd: np.ndarray, seed: int = 0, tol: float = 1e-8) -> float:
    """Smallest nonzero eigenvalue of H~, deflating the thermofield double with a
    shift of H~'s norm bound, which no eigenvalue exceeds."""
    vals = lowest_eigs_matrix_free(
        LinearMapHandle(dim=htilde.dim, apply=htilde.apply), k=1, seed=seed, tol=tol, deflate=[tfd],
        shift=htilde.norm_bound,
    )
    return float(vals[0])


@dataclass
class ChainInequality:
    name: str
    lhs: float
    rhs: float
    sense: str  # ">=" or "<="
    passed: bool
    note: str = ""


@dataclass
class GapChainReport:
    group: str
    lattice_n: int
    beta: float
    coupling: str
    rate_form: str
    n_parent: int
    constants: dict
    gaps: dict
    inequalities: list[ChainInequality]
    final_bound: float
    passed: bool
    seed: int


def parent_link_passed(lhs: float, rhs: float, gap_parent: float, tol: float) -> bool:
    """lhs >= rhs for a link whose rhs is a positive multiple of the parent gap,
    with that gap resolved above the eigensolver tolerance `tol`; a parent gap at
    roundoff level (either sign) fails."""
    return gap_parent > tol and rhs > 0 and lhs >= rhs - 1e-9


def gap_chain(
    model: QuantumDoubleModel,
    beta: float,
    coupling: CouplingSet | None = None,
    rates: RateFunction | None = None,
    seed: int = 0,
    tol: float = 1e-7,
) -> GapChainReport:
    """Numerically certify every link of the Davies-to-parent-Hamiltonian chain."""
    from .gap_tools import PARENT_MAX_SIDE, complement_gap, n_beta, parent_hamiltonian

    if model.edges is not None:
        raise FeasibilityError("the gap chain runs on the full torus model")
    if beta <= 0:
        raise ValueError(f"the gap chain needs beta > 0, where the parent Hamiltonian is defined; got {beta}")
    gen = DaviesGenerator.build(model, beta, coupling, rates)
    ht = HTilde(gen)
    rho = gibbs_state(model, beta)
    tfd = thermofield_vector(model, beta, rho)
    rng = np.random.default_rng(seed)

    # stage gaps
    gap_l = davies_gap(ht, tfd, seed=seed, tol=tol)
    pis = {e: IotaKernelProjector(model, rho, (e,)) for e in model.edge_list}
    gap_pi, pi_tfd_residual = complement_gap(list(pis.values()), ht.dim, [tfd], seed=seed, tol=tol)

    ph = parent_hamiltonian(model, beta)
    m_count = ph.max_terms_per_edge()
    gap_par, tfd_residual = complement_gap(ph.projectors, ph.dim, [tfd], seed=seed + 1, tol=tol)

    ineqs = []
    # (0) per-edge local bound H~_e >= local_pref Pi_e^perp, checked at one edge
    # on the patch of its stars and plaquettes, from the torus's jumps and L_e of
    # that edge; the chain reuses its constants
    e0 = model.edge_list[0]
    patch = _local_patch(model, e0)[0]
    gen0 = DaviesGenerator(patch, beta, gen.coupling, gen.rates)
    lg = local_gap_check(gen0, ht.on_patch(e0, patch), e0, gibbs_state(patch, beta), seed=seed, tol=tol)
    local_pref = lg.bound
    ineqs.append(
        ChainInequality(
            name="local: min_eig(Htilde_e - c Pi_e_perp) >= 0",
            lhs=lg.min_eig, rhs=-1e-9, sense=">=", passed=lg.passed,
        )
    )
    # (1) gap(L) >= local_pref * gap(sum Pi_e^perp)
    rhs1 = local_pref * gap_pi
    ineqs.append(
        ChainInequality(name="gap(L) >= (C2/|Omega|) g_min e^{-C1 beta} gap(sum Pi_perp)",
                        lhs=gap_l, rhs=rhs1, sense=">=", passed=gap_l >= rhs1 - 1e-9)
    )
    # (2) probe check Pi_X^perp <= sum_{e in X} Pi_e^perp and P_X >= Pi_X, 3 probes per region
    worst_sub = 0.0
    worst_ker = 0.0
    for x_reg, proj in zip(ph.family[:4], ph.projectors[:4]):
        x_edges = tuple(x_reg.edges())
        pi_x = IotaKernelProjector(model, rho, x_edges)
        for _ in range(3):
            v = rng.standard_normal(ht.dim)
            v /= np.linalg.norm(v)
            lhs = np.vdot(v, v - pi_x.apply(v)).real
            rhs = sum(np.vdot(v, v - pis[e].apply(v)).real for e in x_edges)
            worst_sub = max(worst_sub, lhs - rhs)
            # ker Pi_X^perp inside Im P_X: P_X pi_x v = pi_x v
            w = pi_x.apply(v)
            worst_ker = max(worst_ker, np.linalg.norm(proj.apply(w) - w) / max(np.linalg.norm(w), 1e-300))
    ineqs.append(ChainInequality(name="Pi_X^perp <= sum_e Pi_e^perp (probes)",
                                 lhs=worst_sub, rhs=1e-9, sense="<=", passed=worst_sub <= 1e-9))
    ineqs.append(ChainInequality(name="ker(Pi_X^perp) inside Im(P_X) (probes)",
                                 lhs=worst_ker, rhs=1e-8, sense="<=", passed=worst_ker <= 1e-8))
    # (3) gap(sum Pi_perp) >= gap(H_parent) / m
    rhs3 = gap_par / max(m_count, 1)
    ineqs.append(
        ChainInequality(name="gap(sum Pi_perp) >= gap(H_parent)/m",
                        lhs=gap_pi, rhs=rhs3, sense=">=",
                        passed=parent_link_passed(gap_pi, rhs3, gap_par, tol),
                        note=f"m={m_count}, parent kernel residual {tfd_residual:.2e}")
    )
    final_bound = local_pref * gap_par / max(m_count, 1)
    ineqs.append(
        ChainInequality(name="final: gap(L) >= c gap(H_parent)/m > 0",
                        lhs=gap_l, rhs=final_bound, sense=">=",
                        passed=parent_link_passed(gap_l, final_bound, gap_par, tol))
    )
    passed = all(iq.passed for iq in ineqs)
    return GapChainReport(
        group=model.group.label,
        lattice_n=model.lattice.N,
        beta=beta,
        coupling=gen.coupling.label,
        rate_form=gen.rates.form,
        n_parent=PARENT_MAX_SIDE,
        constants={
            "C1": lg.c1, "C2": lg.c2, "g_min": lg.g_min, "n_omega": lg.n_omega,
            "m_X": m_count, "n_beta": n_beta(beta, model.group.order),
            "local_prefactor": local_pref,
        },
        gaps={"davies": gap_l, "sum_pi_perp": gap_pi, "sum_pi_perp_tfd_residual": pi_tfd_residual,
              "parent": gap_par, "parent_tfd_residual": tfd_residual},
        inequalities=ineqs,
        final_bound=final_bound,
        passed=passed,
        seed=seed,
    )
