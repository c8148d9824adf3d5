"""Davies generators for the quantum double model: jump operators, KMS rates,
the GNS-vectorized Hamiltonian H~, kernel projectors, and the gap chain."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup
from .lattice import Edge
from .linalg import (
    FeasibilityError,
    LinearMapHandle,
    dagger,
    hermitian_spectrum,
    lowest_eigs_matrix_free,
    matrix_power_hermitian,
    vectorize,
)
from .quantum_double import QuantumDoubleModel, gibbs_state

BOHR_FREQUENCIES = tuple(range(-4, 5))


class CouplingError(ValueError):
    pass


class RateError(ValueError):
    pass


# -- couplings -------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingSet:
    """Per-edge Hermitian jump operators; identical on every edge (translation invariant)."""

    operators: tuple[np.ndarray, ...]
    label: str = "matrix-units"


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


def commutant_dimension(operators) -> int:
    """Dimension of {X : [X, S_a] = 0 for all a} inside M_d."""
    d = operators[0].shape[0]
    rows = []
    eye = np.eye(d)
    for s in operators:
        rows.append(np.kron(s, eye) - np.kron(eye, s.T))
    big = np.vstack(rows)
    rank = np.linalg.matrix_rank(big, tol=1e-10)
    return d * d - rank


def default_coupling(group: FiniteGroup) -> CouplingSet:
    return CouplingSet(operators=tuple(hermitian_unit_basis(group.order)))


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
    edge: Edge
    alpha: int
    support: tuple[Edge, ...]
    components: dict  # omega -> dense operator on the support edges


def _local_term_sum(model: QuantumDoubleModel, e: Edge) -> tuple[QuantumDoubleModel, np.ndarray]:
    """The patch supporting the edge's stars and plaquettes, and their sum on it."""
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
    total = np.zeros((sub.dim, sub.dim))
    for v in stars:
        total += sub.star_operator(v, embed=True)
    for p in plaqs:
        total += sub.plaquette_operator(p, embed=True)
    return sub, total


def fourier_components(
    model: QuantumDoubleModel, e: Edge, s_op: np.ndarray, tol: float = 1e-9
) -> JumpDecomposition:
    """S(w) = sum over eigenprojector pairs of the local commuting Hamiltonian.

    With H = -(sum of the <= 4 local projector terms), S(w) collects the
    transitions raising the number of satisfied terms by w, so that
    e^{itH} S e^{-itH} = sum_w e^{-iwt} S(w).
    """
    sub, total = _local_term_sum(model, e)
    s_emb = sub._embed_multi([e], s_op)
    vals, vecs = hermitian_spectrum(total)
    ks = np.round(vals).astype(int)
    if np.abs(vals - ks).max() > tol:
        raise FeasibilityError("local term sum is not integer-spectral; not commuting projectors?")
    projs = {}
    for k in sorted(set(ks.tolist())):
        cols = vecs[:, ks == k]
        projs[k] = cols @ dagger(cols)
    comps = {}
    for w in BOHR_FREQUENCIES:
        acc = np.zeros_like(s_emb)
        for k, pk in projs.items():
            pk2 = projs.get(k + w)
            if pk2 is not None:
                acc = acc + pk2 @ s_emb @ pk
        comps[w] = acc
    return JumpDecomposition(edge=e, alpha=-1, support=sub.edge_list, components=comps)


# -- GNS plumbing -----------------------------------------------------------------------


def iota(q: np.ndarray, rho_sqrt: np.ndarray) -> np.ndarray:
    return vectorize(q @ rho_sqrt)


# -- the Davies generator ------------------------------------------------------------------


@dataclass
class DaviesGenerator:
    """All jump data of the dissipative generator on a model (torus or patch)."""

    model: QuantumDoubleModel
    beta: float
    coupling: CouplingSet
    rates: RateFunction
    jumps: dict = field(default_factory=dict)  # edge -> list over alpha of JumpDecomposition
    _embedded: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, model: QuantumDoubleModel, beta: float, coupling: CouplingSet | None = None,
              rates: RateFunction | None = None) -> "DaviesGenerator":
        coupling = coupling or default_coupling(model.group)
        validate_coupling(coupling.operators)
        rates = rates or kms_rates(beta)
        gen = cls(model=model, beta=beta, coupling=coupling, rates=rates)
        for e in model.edge_list:
            decs = []
            for alpha, s in enumerate(coupling.operators):
                dec = fourier_components(model, e, s)
                dec.alpha = alpha
                decs.append(dec)
            gen.jumps[e] = decs
        return gen

    def edge_jump_matrices(self, e: Edge) -> list[tuple[float, float, np.ndarray]]:
        """(rate, e^{-beta w/2}, S(w)) triples on the full model space for edge e."""
        cached = self._embedded.get(e)
        if cached is not None:
            return cached
        out = []
        for dec in self.jumps[e]:
            for w, s_w in dec.components.items():
                if np.abs(s_w).max() < 1e-14:
                    continue
                full = _embed_to_model(self.model, dec.support, s_w)
                out.append((self.rates(w), float(np.exp(-self.beta * w / 2.0)), full))
        self._embedded[e] = out
        return out

def _embed_to_model(model: QuantumDoubleModel, support: tuple[Edge, ...], op: np.ndarray) -> np.ndarray:
    if tuple(support) == tuple(model.edge_list):
        return op
    return model._embed_multi(list(support), op)


# -- H~ (vectorized GNS Hamiltonian) ----------------------------------------------------------


class HTilde:
    """Matrix-free H~ = sum_e H~_e on the doubled space, H~_e = sum g(w) |iota delta iota^{-1}|^2.

    iota delta_{alpha,w} iota^{-1} = e^{-beta w/2} (1 x S(w)^T) - (S(w) x 1), so each
    application is a pair of batched sandwiches with the stacked jump matrices.
    """

    def __init__(self, gen: DaviesGenerator):
        self.gen = gen
        self.model = gen.model
        self.d = self.model.dim
        self.dim = self.d * self.d
        self._stacks: dict = {}
        self._stacks[tuple(self.model.edge_list)] = self._stack(self.model.edge_list)

    def _stack(self, edges):
        mats, gs, cs = [], [], []
        for e in edges:
            for rate, c, s in self.gen.edge_jump_matrices(e):
                mats.append(s)
                gs.append(rate)
                cs.append(c)
        if not mats:
            return None
        s_arr = np.stack(mats)
        # the half makes H~ equal to -iota L iota^{-1}: the +-omega pairing in the
        # Dirichlet form double counts each squared commutator
        g_arr = 0.5 * np.asarray(gs)
        c_arr = np.asarray(cs)
        sd_arr = np.conj(np.transpose(s_arr, (0, 2, 1)))
        # grouped quadratic pieces: X M1 + M2 X - sum g c (S X S^dag + S^dag X S)
        m1 = np.einsum("k,kij,kjl->il", g_arr * c_arr**2, s_arr, sd_arr)
        m2 = np.einsum("k,kij,kjl->il", g_arr, sd_arr, s_arr)
        k = len(mats)
        gc = g_arr * c_arr
        d = self.d
        return {
            "s_stack": np.ascontiguousarray(s_arr),
            "sd_stack": np.ascontiguousarray(sd_arr),
            "s_hstack": np.ascontiguousarray((gc[:, None, None] * s_arr).transpose(1, 0, 2).reshape(d, k * d)),
            "sd_hstack": np.ascontiguousarray((gc[:, None, None] * sd_arr).transpose(1, 0, 2).reshape(d, k * d)),
            "m1": m1,
            "m2": m2,
            "k": k,
        }

    def _stack_for(self, edges):
        key = tuple(edges)
        if key not in self._stacks:
            self._stacks[key] = self._stack(edges)
        return self._stacks[key]

    def apply_edges(self, x: np.ndarray, edges) -> np.ndarray:
        stk = self._stack_for(edges)
        xm = np.asarray(x).reshape(self.d, self.d)
        if stk is None:
            return np.zeros(self.dim, dtype=complex)
        d, k = self.d, stk["k"]
        out = xm @ stk["m1"] + stk["m2"] @ xm
        # cross terms: sum_k gc_k ( S_k X Sd_k + Sd_k X S_k ) as two block gemms
        y1 = np.matmul(xm[None, :, :], stk["sd_stack"]).reshape(k * d, d)
        out -= stk["s_hstack"] @ y1
        y2 = np.matmul(xm[None, :, :], stk["s_stack"]).reshape(k * d, d)
        out -= stk["sd_hstack"] @ y2
        return out.reshape(-1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.apply_edges(x, self.model.edge_list)

    def handle(self, edges=None) -> LinearMapHandle:
        edges = self.model.edge_list if edges is None else tuple(edges)
        return LinearMapHandle(dim=self.dim, apply=lambda x: self.apply_edges(x, edges))


# -- kernel projectors (iota images) -----------------------------------------------------------


class IotaKernelProjector:
    """Orthogonal projector onto {iota(Q) : Q in B(H_{E \\ X})} on the doubled space."""

    def __init__(self, model: QuantumDoubleModel, rho: np.ndarray, x_edges: tuple[Edge, ...]):
        self.model = model
        n = model.local_dim
        ne = model.n_edges
        pos = [model.edge_pos[e] for e in x_edges]
        rest = [i for i in range(ne) if i not in pos]
        # single-layer basis permutation putting the X edges last:
        # to_new[old_state] = its index in the (rest..., X...) digit order
        digits = np.stack(np.unravel_index(np.arange(model.dim), (n,) * ne))
        to_new = np.zeros(model.dim, dtype=np.int64)
        for src_axis in rest + pos:
            to_new = to_new * n + digits[src_axis]
        self.perm = np.argsort(to_new)  # new -> old
        self.to_new = to_new            # old -> new
        self.d_e = n ** len(pos)
        self.d_r = model.dim // self.d_e
        rho_p = rho[np.ix_(self.perm, self.perm)]
        self.sigma_p = matrix_power_hermitian(rho_p, 0.5)
        rho_red = np.einsum(
            "ambm->ab", rho_p.reshape(self.d_r, self.d_e, self.d_r, self.d_e)
        )
        self.rho_red_inv = np.linalg.inv(rho_red)

    def apply(self, x: np.ndarray) -> np.ndarray:
        d = self.model.dim
        xm = np.asarray(x).reshape(d, d)[np.ix_(self.perm, self.perm)]
        z = xm @ self.sigma_p
        w = np.einsum("ambm->ab", z.reshape(self.d_r, self.d_e, self.d_r, self.d_e))
        m = w @ self.rho_red_inv
        out = np.einsum("ab,bmj->amj", m, self.sigma_p.reshape(self.d_r, self.d_e, d))
        out = out.reshape(d, d)[np.ix_(self.to_new, self.to_new)]
        return out.reshape(-1)


def thermofield_vector(model: QuantumDoubleModel, beta: float, rho: np.ndarray | None = None) -> np.ndarray:
    rho = gibbs_state(model, beta) if rho is None else rho
    v = vectorize(matrix_power_hermitian(rho, 0.5))
    return v / np.linalg.norm(v)


# -- local gap constants --------------------------------------------------------------------


def c1_constant(model: QuantumDoubleModel, e: Edge) -> float:
    """Operator norm of the sum of the local terms of the edge (stars + plaquettes)."""
    _, total = _local_term_sum(model, e)
    vals, _ = hermitian_spectrum(total)
    return float(vals[-1])


def c2_constant(coupling: CouplingSet) -> float:
    """Smallest eigenvalue of the commutator Gram form on traceless single-site operators."""
    d = coupling.operators[0].shape[0]
    basis = []
    # orthonormal traceless Hermitian basis
    for m in hermitian_unit_basis(d):
        t = m - np.trace(m) / d * np.eye(d)
        basis.append(t)
    # orthonormalize
    flat = np.stack([b.reshape(-1) for b in basis]).T
    q, r = np.linalg.qr(flat)
    keep = np.abs(np.diag(r)) > 1e-12
    q = q[:, keep]
    nb = q.shape[1]
    gram = np.zeros((nb, nb), dtype=complex)
    for a_idx in range(nb):
        ba = q[:, a_idx].reshape(d, d)
        for b_idx in range(nb):
            bb = q[:, b_idx].reshape(d, d)
            acc = 0.0
            for s in coupling.operators:
                ca = ba @ s - s @ ba
                cb = bb @ s - s @ bb
                acc += np.trace(dagger(ca) @ cb)
            gram[a_idx, b_idx] = acc
    vals, _ = hermitian_spectrum(gram)
    return float(vals[0])


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
    """Smallest nonzero eigenvalue of H~ (deflating the thermofield double)."""
    vals = lowest_eigs_matrix_free(
        htilde.handle(), k=1, seed=seed, tol=tol, deflate=[tfd], shift=50.0
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


def final_link_passed(gap_l: float, final_bound: float, gap_parent: float, tol: float) -> bool:
    """gap(L) >= final_bound, with the parent gap resolved above the eigensolver
    tolerance `tol`; a parent gap at roundoff level (either sign) fails."""
    return gap_parent > tol and final_bound > 0 and gap_l >= final_bound - 1e-9


def gap_chain(
    model: QuantumDoubleModel,
    beta: float,
    coupling: CouplingSet | None = None,
    rates: RateFunction | None = None,
    n_parent: int = 2,
    seed: int = 0,
    tol: float = 1e-7,
    probes: int = 12,
) -> GapChainReport:
    """Numerically certify every link of the Davies-to-parent-Hamiltonian chain."""
    from .gap_tools import n_beta, parent_gap, parent_hamiltonian, sum_of_complements

    if model.edges is not None:
        raise FeasibilityError("the gap chain runs on the full torus model")
    gen = DaviesGenerator.build(model, beta, coupling, rates)
    ht = HTilde(gen)
    rho = gibbs_state(model, beta)
    tfd = thermofield_vector(model, beta, rho)
    rng = np.random.default_rng(seed)

    # stage gaps
    gap_l = davies_gap(ht, tfd, seed=seed, tol=tol)
    pis = {e: IotaKernelProjector(model, rho, (e,)) for e in model.edge_list}
    gap_pi = float(
        lowest_eigs_matrix_free(
            sum_of_complements(list(pis.values()), ht.dim), k=1, seed=seed, tol=tol,
            deflate=[tfd], shift=50.0,
        )[0]
    )

    # parent Hamiltonian on the torus with rectangles up to n_parent per side
    ph = parent_hamiltonian(model, beta, n_max=n_parent)
    m_count = ph.max_terms_per_edge()
    gap_par, tfd_residual = parent_gap(ph, [tfd], seed=seed + 1, tol=tol)

    ineqs = []
    # (0) per-edge local bound H~_e >= local_pref Pi_e^perp, checked at one edge;
    # the chain reuses its constants
    lg = local_gap_check(gen, ht, model.edge_list[0], rho, seed=seed, tol=tol)
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
    # (2) probe check Pi_X^perp <= sum_{e in X} Pi_e^perp and P_X >= Pi_X
    worst_sub = 0.0
    worst_ker = 0.0
    for x_reg, proj in zip(ph.family[:4], ph.projectors[:4]):
        x_edges = tuple(x_reg.edges())
        pi_x = IotaKernelProjector(model, rho, x_edges)
        for _ in range(max(2, probes // 4)):
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
                        lhs=gap_pi, rhs=rhs3, sense=">=", passed=gap_pi >= rhs3 - 1e-9,
                        note=f"m={m_count}, parent kernel residual {tfd_residual:.2e}")
    )
    final_bound = local_pref * gap_par / max(m_count, 1)
    ineqs.append(
        ChainInequality(name="final: gap(L) >= c gap(H_parent)/m > 0",
                        lhs=gap_l, rhs=final_bound, sense=">=",
                        passed=final_link_passed(gap_l, final_bound, gap_par, tol))
    )
    passed = all(iq.passed for iq in ineqs)
    return GapChainReport(
        group=model.group.label,
        lattice_n=model.lattice.N,
        beta=beta,
        coupling=gen.coupling.label,
        rate_form=gen.rates.form,
        n_parent=n_parent,
        constants={
            "C1": lg.c1, "C2": lg.c2, "g_min": lg.g_min, "n_omega": lg.n_omega,
            "m_X": m_count, "n_beta": n_beta(beta, model.group.order),
            "local_prefactor": local_pref,
        },
        gaps={"davies": gap_l, "sum_pi_perp": gap_pi, "parent": gap_par,
              "parent_tfd_residual": tfd_residual},
        inequalities=ineqs,
        final_bound=final_bound,
        passed=passed,
        seed=seed,
    )
