import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from qdlab import linalg
from qdlab.linalg import (
    ConvergenceError,
    FeasibilityError,
    LinalgError,
    LinearMapHandle,
    connected_components,
    dagger,
    hermitian_spectrum,
    kron,
    lowest_eigs_matrix_free,
    lowest_eigs_sparse,
    vectorize,
)
from oracles import (
    block_diagonal, devectorize, handle_from_dense, matrix_exp_hermitian, random_hermitian, random_state,
)


class TestVectorize:
    def test_identity(self):
        assert np.allclose(vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_isometry(self):
        q = random_hermitian(5, 0) + 1j * random_hermitian(5, 1)
        assert np.vdot(vectorize(q), vectorize(q)) == pytest.approx(
            np.trace(dagger(q) @ q)
        )

    def test_kron_action(self):
        rng = np.random.default_rng(5)
        a, b, q = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
        lhs = kron(a, b) @ vectorize(q)
        rhs = vectorize(a @ q @ b.T)
        assert np.allclose(lhs, rhs)

    def test_devectorize_roundtrip(self):
        q = random_hermitian(3, 2)
        assert np.allclose(devectorize(vectorize(q)), q)


class TestSpectra:
    def test_diagonal(self):
        vals, _ = hermitian_spectrum(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1, 2, 3])

    def test_projector_spectrum(self):
        v = random_state(6, 3)
        p = np.outer(v, v.conj())
        vals, _ = hermitian_spectrum(p)
        assert np.all(np.abs(vals * (1 - vals)) < 1e-12)

    def test_trace_identity(self):
        m = random_hermitian(50, 4)
        vals, _ = hermitian_spectrum(m)
        assert vals.sum() == pytest.approx(np.trace(m).real, abs=1e-10)

    def test_residuals(self):
        m = random_hermitian(30, 5)
        vals, vecs = hermitian_spectrum(m)
        for i in range(30):
            r = np.linalg.norm(m @ vecs[:, i] - vals[i] * vecs[:, i])
            assert r <= 1e-10 * np.linalg.norm(m, 2)


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp_hermitian(np.zeros((3, 3))), np.eye(3))

    def test_projector_formula(self):
        v = random_state(4, 6)
        p = np.outer(v, v.conj())
        expected = np.eye(4) + (2.0 - 1.0) * p  # e^{ln2 P} = 1 + P
        assert np.allclose(matrix_exp_hermitian(p, np.log(2.0)), expected, atol=1e-12)

    def test_commuting_sum(self):
        d = np.diag(np.random.default_rng(7).standard_normal(5))
        a, b = 0.3 * d, -1.1 * d
        lhs = matrix_exp_hermitian(a) @ matrix_exp_hermitian(b)
        assert np.allclose(lhs, matrix_exp_hermitian(a + b), atol=1e-10)


class TestEigsMatrixFree:
    def test_dense_diag(self):
        h = handle_from_dense(np.diag([0.0, 0.5, 1.0, 1.5]))
        assert lowest_eigs_matrix_free(h, k=1)[0] == pytest.approx(0.0, abs=1e-9)

    def test_exact_zero_is_found(self):
        """diag(0, d) with d uniform in [1, 2]: an unshifted Lanczos solve returns min d, 1.00008."""
        vals = np.concatenate([[0.0], np.random.default_rng(0).uniform(1.0, 2.0, 2**14 - 1)])
        h = LinearMapHandle(dim=vals.size, apply=lambda x: vals * x)
        assert lowest_eigs_matrix_free(h, k=1)[0] == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_dense(self):
        m = random_hermitian(200, 8)
        m = m @ dagger(m)  # PSD
        h = handle_from_dense(m)
        vals = lowest_eigs_matrix_free(h, k=3, seed=1)
        dense_vals, _ = hermitian_spectrum(m)
        assert np.allclose(vals, dense_vals[:3], atol=1e-8)

    def test_deflation_gives_gap(self):
        m = random_hermitian(120, 9)
        m = m @ dagger(m)
        dense_vals, vecs = hermitian_spectrum(m)
        ground = vecs[:, 0]
        h = handle_from_dense(m)
        val = lowest_eigs_matrix_free(h, k=1, seed=2, deflate=[ground], shift=1e4)[0]
        assert val == pytest.approx(dense_vals[1], abs=1e-8)

    @pytest.mark.parametrize("step", [1, 2], ids=["arpack", "dense"])
    def test_deflation_past_the_shift_raises(self, step):
        """diag(0, 200, ...) with e_0 deflated: the gap 200 lies above the shift 100."""
        vals = np.concatenate([[0.0], np.arange(200.0, 300.0, step)])
        h = handle_from_dense(np.diag(vals))
        with pytest.raises(LinalgError, match="shift 100"):
            lowest_eigs_matrix_free(h, deflate=[np.eye(vals.size)[0]], shift=100.0)

    def test_deflation_vectors_must_be_orthogonal(self):
        # two unit vectors with overlap 1/sqrt(2): each passes a norm check alone
        e0, e1 = np.eye(8)[0], np.eye(8)[1]
        h = handle_from_dense(np.diag(np.arange(8.0)))
        with pytest.raises(LinalgError, match="not orthonormal"):
            lowest_eigs_matrix_free(h, deflate=[e0, (e0 + e1) / np.sqrt(2)])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["lowest", "largest"])
    def test_solver_budget(self, sign, monkeypatch):
        """The lowest eigenvalue, and the largest as minus the lowest of the negated
        map, converge within ARPACK_MAXITER and raise ConvergenceError past it."""
        vals = 1.0 + 1e-3 * np.random.default_rng(0).random(256)  # clustered spectrum
        h = handle_from_dense(np.diag(sign * vals))
        expect = np.min(vals) if sign > 0 else np.max(vals)
        assert sign * lowest_eigs_matrix_free(h, k=1)[0] == pytest.approx(expect, abs=1e-9)
        monkeypatch.setattr(linalg, "ARPACK_MAXITER", 1)
        with pytest.raises(ConvergenceError):
            lowest_eigs_matrix_free(h, k=1)

    def test_workspace_budget_is_checked_before_any_matvec(self, monkeypatch):
        """A 2^20-dim solve needs 21 vectors of workspace (168 MiB even when real):
        under a 64 MiB budget it raises FeasibilityError before the map is applied once."""
        calls = []

        def apply(x):
            calls.append(1)
            return x

        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 2**26)
        with pytest.raises(FeasibilityError, match=r"\(21, 1048576\)"):
            lowest_eigs_matrix_free(LinearMapHandle(dim=2**20, apply=apply), k=1)
        assert calls == []

    def test_workspace_budget_follows_the_solve_dtype(self, monkeypatch):
        """A 4096-dim solve needs 21 vectors of workspace: 672 KiB real, 1.3 MiB
        complex. Under a 1 MiB budget a real map is solved, and a complex map is
        refused after the one probe matvec that shows it complex."""
        vals = 2.0 + np.random.default_rng(5).random(4096)
        vals[0] = 1.0
        calls = []

        def apply_complex(x):
            calls.append(1)
            return vals * x + 0j

        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 2**20)
        real = LinearMapHandle(dim=vals.size, apply=lambda x: vals * x)
        assert lowest_eigs_matrix_free(real, k=1)[0] == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(FeasibilityError, match=r"complex128 array of shape \(21, 4096\)"):
            lowest_eigs_matrix_free(LinearMapHandle(dim=vals.size, apply=apply_complex), k=1)
        assert calls == [1]

    def test_workspace_of_the_largest_solve_fits_the_default_budget(self):
        """The martingale whole region of the smallest split has 2^20 doubled
        dimensions; its solve workspace fits the default budget."""
        vals = 2.0 + np.random.default_rng(4).random(2**20)
        vals[0] = 1.0
        h = LinearMapHandle(dim=vals.size, apply=lambda x: vals * x)
        assert lowest_eigs_matrix_free(h, k=1, tol=1e-6)[0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["lowest", "largest"])
    def test_real_map_gets_real_vectors(self, sign):
        """A map whose image of the real start vector is real is solved in real
        arithmetic: a handle that refuses complex input still gets the lowest
        eigenvalue of a real diagonal map and, through the negated map, its largest."""
        vals = np.random.default_rng(3).standard_normal(300)

        def apply(x):
            if np.iscomplexobj(x):
                raise TypeError("complex input to a real map")
            return sign * vals * x

        found = sign * lowest_eigs_matrix_free(LinearMapHandle(dim=vals.size, apply=apply), k=1)[0]
        assert found == pytest.approx(vals.min() if sign > 0 else vals.max(), abs=1e-9)



@pytest.fixture
def arpack_dims(monkeypatch):
    """The dimensions of the maps `lowest_eigs_sparse` hands to `lowest_eigs_matrix_free`."""
    dims, solve = [], linalg.lowest_eigs_matrix_free

    def spy(h, *args, **kwargs):
        dims.append(h.dim)
        return solve(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "lowest_eigs_matrix_free", spy)
    return dims


SIZES = (1, 1, 1, 2, 3, 5, 8, 13, 40, 64, 65, 100)


class TestEigsSparse:
    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    @pytest.mark.parametrize("sizes", [SIZES, (100,)], ids=["blocks", "one block"])
    def test_agrees_with_dense(self, sizes, dtype, arpack_dims):
        """Each index is labelled by the least index of its block; blocks of 1 to 64
        indices are solved densely and larger ones by ARPACK, and the 6 lowest values
        are dense eigh's."""
        m, dense, owner = block_diagonal(sizes, 3, dtype)
        assert m.dtype == dtype
        least = np.array([np.flatnonzero(owner == b).min() for b in range(len(sizes))])
        assert np.array_equal(connected_components(m.indptr, m.indices), least[owner])
        vals = lowest_eigs_sparse(m, k=6)
        assert np.allclose(vals, np.linalg.eigvalsh(dense)[:6], atol=1e-8)
        assert sorted(arpack_dims) == [s for s in sorted(sizes) if s > linalg.DENSE_SOLVE_MAX_DIM]

    def test_duplicate_entries_are_added(self):
        """A CSR matrix holding each entry as two halves, in no order, has the spectrum of their sums."""
        m, dense, _ = block_diagonal(SIZES[:10], 4, complex)
        coo = m.tocoo()
        rows, cols = np.tile(coo.row, 2), np.tile(coo.col, 2)
        order = np.lexsort((np.random.default_rng(4).random(rows.size), rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m.shape[0]))])
        halves = sp.csr_matrix((np.tile(coo.data / 2, 2)[order], cols[order], indptr), shape=m.shape)
        assert not halves.has_canonical_format
        assert np.allclose(lowest_eigs_sparse(halves, k=m.shape[0]), np.linalg.eigvalsh(dense), atol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    @pytest.mark.parametrize("pair", [(3, 5), (40, 30)], ids=["dense", "arpack"])
    def test_a_deflation_vector_merges_the_blocks_it_touches(self, pair, dtype, arpack_dims):
        """A unit vector on two blocks joins them into one of 8 or 70 indices, and the
        values are those of m + s v v^dagger; solving the blocks apart would miss them."""
        sizes = (1, 2, 13) + pair
        m, dense, owner = block_diagonal(sizes, 5, dtype)
        rng = np.random.default_rng(6)
        v = np.where(owner >= 3, rng.standard_normal(m.shape[0]), 0.0).astype(dtype)
        v /= np.linalg.norm(v)
        expect = np.linalg.eigvalsh(dense + 4.0 * np.outer(v, v.conj()))[:3]
        assert np.allclose(lowest_eigs_sparse(m, k=3, deflate=[v], shift=4.0), expect, atol=1e-8)
        assert arpack_dims == ([70] if pair == (40, 30) else [])

    @pytest.mark.parametrize("sizes", [SIZES, (100,)], ids=["blocks", "one block"])
    def test_deflation_vectors_must_be_orthonormal(self, sizes):
        m = block_diagonal(sizes, 7, float)[0]
        e0, e1 = np.eye(m.shape[0])[:2]
        with pytest.raises(LinalgError, match="not orthonormal"):
            lowest_eigs_sparse(m, deflate=[e0, (e0 + e1) / np.sqrt(2)])

    @pytest.mark.parametrize("size", [1, 80], ids=["dense", "arpack"])
    def test_deflation_past_the_shift_raises(self, size):
        """A block with spectrum (0, 200, 201, ...) beside singletons at 300, its ground
        state deflated with shift 100: the lowest value, 100, is that of a vector in the
        deflated span."""
        rng = np.random.default_rng(8)
        q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        block = (q * np.concatenate([[0.0], np.arange(200.0, 199.0 + size)])) @ q.T
        m = sp.block_diag([block, 300.0 * np.eye(5)], format="csr")
        with pytest.raises(LinalgError, match="shift 100"):
            lowest_eigs_sparse(m, deflate=[np.concatenate([q[:, 0], np.zeros(5)])], shift=100.0)

    def test_stack_budget_is_checked_before_any_stack_is_made(self, monkeypatch):
        """200 blocks, each a path of 64 indices: their stack holds 6.25 MiB, 43 times
        their 38,000 entries. Under a 4 MiB budget it is refused, and the call never
        holds as much as half of it."""
        path = sp.diags([np.ones(63), 2.0 * np.ones(64), np.ones(63)], [-1, 0, 1])
        m = sp.block_diag([path] * 200, format="csr")
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 2**22)
        tracemalloc.start()
        try:
            with pytest.raises(FeasibilityError, match=r"\(819200,\)"):
                lowest_eigs_sparse(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 819200 * 8 / 2

    def test_a_long_path_is_one_component(self):
        """A path of 10^4 indices numbered at random, the largest diameter their count
        allows, is labelled as one component."""
        n = 10**4
        p = np.random.default_rng(9).permutation(n)
        a = sp.coo_matrix((np.ones(n - 1), (p[:-1], p[1:])), shape=(n, n))
        a = (a + a.T).tocsr()
        assert not connected_components(a.indptr, a.indices).any()
