import numpy as np
import pytest

from qdlab import linalg
from qdlab.linalg import (
    ConvergenceError,
    FeasibilityError,
    LinalgError,
    LinearMapHandle,
    dagger,
    hermitian_spectrum,
    kron,
    lowest_eigs_matrix_free,
    vectorize,
)
from oracles import devectorize, handle_from_dense, matrix_exp_hermitian, random_hermitian, random_state


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
