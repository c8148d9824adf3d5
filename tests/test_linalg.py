import numpy as np
import pytest

from qdlab import gap_tools, linalg
from qdlab.gap_tools import _largest_eig
from qdlab.linalg import (
    ConvergenceError,
    LinalgError,
    dagger,
    devectorize,
    handle_from_dense,
    hermitian_spectrum,
    kron,
    lowest_eigs_matrix_free,
    matrix_exp_hermitian,
    orthonormal_columns,
    random_hermitian,
    random_state,
    vectorize,
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

    def test_deflation_vectors_must_be_orthogonal(self):
        # two unit vectors with overlap 1/sqrt(2): each passes a norm check alone
        e0, e1 = np.eye(8)[0], np.eye(8)[1]
        h = handle_from_dense(np.diag(np.arange(8.0)))
        with pytest.raises(LinalgError, match="not orthonormal"):
            lowest_eigs_matrix_free(h, deflate=[e0, (e0 + e1) / np.sqrt(2)])

    @pytest.mark.parametrize(
        "solve, expect",
        [
            (lambda h: lowest_eigs_matrix_free(h, k=1)[0], np.min),
            (lambda h: _largest_eig(h, seed=0, tol=1e-9), np.max),
        ],
        ids=["lowest", "largest"],
    )
    def test_solver_budget(self, solve, expect, monkeypatch):
        """Both ARPACK solves converge within ARPACK_MAXITER and raise ConvergenceError past it."""
        vals = 1.0 + 1e-3 * np.random.default_rng(0).random(256)  # clustered spectrum
        h = handle_from_dense(np.diag(vals))
        assert solve(h) == pytest.approx(expect(vals), abs=1e-9)
        monkeypatch.setattr(linalg, "ARPACK_MAXITER", 1)
        monkeypatch.setattr(gap_tools, "ARPACK_MAXITER", 1)
        with pytest.raises(ConvergenceError):
            solve(h)


class TestProjectors:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(14)
        v = rng.standard_normal((8, 3))
        q = orthonormal_columns(v)
        assert np.allclose(dagger(q) @ q, np.eye(3), atol=1e-12)
