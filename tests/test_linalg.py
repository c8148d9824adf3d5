import numpy as np
import pytest

from qdlab.linalg import (
    LinearMapHandle,
    dagger,
    devectorize,
    handle_from_dense,
    hermitian_spectrum,
    kron,
    lowest_eigs_matrix_free,
    matrix_exp_hermitian,
    operator_norm,
    orthonormal_columns,
    partial_trace,
    projector_onto_columns,
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


class TestOperatorNorm:
    def test_unitary(self):
        from qdlab.linalg import random_unitary

        u = random_unitary(7, 1)
        assert operator_norm(u) == pytest.approx(1.0)

    def test_rank_one(self):
        rng = np.random.default_rng(11)
        u, v = rng.standard_normal(5), rng.standard_normal(6)
        m = np.outer(u, v)
        assert operator_norm(m) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))

    def test_power_iteration_matches_dense(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((100, 100))
        assert operator_norm(m, "power-iteration", tol=1e-12, seed=3) == pytest.approx(
            operator_norm(m), abs=1e-8
        )


class TestProjectors:
    def test_projector_onto_columns(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((10, 4))
        v[:, 3] = v[:, 0] + v[:, 1]  # rank 3
        p, rank = projector_onto_columns(v)
        assert rank == 3
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, dagger(p), atol=1e-12)
        assert np.allclose(p @ v, v, atol=1e-10)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(14)
        v = rng.standard_normal((8, 3))
        q = orthonormal_columns(v)
        assert np.allclose(dagger(q) @ q, np.eye(3), atol=1e-12)


def test_partial_trace():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = kron(a, b)
    assert np.allclose(partial_trace(m, [3, 4], keep=[0]), a * np.trace(b))
    assert np.allclose(partial_trace(m, [3, 4], keep=[1]), b * np.trace(a))


def test_handle_linearity_check():
    h = handle_from_dense(random_hermitian(16, 16))
    assert h.spot_check_linearity() < 1e-10
