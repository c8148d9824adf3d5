"""Dense tensor algebra, vectorization, and (matrix-free) eigensolvers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse.linalg as spla

RANK_CUTOFF = 1e-10  # singular values below cutoff * sigma_max count as zero
HERMITIAN_TOL = 1e-12


class LinalgError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


class FeasibilityError(RuntimeError):
    """Raised before allocating when a dense request would not fit."""


# The largest single dense array the package makes. It admits the largest array
# of every certificate in the benchmark and the tests (512 MiB: the dense T of each
# half of the smallest martingale split; the contraction steps of its matrix-free
# whole region take 256 MiB) and refuses requests that would exhaust a desk machine.
DENSE_BUDGET_BYTES = 2**31


def require_fits(shape: Sequence[int], dtype=np.float64) -> None:
    """Raise FeasibilityError if an array of `shape` and `dtype` would exceed the budget."""
    nbytes = math.prod(int(s) for s in shape) * np.dtype(dtype).itemsize
    if nbytes > DENSE_BUDGET_BYTES:
        raise FeasibilityError(
            f"dense {np.dtype(dtype)} array of shape {tuple(shape)} needs {nbytes / 2**30:.3g} GiB, "
            f"above the {DENSE_BUDGET_BYTES / 2**30:.3g} GiB budget"
        )


# ARPACK restarts allowed per solve (each restart takes up to ncv - k matvecs);
# ARPACK's own default is 10 n. The two solves of the benchmark's gap_chain
# workload take 151 matvecs in all, a few restarts, far below this cap.
ARPACK_MAXITER = 1000


# -- vectorization -----------------------------------------------------------


def vectorize(q: np.ndarray) -> np.ndarray:
    """|Q> = (Q x 1)|Omega> with |Omega> = sum_i |ii>; row-major flatten."""
    q = np.asarray(q)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise LinalgError(f"vectorize needs a square matrix, got {q.shape}")
    return q.reshape(-1)


def devectorize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise LinalgError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d)


def kron(*mats: np.ndarray) -> np.ndarray:
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


# -- spectra -----------------------------------------------------------------


def check_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> None:
    dev = np.abs(m - dagger(m)).max()
    scale = max(1.0, np.abs(m).max())
    if dev > tol * scale:
        raise LinalgError(f"matrix is not Hermitian (deviation {dev:.3e})")


def hermitian_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending + eigenvectors of a Hermitian matrix."""
    check_hermitian(m)
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def matrix_exp_hermitian(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{tM} by spectral decomposition; exact on projectors."""
    vals, vecs = hermitian_spectrum(m)
    return (vecs * np.exp(t * vals)) @ dagger(vecs)


def matrix_power_hermitian(m: np.ndarray, power: float, pseudo: bool = False) -> np.ndarray:
    """M^power via eigh; with pseudo=True, zero modes (at RANK_CUTOFF) stay zero."""
    vals, vecs = hermitian_spectrum(m)
    top = np.abs(vals).max() if vals.size else 0.0
    out = np.zeros_like(vals)
    keep = np.abs(vals) > RANK_CUTOFF * max(top, 1e-300)
    if not pseudo and (vals < 0).any() and power != int(power):
        bad = vals[vals < -RANK_CUTOFF * max(top, 1e-300)]
        if bad.size:
            raise LinalgError(f"negative eigenvalue {bad.min():.3e} in fractional matrix power")
        vals = np.clip(vals, 0.0, None)
    out[keep] = np.power(vals[keep], power)
    return (vecs * out) @ dagger(vecs)


def orthonormal_columns(v: np.ndarray, cutoff: float = RANK_CUTOFF) -> np.ndarray:
    q, s, _ = np.linalg.svd(np.asarray(v), full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return q[:, :0]
    rank = int(np.sum(s > cutoff * s[0]))
    return q[:, :rank]


# -- matrix-free machinery ----------------------------------------------------


@dataclass
class LinearMapHandle:
    """A Hermitian linear map given by its action on vectors."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]


def handle_from_dense(m: np.ndarray) -> LinearMapHandle:
    m = np.asarray(m)
    return LinearMapHandle(dim=m.shape[0], apply=lambda x: m @ x)


def lowest_eigs_matrix_free(
    h: LinearMapHandle,
    k: int = 1,
    tol: float = 1e-9,
    seed: int = 0,
    deflate: Sequence[np.ndarray] = (),
    shift: float = 100.0,
) -> np.ndarray:
    """k lowest eigenvalues of a Hermitian PSD map, deflating the given orthonormal vectors.

    Deflation adds `shift` on the span of the supplied vectors, so the returned
    values are the lowest of H restricted to their orthogonal complement.
    Raises ConvergenceError when ARPACK has not converged after ARPACK_MAXITER restarts.
    """
    defl = [np.asarray(v, dtype=complex).reshape(-1) for v in deflate]
    for i, v in enumerate(defl):
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-8:
            raise LinalgError(f"deflation vector {i} is not normalized")

    def matvec(x):
        y = np.asarray(h.apply(x))
        for v in defl:
            y = y + shift * v * (v.conj() @ x)
        return y

    if h.dim <= 64:
        mat = np.column_stack([matvec(col) for col in np.eye(h.dim, dtype=complex).T])
        vals = np.linalg.eigvalsh((mat + dagger(mat)) / 2)
        return vals[:k]

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(h.dim)
    op = spla.LinearOperator((h.dim, h.dim), matvec=matvec, dtype=complex)
    try:
        vals, vecs = spla.eigsh(op, k=k, sigma=None, which="SA", v0=v0, tol=tol, maxiter=ARPACK_MAXITER)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"Lanczos failed to converge: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for i in range(k):
        r = np.linalg.norm(matvec(vecs[:, i]) - vals[i] * vecs[:, i])
        if r > max(tol * 100, 1e-7) * max(1.0, abs(vals[i])):
            raise ConvergenceError(f"eigenpair {i} residual {r:.3e} above tolerance")
    return vals[:k]


# -- random generators --------------------------------------------------------


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + dagger(m)) / 2


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
