"""Dense tensor algebra, vectorization, and (matrix-free) eigensolvers.

Importing any qdlab module loads numpy only; scipy is imported inside the
functions that use it. The boundary certificates (`boundary.verify_leading_term`,
`boundary.support_and_sigma`) load no scipy module. `scipy.sparse` is loaded by
the first sparse build: a region's T (`peps.RegionNetwork.t_sparse`), a
reduced-basis group function (`boundary.BlockBoundary.group_function_matrix`),
both made by every `gap_tools.RegionProjector`, or a Davies L_e and H~
(`davies.HTilde`). `scipy.sparse.linalg`, with ARPACK and `scipy.linalg`, is
loaded by the first `lowest_eigs_matrix_free` solve of a map above 64
dimensions; smaller maps are solved by dense `eigh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

RANK_CUTOFF = 1e-10  # singular values below cutoff * sigma_max count as zero
HERMITIAN_TOL = 1e-12


class LinalgError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


class FeasibilityError(RuntimeError):
    """Raised before allocating when a dense request would not fit."""


# The largest single dense array the package makes. It admits the largest array
# of every certificate in the benchmark and the tests (512 MiB: the dense T of the
# Z2 N=3 `rect:2,2,2,1` test region; the Lanczos workspace of the whole region of
# the smallest martingale split takes 168 MiB, and H~ of the Z2 N=2 torus, one CSR
# matrix, holds 82 MiB (86 MB), whose running sum peaks at 195 MiB traced and is
# budgeted as 294 MiB) and refuses requests that would exhaust a desk machine.
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
# workload (both real, dsaupd) take 76 matvecs in all, 53 for the Davies gap (each
# one CSR product with H~) and 23 for the local check (each an edge's L_e): 51 and
# 21 inside ARPACK, far below this cap, and per solve one probe and one residual check.
ARPACK_MAXITER = 1000

# ARPACK's Lanczos misses an eigenvalue that is exactly 0 (on diag(0, d) with d uniform
# in [1, 2] it returns min d) but finds it at 1, so the solver works on H + SOLVE_SHIFT * 1.
SOLVE_SHIFT = 1.0


# -- vectorization -----------------------------------------------------------


def vectorize(q: np.ndarray) -> np.ndarray:
    """|Q> = (Q x 1)|Omega> with |Omega> = sum_i |ii>; row-major flatten (see `sites_first_axes`)."""
    q = np.asarray(q)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise LinalgError(f"vectorize needs a square matrix, got {q.shape}")
    return q.reshape(-1)


def sites_first_axes(n_sites: int, sites: Sequence[int]) -> list[int]:
    """Axes bringing `sites` forward on a doubled vector: (their kets, their bras, other kets, other bras).

    A doubled vector on `n_sites` sites is the row-major vec of an operator Q on
    them (`vectorize`): its legs are the kets of sites 0, 1, ... (the digits of
    Q's row index), then their bras (the digits of its column index).
    """
    rest = [i for i in range(n_sites) if i not in sites]
    return [*sites, *(n_sites + i for i in sites), *rest, *(n_sites + i for i in rest)]


def apply_on_sites(x, local_dim: int, n_sites: int, sites: Sequence[int], block: Callable) -> np.ndarray:
    """The doubled vector x with `block` applied to its matrix view in the order of
    `sites_first_axes`: one row per ket-and-bra state of `sites`, one column per
    state of the other legs."""
    axes = sites_first_axes(n_sites, sites)
    legs = (local_dim,) * (2 * n_sites)
    m = np.asarray(x).reshape(legs).transpose(axes).reshape(local_dim ** (2 * len(sites)), -1)
    return block(m).reshape(legs).transpose(np.argsort(axes)).reshape(-1)


def kron(*mats: np.ndarray) -> np.ndarray:
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


# -- spectra -----------------------------------------------------------------


def check_hermitian(m: np.ndarray) -> None:
    dev = np.abs(m - dagger(m)).max()
    scale = max(1.0, np.abs(m).max())
    if dev > HERMITIAN_TOL * scale:
        raise LinalgError(f"matrix is not Hermitian (deviation {dev:.3e})")


def hermitian_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending + eigenvectors of a Hermitian matrix."""
    check_hermitian(m)
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def matrix_power_hermitian(m: np.ndarray, power: float) -> np.ndarray:
    """M^power via eigh; zero modes (at RANK_CUTOFF) stay zero, and a fractional
    power of a matrix with an eigenvalue below them raises LinalgError."""
    vals, vecs = hermitian_spectrum(m)
    top = np.abs(vals).max() if vals.size else 0.0
    out = np.zeros_like(vals)
    keep = np.abs(vals) > RANK_CUTOFF * max(top, 1e-300)
    if (vals < 0).any() and power != int(power):
        bad = vals[vals < -RANK_CUTOFF * max(top, 1e-300)]
        if bad.size:
            raise LinalgError(f"negative eigenvalue {bad.min():.3e} in fractional matrix power")
        vals = np.clip(vals, 0.0, None)
    out[keep] = np.power(vals[keep], power)
    return (vecs * out) @ dagger(vecs)


# -- matrix-free machinery ----------------------------------------------------


@dataclass
class LinearMapHandle:
    """A Hermitian linear map given by its action on vectors."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]


def lowest_eigs_matrix_free(
    h: LinearMapHandle,
    k: int = 1,
    tol: float = 1e-9,
    seed: int = 0,
    deflate: Sequence[np.ndarray] = (),
    shift: float = 100.0,
) -> np.ndarray:
    """k lowest eigenvalues of a Hermitian map, deflating the given orthonormal vectors.

    The map need not be positive semidefinite: the largest eigenvalue of A is
    minus the lowest of -A. The solve runs on H + SOLVE_SHIFT * 1 and returns its
    values minus the shift, so that an exact zero of H is not missed. One probe
    matvec applies the map to the real start vector v0; the solve runs in real
    arithmetic when that image and every deflation vector are real arrays, and
    in complex arithmetic otherwise, so a real map is never handed a complex vector.
    Deflation adds `shift` on the span of the supplied vectors, so the returned
    values are the lowest of H restricted to their orthogonal complement; vectors
    that are not orthonormal (to 1e-8) raise LinalgError, and so does an
    eigenvector found mostly inside their span: there the value is the shift, and
    the restricted spectrum lies at or above it.
    Raises ConvergenceError when ARPACK has not converged after ARPACK_MAXITER
    restarts, or when an eigenpair's residual exceeds the tolerance, and
    FeasibilityError when the Lanczos basis (scipy's default ncv vectors), the
    start vector and the deflation basis would not fit the dense budget: as
    real arrays before the first matvec, and as complex arrays after the probe
    when the solve is complex.
    """
    ncv = min(max(2 * k + 1, 20), h.dim)
    workspace = (ncv + 1 + len(deflate), h.dim)
    require_fits(workspace, float)
    v0 = np.random.default_rng(seed).standard_normal(h.dim)
    probe = h.apply(v0)
    dtype = complex if any(np.iscomplexobj(v) for v in (probe, *deflate)) else float
    require_fits(workspace, dtype)
    basis = np.array([np.ravel(v) for v in deflate], dtype=dtype).reshape(len(deflate), h.dim)
    if len(basis):
        dev = np.abs(basis.conj() @ basis.T - np.eye(len(basis))).max()
        if dev > 1e-8:
            raise LinalgError(f"deflation vectors are not orthonormal (max |V^dagger V - I| = {dev:.2e})")

    def matvec(x):
        y = np.asarray(h.apply(x)) + SOLVE_SHIFT * x
        for v in basis:
            y = y + shift * v * (v.conj() @ x)
        return y

    if h.dim <= 64:
        mat = np.column_stack([matvec(col) for col in np.eye(h.dim, dtype=dtype).T])
        vals, vecs = np.linalg.eigh((mat + dagger(mat)) / 2)
    else:
        import scipy.sparse.linalg as spla

        op = spla.LinearOperator((h.dim, h.dim), matvec=matvec, dtype=dtype)
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
    inside = np.sum(np.abs(basis.conj() @ vecs[:, :k]) ** 2, axis=0)
    if (inside > 0.5).any():
        raise LinalgError(
            f"an eigenvector lies in the deflated span: the spectrum off it is not below the shift {shift}"
        )
    return vals[:k] - SOLVE_SHIFT
