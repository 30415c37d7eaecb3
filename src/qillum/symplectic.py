"""Real symplectic linear algebra for Gaussian covariance matrices.

Conventions used throughout the package: hbar = 1, vacuum variance 1/2,
quadrature ordering (q1, p1, ..., qN, pN). A covariance matrix (CM) is
physical iff every symplectic eigenvalue nu_k is >= 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

VACUUM_VARIANCE = 0.5
# Pure states sit exactly on the nu = 1/2 boundary and must pass under rounding.
PHYSICALITY_ATOL = 1e-9


def _symmetric_matrix(value, name: str) -> np.ndarray:
    """value as a read-only float array, symmetrized.

    Raises ValueError unless it is a non-empty square matrix with finite
    entries, symmetric within 1e-12 relative to its largest entry.
    """
    m = np.array(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} entries must be finite")
    tol = 1e-12 * max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > tol:
        raise ValueError(f"{name} must be symmetric within 1e-12")
    m = 0.5 * (m + m.T)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class CovMatrix:
    """Real symmetric 2N x 2N covariance matrix.

    Entries are stored in the fixed (q1, p1, ..., qN, pN) ordering with the
    vacuum at 0.5 * identity. The array is symmetrized once on construction
    and frozen; downstream code treats instances as immutable values.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = _symmetric_matrix(self.entries, "covariance matrix")
        if m.shape[0] % 2 != 0:
            raise ValueError(f"covariance matrix dimension must be even, got {m.shape[0]}")
        object.__setattr__(self, "entries", m)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Symplectic congruence V = S diag(nu_1, nu_1, ..., nu_N, nu_N) S^T.

    S is symplectic (S Omega S^T = Omega) but not unique; the two
    reconstruction invariants are the testable contract.
    """

    s_matrix: np.ndarray
    spectrum: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.spectrum)

    def diagonal_form(self) -> np.ndarray:
        return np.diag(np.repeat(self.spectrum, 2))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form: one [[0, 1], [-1, 0]] block per mode."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _require_symmetric_pd(v: CovMatrix) -> np.ndarray:
    """Return the entries of v after checking positive definiteness."""
    m = v.entries
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix must be positive definite") from exc
    return m


def symplectic_eigenvalues(v: CovMatrix) -> np.ndarray:
    """Symplectic spectrum of a positive-definite CM, sorted descending.

    Computed as the moduli of the eigenvalues of Omega V, which occur in
    conjugate pairs +/- i nu_k; one value per pair is returned.
    """
    m = _require_symmetric_pd(v)
    omega = symplectic_form(v.n_modes)
    eig = np.linalg.eigvals(omega @ m)
    moduli = np.sort(np.abs(eig))[::-1]
    # pair-average +i nu and -i nu partners for a touch of robustness
    return 0.5 * (moduli[0::2] + moduli[1::2])


def is_physical(v: CovMatrix) -> bool:
    """True iff v is a valid quantum CM: min symplectic eigenvalue >= 1/2 - 1e-9."""
    m = v.entries
    tol = 1e-12 * max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > tol:
        return False
    try:
        nu = symplectic_eigenvalues(v)
    except ValueError:
        return False
    return bool(nu.min() >= VACUUM_VARIANCE - PHYSICALITY_ATOL)


def williamson(v: CovMatrix) -> WilliamsonDecomposition:
    """Williamson normal form of a positive-definite CM.

    Route: with R = V^{1/2} (symmetric square root via eigendecomposition),
    the kernel K = R Omega R is real antisymmetric, so i K is Hermitian with
    eigenvalues +/- nu_k. For a +nu eigenvector u = a + i b, K a = nu b and
    K b = -nu a, and u is orthogonal to its conjugate (a -nu eigenvector), so
    |a| = |b| = 1/sqrt(2) and a . b = 0: the columns (sqrt2 b, sqrt2 a) span
    one block nu_k * [[0,1],[-1,0]] of Q^T K Q. Eigenvectors of a repeated
    nu are orthonormal in both the Hermitian and the bilinear sense, so Q is
    orthogonal. Then S = R Q D^{-1/2} satisfies S Omega S^T = Omega and
    V = S D S^T with D = diag(nu_1, nu_1, ...). The +nu eigenvalues come last
    from eigh; taking them in reverse gives descending nu_k, and the output
    is deterministic for a given input.
    """
    m = _require_symmetric_pd(v)
    n = v.n_modes
    omega = symplectic_form(n)

    lam, u = np.linalg.eigh(m)
    if lam.min() <= 0:
        raise ValueError("covariance matrix must be positive definite")
    sqrt_v = (u * np.sqrt(lam)) @ u.T

    kernel = sqrt_v @ omega @ sqrt_v
    kernel = 0.5 * (kernel - kernel.T)
    evals, evecs = np.linalg.eigh(1j * kernel)
    nus = evals[n:][::-1]
    plus = evecs[:, n:][:, ::-1] * np.sqrt(2.0)
    q = np.empty((2 * n, 2 * n))
    q[:, 0::2] = plus.imag
    q[:, 1::2] = plus.real

    s = sqrt_v @ q @ np.diag(np.repeat(1.0 / np.sqrt(nus), 2))

    scale = max(1.0, float(np.abs(m).max()))
    res_form = np.abs(s @ omega @ s.T - omega).max()
    res_recon = np.abs(s @ np.diag(np.repeat(nus, 2)) @ s.T - m).max()
    if res_form > 1e-8 * scale or res_recon > 1e-8 * scale:
        raise NumericFailure(
            "williamson decomposition failed to converge: "
            f"symplectic-form residual {res_form:.3e}, reconstruction residual {res_recon:.3e}"
        )
    return WilliamsonDecomposition(s_matrix=s, spectrum=nus)
