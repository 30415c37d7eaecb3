"""Source, channel, and conditional Gaussian states of the illumination model.

The source is a two-mode zero-mean Gaussian state with covariance
    V = (1/2) [[nu*I, c*Z], [c*Z, mu*I]],   nu = 2*N_S + 1, mu = 2*N_I + 1,
where Z = diag(1, -1) and c is the quadrature correlation. The signal mode is
sent through a reflectivity-kappa channel buried in thermal background N_B;
the idler is retained. Under "target absent" the return mode is pure
background; under "target present" the background brightness is rescaled to
N_B/(1-kappa) so the two hypotheses carry no passive mean-photon signature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .symplectic import CovMatrix, is_physical

Z2 = np.diag([1.0, -1.0])


class Hypothesis(Enum):
    H0 = "target absent"
    H1 = "target present"


@dataclass(frozen=True)
class SourceParams:
    """Signal/idler brightness and quadrature correlation of the source.

    corr is bounded by the quantum limit
    c_q = 2*sqrt(min(N_S*(N_I+1), N_I*(N_S+1))), which is 2*sqrt(N_S*(N_I+1))
    when N_S <= N_I; the source is maximally entangled (two-mode squeezed
    vacuum for N_S = N_I) at corr = c_q and just-separable at
    corr = c_d = 2*sqrt(N_S*N_I).
    """

    n_signal: float
    n_idler: float
    corr: float = 0.0

    def __post_init__(self) -> None:
        if not (self.n_signal >= 0 and math.isfinite(self.n_signal)):
            raise ValueError(f"n_signal must be >= 0, got {self.n_signal}")
        if not (self.n_idler >= 0 and math.isfinite(self.n_idler)):
            raise ValueError(f"n_idler must be >= 0, got {self.n_idler}")
        if not (self.corr >= 0 and math.isfinite(self.corr)):
            raise ValueError(f"corr must be >= 0, got {self.corr}")
        cq = c_quantum(self)
        if self.corr > cq + 1e-12 * max(1.0, cq):
            raise ValueError(
                "corr violates the quantum correlation bound "
                "c <= 2*sqrt(N_S*(N_I+1)) if N_S <= N_I, else 2*sqrt(N_I*(N_S+1)); "
                f"here {cq:.12g}, got {self.corr:.12g}"
            )

    @property
    def nu(self) -> float:
        return 2.0 * self.n_signal + 1.0

    @property
    def mu(self) -> float:
        return 2.0 * self.n_idler + 1.0


@dataclass(frozen=True)
class ChannelParams:
    """Target reflectivity kappa and background brightness N_B."""

    reflectivity: float
    n_background: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.reflectivity <= 1.0):
            raise ValueError(f"reflectivity must lie in [0, 1], got {self.reflectivity}")
        if not (self.n_background >= 0 and math.isfinite(self.n_background)):
            raise ValueError(f"n_background must be >= 0, got {self.n_background}")

    @property
    def omega(self) -> float:
        return 2.0 * self.n_background + 1.0

    def gamma(self, n_signal: float) -> float:
        """Return-mode variance parameter under H1: 2*kappa*N_S + omega."""
        return 2.0 * self.reflectivity * n_signal + self.omega


@dataclass(frozen=True)
class NoiseParams:
    """Added Gaussian noise, in nu-units: omega -> omega + eps_return etc.

    One nu-unit (eps = 1) equals +1/2 on the true CM diagonal, the amount a
    heterodyne measurement would add.
    """

    eps_return: float = 0.0
    eps_idler: float = 0.0

    def __post_init__(self) -> None:
        if not (self.eps_return >= 0 and math.isfinite(self.eps_return)):
            raise ValueError(f"eps_return must be >= 0, got {self.eps_return}")
        if not (self.eps_idler >= 0 and math.isfinite(self.eps_idler)):
            raise ValueError(f"eps_idler must be >= 0, got {self.eps_idler}")


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector plus covariance matrix."""

    mean: np.ndarray
    cov: CovMatrix

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        if mean.ndim != 1 or mean.size != 2 * self.cov.n_modes:
            raise ValueError(
                f"mean must have length {2 * self.cov.n_modes}, got shape {mean.shape}"
            )
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if not is_physical(self.cov):
            raise ValueError("covariance matrix is not physical (symplectic eigenvalue < 1/2)")
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    @property
    def n_modes(self) -> int:
        return self.cov.n_modes


def c_quantum(src: SourceParams) -> float:
    """Maximal quadrature correlation allowed by quantum mechanics.

    The source CM is physical (symplectic eigenvalues >= 1/2) exactly when
    c^2 <= 4*min(N_S, N_I)*(max(N_S, N_I) + 1).
    """
    lo, hi = sorted((src.n_signal, src.n_idler))
    return 2.0 * math.sqrt(lo * (hi + 1.0))


def c_direct(src: SourceParams) -> float:
    """Correlation reachable with classical (just-separable) light."""
    return 2.0 * math.sqrt(src.n_signal * src.n_idler)


def make_source(n_signal: float, n_idler: float, corr: float | str = "quantum") -> SourceParams:
    """Build SourceParams with corr either explicit or at a named bound.

    corr may be a number, "quantum" (c_q, maximal entanglement) or
    "direct" (c_d, best classically correlated source).
    """
    if isinstance(corr, str):
        probe = SourceParams(n_signal, n_idler, 0.0)
        if corr == "quantum":
            corr = c_quantum(probe)
        elif corr == "direct":
            corr = c_direct(probe)
        else:
            raise ValueError(f"corr mode must be 'quantum', 'direct' or a number, got {corr!r}")
    return SourceParams(n_signal, n_idler, float(corr))


def source_cm(src: SourceParams) -> CovMatrix:
    """Covariance matrix of the signal/idler source."""
    m = np.zeros((4, 4))
    m[0:2, 0:2] = src.nu * np.eye(2)
    m[2:4, 2:4] = src.mu * np.eye(2)
    m[0:2, 2:4] = src.corr * Z2
    m[2:4, 0:2] = src.corr * Z2
    return CovMatrix(0.5 * m)


def conditional_states(src: SourceParams, ch: ChannelParams) -> tuple[GaussianState, GaussianState]:
    """Zero-mean return/idler states under H0 (target absent) and H1 (present).

    H0: return mode is a bare thermal background, idler untouched.
    H1: return variance gamma = 2*kappa*N_S + omega, with cross block
    sqrt(kappa)*c*Z surviving from the source correlations.
    """
    omega = ch.omega
    mu = src.mu
    v0 = 0.5 * np.diag([omega, omega, mu, mu])

    gamma = ch.gamma(src.n_signal)
    cross = math.sqrt(ch.reflectivity) * src.corr
    v1 = np.zeros((4, 4))
    v1[0:2, 0:2] = gamma * np.eye(2)
    v1[2:4, 2:4] = mu * np.eye(2)
    v1[0:2, 2:4] = cross * Z2
    v1[2:4, 0:2] = cross * Z2
    v1 *= 0.5

    zero = np.zeros(4)
    return (
        GaussianState(zero, CovMatrix(v0)),
        GaussianState(zero, CovMatrix(v1)),
    )


def apply_noise(states: tuple[GaussianState, GaussianState],
                noise: NoiseParams) -> tuple[GaussianState, GaussianState]:
    """Add diagonal Gaussian noise to both conditional states.

    eps_return adds eps/2 to the return-mode CM diagonal (omega -> omega+eps,
    gamma -> gamma+eps in nu-units); eps_idler likewise on the idler block.
    Means and cross blocks are unchanged.
    """
    out = []
    for state in states:
        if state.n_modes != 2:
            raise ValueError(f"expected two-mode states, got {state.n_modes} modes")
        m = np.array(state.cov.entries)
        m[0, 0] += noise.eps_return / 2.0
        m[1, 1] += noise.eps_return / 2.0
        m[2, 2] += noise.eps_idler / 2.0
        m[3, 3] += noise.eps_idler / 2.0
        out.append(GaussianState(state.mean, CovMatrix(m)))
    return (out[0], out[1])


def coherent_benchmark_states(n_signal: float, ch: ChannelParams) -> tuple[GaussianState, GaussianState]:
    """Single-mode benchmark: thermal background vs displaced thermal return.

    A coherent probe |alpha> with |alpha|^2 = N_S returns amplitude
    sqrt(kappa)*alpha on top of the same background, i.e. mean quadrature
    (sqrt(2*kappa*N_S), 0) in this convention (<q> = sqrt(2)*Re(alpha)).
    """
    if not (n_signal >= 0 and math.isfinite(n_signal)):
        raise ValueError(f"n_signal must be >= 0, got {n_signal}")
    cov = CovMatrix(0.5 * ch.omega * np.eye(2))
    mean0 = np.zeros(2)
    mean1 = np.array([math.sqrt(2.0 * ch.reflectivity * n_signal), 0.0])
    return (GaussianState(mean0, cov), GaussianState(mean1, cov))
