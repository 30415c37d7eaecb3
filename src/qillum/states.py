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
import sys
from dataclasses import dataclass

import numpy as np

from .symplectic import CovMatrix, is_physical


def _check_nonnegative(value: float, name: str) -> None:
    """The one check of a brightness or noise parameter: finite and >= 0."""
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _validate_pulses(m) -> int:
    """m as an int; ValueError unless it is a positive integer no larger than the largest double.

    2.0 passes; 2.5, inf, nan and 10**309 do not.
    """
    try:
        m_int = int(m)
    except (OverflowError, ValueError):  # int() of inf and of nan
        m_int = None
    if m_int is None or m_int != m or not 1 <= m_int <= sys.float_info.max:
        raise ValueError(f"pulse count m must be a positive integer, got {m!r}")
    return m_int


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
        _check_nonnegative(self.n_signal, "n_signal")
        _check_nonnegative(self.n_idler, "n_idler")
        _check_nonnegative(self.corr, "corr")
        try:
            cq = c_quantum(self)
        except ValueError:  # c_q overflows, so every finite corr is within it
            return
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
        _check_nonnegative(self.n_background, "n_background")

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
        _check_nonnegative(self.eps_return, "eps_return")
        _check_nonnegative(self.eps_idler, "eps_idler")


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
    c^2 <= 4*min(N_S, N_I)*(max(N_S, N_I) + 1). ValueError, naming --ns and
    --ni, where that product overflows.
    """
    lo, hi = sorted((src.n_signal, src.n_idler))
    return _twice_root(lo * (hi + 1.0), "quantum", "min(N_S, N_I) (max(N_S, N_I) + 1)")


def c_direct(src: SourceParams) -> float:
    """Correlation reachable with classical (just-separable) light; ValueError where N_S N_I overflows."""
    return _twice_root(src.n_signal * src.n_idler, "direct", "N_S N_I")


def _twice_root(product: float, name: str, formula: str) -> float:
    """2 sqrt(product) of a named correlation; ValueError where the product overflowed."""
    if product == math.inf:
        raise ValueError(f"the {name} correlation 2 sqrt({formula}) overflows: "
                         "the product of --ns and --ni is past the largest double")
    return 2.0 * math.sqrt(product)


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


def _standard_form_matrix(a: float, b: float, c: float) -> np.ndarray:
    """[[a I, c Z], [c Z, b I]]: twice a two-mode CM in standard form, Z = diag(1, -1)."""
    return np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, -c], [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]])


def conditional_states(src: SourceParams, ch: ChannelParams) -> tuple[GaussianState, GaussianState]:
    """Zero-mean return/idler states under H0 (target absent) and H1 (present).

    H0: return mode is a bare thermal background, idler untouched.
    H1: return variance gamma = 2*kappa*N_S + omega, with cross block
    sqrt(kappa)*c*Z surviving from the source correlations.
    """
    cross = math.sqrt(ch.reflectivity) * src.corr
    zero = np.zeros(4)
    return tuple(GaussianState(zero, CovMatrix(0.5 * _standard_form_matrix(a, src.mu, c)))
                 for a, c in ((ch.omega, 0.0), (ch.gamma(src.n_signal), cross)))


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
    _check_nonnegative(n_signal, "n_signal")
    cov = CovMatrix(0.5 * ch.omega * np.eye(2))
    mean0 = np.zeros(2)
    mean1 = np.array([math.sqrt(2.0 * ch.reflectivity * n_signal), 0.0])
    return (GaussianState(mean0, cov), GaussianState(mean1, cov))
