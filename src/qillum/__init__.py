"""Gaussian target-detection numerics for correlated two-mode sources.

Closed-form receiver statistics for the conjugate-and-mix chain, quantum
and classical Chernoff-type error bounds, and seeded sampling that checks
every formula against simulation.
"""
from .bounds import (
    ClassicalDistributionPair,
    SOverlapResult,
    StandardFormPair,
    ccb,
    gaussian_s_overlap,
    heterodyne_distributions,
    qcb,
)
from .errors import NumericFailure
from .montecarlo import (
    EmpiricalStats,
    SamplerConfig,
    deflection_se,
    empirical_error_rate,
    sample_quadratures,
    simulate_pc_receiver,
)
from .receiver import (
    BeamsplitterMoments,
    HomodyneOptimum,
    ReceiverStats,
    asymptotic_snr,
    beamsplitter_moments,
    half_erfc,
    half_exp,
    homodyne_min_error,
    homodyne_rate,
    log_erfc,
    snr_pc,
)
from .states import (
    ChannelParams,
    GaussianState,
    NoiseParams,
    SourceParams,
    apply_noise,
    c_direct,
    c_quantum,
    coherent_benchmark_states,
    conditional_states,
    make_source,
)
from .symplectic import (
    CovMatrix,
    WilliamsonDecomposition,
    is_physical,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)

__version__ = "0.1.0"
