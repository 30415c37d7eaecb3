"""Seeded sampling oracle for the receiver chain and its analytic moments.

The receiver chain conjugates the return, mixes it with the idler on a
balanced beamsplitter into the +/- modes, and takes the difference of the
two photon-number estimates N = (q^2 + p^2 - 1)/2 as the decision statistic.

Neither receiver sampler draws quadratures. In the model's standard form one
pulse's difference count is a two-term chi-square mixture whose weights
follow in closed form from the noisy (mu, omega, gamma) that snr_pc uses
(_count_weights), so it is drawn from that exact law: the moment oracle
takes one count per sample, and the threshold test takes a trial's average
over m pulses, two gamma variates per trial at a cost that does not grow
with m. At m = 1 it is a two-sided exponential mixture: one exponential
per count and one binomial branch count per block. The moment samples are
the threshold test's trials at m = 1, bit for bit. sample_quadratures draws
Gaussian quadrature vectors of any state from its covariance matrix.

All randomness is drawn in fixed logical blocks of 2**16 rows, each from
its own generator. Block b of stream s under seed k comes from
SFC64(SeedSequence(k, spawn_key=(s, b))), numpy's spawn scheme for
independent parallel streams: the SeedSequence hashes (k, s, b) into the
generator's state, so a block is addressed directly, as a counter-based
generator's would be (Salmon et al., SC'11, "Parallel random numbers: as
easy as 1, 2, 3"), and no block depends on another's draws; at m = 1 its
branch count comes after its exponentials. Every full block is therefore
the same bits whatever the row count, as are the first j rows at m >= 2; at
m = 1 a partial last block draws its branch count for its own length.
Repeated runs are bit-identical whatever the order in which the hypotheses
and checks are evaluated. Streams: H0 on stream 0 and H1 on stream 2, for
the receiver moments and the trials.

Because a block depends only on (seed, stream, block), the blocks of both
hypotheses go into one queue that the samplers' workers share, each taking
the next block until none is left; numpy's generators and ufuncs release
the GIL. Each worker draws a block into buffers that the calling thread
allocated for the call and reduces it on the spot (to its moments, or to
its count above the threshold), so the samplers hold at most one block per
worker, and their memory does not grow with the sample count or the CPU
count; only sample_quadratures, which returns the samples, holds them all.
A block's reduction depends only on its rows, and the reductions merge in
block order in the calling thread, so the results are the same bits for
any worker count and any order of completion. The moment sums and the
colouring are numpy ufuncs and reductions, not BLAS products, so neither
the CPU count nor BLAS's thread setting moves a bit.
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NumericFailure
from .receiver import _NOISY_FLAGS, _noisy
from .states import ChannelParams, GaussianState, NoiseParams, SourceParams, _validate_pulses


@dataclass(frozen=True)
class SamplerConfig:
    """Master seed and sample counts for one simulation run."""

    seed: int
    n_samples: int

    def __post_init__(self) -> None:
        # Python counts a bool as an int, but True is no seed or sample count
        is_int = [isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                  for v in (self.seed, self.n_samples)]
        if not (is_int[0] and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (is_int[1] and self.n_samples >= 1):
            raise ValueError(f"n_samples must be a positive integer, got {self.n_samples!r}")


@dataclass(frozen=True)
class EmpiricalStats:
    """Sample moments of the difference count plus their standard errors."""

    mean_h0: float
    mean_h1: float
    var_h0: float
    var_h1: float
    snr_hat: float
    se_mean_h0: float
    se_mean_h1: float
    se_var_h0: float
    se_var_h1: float
    se_snr: float

    def __post_init__(self) -> None:
        if self.var_h0 < 0 or self.var_h1 < 0:
            raise ValueError("empirical variances must be non-negative")
        ses = (self.se_mean_h0, self.se_mean_h1, self.se_var_h0,
               self.se_var_h1, self.se_snr)
        if any(not (se >= 0 and math.isfinite(se)) for se in ses):
            raise ValueError("standard errors must be finite and non-negative")


# the counts scale as their weights, sqrt(mu (1 + gamma))/2 at most, and from
# N_B ~ 1e152 at the default N_I a sample's fourth central moment overflows
_COUNT_OVERFLOW = ("the sampled PC counts overflow their moments: the counts scale as "
                   f"sqrt(mu (1 + gamma))/2, with {_NOISY_FLAGS}")

_BLOCK = 1 << 16  # rows per logical block of a stream


def _block_generator(seed: int, stream: int, block: int) -> np.random.Generator:
    """The generator of one block of a stream: every draw of the block comes from it."""
    key = (stream, block)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def _stream_blocks(seed: int, stream: int, n: int):
    """(generator, rows) for each block of a stream's first n rows."""
    for block, start in enumerate(range(0, n, _BLOCK)):
        yield _block_generator(seed, stream, block), min(_BLOCK, n - start)


def _gaussian_blocks(mean, cov: np.ndarray, seed: int, stream: int, n: int):
    """Blocks of n samples of N(mean, cov); the Cholesky factor colours each normal row."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"covariance factorization failed: {exc}") from exc
    for gen, count in _stream_blocks(seed, stream, n):
        z = gen.standard_normal((count, len(cov)))
        # column by column, not z @ chol.T: numpy's products and sums round
        # alike for any block size and host, where BLAS's routes do not.
        # Column i is z_i L_ii + z_0 L_i0 + ... + z_{i-1} L_i,i-1, in that order.
        xs = z * chol.diagonal()
        for i in range(1, len(cov)):
            for k in range(i):
                xs[:, i] += z[:, k] * chol[i, k]
        # every conditional state of the model has zero mean; adding it anyway
        # would broadcast a 4-vector over the whole block
        yield xs + mean if np.any(mean) else xs


def sample_quadratures(state: GaussianState, cfg: SamplerConfig, stream: int = 0) -> np.ndarray:
    """Draw n_samples quadrature vectors from the state's Gaussian law.

    Returns an (n_samples, 2*n_modes) array; the Cholesky factor of the CM
    colors an independent standard-normal row per sample.
    """
    return np.concatenate(list(_gaussian_blocks(state.mean, state.cov.entries,
                                                cfg.seed, stream, cfg.n_samples)))


@dataclass(frozen=True)
class _Moments:
    """Count, mean and central power sums M2, M3, M4 of a sample."""

    n: int
    mean: float
    m2: float
    m3: float
    m4: float

    def merge(self, other: _Moments) -> _Moments:
        """The moments of both samples together (Chan et al. 1979; Pebay 2008)."""
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        dn = delta / n
        return _Moments(
            n=n,
            mean=self.mean + dn * nb,
            m2=self.m2 + other.m2 + delta * dn * na * nb,
            m3=(self.m3 + other.m3 + delta * dn * dn * na * nb * (na - nb)
                + 3.0 * dn * (na * other.m2 - nb * self.m2)),
            m4=(self.m4 + other.m4 + delta * dn ** 3 * na * nb * (na * na - na * nb + nb * nb)
                + 6.0 * dn * dn * (na * na * other.m2 + nb * nb * self.m2)
                + 4.0 * dn * (na * other.m3 - nb * self.m3)),
        )

    @property
    def var(self) -> float:
        return self.m2 / (self.n - 1)

    @property
    def se_mean(self) -> float:
        return math.sqrt(self.var / self.n)

    @property
    def se_var(self) -> float:
        n, s2 = self.n, self.var
        return math.sqrt(max(self.m4 / n - s2 * s2 * (n - 3) / (n - 1), 0.0) / n)

    @property
    def cov_mean_var(self) -> float:
        return self.m3 / self.n / self.n


def _count_weights(src: SourceParams, ch: ChannelParams,
                   noise: NoiseParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """(lambda_+, lambda_-) under H0, then under H1: one pulse's count is lambda_+ X_1 + lambda_- X_2.

    The count is q_pc*q_I + p_pc*p_I of the conjugated return/idler state.
    Its (q_pc, q_I) and (p_pc, p_I) pairs are independent, each with
    variances (a, b) and covariance x: b = mu/2, a = (omega+1)/2 under H0
    and (gamma+1)/2 under H1 (conjugation adds one vacuum unit), x = 0 under
    H0 and sqrt(kappa)*c/2 under H1, with (mu, omega, gamma) those of snr_pc.
    A product of such a pair is lambda_+ z_1^2 + lambda_- z_2^2 with
    lambda_+- = (x +- r)/2, r = sqrt(a b), so the two pairs give
    X_1, X_2 ~ chi^2_2. The law needs only a, b > 0, and x^2 <= a b, so that
    lambda_- <= 0, would follow from c <= c_q. But SourceParams accepts a
    corr up to c_q*(1 + 1e-12), and from N ~ 1e12 that puts lambda_- under
    H1 a rounding above 0; at m = 1 _block_trial_means then clamps pi to 1,
    so every count takes the plus branch
    (TestCountLaw::test_corr_a_rounding_past_the_bound_takes_only_the_plus_branch).
    """
    mu, omega, gamma = _noisy(src, ch, noise)
    b = 0.5 * mu
    weights = []
    for a, x in ((0.5 * (omega + 1.0), 0.0),
                 (0.5 * (gamma + 1.0), 0.5 * (math.sqrt(ch.reflectivity) * src.corr))):
        r = math.sqrt(a * b)
        if r == math.inf:
            raise ValueError(_COUNT_OVERFLOW)
        weights.append((0.5 * (x + r), 0.5 * (x - r)))
    return tuple(weights)


def _block_trial_means(out: np.ndarray, scratch: np.ndarray, weights: tuple[float, float],
                       m: int, seed: int, stream: int, block: int) -> np.ndarray:
    """Fill out with the trial averages of the difference count over m pulses each.

    The trials are the first len(out) rows of the given block of the stream.
    weights = (lambda_+, lambda_-) of one hypothesis (_count_weights), with
    lambda_+ >= 0 >= lambda_-: m pulses sum to lambda_+ chi^2_2m +
    lambda_- chi^2_2m.

    At m = 1 that is 2 lambda_+ E_1 + 2 lambda_- E_2 with E_i ~ Exp(1), an
    asymmetric Laplace variable: by partial fractions of its characteristic
    function it is 2 lambda_+ E with probability pi = lambda_+/(lambda_+ -
    lambda_-), and 2 lambda_- E otherwise (Kotz, Kozubowski and Podgorski,
    "The Laplace Distribution and Generalizations", 2001). E is drawn row by
    row from the block's generator into out, then n_+ ~ Binomial(len(out),
    pi) from it, and the first n_+ rows take the weight 2 lambda_+, the
    rest 2 lambda_-: an exchangeable sample, plus-branch rows first, so a
    reduction symmetric in the rows sees i.i.d. counts. scratch is unused.

    At m >= 2 a trial is (2 lambda_+ G_1 + 2 lambda_- G_2)/m with G_1, G_2 ~
    Gamma(m) drawn as one row: the cost does not grow with m. The rows are
    drawn in stream order into scratch, viewed as (G_1, G_2) pairs, so a
    block that fills out takes two draws when scratch is as long as out;
    scratch must hold at least one pair.
    """
    gen = _block_generator(seed, stream, block)
    if m == 1:
        lam_plus, lam_minus = weights
        gen.standard_exponential(out=out)
        # lambda_+ - lambda_- = r is finite wherever _count_weights returns;
        # 2 lambda_+ - 2 lambda_- overflows from r ~ 9e307. pi tops 1 only where
        # a corr within c_q's 1e-12 tolerance puts lambda_- a rounding above 0
        pi = min(lam_plus / (lam_plus - lam_minus), 1.0)
        n_plus = gen.binomial(len(out), pi)
        np.multiply(out[:n_plus], 2.0 * lam_plus, out=out[:n_plus])
        np.multiply(out[n_plus:], 2.0 * lam_minus, out=out[n_plus:])
        return out
    w_plus, w_minus = (2.0 * lam / m for lam in weights)
    pairs = scratch[:len(scratch) // 2 * 2].reshape(-1, 2)
    for start in range(0, len(out), len(pairs)):
        means = out[start:start + len(pairs)]
        g = pairs[:len(means)]
        gen.standard_gamma(m, out=g)
        # elementwise, not g @ w: a trial's bits then do not depend on its block's size
        np.multiply(g[:, 0], w_plus, out=means)
        np.add(means, np.multiply(g[:, 1], w_minus, out=g[:, 1]), out=means)
    return out


def _block_moments(means: np.ndarray, squares: np.ndarray) -> _Moments:
    """The moments of one block, centred on its own mean; overwrites both buffers."""
    mean = float(means.mean())
    centered = np.subtract(means, mean, out=means)
    # an overflow reads inf or nan, without a warning: simulate_pc_receiver rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        # not centered ** 3 and ** 4: numpy's general power is ~100x slower
        np.square(centered, out=squares)
        # pairwise add.reduce, not dot products: numpy's source fixes its order,
        # where a BLAS dot's follows BLAS's thread count
        m2 = float(np.add.reduce(squares))
        m3 = float(np.add.reduce(np.multiply(squares, centered, out=centered)))
        m4 = float(np.add.reduce(np.square(squares, out=squares)))
    return _Moments(n=means.size, mean=mean, m2=m2, m3=m3, m4=m4)


def _usable_cpus() -> int:
    """The CPUs this process may run on, as nproc counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


# each worker holds two buffers of 2**16 doubles (1 MiB), so the cap keeps a
# call's traced peak under ~9 MiB on any host
_MAX_WORKERS = 8


def _reduced_hypotheses(src: SourceParams, ch: ChannelParams, noise: NoiseParams,
                        m: int, cfg: SamplerConfig, reducer) -> tuple[list, list]:
    """reducer(trial means, scratch) of each block of trial means over m pulses, for H0
    (stream 0) and H1 (stream 2).

    Workers take the blocks of both hypotheses from one queue; each draws
    and reduces a block into its buffers, allocated here, and the result
    into the block's slot. One worker per usable CPU, at most _MAX_WORKERS
    and one per 2**16 of the call's 2 * n_samples rows: two or more run on
    threads made for the call, a lone one on the calling thread. A block's
    result depends only on its (seed, stream, block), so the results, in
    block order, are the same for any worker count or order of completion.
    """
    n = cfg.n_samples
    blocks = [(weights, stream, block, min(_BLOCK, n - start))
              for weights, stream in zip(_count_weights(src, ch, noise), (0, 2))
              for block, start in enumerate(range(0, n, _BLOCK))]
    workers = min(_usable_cpus(), _MAX_WORKERS, -(-2 * n // _BLOCK))
    todo = deque([*range(len(blocks)), *[None] * workers])  # atomic pops; a None stops a worker
    results = [None] * len(blocks)
    size = min(_BLOCK, n)
    # allocated here: a worker thread's land in its own malloc arena (+2 MB peak RSS
    # on mc_validation). scratch holds an even count, for m >= 2 gamma pairs in two halves
    buffers = [(np.empty(size), np.empty(size + size % 2)) for _ in range(workers)]

    def work(worker_buffers):
        means, scratch = worker_buffers
        for index in iter(todo.popleft, None):
            weights, stream, block, rows = blocks[index]
            results[index] = reducer(_block_trial_means(means[:rows], scratch, weights, m,
                                                        cfg.seed, stream, block), scratch[:rows])

    if workers == 1:
        work(buffers[0])
    else:
        # imported here: concurrent.futures loads logging, and `import qillum.cli` need not
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="qillum-sampler") as pool:
            list(pool.map(work, buffers))
    return results[:len(blocks) // 2], results[len(blocks) // 2:]


def _empirical_stats(b0: _Moments, b1: _Moments) -> EmpiricalStats:
    """The difference-count statistics of the H0 and H1 sample moments.

    snr_hat uses the same deflection form as the closed form; its standard
    error comes from first-order propagation of the four moment estimates
    (including the within-hypothesis mean/variance covariance).
    """
    diff = b1.mean - b0.mean
    root_sum = math.sqrt(b1.var) + math.sqrt(b0.var)
    snr_hat = diff ** 2 / (2.0 * root_sum ** 2)

    # delta method: d snr/d mean_h = +-diff/T^2, d snr/d var_h = -diff^2/(2 T^3 sqrt(v_h))
    t_sq = root_sum ** 2
    var_snr = 0.0
    for sign, b in ((-1.0, b0), (1.0, b1)):
        g_mu = sign * diff / t_sq
        g_v = -diff ** 2 / (2.0 * t_sq * root_sum * math.sqrt(b.var))
        var_snr += (g_mu ** 2 * b.se_mean ** 2
                    + g_v ** 2 * b.se_var ** 2
                    + 2.0 * g_mu * g_v * b.cov_mean_var)
    return EmpiricalStats(
        mean_h0=b0.mean, mean_h1=b1.mean,
        var_h0=b0.var, var_h1=b1.var,
        snr_hat=snr_hat,
        se_mean_h0=b0.se_mean, se_mean_h1=b1.se_mean,
        se_var_h0=b0.se_var, se_var_h1=b1.se_var,
        se_snr=math.sqrt(max(var_snr, 0.0)),
    )


def simulate_pc_receiver(src: SourceParams, ch: ChannelParams, noise: NoiseParams,
                         cfg: SamplerConfig) -> EmpiricalStats:
    """Empirical difference-count statistics under both hypotheses.

    Each sample is one pulse's count drawn from its exact law: the threshold
    test's trial at m = 1 on the same stream. Each block's moments merge in
    block order (_Moments.merge). ValueError where the moments overflow, so
    that a standard error is not finite: from N_B ~ 1e152 at the default N_I
    and 2000 samples, at a point that the draws set.
    """
    if cfg.n_samples < 2:
        raise ValueError("variance estimates need at least 2 samples")
    blocks = _reduced_hypotheses(src, ch, noise, 1, cfg, _block_moments)
    try:
        b0, b1 = (reduce(_Moments.merge, run) for run in blocks)
    except OverflowError:  # a power of two blocks' mean difference in the merge
        raise ValueError(_COUNT_OVERFLOW) from None
    if not all(math.isfinite(se) for b in (b0, b1) for se in (b.se_mean, b.se_var)):
        raise ValueError(_COUNT_OVERFLOW)
    return _empirical_stats(b0, b1)


def deflection_se(emp: EmpiricalStats, snr: float) -> float:
    """Standard error of sqrt(snr_hat) about the exact deflection sqrt(snr).

    sqrt(snr_hat) = |mean_h1 - mean_h0| / (sqrt(2)*(sqrt(var_h1) + sqrt(var_h0)))
    is near-normal, with a spread set by the mean errors whatever its size, so
    it carries a gate at any SNR. snr_hat does not: where the mean difference
    is a few standard errors it is the square of a noisy number, and se_snr,
    propagated at the estimate, shrinks with it.
    """
    d = math.sqrt(snr)
    t = math.sqrt(emp.var_h0) + math.sqrt(emp.var_h1)
    se_sq = (emp.se_mean_h0 ** 2 + emp.se_mean_h1 ** 2) / (2.0 * t * t)
    for var, se_var in ((emp.var_h0, emp.se_var_h0), (emp.var_h1, emp.se_var_h1)):
        se_sq += (d * se_var / (2.0 * t * math.sqrt(var))) ** 2
    return math.sqrt(se_sq)


def empirical_error_rate(src: SourceParams, ch: ChannelParams, noise: NoiseParams,
                         m, cfg: SamplerConfig) -> float:
    """Misclassification fraction of the threshold test after m pulse pairs.

    Each trial averages the difference count over m pulses, drawn from that
    average's exact law, and declares "target present" above the midpoint
    of the two analytic conditional means (0 and sqrt(kappa)*c). Equal
    priors: the returned rate averages the false-alarm and missed-detection
    fractions.
    """
    m = _validate_pulses(m)
    threshold = 0.5 * math.sqrt(ch.reflectivity) * src.corr

    def count_above(means, scratch):
        return int(np.count_nonzero(means > threshold))

    above = [sum(blocks) for blocks in _reduced_hypotheses(src, ch, noise, m, cfg, count_above)]
    return 0.5 * (above[0] + cfg.n_samples - above[1]) / cfg.n_samples
