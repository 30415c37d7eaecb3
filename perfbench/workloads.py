"""The benchmark's three workloads: inputs from a seed, timed rounds, checks.

A round is a fixed list of operations; a run repeats whole rounds, so the
attempted and failed counts of every run are whole multiples of one round's.
Rounds reuse the same inputs and sampler seeds, and each round's outputs must
equal the first round's bit for bit.
"""
from __future__ import annotations

import math
import random
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np

from qillum.bounds import ccb, gaussian_s_overlap, heterodyne_distributions, qcb
from qillum.cli import ScenarioParams, SweepSpec, compute_sweep, sweep_csv
from qillum.montecarlo import (SamplerConfig, empirical_error_rate, sample_quadratures,
                               simulate_pc_receiver)
from qillum.receiver import half_erfc, homodyne_min_error, log_erfc, snr_pc
from qillum.states import (ChannelParams, NoiseParams, apply_noise, coherent_benchmark_states,
                           conditional_states)
from qillum.symplectic import is_physical, williamson

from receivers import BOUND_RECEIVERS, PC_EXTRA_NOISE, THRESHOLD_RECEIVERS


def log_grid(start: float, stop: float, count: int) -> tuple:
    """Distinct integers nearest to count log-spaced points on [start, stop]."""
    ratio = (stop / start) ** (1.0 / (count - 1))
    return tuple(sorted({int(round(start * ratio ** i)) for i in range(count)}))


THRESHOLD_M = log_grid(10.0, 1e10, 300)    # 299 distinct M
GOLDEN_M = log_grid(1e5, 1e8, 13)          # the golden CSV's grid
THRESHOLD_SCENARIOS = 16
BOUND_SCENARIOS = 28
# The golden family: its bound rows are the ones counted as failed operations.
GOLDEN_FAMILY = tuple(ScenarioParams(ns, ns, "quantum", 0.01, nb)
                      for ns in (0.01, 0.1) for nb in (1.0, 20.0))

MC_SAMPLES = 1_000_000
MC_TRIALS = 4000
MC_PULSES = (50, 200, 800)
MC_GOLDEN = ScenarioParams(0.01, 0.01, "quantum", 0.01, 20.0)
MC_VALIDATION = ScenarioParams(0.2, 0.2, "quantum", 0.05, 0.5)
MIN_ROUNDS = 2

# Ranges of the drawn scenarios. The cost of a threshold scenario grows with
# its rates (more M land in log_erfc's asymptotic branch), so the homodyne rate
# kappa N_S / (4 N_B + 2) is drawn one value per stratum of its range and N_B
# solved from it; every seed then carries the same spread of costs.
NS_RANGE = (1e-3, 1.0)
KAPPA_RANGE = (1e-3, 0.5)
NB_RANGE = (0.1, 1e3)
RATE_RANGE = (1e-9, 1e-2)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_scenarios(seed: int, stream: str, k: int) -> list:
    """k scenarios spread over the ranges, the same for the same (seed, stream).

    N_S, N_I and kappa are log-uniform, N_B follows from the drawn rate (drawn
    again until it lies in NB_RANGE). Every third scenario is at c = c_q
    without added noise (where the abstract's limits are exact); the others
    take c uniform on [c_d, c_q] and eps_r, eps_i in {0, 1}. N_S <= N_I: only
    there is c_q = 2 sqrt(N_S (N_I + 1)) the quantum bound the program takes it for.
    """
    rng = random.Random(f"{stream}:{seed}")
    a, b = (math.log(v) for v in RATE_RANGE)
    out = []
    for i in range(k):
        rate = math.exp(a + (b - a) * (i + rng.random()) / k)
        while True:
            n1, n2 = _log_uniform(rng, *NS_RANGE), _log_uniform(rng, *NS_RANGE)
            ns, ni = min(n1, n2), max(n1, n2)
            kappa = _log_uniform(rng, *KAPPA_RANGE)
            nb = (kappa * ns / rate - 2.0) / 4.0
            if NB_RANGE[0] <= nb <= NB_RANGE[1]:
                break
        if i % 3 == 0:
            out.append(ScenarioParams(ns, ni, "quantum", kappa, nb))
            continue
        c_d, c_q = 2.0 * math.sqrt(ns * ni), 2.0 * math.sqrt(ns * (ni + 1.0))
        c = min(c_d + rng.random() * (c_q - c_d), c_q)
        out.append(ScenarioParams(ns, ni, c, kappa, nb,
                                  float(rng.randrange(2)), float(rng.randrange(2))))
    return out


def as_check_scenario(sc: ScenarioParams):
    from checks import Scenario  # checks imports mpmath: not before the timed rounds
    corr = None if sc.c == "quantum" else float(sc.c)
    return Scenario(sc.ns, sc.ni, corr, sc.kappa, sc.nb, sc.eps_r, sc.eps_i)


class Tracer:
    """Spans (name, start, end, parent, attributes) kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, memory: bool = False, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        if memory:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if memory:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()


_NULL = nullcontext()


def untraced(name, memory=False, **attrs):
    return _NULL


class SweepWorkload:
    """compute_sweep plus sweep_csv on a list of scenarios: one row is one operation."""

    def __init__(self, scenarios, m_values, receivers, counted=()):
        self.scenarios = list(scenarios)
        self.specs = [SweepSpec(sc, m_values, receivers) for sc in self.scenarios]
        self.m_values = m_values
        self.receivers = receivers
        self.counted = set(counted)  # indices whose 2-ulp misses count as failed
        self.scenarios_per_round = len(self.specs)
        self.ops_per_round = len(self.specs) * len(receivers) * len(m_values)
        self.samples_per_round = self.ops_per_round
        self.reference = scalar_kernel

    def run_round(self, span, step) -> list:
        """All scenarios; the round is one step of the clock."""
        out = []
        for spec in self.specs:
            with span("cli.compute_sweep"):
                rows = compute_sweep(spec)
            with span("cli.sweep_csv", rows=len(rows)):
                out.append(sweep_csv(rows))
        step()
        return out

    def check(self, outputs) -> tuple[list, int]:
        import checks  # mpmath: not before the timed rounds
        bad, failed = [], 0
        for i, (sc, text) in enumerate(zip(self.scenarios, outputs)):
            label = f"scenario {i} {sc}"
            rows = checks.parse_csv(text)
            csc = as_check_scenario(sc)
            if self.receivers == THRESHOLD_RECEIVERS:
                bad += checks.check_threshold(csc, rows, self.m_values, label)
                continue
            coh = qcb(*coherent_benchmark_states(sc.ns, ChannelParams(sc.kappa, sc.nb)))
            found, beyond = checks.check_bounds(csc, rows, self.m_values,
                                                coh.exponent, label)
            bad += found
            if i in self.counted:
                failed += beyond
        return bad, failed

    def probe_layers(self, tracer: Tracer) -> None:
        """Call each layer's public functions directly on this workload's inputs."""
        for sc in self.scenarios:
            probe_scenario(tracer, sc, self.m_values)
        probe_sampler(tracer, self.scenarios[0], samples=200_000, trials=1000, m=50)


def probe_scenario(tracer: Tracer, sc: ScenarioParams, m_values) -> None:
    src, ch, noise = sc.resolve()
    noises = [NoiseParams(noise.eps_return + er, noise.eps_idler + ei)
              for er, ei in PC_EXTRA_NOISE.values()]
    with tracer.span("receiver.snr_pc", calls=len(noises)):
        rates = [snr_pc(src, ch, n).snr for n in noises]
    xs = [math.sqrt(m * r) for r in rates for m in m_values]
    with tracer.span("receiver.half_erfc", calls=len(xs)):
        for x in xs:
            half_erfc(x)
    with tracer.span("receiver.log_erfc", calls=len(xs)):
        for x in xs:
            log_erfc(x)
    with tracer.span("receiver.homodyne_min_error", calls=len(m_values)):
        for m in m_values:
            homodyne_min_error(src.n_signal, ch, m)
    with tracer.span("states.conditional_states", calls=1):
        states = conditional_states(src, ch)
    with tracer.span("states.apply_noise", calls=1):
        states = apply_noise(states, noise)
    with tracer.span("symplectic.williamson", calls=2):
        for state in states:
            williamson(state.cov)
    with tracer.span("symplectic.is_physical", calls=2):
        for state in states:
            is_physical(state.cov)
    with tracer.span("bounds.qcb", calls=1):
        qcb(*states)
    with tracer.span("bounds.gaussian_s_overlap", calls=1):
        gaussian_s_overlap(*states, s=0.5)
    with tracer.span("bounds.heterodyne_distributions", calls=1):
        pair = heterodyne_distributions(*states)
    with tracer.span("bounds.ccb", calls=1):
        ccb(pair)


def probe_quadratures(tracer: Tracer, sc: ScenarioParams, cfg: SamplerConfig) -> None:
    src, ch, noise = sc.resolve()
    for stream, state in enumerate(apply_noise(conditional_states(src, ch), noise)):
        with tracer.span("montecarlo.sample_quadratures", memory=True, samples=cfg.n_samples):
            sample_quadratures(state, cfg, stream=2 * stream)


def probe_sampler(tracer: Tracer, sc: ScenarioParams, samples: int, trials: int, m: int,
                  seed: int = 7) -> None:
    src, ch, noise = sc.resolve()
    cfg = SamplerConfig(seed=seed, n_samples=samples)
    probe_quadratures(tracer, sc, cfg)
    with tracer.span("montecarlo.simulate_pc_receiver", memory=True, samples=2 * samples):
        simulate_pc_receiver(src, ch, noise, cfg)
    with tracer.span("montecarlo.empirical_error_rate", memory=True,
                     samples=2 * trials * m):
        empirical_error_rate(src, ch, noise, m, SamplerConfig(seed=seed, n_samples=trials))


def _stats_dict(emp) -> dict:
    return {k: getattr(emp, k) for k in (
        "mean_h0", "mean_h1", "var_h0", "var_h1", "snr_hat", "se_mean_h0",
        "se_mean_h1", "se_var_h0", "se_var_h1", "se_snr")}


class SamplingWorkload:
    """Seeded sampling at the golden and validation scenarios: one call is one operation."""

    def __init__(self, seed: int):
        rng = random.Random(f"mc_validation:{seed}")
        self.sampler_seeds = (rng.getrandbits(63), rng.getrandbits(63))
        self.golden = MC_GOLDEN.resolve()
        self.validation = MC_VALIDATION.resolve()
        self.golden_cfg = SamplerConfig(seed=self.sampler_seeds[0], n_samples=MC_SAMPLES)
        self.validation_cfg = SamplerConfig(seed=self.sampler_seeds[1], n_samples=MC_SAMPLES)
        self.trial_cfg = SamplerConfig(seed=self.sampler_seeds[1], n_samples=MC_TRIALS)
        self.scenarios_per_round = 2
        self.ops_per_round = 2 + len(MC_PULSES)
        self.samples_per_round = 2 * 2 * MC_SAMPLES + 2 * MC_TRIALS * sum(MC_PULSES)
        self.reference = array_kernel

    def run_round(self, span, step) -> list:
        """Five sampler calls; each is one step of the clock."""
        out = []
        for params, cfg in ((self.golden, self.golden_cfg),
                            (self.validation, self.validation_cfg)):
            with span("montecarlo.simulate_pc_receiver", memory=True,
                      samples=2 * cfg.n_samples):
                out.append(_stats_dict(simulate_pc_receiver(*params, cfg)))
            step()
        for m in MC_PULSES:
            with span("montecarlo.empirical_error_rate", memory=True,
                      samples=2 * MC_TRIALS * m):
                out.append(empirical_error_rate(*self.validation, m, self.trial_cfg))
            step()
        return out

    def check(self, outputs) -> tuple[list, int]:
        import checks  # mpmath: not before the timed rounds
        golden, validation = as_check_scenario(MC_GOLDEN), as_check_scenario(MC_VALIDATION)
        bad = checks.check_sampler_moments(golden, outputs[0], "golden scenario")
        bad += checks.check_sampler_moments(validation, outputs[1], "validation scenario")
        for m, rate in zip(MC_PULSES, outputs[2:]):
            bad += checks.check_error_rate(validation, m, MC_TRIALS, rate,
                                           "validation scenario")
        return bad, 0

    def probe_layers(self, tracer: Tracer) -> None:
        for sc in (MC_GOLDEN, MC_VALIDATION):
            probe_scenario(tracer, sc, GOLDEN_M)
            with tracer.span("cli.compute_sweep"):
                rows = compute_sweep(SweepSpec(sc, GOLDEN_M,
                                               THRESHOLD_RECEIVERS + BOUND_RECEIVERS))
            with tracer.span("cli.sweep_csv", rows=len(rows)):
                sweep_csv(rows)
        # simulate_pc_receiver and empirical_error_rate are timed in the rounds
        probe_quadratures(tracer, MC_VALIDATION, self.validation_cfg)


def build(name: str, seed: int):
    """The workload's inputs; nothing here is timed as an operation."""
    if name == "threshold_sweep":
        return SweepWorkload(draw_scenarios(seed, name, THRESHOLD_SCENARIOS),
                             THRESHOLD_M, THRESHOLD_RECEIVERS)
    if name == "bounds_scan":
        family = list(GOLDEN_FAMILY) + draw_scenarios(seed, name, BOUND_SCENARIOS)
        return SweepWorkload(family, GOLDEN_M, BOUND_RECEIVERS,
                             counted=range(len(GOLDEN_FAMILY)))
    if name == "mc_validation":
        return SamplingWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


# Host-speed normalisation. The reference host slows code by up to 2x for tens
# of seconds at a time (other tenants' load; CPU time rises with wall time), so
# each step of a workload is followed by a fixed kernel of the same kind of
# work that runs no qillum code, and the step's time is expressed in units of
# that kernel's duration on an unloaded core (README.md, "Host-speed
# normalisation"). The nominal durations were measured on the reference host.
_REF_MATRIX = np.eye(4) + 0.1


def scalar_kernel() -> float:
    """Interpreter-bound work like the sweeps': float math and 4x4 eigen-solves."""
    s = 0.0
    for i in range(1, 40001):
        s += math.sqrt(i) * math.log(i)
    for _ in range(300):
        s += float(np.linalg.eigvals(_REF_MATRIX).real.sum())
    return s


scalar_kernel.nominal_s = 0.011


def array_kernel() -> float:
    """Memory-bound work like the sampler's: Philox normals coloured and squared."""
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    x = gen.standard_normal((200_000, 4)) @ _REF_MATRIX.T
    return float(np.mean(0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2 - x[:, 2] ** 2 - x[:, 3] ** 2)))


array_kernel.nominal_s = 0.028


class StepClock:
    """Busy time of a run's steps, and the same time in reference-kernel units.

    A step's time is divided by the mean of the kernel's time just before and
    just after it, times the kernel's nominal duration; the kernel's own time
    is not counted as busy.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.busy = self.scaled = 0.0
        self.refs = [self._kernel_seconds()]
        self.t0 = time.perf_counter()

    def _kernel_seconds(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def restart(self) -> None:
        self.t0 = time.perf_counter()

    def step(self) -> None:
        took = time.perf_counter() - self.t0
        self.refs.append(self._kernel_seconds())
        self.busy += took
        self.scaled += took * self.kernel.nominal_s / (0.5 * (self.refs[-2] + self.refs[-1]))
        self.t0 = time.perf_counter()


def run_timed(workload, seconds: float, span=untraced) -> dict:
    """Repeat whole rounds until `seconds` have passed (at least MIN_ROUNDS)."""
    first, identical, rounds = None, True, 0
    clock = StepClock(workload.reference)
    start = time.perf_counter()
    while True:
        clock.restart()
        out = workload.run_round(span, clock.step)
        rounds += 1
        if first is None:
            first = out
        elif out != first:
            identical = False
        if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    return {"rounds": rounds, "busy_s": clock.busy, "scaled_s": clock.scaled,
            "kernel_median_s": statistics.median(clock.refs), "outputs": first,
            "identical": identical}
