#!/usr/bin/env python3
"""Validate the closed forms against seeded sampling.

Runs the empirical-vs-analytic gate table at the reference operating point,
then estimates threshold-test error rates at a few pulse counts and compares
them with (1/2)erfc(sqrt(M*SNR)), each within 5 binomial standard errors.
Both draw the difference count from its exact law, not quadrature by
quadrature: one sample of the gate table is one pulse's count, one
exponential (each 2^16-row block also draws its number of plus-branch
counts once), and each trial's average count takes two gamma variates
whatever M >= 2 (at M = 1 it is one count). The erfc is the
central-limit approximation of that law; at M >= 50 it is within 0.13
standard errors of the exact rate at the default 4000 trials. Exit code 4
signals a gate failure.

    python3 scripts/run_sampling_validation.py
"""
import argparse
import math
import sys

from qillum.cli import main as qi_main
from qillum.montecarlo import SamplerConfig, empirical_error_rate
from qillum.receiver import half_erfc, snr_pc
from qillum.states import ChannelParams, NoiseParams, make_source


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--trials", type=int, default=4000)
    args = parser.parse_args()

    rc = qi_main(["mc", "--seed", str(args.seed), "--samples", str(args.samples)])
    if rc != 0:
        return rc

    src = make_source(0.2, 0.2, corr="quantum")
    ch = ChannelParams(reflectivity=0.05, n_background=0.5)
    noise = NoiseParams()
    snr = snr_pc(src, ch, noise).snr
    print(f"\nthreshold-test error rates (N_S=N_I=0.2, kappa=0.05, N_B=0.5, "
          f"snr={snr:.6e}, {args.trials} trials)")
    print(f"{'M':>6} {'empirical':>12} {'gaussian':>12} {'se':>10}")
    worst = 0.0
    for m in (50, 200, 800):
        cfg = SamplerConfig(seed=args.seed, n_samples=args.trials)
        rate = empirical_error_rate(src, ch, noise, m, cfg)
        predicted = half_erfc(math.sqrt(m * snr))
        se = math.sqrt(max(predicted * (1 - predicted), 1e-12) / (2 * args.trials))
        worst = max(worst, abs(rate - predicted) / se)
        print(f"{m:>6} {rate:>12.6f} {predicted:>12.6f} {se:>10.6f}")
    print(f"worst deviation: {worst:.2f} se")
    return 0 if worst <= 5.0 else 4


if __name__ == "__main__":
    sys.exit(run())
