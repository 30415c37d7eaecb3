"""Acceptance gate: one printed pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; each test is
one criterion, so the pytest verdict mirrors the printed line.
"""
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from _oracles import (check_gaussian_moment_identities, checked_compute_sweep, checked_min_error,
                      cs_qcb_exponent, deflection_sigma, fock_s_overlap_thermal, generic_qbb,
                      generic_qcb, generic_s_overlap, random_physical_cm)

import qillum.cli
from qillum.bounds import (
    ccb,
    gaussian_s_overlap,
    heterodyne_distributions,
    qcb,
)
from qillum.cli import main as cli_main
from qillum.montecarlo import SamplerConfig, simulate_pc_receiver
from qillum.receiver import half_erfc, half_exp, homodyne_min_error, snr_pc
from qillum.states import (
    ChannelParams,
    GaussianState,
    NoiseParams,
    coherent_benchmark_states,
    conditional_states,
    make_source,
)
from qillum.symplectic import CovMatrix, symplectic_form, williamson

REF_SRC = make_source(0.01, 0.01, corr="quantum")
REF_CH = ChannelParams(reflectivity=0.01, n_background=20.0)

NOISE_BY_RECEIVER = (
    ("QI+PC", NoiseParams(), 2.3576e-6),
    ("QI+Cal+PC", NoiseParams(eps_return=1.0), 2.3028e-6),
    ("QI+Het+PC", NoiseParams(eps_return=1.0, eps_idler=1.0), 1.1628e-6),
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    print(f"criterion {num}: PASS - {label}")


def test_criterion_1_coherent_closed_form_cross_check():
    t0 = time.perf_counter()
    with criterion(1, "coherent-state bound matches the closed form on the "
                      "75-point grid to rel 1e-9 in under 10 s"):
        for ns in (0.001, 0.01, 0.1, 1.0, 10.0):
            for nb in (0.0, 0.1, 1.0, 20.0, 100.0):
                for kappa in (0.001, 0.01, 0.1):
                    ch = ChannelParams(reflectivity=kappa, n_background=nb)
                    numeric = qcb(*coherent_benchmark_states(ns, ch)).bound
                    closed = half_exp(1, cs_qcb_exponent(ns, ch))
                    assert abs(numeric - closed) <= 1e-9 * closed
        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_fock_basis_oracle():
    with criterion(2, "vacuum vs thermal(1) s=1/2 overlap equals 0.7071068 "
                      "to 1e-6 against the cutoff-200 number-basis oracle"):
        # each beside a vacuum idler: the model's two-mode standard form
        vac = GaussianState(mean=np.zeros(4), cov=CovMatrix(0.5 * np.eye(4)))
        th = GaussianState(mean=np.zeros(4), cov=CovMatrix(np.diag([1.5, 1.5, 0.5, 0.5])))
        numeric = gaussian_s_overlap(vac, th, 0.5)
        oracle = fock_s_overlap_thermal(0.0, 1.0, 0.5, cutoff=200)
        assert abs(numeric - 0.7071068) <= 1e-6
        assert abs(oracle - 0.7071068) <= 1e-6


def test_criterion_3_snr_values_and_sampling():
    t0 = time.perf_counter()
    with criterion(3, "receiver SNR triple matches to 1e-10 and seed-42 "
                      "sampling deflection lands within 3 standard errors in under 60 s"):
        cfg = SamplerConfig(seed=42, n_samples=1_000_000)
        for _, noise, target in NOISE_BY_RECEIVER:
            stats = snr_pc(REF_SRC, REF_CH, noise)
            assert abs(stats.snr - target) <= 1e-10
            emp = simulate_pc_receiver(REF_SRC, REF_CH, noise, cfg)
            assert deflection_sigma(emp, stats.snr) <= 3
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_per_mode_rate_orderings():
    with criterion(4, "per-mode rates ordered QI+PC > QI+Cal+PC > CS-QCB >= "
                      "CS+Hom > QI+Het+PC and CCB <= CS-QCB"):
        rates = {label: snr_pc(REF_SRC, REF_CH, noise).snr
                 for label, noise, _ in NOISE_BY_RECEIVER}
        rates["CS-QCB"] = cs_qcb_exponent(REF_SRC.n_signal, REF_CH)
        rates["CS+Hom"] = (REF_CH.reflectivity * REF_SRC.n_signal
                           / (4.0 * REF_CH.n_background + 2.0))
        states = conditional_states(REF_SRC, REF_CH)
        ccb_exponent = ccb(heterodyne_distributions(*states)).exponent
        assert rates["QI+PC"] > rates["QI+Cal+PC"] > rates["CS-QCB"] \
            >= rates["CS+Hom"] > rates["QI+Het+PC"]
        assert ccb_exponent <= rates["CS-QCB"]


def test_criterion_5_bright_background_asymptotics():
    with criterion(5, "bright-background SNR ratios within [0.999, 1.001] and "
                      "QI+PC/CS+Hom within 1e-3 of 2(1+N_I)/(1+2N_I)"):
        ns = ni = kappa = 0.01
        nb = 1e6
        src = make_source(ns, ni, corr="quantum")
        ch = ChannelParams(reflectivity=kappa, n_background=nb)
        r_pc = snr_pc(src, ch, NoiseParams()).snr
        r_het = snr_pc(src, ch, NoiseParams(eps_return=1.0, eps_idler=1.0)).snr
        r_hom = kappa * ns / (4.0 * nb + 2.0)
        assert 0.999 <= r_pc * (2 * nb * (1 + 2 * ni)) / ((1 + ni) * kappa * ns) <= 1.001
        assert 0.999 <= r_het * 4 * nb / (kappa * ns) <= 1.001
        assert abs(r_pc / r_hom - 2 * (1 + ni) / (1 + 2 * ni)) <= 1e-3


def test_criterion_6_advantage_limit_small_idler():
    # a physical source has c^2 <= 4*min(N_S, N_I)*(max(N_S, N_I) + 1), so the
    # advantage needs N_S <= N_I; there the ratio is 2(1+N_I)/(1+2N_I) whatever
    # N_S is, and it tends to 2 as the idler dims
    with criterion(6, "QI+PC over CS+Hom tends to 2 as the idler dims, with "
                      "N_S <= N_I (ratio in [1.998, 2.001] at N_I = 1e-6, "
                      "N_S in {1e-6, 1e-8}, N_B = 1e6)"):
        kappa, ni, nb = 0.01, 1e-6, 1e6
        ch = ChannelParams(reflectivity=kappa, n_background=nb)
        for ns in (1e-6, 1e-8):
            src = make_source(ns, ni, corr="quantum")
            ratio = snr_pc(src, ch, NoiseParams()).snr / (kappa * ns / (4 * nb + 2))
            assert 1.998 <= ratio <= 2.001


def test_criterion_7_property_suites():
    with criterion(7, "normal-form round trips on 1000 seeded CMs, overlap "
                      "swap symmetry, bound chain, s* window, kappa=0 CCB, "
                      "moment-identity gates"):
        omega = symplectic_form(2)
        for seed in range(1000):
            m = random_physical_cm(np.random.default_rng(seed), 2)
            dec = williamson(CovMatrix(m))
            assert np.abs(dec.s_matrix @ omega @ dec.s_matrix.T - omega).max() < 1e-10
            recon = dec.s_matrix @ dec.diagonal_form() @ dec.s_matrix.T
            assert np.abs(recon - m).max() < 1e-9

        rng = np.random.default_rng(4242)
        for _ in range(50):
            a = GaussianState(mean=rng.normal(size=4, scale=0.5),
                              cov=CovMatrix(random_physical_cm(rng, 2)))
            b = GaussianState(mean=rng.normal(size=4, scale=0.5),
                              cov=CovMatrix(random_physical_cm(rng, 2)))
            s = rng.uniform(0.05, 0.95)
            # random pairs have no closed form: the generic oracle route
            fwd = generic_s_overlap(a, b, s)
            rev = generic_s_overlap(b, a, 1.0 - s)
            assert abs(fwd - rev) <= 1e-10 * max(fwd, rev)
            bound = generic_qcb(a, b).bound
            assert abs(bound - generic_qcb(b, a).bound) <= 1e-10 * bound
            assert bound <= generic_qbb(a, b) * (1 + 1e-10)
            assert generic_qbb(a, b) <= 0.5 * (1 + 1e-12)

        for kappa in (0.005, 0.01, 0.02):
            for nb in (10.0, 20.0, 40.0):
                for ns in (0.005, 0.01, 0.02):
                    src = make_source(ns, ns, corr="quantum")
                    ch = ChannelParams(reflectivity=kappa, n_background=nb)
                    assert 0.49 <= qcb(*conditional_states(src, ch)).s_star <= 0.51

        blind = ChannelParams(reflectivity=0.0, n_background=20.0)
        pair = heterodyne_distributions(*conditional_states(REF_SRC, blind))
        assert ccb(pair).exponent <= 1e-9

        report = check_gaussian_moment_identities(
            SamplerConfig(seed=1, n_samples=200_000))
        assert report.all_passed


def test_criterion_8_homodyne_error_formulas():
    with criterion(8, "threshold optimization matches the closed form to "
                      "1e-12, stays finite to M*SNR = 700, monotone in M"):
        for ns in (0.01, 0.5):
            for kappa in (0.01, 0.3):
                for nb in (0.5, 20.0):
                    ch = ChannelParams(reflectivity=kappa, n_background=nb)
                    for m in (1, 1000, 100000):
                        opt = checked_min_error(ns, ch, m)
                        closed = half_erfc(math.sqrt(m * kappa * ns / (4 * nb + 2)))
                        assert abs(opt.p_error - closed) <= 1e-12 * closed

        deep_ch = ChannelParams(reflectivity=0.5, n_background=0.0)
        rate = 0.5 * 1.0 / 2.0
        grid = sorted({int(round(700.0 / rate * f)) for f in np.geomspace(1e-3, 1.0, 25)})
        previous = math.inf
        for m in grid:
            opt = checked_min_error(1.0, deep_ch, m)
            assert math.isfinite(opt.log_p_error)
            assert opt.p_error > 0.0
            assert opt.p_error <= previous * (1 + 1e-14)
            previous = opt.p_error
        assert grid[-1] * rate == 700.0
        assert homodyne_min_error(1.0, deep_ch, grid[-1]).log_p_error < -690.0


def test_criterion_9_golden_sweep_is_byte_stable(tmp_path, capsys, monkeypatch):
    with criterion(9, "committed comparison CSV regenerates byte-for-byte "
                      "through the command line"):
        # the CS+Hom row is held to mpmath (check_cs_hom_rows) as it is written
        monkeypatch.setattr(qillum.cli, "compute_sweep", checked_compute_sweep)
        out = tmp_path / "comparison_sweep.csv"
        rc = cli_main([
            "sweep", "--ns", "0.01", "--ni", "0.01", "--c", "quantum",
            "--kappa", "0.01", "--nb", "20", "--m-log", "1e5,1e8,13",
            "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        golden = Path(__file__).parent / "golden" / "comparison_sweep.csv"
        assert out.read_bytes() == golden.read_bytes()
