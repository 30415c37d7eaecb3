"""Each of the benchmark's checks accepts qillum's true output and rejects a doctored one.

Run from the root of the repository:  python3 -m pytest -q perfbench/test_checks.py
"""
import dataclasses
import math
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from qillum.bounds import qcb  # noqa: E402
from qillum.cli import ScenarioParams, SweepSpec, compute_sweep, sweep_csv  # noqa: E402
from qillum.montecarlo import SamplerConfig, empirical_error_rate, simulate_pc_receiver  # noqa: E402
from qillum.states import ChannelParams, coherent_benchmark_states  # noqa: E402

GOLDEN = ScenarioParams(0.01, 0.01, "quantum", 0.01, 20.0)
NOISY = ScenarioParams(0.05, 0.3, 0.2, 0.02, 5.0, eps_r=1.0, eps_i=0.0)
M_GRID = workloads.GOLDEN_M


def sweep_rows(sc, receivers, m_values=M_GRID):
    return checks.parse_csv(sweep_csv(compute_sweep(SweepSpec(sc, m_values, receivers))))


def replace_rows(rows, receiver, **changes):
    return [dataclasses.replace(r, **changes) if r.receiver == receiver else r for r in rows]


def coherent_exponent(sc):
    return qcb(*coherent_benchmark_states(sc.ns, ChannelParams(sc.kappa, sc.nb))).exponent


@pytest.mark.parametrize("sc", [GOLDEN, NOISY])
def test_threshold_check_accepts_true_output(sc):
    rows = sweep_rows(sc, checks.THRESHOLD_RECEIVERS)
    assert checks.check_threshold(workloads.as_check_scenario(sc), rows, M_GRID) == []


def test_threshold_check_rejects_p_error_moved_by_8_ulps():
    rows = sweep_rows(GOLDEN, checks.THRESHOLD_RECEIVERS)
    i = 4
    moved = dataclasses.replace(rows[i], p_error=rows[i].p_error + 8 * math.ulp(rows[i].p_error))
    bad = checks.check_threshold(workloads.as_check_scenario(GOLDEN),
                                 rows[:i] + [moved] + rows[i + 1:], M_GRID)
    assert len(bad) == 1 and f"M={rows[i].m}: p_error" in bad[0]


def test_threshold_check_rejects_swapped_pc_rates():
    rows = sweep_rows(NOISY, checks.THRESHOLD_RECEIVERS)
    rate = {r.receiver: r.rate for r in rows}
    rows = replace_rows(rows, "QI+PC", rate=rate["QI+Het+PC"])
    rows = replace_rows(rows, "QI+Het+PC", rate=rate["QI+PC"])
    bad = checks.check_threshold(workloads.as_check_scenario(NOISY), rows, M_GRID)
    assert any("QI+PC: rate" in b for b in bad)
    assert any("QI+Het+PC: rate" in b for b in bad)
    assert any("rates out of order" in b for b in bad)


@pytest.mark.parametrize("sc", [GOLDEN, NOISY])
def test_bounds_check_accepts_true_output(sc):
    rows = sweep_rows(sc, checks.BOUND_RECEIVERS)
    bad, _ = checks.check_bounds(workloads.as_check_scenario(sc), rows, M_GRID,
                                 coherent_exponent(sc))
    assert bad == []


def test_bounds_check_rejects_qcb_exponent_below_qbb():
    rows = sweep_rows(GOLDEN, checks.BOUND_RECEIVERS)
    qbb = next(r.rate for r in rows if r.receiver == "QI-QBB")
    rows = replace_rows(rows, "QI-QCB", rate=0.99 * qbb)
    bad, _ = checks.check_bounds(workloads.as_check_scenario(GOLDEN), rows, M_GRID,
                                 coherent_exponent(GOLDEN))
    assert any("below QBB exponent" in b for b in bad)


def test_bounds_check_counts_rows_beyond_two_ulps():
    with mpmath.workdps(checks.DPS):
        rows = [dataclasses.replace(r, p_error=float(mpmath.exp(-r.m * mpmath.mpf(r.rate)) / 2))
                for r in sweep_rows(GOLDEN, checks.BOUND_RECEIVERS)]
    sc = workloads.as_check_scenario(GOLDEN)
    coh = coherent_exponent(GOLDEN)
    assert checks.check_bounds(sc, rows, M_GRID, coh) == ([], 0)
    rows[5] = dataclasses.replace(rows[5], p_error=rows[5].p_error + 3 * math.ulp(rows[5].p_error))
    assert checks.check_bounds(sc, rows, M_GRID, coh) == ([], 1)
    slack = checks.bound_p_error_slack(rows[5])
    rows[5] = dataclasses.replace(rows[5], p_error=rows[5].p_error
                                  + math.ceil(slack) * math.ulp(rows[5].p_error))
    bad, beyond = checks.check_bounds(sc, rows, M_GRID, coh)
    assert beyond == 1 and len(bad) == 1 and f"M={rows[5].m}: p_error" in bad[0]


def test_coherent_qcb_check_rejects_a_wrong_exponent():
    sc = workloads.as_check_scenario(GOLDEN)
    exact = checks.exact_rates(sc)["CS-QCB"]
    assert checks.check_coherent_qcb(coherent_exponent(GOLDEN), exact, sc.nb) == []
    assert checks.check_coherent_qcb(float(exact) * (1 + 1e-6), exact, sc.nb) != []


def test_moment_check_accepts_true_sampler_output():
    src, ch, noise = workloads.MC_VALIDATION.resolve()
    emp = simulate_pc_receiver(src, ch, noise, SamplerConfig(seed=3, n_samples=100_000))
    stats = workloads._stats_dict(emp)
    sc = workloads.as_check_scenario(workloads.MC_VALIDATION)
    assert checks.check_sampler_moments(sc, stats) == []
    moved = dict(stats, snr_hat=stats["snr_hat"] + 6 * stats["se_snr"])
    assert checks.check_sampler_moments(sc, moved) != []


def test_deflection_check_holds_a_mean_difference_2_se_low():
    # the golden scenario's mean difference is about 2 se at 1e6 samples, so a
    # seed that draws it 2 se low gives snr_hat far below the SNR in se_snr units
    sc = workloads.as_check_scenario(GOLDEN)
    exact = checks.deflection_snr(sc, 0.0, 0.0)
    t = 2.0 * math.sqrt(float(exact["var_h0"]))
    se_mean = math.sqrt(float(exact["var_h0"]) / 1e6)
    diff = float(exact["mean_h1"]) - 2.0 * math.sqrt(2.0) * se_mean
    stats = {"mean_h0": 0.0, "mean_h1": diff, "snr_hat": diff ** 2 / (2.0 * t * t),
             "var_h0": t * t / 4, "var_h1": t * t / 4, "se_mean_h0": se_mean,
             "se_mean_h1": se_mean, "se_var_h0": 1e-3 * t * t, "se_var_h1": 1e-3 * t * t}
    assert checks.deflection_sigma(stats, exact["snr"]) == pytest.approx(2.0, rel=1e-2)


def test_error_rate_check_rejects_a_rate_moved_by_6_se():
    sc = workloads.as_check_scenario(workloads.MC_VALIDATION)
    src, ch, noise = workloads.MC_VALIDATION.resolve()
    m, trials = 50, 4000
    rate = empirical_error_rate(src, ch, noise, m, SamplerConfig(seed=3, n_samples=trials))
    assert checks.check_error_rate(sc, m, trials, rate) == []
    with mpmath.workdps(checks.DPS):
        snr = checks.deflection_snr(sc, 0.0, 0.0)["snr"]
        p = float(mpmath.erfc(mpmath.sqrt(m * snr)) / 2)
    se = math.sqrt(p * (1 - p) / (2 * trials))
    assert checks.error_rate_sigma(sc, m, trials, p + 6 * se) == pytest.approx(6.0)
    assert checks.check_error_rate(sc, m, trials, p + 6 * se) != []
