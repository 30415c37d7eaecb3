"""End-to-end CLI checks: parsing, output formats, exit codes, stability."""
import argparse
import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qillum._erfc
import qillum.cli
import qillum.montecarlo
import qillum.states
import qillum.symplectic
from qillum.bounds import (MAX_BOUND_IDLER_EXCESS, MAX_BOUND_RETURN_EXCESS, MAX_BOUND_SIGNAL_EXCESS,
                           StandardFormPair)
from qillum._format17 import _LAYOUT, _digit_rows, decimal17, format_17g
from qillum.cli import (_LONG_TABLE, _SCENARIO_DEFAULTS, RECEIVER_ORDER, ScenarioParams,
                        SweepResult, SweepSpec, _parse_m_values, compute_sweep, main, sweep_csv)
from qillum.montecarlo import deflection_se, simulate_pc_receiver
from qillum.receiver import LN_HALF, RECEIVERS, Scenario, homodyne_min_error, log_erfc, snr_pc
from qillum.states import ChannelParams, SourceParams, c_quantum

from _oracles import checked_compute_sweep, cs_qcb_exponent, every_index_m_log, row_sweep_csv

SNR_QI_PC = 2.3575929806957360e-06

REF_FLAGS = ["--ns", "0.01", "--ni", "0.01", "--c", "quantum",
              "--kappa", "0.01", "--nb", "20"]


def run_cli(capsys, argv):
    """main(argv)'s exit code, stdout and stderr.

    A sweep's CS+Hom row, where it has one, is held to mpmath (check_cs_hom_rows).
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qillum.cli, "compute_sweep", checked_compute_sweep)
        rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run_cli(capsys, argv + ["--json"])
    return rc, json.loads(out), err


def assert_same_table(got, want):
    """Two SweepResults hold the same receivers, M, rates and columns, bit for bit."""
    assert (got.receivers, got.m_values) == (want.receivers, want.m_values)
    assert [r.hex() for r in got.per_mode_rate] == [r.hex() for r in want.per_mode_rate]
    for name in ("p_error", "exponent"):
        got_bits, want_bits = (getattr(t, name).view(np.uint64) for t in (got, want))
        assert np.array_equal(got_bits, want_bits), name


class TestSnrCommand:
    def test_reference_point(self, capsys):
        rc, report, _ = run_json(capsys, ["snr"] + REF_FLAGS)
        assert rc == 0
        row = report["results"][0]
        assert abs(row["snr"] - SNR_QI_PC) < 1e-10
        assert row["receiver"] == "QI+PC"
        assert row["var_h0"] == pytest.approx(21.42)
        assert report["params"]["c_mode"] == "quantum"

    def test_zero_correlation_gives_zero_snr(self, capsys):
        rc, report, _ = run_json(capsys, ["snr"] + REF_FLAGS[:8] + ["--c", "0"])
        assert rc == 0
        assert report["results"][0]["snr"] == 0.0

    def test_unphysical_correlation_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, ["snr", "--c", "0.5", "--ns", "0.01", "--ni", "0.01"])
        assert rc == 2
        assert "2*sqrt(N_S*(N_I+1))" in err

    def test_heterodyne_noise_pair_is_labelled(self, capsys):
        rc, report, _ = run_json(
            capsys, ["snr"] + REF_FLAGS + ["--eps-r", "1", "--eps-i", "1"])
        assert rc == 0
        assert report["results"][0]["receiver"] == "QI+Het+PC"
        assert abs(report["results"][0]["snr"] - 1.1627852893770358e-06) < 1e-10

    def test_params_echoed_in_plain_output(self, capsys):
        rc, out, _ = run_cli(capsys, ["snr"] + REF_FLAGS)
        assert rc == 0
        assert out.startswith("params: ")

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"kappa": 0.02, "nb": 5.0, "ns": 0.01, "ni": 0.01}))
        rc, report, _ = run_json(capsys, ["snr", "--config", str(cfg), "--nb", "20"])
        assert rc == 0
        assert report["params"]["kappa"] == 0.02
        assert report["params"]["nb"] == 20.0

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"reflectivity": 0.01}))
        rc, _, err = run_cli(capsys, ["snr", "--config", str(cfg)])
        assert rc == 2
        assert err == ("error: unknown config keys ['reflectivity']; expected subset of "
                       "['c', 'eps_i', 'eps_r', 'kappa', 'nb', 'ni', 'ns']\n")

    def test_defaults_are_the_scenario_fields(self, capsys):
        # the config keys and the flags' defaults are ScenarioParams' fields, in order
        assert list(_SCENARIO_DEFAULTS.items()) == [
            ("ns", 0.01), ("ni", 0.01), ("c", "quantum"), ("kappa", 0.01), ("nb", 20.0),
            ("eps_r", 0.0), ("eps_i", 0.0)]
        rc, report, _ = run_json(capsys, ["snr"])
        assert rc == 0
        assert report["params"] == ScenarioParams().as_dict()

    def test_non_object_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[]")
        rc, out, err = run_cli(capsys, ["snr", "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert "config must be a JSON object" in err

    @pytest.mark.parametrize("value", [None, True, [0.01], {"value": 0.01}],
                             ids=["null", "boolean", "list", "object"])
    def test_non_scalar_config_value_exits_2(self, capsys, tmp_path, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"ni": 0.01, "ns": value}))
        rc, out, err = run_cli(capsys, ["snr", "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert "config key 'ns' must be a number or a string" in err

    @pytest.mark.parametrize("flags, config, where", [
        (["--c", "abc"], None, "--c"),
        ([], {"ns": "abc"}, "config key 'ns'"),
        ([], {"c": "abc"}, "config key 'c'"),
    ], ids=["flag-c", "config-ns", "config-c"])
    def test_non_numeric_string_names_its_source(self, capsys, tmp_path, flags, config, where):
        if config is not None:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(config))
            flags = flags + ["--config", str(cfg)]
        rc, out, err = run_cli(capsys, ["snr"] + flags)
        assert rc == 2
        assert out == ""
        assert f"error: {where} must be " in err
        assert "'abc'" in err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["snr"], ["sweep", "--m", "10"], ["bounds"]])
    def test_seed_is_an_mc_flag_only(self, argv, capsys):
        # only qi mc samples, so the other commands reject --seed rather than ignore it
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_receiver_single_m(self, capsys):
        rc, out, err = run_cli(capsys, ["sweep", "--receivers", "QI+PC", "--m", "1000"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "receiver,M,p_error,exponent,per_mode_rate"
        assert len(lines) == 2
        assert lines[1].startswith("QI+PC,1000,")
        assert err.startswith("params: ")

    def test_row_order_receiver_then_m(self, capsys):
        rc, out, _ = run_cli(capsys, ["sweep", "--receivers", "CS+Hom,QI+PC",
                                      "--m", "10,100"])
        assert rc == 0
        firsts = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert firsts == ["CS+Hom", "CS+Hom", "QI+PC", "QI+PC"]

    @pytest.mark.parametrize("m", ["1e301", "1e308"])
    def test_largest_pulse_counts_print_every_receiver(self, capsys, m):
        # bound rows once read p_error nan past M ~ 1.3e300 (exit 2), and the
        # CS+Hom row once exited 1 past M*(2 N_B + 1) = 1.8e308
        rc, out, _ = run_cli(capsys, ["sweep", "--m", m, "--ns", "1"])
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == list(RECEIVER_ORDER)
        assert all(row[1] == str(int(float(m))) and row[2] == "0" for row in rows)

    def test_threshold_rows_past_an_overflowing_m_rate_print_zero_and_inf(self, capsys):
        # M*rate overflowed at the CS+Hom row, and qi exited 2 with "erfc
        # argument must be finite, got inf", which named no flag; the row now
        # reads p_error 0 and exponent inf, as the bound rows past underflow do
        rc, out, err = run_cli(capsys, ["sweep", "--ns", "100", "--ni", "100", "--kappa", "1",
                                        "--nb", "0", "--m", "1e308"])
        assert rc == 0, err
        rows = {line.split(",")[0]: line.split(",")[2:] for line in out.splitlines()[1:]}
        assert list(rows) == list(RECEIVER_ORDER)
        assert rows["CS+Hom"] == ["0", "inf", "50"]
        assert rows["CS-QCB"] == ["0", "inf", "100"]
        assert all(row[0] == "0" for row in rows.values())

    def test_threshold_rows_just_below_an_overflowing_m_rate_stay_finite(self, capsys):
        # rate 4 and M*rate = 1.8e308 put x = sqrt(M*rate) 4e-9 below sqrt(max
        # double): ln erfc(x) read -inf there although x*x is finite, and the
        # CS+Hom row once exited 1 with a NumericFailure
        m = "4.4942328e307"
        rc, out, err = run_cli(capsys, ["sweep", "--receivers", "CS+Hom", "--ns", "8",
                                        "--kappa", "1", "--nb", "0", "--m", m])
        assert rc == 0, err
        p, exponent, rate = out.splitlines()[1].split(",")[2:]
        assert (p, rate) == ("0", "4")
        assert exponent == "1.79769312e+308"
        assert math.isfinite(float(exponent))
        assert float(exponent) == pytest.approx(4.0 * float(m), rel=1e-12)

    def test_cs_hom_self_check_holds_where_kappa_n_s_nears_overflow(self, capsys):
        # the check formed sqrt(2 kappa N_S), which is inf past kappa N_S ~
        # 9e307, and exited 1 with a NumericFailure traceback on this finite row
        rc, report, err = run_json(capsys, ["sweep", "--receivers", "CS+Hom", "--ns", "1e308",
                                            "--ni", "0", "--c", "0", "--kappa", "1",
                                            "--nb", "1e300", "--m", "10"])
        assert rc == 0, err
        (row,) = report["results"]
        assert -row["exponent"] == LN_HALF + log_erfc(math.sqrt(10 * row["per_mode_rate"]))

    def test_byte_stable_across_runs(self, capsys):
        argv = ["sweep"] + REF_FLAGS + ["--m-log", "1e5,1e8,5"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_zero_reflectivity_gives_coin_flip_everywhere(self, capsys):
        rc, out, _ = run_cli(capsys, ["sweep", "--kappa", "0", "--m", "10"])
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == len(RECEIVER_ORDER)
        for row in rows:
            assert abs(float(row[2]) - 0.5) <= 1e-9

    def test_reference_per_mode_rate_ordering(self, capsys):
        rc, out, _ = run_cli(capsys, ["sweep"] + REF_FLAGS + ["--m-log", "1e5,1e8,5"])
        assert rc == 0
        rate = {}
        for line in out.splitlines()[1:]:
            parts = line.split(",")
            rate.setdefault(parts[0], set()).add(float(parts[4]))
        rates = {k: v.pop() for k, v in rate.items() if len(v) == 1}
        assert len(rates) == len(RECEIVER_ORDER)
        assert rates["QI+PC"] > rates["QI+Cal+PC"] > rates["CS-QCB"] \
            >= rates["CS+Hom"] > rates["QI+Het+PC"]
        assert rates["QI+Het+CCB"] <= rates["CS-QCB"]

    def test_m_log_spacing_rounds_and_dedupes(self, capsys):
        rc, out, _ = run_cli(capsys, ["sweep", "--receivers", "QI+PC",
                                      "--m-log", "1,10,25"])
        assert rc == 0
        ms = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert ms == sorted(set(ms))
        assert ms[0] == 1 and ms[-1] == 10

    def test_m_log_equals_the_every_index_loop_on_random_draws(self):
        rng = np.random.default_rng(40)
        draws = [(1e5, 1e8, 13), (1e2, 1e12, 11), (1.0, 1e308, 600), (10.0, 1e10, 40)]
        for _ in range(600):
            start = float(10.0 ** rng.uniform(0, 8))
            if rng.random() < 0.3:
                start = float(round(start))
            decades = min(float(10.0 ** rng.uniform(-6, 2.5)), 300.0)
            draws.append((start, start * 10.0 ** decades, int(rng.integers(2, 3000))))
        for start, stop, count in draws:
            args = argparse.Namespace(m=None, m_log=f"{start!r},{stop!r},{count}")
            assert list(_parse_m_values(args)) == every_index_m_log(start, stop, count), args

    def test_m_log_cost_follows_its_distinct_m(self):
        # each of the count's points was once evaluated: a billion took minutes
        out = run_python(_QI, "sweep", "--receivers", "QI+PC", "--m-log", "1,10,1000000000",
                         timeout=30)
        assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == list(range(1, 11))

    def test_non_increasing_m_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, ["sweep", "--m", "100,100"])
        assert rc == 2
        assert "strictly increasing" in err

    def test_duplicate_receiver_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, ["sweep", "--m", "10", "--receivers", "QI+PC,QI+PC"])
        assert rc == 2
        assert out == ""
        assert "duplicate receivers" in err

    def test_non_integer_m_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, ["sweep", "--receivers", "QI+PC", "--m", "10.6,20"])
        assert rc == 2
        assert out == ""
        assert "--m takes integer pulse counts" in err
        # an integer in exponent notation is an integer
        rc, out, _ = run_cli(capsys, ["sweep", "--receivers", "QI+PC", "--m", "1e5"])
        assert rc == 0
        assert out.splitlines()[1].startswith("QI+PC,100000,")

    @pytest.mark.parametrize("argv, message", [
        (["--m", "0x10"], "--m takes integer pulse counts, got '0x10'"),
        (["--m", "10,ten"], "--m takes integer pulse counts, got '10,ten'"),
        (["--m-log", "1,10,2.5"],
         "--m-log expects start,stop,count: two numbers and an integer, got '1,10,2.5'"),
        (["--m-log", "1,1e3x,5"],
         "--m-log expects start,stop,count: two numbers and an integer, got '1,1e3x,5'"),
    ])
    def test_unreadable_m_exits_2_naming_its_flag(self, capsys, argv, message):
        # int() and float() once raised their own messages, which named no flag
        rc, out, err = run_cli(capsys, ["sweep", "--receivers", "QI+PC"] + argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_m_above_2_to_53_is_printed_back_exactly(self, capsys):
        # --m once went through float(), and printed 9007199254740992 and 1e20
        ms = [9007199254740993, 100000000000000000001]
        argv = ["sweep", "--receivers", "CS-QCB,QI+PC", "--m", ",".join(map(str, ms))]
        rc, out, err = run_cli(capsys, argv)
        assert rc == 0
        assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == ms * 2
        assert json.loads(err.removeprefix("params: "))["m_values"] == ms
        rc, report, _ = run_json(capsys, argv)
        assert rc == 0 and [row["M"] for row in report["results"]] == ms * 2

    @pytest.mark.parametrize("m", ["1" + "0" * 309, str(int(sys.float_info.max) + 1)])
    def test_m_above_the_largest_double_exits_2(self, capsys, m):
        rc, out, err = run_cli(capsys, ["sweep", "--receivers", "CS-QCB", "--m", m])
        assert rc == 2 and out == ""
        assert err.startswith("error: pulse count m must be a positive integer")

    def test_m_of_5000_digits_exits_2_with_the_pulse_count_message(self, capsys):
        # int() refuses strings past 4300 digits, naming sys.set_int_max_str_digits()
        rc, out, err = run_cli(capsys, ["sweep", "--receivers", "CS-QCB", "--m", "9" * 5000])
        assert rc == 2 and out == ""
        assert err == f"error: pulse count m must be a positive integer, got {'9' * 5000}\n"

    def test_zero_padded_m_reads_as_its_value(self, capsys):
        rc, out, err = run_cli(capsys, ["sweep", "--receivers", "CS-QCB", "--m",
                                        "0" * 5000 + "7,0010"])
        assert rc == 0
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["7", "10"]
        assert json.loads(err.removeprefix("params: "))["m_values"] == [7, 10]

    def test_infinite_m_exits_2(self, capsys):
        for argv in (["--m", "inf"], ["--m", "1e400"], ["--m-log", "1,1e400,3"]):
            rc, out, err = run_cli(capsys, ["sweep", "--receivers", "QI+PC"] + argv)
            assert rc == 2
            assert out == ""
            assert err.startswith("error: ")

    def test_unknown_receiver_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, ["sweep", "--m", "10", "--receivers", "QI+XYZ"])
        assert rc == 2
        assert "unknown receivers" in err

    @pytest.mark.parametrize("receivers", ["", " "])
    def test_blank_receivers_exit_2(self, capsys, receivers):
        # an empty --receivers names no receiver; it does not mean all eight
        rc, out, err = run_cli(capsys, ["sweep", "--m", "10", "--receivers", receivers])
        assert rc == 2
        assert out == ""
        assert "unknown receivers ['']" in err

    def test_missing_m_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, ["sweep"])
        assert rc == 2
        assert "--m" in err

    def test_unwritable_path_exits_3(self, capsys):
        rc, _, err = run_cli(capsys, ["sweep", "--m", "10",
                                      "--out", "/nonexistent/dir/x.csv"])
        assert rc == 3
        assert "i/o error" in err

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        rc, out, err = run_cli(capsys, ["sweep", "--receivers", "QI+PC",
                                        "--m", "10", "--out", str(path)])
        assert rc == 0
        assert out == ""
        text = path.read_text()
        assert text.splitlines()[0] == "receiver,M,p_error,exponent,per_mode_rate"
        assert err.startswith("params: ")

    def test_json_report_shape(self, capsys):
        rc, report, _ = run_json(capsys, ["sweep", "--receivers", "QI+PC", "--m", "10"])
        assert rc == 0
        assert set(report) == {"params", "results", "notes"}
        assert report["results"][0]["M"] == 10

    def test_json_and_csv_carry_the_same_rows(self, capsys, monkeypatch):
        # all eight receivers: on a grid whose threshold rows underflow to 0; on
        # M from 1 to 1e308, through every erfc kernel route, the p underflow
        # and bound rows at M >= 1e300; and on the golden grid
        emitted = []
        emit = qillum.cli._emit

        def recording(report, *args, **kwargs):
            emitted.append(report)
            return emit(report, *args, **kwargs)

        monkeypatch.setattr(qillum.cli, "_emit", recording)
        for argv, n_m, underflows in (
                (["--m-log", "10,1e10,40"], 40, True),
                (["--ns", "0.5", "--kappa", "0.3", "--nb", "20", "--m-log", "1,1e308,600"], 600,
                 True),
                (REF_FLAGS + ["--m-log", "1e5,1e8,13"], 13, False)):
            rc1, csv_text, _ = run_cli(capsys, ["sweep"] + argv)
            rc2, report, _ = run_json(capsys, ["sweep"] + argv)
            assert rc1 == rc2 == 0
            # the rows hold Python floats, not numpy scalars, before they are written
            assert all(type(row[key]) is float for row in emitted[-1]["results"]
                       for key in ("p_error", "exponent", "per_mode_rate"))
            rows = [line.split(",") for line in csv_text.splitlines()[1:]]
            assert len(rows) == len(report["results"]) == n_m * len(RECEIVER_ORDER)
            assert any(float(row[2]) == 0.0 for row in rows) == underflows
            # each CSV field is the 17-digit text of its --json value
            for row, want in zip(rows, report["results"]):
                assert row == [want["receiver"], str(want["M"])] + [
                    format(want[key], ".17g") for key in ("p_error", "exponent", "per_mode_rate")]


class TestSweepTypes:
    def test_spec_rejects_empty_receivers(self):
        with pytest.raises(ValueError):
            SweepSpec(scenario=ScenarioParams(ns=0.01, ni=0.01),
                      m_values=(10,), receivers=())

    def test_row_rejects_p_error_above_half(self):
        with pytest.raises(ValueError, match=r"p_error 0.6 outside \(0, 1/2\] for QI\+PC at M=2$"):
            SweepResult(receivers=("QI+PC",), m_values=(1, 2), per_mode_rate=(1.0,),
                        p_error=((0.4, 0.6),), exponent=((0.9, 0.7),))

    def test_row_allows_underflowed_tail(self):
        result = SweepResult(receivers=("QI+PC",), m_values=(10 ** 9,), per_mode_rate=(2e-6,),
                             p_error=((0.0,),), exponent=((2000.0,),))
        assert result.exponent.tolist() == [[2000.0]]
        assert len(result) == 1

    def test_row_allows_an_underflowed_p_beside_a_normal_one(self):
        # p.min() is 0 there, so the check takes its underflow reduction
        result = SweepResult(receivers=("QI+PC", "CS-QCB"), m_values=(10, 10 ** 6),
                             per_mode_rate=(1e-3, 1e-3), p_error=((0.4, 0.0), (0.45, 1e-300)),
                             exponent=((0.9, 750.0), (0.8, 690.08)))
        assert result.p_error[0, 1] == 0.0

    @pytest.mark.parametrize("p, e, message", [
        # p = 0 short of its underflow, a negative p beyond it, a nan p, and a
        # low exponent: each fails a reduction, and the mask names the cell
        (0.0, 700.0, r"p_error 0.0 outside \(0, 1/2\] for QI\+PC at M=2$"),
        (-1e-300, 800.0, r"p_error -1e-300 outside \(0, 1/2\] for QI\+PC at M=2$"),
        (math.nan, 0.9, r"p_error nan outside \(0, 1/2\] for QI\+PC at M=2$"),
        (0.4, 0.5, r"exponent 0.5 below ln 2 for QI\+PC at M=2$"),
    ])
    def test_rejects_each_bad_cell_by_its_message(self, p, e, message):
        with pytest.raises(ValueError, match=message):
            SweepResult(receivers=("QI+PC",), m_values=(1, 2), per_mode_rate=(1.0,),
                        p_error=((0.4, p),), exponent=((0.9, e),))

    def test_row_rejects_exponent_below_ln_2(self):
        with pytest.raises(ValueError, match=r"below ln 2 for CS-QCB at M=10$"):
            SweepResult(receivers=("QI+PC", "CS-QCB"), m_values=(10, 100),
                        per_mode_rate=(1e-3, 1e-3), p_error=((0.4, 0.3), (0.45, 0.4)),
                        exponent=((0.9, 1.2), (0.69, 0.9)))

    @pytest.mark.parametrize("fields", [
        # a 2-M table with a 3-value column
        dict(receivers=("QI+PC",), m_values=(1, 2), per_mode_rate=(1.0,),
             p_error=((0.4, 0.3, 0.2),), exponent=((0.9, 1.2),)),
        dict(receivers=("QI+PC",), m_values=(1, 2), per_mode_rate=(1.0,),
             p_error=((0.4, 0.3),), exponent=((0.9,),)),
        # two receivers with one rate, or one column of each
        dict(receivers=("QI+PC", "CS-QCB"), m_values=(1,), per_mode_rate=(1.0,),
             p_error=((0.4,), (0.4,)), exponent=((0.9,), (0.9,))),
        dict(receivers=("QI+PC", "CS-QCB"), m_values=(1,), per_mode_rate=(1.0, 1.0),
             p_error=((0.4,),), exponent=((0.9,), (0.9,))),
        dict(receivers=("QI+PC", "CS-QCB"), m_values=(1,), per_mode_rate=(1.0, 1.0),
             p_error=((0.4,), (0.4,)), exponent=((0.9,),)),
        # columns of two lengths, which no array holds
        dict(receivers=("QI+PC", "CS-QCB"), m_values=(1, 2), per_mode_rate=(1.0, 1.0),
             p_error=((0.4, 0.3), (0.4,)), exponent=((0.9, 1.2), (0.9, 1.2))),
    ])
    def test_rejects_a_ragged_table(self, fields):
        # zip would otherwise drop the extra values from the CSV and --json rows
        with pytest.raises(ValueError, match="one entry per receiver|one value per M"):
            SweepResult(**fields)

    @pytest.mark.parametrize("fields, message", [
        # a nan exponent passed e < ln 2, and sweep_csv printed nan
        (dict(receivers=("QI+PC",), m_values=(1,), per_mode_rate=(1.0,),
              p_error=((0.4,),), exponent=((math.nan,),)), "exponent nan below ln 2"),
        (dict(receivers=("QI+PC",), m_values=(1,), per_mode_rate=(math.nan,),
              p_error=((0.4,),), exponent=((0.9,),)), "per_mode_rate nan"),
        (dict(receivers=("CS-QCB",), m_values=(1,), per_mode_rate=(math.inf,),
              p_error=((0.0,),), exponent=((math.inf,),)), "per_mode_rate inf"),
        (dict(receivers=("QI+PC",), m_values=(1,), per_mode_rate=(-1e-300,),
              p_error=((0.4,),), exponent=((0.9,),)), "per_mode_rate -1e-300"),
    ])
    def test_rejects_a_nan_or_negative_value(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SweepResult(**fields)


def random_tables(n_m: int, trials: int = 5):
    """SweepResults of n_m M, drawn from seed n_m, on 1 to 8 receivers.

    Their columns hold an underflowed p, a subnormal p and an infinite
    exponent among ordinary cells, and M runs up to 1e308.
    """
    rng = np.random.default_rng(n_m)
    special = [(0.0, 2000.0), (0.0, math.inf), (5e-324, 744.4), (3.1e-310, 707.7)]
    for trial in range(trials):
        ms = tuple(sorted({int(m) for m in 10 ** rng.uniform(0, 307, n_m - 1)} | {int(1e308)}))
        receivers = RECEIVER_ORDER[:1 + trial % len(RECEIVER_ORDER)] if trial else RECEIVER_ORDER
        columns = []
        for _ in receivers:
            es = np.log(2.0) + 10 ** rng.uniform(-17, 3, len(ms))
            column = [(0.5 * math.exp(-e), e) if rng.random() < 0.8
                      else special[rng.integers(len(special))] for e in es.tolist()]
            columns.append(column)
        yield SweepResult(
            receivers, ms, tuple(10 ** rng.uniform(-320, 3, len(receivers))),
            tuple([p for p, _ in column] for column in columns),
            tuple([e for _, e in column] for column in columns))


class TestComputeSweep:
    def test_bound_receivers_run_on_a_signal_brighter_than_the_idler(self):
        # c_q once exceeded the physical bound when N_S > N_I, and every
        # GaussianState built from such a source was rejected as unphysical
        scenario = ScenarioParams(ns=0.113, ni=0.0069, kappa=0.106, nb=0.40)
        receivers = ("QI-QCB", "QI-QBB", "QI+Het+CCB", "CS-QCB")
        result = compute_sweep(SweepSpec(scenario, (10, 1000), receivers))
        assert result.receivers == receivers and len(result) == 8
        assert all(0.0 < p < 0.5 for column in result.p_error for p in column)

    def test_cs_hom_rows_equal_per_m_homodyne_min_error(self):
        ratio = (1e10 / 10.0) ** (1.0 / 299)
        ms = tuple(sorted({int(round(10.0 * ratio ** i)) for i in range(300)}))
        assert len(ms) == 299
        scenario = ScenarioParams(ns=0.01, ni=0.01, kappa=0.01, nb=20.0)
        result = checked_compute_sweep(SweepSpec(scenario, ms, ("CS+Hom",)))
        ch = ChannelParams(0.01, 20.0)
        assert result.m_values == ms
        for m, p, e in zip(ms, result.p_error[0], result.exponent[0]):
            opt = homodyne_min_error(0.01, ch, m)
            assert (p, e) == (opt.p_error, -opt.log_p_error)

    def test_one_erfc_per_threshold_row(self, monkeypatch):
        # 1/2 erfc and its log share one kernel evaluation per row, in the
        # tail too, and none calls the C library's erfc
        ms = tuple(sorted({int(round(10.0 * 10.0 ** (i / 4))) for i in range(37)}))
        spec = SweepSpec(ScenarioParams(ns=0.01, ni=0.01), ms,
                         ("QI+PC", "QI+Cal+PC", "QI+Het+PC", "CS+Hom"))
        want = checked_compute_sweep(spec)
        assert 0.0 in want.p_error[0]
        real = qillum._erfc.erfc_pair
        calls = []

        def counting(x, half):
            calls.append((x.size, half))
            return real(x, half)

        def refuse(x):
            raise AssertionError("the C library's erfc was called")

        monkeypatch.setattr(qillum._erfc, "erfc_pair", counting)
        monkeypatch.setattr(math, "erfc", refuse)
        assert_same_table(compute_sweep(spec), want)
        assert calls == [(len(want), True)]

    # 53 M on 3 receivers and 40 M on 4 are the tables just short of
    # _LONG_TABLE and at it, one on each side of sweep_csv's formatter switch
    @pytest.mark.parametrize("n_m", [1, 2, 299, 53, 40])
    def test_csv_equals_the_row_route_on_random_tables(self, n_m):
        # sweep_csv against one f-string per row
        sizes = set()
        for result in random_tables(n_m):
            assert sweep_csv(result) == row_sweep_csv(result)
            assert len(sweep_csv(result).splitlines()) == 1 + len(result)
            sizes.add(len(result))
        assert {53: _LONG_TABLE - 1, 40: _LONG_TABLE}.get(n_m, len(result)) in sizes

    @pytest.mark.parametrize("long_table", [1, 10 ** 9], ids=["format_17g", "percent_17g"])
    def test_each_formatter_writes_every_table_shape(self, monkeypatch, long_table):
        # with the switch moved to either end, one formatter writes every
        # table: the golden one, a single row, perfbench's bounds_scan
        # (4 receivers x 13 M) and threshold_sweep (4 x 299 M) shapes, and
        # random tables with 0, inf and subnormal cells
        calls = []

        def counting(values):
            calls.append(values.size)
            return format_17g(values)

        monkeypatch.setattr(qillum.cli, "_LONG_TABLE", long_table)
        monkeypatch.setattr(qillum._format17, "format_17g", counting)
        golden = compute_sweep(SweepSpec(
            ScenarioParams(), _parse_m_values(argparse.Namespace(m=None, m_log="1e5,1e8,13")),
            RECEIVER_ORDER))
        text = sweep_csv(golden)
        assert text == (GOLDEN / "comparison_sweep.csv").read_text(encoding="utf-8")
        assert text == row_sweep_csv(golden)
        bright = ScenarioParams(ns=0.1, ni=0.1, kappa=0.05, nb=1.0)
        tables = [
            compute_sweep(SweepSpec(ScenarioParams(), (10 ** 5,), ("QI+Het+PC",))),
            compute_sweep(SweepSpec(bright, golden.m_values, ("QI-QCB", "QI-QBB", "QI+Het+CCB",
                                                             "CS-QCB"))),
            compute_sweep(SweepSpec(bright, _parse_m_values(argparse.Namespace(
                m=None, m_log="10,1e10,300")), ("QI+PC", "QI+Cal+PC", "QI+Het+PC", "CS+Hom"))),
            *(table for n_m in (1, 40, 299) for table in random_tables(n_m))]
        assert [len(table) for table in tables[:3]] == [1, 52, 1196]
        for table in tables:
            assert sweep_csv(table) == row_sweep_csv(table)
        # a table of no M, which SweepResult admits, is the header alone
        empty = SweepResult(("QI+PC",), (), (1.0,), [[]], [[]])
        assert sweep_csv(empty) == row_sweep_csv(empty) == "receiver,M,p_error,exponent,per_mode_rate\n"
        want = [2 * len(table) for table in [golden] + tables] if long_table == 1 else []
        assert calls == want

    def test_cs_hom_check_past_the_overflow_of_its_search_warns_nothing(self):
        # M*rate reaches 1.35e308 here, near the largest double, and the
        # shift w = 2x passes sqrt(max double); neither the row nor the mpmath
        # check of it (checked_compute_sweep) warns
        spec = SweepSpec(ScenarioParams(ns=3.0, ni=0.2, c="direct", kappa=0.9, nb=0.001),
                         _parse_m_values(argparse.Namespace(m=None, m_log="1,1e308,400")),
                         RECEIVER_ORDER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checked_compute_sweep(spec)
        argv = ["sweep", "--ns", "3", "--ni", "0.2", "--c", "direct", "--kappa", "0.9", "--nb",
                "0.001", "--m-log", "1,1e308,400"]
        env = dict(os.environ, PYTHONPATH=str(Path(qillum.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", _QI, *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr.startswith("params: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_result_holds_float64_receivers_by_m_arrays(self):
        result = checked_compute_sweep(SweepSpec(ScenarioParams(), (10, 1000, 10 ** 5),
                                                 RECEIVER_ORDER))
        for column in (result.p_error, result.exponent):
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert column.shape == (len(RECEIVER_ORDER), 3)
        # a table given as nested sequences is read into the same arrays
        table = SweepResult(("QI+PC",), (1, 2), (1.0,), ((0.4, 0.3),), [[0.9, 1.2]])
        for column in (table.p_error, table.exponent):
            assert column.dtype == np.float64 and column.shape == (1, 2)

    def test_len_is_the_csv_row_count(self):
        result = compute_sweep(SweepSpec(ScenarioParams(ns=0.01, ni=0.01), (10, 1000, 10 ** 5),
                                         ("QI-QCB", "QI+PC")))
        assert len(result) == len(sweep_csv(result).splitlines()) - 1 == 6


class TestFormat17g:
    """The long-table formatter against Python's own '%.17g', byte for byte."""

    @staticmethod
    def ties(rng) -> np.ndarray:
        # exact 17-digit ties: m + 1/4 and m + 3/4 for 16-digit m < 2^51, m + 1/8 for 15-digit m
        m16 = rng.integers(10 ** 15, 2 ** 51, 20000).astype(float)
        m15 = rng.integers(10 ** 14, 10 ** 15, 20000).astype(float)
        return np.concatenate([m16 + 0.25, m16 + 0.75, m15 + 0.125])

    def test_equals_percent_17g_on_a_million_doubles(self):
        rng = np.random.default_rng(27)
        # every finite positive double is a bit pattern in [1, 0x7ff0...): subnormals too
        bits = rng.integers(1, 0x7FF0000000000000, 10 ** 6, dtype=np.int64).view(float)
        tens = [float(f"1e{k}") for k in range(-323, 309)]
        # where the 17-digit rounding of x reaches 10^k: (10^17 - 1/2) * 10^(k-17)
        carries = [float(Fraction(2 * 10 ** 17 - 1, 2) * Fraction(10) ** (k - 17))
                   for k in range(-323, 309)]
        values = np.concatenate([
            bits, [math.ldexp(1.0, k) for k in range(-1074, 1024)],
            [v for t in tens + carries
             for v in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))],
            self.ties(rng), [0.0, -0.0, math.inf, math.nan, -math.inf, -1.5]])
        got = [text.decode("ascii") for text in format_17g(values).tolist()]
        assert got == ["%.17g" % v for v in values.tolist()]
        # the table route, not the fallback, wrote nearly all of them
        assert decimal17(bits)[2].mean() > 0.999

    def test_positive_zero_takes_the_table_route(self):
        # +0.0 is D = 0, E = 0 with no significant digits, laid out '0' by its
        # own key; -0.0, +-inf and nan are left to Python's '%.17g'
        values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 0.5])
        d, e, exact = decimal17(values)
        assert exact.tolist() == [True, False, False, False, False, True]
        assert (d[0], e[0]) == (0, 0)
        rows, key, exact = _digit_rows(values)
        assert exact.tolist() == [True, False, False, False, False, True]
        index = _LAYOUT[key[:1]].view(np.intp)
        assert bytes(rows[0][index]).rstrip(b"\0") == b"0"
        assert format_17g(values).tolist() == [b"%.17g" % v for v in values.tolist()]

    def test_working_memory_is_bounded_on_a_long_table(self):
        values = np.random.default_rng(29).random(200_000) * 1e-3
        format_17g(values[:10])
        tracemalloc.start()
        try:
            texts = format_17g(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - texts.nbytes < 1.5e6

    def test_every_tie_takes_the_fallback(self):
        ties = self.ties(np.random.default_rng(28))
        assert [text.decode("ascii") for text in format_17g(ties).tolist()] == \
            ["%.17g" % v for v in ties.tolist()]
        assert not decimal17(ties)[2].any()

    def test_import_and_short_tables_build_no_tables(self):
        # the formatter's tables cost ~0.2 MB and compiling its source ~0.6 MB:
        # only a long CSV table imports it, no other command and no --json sweep
        code = """
import contextlib, io, json, sys
import qillum.cli as cli
assert 'qillum._format17' not in sys.modules, 'import'
for argv, rows, loads in ((['bounds'], None, False), (['snr'], None, False),
                          (['mc', '--samples', '2000'], None, False),
                          (['sweep', '--receivers', 'QI+PC,QI-QCB,CS+Hom', '--m-log', '1e3,1e8,53'],
                           cli._LONG_TABLE - 1, False),
                          (['sweep', '--json', '--m-log', '1e3,1e8,299'], 2392, False),
                          (['sweep', '--m-log', '1e3,1e8,20'], cli._LONG_TABLE, True)):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    if rows is not None:
        text = out.getvalue()
        n = len(json.loads(text)['results']) if '--json' in argv else text.count('\\n') - 1
        assert n == rows, (argv, n)
    assert ('qillum._format17' in sys.modules) == loads, argv
"""
        env = dict(os.environ, PYTHONPATH=str(Path(qillum.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_only_threshold_rows_import_the_erfc_kernel(self):
        # the erfc kernel's module holds ~100 kB of tables: qi bounds, qi snr,
        # qi mc and a sweep of bound rows neither compile nor decode it
        code = """
import contextlib, io, sys
import qillum.cli as cli
assert 'qillum._erfc' not in sys.modules, 'import'
for argv, loads in ((['bounds'], False), (['snr'], False), (['mc', '--samples', '2000'], False),
                    (['sweep', '--receivers', 'QI-QCB,QI+Het+CCB,CS-QCB', '--m-log', '1e3,1e8,13'],
                     False),
                    (['sweep', '--receivers', 'CS+Hom', '--m', '10'], True)):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert ('qillum._erfc' in sys.modules) == loads, argv
"""
        env = dict(os.environ, PYTHONPATH=str(Path(qillum.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestBoundRowsHotPath:
    def test_bound_rows_need_no_covariance_matrix_numerics(self, monkeypatch):
        # the QI bound rates come from the closed standard form: no Williamson
        # decomposition, physicality eigen-solve or determinant on the way
        spec = SweepSpec(scenario=ScenarioParams(ns=0.02, ni=0.01, eps_r=0.5, eps_i=1.0),
                         m_values=(1000, 10 ** 6),
                         receivers=("QI-QCB", "QI-QBB", "QI+Het+CCB", "CS-QCB"))
        want = compute_sweep(spec)

        def forbidden(*args, **kwargs):
            raise AssertionError("covariance-matrix numerics on the bound-row path")

        monkeypatch.setattr(qillum.symplectic, "williamson", forbidden)
        for module in (qillum.symplectic, qillum.states):
            monkeypatch.setattr(module, "is_physical", forbidden)
        monkeypatch.setattr(np.linalg, "slogdet", forbidden)
        assert_same_table(compute_sweep(spec), want)

    @pytest.mark.parametrize("receivers, builds", [
        (RECEIVER_ORDER, 1),
        (("QI+PC", "QI+Cal+PC", "QI+Het+PC", "CS+Hom"), 0),
    ], ids=["all", "threshold-only"])
    def test_standard_form_pair_built_at_most_once(self, monkeypatch, receivers, builds):
        real = StandardFormPair.from_model
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(StandardFormPair, "from_model", counting)
        spec = SweepSpec(scenario=ScenarioParams(ns=0.02, ni=0.01, eps_r=0.5),
                         m_values=(10, 1000), receivers=receivers)
        result = checked_compute_sweep(spec)
        assert len(result) == 2 * len(receivers)
        assert len(calls) == builds


class TestBoundsCommand:
    @pytest.mark.parametrize("ns, kappa, nb", [(0.01, 0.01, 20.0), (1e-4, 1e-3, 1000.0)])
    def test_coherent_cross_check_reports_the_exponent_difference(self, capsys, ns, kappa, nb):
        # the CS-QCB row is the closed form itself, so there is no difference to report
        rc, report, _ = run_json(capsys, ["bounds", "--ns", str(ns), "--kappa", str(kappa),
                                          "--nb", str(nb)])
        assert rc == 0
        assert report["notes"] == []
        row = next(r for r in report["results"] if r["label"] == "CS-QCB")
        closed = cs_qcb_exponent(ns, ChannelParams(kappa, nb))
        assert row["s_star"] == 0.5
        assert abs(row["exponent"] - closed) <= 4.0 * math.ulp(closed)

    def test_zero_reflectivity_reports_an_absolute_difference(self, capsys):
        rc, report, _ = run_json(capsys, ["bounds", "--kappa", "0"])
        assert rc == 0
        assert report["notes"] == []
        rows = {r["label"]: r for r in report["results"]}
        assert rows["QI-QCB"]["exponent"] == rows["QI-QBB"]["exponent"] == 0.0
        assert rows["QI+Het+CCB"]["exponent"] == 0.0
        assert rows["CS-QCB"]["exponent"] <= 1e-12

    def test_reference_report(self, capsys):
        rc, report, _ = run_json(capsys, ["bounds"] + REF_FLAGS)
        assert rc == 0
        rows = {r["label"]: r for r in report["results"]}
        assert 0.49 <= rows["QI-QCB"]["s_star"] <= 0.51
        assert rows["QI+Het+CCB"]["exponent"] <= rows["CS-QCB"]["exponent"]
        closed = cs_qcb_exponent(0.01, ChannelParams(0.01, 20.0))
        assert abs(rows["CS-QCB"]["exponent"] - closed) <= 4.0 * math.ulp(closed)

    def test_explicit_half_prior_matches_default(self, capsys):
        rc1, out1, _ = run_cli(capsys, ["bounds"] + REF_FLAGS)
        rc2, out2, _ = run_cli(capsys, ["bounds"] + REF_FLAGS + ["--prior-h0", "0.5"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_prior_reaches_the_ccb_row(self, capsys):
        # at prior 0.9 every weighted bound is at most pi_1 = 0.1 (s -> 0)
        rc, report, _ = run_json(capsys, ["bounds"] + REF_FLAGS + ["--prior-h0", "0.9"])
        assert rc == 0
        row = next(r for r in report["results"] if r["label"] == "QI+Het+CCB")
        src, ch, noise = ScenarioParams(ns=0.01, ni=0.01, kappa=0.01, nb=20.0).resolve()
        want = StandardFormPair.from_model(src, ch, noise).heterodyne().ccb(0.9)
        assert row == {"label": "QI+Het+CCB", "s_star": want.s_star,
                       "c_at_s_star": want.c_at_s_star, "bound": want.bound,
                       "exponent": want.exponent}
        assert row["bound"] <= 0.1 * (1.0 + 1e-11)

    def test_skewed_prior_cross_checks_the_equal_prior_exponent(self, capsys):
        # the closed form is the equal-prior exponent; a skewed prior moves s* off 1/2
        _, default, _ = run_json(capsys, ["bounds"] + REF_FLAGS)
        rc, skewed, _ = run_json(capsys, ["bounds"] + REF_FLAGS + ["--prior-h0", "0.9"])
        assert rc == 0
        assert skewed["notes"] == default["notes"] == []
        closed = cs_qcb_exponent(0.01, ChannelParams(0.01, 20.0))
        equal, weighted = (next(r for r in rep["results"] if r["label"] == "CS-QCB")
                           for rep in (default, skewed))
        assert abs(equal["exponent"] - closed) <= 4.0 * math.ulp(closed)
        assert weighted["s_star"] < 0.5 and weighted["exponent"] <= equal["exponent"]

    @pytest.mark.parametrize("prior", ["0.5", "0.3"])
    def test_bounds_never_reach_williamson(self, capsys, monkeypatch, prior):
        def forbidden(*args, **kwargs):
            raise AssertionError("qi bounds reached the generic Williamson route")

        monkeypatch.setattr(qillum.symplectic, "williamson", forbidden)
        rc, report, _ = run_json(capsys, ["bounds"] + REF_FLAGS + ["--prior-h0", prior])
        assert rc == 0
        assert [r["label"] for r in report["results"]] == ["QI-QCB", "QI-QBB", "QI+Het+CCB",
                                                           "CS-QCB"]

    def test_invalid_prior_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, ["bounds", "--prior-h0", "1.5"])
        assert rc == 2
        assert "prior" in err

    @pytest.mark.parametrize("argv", [
        ["--ns", "720", "--ni", "720", "--kappa", "1", "--nb", "0"],        # subnormal bound
        ["--ns", "746", "--ni", "746", "--kappa", "1", "--nb", "0"],        # exp(-exponent) = 0
        ["--ns", "1000", "--ni", "1000", "--kappa", "1", "--nb", "0.0001"],
    ])
    def test_cs_qcb_row_past_the_normal_range(self, capsys, argv):
        rc, report, err = run_json(capsys, ["bounds"] + argv)
        assert rc == 0, err
        row = next(r for r in report["results"] if r["label"] == "CS-QCB")
        ns, kappa, nb = (float(argv[argv.index(flag) + 1]) for flag in ("--ns", "--kappa", "--nb"))
        closed = cs_qcb_exponent(ns, ChannelParams(kappa, nb))
        assert row["s_star"] == 0.5
        assert abs(row["exponent"] - closed) <= 4.0 * math.ulp(closed)
        assert row["c_at_s_star"] == math.exp(-row["exponent"]) < sys.float_info.min

    def test_skewed_prior_changes_bound(self, capsys):
        _, default, _ = run_json(capsys, ["bounds"] + REF_FLAGS)
        _, skewed, _ = run_json(capsys, ["bounds"] + REF_FLAGS + ["--prior-h0", "0.9"])
        d = default["results"][0]["bound"]
        s = skewed["results"][0]["bound"]
        assert s < d


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["bounds"] + REF_FLAGS, "bounds.json"),
    (["bounds"] + REF_FLAGS + ["--prior-h0", "0.3"], "bounds_prior_0.3.json"),
    # the CS-QCB row's c_at_s_star and bound underflow to 0
    (["bounds", "--ns", "1000", "--ni", "1000", "--kappa", "1", "--nb", "0.0001"],
     "bounds_underflow.json"),
    (["snr"] + REF_FLAGS, "snr.json"),
], ids=["bounds", "bounds-prior-0.3", "bounds-underflow", "snr"])
def test_report_is_the_golden_file_byte_for_byte(capsys, argv, name):
    rc, out, err = run_cli(capsys, argv + ["--json"])
    assert rc == 0, err
    assert out.encode() == (GOLDEN / name).read_bytes()


BOUND_LABELS = tuple(label for label, rx in RECEIVERS.items() if rx.bound is not None)


def scenario_flags(scenario: ScenarioParams) -> list:
    """The scenario's flags, each float as its repr, so that qi reads back the same doubles."""
    return [arg for field, value in dataclasses.asdict(scenario).items()
            for arg in (f"--{field.replace('_', '-')}",
                        value if isinstance(value, str) else repr(value))]


def drawn_scenarios(n: int):
    """n model scenarios inside every bound row's limits, each brightness log-uniform."""
    rng = np.random.default_rng(23)
    for _ in range(n):
        ns, ni = (float(v) for v in 10.0 ** rng.uniform(-6, 3, 2))
        c_q = c_quantum(SourceParams(ns, ni))
        c = ("quantum", "direct", float(rng.uniform(0.0, 1.0)) * c_q)[rng.integers(3)]
        nb = 0.0 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-4, 8))
        yield ScenarioParams(ns=ns, ni=ni, c=c, kappa=float(10.0 ** rng.uniform(-4, 0)), nb=nb,
                             eps_r=float(rng.choice([0.0, 0.3, 1.0])),
                             eps_i=float(rng.choice([0.0, 1.0])))


class TestBoundRowRateIsItsBoundsExponent:
    """A bound row's per_mode_rate is its equal-prior bound's exponent, bit for bit:
    RECEIVERS[label].bound(sc, 0.5).exponent, and the exponent that qi bounds prints."""

    @staticmethod
    def compare(capsys, scenario: ScenarioParams) -> tuple:
        """The bound labels whose rows the scenario takes, once each route agreed on them."""
        sc = Scenario(*scenario.resolve())
        want = {}
        for label in BOUND_LABELS:
            try:
                want[label] = RECEIVERS[label].bound(sc, 0.5).exponent
            except ValueError:
                with pytest.raises(ValueError):
                    compute_sweep(SweepSpec(scenario, (1,), (label,)))
        result = compute_sweep(SweepSpec(scenario, (1, 10 ** 6), tuple(want)))
        assert [r.hex() for r in result.per_mode_rate] == [e.hex() for e in want.values()]
        if len(want) == len(BOUND_LABELS):
            rc, report, err = run_json(capsys, ["bounds"] + scenario_flags(scenario))
            assert rc == 0, err
            printed = {row["label"]: row["exponent"].hex() for row in report["results"]}
            assert printed == {label: e.hex() for label, e in want.items()}
        return tuple(want)

    def test_on_drawn_scenarios(self, capsys):
        for scenario in drawn_scenarios(240):
            assert self.compare(capsys, scenario) == BOUND_LABELS, scenario

    @pytest.mark.parametrize("scenario, labels", [
        (ScenarioParams(), BOUND_LABELS),
        (ScenarioParams(nb=2.0), BOUND_LABELS),
        (ScenarioParams(kappa=0.0), BOUND_LABELS),
        (ScenarioParams(ns=746.0, ni=746.0, kappa=1.0, nb=0.0), BOUND_LABELS),
        (ScenarioParams(ns=1e-8, ni=0.0, kappa=1e-6, nb=0.0), BOUND_LABELS),
        (ScenarioParams(ns=1e-300, ni=1e-300, kappa=1e-10), BOUND_LABELS),
        (ScenarioParams(nb=MAX_BOUND_RETURN_EXCESS / 2), BOUND_LABELS),
        (ScenarioParams(ni=MAX_BOUND_IDLER_EXCESS / 2), BOUND_LABELS),
        (ScenarioParams(ns=MAX_BOUND_SIGNAL_EXCESS / 0.02), BOUND_LABELS),
        # past the QI rows' limits, the coherent row alone
        (ScenarioParams(nb=4e307), ("CS-QCB",)),
        (ScenarioParams(ns=1e308, ni=0.0, c=0.0, kappa=1.0, nb=0.0), ("CS-QCB",)),
    ], ids=["golden", "nb=2", "kappa=0", "underflowed-bound", "faint-over-vacuum",
            "subnormal-signal", "largest-nb", "largest-ni", "largest-signal", "nb=4e307",
            "ns=1e308"])
    def test_at_the_golden_scenario_and_the_extremes(self, capsys, scenario, labels):
        assert self.compare(capsys, scenario) == labels


class TestCoherentBackgroundLimit:
    """Past bounds.MAX_COHERENT_BACKGROUND the CS-QCB and CS+Hom rows exit 2."""

    @pytest.mark.parametrize("argv", [
        # an OverflowError traceback from the closed form's root_sum ** 2
        ["--receivers", "CS-QCB", "--nb", "1e308", "--m", "10"],
        # 4 N_B + 2 overflowed, and the row printed a rate of 0
        ["--receivers", "CS+Hom", "--ns", "1e150", "--ni", "1e150", "--kappa", "1",
         "--nb", "1e308", "--m", "10"],
    ])
    def test_sweep_exits_2_naming_nb(self, capsys, argv):
        rc, out, err = run_cli(capsys, ["sweep"] + argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: the background N_B (--nb) = 1e+308 is above")

    def test_below_the_limit_both_rows_print(self, capsys):
        rc, out, _ = run_cli(capsys, ["sweep", "--receivers", "CS-QCB,CS+Hom", "--ns", "1e150",
                                      "--ni", "1e150", "--kappa", "1", "--nb", "4e307", "--m", "10"])
        assert rc == 0
        rates = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
        assert rates == [pytest.approx(1e150 / 1.6e308, rel=1e-15)] * 2


class TestBrightBackground:
    """Past bounds.MAX_BOUND_RETURN_EXCESS (2 N_B + eps_r), MAX_BOUND_SIGNAL_EXCESS
    (2 kappa N_S) or MAX_BOUND_IDLER_EXCESS (2 N_I + eps_i) the QI bound rows
    exit 2; threshold rows still run."""

    def test_bounds_exit_2_naming_nb(self, capsys):
        rc, out, err = run_cli(capsys, ["bounds", "--nb", "1e160"])
        assert rc == 2 and out == ""
        assert "--nb" in err and "Traceback" not in err

    def test_sweep_with_bound_rows_exits_2_naming_nb(self, capsys):
        rc, out, err = run_cli(capsys, ["sweep", "--m", "10", "--nb", "1e200"])
        assert rc == 2 and out == ""
        assert "--nb" in err

    def test_threshold_sweep_takes_any_background(self, capsys):
        rc, out, _ = run_cli(capsys, ["sweep", "--receivers", "QI+PC", "--m", "10",
                                      "--nb", "1e200"])
        assert rc == 0
        assert out.splitlines()[1].startswith("QI+PC,10,0.5,")

    @pytest.mark.parametrize("argv, flag", [
        # past the limits these overflow a square in the squeezing-mismatch term
        (["bounds", "--eps-r", "1e160"], "--eps-r"),
        (["bounds", "--eps-i", "1e160"], "--eps-i"),
        (["bounds", "--ni", "1e150"], "--ni"),
        # past the limits these would give a QI-QCB rate below the heterodyne CCB's,
        # which it bounds
        (["bounds", "--eps-r", "1e150"], "--eps-r"),
        (["sweep", "--m", "10", "--receivers", "QI-QCB,QI+Het+CCB", "--ni", "1e80"], "--ni"),
    ])
    def test_bright_added_noise_or_idler_exits_2_naming_the_flag(self, capsys, argv, flag):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert flag in err and "Traceback" not in err

    def test_threshold_sweep_takes_any_idler(self, capsys):
        rc, out, _ = run_cli(capsys, ["sweep", "--receivers", "QI+PC,QI+Cal+PC,QI+Het+PC,CS+Hom",
                                      "--m", "10", "--ni", "1e150"])
        assert rc == 0
        assert len(out.splitlines()) == 5

    @pytest.mark.parametrize("ns", ["1e100", "1e160"])
    def test_bright_signal_exits_2_naming_ns_and_kappa(self, capsys, ns):
        # these used to end in "math domain error" and in "c_at_s_star must lie
        # in (0, 1], got 0.0", naming neither flag
        rc, out, err = run_cli(capsys, ["bounds", "--ns", ns])
        assert rc == 2 and out == ""
        assert "--ns, --kappa" in err and "Traceback" not in err

    def test_threshold_sweep_takes_any_signal(self, capsys):
        rc, out, _ = run_cli(capsys, ["sweep", "--receivers", "QI+PC,QI+Cal+PC,QI+Het+PC,CS+Hom",
                                      "--m", "10", "--ns", "1e160"])
        assert rc == 0
        assert len(out.splitlines()) == 5

    def test_largest_background_still_runs(self, capsys):
        rc, report, _ = run_json(capsys, ["bounds", "--nb", "1e39"])
        assert rc == 0
        assert all(row["exponent"] > 0 for row in report["results"])


class TestPcOverflow:
    """Where the PC statistics or the sampled moments overflow, qi exits 2 naming
    the scenario flags: once with an OverflowError traceback, or with a message
    that named none."""

    @staticmethod
    def exits_2_naming(capsys, argv, *flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(flag in err for flag in flags), err

    @pytest.mark.parametrize("argv, flag", [
        (["--nb", "3e307"], "--nb"),  # the denominator's square overflowed
        (["--eps-r", "1e308"], "--eps-r"),
        (["--ni", "1e307"], "--ni"),  # mu (1 + omega) overflowed: "must be finite"
    ])
    def test_snr(self, capsys, argv, flag):
        self.exits_2_naming(capsys, ["snr"] + argv, flag)

    @pytest.mark.parametrize("argv, flag", [
        (["--receivers", "QI+PC", "--nb", "3e307"], "--nb"),
        (["--receivers", "QI+Het+PC", "--eps-r", "1e308"], "--eps-r"),
    ])
    def test_sweep(self, capsys, argv, flag):
        self.exits_2_naming(capsys, ["sweep", "--m", "10"] + argv, flag)

    @pytest.mark.parametrize("argv, flag", [
        # a block's fourth moment overflowed, and the standard errors with it
        (["--nb", "1e155", "--samples", "2000"], "--nb"),
        (["--ni", "1e200", "--samples", "2000"], "--ni"),
        (["--eps-r", "1e200", "--samples", "2000"], "--eps-r"),
        # two blocks: the merge's power of their mean difference overflowed
        (["--ni", "1e300", "--samples", "70000"], "--ni"),
        # the count weights themselves are infinite
        (["--ni", "1e308", "--samples", "2000"], "--ni"),
    ])
    def test_mc(self, capsys, argv, flag):
        self.exits_2_naming(capsys, ["mc"] + argv, flag)

    @pytest.mark.parametrize("argv", [
        ["snr"], ["snr", "--c", "direct"], ["bounds"], ["sweep", "--m", "10"],
        ["mc", "--samples", "2000"],
    ])
    def test_correlation_bound(self, capsys, argv):
        # N_S (N_I + 1) and N_S N_I overflow before their square roots: exit 2
        # naming both flags, once with "corr must be finite and >= 0, got inf"
        self.exits_2_naming(capsys, argv + ["--ns", "1e200", "--ni", "1e200"], "--ns", "--ni")

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--m", "5", "--c", "inf"], "error: corr must be finite and >= 0, got inf\n"),
        (["sweep", "--m", "5", "--ns", "nan"], "error: n_signal must be finite and >= 0, got nan\n"),
    ], ids=["c-inf", "ns-nan"])
    def test_non_finite_value_is_named_as_such(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out, err) == (2, "", message)

    @pytest.mark.parametrize("argv", [
        ["snr", "--nb", "1e307"],
        ["sweep", "--receivers", "QI+PC", "--nb", "1e307", "--m", "10"],
        ["mc", "--nb", "1e150", "--samples", "2000"],
    ])
    def test_below_the_overflow_each_command_prints(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, _ = run_cli(capsys, argv)
        assert rc == 0 and out


# a command's own flags, kept small
_REPORT_COMMANDS = {
    "snr": [],
    "sweep": ["--receivers", "QI+PC,CS-QCB", "--m", "10,1000"],
    "bounds": ["--prior-h0", "0.3"],
    "mc": ["--samples", "3000", "--seed", "5"],
}


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("command", _REPORT_COMMANDS)
def test_one_report_path(capsys, tmp_path, command, fmt):
    """--out holds stdout's bytes, and the params line goes to stderr exactly
    when stdout does not carry it: with --out, and for the sweep CSV."""
    argv = [command] + _REPORT_COMMANDS[command]
    rc, report, _ = run_json(capsys, argv)
    assert rc == 0
    params = "params: " + json.dumps(report["params"], sort_keys=True) + "\n"
    rc, out, err = run_cli(capsys, argv + fmt)
    assert rc == 0
    carries = json.loads(out)["params"] == report["params"] if fmt else out.startswith(params)
    assert carries == (bool(fmt) or command != "sweep")
    assert err == ("" if carries else params)
    path = tmp_path / "report"
    assert run_cli(capsys, argv + fmt + ["--out", str(path)]) == (0, "", params)
    assert path.read_bytes() == out.encode()


class TestMcCommand:
    def test_gates_pass_at_reference_seed(self, capsys):
        for argv in (
                REF_FLAGS + ["--samples", "20000"],
                # a pulse's count is 2 l+ E with probability l+/(l+ - l-), else
                # 2 l- E: at the default 1e6 samples a probability off by ~0.004
                # fails a mean's 5-se gate, so two more seeds pass
                ["--seed", "11"], ["--seed", "12"],
                # one full block and a one-row last block per hypothesis: each
                # block draws its plus-branch counts for its own length
                ["--samples", "65537", "--seed", "13"],
                # fewer rows than one block: drawn on the calling thread
                ["--samples", "4000", "--seed", "14"],
                # the count weights in closed form lose no small direction at a
                # bright background
                ["--nb", "1e17", "--samples", "100000"]):
            rc, out, _ = run_cli(capsys, ["mc"] + argv)
            assert rc == 0, argv
            assert "FAIL" not in out
            assert "all rows passed" in out

    def test_identical_invocations_identical_bytes(self, capsys):
        argv = ["mc"] + REF_FLAGS + ["--samples", "5000", "--seed", "7"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_tiny_run_still_evaluates_gates(self, capsys):
        rc, report, _ = run_json(capsys, ["mc"] + REF_FLAGS + ["--samples", "100"])
        assert rc in (0, 4)
        # the five gates; the eight moment-identity rows moved to the test oracles
        assert [row["label"] for row in report["results"]] == [
            "mean_h0", "mean_h1", "var_h0", "var_h1", "sqrt(snr)"]
        assert all("n_sigma" in row for row in report["results"])

    def test_gate_failure_exits_4(self, capsys, monkeypatch):
        real = snr_pc

        def wrong_analytic(src, ch, noise):
            # var_h0 jumps from ~21 to ~103, hundreds of SEs away
            return real(src, ChannelParams(ch.reflectivity, 100.0), noise)

        monkeypatch.setattr("qillum.cli.snr_pc", wrong_analytic)
        rc, out, _ = run_cli(capsys, ["mc"] + REF_FLAGS + ["--samples", "5000"])
        assert rc == 4
        assert "FAIL" in out

    def test_deflection_gate_passes_a_small_mean_difference(self, capsys, monkeypatch):
        # At 600000 samples the exact mean difference is ~2.4 se. With the H0
        # counts shifted onto their exact mean and the H1 counts to put the
        # sampled difference 2 se low (~0.4 se), whatever the draw, snr_hat, the
        # square of that small number, lands well over 5 se_snr below the SNR,
        # because se_snr, propagated at the estimate, shrinks with it.
        # sqrt(snr_hat) stays 2 se from sqrt(snr).
        real = simulate_pc_receiver
        used = []

        def low(src, ch, noise, cfg):
            emp = real(src, ch, noise, cfg)
            se = math.hypot(emp.se_mean_h0, emp.se_mean_h1)
            exact = snr_pc(src, ch, noise)
            shifts = {0: exact.mean_h0 - emp.mean_h0,
                      2: exact.mean_h1 - 2.0 * se - emp.mean_h1}
            block = qillum.montecarlo._block_trial_means

            def shifted(out, scratch, weights, m, seed, stream, index):
                means = block(out, scratch, weights, m, seed, stream, index)
                return means + shifts[stream]

            with monkeypatch.context() as patch:
                patch.setattr(qillum.montecarlo, "_block_trial_means", shifted)
                used.append((real(src, ch, noise, cfg), se))
            return used[-1][0]

        monkeypatch.setattr("qillum.cli.simulate_pc_receiver", low)
        rc, report, _ = run_json(capsys, ["mc"] + REF_FLAGS + ["--samples", "600000"])
        (emp, se), = used
        analytic = snr_pc(*ScenarioParams(ns=0.01, ni=0.01).resolve())
        assert emp.mean_h1 - emp.mean_h0 == pytest.approx(analytic.mean_h1 - 2.0 * se, rel=1e-9)
        assert analytic.mean_h1 - 2.0 * se < 0.5 * se
        # the se_snr view would fail this run
        assert abs(emp.snr_hat - analytic.snr) > 5.0 * emp.se_snr
        assert rc == 0
        row = next(r for r in report["results"] if r["label"] == "sqrt(snr)")
        assert row["passed"] and row["n_sigma"] < 3.0

    def test_deflection_moved_6_se_fails(self, capsys, monkeypatch):
        real = simulate_pc_receiver

        def moved(src, ch, noise, cfg):
            emp = real(src, ch, noise, cfg)
            snr = snr_pc(src, ch, noise).snr
            root = math.sqrt(snr) + 6.0 * deflection_se(emp, snr)
            return dataclasses.replace(emp, snr_hat=root * root)

        monkeypatch.setattr("qillum.cli.simulate_pc_receiver", moved)
        rc, report, _ = run_json(capsys, ["mc"] + REF_FLAGS + ["--samples", "20000"])
        assert rc == 4
        failed = [r for r in report["results"] if not r["passed"]]
        assert [r["label"] for r in failed] == ["sqrt(snr)"]
        assert failed[0]["n_sigma"] == pytest.approx(6.0, rel=1e-9)

    # scenarios near the quantum bound that qi snr and qi sweep take; there
    # conjugating the 4x4 H1 state gives a matrix below the uncertainty bound
    # (symplectic eigenvalue 0.499265 in the first), so the count law must not
    # go through one
    NEAR_BOUND = {
        "dim_idler": ["--ns", "0.014286214028304914", "--ni", "0.0015542664946257313",
                      "--kappa", "0.8651791648568644", "--nb", "0.08270793466321598"],
        "dark_background": ["--ns", "1.9669576648363787", "--ni", "2.548646550092591",
                            "--kappa", "0.6681249290417529", "--nb", "1.4612755079598878e-05"],
        "added_noise": ["--ns", "5", "--ni", "0.5", "--kappa", "0.9", "--nb", "0.01",
                        "--eps-r", "0.3"],
    }

    @pytest.mark.parametrize("name", sorted(NEAR_BOUND))
    def test_scenario_near_the_quantum_bound_passes_every_gate(self, capsys, name):
        argv = self.NEAR_BOUND[name]
        assert run_cli(capsys, ["snr"] + argv)[0] == 0
        rc, report, err = run_json(capsys, ["mc"] + argv)
        assert (rc, err) == (0, "")
        assert len(report["results"]) == 5
        assert all(row["passed"] for row in report["results"])

    def test_negative_seed_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, ["mc", "--seed", "-3", "--samples", "100"])
        assert rc == 2
        assert "seed" in err

    def test_same_bytes_on_one_cpu_or_all_with_any_blas_threads(self):
        # the samplers run one worker per usable CPU, merge the blocks in block
        # order and sum their moments with numpy's own reductions, so neither
        # the CPU count nor BLAS's thread count moves a byte
        if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: the worker count cannot change")
        one_cpu = {min(os.sched_getaffinity(0))}
        # OpenBLAS reads its thread count from the first of these that is set
        unset = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        # five blocks a hypothesis, and sixteen with the last one partial, as in
        # the 1e6 samples that perfbench's mc_validation draws
        for samples in ("300007", "1000003"):
            argv = ["mc", "--json", "--samples", samples, "--seed", "5"]
            runs = {}
            for blas in ("unset", "1"):
                env = unset if blas == "unset" else dict(unset, OPENBLAS_NUM_THREADS=blas)
                runs[blas, "one CPU"] = run_python(
                    _QI, *argv, env=env, preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
                runs[blas, "all CPUs"] = run_python(_QI, *argv, env=env)
            for key, out in runs.items():
                assert out == runs["unset", "one CPU"], (samples, key)


# `qi` on argv[1:], exiting with its code
_QI = "import sys; from qillum.cli import main; sys.exit(main(sys.argv[1:]))"


# Runs each argv list of argv[1] through qillum.cli.main with every import of
# the test-only libraries made to fail, and prints [exit code, stdout] per
# command as JSON.
_SCIPY_BLOCKED = """
import contextlib, io, json, sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None
import qillum
from qillum.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    results.append([rc, out.getvalue()])
print(json.dumps(results))
"""


def run_python(code, *args, env=os.environ, preexec_fn=None, timeout=120):
    """Run code in a fresh interpreter that imports the qillum under test."""
    env = dict(env, PYTHONPATH=str(Path(qillum.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, preexec_fn=preexec_fn, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestOneImportPath:
    """Each name is imported from the module that defines it, the README's too."""

    def test_bare_import_loads_no_module_and_no_numpy(self):
        out = run_python("import sys, qillum\n"
                         "print(sorted(m for m in sys.modules\n"
                         "             if m.startswith('qillum.') or m.split('.')[0] == 'numpy'))")
        assert out.strip() == "[]"

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library example\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        snr, snr_hat, se_snr = map(float, run_python(code).split())
        assert snr > 0 and snr_hat > 0 and se_snr > 0


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy(self):
        out = run_python("import sys, qillum.cli, qillum.bounds, qillum.montecarlo, "
                         "qillum.symplectic\n"
                         "print(sorted(m for m in sys.modules\n"
                         "             if m.split('.')[0] in ('scipy', 'mpmath')))")
        assert out.strip() == "[]"

    def test_package_imports_only_the_standard_library_numpy_and_itself(self):
        # every import statement, those inside functions too, so that paths no
        # command reaches are held as well
        imports = {}
        for path in sorted(Path(qillum.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module if node.level == 0 else "qillum"]
                else:
                    continue
                for module in modules:
                    imports.setdefault(module.split(".")[0], []).append(
                        f"{path.name}:{node.lineno}")
        assert "numpy" in imports
        allowed = sys.stdlib_module_names | {"numpy", "qillum"}
        assert {name: where for name, where in imports.items() if name not in allowed} == {}

    def test_commands_run_with_scipy_blocked(self, capsys, tmp_path):
        csv_path = tmp_path / "comparison_sweep.csv"
        commands = [
            ["sweep"] + REF_FLAGS + ["--m-log", "1e5,1e8,13", "--out", str(csv_path)],
            # CS-QCB takes its closed form off s = 1/2
            ["bounds"] + REF_FLAGS + ["--prior-h0", "0.3"],
            ["mc"] + REF_FLAGS + ["--samples", "2000", "--seed", "5"],
        ]
        results = json.loads(run_python(_SCIPY_BLOCKED, json.dumps(commands)))
        assert [rc for rc, _ in results] == [0, 0, 0]
        assert csv_path.read_bytes() == (GOLDEN / "comparison_sweep.csv").read_bytes()
        # the same bytes as this process, which may have scipy loaded
        for argv, (_, out) in zip(commands[1:], results[1:]):
            assert run_cli(capsys, argv)[1] == out
