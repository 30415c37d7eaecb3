"""The committed comparison CSV checked against mpmath, on any stack.

Criterion 9 pins the bytes; this module pins what those bytes must mean.
Every threshold row must hold p_error = (1/2)erfc(x) and exponent =
-ln p_error to within 1 ulp, with
x = sqrt(M*per_mode_rate) formed in double precision as the program forms it.
Every bound row must hold p_error = (1/2)exp(-M*per_mode_rate) to within
2 ulps, with the product M*per_mode_rate taken exactly, and the QI bound
rows' per_mode_rate must be the 60-digit Chernoff, Bhattacharyya and
heterodyne-CCB exponent of the scenario to within 1e-12 relative. The
golden lines must also come out of qi sweep's long-table route verbatim.
"""
import argparse
import csv
import math
from pathlib import Path

import mpmath
import pytest

from _oracles import checked_compute_sweep, mp_model_exponents, ulp_error

import qillum.cli
from qillum.cli import _LONG_TABLE, _parse_m_values, main
from qillum.states import ChannelParams, make_source

GOLDEN = Path(__file__).parent / "golden" / "comparison_sweep.csv"
THRESHOLD_RECEIVERS = ("QI+PC", "QI+Cal+PC", "QI+Het+PC", "CS+Hom")
BOUND_RECEIVERS = ("QI+Het+CCB", "CS-QCB", "QI-QCB", "QI-QBB")
# the scenario of criterion 9's command line
GOLDEN_SOURCE = make_source(0.01, 0.01, "quantum")
GOLDEN_CHANNEL = ChannelParams(reflectivity=0.01, n_background=20.0)

with GOLDEN.open(newline="", encoding="utf-8") as _fh:
    _ROWS = list(csv.DictReader(_fh))
THRESHOLD_ROWS = [row for row in _ROWS if row["receiver"] in THRESHOLD_RECEIVERS]
BOUND_ROWS = [row for row in _ROWS if row["receiver"] in BOUND_RECEIVERS]


def test_every_threshold_receiver_has_rows():
    assert sorted({row["receiver"] for row in THRESHOLD_ROWS}) == sorted(THRESHOLD_RECEIVERS)
    assert len(THRESHOLD_ROWS) == 4 * 13


@pytest.mark.parametrize("row", THRESHOLD_ROWS,
                         ids=[f"{r['receiver']}-{r['M']}" for r in THRESHOLD_ROWS])
def test_threshold_row_within_two_ulps_of_mpmath(row):
    # named for the 2-ulp bound of the C library's erfc; the table kernel holds 1
    x = math.sqrt(int(row["M"]) * float(row["per_mode_rate"]))
    with mpmath.workdps(50):
        p = mpmath.erfc(mpmath.mpf(x)) / 2
        assert ulp_error(float(row["p_error"]), p) <= 1.0
        assert ulp_error(float(row["exponent"]), -mpmath.log(p)) <= 1.0


def test_every_bound_receiver_has_rows():
    assert sorted({row["receiver"] for row in BOUND_ROWS}) == sorted(BOUND_RECEIVERS)
    assert len(BOUND_ROWS) == 4 * 13


@pytest.mark.parametrize("row", BOUND_ROWS,
                         ids=[f"{r['receiver']}-{r['M']}" for r in BOUND_ROWS])
def test_bound_row_p_error_within_two_ulps_of_mpmath(row):
    with mpmath.workdps(50):
        p = mpmath.exp(-int(row["M"]) * mpmath.mpf(float(row["per_mode_rate"]))) / 2
        assert ulp_error(float(row["p_error"]), p) <= 2.0


def _bound_rate(receiver: str) -> float:
    rates = {float(row["per_mode_rate"]) for row in BOUND_ROWS if row["receiver"] == receiver}
    assert len(rates) == 1
    return rates.pop()


@pytest.mark.parametrize("receiver", ("QI-QCB", "QI-QBB", "QI+Het+CCB"))
def test_bound_rate_within_1e12_of_mpmath(receiver):
    exact = mp_model_exponents(GOLDEN_SOURCE, GOLDEN_CHANNEL)[receiver]
    assert abs(_bound_rate(receiver) - exact) <= 1e-12 * exact


def test_chernoff_rate_separates_from_bhattacharyya():
    # s* = 0.5000157, so the Chernoff exponent exceeds the s = 1/2 one by 6.4e-10
    assert _bound_rate("QI-QCB") > _bound_rate("QI-QBB") * (1.0 + 1e-10)


def test_golden_lines_from_the_long_table_route(capsys, monkeypatch):
    # the golden M merged into a 288-point grid: 299 M on all eight receivers,
    # 2392 rows, whose values sweep_csv formats with format_17g, not with the
    # CPython '%.17g' of the 104 golden rows; each golden line must appear verbatim.
    # The CS+Hom row is held to mpmath (check_cs_hom_rows) as it is written
    monkeypatch.setattr(qillum.cli, "compute_sweep", checked_compute_sweep)
    grid = _parse_m_values(argparse.Namespace(m=None, m_log="1e5,1e8,288"))
    ms = sorted({int(row["M"]) for row in _ROWS} | set(grid))
    assert main(["sweep", "--ns", "0.01", "--ni", "0.01", "--c", "quantum", "--kappa", "0.01",
                 "--nb", "20", "--m", ",".join(map(str, ms))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) - 1 == 8 * len(ms) == 2392 >= _LONG_TABLE
    written = set(lines)
    assert [line for line in GOLDEN.read_text(encoding="utf-8").splitlines()
            if line not in written] == []
