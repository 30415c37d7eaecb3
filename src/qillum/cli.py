"""Command-line front end: parameter resolution, sweeps, reports.

Four subcommands under the `qi` program:

  snr     analytic receiver statistics for one scenario
  sweep   error probability versus pulse count M as CSV, one row per
          (receiver, M), columns receiver,M,p_error,exponent,per_mode_rate
  bounds  Chernoff-type bounds of the four bound receivers, prior-weighted
  mc      seeded sampling run, empirical vs analytic gate table

What each receiver label computes is defined once, in receiver.RECEIVERS:
sweep takes its rows from there, snr the label and asymptote of the noise
pair, and bounds the prior-weighted bound of each bound receiver.

A sweep is one receivers x M table (SweepResult): one per_mode_rate per
receiver and one p_error and one exponent column per receiver over the M
grid. The CSV and the --json report both read it, receiver by receiver and
then M by M, so both carry the same values in the same order.

Every command builds one {params, results, notes} report, which _emit
writes: its JSON with --json, else the plain report (qi mc's table in place
of its k=v rows) or the sweep CSV. The resolved parameters go to stderr as a
params line exactly when stdout does not carry them: with --out, and for the
CSV, so the data stream stays clean. Exit codes: 0 success, 2 invalid
parameters, 3 I/O failure, 4 sampling gate failure.

CSV floats are Python's '%.17g', so output is byte-stable. sweep_csv has two
routes to those bytes, chosen by the table's row count alone: below
_LONG_TABLE (160, just past the measured crossover) one % template per
receiver column, and from it one numpy pass over all the table's p_error and
exponent values (_format_17g). That pass forms x*10^(16-E) to within 2^-102
of its value, rounds it to the 17-digit integer, and lays its digits out by
one byte gather; any value whose rounding lies within 2^-40 of a tie, or
that is not finite and > 0, takes Python's own '%.17g'. Its tables are
built on the first long table, not at import.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .montecarlo import SamplerConfig, deflection_se, simulate_pc_receiver
from .receiver import (RECEIVERS, Scenario, _two_product, asymptotic_snr, beamsplitter_moments,
                       snr_pc, sweep_points)
from .states import ChannelParams, NoiseParams, SourceParams, _validate_pulses, make_source

RECEIVER_ORDER = tuple(RECEIVERS)
# qi bounds rows, in this order
_BOUND_ROWS = ("QI-QCB", "QI-QBB", "QI+Het+CCB", "CS-QCB")

# p_error smaller than exp(-708) underflows; the exponent column stays exact
_UNDERFLOW_EXPONENT = 708.0


@dataclass(frozen=True)
class ScenarioParams:
    """One detection scenario: source, channel, and pre-detection noise."""

    ns: float = 0.01
    ni: float = 0.01
    c: object = "quantum"
    kappa: float = 0.01
    nb: float = 20.0
    eps_r: float = 0.0
    eps_i: float = 0.0

    def resolve(self) -> tuple[SourceParams, ChannelParams, NoiseParams]:
        src = make_source(self.ns, self.ni, corr=self.c)
        ch = ChannelParams(reflectivity=self.kappa, n_background=self.nb)
        noise = NoiseParams(eps_return=self.eps_r, eps_idler=self.eps_i)
        return src, ch, noise

    def as_dict(self) -> dict:
        src = make_source(self.ns, self.ni, corr=self.c)
        mode = self.c if isinstance(self.c, str) else "explicit"
        return {
            "ns": self.ns,
            "ni": self.ni,
            "c": src.corr,
            "c_mode": mode,
            "kappa": self.kappa,
            "nb": self.nb,
            "eps_r": self.eps_r,
            "eps_i": self.eps_i,
        }


# the scenario keys of a config file and their flags' defaults, in field order
_SCENARIO_DEFAULTS = {field.name: field.default for field in fields(ScenarioParams)}


@dataclass(frozen=True)
class SweepSpec:
    scenario: ScenarioParams
    m_values: tuple
    receivers: tuple

    def __post_init__(self) -> None:
        if not self.receivers:
            raise ValueError("receiver set must be non-empty")
        unknown = [r for r in self.receivers if r not in RECEIVERS]
        if unknown:
            raise ValueError(f"unknown receivers {unknown}; choose from {RECEIVER_ORDER}")
        if len(set(self.receivers)) != len(self.receivers):
            raise ValueError(f"duplicate receivers in {list(self.receivers)}")
        ms = tuple(_validate_pulses(m) for m in self.m_values)
        if not ms:
            raise ValueError("m_values must be non-empty")
        if any(a >= b for a, b in zip(ms, ms[1:])):
            raise ValueError("m_values must be strictly increasing")
        object.__setattr__(self, "m_values", ms)


@dataclass(frozen=True)
class SweepResult:
    """A sweep's receivers x M table; len() is its number of CSV rows.

    Per receiver: one per_mode_rate, and p_error and exponent columns over m_values.
    """

    receivers: tuple
    m_values: tuple
    per_mode_rate: tuple
    p_error: tuple
    exponent: tuple

    def __post_init__(self) -> None:
        per_receiver = (self.per_mode_rate, self.p_error, self.exponent)
        if any(len(entries) != len(self.receivers) for entries in per_receiver):
            raise ValueError("per_mode_rate, p_error and exponent must hold one entry per receiver")
        if any(len(col) != len(self.m_values) for col in chain(self.p_error, self.exponent)):
            raise ValueError("each p_error and exponent column must hold one value per M")
        min_exponent = math.log(2.0) - 1e-12
        for label, rate, ps, es in zip(self.receivers, self.per_mode_rate, self.p_error,
                                       self.exponent):
            if not (math.isfinite(rate) and rate >= 0.0):
                raise ValueError(f"per_mode_rate {rate} for {label} must be finite and >= 0")
            for m, p, e in zip(self.m_values, ps, es):
                if not e >= min_exponent:
                    raise ValueError(f"exponent {e} below ln 2 for {label} at M={m}")
                if not (0.0 < p <= 0.5 * (1 + 1e-12) or (p == 0.0 and e > _UNDERFLOW_EXPONENT)):
                    raise ValueError(f"p_error {p} outside (0, 1/2] for {label} at M={m}")

    def __len__(self) -> int:
        return len(self.receivers) * len(self.m_values)


def compute_sweep(spec: SweepSpec) -> SweepResult:
    """The receivers x M table: receiver order as given, M ascending.

    The rates and columns come from one receiver.sweep_points call over the
    receivers' RECEIVERS entries, which makes one kernel call per row kind
    per sweep: per_mode_rate is the SNR for threshold receivers and, for
    bound rows, the exponent of the equal-prior bound that qi bounds prints.
    The scenario's StandardFormPair, built from the parameters without
    forming a covariance matrix, is built once, and only if a receiver uses it.
    """
    rates, p_error, log_p = zip(*sweep_points([RECEIVERS[label] for label in spec.receivers],
                                              Scenario(*spec.scenario.resolve()), spec.m_values))
    return SweepResult(spec.receivers, spec.m_values, rates, p_error,
                       tuple([-lp for lp in column] for column in log_p))


# sweep_csv writes a table of at least this many rows with _format_17g, a
# shorter one with the % template. On one CPU, on perfbench's threshold_sweep
# tables cut to fewer M (medians of 5 x 41 runs), the array route took
# 1.63x the template's time at 52 rows, 1.15x at 100, 0.99x at 128, 0.93x at
# 160, 0.83x at 200, 0.78x at 300, 0.57x at 600 and 0.56x at 1196: it pays
# ~0.07 ms of numpy calls per table and saves ~0.45 us per row.
_LONG_TABLE = 160

_TIE_BAND = 2.0 ** -40
_TEXT_WIDTH = 24     # '%.17g' of a double is at most 24 bytes
# values formatted at a time, and per byte gather, whose index holds 8 * 24
# bytes a value: working memory stays under ~1 MB on a table of any length
_FORMAT_BLOCK = 4096
_GATHER_ROWS = 256
_format_tables = None


def _build_format_tables() -> dict:
    """_format_17g's tables, built on the first long table and kept (0.2 MB).

    By frexp exponent b of x in [2^(b-1), 2^b): "e0", the largest E with
    10^E < 2^b, and "ten", the smallest double that is 10^e0 or more when
    rounded to 17 digits, so the decimal exponent of x to 17 digits is
    e0 - (x < ten). By decimal exponent E: 10^(16-E) as
    (hi + lo) * 2^"shift", hi the top 53 bits of a 111-bit floor and lo the
    rest, rounded, so hi + lo is within 2^-104 of it; and "exp", the
    exponent text of E. By 4-digit group u: "digits", its ASCII, and "last",
    the place of its last nonzero digit among the 17 (0 where u = 0), one row
    per group. "layout": for each notation class (fixed at E = -4..16, else
    exponential) and count of significant digits, the source byte of each
    output byte in a 32-byte row of the 17 digits, '.', '0', NULs and the
    exponent text; "offsets", the first byte of each row of a gather block.
    Built in Python and read into arrays as bytes: each numpy
    operation run here would map more of numpy's code into memory, and a word
    read from bytes keeps their order on any byte order.
    """
    ten, hi, lo, shift = [], [], [], []
    for e in range(-324, 309):
        # (10^17 - 1/2) * 10^(E-17): from it up, x to 17 digits is at least 10^E
        num, den = (2 * 10 ** 17 - 1) * 10 ** max(e - 17, 0), 2 * 10 ** max(17 - e, 0)
        f = num / den  # correctly rounded
        p, q = f.as_integer_ratio()
        ten.append(math.nextafter(f, math.inf) if p * den < num * q else f)
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        b = num.bit_length() - den.bit_length()
        b -= num * 2 ** max(-b, 0) < den * 2 ** max(b, 0)
        top = (num << max(110 - b, 0)) // (den << max(b - 110, 0))  # in [2^110, 2^111)
        hi.append(math.ldexp(top >> 58, -52))
        lo.append(math.ldexp(top & (2 ** 58 - 1), -110))
        shift.append(b)
    e0 = [math.ceil(b * math.log10(2.0)) - 1 for b in range(-1073, 1025)]
    dot, zero, nul, exp = 17, 18, 23, 24
    layout = []
    for e in range(-4, 18):  # E = 17 stands for every exponential E
        for n in range(1, 18):
            if e == 17:
                row = [0] + ([dot, *range(1, n)] if n > 1 else []) + [*range(exp, exp + 5)]
            elif e >= 0:
                row = [*range(e + 1)] + ([dot, *range(e + 1, n)] if n > e + 1 else [])
            else:
                row = [zero, dot] + [zero] * (-e - 1) + [*range(n)]
            layout.append(row + [nul] * (_TEXT_WIDTH - len(row)))
    # places[k]: the k-th digit of each 4-digit group u = 0..9999, in order
    places = [b"".join(bytes([48 + i]) * p for i in range(10)) * (1000 // p)
              for p in (1000, 100, 10, 1)]
    digits = bytearray(40000)
    for k, place in enumerate(places):
        digits[k::4] = place
    last = []
    for g in range(4):
        # the place 4g + k + 1 among the 17 of each nonzero k-th digit of group g, else 0
        ranks = [np.frombuffer(place.translate(bytes.maketrans(b"0123456789",
                                                               bytes([0] + 9 * [4 * g + k + 1]))),
                               dtype=np.uint8) for k, place in enumerate(places)]
        last.append(np.maximum(np.maximum(ranks[0], ranks[1]), np.maximum(ranks[2], ranks[3])))
    return {
        "e0": np.array(e0), "ten": np.array([ten[e + 324] for e in e0]),
        "hi": np.array(hi), "lo": np.array(lo), "shift": np.array(shift),
        "pow2": np.array([2.0 ** s for s in range(53, 58)]),
        "exp": np.frombuffer(b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-324, 309)),
                             dtype=np.uint64),
        "digits": np.frombuffer(digits, dtype=np.uint32),
        "tail": np.frombuffer(b"".join(b"%d.0\0" % d for d in range(10)), dtype=np.uint32),
        "last": last,
        "layout": np.array(layout, dtype=np.intp).view(f"V{8 * _TEXT_WIDTH}").ravel(),
        "offsets": np.array([[32 * i] for i in range(_GATHER_ROWS)]),
    }


def _decimal17(x: np.ndarray, t: dict) -> tuple:
    """(D, E, exact): x = D * 10^(E-16) to 17 digits, for x > 0 finite; exact where D is sure.

    E is the decimal exponent of x rounded to 17 digits, so D has 17
    digits. x * 10^(16-E) is formed as a double-double product (Dekker's,
    receiver._two_product) with the table's 10^(16-E), to within 2^-102 of
    its value: < 2^-45 in its last place. D is it rounded to an integer.
    exact is False where its fraction lies within 2^-40 of 1/2 (exact ties,
    such as m + 0.25 for a 16-digit m, lie there) and where x is not finite
    and > 0; there D is 10^16, a placeholder.
    """
    exact = (x > 0.0) & (x < math.inf)
    x = np.where(exact, x, 1.0)
    m, b = np.frexp(x)
    b += 1073
    e = t["e0"][b]
    e[x < t["ten"][b]] -= 1
    k = e + 324
    b += t["shift"][k]
    hi, lo = _two_product(m, t["hi"][k])
    lo += m * t["lo"][k]
    scale = t["pow2"][b - (1073 + 53)]
    lo *= scale
    rounded = np.rint(lo)
    exact &= np.abs(np.abs(lo - rounded) - 0.5) >= _TIE_BAND
    hi *= scale
    return np.where(exact, hi.astype(np.int64) + rounded.astype(np.int64), 10 ** 16), e, exact


def _digit_rows(values: np.ndarray, t: dict) -> tuple:
    """(rows, key, exact): each value's %g source row and layout key; exact as in _decimal17.

    A row is 32 bytes: D's 17 ASCII digits, '.', '0', NULs and E's exponent
    text. The key indexes the layout table by (notation class, count of
    significant digits).
    """
    d, e, exact = _decimal17(values, t)
    # the 17 digits as four groups of four and a last one
    high, low = np.divmod(d, 10 ** 9)
    low, tail = np.divmod(low, 10)
    groups = (*np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4))
    rows = np.zeros((values.size, 8), dtype=np.uint32)
    for column, group in enumerate(groups):
        rows[:, column] = t["digits"][group]
    rows[:, 4] = t["tail"][tail]
    rows.view(np.uint64)[:, 3] = t["exp"][e + 324]
    last = t["last"]
    n = np.maximum(np.maximum(last[0][groups[0]], last[1][groups[1]]),
                   np.maximum(last[2][groups[2]], last[3][groups[3]]))
    n[tail != 0] = 17
    key = np.where((e >= -4) & (e <= 16), e + 4, 21) * 17 + n - 1
    return rows.view(np.uint8), key, exact


def _format_17g(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v, as ASCII bytes, for every v of a float array, in one numpy pass.

    _decimal17 gives each value's 17 digits and decimal exponent E. One
    byte gather then lays out their ASCII, '.', zeros and exponent text as
    %g does for (E's notation class, the count of significant digits).
    Values whose digits are not sure (_decimal17's exact) take Python's own
    '%.17g'. Returns an 'S24' array; its tables are built on first use.
    """
    global _format_tables
    if _format_tables is None:
        _format_tables = _build_format_tables()
    t = _format_tables
    values = np.asarray(values, dtype=float).ravel()
    texts = np.empty(values.size, dtype=f"S{_TEXT_WIDTH}")
    for block in range(0, values.size, _FORMAT_BLOCK):
        part = values[block:block + _FORMAT_BLOCK]
        rows, key, exact = _digit_rows(part, t)
        flat = rows.ravel()
        out = texts[block:block + _FORMAT_BLOCK].view(np.uint8).reshape(-1, _TEXT_WIDTH)
        for start in range(0, part.size, _GATHER_ROWS):
            index = t["layout"][key[start:start + _GATHER_ROWS]].view(np.intp)
            index = index.reshape(-1, _TEXT_WIDTH)
            index += t["offsets"][:len(index)]
            flat[32 * start:].take(index, out=out[start:start + _GATHER_ROWS])
        python = np.flatnonzero(~exact)
        texts[block + python] = [b"%.17g" % v for v in part[python].tolist()]
    return texts


def sweep_csv(result: SweepResult) -> str:
    """The sweep CSV: a header, then one line per row, floats as '%.17g' writes them.

    A table of fewer than _LONG_TABLE rows writes each receiver's column
    with one % format: its label and rate are written into a line template
    once, and the template, repeated once per M, takes the column's
    (M, p_error, exponent) values in one pass. A longer table, where numpy's
    fixed cost per call is repaid, formats all its p_error and exponent
    values in one _format_17g pass and each M's text once for all columns;
    each column is then one bytes join. Both routes write the same bytes.
    """
    header = "receiver,M,p_error,exponent,per_mode_rate\n"
    if len(result) < _LONG_TABLE:
        parts = [header]
        for label, rate, ps, es in zip(result.receivers, result.per_mode_rate,
                                       result.p_error, result.exponent):
            line = f"{label},%d,%.17g,%.17g,{rate:.17g}\n"
            values = tuple(chain.from_iterable(zip(result.m_values, ps, es)))
            parts.append((line * (len(values) // 3)) % values)
        return "".join(parts)
    # a column is one join of (M, p_error, exponent, its rate, a newline and the label)
    texts = _format_17g(np.array([result.p_error, result.exponent], dtype=float))
    texts = texts.reshape(2, *np.shape(result.p_error))
    line = np.empty((len(result.m_values), 4), dtype=object)
    line[:, 0] = [b"%d" % m for m in result.m_values]
    parts = [header]
    for label, rate, ps, es in zip(result.receivers, result.per_mode_rate, *texts):
        label = label.encode("ascii")
        line[:, 1] = ps
        line[:, 2] = es
        line[:, 3] = b"%.17g\n%s" % (rate, label)
        line[-1, 3] = b"%.17g\n" % rate
        parts.append((b"%s,%s" % (label, b",".join(line.ravel().tolist()))).decode("ascii"))
    return "".join(parts)


def _emit(report: dict, args, rows=None, csv=None) -> None:
    """Write report to --out or stdout, and its params line to stderr, by the module's rule.

    Without --json the text is csv where given, else the params line, rows
    (by default one k=v line per result) and one line per note.
    """
    params = "params: " + json.dumps(report["params"], sort_keys=True) + "\n"
    carries_params = args.json or csv is None
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif csv is not None:
        text = csv
    else:
        if rows is None:
            rows = ["  ".join(f"{k}={v!r}" for k, v in row.items()) for row in report["results"]]
        notes = [f"note: {note}" for note in report["notes"]]
        text = params + "".join(line + "\n" for line in rows + notes)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.out or not carries_params:
        sys.stderr.write(params)


def cmd_snr(args) -> int:
    scenario = _scenario_from(args)
    src, ch, noise = scenario.resolve()
    stats = snr_pc(src, ch, noise)
    mom = beamsplitter_moments(src, ch, noise)
    label = next((rx.label for rx in RECEIVERS.values() if rx.added_noise == noise), None)
    notes = []
    asymptotic = None
    if label is not None:
        try:
            asymptotic = asymptotic_snr(label, src, ch)
        except ValueError as exc:
            notes.append(f"asymptotic reference unavailable: {exc}")
    else:
        notes.append("noise pair matches no named receiver; no asymptotic reference")
    report = {
        "params": scenario.as_dict(),
        "results": [{
            "receiver": label,
            "snr": stats.snr,
            "mean_h0": stats.mean_h0,
            "mean_h1": stats.mean_h1,
            "var_h0": stats.var_h0,
            "var_h1": stats.var_h1,
            "alpha_plus": mom.alpha_plus,
            "alpha_minus": mom.alpha_minus,
            "beta_plus": mom.beta_plus,
            "beta_minus": mom.beta_minus,
            "gamma_star": mom.gamma_star,
            "asymptotic_snr": asymptotic,
        }],
        "notes": notes,
    }
    _emit(report, args)
    return 0


def cmd_sweep(args) -> int:
    scenario = _scenario_from(args)
    m_values = _parse_m_values(args)
    receivers = tuple(tok.strip() for tok in args.receivers.split(",")) \
        if args.receivers else RECEIVER_ORDER
    spec = SweepSpec(scenario=scenario, m_values=m_values, receivers=receivers)
    result = compute_sweep(spec)
    report = {
        "params": dict(scenario.as_dict(), m_values=list(m_values), receivers=list(receivers)),
        "results": [dict(receiver=label, M=m, p_error=p, exponent=e, per_mode_rate=rate)
                    for label, rate, ps, es in zip(result.receivers, result.per_mode_rate,
                                                   result.p_error, result.exponent)
                    for m, p, e in zip(result.m_values, ps, es)],
        "notes": [],
    }
    _emit(report, args, csv=sweep_csv(result))
    return 0


def cmd_bounds(args) -> int:
    scenario = _scenario_from(args)
    sc = Scenario(*scenario.resolve())
    prior = args.prior_h0
    bounds = {label: RECEIVERS[label].bound(sc, prior) for label in _BOUND_ROWS}
    results = [{"label": label, "s_star": b.s_star, "c_at_s_star": b.c_at_s_star,
                "bound": b.bound, "exponent": b.exponent} for label, b in bounds.items()]
    report = {"params": dict(scenario.as_dict(), prior_h0=prior),
              "results": results, "notes": []}
    _emit(report, args)
    return 0


def cmd_mc(args) -> int:
    scenario = _scenario_from(args)
    src, ch, noise = scenario.resolve()
    cfg = SamplerConfig(seed=args.seed, n_samples=args.samples)
    emp = simulate_pc_receiver(src, ch, noise, cfg)
    analytic = snr_pc(src, ch, noise)

    def gate(label, observed, expected, se):
        if se == 0.0:
            n_sigma = 0.0 if observed == expected else math.inf
        else:
            n_sigma = abs(observed - expected) / se
        return {"label": label, "observed": observed, "expected": expected,
                "se": se, "n_sigma": n_sigma, "passed": n_sigma <= 5.0}

    rows = [
        gate("mean_h0", emp.mean_h0, analytic.mean_h0, emp.se_mean_h0),
        gate("mean_h1", emp.mean_h1, analytic.mean_h1, emp.se_mean_h1),
        gate("var_h0", emp.var_h0, analytic.var_h0, emp.se_var_h0),
        gate("var_h1", emp.var_h1, analytic.var_h1, emp.se_var_h1),
        gate("sqrt(snr)", math.sqrt(emp.snr_hat), math.sqrt(analytic.snr),
             deflection_se(emp, analytic.snr)),
    ]
    all_passed = all(r["passed"] for r in rows)
    report = {
        "params": dict(scenario.as_dict(), seed=args.seed, samples=args.samples),
        "results": rows,
        "notes": [f"gate: |observed - expected| <= 5 se; "
                  f"{'all rows passed' if all_passed else 'GATE FAILURE'}"],
    }

    table = [f"{'quantity':<28} {'observed':>14} {'expected':>14} {'se':>12} {'n_sigma':>8}  result"]
    table += [f"{r['label']:<28} {r['observed']:>14.6e} {r['expected']:>14.6e} "
              f"{r['se']:>12.4e} {r['n_sigma']:>8.2f}  {'pass' if r['passed'] else 'FAIL'}"
              for r in rows]
    _emit(report, args, rows=table)
    return 0 if all_passed else 4


def _scenario_from(args) -> ScenarioParams:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
        unknown = set(config) - set(_SCENARIO_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}; "
                             f"expected subset of {sorted(_SCENARIO_DEFAULTS)}")
        for key, value in config.items():
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError(f"config key {key!r} must be a number or a string, "
                                 f"got {json.dumps(value)}")
    values = {}
    for name, default in _SCENARIO_DEFAULTS.items():
        flag = getattr(args, name)
        value = flag if flag is not None else config.get(name, default)
        if name != "c" or (isinstance(value, str) and value not in ("quantum", "direct")):
            try:
                value = float(value)
            except ValueError:
                where = f"--{name.replace('_', '-')}" if flag is not None else f"config key {name!r}"
                kinds = "quantum, direct or a number" if name == "c" else "a number"
                raise ValueError(f"{where} must be {kinds}, got {value!r}") from None
        values[name] = value
    return ScenarioParams(**values)


def _parse_m_values(args) -> tuple:
    if args.m and args.m_log:
        raise ValueError("give either --m or --m-log, not both")
    if args.m:
        # digits alone are read exactly, without leading zeros; other forms, such as
        # 1e5, through float. Past 309 digits a count is above the largest double:
        # it gets _validate_pulses' message before int() refuses 4300 digits
        tokens = [tok.strip().lstrip("0") or "0" if tok.strip().isdecimal() else tok
                  for tok in args.m.split(",")]
        too_long = next((tok for tok in tokens if tok.isdecimal() and len(tok) > 309), None)
        if too_long:
            raise ValueError(f"pulse count m must be a positive integer, got {too_long}")
        values = [int(tok) if tok.isdecimal() else float(tok) for tok in tokens]
        if not all(isinstance(v, int) or v.is_integer() for v in values):
            raise ValueError(f"--m takes integer pulse counts, got {args.m!r}")
        values = [int(v) for v in values]
    elif args.m_log:
        parts = args.m_log.split(",")
        if len(parts) != 3:
            raise ValueError("--m-log expects start,stop,count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not (1 <= start < stop < math.inf and count >= 2):
            raise ValueError("--m-log needs 1 <= start < stop < inf and count >= 2")
        ratio = (stop / start) ** (1.0 / (count - 1))
        values = sorted({int(round(start * ratio ** i)) for i in range(count)})
    else:
        raise ValueError("sweep needs --m or --m-log")
    return tuple(values)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON report")
    common.add_argument("--config", help="JSON file with scenario defaults; flags override")
    common.add_argument("--out", help="write output to this path instead of stdout")
    for flag, help_text in (
        ("--ns", "signal brightness N_S"),
        ("--ni", "idler brightness N_I"),
        ("--kappa", "target reflectivity"),
        ("--nb", "background brightness N_B"),
        ("--eps-r", "extra return-mode noise quanta"),
        ("--eps-i", "extra idler-mode noise quanta"),
    ):
        common.add_argument(flag, type=float, default=None, help=help_text)
    common.add_argument("--c", default=None,
                        help="cross correlation: quantum, direct, or a number")

    parser = argparse.ArgumentParser(
        prog="qi", description="Gaussian target-detection receiver calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("snr", parents=[common],
                   help="analytic receiver statistics").set_defaults(func=cmd_snr)

    sweep = sub.add_parser("sweep", parents=[common],
                           help="error probability versus M as CSV")
    sweep.add_argument("--m", help="comma-separated pulse counts")
    sweep.add_argument("--m-log", help="log-spaced pulse counts: start,stop,count")
    sweep.add_argument("--receivers",
                       help="comma-separated subset of " + ",".join(RECEIVER_ORDER))
    sweep.set_defaults(func=cmd_sweep)

    bounds = sub.add_parser("bounds", parents=[common],
                            help="Chernoff-type bounds")
    bounds.add_argument("--prior-h0", type=float, default=0.5,
                        help="prior probability of the target-absent hypothesis")
    bounds.set_defaults(func=cmd_bounds)

    mc = sub.add_parser("mc", parents=[common],
                        help="seeded sampling gates: empirical vs analytic")
    mc.add_argument("--samples", type=int, default=1_000_000,
                    help="samples per hypothesis")
    mc.add_argument("--seed", type=int, default=42, help="sampling seed")
    mc.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
