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
receiver, and p_error and exponent as float64 arrays of shape (receivers, M),
which stay arrays from the receiver kernels to the CSV bytes. The CSV and the
--json report both read it, receiver by receiver and then M by M, so both
carry the same values in the same order; the report's rows hold Python
floats.

Every command builds one {params, results, notes} report, which _emit
writes: its JSON with --json, else the plain report (qi mc's table in place
of its k=v rows) or the sweep CSV. qi sweep builds only what it writes: the
CSV, or with --json the report's per-row results. The resolved parameters
go to stderr as a params line exactly when stdout does not carry them: with
--out, and for the CSV, so the data stream stays clean. Exit codes: 0
success, 2 invalid parameters, 3 I/O failure, 4 sampling gate failure.

CSV floats are Python's '%.17g', so output is byte-stable. sweep_csv writes
every table with one row writer; only its formatter of the p_error and
exponent values depends on the row count: below _LONG_TABLE (160) CPython's
'%.17g', and from it one numpy pass (the _format17 module, imported by the
first long table).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .montecarlo import SamplerConfig, deflection_se, simulate_pc_receiver
from .receiver import (RECEIVERS, Scenario, asymptotic_snr, beamsplitter_moments, snr_pc,
                       sweep_points)
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


# a table's p_error may exceed 1/2 by rounding, up to this
_HALF = 0.5 * (1 + 1e-12)
# and its exponent fall short of ln 2, down to this
_MIN_EXPONENT = math.log(2.0) - 1e-12


def _valid_table(p: np.ndarray, e: np.ndarray) -> bool:
    """SweepResult's rule for every cell, in three reductions, five if some p is 0.

    Each reduction fails on nan. Where p >= 0, max(p, e - 708) > 0 is p > 0 or
    an underflowed p = 0 with e > 708.
    """
    if not p.size:
        return True
    if not (e.min() >= _MIN_EXPONENT and p.max() <= _HALF):
        return False
    low = p.min()
    return low > 0.0 or (low == 0.0 and np.maximum(p, e - _UNDERFLOW_EXPONENT).min() > 0.0)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's receivers x M table; len() is its number of CSV rows.

    Per receiver: one per_mode_rate. p_error and exponent are float64 arrays
    of shape (receivers, M), a row per receiver over m_values; other
    sequences of that shape are read into such arrays. Compare tables with
    np.array_equal: == on arrays is not a truth value.
    """

    receivers: tuple
    m_values: tuple
    per_mode_rate: tuple
    p_error: np.ndarray
    exponent: np.ndarray

    def __post_init__(self) -> None:
        try:
            p = np.asarray(self.p_error, dtype=float)
            e = np.asarray(self.exponent, dtype=float)
        except ValueError:  # columns of two lengths
            raise ValueError("each p_error and exponent column must hold one value per M") from None
        if not len(self.per_mode_rate) == len(p) == len(e) == len(self.receivers):
            raise ValueError("per_mode_rate, p_error and exponent must hold one entry per receiver")
        if not p.shape == e.shape == (len(self.receivers), len(self.m_values)):
            raise ValueError("each p_error and exponent column must hold one value per M")
        object.__setattr__(self, "p_error", p)
        object.__setattr__(self, "exponent", e)
        rates_ok = [math.isfinite(rate) and rate >= 0.0 for rate in self.per_mode_rate]
        if all(rates_ok) and _valid_table(p, e):
            return
        # one mask over the table, which nan fails: p is 0 only where it underflowed
        ok = ((e >= _MIN_EXPONENT) & (p <= _HALF)
              & ((p > 0.0) | ((p == 0.0) & (e > _UNDERFLOW_EXPONENT))))
        # the first failing receiver, and in its row the first failing M
        i = next(i for i, row in enumerate(ok) if not (rates_ok[i] and row.all()))
        label, rate = self.receivers[i], self.per_mode_rate[i]
        if not rates_ok[i]:
            raise ValueError(f"per_mode_rate {rate} for {label} must be finite and >= 0")
        j = int(np.argmin(ok[i]))
        m = self.m_values[j]
        if not e[i, j] >= _MIN_EXPONENT:
            raise ValueError(f"exponent {e[i, j].item()} below ln 2 for {label} at M={m}")
        raise ValueError(f"p_error {p[i, j].item()} outside (0, 1/2] for {label} at M={m}")

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
    rates, p_error, log_p = sweep_points([RECEIVERS[label] for label in spec.receivers],
                                         Scenario(*spec.scenario.resolve()), spec.m_values)
    return SweepResult(spec.receivers, spec.m_values, tuple(rates), p_error, np.negative(log_p))


# sweep_csv formats the values of a table of at least this many rows with
# format_17g, a shorter one's with CPython's '%.17g'. format_17g pays a fixed
# cost in numpy calls per table and saves time on every value: on one CPU,
# on perfbench's threshold_sweep tables cut to fewer M (medians of 41 to 61
# interleaved pairs), sweep_csv took 1.5-1.7x the time at 52 rows with it,
# 1.06-1.13x at 100, 0.91-0.94x at 128, 0.85x at 160, 0.7x at 240 and
# 0.46-0.53x at 1196. No perfbench table lies between 52 and 1196 rows.
_LONG_TABLE = 160


def sweep_csv(result: SweepResult) -> str:
    """The sweep CSV: a header, then one line per row, floats as '%.17g' writes them.

    One writer for every table; only the 17-digit formatter of the p_error
    and exponent values depends on the row count. Below _LONG_TABLE rows they
    take CPython's '%.17g' over the arrays' .tolist(); from it up, where
    numpy's fixed cost per call is repaid, one _format17.format_17g pass.
    Their texts go by slice assignment into one list of fields, with each
    M's text, written once for every receiver, and between two rows the
    joint of the first row's rate, a newline and the next row's label; the
    header goes with the first label. The CSV is one b",".join of that list.
    """
    header = b"receiver,M,p_error,exponent,per_mode_rate\n"
    rows = len(result)
    if not rows:
        return header.decode("ascii")
    columns = (result.p_error, result.exponent)
    if rows < _LONG_TABLE:
        texts = [b"%.17g" % v for column in columns for v in column.ravel().tolist()]
    else:
        # imported here: its tables are built on import, and only a long table needs them
        from ._format17 import format_17g

        texts = format_17g(np.stack(columns)).tolist()
    labels = [label.encode("ascii") for label in result.receivers]
    joints = []
    for rate, label, following in zip(result.per_mode_rate, labels, labels[1:] + [b""]):
        rate = b"%.17g\n" % rate
        joints += [rate + label] * (len(result.m_values) - 1) + [rate + following]
    # the first field, which no slice sets, is the header and the first label
    fields = [header + labels[0]] * (4 * rows + 1)
    fields[1::4] = [b"%d" % m for m in result.m_values] * len(labels)
    fields[2::4] = texts[:rows]
    fields[3::4] = texts[rows:]
    fields[4::4] = joints
    return b",".join(fields).decode("ascii")


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
        if args.receivers is not None else RECEIVER_ORDER
    spec = SweepSpec(scenario=scenario, m_values=m_values, receivers=receivers)
    result = compute_sweep(spec)
    params = dict(scenario.as_dict(), m_values=list(m_values), receivers=list(receivers))
    report = {"params": params, "notes": []}
    if not args.json:
        _emit(report, args, csv=sweep_csv(result))
        return 0
    report["results"] = [dict(receiver=label, M=m, p_error=p, exponent=e, per_mode_rate=rate)
                         for label, rate, ps, es in zip(result.receivers, result.per_mode_rate,
                                                        result.p_error.tolist(),
                                                        result.exponent.tolist())
                         for m, p, e in zip(result.m_values, ps, es)]
    _emit(report, args)
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
        not_counts = ValueError(f"--m takes integer pulse counts, got {args.m!r}")
        try:
            values = [int(tok) if tok.isdecimal() else float(tok) for tok in tokens]
        except ValueError:
            raise not_counts from None
        if not all(isinstance(v, int) or v.is_integer() for v in values):
            raise not_counts
        values = [int(v) for v in values]
    elif args.m_log:
        parts = args.m_log.split(",")
        if len(parts) != 3:
            raise ValueError("--m-log expects start,stop,count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError("--m-log expects start,stop,count: two numbers and an integer, "
                             f"got {args.m_log!r}") from None
        if not (1 <= start < stop < math.inf and count >= 2):
            raise ValueError("--m-log needs 1 <= start < stop < inf and count >= 2")
        ratio = (stop / start) ** (1.0 / (count - 1))

        def point(i):
            return int(round(start * ratio ** i))

        # the points never decrease: gallop, then bisect, to the first i whose
        # point exceeds the last M, so the cost follows the distinct M, not count
        values, i = [], 0
        while i < count:
            values.append(point(i))
            step = 1
            while i + step < count and point(i + step) <= values[-1]:
                step *= 2
            lo, hi = i + step // 2, min(i + step, count)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if point(mid) <= values[-1] else (lo, mid)
            i = hi
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
