"""Config-driven experiment runner.

Subcommands map onto the module operations; every run writes results.csv and
summary.json into the output directory.  Reruns with the same config and seed
produce byte-identical CSV output: floats are formatted with 17 significant
digits and row order is fixed.

With --plot, the subcommands in PLOT_COLUMNS also write plot.svg, drawn from
results.csv alone by a standard-library SVG writer (no extra package); the
same CSV gives byte-identical SVG.  A plot that cannot be made (a subcommand
without plot columns, no plottable rows) or rows dropped from it are reported
on stderr and leave the exit code unchanged; a run that writes no plot removes
an older plot.svg from the output directory.

A checked run writes its VerificationRecord through its summary() method
(verdict, check, lhs, rhs, ratio, ceiling, certified, details) beside its own
keys; good-cubes writes the record with the largest ratio.

Exit codes: 2 when the summary's verdict is "fail" or "violates", 1 for a
usage or configuration error, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections import UserDict
from fractions import Fraction

import numpy as np

from dyadicweights import diffquot, experiments, oscillation, wavelet
from dyadicweights.funcspace import catalog
from dyadicweights.grid import BudgetError, GridWindow, Shift, all_shifts, window_1d
from dyadicweights.quadrature import QuadratureBudgetError
from dyadicweights.records import ConfigError, typed
from dyadicweights.weights import ApEstimate, ap_ratios, parse_weight_spec, standard_probes


# ---------------------------------------------------------------------------
# flat TOML-style config
# ---------------------------------------------------------------------------


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(t) for t in inner.split(",")]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse flat key/value text with [section] headers."""
    out: dict[str, dict] = {}
    section = "run"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        out.setdefault(section, {})[key.strip()] = _parse_scalar(val)
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _section_key(key: str) -> tuple[str, str]:
    """(section, name) of "section.name"; a bare name is in [functional]."""
    return tuple(key.split(".", 1)) if "." in key else ("functional", key)


def _read(cfg, key: str, default):
    """The setting `key` ("section.name", or a bare [functional] name) of cfg,
    read through its section's get and typed by its default (records.typed)."""
    section, name = _section_key(key)
    return typed(key, cfg.get(section, {}).get(name, default), type(default))


class _Section(UserDict):
    """A config section that records each key get or [] reads, not `in` or iteration."""

    def __init__(self, values: dict):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def build_function(cfg: dict):
    spec = dict(cfg.get("function", {}))
    name = spec.pop("name", "tent")
    try:
        f = catalog(name, **spec)
    except KeyError as exc:
        raise ConfigError(f"unknown catalog function {name!r}") from exc
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {name!r}: {exc}") from exc
    if f.n != 1:
        raise ConfigError(f"{name!r} lives on R^{f.n}; the runners' windows are 1-D")
    return f


def build_weight(cfg: dict):
    try:
        w = parse_weight_spec(cfg.get("weight", {}))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad weight spec: {exc}") from exc
    if w.n != 1:
        raise ConfigError(f"weight on R^{w.n}; the runners' windows are 1-D")
    return w


def build_window(cfg: dict) -> GridWindow:
    lo = _read(cfg, "grid.lo", Fraction(-8))
    hi = _read(cfg, "grid.hi", Fraction(8))
    j_min = _read(cfg, "grid.j_min", -5)
    j_max = _read(cfg, "grid.j_max", 3)
    shifts_spec = _read(cfg, "grid.shifts", ["all"])
    if shifts_spec == ["all"]:
        shifts = all_shifts(1)
    else:
        shifts = [Shift((typed("grid.shifts", t, int),)) for t in shifts_spec]
    budget = _read(cfg, "grid.budget", 10**7)
    try:
        return window_1d(lo, hi, j_min, j_max, shifts=shifts, budget=budget)
    except ValueError as exc:
        raise ConfigError(f"bad grid window: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _cell_format(t: type) -> str:
    """The %-format that spells a value of type t as _fmt does."""
    if issubclass(t, (int, np.integer)):  # bool too: "%d" % True is "1"
        return "%d"
    if issubclass(t, (float, np.floating)):
        return "%.17g"
    return "%s"


# Rows given one %-format at a time: bounds the format and result strings.
_CSV_CHUNK_ROWS = 1024


def write_csv(path: str, header: tuple[str, ...], rows: list[tuple]):
    """One line per row, each cell as _fmt spells it: each run of
    consecutive rows with one type signature is spelled by one %-format
    over the run's cells, _CSV_CHUNK_ROWS rows at a time.  Every row has one
    cell per header column."""
    width = len(header)
    if set(map(len, rows)) - {width}:
        raise ValueError(f"every row of {path} must have {width} cells")
    cells = tuple(itertools.chain.from_iterable(rows))
    # the type signature of each row, as one tuple per `width` cells
    signatures = zip(*[iter(map(type, cells))] * width)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        start = 0
        for sig, run in itertools.groupby(signatures):
            stop = start + len(list(run))
            fmt = ",".join(map(_cell_format, sig)) + "\n"
            for first in range(start, stop, _CSV_CHUNK_ROWS):
                last = min(first + _CSV_CHUNK_ROWS, stop)
                fh.write((fmt * (last - first)) % cells[first * width : last * width])
            start = stop


def write_summary(path: str, summary: dict):
    """Strict JSON: a non-finite float is written as the string results.csv
    uses for it ("inf", "-inf", "nan").  The text is formed whole and written
    once: json.dump would write each piece the encoder yields."""
    text = json.dumps(_strict(summary), indent=2, sort_keys=True, allow_nan=False, default=repr)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _strict(obj):
    """obj with NumPy scalars and arrays as Python values, Fractions as
    strings and every non-finite float spelled by _fmt."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else _fmt(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


_SVG_W, _SVG_H = 480, 336
_SVG_LEFT, _SVG_TOP, _SVG_RIGHT, _SVG_BOTTOM = 72, 16, 464, 288  # plot area
_SVG_TICKS = 5


def _read_plot_pairs(csv_path: str, xcol: str, ycol: str):
    """(x, y) pairs of the CSV rows whose two values both parse as finite
    floats, and the number of rows read."""
    import csv as _csv

    with open(csv_path, newline="") as fh:
        rows = list(_csv.DictReader(fh))
    pairs = []
    for r in rows:
        try:
            x, y = float(r.get(xcol)), float(r.get(ycol))
        except (TypeError, ValueError):
            continue
        if math.isfinite(x) and math.isfinite(y):
            pairs.append((x, y))
    return pairs, len(rows)


def _plot_axis(values, lo_px: float, hi_px: float):
    """Map values onto [lo_px, hi_px]; the axis is logarithmic when every
    value is > 0, linear otherwise.  Returns (pixels, ticks, log) with ticks
    as evenly spaced (pixel, label) pairs."""
    log = all(v > 0 for v in values)
    t = [math.log10(v) for v in values] if log else list(values)
    lo, hi = min(t), max(t)
    if hi == lo:  # single point or constant column
        pad = 0.5 * abs(lo) or 0.5
        lo, hi = lo - pad, hi + pad
    scale = (hi_px - lo_px) / (hi - lo)
    pixels = [lo_px + (v - lo) * scale for v in t]
    ticks = []
    for i in range(_SVG_TICKS):
        tv = lo + (hi - lo) * i / (_SVG_TICKS - 1)
        ticks.append((lo_px + (tv - lo) * scale, "%.3g" % (10.0**tv if log else tv)))
    return pixels, ticks, log


def maybe_plot(outdir: str, csv_path: str, xcol: str, ycol: str):
    """Render plot.svg from the CSV alone; plotting never feeds back into
    the numeric pipeline.

    Draws one polyline of `ycol` against `xcol` with the standard library
    only.  Coordinates are written at fixed precision, so the same CSV gives
    byte-identical SVG.  Rows without a finite value in both columns are
    dropped; a drop, or a CSV with nothing to plot, is reported on stderr.
    Returns the path written, or None when there was nothing to plot.
    """
    from xml.sax.saxutils import escape

    pairs, n_rows = _read_plot_pairs(csv_path, xcol, ycol)
    if not pairs:
        print(
            f"note: --plot: no row of {csv_path} has finite {xcol} and {ycol};"
            " plot.svg not written",
            file=sys.stderr,
        )
        return None
    if len(pairs) < n_rows:
        print(
            f"note: --plot: dropped {n_rows - len(pairs)} of {n_rows} rows"
            f" without finite {xcol} and {ycol}",
            file=sys.stderr,
        )
    xpx, xticks, xlog = _plot_axis([x for x, _ in pairs], _SVG_LEFT, _SVG_RIGHT)
    ypx, yticks, ylog = _plot_axis([y for _, y in pairs], _SVG_BOTTOM, _SVG_TOP)
    xlabel = escape(xcol) + (" (log)" if xlog else "")
    ylabel = escape(ycol) + (" (log)" if ylog else "")
    ymid = (_SVG_TOP + _SVG_BOTTOM) / 2
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}"'
        f' viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="11">',
        '<defs><marker id="dot" viewBox="0 0 6 6" refX="3" refY="3" markerWidth="6"'
        ' markerHeight="6" markerUnits="userSpaceOnUse">'
        '<circle cx="3" cy="3" r="2.5" fill="#1f77b4"/></marker></defs>',
        f'<rect x="{_SVG_LEFT}" y="{_SVG_TOP}" width="{_SVG_RIGHT - _SVG_LEFT}"'
        f' height="{_SVG_BOTTOM - _SVG_TOP}" fill="none" stroke="#000"/>',
    ]
    for px, label in xticks:
        lines.append(
            f'<line x1="{px:.2f}" y1="{_SVG_BOTTOM}" x2="{px:.2f}" y2="{_SVG_BOTTOM + 4}"'
            f' stroke="#000"/><text x="{px:.2f}" y="{_SVG_BOTTOM + 16}"'
            f' text-anchor="middle">{label}</text>'
        )
    for px, label in yticks:
        lines.append(
            f'<line x1="{_SVG_LEFT - 4}" y1="{px:.2f}" x2="{_SVG_LEFT}" y2="{px:.2f}"'
            f' stroke="#000"/><text x="{_SVG_LEFT - 6}" y="{px + 4:.2f}"'
            f' text-anchor="end">{label}</text>'
        )
    lines += [
        f'<text x="{(_SVG_LEFT + _SVG_RIGHT) / 2:.2f}" y="{_SVG_H - 8}"'
        f' text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{ymid:.2f}" text-anchor="middle"'
        f' transform="rotate(-90 14 {ymid:.2f})">{ylabel}</text>',
        '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5"'
        ' marker-start="url(#dot)" marker-mid="url(#dot)" marker-end="url(#dot)"'
        ' points="' + " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xpx, ypx)) + '"/>',
        "</svg>",
    ]
    path = os.path.join(outdir, "plot.svg")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (rows, summary), the rows in the
# columns of HEADERS[subcommand]
# ---------------------------------------------------------------------------

HEADERS = {
    "verify-cddd": ("lambda", "functional", "n_cubes", "boundary_share"),
    "verify-bsvy": ("lambda", "functional"),
    "mean-functional": ("lambda", "functional", "n_cubes", "boundary_share"),
    "good-cubes": ("trial", "which", "lhs", "rhs", "ok"),
    "sharpness": ("param", "lhs", "constant", "grad_norm", "certified"),
    "classify-weight": ("depth", "member", "ratio"),
    "wavelet-check": ("e", "j", "m", "value"),
    "ap-constant": ("probe_lo", "probe_hi", "ratio"),
}


def run_verify_oscillation(cfg: dict):
    f = build_function(cfg)
    w = build_weight(cfg)
    window = build_window(cfg)
    ccfg = oscillation.OscillationConfig(
        p=_read(cfg, "p", 1.0),
        beta=_read(cfg, "beta", 2.0),
        weight=w,
        window=window,
        lambda_count=_read(cfg, "lambda_count", 64),
        exploratory=_read(cfg, "exploratory", False),
    )
    prof = oscillation.oscillation_functional(ccfg, f)
    rec = oscillation.verify_oscillation(ccfg, f, prof)
    rows = [(lam, val, n, prof.boundary_share) for lam, val, n in prof.as_rows()]
    summary = {
        **rec.summary(),
        "sup": prof.sup,
        "argmax_lambda": prof.argmax_lambda,
        "admissibility": {"beta_admissible": ccfg.admissible},
        "truncation": {
            "boundary_share": prof.boundary_share,
            "near_threshold_spread": prof.flags["near_threshold"],
        },
    }
    return rows, summary


def run_verify_diffquot(cfg: dict):
    f = build_function(cfg)
    w = build_weight(cfg)
    bcfg = diffquot.DiffQuotConfig(
        p=_read(cfg, "p", 1.0),
        q=_read(cfg, "q", 1.0),
        gamma=_read(cfg, "gamma", 1.0),
        weight=w,
        window=(_read(cfg, "grid.lo", -1.0), _read(cfg, "grid.hi", 1.0)),
        lambda_lo=_read(cfg, "lambda_lo", 1e0),
        lambda_hi=_read(cfg, "lambda_hi", 1e4),
        lambda_count=_read(cfg, "lambda_count", 13),
        exploratory=_read(cfg, "exploratory", False),
    )
    rec = diffquot.verify_diffquot(bcfg, f, tol=_read(cfg, "tol", 0.05))
    lams = rec.details.pop("profile_lambdas")
    vals = rec.details.pop("profile_values")
    rows = list(zip(lams, vals))
    summary = {
        **rec.summary(),
        "sup": rec.lhs,
        "lower_const": rec.details["lower_constant"],
        "admissibility": {
            "gamma_admissible": rec.details["admissible"],
            "scale_ok": rec.details["scale_ok"],
        },
        "truncation": {"tail_decades": diffquot.TAIL_DECADES},
    }
    return rows, summary


def run_mean_functional(cfg: dict):
    f = build_function(cfg)
    w = build_weight(cfg)
    window = build_window(cfg)
    p = _read(cfg, "p", 1.0)
    beta = _read(cfg, "beta", 2.0)
    prof = oscillation.mean_functional(f, w, p, beta, window)
    rec = oscillation.verify_mean_functional(f, w, p, beta, window, profile=prof)
    rows = [(lam, val, n, prof.boundary_share) for lam, val, n in prof.as_rows()]
    summary = {
        **rec.summary(),
        "sup": prof.sup,
        "admissibility": {"beta_band_ok": oscillation.mean_admissible_beta(p, beta)},
        "truncation": {
            "boundary_share": prof.boundary_share,
            "near_threshold_spread": prof.flags["near_threshold"],
        },
    }
    return rows, summary


def run_good_cubes(cfg: dict):
    import random

    from dyadicweights.grid import Cube, children

    trials = _read(cfg, "trials", 100)
    if trials < 1:
        raise ConfigError("good-cubes needs trials >= 1")
    seed = _read(cfg, "run.seed", 0)
    rng = random.Random(seed)
    w = build_weight(cfg)
    rows, records = [], []
    for t in range(trials):
        shift = Shift((rng.choice((0, 1, 2)),))
        root = Cube(shift, rng.randint(-1, 2), (rng.randint(-3, 3),))
        fam = [root]
        frontier = [root]
        for _ in range(3):
            nxt = [c for q in frontier for c in children(q) if rng.random() < 0.5]
            fam.extend(nxt)
            frontier = nxt
        fam = list(dict.fromkeys(fam))[:14]
        sigma = rng.uniform(-1.5, 1.5)
        gamma = sigma - rng.uniform(0.1, 2.0)
        alpha = sigma + rng.uniform(0.1, 2.0)
        for which, exponent in (("all_over_good", gamma), ("good_chain", alpha)):
            rec = oscillation.check_domination(fam, sigma, exponent, w, which)
            records.append(rec)
            rows.append((t, which, rec.lhs, rec.rhs, rec.passed))
    # every record is certified with ceiling 1 + REL_TOL, so the largest
    # ratio passes exactly when every record does
    worst = max(records, key=lambda r: r.ratio)
    return rows, {**worst.summary(), "trials": trials}


def run_sharpness(cfg: dict):
    case = _read(cfg, "case", "a1")
    p = _read(cfg, "p", 1.0 if case == "a1" else 2.0)
    count = _read(cfg, "deltas", 7)
    grid = [2.0 ** (-k) for k in range(2, 2 + count)]
    res = experiments.sharpness_sweep(case, p, grid)
    rows = list(zip(res.grid, res.lhs, res.constants, res.grad_norms, res.certified))
    summary = {
        "verdict": res.verdict,
        "slope": res.slope,
        "expected_slope": res.expected_slope,
        "slope_residual": res.slope_residual,
        "sup": max(res.lhs),
        "case": res.case,
        "p": res.p,
    }
    return rows, summary


def run_classify_weight(cfg: dict):
    w = build_weight(cfg)
    p = _read(cfg, "p", 1.0)
    depths = _read(cfg, "depths", [6, 12, 24, 48])
    rep = experiments.weight_classifier(
        w, p, depths=tuple(typed("depths", d, int) for d in depths),
        with_quotient=_read(cfg, "with_quotient", True),
    )
    rows = []
    for name in sorted(rep.ratios):
        for depth, val in zip(rep.schedule, rep.ratios[name]):
            rows.append((depth, name, val))
    reference = experiments.classifier_reference(w, p)
    summary = {
        "verdict": rep.verdict,
        "violating_members": rep.details["violating_members"],
        "analytic_reference": reference,
        "truncation": {"depths": rep.schedule},
    }
    return rows, summary


def run_wavelet_check(cfg: dict):
    order = _read(cfg, "order", 4)
    depth = _read(cfg, "depth", 12)
    beta = _read(cfg, "beta", 2.0)
    j_max = _read(cfg, "j_max", 4)
    wavelet.require_admissible(order, beta)  # before any coefficient
    system = wavelet.build_daubechies(order, depth)
    f = build_function(cfg)
    w = build_weight(cfg)
    idx = wavelet.IndexSet(
        j_max=j_max, lo=_read(cfg, "grid.lo", -8.0), hi=_read(cfg, "grid.hi", 10.0)
    )
    atoms, vals = wavelet.coefficients(f, system, idx)
    rec = wavelet.verify_almost_char(f, w, beta, system, idx, values=vals)
    rows = [(*a, v) for a, v in zip(atoms, vals)]
    summary = {
        **rec.summary(),
        "sup": rec.lhs,
        "moment_residuals": list(system.moment_residuals),
        "orthonormality_residual": system.orthonormality_residual,
        "refinement_residual": system.refinement_residual,
        "truncation": {
            "boundary_atoms": rec.details["boundary_atoms"],
            "strong_convergent": rec.details["strong_convergent"],
        },
    }
    return rows, summary


def run_ap_constant(cfg: dict):
    w = build_weight(cfg)
    p = _read(cfg, "p", 1.0)
    scales = range(_read(cfg, "scale_min", -10), _read(cfg, "scale_max", 11))
    probes = standard_probes(w, scales=scales)
    ratios = ap_ratios(w, p, probes)
    est = ApEstimate.from_ratios(ratios)  # ap_constant on the same ratios
    rows = [(lo, hi, r) for (lo, hi), r in zip(probes, ratios.tolist())]
    summary = {
        "verdict": "unbounded" if est.unbounded else "complete",
        "sup": est.value,
        "estimate": est.value,
        "unbounded": est.unbounded,
        "probe_count": len(probes),
    }
    return rows, summary


RUNNERS = {
    "verify-cddd": run_verify_oscillation,
    "verify-bsvy": run_verify_diffquot,
    "mean-functional": run_mean_functional,
    "good-cubes": run_good_cubes,
    "sharpness": run_sharpness,
    "classify-weight": run_classify_weight,
    "wavelet-check": run_wavelet_check,
    "ap-constant": run_ap_constant,
}

PLOT_COLUMNS = {
    "verify-cddd": ("lambda", "functional"),
    "verify-bsvy": ("lambda", "functional"),
    "mean-functional": ("lambda", "functional"),
    "sharpness": ("param", "lhs"),
}


def _apply_overrides(cfg: dict, pairs: list[str]):
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like section.key=value: {pair!r}")
        key, val = pair.split("=", 1)
        section, name = _section_key(key)
        cfg.setdefault(section, {})[name.strip()] = _parse_scalar(val)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The dyadw parser, built on the first main call and kept for the
    process.  argparse reads the terminal width when it formats help or an
    error, not here, and the append action copies --set's default list
    before it adds to it, so calls share no state through the parser."""
    parser = argparse.ArgumentParser(
        prog="dyadw",
        description="Dyadic-grid weighted functional experiments",
        epilog="CSV schemas: "
        + "; ".join(f"{name}: {','.join(cols)}" for name, cols in HEADERS.items())
        + ".",
    )
    parser.add_argument("subcommand", choices=RUNNERS)
    parser.add_argument("--config", help="flat TOML-style config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config entry (bare keys land in [functional])",
    )
    parser.add_argument("--case", help="sharpness case (a1 | ap | betalimit)")
    parser.add_argument("--p", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--deltas", type=int, help="sharpness grid size")
    parser.add_argument(
        "--out", default=None, help="output directory (default $DYADW_OUT or .)"
    )
    parser.add_argument("--plot", action="store_true", help="emit plot.svg")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args.set)
        for name in ("case", "p", "q", "beta", "gamma", "deltas"):
            val = getattr(args, name)
            if val is not None:
                cfg.setdefault("functional", {})[name] = val
        outdir = args.out or os.environ.get("DYADW_OUT", ".")
        os.makedirs(outdir, exist_ok=True)
        sections = {name: _Section(values) for name, values in cfg.items()}
        rows, summary = RUNNERS[args.subcommand](sections)
        unread = [f"{s}.{k}" for s, sec in sections.items() for k in sec if k not in sec.read]
        if unread:
            raise ConfigError(f"{args.subcommand} does not read {', '.join(unread)}")
    except (ValueError, KeyError, BudgetError, QuadratureBudgetError) as exc:
        # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1

    csv_path = os.path.join(outdir, "results.csv")
    write_csv(csv_path, HEADERS[args.subcommand], rows)
    summary_full = {
        "subcommand": args.subcommand,
        "inputs": cfg,
        # the keys every summary carries, for a run without a value for one
        "sup": None,
        "ratio": None,
        # empty for a run that checks no admissibility rule as it goes
        # (wavelet-check refuses an inadmissible order or beta before any work)
        "admissibility": {},
        "truncation": {},
        **summary,
    }
    write_summary(os.path.join(outdir, "summary.json"), summary_full)
    plot_path = None
    if args.plot and args.subcommand in PLOT_COLUMNS:
        xcol, ycol = PLOT_COLUMNS[args.subcommand]
        plot_path = maybe_plot(outdir, csv_path, xcol, ycol)
    elif args.plot:
        print(
            f"note: --plot: {args.subcommand} has no plot; plot.svg not written",
            file=sys.stderr,
        )
    if plot_path is None:
        # a plot left by an earlier run would not match this results.csv
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(outdir, "plot.svg"))
    verdict = summary["verdict"]
    print(f"{args.subcommand}: {verdict} (results in {outdir})")
    return 2 if verdict in ("fail", "violates") else 0


if __name__ == "__main__":
    sys.exit(main())
