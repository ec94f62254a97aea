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

Exit codes: 0 pass/complete, 2 a verification produced a FAIL finding,
1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from dyadicweights import diffquot, experiments, oscillation, wavelet
from dyadicweights.funcspace import catalog
from dyadicweights.grid import BudgetError, GridWindow, Shift, all_shifts, window_1d
from dyadicweights.quadrature import QuadratureBudgetError
from dyadicweights.weights import ap_constant, parse_weight_spec, standard_probes

SUBCOMMANDS = (
    "verify-cddd",
    "verify-bsvy",
    "mean-functional",
    "good-cubes",
    "sharpness",
    "classify-weight",
    "wavelet-check",
    "ap-constant",
)


class ConfigError(ValueError):
    pass


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


def build_function(cfg: dict):
    spec = dict(cfg.get("function", {}))
    name = spec.pop("name", "tent")
    try:
        return catalog(name, **spec)
    except KeyError as exc:
        raise ConfigError(f"unknown catalog function {name!r}") from exc
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {name!r}: {exc}") from exc


def build_weight(cfg: dict):
    spec = dict(cfg.get("weight", {"kind": "constant"}))
    try:
        return parse_weight_spec(spec)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad weight spec: {exc}") from exc


def build_window(cfg: dict) -> GridWindow:
    g = cfg.get("grid", {})
    lo = Fraction(str(g.get("lo", -8)))
    hi = Fraction(str(g.get("hi", 8)))
    j_min = int(g.get("j_min", -5))
    j_max = int(g.get("j_max", 3))
    shifts_spec = g.get("shifts", "all")
    if shifts_spec == "all":
        shifts = all_shifts(1)
    else:
        if not isinstance(shifts_spec, list):
            shifts_spec = [shifts_spec]
        shifts = [Shift((int(t),)) for t in shifts_spec]
    budget = int(g.get("budget", 10**7))
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


def write_csv(path: str, header: list[str], rows: list[tuple]):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_summary(path: str, summary: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    return repr(obj)


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


def _plot_axis(values, log: bool, lo_px: float, hi_px: float):
    """Map values onto [lo_px, hi_px]; the axis is logarithmic only when
    `log` is set and every value is > 0.  Returns (pixels, ticks, log) with
    ticks as evenly spaced (pixel, label) pairs."""
    log = log and all(v > 0 for v in values)
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


def maybe_plot(outdir: str, csv_path: str, xcol: str, ycol: str, logx=True, logy=True):
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
    xpx, xticks, xlog = _plot_axis([x for x, _ in pairs], logx, _SVG_LEFT, _SVG_RIGHT)
    ypx, yticks, ylog = _plot_axis([y for _, y in pairs], logy, _SVG_BOTTOM, _SVG_TOP)
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
# subcommand implementations; each returns (rows, header, summary, exit_code)
# ---------------------------------------------------------------------------


def _functional_params(cfg: dict) -> dict:
    return dict(cfg.get("functional", {}))


def run_verify_oscillation(cfg: dict):
    f = build_function(cfg)
    w = build_weight(cfg)
    window = build_window(cfg)
    fp = _functional_params(cfg)
    try:
        ccfg = oscillation.OscillationConfig(
            p=float(fp.get("p", 1.0)),
            beta=float(fp.get("beta", 2.0)),
            weight=w,
            window=window,
            lambda_count=int(fp.get("lambda_count", 64)),
            ratio_ceiling=float(fp.get("ratio_ceiling", 100.0)),
            exploratory=bool(fp.get("exploratory", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"admissibility violation: {exc}") from exc
    prof = oscillation.oscillation_functional(ccfg, f)
    rec = oscillation.verify_oscillation(ccfg, f, prof)
    rows = [
        (lam, val, n, prof.boundary_share)
        for lam, val, n in prof.as_rows()
    ]
    summary = {
        "verdict": rec.verdict,
        "sup": prof.sup,
        "argmax_lambda": prof.argmax_lambda,
        "ratio": rec.ratio,
        "rhs": rec.rhs,
        "admissibility": {"beta_admissible": ccfg.admissible},
        "truncation": {
            "boundary_share": prof.boundary_share,
            "near_threshold_spread": prof.flags.get("near_threshold", 0.0),
        },
        "details": rec.details,
    }
    return rows, ["lambda", "functional", "n_cubes", "boundary_share"], summary, (
        0 if rec.passed else 2
    )


def run_verify_diffquot(cfg: dict):
    f = build_function(cfg)
    w = build_weight(cfg)
    fp = _functional_params(cfg)
    g = cfg.get("grid", {})
    try:
        bcfg = diffquot.DiffQuotConfig(
            p=float(fp.get("p", 1.0)),
            q=float(fp.get("q", 1.0)),
            gamma=float(fp.get("gamma", 1.0)),
            weight=w,
            window=(float(g.get("lo", -1.0)), float(g.get("hi", 1.0))),
            lambda_lo=float(fp.get("lambda_lo", 1e0)),
            lambda_hi=float(fp.get("lambda_hi", 1e4)),
            lambda_count=int(fp.get("lambda_count", 13)),
            ratio_ceiling=float(fp.get("ratio_ceiling", 100.0)),
            exploratory=bool(fp.get("exploratory", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rec = diffquot.verify_diffquot(bcfg, f, tol=float(fp.get("tol", 0.05)))
    lams = rec.details.pop("profile_lambdas")
    vals = rec.details.pop("profile_values")
    flags = rec.details.pop("profile_truncated")
    rows = list(zip(lams, vals, flags))
    summary = {
        "verdict": rec.verdict,
        "sup": rec.lhs,
        "ratio": rec.ratio,
        "lower_const": rec.details["lower_constant"],
        "admissible": rec.details["admissible"],
        "scale_ok": rec.details["scale_ok"],
        "truncation": {"tail_decades": bcfg.tail_decades},
        "details": rec.details,
    }
    return rows, ["lambda", "functional", "tail_flag"], summary, (
        0 if rec.passed else 2
    )


def run_mean_functional(cfg: dict):
    f = build_function(cfg)
    w = build_weight(cfg)
    window = build_window(cfg)
    fp = _functional_params(cfg)
    p = float(fp.get("p", 1.0))
    beta = float(fp.get("beta", 2.0))
    try:
        prof = oscillation.mean_functional(f, w, p, beta, window)
        rec = oscillation.verify_mean_functional(f, w, p, beta, window, profile=prof)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [(lam, val, n, prof.boundary_share) for lam, val, n in prof.as_rows()]
    summary = {
        "verdict": rec.verdict,
        "sup": prof.sup,
        "ratio": rec.ratio,
        "admissibility": {"beta_band_ok": oscillation.mean_admissible_beta(p, beta)},
        "truncation": {"boundary_share": prof.boundary_share},
        "details": rec.details,
    }
    return rows, ["lambda", "functional", "n_cubes", "boundary_share"], summary, (
        0 if rec.passed else 2
    )


def run_good_cubes(cfg: dict):
    import random

    from dyadicweights.grid import children, make_cube

    fp = _functional_params(cfg)
    trials = int(fp.get("trials", 100))
    seed = int(cfg.get("run", {}).get("seed", 0))
    rng = random.Random(seed)
    w = build_weight(cfg)
    rows = []
    all_ok = True
    for t in range(trials):
        shift = Shift((rng.choice((0, 1, 2)),))
        root = make_cube(shift, rng.randint(-1, 2), (rng.randint(-3, 3),))
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
        r1 = oscillation.check_domination(fam, sigma, gamma, w, "all_over_good")
        r2 = oscillation.check_domination(fam, sigma, alpha, w, "good_chain")
        all_ok = all_ok and r1.passed and r2.passed
        rows.append((t, "all_over_good", r1.lhs, r1.rhs, r1.passed))
        rows.append((t, "good_chain", r2.lhs, r2.rhs, r2.passed))
    summary = {
        "verdict": "pass" if all_ok else "fail",
        "sup": None,
        "ratio": None,
        "trials": trials,
        "truncation": {},
        "admissibility": {},
    }
    return rows, ["trial", "which", "lhs", "rhs", "ok"], summary, (0 if all_ok else 2)


def run_sharpness(cfg: dict):
    fp = _functional_params(cfg)
    case = str(fp.get("case", "a1"))
    p = float(fp.get("p", 1.0 if case == "a1" else 2.0))
    count = int(fp.get("deltas", 7))
    grid = [2.0 ** (-k) for k in range(2, 2 + count)]
    res = experiments.sharpness_sweep(case, p, grid)
    rows = [
        (g, l, c, gn, cert)
        for g, l, c, gn, cert in zip(
            res.grid, res.lhs, res.constants, res.grad_norms, res.certified
        )
    ]
    summary = {
        "verdict": res.verdict,
        "slope": res.slope,
        "expected_slope": res.expected_slope,
        "slope_residual": res.slope_residual,
        "sup": max(res.lhs),
        "ratio": None,
        "admissibility": {},
        "truncation": {},
        "case": res.case,
        "p": res.p,
    }
    return rows, ["param", "lhs", "constant", "grad_norm", "certified"], summary, (
        0 if res.passed else 2
    )


def run_classify_weight(cfg: dict):
    w = build_weight(cfg)
    fp = _functional_params(cfg)
    p = float(fp.get("p", 1.0))
    depths = fp.get("depths", [6, 12, 24, 48])
    rep = experiments.weight_classifier(
        w, p, depths=tuple(int(d) for d in depths),
        with_quotient=bool(fp.get("with_quotient", True)),
    )
    rows = []
    for name in sorted(rep.ratios):
        for depth, val in zip(rep.schedule, rep.ratios[name]):
            rows.append((depth, name, val))
    reference = experiments.classifier_reference(w, p)
    summary = {
        "verdict": rep.verdict,
        "sup": None,
        "ratio": None,
        "violating_members": rep.details["violating_members"],
        "analytic_reference": reference,
        "admissibility": {},
        "truncation": {"depths": rep.schedule},
    }
    code = 0
    if rep.verdict == "violates":
        code = 2
    return rows, ["depth", "member", "ratio"], summary, code


def run_wavelet_check(cfg: dict):
    fp = _functional_params(cfg)
    order = int(fp.get("order", 4))
    depth = int(fp.get("depth", 12))
    beta = float(fp.get("beta", 2.0))
    j_max = int(fp.get("j_max", 4))
    try:
        system = wavelet.build_daubechies(order, depth)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    f = build_function(cfg)
    w = build_weight(cfg)
    g = cfg.get("grid", {})
    idx = wavelet.IndexSet(
        j_max=j_max, lo=float(g.get("lo", -8.0)), hi=float(g.get("hi", 10.0))
    )
    atoms, vals = wavelet.coefficients(f, system, idx)
    rec = wavelet.verify_almost_char(f, w, beta, system, idx, coeffs=(atoms, vals))
    rows = [(a.e, a.j, a.k, v) for a, v in zip(atoms, vals)]
    moments = [abs(system.moment(k)) for k in range(order)]
    summary = {
        "verdict": rec.verdict,
        "sup": rec.lhs,
        "ratio": rec.ratio,
        "moment_residuals": moments,
        "orthonormality_residual": system.orthonormality_residual(),
        "refinement_residual": system.refinement_residual(),
        "admissibility": {"order_ok": order > 2, "beta_ok": beta < 0 or beta > 1},
        "truncation": {
            "boundary_atoms": rec.details["boundary_atoms"],
            "strong_convergent": rec.details["strong_convergent"],
        },
        "details": rec.details,
    }
    return rows, ["e", "j", "m", "value"], summary, 0 if rec.passed else 2


def run_ap_constant(cfg: dict):
    w = build_weight(cfg)
    fp = _functional_params(cfg)
    p = float(fp.get("p", 1.0))
    scales = range(int(fp.get("scale_min", -10)), int(fp.get("scale_max", 11)))
    probes = standard_probes(w, scales=scales)
    est = ap_constant(w, p, probes)
    from dyadicweights.weights import ap_ratio

    rows = []
    for lo, hi in probes:
        r = ap_ratio(w, p, (lo, hi))
        rows.append((lo, hi, r if math.isfinite(r) else math.inf))
    summary = {
        "verdict": "unbounded" if est.unbounded else "complete",
        "sup": est.value,
        "ratio": None,
        "estimate": est.value,
        "unbounded": est.unbounded,
        "probe_count": est.probe_count,
        "admissibility": {},
        "truncation": {},
    }
    return rows, ["probe_lo", "probe_hi", "ratio"], summary, 0


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
        if "." not in key:
            section, name = "functional", key
        else:
            section, name = key.split(".", 1)
        cfg.setdefault(section, {})[name.strip()] = _parse_scalar(val)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyadw",
        description="Dyadic-grid weighted functional experiments",
        epilog=(
            "CSV schemas: verify-cddd/mean-functional: lambda,functional,"
            "n_cubes,boundary_share; verify-bsvy: lambda,functional,tail_flag; "
            "sharpness: param,lhs,constant,grad_norm,certified; classify-weight: "
            "depth,member,ratio; wavelet-check: e,j,m,value; ap-constant: "
            "probe_lo,probe_hi,ratio; good-cubes: trial,which,lhs,rhs,ok."
        ),
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
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
    try:
        args = parser.parse_args(argv)
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
        rows, header, summary, code = RUNNERS[args.subcommand](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, BudgetError, QuadratureBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    csv_path = os.path.join(outdir, "results.csv")
    write_csv(csv_path, header, rows)
    summary_full = {
        "subcommand": args.subcommand,
        "inputs": cfg,
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
    verdict = summary.get("verdict", "complete")
    print(f"{args.subcommand}: {verdict} (results in {outdir})")
    return code


if __name__ == "__main__":
    sys.exit(main())
