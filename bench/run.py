"""Benchmark of the `dyadw` runner on four workloads.

Each workload is a closed loop with one caller: one process, one thread,
and the next `cli.main` call starts only after the previous one returned.
Every call's outputs are checked (exit code, verdict, byte-identical
results.csv across the run, and the values against `reference.json`).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]

With a workload, the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, measured untraced.  `--trace 1`
reports its per-layer metrics: half the time runs untraced, half with span
tracing installed around the layer functions (see tracing.py), and the spans
are written to .bench_out/.  Without a workload, every workload runs once
untraced and once traced, and a table of all metrics is printed and
written to .bench_out/summary.json.

The seed translates the weight centre by a multiple of 1/16; class
membership is translation-invariant, so the expected verdicts hold for
every seed.  Seed 0 is the named input itself.  Times are in reference
seconds: wall time scaled by the host's speed while it was measured (see
SpeedProbe).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Weight-centre offsets in sixteenths for seeds 1, 2, ...; seed 0 uses 0.
# On classify-quotient the adaptive outer quadrature's work depends on where
# the weight's singularity falls: offsets +-1 and +-2 take 3% and 8% more
# inner integrals than these four, which agree to within 0.4% in value calls.
OFFSETS = (3, -3, 4, -4)

SETUP_REPEATS = 7
MAX_TRACED_CALLS = 3
ORACLE_CUBES = 32


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str | None  # relative to the checkout root
    sets: tuple[str, ...]
    center: float  # weight centre of the named input
    code: int  # expected exit code
    verdict: str
    # relative tolerance on the summary's sup and ratio and on the checked
    # CSV column; see reference.json for the values
    rtol: float
    column: str | None = None
    # absolute tolerance on the column, as a share of its largest magnitude
    column_atol: float = 0.0

    def overrides(self, offset: int) -> list[str]:
        return [*self.sets, f"weight.center={self.center + offset / 16!r}"]

    def argv(self, offset: int, outdir: Path) -> list[str]:
        argv = [self.subcommand]
        if self.config:
            argv += ["--config", str(ROOT / self.config)]
        for s in self.overrides(offset):
            argv += ["--set", s]
        return argv + ["--out", str(outdir)]


# Tolerances admit the planned accuracy and quadrature changes: fixing the
# sampled omega path's 9.6e-5 relative error moves every threshold, hence
# the supremum, by about 1e-4; the classifier's quotient ratios may move
# within the diffquot outer_tol of 1e-3.  Exact paths allow only rounding.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cddd-exact", "verify-cddd", "configs/a1_battery.cfg", (),
            0.5, 0, "pass", rtol=1e-9,
        ),
        Workload(
            "cddd-sampled", "verify-cddd", "configs/a1_battery.cfg",
            ("function.name=smoothed_indicator",),
            0.5, 0, "pass", rtol=1e-3,
        ),
        Workload(
            "classify-quotient", "classify-weight", None,
            ("weight.kind=power", "weight.exponent=0.5", "p=1"),
            0.0, 2, "violates", rtol=5e-3, column="ratio",
        ),
        Workload(
            "wavelet-atoms", "wavelet-check", None,
            ("weight.kind=power", "weight.exponent=-0.5"),
            0.0, 0, "pass", rtol=1e-6, column="value", column_atol=1e-9,
        ),
    )
}


def offset_for(seed: int) -> int:
    return 0 if seed == 0 else OFFSETS[(seed - 1) % len(OFFSETS)]


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "dyadicweights" / "__init__.py").is_file():
        raise SystemExit(f"error: no dyadicweights sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dyadicweights
    from dyadicweights import cli

    if not Path(dyadicweights.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: dyadicweights imported from {dyadicweights.__file__}")
    return cli


# -- output checks ----------------------------------------------------------------


def read_csv_column(text: str, column: str) -> list[float]:
    lines = text.splitlines()
    idx = lines[0].split(",").index(column)
    return [float(line.split(",")[idx]) for line in lines[1:]]


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    if want is None or got is None:
        return got == want
    return abs(got - want) <= rtol * abs(want) + atol


def check_outputs(wl: Workload, ref: dict, code, outdir: Path, first_csv) -> tuple[list[str], bytes]:
    """Problems with one call's outputs, and its results.csv bytes."""
    problems = []
    if code != wl.code:
        problems.append(f"exit code {code}, expected {wl.code}")
    try:
        csv_bytes = (outdir / "results.csv").read_bytes()
        summary = json.loads((outdir / "summary.json").read_text())
        column = read_csv_column(csv_bytes.decode(), wl.column) if wl.column else None
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"unreadable outputs: {exc!r}"], b""
    if first_csv is not None and csv_bytes != first_csv:
        problems.append("results.csv differs from the run's first call")
    if summary.get("verdict") != wl.verdict:
        problems.append(f"verdict {summary.get('verdict')!r}, expected {wl.verdict!r}")
    for key in ("sup", "ratio"):
        if key in ref and not _close(summary.get(key), ref[key], wl.rtol):
            problems.append(f"{key} {summary.get(key)!r}, reference {ref[key]!r}")
    if "csv_sha256" in ref and hashlib.sha256(csv_bytes).hexdigest() != ref["csv_sha256"]:
        problems.append("results.csv sha256 differs from the reference digest")
    if column is not None:
        want = ref["column"]
        atol = wl.column_atol * max(abs(v) for v in want)
        bad = [i for i, (g, r) in enumerate(zip(column, want)) if not _close(g, r, wl.rtol, atol)]
        if len(column) != len(want) or bad:
            problems.append(
                f"{wl.column} column: {len(column)} rows vs {len(want)}, "
                f"{len(bad)} outside tolerance"
            )
    return problems, csv_bytes


# -- host speed -------------------------------------------------------------------

# This host's speed drifts by up to 2x over tens of seconds, with CPU time
# tracking wall time.  Times are therefore reported in reference seconds:
# wall time scaled by the host's speed while it was measured, sampled by a
# fixed tick job.  TICK_REF_S is what one tick takes at full speed (the
# 2-core Xeon at 2.0 GHz with Python 3.11 that defined this benchmark); it
# is a constant, so reference seconds compare across runs and commits.
TICK_REF_S = 0.001
TICK_PERIOD_S = 0.05


def tick() -> float:
    """Seconds one run of the tick job takes.  The job mixes the package's
    kinds of work: Fraction arithmetic, small NumPy calls, a Python loop."""
    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(1, i % 97 + 1)
    a = np.arange(300.0)
    for _ in range(100):
        a = np.sqrt(a + 1.0)
    x = 0
    for i in range(7000):
        x += i * i % 7
    return time.perf_counter() - t


class SpeedProbe:
    """Times a job and samples the host's speed while it runs.

    A SIGALRM timer runs one tick every TICK_PERIOD_S of wall time, and one
    tick runs before and one after the job, so short jobs get samples too.
    """

    def __enter__(self):
        self.ticks = [tick()]
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        self._start = time.perf_counter()
        return self

    def _on_alarm(self, signum, frame):
        self.ticks.append(tick())

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.ticks.append(tick())

    @property
    def busy(self) -> float:
        """Seconds the ticks took inside the timed interval."""
        return sum(self.ticks[1:-1])

    @property
    def factor(self) -> float:
        return speed_factor(self.ticks)


def speed_factor(ticks: list) -> float:
    """Reference seconds per wall second: mean full-speed share of a tick."""
    return statistics.mean(TICK_REF_S / t for t in ticks)


# -- measurement ------------------------------------------------------------------

# Timed from the child's first statement; its own ticks afterwards give the
# host's speed on the core it ran on.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
src, bench, config, sets = sys.argv[1], sys.argv[2], sys.argv[3] or None, json.loads(sys.argv[4])
sys.path.insert(0, src)
from dyadicweights import cli
cfg = cli.load_config(config)
cli._apply_overrides(cfg, sets)
cli.build_function(cfg), cli.build_weight(cfg), cli.build_window(cfg)
elapsed = time.perf_counter() - t0
sys.path.insert(0, bench)
from run import speed_factor, tick
print(elapsed, speed_factor([tick() for _ in range(30)]))
"""


@dataclass
class Loop:
    times: list = field(default_factory=list)  # wall seconds per timed job
    factors: list = field(default_factory=list)  # their SpeedProbe factors
    failed: int = 0
    tracers: list = field(default_factory=list)
    first_csv: bytes | None = None  # every call's results.csv must match it

    def ref_times(self) -> list:
        return [t * k for t, k in zip(self.times, self.factors)]


def setup_loop(wl: Workload, offset: int) -> Loop:
    """Fresh-interpreter import, config parse and input build, each timed in
    the child from its first statement."""
    config = str(ROOT / wl.config) if wl.config else ""
    loop = Loop()
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(HERE), config,
             json.dumps(wl.overrides(offset))],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, factor = res.stdout.split()[-2:]
        loop.times.append(float(elapsed))
        loop.factors.append(float(factor))
    return loop


def run_loop(cli, wl: Workload, offset: int, ref: dict, outdir: Path, seconds: float,
             tracing: bool = False, max_calls: int | None = None,
             first_csv: bytes | None = None) -> Loop:
    """Call cli.main back to back until `seconds` have passed (at least once).
    A call's time excludes the speed probe's ticks."""
    from tracing import ROOT_SPAN, Tracer, installed

    argv = wl.argv(offset, outdir)
    loop = Loop(first_csv=first_csv)
    start = time.perf_counter()
    while not loop.times or (
        time.perf_counter() - start < seconds
        and (max_calls is None or len(loop.times) < max_calls)
    ):
        for name in ("results.csv", "summary.json"):
            (outdir / name).unlink(missing_ok=True)
        tracer = Tracer() if tracing else None
        code = None
        with installed(tracer) if tracing else contextlib.nullcontext():
            with contextlib.redirect_stdout(io.StringIO()), SpeedProbe() as probe:
                try:
                    if tracing:
                        code = tracer.call(ROOT_SPAN, cli.main, argv)
                    else:
                        code = cli.main(argv)
                except Exception:
                    traceback.print_exc()
        loop.times.append(probe.wall - probe.busy)
        loop.factors.append(probe.factor)
        if tracing:
            loop.tracers.append(tracer)
        problems, csv_bytes = check_outputs(wl, ref, code, outdir, loop.first_csv)
        if loop.first_csv is None:
            loop.first_csv = csv_bytes
        if problems:
            loop.failed += 1
            print(f"{wl.name}: call {len(loop.times)} failed: " + "; ".join(problems),
                  file=sys.stderr)
    return loop


def omega_rel_err(cli, wl: Workload, offset: int, seed: int) -> float:
    """Largest relative gap between omega_window and the brute-force oracle
    on a seeded sample of window cubes with a breakpoint of f inside."""
    if wl.subcommand != "verify-cddd":
        return 0.0
    from dyadicweights import funcspace

    cfg = cli.load_config(str(ROOT / wl.config))
    cli._apply_overrides(cfg, wl.overrides(offset))
    f = cli.build_function(cfg)
    window = cli.build_window(cfg)
    omegas = funcspace.omega_window(f, window)
    bps = [Fraction(b) for b in f.breakpoints]
    straddling = [
        q for q in window.cubes()
        if any(q.interval()[0] < b < q.interval()[1] for b in bps)
    ]
    sample = random.Random(seed).sample(straddling, min(ORACLE_CUBES, len(straddling)))
    worst = 0.0
    for q in sample:
        exact = funcspace.omega_bruteforce(f, q)
        worst = max(worst, abs(omegas[funcspace.cube_key(q)] - exact) / abs(exact))
    return worst


def describe(name: str, loop: Loop) -> None:
    print(f"  {name}: {len(loop.times)} timed, wall median "
          f"{statistics.median(loop.times)!r} s, host speed factor median "
          f"{statistics.median(loop.factors)!r}")


def measure(args) -> dict:
    cli = import_cli()
    wl = WORKLOADS[args.workload]
    offset = offset_for(args.seed)
    ref = json.loads((HERE / "reference.json").read_text())[wl.name][str(offset)]
    outdir = OUT / f"{wl.name}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    spec = contract()
    print(f"workload {wl.name}, seed {args.seed}: weight centre "
          f"{wl.center + offset / 16!r}, {args.seconds} s, trace {args.trace}")
    try:
        if args.trace:
            plain = run_loop(cli, wl, offset, ref, outdir, args.seconds / 2)
            traced = run_loop(cli, wl, offset, ref, outdir, args.seconds / 2,
                              tracing=True, max_calls=MAX_TRACED_CALLS,
                              first_csv=plain.first_csv)
            loops = [plain, traced]
            describe("untraced calls", plain)
            describe("traced calls", traced)
            metrics = per_layer(cli, wl, offset, args.seed, plain, traced)
            wanted = spec["per_layer"]
        else:
            setup = setup_loop(wl, offset)
            loop = run_loop(cli, wl, offset, ref, outdir, args.seconds)
            loops = [loop]
            describe("setups", setup)
            describe("calls", loop)
            metrics = {
                "setup_s": statistics.median(setup.ref_times()),
                "solve_s": statistics.median(loop.ref_times()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    print(f"  {attempted} calls attempted, {failed} failed: fail_ratio {failed / attempted!r}")
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']}: {metrics[m['name']]!r} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}


def per_layer(cli, wl, offset, seed, plain: Loop, traced: Loop) -> dict:
    """Medians over the traced calls; times in reference seconds."""
    from tracing import layer_metrics, layer_shares, write_spans

    per_call = []
    for tr, k in zip(traced.tracers, traced.factors):
        m = layer_metrics(tr)
        per_call.append({name: v * k if name.endswith("_s") else v for name, v in m.items()})
    metrics = {
        name: (statistics.median if name.endswith("_s") else statistics.median_low)(
            [m[name] for m in per_call])
        for name in per_call[0]
    }
    metrics["trace.overhead_s"] = (
        statistics.median(traced.ref_times()) - statistics.median(plain.ref_times())
    )
    metrics["funcspace.omega_rel_err"] = omega_rel_err(cli, wl, offset, seed)
    spans = OUT / f"spans-{wl.name}-seed{seed}.tsv.gz"
    write_spans(spans, traced.tracers)
    shares = layer_shares(traced.tracers[0])
    print(f"  spans of the traced calls in {spans.relative_to(ROOT)}")
    print("  self-time shares of the first traced call: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    return metrics


# -- every workload ------------------------------------------------------------


def run_all(args) -> int:
    """Each workload untraced, then traced, each in its own process; print
    one table of every metric and write it to .bench_out/summary.json."""
    spec = contract()
    seconds = args.seconds or spec["run_seconds"]
    table = {}
    ok = True
    for name in WORKLOADS:
        row = table[name] = {}
        attempted = failed = 0
        for trace in (0, 1):
            res = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(res.stderr)
            lines = res.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if res.returncode != 0:
                print(f"{name}: benchmark exited with code {res.returncode}")
                ok = False
                continue
            out = json.loads(lines[-1])
            ok = ok and out["correct"]
            attempted += out["attempted"]
            failed += out["failed"]
            row.update(out["metrics"])
        if attempted:
            row["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(table, indent=2) + "\n")
    order = [m["name"] for m in spec["end_to_end"]] + ["fail_ratio"]
    order += [m["name"] for m in spec["per_layer"]]
    print(f"\n{'metric [unit]':40s}" + "".join(f"{n:>19s}" for n in table))
    for m in order:
        unit = next((row[m]["unit"] for row in table.values() if m in row), "")
        cells = "".join(
            f"{row[m]['value']:>19.6g}" if m in row else f"{'-':>19s}" for row in table.values()
        )
        print(f"{m + ' [' + unit + ']':40s}{cells}")
    print(f"\nwritten to {(OUT / 'summary.json').relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None or args.seconds < 1:
        parser.error("--seconds must be a positive whole number")
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
