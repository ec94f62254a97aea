"""Span tracing of the dyadicweights layers, installed from the benchmark.

The package itself carries no instrumentation.  `installed` patches the
public functions of each layer module under every module-level name bound
to them (the package imports by name, so `oscillation.omega_window` is a
binding of its own), and patches methods and properties on their classes.
Each wrapped call records a span: name, start, end and the span that was
open when it began.  Spans stay in memory; `write_spans` writes them out
once the traced calls are done.  Every original is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name).  A dotted attribute is a class member.
# Spans sharing a name form one group: `grid.geometry` covers the exact
# Fraction geometry whether it is reached through a method, a property or
# a module function.
LAYER_FUNCTIONS = (
    ("grid", "GridWindow.cubes", "grid.enum"),
    ("grid", "Cube.lower", "grid.geometry"),
    ("grid", "Cube.interval", "grid.geometry"),
    ("grid", "Cube.edge", "grid.geometry"),
    ("grid", "Cube.volume", "grid.geometry"),
    ("grid", "children", "grid.geometry"),
    ("grid", "cube_at", "grid.geometry"),
    ("weights", "Weight.mass", "weights.mass"),
    ("weights", "ap_constant", "weights.ap_constant"),
    ("funcspace", "omega_window", "funcspace.omega_window"),
    ("funcspace", "omega", "funcspace.omega"),
    ("funcspace", "TestFunction.value", "funcspace.value"),
    ("funcspace", "grad_power_mass", "funcspace.grad_power_mass"),
    ("oscillation", "oscillation_functional", "oscillation.functional"),
    ("oscillation", "verify_oscillation", "oscillation.verify"),
    ("diffquot", "inner_integral", "diffquot.inner"),
    ("diffquot", "diffquot_functional", "diffquot.functional"),
    ("quadrature", "adaptive_quad", "quadrature.adaptive"),
    ("wavelet", "build_daubechies", "wavelet.system"),
    ("wavelet", "coefficients", "wavelet.coefficients"),
    ("experiments", "weight_classifier", "experiments.classifier"),
    ("cli", "load_config", "cli.config"),
    ("cli", "_apply_overrides", "cli.config"),
    ("cli", "build_function", "cli.config"),
    ("cli", "build_weight", "cli.config"),
    ("cli", "build_window", "cli.config"),
    ("cli", "write_csv", "cli.write"),
    ("cli", "write_summary", "cli.write"),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and work counters of one traced call."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.omega_keys: set = set()
        self.atom_keys: set = set()

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(i)

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)


# -- work counters, taken at the span boundaries ------------------------------


def _note_value(tr: Tracer, args, kwargs, out):
    tr.counts["value_points"] += np.size(args[1] if len(args) > 1 else kwargs["x"])


def _note_ap_constant(tr: Tracer, args, kwargs, out):
    tr.counts["ap_probes"] += len(args[2] if len(args) > 2 else kwargs["probes"])


def _note_omega_window(tr: Tracer, args, kwargs, out):
    f = repr(args[0])
    tr.counts["omega_values"] += len(out)
    tr.omega_keys.update((f, key) for key in out)


def _note_omega(tr: Tracer, args, kwargs, out):
    # values computed inside omega_window are counted from its result
    if tr.inside("funcspace.omega_window"):
        return
    from dyadicweights.funcspace import cube_key
    from dyadicweights.grid import Cube

    region = args[1] if len(args) > 1 else kwargs["region"]
    if isinstance(region, Cube):
        key = cube_key(region)
    else:
        key = tuple(float(x) for x in region)
    tr.counts["omega_values"] += 1
    tr.omega_keys.add((repr(args[0]), key))


def _note_coefficients(tr: Tracer, args, kwargs, out):
    atoms = out[0]
    dual_p = args[3] if len(args) > 3 else kwargs.get("dual_p", 1.0)
    f = repr(args[0])
    tr.counts["coefficient_atoms"] += len(atoms)
    tr.atom_keys.update((f, dual_p, a) for a in atoms)


NOTES = {
    "funcspace.value": _note_value,
    "weights.ap_constant": _note_ap_constant,
    "funcspace.omega_window": _note_omega_window,
    "funcspace.omega": _note_omega,
    "wavelet.coefficients": _note_coefficients,
}


# -- wrappers -----------------------------------------------------------------


def _wrap(tr: Tracer, name: str, fn):
    note = NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tr.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.end(i)
        if note is not None:
            note(tr, args, kwargs, out)
        return out

    return traced


def _wrap_cubes(tr: Tracer, name: str, fn):
    """Enumeration stays lazy: one span per cube drawn from the generator."""

    @functools.wraps(fn)
    def traced(window):
        cubes = fn(window)
        while True:
            i = tr.begin(name)
            try:
                q = next(cubes)
            except StopIteration:
                return
            finally:
                tr.end(i)
            tr.counts["cubes_enumerated"] += 1
            yield q

    return traced


def _wrap_quad(tr: Tracer, name: str, fn):
    """The integrand passed in gets a span of its own, so the quadrature's
    self time excludes the integrand's work."""
    from dyadicweights.quadrature import QuadratureBudgetError

    @functools.wraps(fn)
    def traced(f, *args, **kwargs):
        def integrand(x):
            tr.counts["integrand_points"] += np.size(x)
            return tr.call("integrand", f, x)

        i = tr.begin(name)
        try:
            return fn(integrand, *args, **kwargs)
        except QuadratureBudgetError:
            tr.counts["budget_errors"] += 1
            raise
        finally:
            tr.end(i)

    return traced


WRAPPERS = {"grid.enum": _wrap_cubes, "quadrature.adaptive": _wrap_quad}


def _package_modules():
    return [
        m
        for n, m in sorted(sys.modules.items())
        if n == "dyadicweights" or n.startswith("dyadicweights.")
    ]


@contextlib.contextmanager
def installed(tr: Tracer):
    """Route every layer function through `tr` for the duration."""
    modules = _package_modules()
    patches = []
    try:
        for module, attr, name in LAYER_FUNCTIONS:
            wrap = WRAPPERS.get(name, _wrap)
            owner = sys.modules["dyadicweights." + module]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[member]
                if isinstance(orig, property):
                    new = property(wrap(tr, name, orig.fget))
                else:
                    new = wrap(tr, name, orig)
                patches.append((cls, member, orig))
                setattr(cls, member, new)
                continue
            orig = getattr(owner, attr)
            new = wrap(tr, name, orig)
            for m in modules:
                for binding in [k for k, v in vars(m).items() if v is orig]:
                    patches.append((m, binding, orig))
                    setattr(m, binding, new)
        yield tr
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


# -- per-layer metrics ----------------------------------------------------------


def span_times(tr: Tracer):
    """Per span name: calls, inclusive time and self time.

    Inclusive time counts a span only when its parent belongs to another
    group; same-group nesting is always direct here (Cube.interval calls
    Cube.lower and Cube.edge), so this never counts an interval twice.  Self
    time is a span's duration minus the durations of its child spans.
    """
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tr.parents):
        if p >= 0:
            child[p] += dur[i]
    calls, incl, self_t = Counter(), Counter(), Counter()
    for i, name in enumerate(tr.names):
        p = tr.parents[i]
        calls[name] += 1
        if p < 0 or tr.names[p] != name:
            incl[name] += dur[i]
        self_t[name] += dur[i] - child[i]
    return calls, incl, self_t


def _ratio(useful: int, attempted: int) -> float:
    # a layer that computed nothing wasted nothing
    return useful / attempted if attempted else 1.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    calls, incl, self_t = span_times(tr)
    c = tr.counts
    return {
        "grid.cubes_enumerated": c["cubes_enumerated"],
        "grid.enum_s": incl["grid.enum"],
        "grid.geometry_calls": calls["grid.geometry"],
        "grid.geometry_s": incl["grid.geometry"],
        "funcspace.omega_window_calls": calls["funcspace.omega_window"],
        "funcspace.omega_window_s": incl["funcspace.omega_window"],
        "funcspace.omega_calls": calls["funcspace.omega"],
        "funcspace.omega_s": incl["funcspace.omega"],
        "funcspace.omega_useful_ratio": _ratio(len(tr.omega_keys), c["omega_values"]),
        "funcspace.value_calls": calls["funcspace.value"],
        "funcspace.value_points": c["value_points"],
        "funcspace.value_s": incl["funcspace.value"],
        "funcspace.grad_power_mass_s": incl["funcspace.grad_power_mass"],
        "weights.mass_calls": calls["weights.mass"],
        "weights.mass_s": incl["weights.mass"],
        "weights.ap_constant_s": incl["weights.ap_constant"],
        "weights.ap_probes": c["ap_probes"],
        "oscillation.functional_calls": calls["oscillation.functional"],
        "oscillation.functional_self_s": self_t["oscillation.functional"],
        "oscillation.verify_self_s": self_t["oscillation.verify"],
        "diffquot.inner_calls": calls["diffquot.inner"],
        "diffquot.inner_s": incl["diffquot.inner"],
        "diffquot.functional_calls": calls["diffquot.functional"],
        "diffquot.functional_self_s": self_t["diffquot.functional"],
        "quadrature.adaptive_calls": calls["quadrature.adaptive"],
        "quadrature.adaptive_self_s": self_t["quadrature.adaptive"],
        "quadrature.integrand_calls": calls["integrand"],
        "quadrature.integrand_points": c["integrand_points"],
        "quadrature.budget_errors": c["budget_errors"],
        "wavelet.system_s": incl["wavelet.system"],
        "wavelet.coefficient_atoms": c["coefficient_atoms"],
        "wavelet.coefficients_s": incl["wavelet.coefficients"],
        "wavelet.atom_useful_ratio": _ratio(len(tr.atom_keys), c["coefficient_atoms"]),
        "experiments.classifier_self_s": self_t["experiments.classifier"],
        "cli.config_s": incl["cli.config"],
        "cli.write_s": incl["cli.write"],
    }


def layer_shares(tr: Tracer) -> dict[str, float]:
    """Share of the traced call's wall time spent in each module's own code.

    `integrand` is the callers' integrand code outside other spans; the root
    span's self time is the runner code in cli outside the wrapped functions.
    """
    _, incl, self_t = span_times(tr)
    total = incl[ROOT_SPAN]
    shares = Counter()
    for name, t in self_t.items():
        shares[name.split(".")[0]] += t / total
    return dict(shares)


def write_spans(path, tracers) -> None:
    """One line per span: iteration, id, parent id, name, start and end in
    seconds from the iteration's first span."""
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write("iteration\tspan\tparent\tname\tstart_s\tend_s\n")
        for it, tr in enumerate(tracers):
            t0 = tr.starts[0] if tr.names else 0.0
            fh.writelines(
                f"{it}\t{i}\t{p}\t{name}\t{s - t0:.9f}\t{e - t0:.9f}\n"
                for i, (name, p, s, e) in enumerate(
                    zip(tr.names, tr.parents, tr.starts, tr.ends)
                )
            )
