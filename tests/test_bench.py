"""The benchmark under bench/ patches package functions by (module,
attribute) and calls the command-line loaders by name; every such name must
keep resolving, since the benchmark files are not edited with the package."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

BENCH = Path(__file__).parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_resolve_and_restore():
    tracing = _load_tracing()
    originals = []
    for module, attr, _ in tracing.LAYER_FUNCTIONS:
        owner = importlib.import_module("dyadicweights." + module)
        if "." in attr:
            cls_name, member = attr.split(".")
            owner = getattr(owner, cls_name)
            assert member in vars(owner), (module, attr)
            originals.append((owner, member, vars(owner)[member]))
        else:
            assert callable(getattr(owner, attr)), (module, attr)
            originals.append((owner, attr, getattr(owner, attr)))
    with tracing.installed(tracing.Tracer()):
        for owner, attr, orig in originals:
            assert vars(owner)[attr] is not orig
    for owner, attr, orig in originals:
        assert vars(owner)[attr] is orig


def test_bench_runner_names_exist():
    from dyadicweights import cli, funcspace, wavelet

    for fn in (
        funcspace.omega_bruteforce,
        funcspace.omega_window,
        funcspace.cube_key,
        cli.main,
        cli.load_config,
        cli._apply_overrides,
        cli.build_function,
        cli.build_weight,
        cli.build_window,
        wavelet.coefficients,
    ):
        assert callable(fn)
    # the trace counts the atoms in out[0] of every coefficients call
    atoms, vals = wavelet.coefficients(
        funcspace.catalog("tent"),
        wavelet.build_daubechies(2, depth=8),
        wavelet.IndexSet(j_max=1, lo=-1.0, hi=1.0),
    )
    assert all(isinstance(a, wavelet.AtomIndex) for a in atoms)
    assert isinstance(vals, np.ndarray) and len(vals) == len(atoms) > 0


def test_omega_window_is_the_dict_view_of_omega_boxes():
    # bench/run.py reads omega by cube_key from omega_window, while the
    # package reads the array of omega_boxes in the row order of the window
    from fractions import Fraction

    from dyadicweights import funcspace
    from dyadicweights.grid import GridWindow, all_shifts, window_1d

    box = ((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(1)))
    tent, linear = funcspace.catalog("tent"), funcspace.catalog("linear", slope=1.0)
    cases = (
        (tent, window_1d(-2, 2, -3, 1, shifts=all_shifts(1))),
        (funcspace.TensorFunction([tent, linear]), GridWindow(box, 0, 0, tuple(all_shifts(2)[:2]))),
    )
    for f, w in cases:
        got = funcspace.omega_window(f, w)
        assert isinstance(got, dict)
        assert list(got) == [funcspace.cube_key(q) for q in w.cubes()]
        want = funcspace.omega_boxes(f, w.arrays.lo, w.arrays.hi)
        assert np.array(list(got.values())).tobytes() == want.tobytes()
        assert max(got.values()) > 0
