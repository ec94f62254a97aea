"""Catalog functions, oscillation integrals, and weighted gradient norms."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dyadicweights import funcspace
from dyadicweights.cli import build_window, load_config
from dyadicweights.funcspace import (
    Piece,
    Quadrature,
    catalog,
    grad_power_mass,
    grad_power_masses,
    mean_abs,
    omega,
    omega_boxes,
    omega_bruteforce,
    sobolev_seminorm,
    tensor_tent,
    weighted_lp_mass,
)
from dyadicweights.grid import Shift, axis_interval, float_box, window_1d
from dyadicweights.quadrature import adaptive_quad
from dyadicweights.weights import ConstantWeight, PowerWeight, TableWeight
from oracles import catalog_names, double_integral_piecewise, omega_indicator
from oracles import prim_offsets, primitive


def test_catalog_names_exist():
    for name in (
        "constant",
        "linear",
        "linear_ramp",
        "tent",
        "smoothed_indicator",
        "sharp1_bump",
        "sharp2_fdelta",
        "sharp3_fbeta",
    ):
        assert name in catalog_names()


def test_catalog_param_validation():
    with pytest.raises(ValueError):
        catalog("sharp2_fdelta", delta=1.5)
    with pytest.raises(ValueError):
        catalog("sharp3_fbeta", beta=5.0, p=2.0)
    with pytest.raises(ValueError):
        catalog("smoothed_indicator", width=-1.0)


def test_test_function_rejects_empty_pieces_and_unknown_kinds():
    inf = math.inf
    for bad in (Piece(0.0, 0.0, "poly", (1.0,)), Piece(0.0, -0.5, "poly", (1.0,))):
        with pytest.raises(ValueError, match="empty"):
            funcspace.TestFunction(
                [Piece(-inf, 0.0, "poly", (0.0,)), bad, Piece(0.0, inf, "poly", (0.0,))]
            )
    with pytest.raises(ValueError, match="kind"):
        funcspace.TestFunction([Piece(-inf, inf, "spline", (0.0,))])


def test_sharp1_bump_squeeze():
    f = catalog("sharp1_bump")
    xs = np.linspace(-2, 3, 2001)
    v = f.value(xs)
    ind_inner = ((xs >= 0) & (xs <= 1)).astype(float)
    ind_outer = ((xs > -1) & (xs < 2)).astype(float)
    assert np.all(v >= ind_inner - 1e-12)
    assert np.all(v <= ind_outer + 1e-12)
    assert np.all(np.abs(v[(xs >= 0) & (xs <= 1)] - 1.0) < 1e-12)


def test_sharp2_fdelta_values():
    f = catalog("sharp2_fdelta", delta=0.5)
    assert f.value(np.array([1.0]))[0] == pytest.approx(2.0, rel=1e-14)
    assert f.value(np.array([-3.0]))[0] == 0.0
    assert f.value(np.array([9.0]))[0] == pytest.approx(2.0, rel=1e-14)


def test_linear_ramp_gradient_support():
    f = catalog("linear_ramp", slope=1.0, cutoff=10.0)
    assert f.grad(np.array([3.0]))[0] == 1.0
    assert f.grad(np.array([11.0]))[0] == 0.0
    assert f.value(np.array([12.0]))[0] == 10.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    fns = [
        catalog("tent"),
        catalog("smoothed_indicator", width=0.25),
        catalog("sharp2_fdelta", delta=0.5),
        catalog("linear_ramp", slope=2.0, cutoff=3.0),
    ]
    for f in fns:
        for _ in range(40):
            x = float(rng.uniform(-3, 3))
            # stay away from kinks so the classical derivative exists
            if any(abs(x - b) < 1e-2 for b in f.breakpoints):
                continue
            h = 1e-5
            fd = (f.value(np.array([x + h]))[0] - f.value(np.array([x - h]))[0]) / (
                2 * h
            )
            g = f.grad(np.array([x]))[0]
            assert abs(fd - g) < 5e-7 * max(1.0, abs(g)) + 1e-8


def test_constant_outside_gradient_support():
    rng = np.random.default_rng(2)
    for f in (catalog("tent"), catalog("sharp1_bump"), catalog("sharp2_fdelta", delta=0.3)):
        r = f.grad_radius
        left = f.value(rng.uniform(-r - 50, -r - 1, size=50))
        right = f.value(rng.uniform(r + 1, r + 50, size=50))
        assert np.ptp(left) == 0.0
        assert np.ptp(right) == 0.0


def test_omega_constant_zero():
    f = catalog("constant", c=3.0)
    assert omega(f, (0.0, 1.0)) == 0.0


def test_omega_linear_closed_form():
    # omega of slope-s linear over a length-h interval is |s| h / 3
    f = catalog("linear", slope=2.0)
    for a, h in ((0.0, 1.0), (-3.0, 0.5), (1.7, 4.0)):
        assert omega(f, (a, a + h)) == pytest.approx(2.0 * h / 3.0, rel=1e-12)


def test_omega_indicator_closed_form():
    f = catalog("indicator", a=0.0, b=0.5)
    got = omega(f, (0.0, 1.0))
    assert got == pytest.approx(0.5, rel=1e-12)
    assert omega_indicator((0.0, 1.0), 0.0, 0.5) == pytest.approx(0.5, rel=1e-15)


def test_omega_monotone_path_matches_linear_path():
    f = catalog("linear", slope=1.0)  # monotone and piecewise linear
    a, b = -0.7, 2.1
    lin = omega(f, (a, b))
    # the monotone-parts oracle
    mono = double_integral_piecewise(f, a, b) / (b - a) ** 2
    assert mono == pytest.approx(lin, rel=1e-12)


def test_omega_exact_vs_bruteforce_catalog():
    rng = np.random.default_rng(3)
    fns = [
        catalog("tent"),
        catalog("linear_ramp", slope=1.0, cutoff=2.0),
        catalog("sharp2_fdelta", delta=0.5),
        catalog("indicator", a=0.0, b=1.0),
    ]
    for f in fns:
        for _ in range(12):
            a = float(rng.uniform(-3, 2))
            b = a + float(rng.uniform(0.2, 3))
            ex = omega(f, (a, b))
            bf = omega_bruteforce(f, (a, b), nodes=3000)
            assert bf == pytest.approx(ex, rel=2e-6, abs=1e-12)


def test_omega_sampled_vs_bruteforce_smooth():
    f = catalog("smoothed_indicator", width=0.5)
    for (a, b) in ((-1.0, 2.0), (-0.3, 0.4), (0.2, 1.9)):
        box = float_box((a, b))
        smp, ok = funcspace._omega_sampled(f, box, Quadrature(rel_tol=1e-9))
        assert ok
        bf = omega_bruteforce(f, (a, b), nodes=4000)
        assert smp == pytest.approx(bf, rel=3e-6, abs=1e-12)


def test_omega_gradient_bound():
    # omega_Q(f) <= sqrt(n) * integral over Q of |grad f|
    rng = np.random.default_rng(4)
    fns = [
        catalog("tent"),
        catalog("smoothed_indicator", width=0.25),
        catalog("sharp2_fdelta", delta=0.4),
        catalog("linear_ramp", slope=3.0, cutoff=1.0),
    ]
    for f in fns:
        for _ in range(25):
            a = float(rng.uniform(-2, 2))
            b = a + float(rng.uniform(0.1, 3))
            om = omega(f, (a, b))
            gm = grad_power_mass(f, a, b, 1.0, ConstantWeight(1.0))
            assert om <= gm + 1e-6 * max(1.0, gm)


def test_omega_2d_tensor_tent_vs_bruteforce():
    f = tensor_tent()
    box = ((0.0, 2.0), (0.0, 2.0))
    val, ok = funcspace._omega_sampled(
        f, float_box(box), Quadrature(rel_tol=1e-5, max_nodes=1 << 16)
    )
    bf = omega_bruteforce(f, box, nodes=120**2)
    assert val == pytest.approx(bf, rel=5e-4)


def test_omega_boxes_on_a_window_is_omega_per_cube():
    w = window_1d(-2, 2, -3, 1, shifts=[Shift((0,)), Shift((1,))])
    arr = w.arrays
    cubes = list(w.cubes())
    smooth = catalog("smoothed_indicator", width=0.5)
    # one omega call per cube, bit for bit, in the row order of the arrays
    for f in (catalog("tent"), smooth, catalog("sharp1_bump")):
        got = omega_boxes(f, arr.lo, arr.hi)
        assert got.tolist() == [omega(f, q) for q in cubes]
    # spot check the nonlinear pieces against per-cube brute force
    got = omega_boxes(smooth, arr.lo, arr.hi)
    rng = np.random.default_rng(5)
    for i in rng.choice(len(cubes), size=12, replace=False):
        bf = omega_bruteforce(smooth, cubes[i], nodes=2500)
        assert got[i] == pytest.approx(bf, rel=1e-6, abs=1e-12)


def test_omega_exact_on_breakpoint_cubes_of_a1_window():
    cfg = load_config(str(Path(__file__).parents[1] / "configs" / "a1_battery.cfg"))
    window = build_window(cfg)
    for f in (catalog("smoothed_indicator"), catalog("sharp1_bump")):
        bps = [Fraction(b) for b in f.breakpoints]
        straddling = [
            q for q in window.cubes()
            if any(q.interval()[0] < b < q.interval()[1] for b in bps)
        ]
        assert len(straddling) > 60
        for q in straddling:
            assert omega(f, q) == pytest.approx(omega_bruteforce(f, q), rel=1e-7)


def test_omega_splits_polynomial_pieces_at_interior_extrema():
    inf = math.inf
    # x^3 - x turns at -1/sqrt(3) and 1/sqrt(3), inside one piece
    cubic = funcspace.TestFunction(
        [
            Piece(-inf, -1.5, "poly", (-1.875,)),
            Piece(-1.5, 1.5, "poly", (0.0, -1.0, 0.0, 1.0)),
            Piece(1.5, inf, "poly", (1.875,)),
        ]
    )
    parabola = funcspace.TestFunction([Piece(-inf, inf, "poly", (0.0, 0.0, 1.0))])
    for f, a, b in (
        (cubic, -1.2, 1.3),
        (cubic, -0.9, 0.2),
        (cubic, -2.0, 2.5),
        (parabola, -1.0, 0.5),
        (parabola, -0.3, 2.0),
    ):
        want = omega_bruteforce(f, (a, b), nodes=4000)
        assert omega(f, (a, b)) == pytest.approx(want, rel=1e-6)


def test_sobolev_seminorm_linear_unit():
    f = catalog("linear", slope=1.0)
    w = ConstantWeight(1.0)
    assert sobolev_seminorm(f, w, 1.0, (0.0, 1.0)) == pytest.approx(1.0, rel=1e-14)


def test_sobolev_seminorm_fdelta_exact():
    # |f'|^p with the matched power weight integrates to 1/delta exactly
    for delta in (0.5, 0.25, 0.03125):
        p = 2.0
        f = catalog("sharp2_fdelta", delta=delta)
        w = PowerWeight((p - 1) * (1 - delta))
        val = grad_power_mass(f, -5.0, 5.0, p, w)
        assert val == pytest.approx(1.0 / delta, rel=1e-12)


def test_sobolev_seminorm_tent_l2():
    f = catalog("tent")
    w = ConstantWeight(1.0)
    assert sobolev_seminorm(f, w, 2.0, (-1.0, 3.0)) == pytest.approx(
        math.sqrt(2.0), rel=1e-12
    )


@pytest.mark.parametrize(
    "w",
    [ConstantWeight(2.0), PowerWeight(-0.5, center=0.25), PowerWeight(0.5), TableWeight([-4, 0.1, 4], [2, 0.5, 2])],
    ids=["constant", "power-offcentre", "power", "table"],
)
def test_grad_power_masses_are_each_probe_alone(w):
    # linear, cubic and power pieces, probes that miss every piece, and
    # the same f twice: one masses call, each norm bit for bit its own
    probes = [
        (catalog("tent"), -2.0, 3.0),
        (catalog("sharp2_fdelta", delta=0.5), 0.0, 1.0),
        (catalog("smoothed_indicator"), -1.0, 2.0),
        (catalog("linear_ramp", slope=4.0, cutoff=0.125, center=0.25), 0.0, 0.5),
        (catalog("constant"), -1.0, 1.0),
        (catalog("tent"), 5.0, 6.0),
        (catalog("tent"), -0.5, 0.5),
    ]
    got = grad_power_masses(probes, 1.5, w)
    want = [grad_power_mass(f, lo, hi, 1.5, w) for f, lo, hi in probes]
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got[0] > 0 and got[4] == 0.0 and got[5] == 0.0
    assert grad_power_masses([], 1.5, w) == []


def test_grad_power_mass_power_weight_offcenter_quadrature():
    f = catalog("sharp2_fdelta", delta=0.5)
    w = PowerWeight(-0.5, center=0.25)
    got = grad_power_mass(f, 0.0, 1.0, 1.0, w)
    # oracle via dense quadrature of |f'| w
    from dyadicweights.quadrature import adaptive_quad

    want = adaptive_quad(
        lambda x: np.abs(f.grad(x)) * w.value(x),
        1e-12,
        1.0,
        breakpoints=(0.25,),
        rel_tol=1e-10,
    )
    assert got == pytest.approx(want, rel=1e-6)


def test_l1_weighted_norm_tent():
    f = catalog("tent")
    w = ConstantWeight(2.0)
    assert weighted_lp_mass(f, w, 1.0, -1.0, 3.0) == pytest.approx(2.0, rel=1e-10)


def _substituted_l1_mass(f, a: float, c: float, lo: float, hi: float) -> float:
    """Integral of |f| |x - c|^a over [lo, hi] by mpmath quadrature, part by
    part between f's breakpoints, f's zeros and c, each part in the variable
    y = |x - c|^(a + 1), which takes the weight's singularity out of the
    integrand: dx |x - c|^a = dy / (a + 1)."""
    import mpmath

    cuts = {lo, hi, c, *f.breakpoints}
    for piece in f.pieces:
        s, b = piece.line()
        if s:
            cuts.add(-b / s)
    cuts = sorted(x for x in cuts if lo <= x <= hi)
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        m = 1 / (mpmath.mpf(a) + 1)
        for u, v in zip(cuts, cuts[1:]):
            s, b = f.pieces[int(np.searchsorted(f._edges, 0.5 * (u + v), side="right"))].line()
            side = 1 if u >= c else -1
            y0, y1 = sorted(abs(mpmath.mpf(x) - c) ** (a + 1) for x in (u, v))

            def g(y, s=s, b=b, side=side):
                return abs(s * (c + side * y**m) + b)

            total += mpmath.quad(g, [y0, y1]) * m
    return float(total)


@pytest.mark.parametrize("name", ["tent", "linear_ramp", "indicator"])
def test_weighted_l1_mass_closed_form_against_substituted_quadrature(name, monkeypatch):
    f = catalog(name)

    def refuse(*args, **kwargs):
        raise AssertionError("the linear L1 mass took the quadrature path")

    monkeypatch.setattr(funcspace, "adaptive_quad", refuse)
    for a in (-0.5, -0.75, 0.5):
        # the last two centres lie farther from every part than its length
        for c in (0.0, 3 / 16, -0.25, 0.7, 50.0, -5000.0):
            for lo, hi in ((-8.0, 10.0), (0.1, 0.9)):
                got = weighted_lp_mass(f, PowerWeight(a, c), 1.0, lo, hi)
                want = _substituted_l1_mass(f, a, c, lo, hi)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (a, c, lo, hi)
    got = weighted_lp_mass(f, ConstantWeight(2.5), 1.0, -8.0, 10.0)
    assert got == pytest.approx(2.5 * _substituted_l1_mass(f, 0.0, 0.0, -8.0, 10.0), rel=1e-13)


def test_weighted_lp_mass_keeps_the_quadrature_off_the_closed_form(monkeypatch):
    calls = []
    quad = funcspace.adaptive_quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(funcspace, "adaptive_quad", counted)
    w = PowerWeight(-0.5, 0.25)
    # p = 2, a cubic-edged f, and a weight with breakpoints of its own
    weighted_lp_mass(catalog("tent"), w, 2.0, -2.0, 2.0)
    weighted_lp_mass(catalog("smoothed_indicator"), w, 1.0, -2.0, 2.0)
    weighted_lp_mass(catalog("tent"), TableWeight([-1.0, 0.0, 1.0], [1.0, 2.0, 1.0]), 1.0, -2.0, 2.0)
    assert len(calls) == 3


def test_mean_abs_indicator():
    f = catalog("indicator", a=0.0, b=1.0)
    got = mean_abs(f, [-1.0, 0.0], [3.0, 0.5])
    assert got == pytest.approx([0.25, 1.0], rel=1e-13)


def test_mean_abs_sign_changing_segment():
    # f(x) = x on [-1, 3]: one linear segment crossing zero at 0
    f = catalog("linear_ramp")
    assert mean_abs(f, [-1.0], [3.0])[0] == pytest.approx(1.25, rel=1e-15)


def test_mean_abs_nonlinear_piece_against_primitive():
    # smoothed_indicator is >= 0 with cubic edges, so |f| = f and the mean
    # is the difference of the exact primitive
    f = catalog("smoothed_indicator")
    for lo, hi in ((-0.5, 1.7), (-0.2, 0.1), (0.9, 1.3)):
        prim = primitive(f, np.array([lo, hi]))
        want = (prim[1] - prim[0]) / (hi - lo)
        assert mean_abs(f, [lo], [hi])[0] == pytest.approx(want, rel=1e-10)


def test_primitive_continuity():
    for f in (
        catalog("tent"),
        catalog("sharp2_fdelta", delta=0.5),
        catalog("smoothed_indicator", width=0.3),
    ):
        for b in f.breakpoints:
            left = primitive(f, np.array([b - 1e-9]))[0]
            right = primitive(f, np.array([b + 1e-9]))[0]
            assert abs(left - right) < 1e-7


def test_primitive_matches_quadrature():
    from dyadicweights.quadrature import adaptive_quad

    f = catalog("smoothed_indicator", width=0.4)
    for (a, b) in ((-2.0, 0.3), (0.1, 2.2)):
        got = primitive(f, np.array([b]))[0] - primitive(f, np.array([a]))[0]
        want = adaptive_quad(f.value, a, b, breakpoints=f.breakpoints)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# the piece table of TestFunction against the pieces one at a time
# ---------------------------------------------------------------------------

CATALOG_PARAMS = {
    "sharp2_fdelta": {"delta": 0.3},
    "sharp3_fbeta": {"beta": 0.5, "p": 1.5},
}


def _one_d_catalog():
    """Every catalog function on the line; a tensor one by its factors."""
    for name in catalog_names():
        f = catalog(name, **CATALOG_PARAMS.get(name, {}))
        yield from getattr(f, "factors", [f])


def _per_piece(f, method: str, x: float) -> float:
    # the piece whose half-open [x0, x1) holds x
    i = next(k for k, p in enumerate(f.pieces) if p.x0 <= x < p.x1)
    p = f.pieces[i]
    if method == "value":
        return p.eval(np.array([x]))[0]
    if method == "grad":
        return p.deriv(np.array([x]))[0]
    return p.prim(np.array([x]))[0] + prim_offsets(f)[i]


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("method", ["value", "grad", "primitive"])
def test_piece_table_bit_for_bit_with_pieces(method):
    rng = np.random.default_rng(12)
    fns = list(_one_d_catalog())
    assert any(p.kind == "power" for f in fns for p in f.pieces)
    for f in fns:
        bps = np.array(f.breakpoints)
        xs = np.concatenate(
            [
                rng.uniform(-4.0, 4.0, 300),
                bps,
                np.nextafter(bps, -np.inf),
                np.nextafter(bps, np.inf),
                [0.0, 1.0, -2.5],
            ]
        )
        want = np.array([_per_piece(f, method, x) for x in xs])
        fn = (lambda x, f=f: primitive(f, x)) if method == "primitive" else getattr(f, method)
        got = fn(xs)
        assert type(got) is np.ndarray and got.shape == xs.shape
        assert np.array_equal(_bits(got), _bits(want)), (f.name, method)
        # a 2-d batch is the 1-d batch reshaped
        grid = fn(xs[:300].reshape(20, 15))
        assert grid.shape == (20, 15)
        assert np.array_equal(_bits(grid.ravel()), _bits(want[:300]))
        # a Python float and a 0-d array both give a NumPy scalar
        for x, w in zip(xs[-6:], want[-6:]):
            for arg in (float(x), np.array(x)):
                got1 = fn(arg)
                assert type(got1) is np.float64
                assert _bits(got1) == _bits(w), (f.name, method, x)


@pytest.mark.parametrize(
    "f, value, grad, prim",
    [
        (catalog("constant", c=1.0), (1.0, 1.0), (0.0, 0.0), (-math.inf, math.inf)),
        (catalog("tent"), (0.0, 0.0), (0.0, 0.0), (0.0, 1.0)),
        (
            catalog("linear_ramp", slope=1.0, cutoff=10.0),
            (-10.0, 10.0),
            (0.0, 0.0),
            (math.inf, math.inf),
        ),
    ],
    ids=["constant", "tent", "linear_ramp"],
)
def test_piece_table_at_infinity(f, value, grad, prim):
    xs = np.array([-math.inf, 0.3, math.inf, -2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, fn, want in (
            ("value", f.value, value),
            ("grad", f.grad, grad),
            ("primitive", lambda x: primitive(f, x), prim),
        ):
            got = fn(xs)
            assert (got[0], got[2]) == want, (f.name, name)
            # the finite points keep their bits
            assert np.array_equal(_bits(got[[1, 3]]), _bits(fn(xs[[1, 3]])))
            assert (fn(-math.inf), fn(math.inf)) == want


# ---------------------------------------------------------------------------
# the sorted pair sum of the brute-force oracle
# ---------------------------------------------------------------------------


def _direct_double_sum(v: np.ndarray, wts: np.ndarray) -> float:
    """sum over i, j of wts_i |v_i - v_j| wts_j, by direct O(N^2) summation."""
    return float(np.sum(wts[:, None] * np.abs(v[:, None] - v[None, :]) * wts[None, :]))


def test_sorted_pair_sum_matches_direct_double_sum():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 100, 500):
        v = rng.normal(size=n)
        w = rng.uniform(0.1, 1.0, size=n)
        v[: n // 3] = v[0]  # ties
        want = _direct_double_sum(v, w)
        got = funcspace._sorted_pair_sum(v, w)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
    # the values of a catalog function on aligned cells, as the oracle uses
    f = catalog("sharp2_fdelta", delta=0.3)
    xs, wts = funcspace._aligned_cells(f, -0.5, 1.7, 400)
    assert len(xs) <= 500
    v = f.value(xs)
    assert funcspace._sorted_pair_sum(v, wts) == pytest.approx(
        _direct_double_sum(v, wts), rel=1e-12
    )


# ---------------------------------------------------------------------------
# many intervals in one array pass over the segment table, against the
# frozen scalar closed forms: one Python float step at a time per interval
# ---------------------------------------------------------------------------


def _ref_segments(f, a: float, b: float):
    """Linear segments (x0, x1, slope, intercept) of f covering [a, b], or
    None where [a, b] meets a piece that is not linear."""
    out = []
    for p in f.pieces:
        lo, hi = max(a, p.x0), min(b, p.x1)
        if hi <= lo:
            continue
        s, c = p.line()
        if math.isnan(s):
            return None
        out.append((lo, hi, s, c))
    return out


def _ref_abs_moment(z: float, t0: float, t1: float) -> float:
    """Integral of |z - t| dt over [t0, t1] (t0 <= t1)."""
    if z <= t0:
        return 0.5 * (t1 * t1 - t0 * t0) - z * (t1 - t0)
    if z >= t1:
        return z * (t1 - t0) - 0.5 * (t1 * t1 - t0 * t0)
    return 0.5 * ((z - t0) ** 2 + (t1 - z) ** 2)


def _ref_abs_moment_int(u0: float, u1: float, t0: float, t1: float) -> float:
    """Integral over u in [u0, u1] of (integral of |u - t| dt over [t0, t1])."""
    total = 0.0
    cuts = [u0, min(max(t0, u0), u1), min(max(t1, u0), u1), u1]
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        if mid <= t0:
            A = 0.5 * (t1 * t1 - t0 * t0)
            B = t1 - t0
            total += A * (b - a) - 0.5 * B * (b * b - a * a)
        elif mid >= t1:
            A = 0.5 * (t1 * t1 - t0 * t0)
            B = t1 - t0
            total += 0.5 * B * (b * b - a * a) - A * (b - a)
        else:
            total += ((b - t0) ** 3 - (a - t0) ** 3) / 6.0 + (
                (t1 - a) ** 3 - (t1 - b) ** 3
            ) / 6.0
    return total


def _ref_pair_integral(seg1, seg2) -> float:
    """Exact Int_{S1} Int_{S2} |f(x) - g(y)| dy dx for affine f, g."""
    a1, b1, s1, c1 = seg1
    a2, b2, s2, c2 = seg2
    L1, L2 = b1 - a1, b2 - a2
    if s1 == 0.0 and s2 == 0.0:
        return L1 * L2 * abs(c1 - c2)
    if s2 == 0.0:
        u0, u1 = sorted((s1 * a1 + c1, s1 * b1 + c1))
        return L2 * _ref_abs_moment(c2, u0, u1) / abs(s1)
    if s1 == 0.0:
        t0, t1 = sorted((s2 * a2 + c2, s2 * b2 + c2))
        return L1 * _ref_abs_moment(c1, t0, t1) / abs(s2)
    u0, u1 = sorted((s1 * a1 + c1, s1 * b1 + c1))
    t0, t1 = sorted((s2 * a2 + c2, s2 * b2 + c2))
    return _ref_abs_moment_int(u0, u1, t0, t1) / (abs(s1) * abs(s2))


def _ref_omega(f, a: float, b: float) -> float:
    """omega on [a, b]: the closed form over pairs of linear segments where
    f is piecewise linear there, else the monotone parts."""
    segs = _ref_segments(f, a, b)
    if segs is None:
        total = double_integral_piecewise(f, a, b)
    else:
        total = 0.0
        for s1 in segs:
            for s2 in segs:
                total += _ref_pair_integral(s1, s2)
    return total / (b - a) ** 2


def _ref_mean_abs(f, lo: float, hi: float) -> float:
    """Mean of |f| on [lo, hi]: exact per linear segment, else quadrature."""
    segs = _ref_segments(f, lo, hi)
    if segs is None:
        bps = list(f.breakpoints)
        return adaptive_quad(lambda x: np.abs(f.value(x)), lo, hi, breakpoints=bps) / (
            hi - lo
        )
    total = 0.0
    for a, b, s, c in segs:
        v0, v1 = s * a + c, s * b + c
        if v0 >= 0 and v1 >= 0:
            total += 0.5 * (v0 + v1) * (b - a)
        elif v0 <= 0 and v1 <= 0:
            total += -0.5 * (v0 + v1) * (b - a)
        else:
            z = -c / s
            total += 0.5 * abs(v0) * (z - a) + 0.5 * abs(v1) * (b - z)
    return total / (hi - lo)


def _assert_bit_for_bit(fn, ref, f, lo, hi):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    got = fn(f, lo, hi)
    want = [ref(f, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    assert np.array_equal(_bits(got), _bits(want)), f


def _random_lines(rng, edges):
    """Linear pieces between the edges with non-dyadic slopes and
    intercepts, each intercept the piece's value at its anchor; the slopes
    alternate in sign and the last but one is 0."""
    inf = math.inf
    ends = [-inf, *edges, inf]
    n = len(ends) - 1
    slopes = rng.uniform(0.1, 3.0, n) * (-1.0) ** np.arange(n)
    slopes[-2] = 0.0
    cuts = rng.uniform(-2.0, 2.0, n)
    pieces = [
        Piece(x0, x1, "poly", (float(c), float(s)))
        for x0, x1, s, c in zip(ends, ends[1:], slopes, cuts)
    ]
    return funcspace.TestFunction(pieces)


def _pieces_met(f, lo, hi) -> tuple[list[int], int]:
    """The segment counts of the table's groups, and how many intervals
    meet a piece that is not linear."""
    groups, other = funcspace._segment_table(f, np.asarray(lo), np.asarray(hi))
    return [seg.shape[2] for _, seg in groups], len(other)


def _inside_linear_pieces():
    rng = np.random.default_rng(31)
    edges = [-1.3, 0.7, 2.9]
    for _ in range(4):
        f = _random_lines(rng, edges)
        ends = [-6.0, *edges, 7.0]
        lo, hi = [], []
        for x0, x1 in zip(ends, ends[1:]):
            a = rng.uniform(x0, x1, 400)
            b = a + (x1 - a) * rng.uniform(1e-9, 1.0, 400)
            lo += a.tolist()
            hi += b.tolist()
        assert _pieces_met(f, lo, hi) == ([1], 0)
        assert np.any(f._lines[2] < 0) and np.any(f._lines[2] == 0)
        yield f, lo, hi


def _degenerate_branches():
    inf = math.inf
    rng = np.random.default_rng(32)
    # a tiny slope: both ends map to one value, u0 == u1
    tiny = funcspace.TestFunction([Piece(-inf, inf, "poly", (1.0, 1e-19))])
    a = rng.uniform(-1.0, 1.0, 200)
    lo, hi = a, a + 1e-3
    assert np.all(1e-19 * lo + 1.0 == 1e-19 * hi + 1.0)
    yield tiny, lo, hi
    # d of a few ulps beside a large intercept: the midpoint rounds onto an end
    big = funcspace.TestFunction([Piece(-inf, inf, "poly", (1e8 / 3.0, -1.0))])
    a = rng.uniform(-1.0, 1.0, 400)
    lo, hi = a, a + 2.0**-28 * rng.integers(1, 3, 400)
    u1, u0 = 1e8 / 3.0 - lo, 1e8 / 3.0 - hi
    mid = 0.5 * (u0 + u1)
    assert np.any((u0 < u1) & (mid <= u0)) and np.any((u0 < u1) & (mid >= u1))
    yield big, lo, hi


def _at_and_across_breakpoints():
    rng = np.random.default_rng(33)
    fns = [
        catalog("tent"),
        catalog("linear_ramp", slope=0.3, cutoff=2.7, center=0.1),
        _random_lines(rng, [-1.3, 0.7, 2.9]),
    ]
    for f in fns:
        bps = np.tile(f.breakpoints, 50)
        h = rng.uniform(0.01, 0.6, bps.size)
        for lo, hi in ((bps - h, bps), (bps, bps + h)):
            assert _pieces_met(f, lo, hi) == ([1], 0)
            yield f, lo, hi
        across = (bps - h, bps + 0.5 * h)
        assert _pieces_met(f, *across)[0] == [2]
        yield (f, *across)
        # every piece of f, from three to four segments
        span = (bps.min() - h, bps.max() + h)
        assert _pieces_met(f, *span)[0] == [len(f.pieces)]
        yield (f, *span)


def _on_nonlinear_pieces():
    rng = np.random.default_rng(34)
    for f in (
        catalog("smoothed_indicator", width=0.37),
        catalog("sharp2_fdelta", delta=0.3),
    ):
        lo = rng.uniform(-1.0, 2.0, 60)
        hi = lo + rng.uniform(0.01, 1.5, 60)
        groups, other = _pieces_met(f, lo, hi)
        assert groups and other
        yield f, lo, hi


def test_omega_intervals_bit_for_bit_inside_linear_pieces():
    for case in _inside_linear_pieces():
        _assert_bit_for_bit(funcspace.omega_intervals, _ref_omega, *case)


def test_omega_intervals_bit_for_bit_degenerate_branches():
    for case in _degenerate_branches():
        _assert_bit_for_bit(funcspace.omega_intervals, _ref_omega, *case)


def test_omega_intervals_bit_for_bit_at_and_across_breakpoints():
    for case in _at_and_across_breakpoints():
        _assert_bit_for_bit(funcspace.omega_intervals, _ref_omega, *case)


def test_omega_intervals_bit_for_bit_on_nonlinear_pieces():
    for case in _on_nonlinear_pieces():
        _assert_bit_for_bit(funcspace.omega_intervals, _ref_omega, *case)


@pytest.mark.parametrize(
    "cases",
    [
        _inside_linear_pieces,
        _degenerate_branches,
        _at_and_across_breakpoints,
        _on_nonlinear_pieces,
    ],
)
def test_mean_abs_bit_for_bit(cases):
    for case in cases():
        _assert_bit_for_bit(mean_abs, _ref_mean_abs, *case)


def test_one_batch_call_equals_one_call_per_interval():
    # a batch mixes every segment count and the nonlinear intervals; each
    # value must not depend on the other intervals of its call
    rng = np.random.default_rng(36)
    smooth = catalog("smoothed_indicator", width=0.37)
    fs = (catalog("tent"), smooth, _random_lines(rng, [-1.3, -0.2, 0.7, 1.1, 2.9]))
    lo = rng.uniform(-3.0, 3.0, (len(fs), 120))
    hi = lo + rng.uniform(1e-3, 5.0, (len(fs), 120))
    for f, a, b in zip(fs, lo, hi):
        counts, other = _pieces_met(f, a, b)
        assert other > 0 if f is smooth else len(set(counts)) >= 3
        for fn in (funcspace.omega_intervals, mean_abs):
            batch = fn(f, a, b)
            alone = [fn(f, [x], [y])[0] for x, y in zip(a.tolist(), b.tolist())]
            assert np.array_equal(_bits(batch), _bits(alone)), (f, fn.__name__)
    # every function's rows interleaved in one call over the per-row table
    of = np.arange(lo.size) % len(fs)
    rows = lo.T.ravel(), hi.T.ravel()
    stacked = funcspace.omega_intervals((fs, of), *rows)
    alone = np.array([funcspace.omega_intervals(f, a, b) for f, a, b in zip(fs, lo, hi)]).T.ravel()
    assert np.array_equal(_bits(stacked), _bits(alone))


def _a1_window():
    cfg = load_config(str(Path(__file__).parents[1] / "configs" / "a1_battery.cfg"))
    arr = build_window(cfg).arrays
    return arr.lo[:, 0], arr.hi[:, 0]


def _random_polys(rng, degrees, edges):
    """Polynomial pieces of the given degrees between the edges, with
    non-dyadic coefficients, and constant pieces outside."""
    inf = math.inf
    ends = [-inf, *edges, inf]
    data = [(0.4,), *(tuple(rng.uniform(-2.0, 2.0, d + 1)) for d in degrees), (-0.3,)]
    return funcspace.TestFunction(
        [Piece(x0, x1, "poly", c) for x0, x1, c in zip(ends, ends[1:], data)]
    )


def _monotone_pass_cases():
    lo, hi = _a1_window()
    for name, rows in (("smoothed_indicator", 137), ("sharp1_bump", 422)):
        f = catalog(name)
        other = _pieces_met(f, lo, hi)[1]
        assert other == rows
        yield f, lo, hi
    # the sharpness sweeps' intervals, which meet a power piece
    ap = [axis_interval(1, g, 0) for g in (3, 5, 7)]
    for d in (0.05, 0.3, 0.7):
        yield (catalog("sharp2_fdelta", delta=d), *zip(*ap))
    beta = [(-1.0 / 3.0, 2.0 / 3.0), axis_interval(1, -3, 0), axis_interval(1, -5, 0)]
    for p, eps in ((1.5, 0.05), (2.0, 0.3), (3.0, 0.6)):
        yield (catalog("sharp3_fbeta", beta=1.0 / p - 1.0 + eps, p=p), *zip(*beta))
    # cubic to quintic pieces, cut at their critical points
    rng = np.random.default_rng(37)
    for degrees in ((3, 4), (4, 3), (2, 5)):
        f = _random_polys(rng, degrees, [-1.1, 0.45, 1.7])
        lo = rng.uniform(-2.5, 2.5, 200)
        hi = lo + rng.uniform(1e-3, 3.0, 200)
        row, piece, _, _ = funcspace._part_table(f, lo, hi)
        assert row.size > np.unique(np.stack([row, piece]), axis=1).shape[1]
        yield f, lo, hi


def test_monotone_pass_matches_the_per_interval_oracle_bit_for_bit():
    # the one array pass over all intervals' monotone parts against the
    # oracle that takes one interval at a time
    for f, lo, hi in _monotone_pass_cases():
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        other = funcspace._segment_table(f, lo, hi)[1]
        assert other
        _assert_bit_for_bit(funcspace.omega_intervals, _ref_omega, f, lo[other], hi[other])


def test_nonlinear_omega_finds_roots_once_and_takes_one_quadrature_call(monkeypatch):
    # critical points are found once per polynomial piece of f, on first
    # use; after that the a1 window's omega calls no root finder, and one
    # quadrature driver call covers every pair of parts whose values overlap
    from dyadicweights import quadrature

    lo, hi = _a1_window()
    calls = {"polyroots": 0, "adaptive_quads": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    poly = np.polynomial.polynomial
    monkeypatch.setattr(poly, "polyroots", counted("polyroots", poly.polyroots))
    quads = counted("adaptive_quads", quadrature.adaptive_quads)
    monkeypatch.setattr(funcspace, "adaptive_quads", quads)
    monkeypatch.setattr(quadrature, "adaptive_quads", quads)
    for name, roots, solves in (("smoothed_indicator", 2, 1), ("tent", 0, 0)):
        f = catalog(name)
        for want in (roots, 0):
            calls.update(polyroots=0, adaptive_quads=0)
            funcspace.omega_intervals(f, lo, hi)
            assert calls == {"polyroots": want, "adaptive_quads": solves}, name


def test_segment_table_clips_pieces_to_each_interval():
    f = catalog("tent")  # pieces (-inf, 0), [0, 1), [1, 2), [2, inf)
    lo, hi = np.array([0.25, -1.0, -0.5, 1.0]), np.array([0.75, 0.5, 3.0, 2.0])
    groups, other = funcspace._segment_table(f, lo, hi)
    assert other == []
    table = {int(r): seg[:, i].T.tolist() for rows, seg in groups for i, r in enumerate(rows)}
    assert table == {
        0: [[0.25, 0.75, 1.0, 0.0]],
        1: [[-1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 1.0, 0.0]],
        2: [
            [-0.5, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 2.0, -1.0, 2.0],
            [2.0, 3.0, 0.0, 0.0],
        ],
        3: [[1.0, 2.0, -1.0, 2.0]],  # ends on breakpoints meet one piece
    }


def test_omega_intervals_refuses_empty_intervals():
    f = catalog("tent")
    for lo, hi in (([0.2, 0.5], [0.3, 0.5]), ([0.4], [0.3]), ([math.nan], [1.0])):
        for fn in (funcspace.omega_intervals, mean_abs):
            with pytest.raises(ValueError):
                fn(f, lo, hi)
    with pytest.raises(ValueError):
        omega(f, (1.5, 1.5))


def test_omega_intervals_split_on_the_a1_window():
    cfg = load_config(str(Path(__file__).parents[1] / "configs" / "a1_battery.cfg"))
    arr = build_window(cfg).arrays
    lo, hi = arr.lo[:, 0], arr.hi[:, 0]
    assert len(lo) == 6158
    # cubes that meet a nonlinear piece take the monotone-parts path: none
    # for the piecewise linear tent, those at a cubic edge otherwise
    for f, scalar in ((catalog("tent"), 0), (catalog("smoothed_indicator"), 137)):
        assert _pieces_met(f, lo, hi)[1] == scalar


def test_omega_inside_a_linear_piece_against_closed_form():
    # omega over [a, b] of a function of slope s there is |s| (b - a) / 3
    cfg = load_config(str(Path(__file__).parents[1] / "configs" / "a1_battery.cfg"))
    arr = build_window(cfg).arrays
    lo, hi = arr.lo[:, 0], arr.hi[:, 0]
    for f in (
        catalog("linear_ramp", slope=0.3),
        catalog("linear_ramp", slope=-1.7, cutoff=5.0, center=0.4),
        catalog("tent"),
        _random_lines(np.random.default_rng(35), [-1.3, 0.7, 2.9]),
    ):
        groups, _ = funcspace._segment_table(f, lo, hi)
        ((rows, seg),) = [(r, g) for r, g in groups if g.shape[2] == 1]
        s = seg[2, :, 0]
        inside = rows[s != 0.0]
        assert inside.size > 300
        width = hi[inside] - lo[inside]
        want = np.abs(s[s != 0.0]) * width / 3.0
        got = funcspace.omega_intervals(f, lo[inside], hi[inside])
        assert np.all(np.abs(got - want) <= 1e-12 * want), f


# ---------------------------------------------------------------------------
# pieces stored about their anchors: a function far from 0 keeps its digits
# ---------------------------------------------------------------------------


def test_translated_smoothed_indicator_keeps_its_omega():
    # omega is translation invariant: on the dyadic intervals of length
    # 2^-1 .. 2^-5 in [-1/2, 3/2], shifted by A (exactly, A an integer), the
    # plateau on [A, A + 1] matches the one on [0, 1].  Each node or cut at
    # magnitude A rounds by ulp(A), so the bound is ulp(A) over the
    # shortest interval
    j = np.repeat(np.arange(1, 6), 2 ** np.arange(2, 7))
    lo = np.concatenate([np.arange(-(2 ** (k - 1)), 3 * 2 ** (k - 1)) for k in range(1, 6)])
    lo, hi = np.ldexp(lo, -j), np.ldexp(lo + 1.0, -j)
    base = funcspace.omega_intervals(catalog("smoothed_indicator"), lo, hi)
    assert np.count_nonzero(base) > 20
    for a in (40.0, 1024.0, 2.0**16):
        f = catalog("smoothed_indicator", width=0.25, a=a, b=a + 1.0)
        got = funcspace.omega_intervals(f, lo + a, hi + a)
        assert np.max(np.abs(got - base)) <= math.ulp(a) / 2.0**-5, a


def test_edge_far_from_0_against_exact_smoothstep():
    # the rising edge [39.75, 40) against 3u^2 - 2u^3, u = (x - 39.75)/0.25,
    # in exact arithmetic at the float points, to 2 ulp of the value
    f = catalog("smoothed_indicator", width=0.25, a=40.0, b=41.0)
    xs = np.random.default_rng(38).uniform(39.75, 40.0, 400)
    for x, got in zip(xs.tolist(), f.value(xs).tolist()):
        u = (Fraction(x) - Fraction(39.75)) * 4
        want = 3 * u**2 - 2 * u**3
        assert abs(Fraction(got) - want) <= 2 * Fraction(math.ulp(float(want))), x


def test_smoothed_indicator_is_mirror_symmetric_on_the_a1_window():
    # the default plateau is symmetric about 1/2, so omega on each window
    # cube I equals omega on 1 - I wherever that, in floats, is a window
    # cube too; 73 such pairs have omega > 0
    lo, hi = _a1_window()
    index = {(a, b): i for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()))}
    pairs = np.array(
        [(i, index[1.0 - b, 1.0 - a]) for (a, b), i in index.items() if (1.0 - b, 1.0 - a) in index]
    )
    om = funcspace.omega_intervals(catalog("smoothed_indicator"), lo, hi)
    one, two = om[pairs[:, 0]], om[pairs[:, 1]]
    live = np.maximum(one, two) > 0.0
    assert np.count_nonzero(live) == 73
    assert np.all(np.abs(one - two)[live] <= 1e-13 * np.maximum(one, two)[live])
