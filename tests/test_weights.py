"""Weight masses, constant estimates, and the classical property checks."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dyadicweights.grid import AxisCube, Cube, Shift
from dyadicweights.quadrature import adaptive_quad
from dyadicweights.weights import (
    ConstantWeight,
    DomainError,
    PowerWeight,
    ProductWeight,
    TableWeight,
    ap_constant,
    ap_ratios,
    dyadic_powers,
    parse_weight_spec,
    power_ap_member,
    power_integrals,
    powers,
    standard_probes,
)
from oracles import (
    _scalar_ess_inf,
    check_ap_properties,
    maximal_value,
    per_probe_ap_ratios,
    scalar_ap_ratio,
    scalar_power_mass,
    scalar_powers,
)


CONFIGS = Path(__file__).parents[1] / "configs"


def _power_mass(w, lo: float, hi: float, s: float) -> float:
    return float(w.power_masses(np.array([lo]), np.array([hi]), s)[0])


def _ratio(w, p: float, region) -> float:
    return float(ap_ratios(w, p, [region])[0])


def test_constant_mass_unit_cube():
    w = ConstantWeight(1.0)
    q = Cube(Shift((0,)), 0, (0,))
    assert w.mass(q) == 1.0


def test_power_mass_halfline():
    w = PowerWeight(0.5)  # |x|^(1/2)
    assert w.mass((0.0, 1.0)) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_power_mass_straddling_center():
    # integral of |x - 1/2|^(d-1) over (1/2, 4) = (7/2)^d / d
    d = 0.3
    w = PowerWeight(d - 1.0, center=0.5)
    expect = 3.5**d / d
    assert w.mass((0.5, 4.0)) == pytest.approx(expect, rel=1e-13)
    both = w.mass((-1.0, 4.0))
    assert both == pytest.approx(expect + 1.5**d / d, rel=1e-13)


def test_power_weight_rejects_nonintegrable():
    with pytest.raises(DomainError):
        PowerWeight(-1.0)


def test_power_mass_additive_under_split():
    w = PowerWeight(-0.5)
    total = w.mass((-1.0, 2.0))
    parts = w.mass((-1.0, 0.25)) + w.mass((0.25, 2.0))
    assert total == pytest.approx(parts, rel=1e-13)


def test_table_weight_ess_inf_and_ap_ratios():
    # w = 1 + |x|/4 on (-1, 1): mean 1.125, minimum 1 at 0, and mean of 1/w
    # equal to 4 ln(5/4)
    w = parse_weight_spec({"kind": "table", "xs": [-4, 0, 4], "values": [2, 1, 2]})
    assert w.ess_inf(np.array([-1.0]), np.array([1.0])).tolist() == [1.0]
    assert _power_mass(w, -1.0, 1.0, -1.0) == pytest.approx(8.0 * math.log(1.25), rel=1e-12)
    assert _ratio(w, 1.0, (-1.0, 1.0)) == pytest.approx(1.125, rel=1e-12)
    want = 1.125 * 4.0 * math.log(1.25)
    assert _ratio(w, 2.0, (-1.0, 1.0)) == pytest.approx(want, rel=1e-8)


def test_table_weight_zero_at_a_knot_between_grid_points():
    # w falls linearly to 0 at the knot 0.1, which no dyadic grid on [-1, 1]
    # hits; ess_inf reads the knot, and the minimum 0 makes the p = 1 ratio
    # infinite
    w = parse_weight_spec({"kind": "table", "xs": [-4, 0.1, 4], "values": [2, 0, 2]})
    lo, hi = np.array([-1.0, 0.2]), np.array([1.0, 1.0])
    inf = w.ess_inf(lo, hi)
    assert inf[0] == 0.0 and inf[1] > 0.0
    assert _ratio(w, 1.0, (-1.0, 1.0)) == math.inf


def test_table_weight_ess_inf_is_the_sampled_minimum_bit_for_bit():
    # the minimum over a row's ends and the knots inside it against the
    # sampled reference (two grids of 513 and 1025 points and the knots), on
    # random tables with zero knots, rows across knots, rows ending on a knot
    # from either side and rows wholly outside the knots
    rng = np.random.default_rng(11)
    for trial in range(40):
        xs = np.unique(rng.uniform(-4.0, 4.0, int(rng.integers(1, 6))))
        if trial % 2:
            xs = np.unique(np.round(xs * 8.0) / 8.0)
        ys = rng.uniform(0.0, 3.0, len(xs))
        ys[rng.random(len(xs)) < 0.3] = 0.0
        w = TableWeight(xs, ys)
        knot = rng.choice(xs, 6)
        width = rng.uniform(0.01, 1.0, 6)
        ends = np.sort(rng.uniform(-6.0, 6.0, (2, 6)), axis=0)
        lo = np.concatenate([ends[0], knot, knot - width, [xs[-1] + 0.5, xs[0] - 3.0]])
        hi = np.concatenate([ends[1], knot + width, knot, [xs[-1] + 2.0, xs[0] - 1.0]])
        want = [_scalar_ess_inf(w, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert w.ess_inf(lo, hi).tobytes() == np.array(want).tobytes(), (xs, ys)


def test_table_weight_ess_inf_evaluates_the_ends_and_the_knots_per_row():
    # one value call on 2 + (number of knots) points per row
    w = TableWeight([-4.0, 0.1, 4.0], [2.0, 0.5, 2.0])
    calls = []

    def value(x):
        calls.append(np.size(x))
        return TableWeight.value(w, x)

    w.value = value
    lo, hi = np.array([-1.0, 0.2, 5.0]), np.array([1.0, 1.0, 6.0])
    assert w.ess_inf(lo, hi).tolist() == [0.5, float(TableWeight.value(w, 0.2)), 2.0]
    assert calls == [3 * (2 + 3)]


@pytest.mark.parametrize(
    "xs, values, message",
    [
        ([1, 0, 2], [1, 2, 3], "strictly increasing"),
        ([0, 0, 2], [1, 2, 3], "strictly increasing"),
        ([0, 1, 2], [1, 2], "one nonzero length"),
        ([], [], "one nonzero length"),
        ([[0, 1], [2, 3]], [[1, 1], [1, 1]], "one nonzero length"),
        (5, 1, "one nonzero length"),
        ([0, math.inf], [1, 1], "finite"),
        ([0, 1], [1, math.nan], "finite"),
        ([0, 1], [1, -0.5], "nonnegative"),
    ],
    ids=[
        "unsorted", "repeated", "lengths", "empty", "two-dimensional", "scalar",
        "inf-knot", "nan-value", "negative-value",
    ],
)
def test_table_weight_refuses_malformed_knots(xs, values, message):
    with pytest.raises(ValueError, match=message):
        TableWeight(xs, values)


def test_table_weight_zero_on_a_stretch_has_no_dual_mass():
    # w = 0 on [-0.5, 0.5], so w^s = inf there for s < 0: the mass reads
    # +inf on every row that meets the stretch, in one call with a row
    # that does not
    w = parse_weight_spec(
        {"kind": "table", "xs": [-4, -0.5, 0.5, 4], "values": [2, 0, 0, 2]}
    )
    lo, hi = np.array([-1.0, 0.0, -0.2, 1.0]), np.array([1.0, 1.0, 0.2, 4.0])
    got = w.power_masses(lo, hi, -1.0)
    assert np.isinf(got).tolist() == [True, True, True, False]
    for a, b in zip(lo[:3].tolist(), hi[:3].tolist()):
        assert _ratio(w, 2.0, (a, b)) == math.inf
    # positive powers keep a mass: w = 4 (|x| - 0.5) / 7 on 0.5 < |x| < 4,
    # and w^2 has mass 2 (4/7)^2 0.5^3 / 3
    assert _power_mass(w, -1.0, 1.0, 2.0) == pytest.approx(4.0 / 147.0, rel=1e-9)


def test_table_weight_zero_knot_has_no_dual_mass_below_minus_one():
    # w falls linearly to 0 at a knot inside [lo, hi] or at one of its ends,
    # so w^s is not integrable there for s <= -1, and A_p ratios with
    # -1/(p-1) <= -1 (p <= 2) are infinite; p = 3 (s = -1/2) keeps a mass
    w = parse_weight_spec({"kind": "table", "xs": [-4, 0.1, 4], "values": [2, 0, 2]})
    assert _power_mass(w, -1.0, 1.0, -1.0) == math.inf
    assert _ratio(w, 2.0, (-1.0, 1.0)) == math.inf
    assert _ratio(w, 1.5, (-1.0, 1.0)) == math.inf
    assert math.isfinite(_ratio(w, 3.0, (-1.0, 1.0)))
    assert math.isfinite(_ratio(w, 2.0, (0.2, 1.0)))
    # the end 0.5 of (0.5, 1) is the end of a zero stretch
    w = parse_weight_spec(
        {"kind": "table", "xs": [-4, -0.5, 0.5, 4], "values": [2, 0, 0, 2]}
    )
    assert _ratio(w, 2.0, (0.5, 1.0)) == math.inf
    # w = 4 (x - 0.5) / 7 there: the mean of w^-1/2 is 2 (7/4)^(1/2) / 0.5^(1/2)
    # over the length 0.5, and the ratio is its square times the mean of w
    mean_w = 4.0 / 7.0 * 0.25
    mean_dual = 2.0 * math.sqrt(7.0 / 4.0) * math.sqrt(0.5) / 0.5
    got = _ratio(w, 3.0, (0.5, 1.0))
    assert got == pytest.approx(mean_w * mean_dual**2, rel=1e-12)


def test_table_weight_mass_next_to_a_zero_knot_is_the_closed_form(capsys):
    # w falls to 0 at the knot 0.1 from 2 at -4 and 4: w^-1/2 over a short
    # row across the knot is 2 sqrt(4.1/2) sqrt(d1) + 2 sqrt(3.9/2) sqrt(d2),
    # d1 and d2 the row's reach left and right of the knot, to rounding and
    # without the split-cap warning the quadrature printed there
    w = parse_weight_spec({"kind": "table", "xs": [-4, 0.1, 4], "values": [2, 0, 2]})
    lo, hi = 0.0990234375, 0.1009765625
    d1, d2 = 0.1 - lo, hi - 0.1
    want = 2.0 * math.sqrt(4.1 / 2.0) * math.sqrt(d1) + 2.0 * math.sqrt(3.9 / 2.0) * math.sqrt(d2)
    assert _power_mass(w, lo, hi, -0.5) == pytest.approx(want, rel=4e-16)
    assert capsys.readouterr().err == ""


def test_table_weight_masses_match_quadrature_on_short_and_long_rows():
    # the closed form against adaptive quadrature of w^s, on rows across
    # knots, beyond the end knots, and a probe cube of width 2^-48, where
    # the plain difference of the primitives would keep no digit
    w = parse_weight_spec({"kind": "table", "xs": [-4, 0, 1.5, 4], "values": [2, 1, 3, 2]})
    lo = np.array([-1.0, 0.3, -10.0, 5.0, -5.0, 0.25, 1.4])
    hi = np.array([1.0, 0.3 + 2.0**-48, 10.0, 6.0, -4.5, 0.75, 3.0])
    for s in (1.0, 2.0, -0.5, -1.0, -2.0):
        got = w.power_masses(lo, hi, s)
        for g, a, b in zip(got.tolist(), lo.tolist(), hi.tolist()):
            want = adaptive_quad(
                lambda x: w.value(x) ** s, a, b, breakpoints=w.breakpoints(), rel_tol=1e-13
            )
            assert g == pytest.approx(want, rel=1e-12), (s, a, b)


def test_product_weight_box_mass():
    w = ProductWeight([PowerWeight(0.5), ConstantWeight(2.0)])
    box_mass = w.mass([(0.0, 1.0), (0.0, 3.0)])
    assert box_mass == pytest.approx((2.0 / 3.0) * 6.0, rel=1e-13)


def test_ap_constant_constant_weight_is_one():
    w = ConstantWeight(7.0)
    for p in (1.0, 2.0, 3.0):
        est = ap_constant(w, p, standard_probes(w))
        assert est.value == pytest.approx(1.0, rel=1e-12)


def test_ap_estimate_monotone_in_probes():
    w = PowerWeight(0.5)
    probes = standard_probes(w)
    small = ap_constant(w, 2.0, probes[:5]).value
    big = ap_constant(w, 2.0, probes).value
    assert big >= small >= 1.0 - 1e-12


def test_standard_probes_have_no_repeats():
    # the families around 0 and around 1/2 share (0, 0.5), (-0.5, 0.5),
    # (0, 1) and (-0.5, 1); each is kept once, where it is first formed
    probes = standard_probes(PowerWeight(1.0, 0.5))
    assert len(probes) == len(set(probes)) == 374
    assert probes[:3] == [(-2.0**-10, 2.0**-10), (0.0, 2.0**-9), (-(2.0**-9), 0.0)]


def test_ap_constant_a2_power_scaling():
    # |x|^{(p-1)(1-d)} at p = 2: probe estimate should reach ~ d^{1-p} = 1/d
    p = 2.0
    for d in (0.25, 0.125):
        w = PowerWeight((p - 1) * (1 - d))
        est = ap_constant(w, p, standard_probes(w, scales=range(-12, 13)))
        target = d ** (1 - p)
        assert est.value >= 0.3 * target
        assert est.value <= 10.0 * target


def test_ap_constant_a1_centered_power():
    # |x - 1/2|^{d-1}: A_1 estimate ~ 1/d
    d = 0.5
    w = PowerWeight(d - 1.0, center=0.5)
    est = ap_constant(w, 1.0, standard_probes(w, scales=range(-12, 8)))
    assert est.value >= 1.0 / d
    assert est.value <= 4.0 / d


def test_ap_constant_p1_unbounded_for_vanishing_weight():
    w = PowerWeight(0.5)  # vanishes at 0: ess inf 0 on cubes containing 0
    est = ap_constant(w, 1.0, [(-1.0, 1.0)])
    assert est.unbounded and math.isinf(est.value)


def test_ap_constant_refuses_a_nan_ratio(monkeypatch):
    # max([0.0, *ratios]) would drop a NaN; an inf ratio is the unbounded
    # estimate
    from dyadicweights import weights

    w, probes = PowerWeight(-0.5), [(-1.0, 1.0)] * 3
    monkeypatch.setattr(weights, "ap_ratios", lambda *_: np.array([2.0, math.nan, 1.0]))
    with pytest.raises(ValueError, match="NaN on 1 of 3 probes"):
        ap_constant(w, 1.0, probes)
    monkeypatch.setattr(weights, "ap_ratios", lambda *_: np.array([2.0, math.inf, 1.0]))
    assert ap_constant(w, 1.0, probes).unbounded


def test_ap_estimate_bound_rule():
    # a bounded estimate C gives C^exponent * norm, certified; an unbounded
    # one gives the bare norm, uncertified
    w = PowerWeight(-0.5)
    bounded = ap_constant(w, 1.0, standard_probes(w))
    c = bounded.value
    assert bounded.bound(3.0, 2.0) == (c**2.0 * 3.0, True)
    assert bounded.bound(3.0, 1.0) == (c * 3.0, True)
    unbounded = ap_constant(PowerWeight(0.5), 1.0, [(-1.0, 1.0)])
    assert unbounded.bound(3.0, 2.0) == (3.0, False)


def test_power_ap_member_criterion():
    assert power_ap_member(-0.5, 1.0)
    assert not power_ap_member(0.5, 1.0)
    assert power_ap_member(0.5, 2.0)
    assert not power_ap_member(1.5, 2.0)
    assert not power_ap_member(-1.0, 3.0)


def test_ap_ratio_dual_equality_closed_forms():
    # per-cube extremal ratio equality, 50 pairs with closed forms
    rng = np.random.default_rng(5)
    count = 0
    while count < 50:
        a = float(rng.uniform(-0.9, 0.9))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        if a / (p - 1) >= 1.0:  # dual side must stay integrable
            continue
        lo = float(rng.uniform(-3, 2))
        hi = lo + float(rng.uniform(0.1, 4))
        w = PowerWeight(a)
        direct = _ratio(w, p, (lo, hi))
        if not math.isfinite(direct):
            continue
        pprime = p / (p - 1)
        dual_mass = _power_mass(w, lo, hi, 1 - pprime)
        mean_f = dual_mass / (hi - lo)
        extremal = mean_f**p * w.mass((lo, hi)) / dual_mass
        assert extremal == pytest.approx(direct, rel=1e-9)
        count += 1


def test_check_ap_properties_constant_weight():
    w = ConstantWeight(1.0)
    for p in (1.0, 2.0):
        rep = check_ap_properties(
            w, p, probes=[(-1.0, 1.0), (0.0, 4.0)], sample_points=(0.5, -2.0)
        )
        assert rep["estimate"] == pytest.approx(1.0, rel=1e-12)
        assert rep["findings"] == []
        assert (rep["certified"], rep["vacuous"]) == (True, 0)


def test_check_ap_properties_maximal_bound_a1_weight():
    w = PowerWeight(-0.5)
    probes = standard_probes(w, scales=range(-10, 6))
    rep = check_ap_properties(w, 1.0, probes=probes, sample_points=(2.0, 0.3, -1.7))
    assert rep["findings"] == []
    est = rep["estimate"]
    # true constant for |x|^{-1/2} at p=1 is 1 + sqrt(2), attained on
    # asymmetric intervals straddling the singularity
    assert 0.95 * (1 + math.sqrt(2)) <= est <= (1 + math.sqrt(2)) * (1 + 1e-9)
    mv = maximal_value(w, 2.0, [2.0**k for k in range(-8, 5)])
    assert mv <= est * float(w.value(np.array([2.0]))[0]) * 1.05


@pytest.mark.parametrize(
    "exponent, p, sample_points",
    [(0.5, 1.0, (0.0, 0.1, 1.0)), (1.5, 2.0, ())],
    ids=["power-0.5-A1", "power-1.5-A2"],
)
def test_check_ap_properties_unbounded_estimate_certifies_nothing(
    exponent, p, sample_points
):
    # neither weight is in its class: every maximal and doubling check would
    # compare against inf * value, so none of them is a pass
    w = PowerWeight(exponent)
    probes = standard_probes(w, scales=range(-4, 4))
    rep = check_ap_properties(w, p, probes=probes, sample_points=sample_points)
    assert math.isinf(rep["estimate"])
    assert rep["certified"] is False
    assert rep["vacuous"] == rep["checks"]["maximal"] + rep["checks"]["doubling"] > 0
    assert all(f.name == "dual" for f in rep["findings"])
    # a dual check that cannot be formed is not counted: none runs at p = 1,
    # and no probe of |x|^{3/2} has a finite dual mass
    assert rep["checks"]["dual"] == 0


def test_check_ap_properties_dual_path():
    w = PowerWeight(0.5)
    rep = check_ap_properties(w, 2.0, probes=[(0.0, 1.0), (-2.0, 1.0), (1.0, 9.0)])
    assert all(f.name != "dual" for f in rep["findings"])
    assert rep["checks"]["dual"] == 3


def test_a2_dual_ratio_example():
    # w = |x|^{1/2}, Q = (0,1): dual extremal route equals direct A_2 ratio
    w = PowerWeight(0.5)
    direct = _ratio(w, 2.0, (0.0, 1.0))
    # direct = mean(w) * mean(w^{-1}) = (2/3) * 2 = 4/3
    assert direct == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_growth_floor_a1_weights():
    # at sampled points, w(x) >= c * w(B(0,1)) / (est^2 (1+|x|)^n), c fixed
    # from the constant-weight calibration c = 0.5 with a 4x safety margin
    c = 0.125
    for w in (ConstantWeight(1.0), PowerWeight(-0.5), PowerWeight(-0.75, 0.5)):
        est = ap_constant(w, 1.0, standard_probes(w, scales=range(-10, 6))).value
        wb = w.mass((-1.0, 1.0))
        for x in (-7.3, -0.9, 0.2, 1.1, 6.0):
            vx = float(w.value(np.array([x]))[0])
            assert vx >= c * wb / (est**2 * (1 + abs(x))) * (1 - 1e-9)


def test_parse_weight_specs():
    w = parse_weight_spec({"kind": "power", "exponent": -0.5, "center": 0.5})
    assert isinstance(w, PowerWeight) and w.center == 0.5
    w2 = parse_weight_spec({"kind": "constant", "c": 2.0})
    assert isinstance(w2, ConstantWeight)
    w3 = parse_weight_spec({"kind": "table", "xs": [0, 1, 2], "values": [1, 2, 1]})
    assert w3.mass((0.0, 2.0)) == pytest.approx(3.0, rel=1e-9)
    with pytest.raises(ValueError):
        parse_weight_spec({"kind": "nope"})


def test_masses_reject_boxes_of_another_dimension():
    w = ConstantWeight(1.0, n=2)
    with pytest.raises(ValueError, match="1-dimensional boxes"):
        w.masses(np.zeros((3, 1)), np.ones((3, 1)))


def _rows(rng, centers):
    """Interval rows: the cubes of a three-shift window, random rows, rows
    with hi < lo and hi == lo, and rows ending on each centre."""
    from dyadicweights.grid import all_shifts, window_1d

    arr = window_1d(-4, 4, -6, 2, shifts=all_shifts(1)).arrays
    lo = np.concatenate([arr.lo[:, 0], rng.uniform(-6, 6, 400)])
    hi = np.concatenate([arr.hi[:, 0], lo[len(arr) :] + rng.exponential(1.0, 400)])
    c = np.asarray(centers, dtype=float)
    lo = np.concatenate([lo, hi[:50], lo[:50], c - 0.5, c, c])
    hi = np.concatenate([hi, lo[:50], lo[:50], c, c + 0.25, c])
    return lo, hi


def _scalar_rows(w: PowerWeight, lo, hi, s: float) -> np.ndarray:
    """scalar_power_mass row by row, +inf where it raises DomainError."""
    out = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        try:
            out.append(scalar_power_mass(w, a, b, s))
        except DomainError:
            out.append(math.inf)
    return np.array(out)


def test_masses_match_the_scalar_path_bit_for_bit():
    # the array kernel against the scalar reference called row by row:
    # a > 0 and -1 < a < 0, centres on a cube end (0 and 1/3), inside a
    # cube and outside the window; one centre per row; constant, product
    # and two-dimensional constant weights
    rng = np.random.default_rng(20)
    centers = (0.0, 1.0 / 3.0, 0.3, -9.5, 12.0)
    lo, hi = _rows(rng, centers)
    for a in (2.0, 0.5, 0.25, -0.25, -0.5, -0.75, -0.9):
        for c in centers:
            w = PowerWeight(a, c)
            got = w.masses(lo[:, None], hi[:, None])
            assert got.tobytes() == _scalar_rows(w, lo, hi, 1.0).tobytes()
            for s in (0.5, 1.05, -0.9 / a):  # e = a s > -1
                got = w.power_masses(lo, hi, s)
                assert got.tobytes() == _scalar_rows(w, lo, hi, s).tobytes(), (a, c, s)
        per_row = rng.choice(centers, len(lo))
        want = np.array([
            scalar_power_mass(PowerWeight(a, c), x, y, 1.0)
            for c, x, y in zip(per_row.tolist(), lo.tolist(), hi.tolist())
        ])
        assert power_integrals(a, per_row, lo, hi).tobytes() == want.tobytes()
    for c in (0.5, 2.0):
        got = ConstantWeight(c).masses(lo[:, None], hi[:, None])
        want = np.array([c * max(0.0, y - x) for x, y in zip(lo.tolist(), hi.tolist())])
        assert got.tobytes() == want.tobytes()
    live = hi > lo
    boxes_lo = np.stack([lo[live], lo[live][::-1]], axis=1)
    boxes_hi = np.stack([hi[live], hi[live][::-1]], axis=1)
    edges = (boxes_hi - boxes_lo).tolist()
    got = ConstantWeight(1.5, n=2).masses(boxes_lo, boxes_hi)
    assert got.tobytes() == np.array([1.5 * (x * y) for x, y in edges]).tobytes()
    w = PowerWeight(-0.5, 0.3)
    got = ProductWeight([w, ConstantWeight(2.0)]).masses(boxes_lo, boxes_hi)
    mass = _scalar_rows(w, boxes_lo[:, 0], boxes_hi[:, 0], 1.0)
    assert got.tobytes() == np.array([m * (2.0 * y) for m, (_, y) in zip(mass, edges)]).tobytes()


def test_masses_of_a_subset_of_rows_are_those_rows_of_the_full_call():
    # every weight kind computes masses row by row: a call on some of the
    # rows, in any order, gives each row the bits of the full call.  The
    # window profile and the classifier's probe rows take masses only on
    # the cubes with a positive criterion value and rest on this
    rng = np.random.default_rng(22)
    lo, hi = _rows(rng, (0.0, 0.3, 1.0 / 3.0))
    table = TableWeight([-2.0, -1.0, 0.0, 0.5, 1.5, 2.5], [1.0, 0.0, 0.0, 2.0, 0.0, 3.0])
    kinds = [
        ConstantWeight(1.5),
        PowerWeight(-0.75, 0.3),
        PowerWeight(0.5, 1.0 / 3.0),
        PowerWeight(2.0),
        table,
        ProductWeight([PowerWeight(-0.5, 0.3), table]),
        ConstantWeight(2.0, n=2),
    ]
    subsets = [rng.permutation(lo.size)[: lo.size // 3], np.arange(lo.size)[::-7], [5], []]
    for w in kinds:
        boxes = [np.stack([x, x[::-1]], axis=1)[:, : w.n] for x in (lo, hi)]
        full = w.masses(*boxes)
        for rows in subsets:
            got = w.masses(*(b[rows] for b in boxes))
            assert got.tobytes() == full[rows].tobytes(), (w, len(rows))
    # the kernel at other exponents: e = -1 (the log1p path), a zero knot
    # (s <= -1) and a zero stretch (s < 0) that diverge, and s > 0
    for w, s in ((PowerWeight(0.5, 0.3), -2.0), (PowerWeight(2.0), -0.5), (table, -1.0),
                 (table, -0.5), (table, 0.5), (table, 2.0)):
        full = w.power_masses(lo, hi, s)
        assert np.isinf(full).any() == (s < 0)
        for rows in subsets:
            assert w.power_masses(lo[rows], hi[rows], s).tobytes() == full[rows].tobytes(), (w, s)


def test_power_masses_read_inf_where_the_scalar_path_raises():
    # e = a s <= -1: a live row with the centre inside or on an end reads
    # +inf, where the scalar reference raises DomainError; rows with
    # hi <= lo and rows away from the centre keep its value
    rng = np.random.default_rng(21)
    lo, hi = _rows(rng, ())
    for a, s in ((0.75, -2.0), (-0.5, 3.0), (0.5, -4.0), (1.0, -1.0)):
        for c in (0.0, 1.0 / 3.0, 0.3, 12.0, -9.5):
            w = PowerWeight(a, c)
            got = w.power_masses(lo, hi, s)
            assert got.tobytes() == _scalar_rows(w, lo, hi, s).tobytes()
            at_centre = (hi > lo) & (lo <= c) & (c <= hi)
            assert np.array_equal(np.isinf(got), at_centre)
    # an end on the centre, and the centre inside
    lo, hi = np.array([0.0, 1.0, 3.0, 0.5]), np.array([0.5, 2.0, 4.0, 2.0])
    got = PowerWeight(0.75, 1.0).power_masses(lo, hi, -2.0)
    assert np.isinf(got).tolist() == [False, True, False, True]


def test_power_mass_at_e_minus_one_is_the_log_form():
    # e = a s = -1 with the centre outside [lo, hi]: the integral of
    # 1 / |x - c|, against adaptive quadrature, and the array pass bit for
    # bit the scalar reference
    w = PowerWeight(1.0, center=0.5)
    lo = np.array([1.0, -2.0, 0.75, 0.5 + 1e-9, 100.0])
    hi = np.array([3.0, 0.25, 0.75 + 2.0**-20, 2.0, 100.0 + 1e-6])
    got = w.power_masses(lo, hi, -1.0)
    assert got.tobytes() == _scalar_rows(w, lo, hi, -1.0).tobytes()
    for g, a, b in zip(got.tolist(), lo.tolist(), hi.tolist()):
        want = adaptive_quad(lambda x: w.value(x) ** -1.0, a, b, rel_tol=1e-13)
        assert g == pytest.approx(want, rel=1e-11)
    assert _power_mass(PowerWeight(0.5, -1.0), 0.0, 3.0, -2.0) == pytest.approx(
        math.log(4.0), rel=1e-15
    )


def test_ap_ratios_match_the_scalar_reference_bit_for_bit():
    # one array pass per probe family against scalar_ap_ratio probe by
    # probe: power weights on the standard probes, a table weight, and a
    # product and a constant weight on R^2 over axis cubes
    def check(w, p, probes):
        want = np.array([scalar_ap_ratio(w, p, q) for q in probes])
        assert ap_ratios(w, p, probes).tobytes() == want.tobytes(), (w, p)

    pairs = ((0.5, 0.0), (-0.5, 0.0), (-0.75, 0.5), (1.0, 0.5), (2.0, -0.3), (-0.25, 1 / 3), (0.25, 12.0))
    for a, c in pairs:
        w = PowerWeight(a, c)
        for p in (1.0, 1.5, 2.0, 3.0):
            check(w, p, standard_probes(w))
    table = parse_weight_spec({"kind": "table", "xs": [-4, 0, 4], "values": [2, 1, 2]})
    for p in (1.0, 2.0, 3.0):
        check(table, p, standard_probes(table, scales=range(-3, 3)))
    cubes = [AxisCube((Fraction(-(2**k)),) * 2, Fraction(2 ** (k + 1))) for k in range(-6, 4)]
    cubes += [AxisCube((Fraction(1, 4), Fraction(-3)), Fraction(2**k)) for k in range(-3, 3)]
    product = ProductWeight([PowerWeight(-0.5, 0.25), ConstantWeight(2.0)])
    for w in (product, ConstantWeight(3.0, n=2)):
        for p in (1.0, 2.0):
            check(w, p, cubes)


def test_ap_ratios_of_pair_probes_match_the_per_probe_boxes_bit_for_bit(tmp_path, monkeypatch):
    # a family of (lo, hi) pairs is one NumPy call, no float_box per probe,
    # with the bits of the per-probe boxes: the a1 battery's weight and
    # |x|^(1/2) on their standard probes and on the filtered family that
    # verify_oscillation builds, at p = 1 and p = 2
    from dyadicweights import cli, oscillation, weights

    a1 = cli.build_weight(cli.load_config(str(CONFIGS / "a1_battery.cfg")))
    captured = []

    def capture(w, p, probes, _orig=oscillation.ap_constant):
        captured.append(probes)
        return _orig(w, p, probes)

    monkeypatch.setattr(oscillation, "ap_constant", capture)
    argv = ["verify-cddd", "--config", str(CONFIGS / "a1_battery.cfg"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    (filtered,) = captured
    assert len(filtered) > 100

    def no_float_box(region):
        raise AssertionError("float_box called on a pair family")

    monkeypatch.setattr(weights, "float_box", no_float_box)
    root = PowerWeight(0.5)
    for w, probes in (
        (a1, standard_probes(a1)), (a1, filtered), (root, standard_probes(root)), (root, filtered)
    ):
        for p in (1.0, 2.0):
            want = per_probe_ap_ratios(w, p, probes)
            assert ap_ratios(w, p, probes).tobytes() == want.tobytes(), (w, p)


def test_ap_ratios_of_cube_and_fraction_probes_keep_their_bits():
    # Fraction-ended pairs take the one NumPy call, whose float() of each
    # end is the correctly rounded one; Cube and AxisCube probes, one-pair
    # boxes and mixed families take one float_box per probe
    from dyadicweights.grid import all_shifts, window_1d

    window = window_1d(Fraction(-3), Fraction(5, 3), -2, 1, shifts=all_shifts(1))
    cubes = list(window.cubes())[::7]
    thirds = [(Fraction(k, 3), Fraction(k + 1, 3) + Fraction(1, 7 ** abs(k))) for k in range(-9, 9)]
    families = [
        cubes,
        thirds,
        [AxisCube((lo,), hi - lo) for lo, hi in thirds],
        [[q] for q in thirds],
        [*thirds[:5], *cubes[:5], (0.25, 0.75)],
    ]
    table = parse_weight_spec({"kind": "table", "xs": [-1, 0, 1], "values": [1, 3, 2]})
    for w in (PowerWeight(-0.75, 0.5), PowerWeight(0.5, Fraction(1, 3)), table):
        for probes in families:
            for p in (1.0, 2.0):
                want = per_probe_ap_ratios(w, p, probes)
                assert ap_ratios(w, p, probes).tobytes() == want.tobytes(), (w, p, probes[0])


def _raises_by_python_pow(v: float, e) -> bool:
    try:
        scalar_powers(v, e)
    except (ArithmeticError, ValueError):
        return True
    return False


# the exponents the package passes: squares and cubes of the omega kernels,
# the bench weights' a s + 1 and ratio exponents, p - 1 and table s
@pytest.mark.parametrize("e", [2, 3, 0.25, 0.5, 1.5, -0.75, 1.0, 2.0, -0.5, -1.0])
def test_powers_are_python_pow_bit_for_bit(e):
    rng = np.random.default_rng(35)
    mags = 10.0 ** rng.uniform(-300.0, 300.0, 3000)
    special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, math.inf, math.nan]
    x = np.concatenate([mags, special, -mags[:500], np.negative(special[:-1])])
    bad = np.array([_raises_by_python_pow(v, e) for v in x.tolist()])
    ok = x[~bad]
    for shaped in (ok, ok[:2000].reshape(40, 50), ok[:0].reshape(0, 3)):
        got = powers(shaped, e)
        assert isinstance(got, np.ndarray) and got.shape == shaped.shape
        assert got.tobytes() == scalar_powers(shaped, e).tobytes()
    for v in special + [-0.0]:
        # 0-d in, 0-d out; -0.0 keeps its sign at odd e
        if not _raises_by_python_pow(v, e):
            got = powers(np.float64(v), e)
            assert got.shape == () and got.tobytes() == scalar_powers(v, e).tobytes()
    # 0.0 to a negative power, overflow and a negative base to a fractional
    # power: each raises, alone and among values that do not
    assert bad.any() == (e != 1.0)
    for v in x[bad].tolist():
        with pytest.raises(FloatingPointError):
            powers(np.array([1.0, v]), e)


@pytest.mark.parametrize("e", [0.5, -0.75, 2.0, np.float64(1.0 / 3.0), -1.0])
def test_dyadic_powers_are_powers_bit_for_bit(e):
    # generations of a window, out of order and repeated, in any shape
    k = np.array([[3, -5, 0], [3, 12, -48], [-5, -5, 1]])
    want = powers(np.ldexp(1.0, k), e)
    got = dyadic_powers(k, e)
    assert got.shape == k.shape and got.tobytes() == want.tobytes()
    assert dyadic_powers(np.array([], dtype=int), e).shape == (0,)
