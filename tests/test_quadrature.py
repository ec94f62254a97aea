"""Adaptive quadrature: at most one integrand call per refinement step,
with panels evaluated ahead of need, and the same totals as evaluating
every panel on its own; many problems in lock step, each with the total it
has alone."""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from dyadicweights.quadrature import (
    ABS_TOL,
    QuadratureBudgetError,
    _gl,
    adaptive_quad,
    adaptive_quads,
)


def _panel(f, a, b, order):
    x, w = _gl(order)
    h = 0.5 * (b - a)
    v = np.asarray(f(a + h * (x + 1.0)), dtype=float)
    v = np.where(np.isfinite(v), v, 0.0)
    return h * float(np.dot(w, v))


def _eval(f, a, b):
    coarse = _panel(f, a, b, 7)
    fine = _panel(f, a, b, 15)
    return fine, abs(fine - coarse)


def reference_quad(f, a, b, rel_tol=1e-8, breakpoints=(), max_splits=20000):
    """The panel-at-a-time loop: (total, splits).  Each panel is evaluated
    on its own, with one call per Gauss rule."""
    a, b = float(a), float(b)
    pts = sorted({a, b, *(float(t) for t in breakpoints if a < t < b)})
    heap, total, err_sum, counter = [], 0.0, 0.0, 0
    for lo, hi in zip(pts, pts[1:]):
        fine, err = _eval(f, lo, hi)
        total += fine
        err_sum += err
        counter += 1
        heapq.heappush(heap, (-err, counter, lo, hi, fine))
    width_floor = 4e-16 * (b - a)
    splits = 0
    while err_sum > max(ABS_TOL, rel_tol * abs(total)):
        if not heap:
            break
        neg_err, _, lo, hi, fine = heapq.heappop(heap)
        err = -neg_err
        if hi - lo <= width_floor or err == 0.0:
            err_sum -= err
            continue
        if splits >= max_splits:
            if err_sum > 100 * max(ABS_TOL, rel_tol * abs(total)):
                raise QuadratureBudgetError("budget")
            break
        splits += 1
        mid = 0.5 * (lo + hi)
        total -= fine
        err_sum -= err
        for s0, s1 in ((lo, mid), (mid, hi)):
            fn, er = _eval(f, s0, s1)
            total += fn
            err_sum += er
            counter += 1
            heapq.heappush(heap, (-er, counter, s0, s1, fn))
    return total, splits


class Counted:
    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.points = 0

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.f(x)


CASES = {
    "smooth": (lambda x: np.exp(-x) * np.cos(3.0 * x), -1.0, 2.0, ()),
    "kinked": (lambda x: np.abs(x - 0.3) + np.maximum(x - 1.1, 0.0) ** 2, -1.0, 2.0, ()),
    "cusp-breakpoints": (lambda x: np.sqrt(np.abs(x - 0.3)), -1.0, 2.0, (0.3, 1.5, 5.0)),
    "endpoint-singular": (lambda x: x**-0.5 + np.log(x), 0.0, 1.0, ()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_call_per_refinement_step_and_same_total(name):
    f, a, b, bps = CASES[name]
    want, splits = reference_quad(f, a, b, breakpoints=bps)
    counted = Counted(f)
    got = adaptive_quad(counted, a, b, breakpoints=bps)
    assert splits > 0
    # the panels the loop needs next are evaluated with those it needs now
    assert counted.calls <= 1 + splits
    if name in ("kinked", "cusp-breakpoints"):
        assert counted.calls < 1 + splits
    # 7 + 15 nodes per panel, each panel the sequential loop's and evaluated once
    spans = len({a, b, *(t for t in bps if a < t < b)}) - 1
    assert counted.points == 22 * (spans + 2 * splits)
    assert type(got) is float
    assert got == want  # bit for bit


def test_budget_error_fires_where_it_did():
    # not integrable at 0: the error estimate never meets the tolerance
    f = lambda x: x**-1.5  # noqa: E731
    with pytest.raises(QuadratureBudgetError):
        reference_quad(f, 0.0, 1.0, max_splits=50)
    counted = Counted(f)
    with pytest.raises(QuadratureBudgetError):
        adaptive_quad(counted, 0.0, 1.0, max_splits=50)
    assert counted.calls == 1 + 50
    # a budget that suffices raises in neither
    g = CASES["kinked"][0]
    want, _ = reference_quad(g, -1.0, 2.0, max_splits=60)
    assert adaptive_quad(g, -1.0, 2.0, max_splits=60) == want



def by_owner(fs):
    """f(x, owner) that evaluates each node with its own problem's
    integrand, counting calls and checking each node's owner."""

    def f(x, owner):
        f.calls += 1
        assert owner.shape == x.shape
        out = np.empty_like(x)
        for k in np.unique(owner):
            sel = owner == k
            out[sel] = fs[k](x[sel])
        return out

    f.calls = 0
    return f


def test_lock_step_totals_are_each_problem_alone():
    names = ["smooth", "kinked", "endpoint-singular", "cusp-breakpoints"]
    problems = [(CASES[n][1], CASES[n][2], 1e-8, CASES[n][3], 20000) for n in names]
    f = by_owner([CASES[n][0] for n in names])
    got = adaptive_quads(f, problems)
    splits = []
    for n, (a, b, tol, bps, cap), (total, met) in zip(names, problems, got):
        want, k = reference_quad(CASES[n][0], a, b, tol, bps, cap)
        splits.append(k)
        assert type(total) is float
        assert total == want  # bit for bit
        assert total == adaptive_quad(CASES[n][0], a, b, tol, bps, cap)
        assert met
    assert len(set(splits)) > 1
    assert f.calls == max(1 + k for k in splits)


def test_empty_and_first_step_problems_leave_the_others_alone():
    smooth, kinked = CASES["smooth"][0], CASES["kinked"][0]
    problems = [
        (1.0, 0.0, 1e-8, (), 20000),  # b <= a: no panel at all
        (-1.0, 2.0, 1e-3, (), 20000),  # converges on its first step
        (-1.0, 2.0, 1e-8, (), 20000),
        (0.5, 0.5, 1e-8, (), 20000),
    ]
    f = by_owner([smooth, smooth, kinked, smooth])
    got = adaptive_quads(f, problems)
    assert got[0] == (0.0, True) and got[3] == (0.0, True)
    first, k = reference_quad(smooth, -1.0, 2.0, rel_tol=1e-3)
    assert k == 0 and got[1] == (first, True)
    want, k = reference_quad(kinked, -1.0, 2.0)
    assert got[2] == (want, True)
    assert f.calls < 1 + k
    assert adaptive_quads(by_owner([]), []) == []


def test_split_cap_below_the_error_margin_is_reported():
    # kinked at 1e-6 needs 8 splits; a cap of 5 stops above tolerance but
    # within 100x of it, so the total comes back with met False
    kinked, smooth = CASES["kinked"][0], CASES["smooth"][0]
    problems = [(-1.0, 2.0, 1e-6, (), 5), (-1.0, 2.0, 1e-8, (), 20000)]
    f = by_owner([kinked, smooth])
    (capped, met), (other, other_met) = adaptive_quads(f, problems)
    assert not met and other_met
    assert capped == adaptive_quad(kinked, -1.0, 2.0, rel_tol=1e-6, max_splits=5)
    assert other == reference_quad(smooth, -1.0, 2.0)[0]
    _, k = reference_quad(kinked, -1.0, 2.0, rel_tol=1e-6)
    assert k == 8
    assert adaptive_quads(f, [(-1.0, 2.0, 1e-6, (), 8)] * 2)[0][1]


def test_budget_error_propagates_from_lock_step():
    bad = lambda x: x**-1.5  # noqa: E731
    f = by_owner([CASES["smooth"][0], bad])
    with pytest.raises(QuadratureBudgetError):
        adaptive_quads(f, [(-1.0, 2.0, 1e-8, (), 20000), (0.0, 1.0, 1e-8, (), 50)])
    assert f.calls == 1 + 50


def test_a_panel_evaluated_ahead_of_need_never_raises():
    # at a split cap of 8, kinked at 1e-7 is offered two halves the loop
    # never splits; an integrand that raises on any node the sequential loop
    # does not evaluate makes that step's call fail, and the step is redone
    # on the needed spans alone, so the totals are the sequential ones
    kinked, smooth = CASES["kinked"][0], CASES["smooth"][0]
    problems = [(-1.0, 2.0, 1e-7, (), 8), (-1.0, 2.0, 1e-8, (), 20000)]
    seen = []

    def recorded(g):
        def h(x):
            seen.append(x)
            return g(x)

        return h

    want = [reference_quad(recorded(g), *p) for g, p in zip((kinked, smooth), problems)]
    looked = np.concatenate(seen)
    refused = []

    def f(x, owner):
        if not np.isin(x, looked).all():
            refused.append(x.size)
            raise ValueError("a node the sequential loop never evaluates")
        return np.where(owner == 0, kinked(x), smooth(x))

    (capped, met), (other, other_met) = adaptive_quads(f, problems)
    assert refused
    assert not met and other_met
    assert (capped, other) == (want[0][0], want[1][0])  # bit for bit
    # an error on a needed node still surfaces
    with pytest.raises(ValueError):
        adaptive_quads(lambda x, owner: f(x + 1.0, owner), problems)
