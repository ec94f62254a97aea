"""Adaptive 1-d panel quadrature used by the weight and functional modules.

Gauss-Legendre panels under global error control: the panel with the largest
error estimate is split until the summed estimate meets the tolerance.  Each
panel's estimate is its 15-point rule against its 7-point rule.  The
integrand is called once per refinement step, on the nodes of every panel
of that step: once for all the initial spans between breakpoints, then once
for the two halves of each split.  So ``f`` must be elementwise; the totals
and the heap order are those of evaluating each panel on its own.
``adaptive_quads`` runs many problems in lock step: each step is one call on
the panels of every unfinished problem, and each problem keeps the totals,
heap order and error sums it has alone; ``adaptive_quad`` is that driver on
one problem.  Known singular points are passed as breakpoints so panels
never straddle them; Gauss nodes are interior, so integrable endpoint
singularities converge under refinement, and indicator-type jumps are chased
only until their contribution to the global error is below budget.
"""

from __future__ import annotations

import heapq

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# Absolute error floor, so integrals that vanish still terminate.
ABS_TOL = 1e-14


class QuadratureBudgetError(RuntimeError):
    pass


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _panels(f, spans) -> list[tuple[float, float]]:
    """(fine, |fine - coarse|) of the 15- and 7-point rules on every span,
    from one call of ``f`` on the nodes of all of them."""
    x7, w7 = _gl(7)
    x15, w15 = _gl(15)
    x = np.concatenate([x7, x15])
    lo, hi = np.array(spans).T
    h = 0.5 * (hi - lo)
    v = np.asarray(f((lo[:, None] + h[:, None] * (x + 1.0)).ravel()), dtype=float)
    # nodes are interior, but float rounding can land one exactly on an
    # integrable singularity; such isolated hits carry zero measure
    v = np.where(np.isfinite(v), v, 0.0).reshape(len(spans), len(x))
    out = []
    for hk, vk in zip(h.tolist(), v):
        coarse = hk * float(np.dot(w7, vk[:7]))
        fine = hk * float(np.dot(w15, vk[7:]))
        out.append((fine, abs(fine - coarse)))
    return out


def _refine(a, b, rel_tol, breakpoints, max_splits):
    """One problem's refinement loop, a step at a time.

    Yields the spans it needs panels for (the initial spans between
    breakpoints, then the two halves of each split) and receives their
    ``(fine, err)`` panels.  Returns ``(total, met)``: ``met`` is False when
    the split budget ran out with the error estimate above tolerance, but
    within the 100x margin that raises QuadratureBudgetError.
    """
    if b <= a:
        return 0.0, True
    a, b = float(a), float(b)
    pts = sorted({a, b, *(float(t) for t in breakpoints if a < t < b)})
    heap = []
    total = 0.0
    err_sum = 0.0
    counter = 0
    spans = list(zip(pts, pts[1:]))
    for (lo, hi), (fine, err) in zip(spans, (yield spans)):
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
            # cannot resolve further; drop its error from the budget
            err_sum -= err
            continue
        if splits >= max_splits:
            if err_sum > 100 * max(ABS_TOL, rel_tol * abs(total)):
                raise QuadratureBudgetError(
                    f"panel budget exhausted on [{a},{b}]; "
                    f"residual error ~{err_sum:.3e} vs total ~{total:.3e}"
                )
            return total, False
        splits += 1
        mid = 0.5 * (lo + hi)
        total -= fine
        err_sum -= err
        halves = [(lo, mid), (mid, hi)]
        for (s0, s1), (fn, er) in zip(halves, (yield halves)):
            total += fn
            err_sum += er
            counter += 1
            heapq.heappush(heap, (-er, counter, s0, s1, fn))
    return total, True


def adaptive_quad(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    breakpoints=(),
    max_splits: int = 20000,
) -> float:
    """Integrate vectorized ``f`` over [a, b] until the summed error estimate
    is at most max(ABS_TOL, rel_tol * |total|).

    This is `adaptive_quads` on one problem.  Raises QuadratureBudgetError
    when the split budget is exhausted with the global error estimate still
    above tolerance by a wide margin.
    """
    [(total, _)] = adaptive_quads(
        lambda x, _owner: f(x), [(a, b, rel_tol, breakpoints, max_splits)]
    )
    return total


def adaptive_quads(f, problems) -> list[tuple[float, bool]]:
    """Run the refinement of every problem ``(a, b, rel_tol, breakpoints,
    max_splits)`` in lock step: each step makes one call ``f(x, owner)`` on
    the nodes of every unfinished problem's spans, ``owner`` giving each
    node's problem index.

    Returns ``(total, met)`` per problem; each total is bit for bit what the
    problem gives when run alone, and ``met`` is False where the split
    budget ran out with the error above tolerance (by less than the margin
    that raises QuadratureBudgetError).
    """
    results: list = [None] * len(problems)
    pending = {}
    for k, problem in enumerate(problems):
        steps = _refine(*problem)
        try:
            pending[k] = (steps, next(steps))
        except StopIteration as done:
            results[k] = done.value
    while pending:
        step = list(pending.items())
        spans = [span for _, (_, wanted) in step for span in wanted]
        span_owner = np.repeat([k for k, _ in step], [len(w) for _, (_, w) in step])
        panels = _panels(
            lambda x: f(x, np.repeat(span_owner, x.size // len(spans))), spans
        )
        start = 0
        for k, (steps, wanted) in step:
            mine = panels[start : start + len(wanted)]
            start += len(wanted)
            try:
                pending[k] = (steps, steps.send(mine))
            except StopIteration as done:
                del pending[k]
                results[k] = done.value
    return results
