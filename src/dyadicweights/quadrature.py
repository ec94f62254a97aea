"""Adaptive 1-d panel quadrature used by the weight and functional modules.

Gauss-Legendre panels under global error control: the panel with the largest
error estimate is split until the summed estimate meets the tolerance.  Each
panel's estimate is its 15-point rule against its 7-point rule.  The loop is
the sequential one, but the integrand is called on many panels at once: a
call evaluates the panels the loop needs now (all the initial spans between
breakpoints, or the two halves of a split) together with those it will need
next if no split adds error, the halves of the largest-error panels whose
errors must still go to meet the tolerance.  The loop then reads its panels
back, each evaluated once, until it needs one that no call has evaluated.
So ``f`` must be elementwise; the totals and the heap order are those of
evaluating each panel on its own, and a call that raises is redone on the
needed panels alone, so ``f`` never fails where the loop does not look.
``adaptive_quads`` runs many problems in lock step: each call is on the
panels of every unfinished problem, and each problem keeps the totals, heap
order and error sums it has alone; ``adaptive_quad`` is that driver on one
problem.  Known singular points are passed as breakpoints so panels never
straddle them; Gauss nodes are interior, so integrable endpoint
singularities converge under refinement, and indicator-type jumps are chased
only until their contribution to the global error is below budget.

The Gauss-Legendre rules are float literals (`_GL`), the values
``np.polynomial.legendre.leggauss`` gives, so a run loads no
``numpy.polynomial``; only an order outside the table calls it.
"""

from __future__ import annotations

import heapq

import numpy as np

# Absolute error floor, so integrals that vanish still terminate.
ABS_TOL = 1e-14


class QuadratureBudgetError(RuntimeError):
    pass


# Gauss-Legendre nodes and weights on [-1, 1] by order, bit for bit those
# of leggauss: orders 1-3 for the moments of polynomial parts of degree
# <= 5 in funcspace._monotone_sums, 7 and 15 for the panels.  An order
# outside the table is computed and kept on first use.
_GL: dict[int, tuple[np.ndarray, np.ndarray]] = {
    order: (np.array(x), np.array(w))
    for order, x, w in [
        (1, [0.0], [2.0]),
        (2, [-0.5773502691896257, 0.5773502691896257], [1.0, 1.0]),
        (
            3,
            [-0.7745966692414834, 0.0, 0.7745966692414834],
            [0.5555555555555557, 0.8888888888888888, 0.5555555555555557],
        ),
        (
            7,
            [
                -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
                0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
            ],
            [
                0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
                0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
                0.12948496616886973,
            ],
        ),
        (
            15,
            [
                -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
                -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
                -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
                0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
                0.9372733924007058, 0.9879925180204854,
            ],
            [
                0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
                0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
                0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
                0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
                0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
            ],
        ),
    ]
}


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL:
        _GL[order] = np.polynomial.legendre.leggauss(order)
    return _GL[order]


def _panels(f, keys) -> list[tuple[float, float]]:
    """(fine, |fine - coarse|) of the 15- and 7-point rules on every
    ``(owner, span)`` key, from one call ``f(x, owner)`` on the 21 nodes of
    each: the 15, then the 7 less the centre 0.0 both share (column 7).
    Each rule is one `np.vecdot` over the rows, which sums every contiguous
    row as `np.dot` sums it alone."""
    x7, w7 = _gl(7)
    x15, w15 = _gl(15)
    x = np.concatenate([x15, x7[:3], x7[4:]])
    owner, spans = zip(*keys)
    lo, hi = np.array(spans).T
    h = 0.5 * (hi - lo)
    nodes = (lo[:, None] + h[:, None] * (x + 1.0)).ravel()
    v = np.asarray(f(nodes, np.repeat(owner, len(x))), dtype=float)
    # nodes are interior, but float rounding can land one exactly on an
    # integrable singularity; such isolated hits carry zero measure
    v = np.where(np.isfinite(v), v, 0.0).reshape(len(spans), len(x))
    # np.take keeps rows contiguous: a strided row is summed in another order
    v7 = np.take(v, [15, 16, 17, 7, 18, 19, 20], axis=1)
    fine = h * np.vecdot(v[:, :15], w15)
    coarse = h * np.vecdot(v7, w7)
    return list(zip(fine.tolist(), np.abs(fine - coarse).tolist()))


def _heap_order(heap):
    """The entries of ``heap`` in the order heappop gives them, lazily and
    leaving the heap as it is: its tree is walked by a second heap."""
    front = [(heap[0], 0)] if heap else []
    while front:
        entry, i = heapq.heappop(front)
        yield entry
        for child in (2 * i + 1, 2 * i + 2):
            if child < len(heap):
                heapq.heappush(front, (heap[child], child))


def _refine(a, b, rel_tol, breakpoints, max_splits):
    """One problem's refinement loop, a step at a time.

    Yields ``(spans, ahead)``: the spans it needs panels for (the initial
    spans between breakpoints, then the two halves of each split), and a
    function giving the spans it would need next if no split added error;
    it receives the ``(fine, err)`` panels of ``spans``.  Returns ``(total,
    met)``: ``met`` is False when the split budget ran out with the error
    estimate above tolerance, but within the 100x margin that raises
    QuadratureBudgetError.
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
    for (lo, hi), (fine, err) in zip(spans, (yield spans, lambda: [])):
        total += fine
        err_sum += err
        counter += 1
        heapq.heappush(heap, (-err, counter, lo, hi, fine))
    width_floor = 4e-16 * (b - a)
    splits = 0

    def ahead():
        # the halves of the panels this loop pops and splits next if the
        # halves now asked for carry the popped fine and no error: the heap
        # prefix whose errors must go to meet the tolerance, within the
        # split budget
        left, budget, out = err_sum, max_splits - splits, []
        tol = max(ABS_TOL, rel_tol * abs(total + fine))
        for neg_err, _, lo, hi, _ in _heap_order(heap):
            if left <= tol:
                break
            left += neg_err
            if hi - lo <= width_floor or neg_err == 0.0:
                continue
            if not budget:
                break
            budget -= 1
            mid = 0.5 * (lo + hi)
            out += [(lo, mid), (mid, hi)]
        return out

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
        for (s0, s1), (fn, er) in zip(halves, (yield halves, ahead)):
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
    the nodes of the spans every unfinished problem needs and of those it
    would need next, ``owner`` giving each node's problem index.

    Each problem keeps its panels by span, and its refinement reads them
    from there as far as they go, so a step evaluates only spans that no
    earlier step did.  A step whose call raises is redone on the needed
    spans alone, so an integrand fails only where the problem alone meets
    the failure.  Returns ``(total, met)`` per problem; each total is bit
    for bit what the problem gives when run alone, and ``met`` is False
    where the split budget ran out with the error above tolerance (by less
    than the margin that raises QuadratureBudgetError).
    """
    results: list = [None] * len(problems)
    tables: list[dict] = [{} for _ in problems]
    # each unfinished problem's refinement and the spans it last asked for
    pending = {k: (_refine(*problem), None) for k, problem in enumerate(problems)}
    while True:
        needed, extra = [], []
        for k, (steps, wanted) in list(pending.items()):
            # replay the refinement from its table up to its first missing span
            table = tables[k]
            got = None if wanted is None else [table[span] for span in wanted]
            try:
                while True:
                    wanted, ahead = steps.send(got)
                    got = [table.get(span) for span in wanted]
                    if None in got:
                        break
            except StopIteration as done:
                del pending[k]
                results[k] = done.value
                continue
            pending[k] = (steps, wanted)
            needed += [(k, span) for span, panel in zip(wanted, got) if panel is None]
            extra += [(k, span) for span in ahead() if span not in table]
        if not pending:
            return results
        keys = needed + extra
        try:
            panels = _panels(f, keys)
        except Exception:
            if not extra:
                raise
            keys = needed
            panels = _panels(f, keys)
        for (k, span), panel in zip(keys, panels):
            tables[k][span] = panel
