"""Ground-truth machinery: exact distances and per-insertion verification.

The reference Dijkstra here is hand-written and independent of every
incremental structure; a scipy-backed fast path computes the same distances
at C speed for bulk replays and is cross-checked against the reference (and
against exhaustive path enumeration on tiny graphs) in the test suite.
All pass/fail comparisons are exact: Python or numpy integers, and
rational bounds by cross-multiplication, never floats.
"""

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, log2

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra


@dataclass
class ExactDistances:
    d: list
    tree_parent: list


@dataclass
class VerifyReport:
    """Outcome of checking one engine state against exact distances."""
    insertion_index: int
    lower_violations: list = field(default_factory=list)   # (v, estimate, truth)
    upper_violations: list = field(default_factory=list)   # (v, estimate, truth, ratio)
    invariant_breaches: list = field(default_factory=list) # (structure, (u, v), amount)
    max_ratio: Fraction = Fraction(1)       # largest query/d over finite d > 0
    max_additive_error: int = 0             # largest query − d over finite both

    @property
    def clean(self) -> bool:
        return not (self.lower_violations or self.upper_violations
                    or self.invariant_breaches)


def dijkstra(graph, source: int, bound=None, check: bool = False) -> ExactDistances:
    """Exact single-source distances, ties broken by vertex id.

    ``bound`` truncates the search (keys ≥ bound are abandoned); ``check``
    re-verifies optimality on every edge before returning.
    """
    n = graph.n
    dist = [inf] * n
    parent = [None] * n
    dist[source] = 0
    adj = graph._adj
    heap = [(0, source)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if (bound is None or nd < bound) and nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if check:
        assert dist[source] == 0
        for u in range(n):
            du = dist[u]
            if du == inf:
                continue
            for v, w in adj[u]:
                if bound is not None and du + w >= bound:
                    continue
                assert dist[v] <= du + w, f"edge ({u},{v}) violates optimality"
    return ExactDistances(dist, parent)


def exact_distances_fast(graph, source: int) -> list:
    """Distances via scipy's compiled Dijkstra; same values as :func:`dijkstra`,
    which answers instead when a shortest path, at most (n−1)·W, could
    reach 2^53 and scipy's float64 sums could round."""
    n = graph.n
    if (n - 1) * graph.max_weight >= 2 ** 53:
        return dijkstra(graph, source).d
    if not graph.edge_tails:
        out = [inf] * n
        out[source] = 0
        return out
    mat = csr_matrix(
        (np.asarray(graph.edge_weights, dtype=np.float64),
         (np.asarray(graph.edge_tails, dtype=np.int64),
          np.asarray(graph.edge_heads, dtype=np.int64))),
        shape=(n, n))
    dist = _scipy_dijkstra(mat, indices=source)
    return [inf if d == inf else int(d) for d in dist]


def brute_force_distances(graph, source: int) -> list:
    """Minimum weight over all simple paths, by exhaustive DFS (tiny graphs)."""
    n = graph.n
    best = [inf] * n
    best[source] = 0
    adj = graph._adj
    on_path = [False] * n

    def walk(u, acc):
        on_path[u] = True
        for v, w in adj[u]:
            if not on_path[v]:
                nd = acc + w
                if nd < best[v]:
                    best[v] = nd
                walk(v, nd)
        on_path[u] = False

    walk(source, 0)
    return best


def audit_edge_invariant(tables, graph) -> list:
    """Edges breaching d̂(v) ≤ d̂(u) + ω(u,v) + εδ, as ``(label, (u, v),
    amount)`` for each ``(label, table)`` in ``tables``.

    Estimates are clipped to the cap: CAP on the head counts as the cap,
    and a tail at the cap never breaches.  The excess min(d̂(v), cap) −
    d̂(u) − ω is an integer in [−(cap+W), cap], so it exceeds εδ exactly
    when it exceeds ⌊εδ⌋; int64 holds it while cap + W < 2^62.
    """
    if not graph.edge_tails:
        return []
    top = max((table.cap for _, table in tables), default=0)
    dtype = np.int64 if top + graph.max_weight < 2 ** 62 else object
    tails = np.array(graph.edge_tails)
    heads = np.array(graph.edge_heads)
    weights = np.array(graph.edge_weights, dtype=dtype)
    breaches = []
    for label, table in tables:
        cap = table.cap
        dh = np.array([d if d < cap else cap for d in table.dhat], dtype)
        excess = dh[heads] - dh[tails] - weights
        for i in np.flatnonzero(excess > table.gran_num // table.gran_den):
            breaches.append((label, (int(tails[i]), int(heads[i])),
                             int(excess[i]) - table.gran))
    return breaches


def verify(engine, dist, eps_eff: Fraction, insertion_index: int = 0,
           audit: bool = True) -> VerifyReport:
    """Check d ≤ query(v) ≤ (1+ε_eff)·d for every vertex, plus edge audits.

    ``dist`` lists the true distances; an :class:`ExactDistances`, which
    ``bench/run.py`` passes, is read through its ``d``.  Every comparison is between Python integers: the
    upper bound as q·den > d·num and the worst ratio by cross-multiplying.
    Pure: repeated calls on the same state yield identical reports.
    """
    if isinstance(dist, ExactDistances):
        dist = dist.d
    one = 1 + Fraction(eps_eff)
    num, den = one.numerator, one.denominator
    lower, upper = [], []
    worst, top = 0, None    # largest q − d; (q, d) of the largest q/d, d > 0
    for v, (q, d) in enumerate(zip(engine.min_value, dist)):
        if d == inf:
            if q != inf:
                lower.append((v, q, d))
        elif q == inf:
            upper.append((v, q, d, inf))
        else:
            if q < d:
                lower.append((v, q, d))
            elif q * den > d * num:
                upper.append((v, q, d, Fraction(q, d) if d else inf))
            if q - d > worst:
                worst = q - d
            if d and (top is None or q * top[1] > top[0] * d):
                top = (q, d)
    breaches = (audit_edge_invariant(engine.audit_tables(), engine.graph)
                if audit else [])
    return VerifyReport(insertion_index, lower, upper, breaches,
                        Fraction(*top) if top else Fraction(1), worst)


def phase_error_audit(det_range, dist):
    """Max additive error over vertices whose true distance is in [τ, 2τ).

    Callers assert the result against 2·B·εδ·lg B + B·εδ for the range's
    configured phase length and granularity.
    """
    tau, dhat = det_range.tau, det_range.table.dhat
    return max([0] + [dhat[v] - d for v, d in enumerate(dist)
                      if tau <= d < 2 * tau])


def phase_error_bound(phase_length: int, eps_delta: Fraction) -> Fraction:
    """2·B·εδ·lg B + B·εδ; lg of a non-power-of-two goes through the float
    log (exact for the power-of-two phase lengths used in experiments)."""
    B = phase_length
    lg = Fraction(log2(B)) if B > 1 else Fraction(0)
    return 2 * B * eps_delta * lg + B * eps_delta


def additive_error_histogram(engine, dist, bin_width: int):
    """Histogram of query(v) − d(s,v) over reachable vertices (diagnostic)."""
    counts: dict[int, int] = {}
    for v, d in enumerate(dist):
        if d == inf:
            continue
        q = engine.min_value[v]
        key = inf if q == inf else int((q - d) // bin_width)
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (kv[0] == inf, kv[0])))
