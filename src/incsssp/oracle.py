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

from .graph import check_source
from .intmath import ceil_log2, floor_log2


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


def dijkstra(graph, source: int) -> ExactDistances:
    """Exact single-source distances, ties broken by vertex id."""
    check_source(graph, source)
    n = graph.n
    dist = [inf] * n
    parent = [None] * n
    dist[source] = 0
    adj = graph._adj
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:   # a stale entry: each push lowered dist
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return ExactDistances(dist, parent)


def exact_distances_fast(graph, source: int) -> list:
    """Distances via scipy's compiled Dijkstra; same values as :func:`dijkstra`,
    which answers instead when a shortest path, at most (n−1)·W, could
    reach 2^53 and scipy's float64 sums could round."""
    n = graph.n
    if (n - 1) * graph.max_weight >= 2 ** 53:
        return dijkstra(graph, source).d
    check_source(graph, source)
    if not graph.edge_tails:   # scipy's set-up costs far more than this
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
    top = max((table.cap for _, table in tables), default=0)
    dtype = np.int64 if top + graph.max_weight < 2 ** 62 else object
    tails = np.array(graph.edge_tails, dtype=np.int64)
    heads = np.array(graph.edge_heads, dtype=np.int64)
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


def verify(engine, dist, eps_eff: Fraction,
           insertion_index: int = 0) -> VerifyReport:
    """Check d ≤ query(v) ≤ (1+ε_eff)·d for every vertex, and audit the
    edge invariant of every table in ``engine.audit_tables()``.

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
    breaches = audit_edge_invariant(engine.audit_tables(), engine.graph)
    return VerifyReport(insertion_index, lower, upper, breaches,
                        Fraction(*top) if top else Fraction(1), worst)


def phase_error_audit(det_range, dist):
    """Max additive error over vertices whose true distance is in [τ, 2τ).

    Callers compare the result with :func:`phase_error_bound` for the
    range's configured phase length and granularity.
    """
    tau, dhat = det_range.tau, det_range.table.dhat
    return max([0] + [dhat[v] - d for v, d in enumerate(dist)
                      if tau <= d < 2 * tau])


def _pow_bracket(base: int, q: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo·2^e ≤ base^q ≤ hi·2^e, by square-and-multiply
    on floor and ceiling truncations to ``bits`` leading bits."""
    def trim(lo, hi, e):
        s = max(0, hi.bit_length() - bits)
        return lo >> s, -(-hi >> s), e + s

    lo = hi = 1
    e = 0
    sq_lo = sq_hi = base      # bracket of base^(2^i)
    sq_e = 0
    while True:
        if q & 1:
            lo, hi, e = trim(lo * sq_lo, hi * sq_hi, e + sq_e)
        q >>= 1
        if not q:
            return lo, hi, e
        sq_lo, sq_hi, sq_e = trim(sq_lo * sq_lo, sq_hi * sq_hi, 2 * sq_e)


def _compare_powers(base: int, q: int, p: int) -> int:
    """Sign of base^q − 2^p, in integers.

    The bracket of base^q is refined, doubling its precision, until it
    excludes 2^p; once no bits are dropped it is exact, so this ends.
    """
    bits = 64
    while True:
        lo, hi, e = _pow_bracket(base, q, bits)
        if p < e or 1 << (p - e) < lo:
            return 1
        if 1 << (p - e) > hi:
            return -1
        if lo == hi:
            return 0
        bits *= 2


class PhaseErrorBound:
    """2·B·εδ·lg B + B·εδ, compared exactly with a rational error or ±inf.

    With x = (err − B·εδ)/(2·B·εδ) = p/q in lowest terms, err ≤ bound
    exactly when x ≤ lg B, that is 2^p ≤ B^q.  ``float()`` is for display.
    """

    __slots__ = ("phase_length", "eps_delta")

    def __init__(self, phase_length: int, eps_delta: Fraction):
        self.phase_length = phase_length
        self.eps_delta = Fraction(eps_delta)

    def _sign(self, err) -> int:
        """Sign of bound − err."""
        if err == inf:
            return -1
        if err == -inf:
            return 1
        B = self.phase_length
        unit = B * self.eps_delta
        x = (Fraction(err) - unit) / (2 * unit)
        p, q = x.numerator, x.denominator
        if p < floor_log2(B) * q:
            return 1
        if p > ceil_log2(B) * q:
            return -1
        return _compare_powers(B, q, p)

    def __lt__(self, err):
        return self._sign(err) < 0

    def __le__(self, err):
        return self._sign(err) <= 0

    def __gt__(self, err):
        return self._sign(err) > 0

    def __ge__(self, err):
        return self._sign(err) >= 0

    def __float__(self):
        B = self.phase_length
        return float(B * self.eps_delta) * (2 * log2(B) + 1)

    def __repr__(self):
        return (f"PhaseErrorBound(phase_length={self.phase_length}, "
                f"eps_delta={self.eps_delta})")


def phase_error_bound(phase_length: int, eps_delta: Fraction) -> PhaseErrorBound:
    """The per-phase error bound 2·B·εδ·lg B + B·εδ of a synchronized range,
    as a value that compares exactly with any rational error."""
    return PhaseErrorBound(phase_length, eps_delta)
