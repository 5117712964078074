"""Reference implementations for the equivalence properties of the
propagation loops.

:class:`ReferenceTable` is the two-``ceil_div`` relaxation test and
propagation loop that ``EstimateTable`` used before it kept per-vertex
relaxation limits (``test_estimates.py``): each relaxation recomputes both
bucket indices ⌈d·den/num⌉; a propagation keeps a current-key map and an
in-queue set, and counts work per edge.  :class:`ReferenceShortTree` is
the short tree's insertion writing every decrease through ``_set``
(``test_short.py``).  :func:`try_relax` and :func:`mark_touched` are the
relaxation and log write an ``EstimateTable`` step made through calls
before ``det.insert_step`` fused them into one kernel; the unfused
reference step of ``test_det.py`` and test-only surgery use them.
"""

import heapq
from fractions import Fraction
from math import inf

from incsssp.intmath import ceil_div

CAP = inf


def try_relax(table, u: int, v: int, w: int) -> bool:
    """Relax edge (u, v) of an ``EstimateTable`` iff the candidate crosses
    an εδ bucket boundary, writing the decrease through ``_set``."""
    table.work += 1
    du = table.dhat[u]
    if du == inf:
        return False
    cand = du + w
    if cand <= table.lim[v]:
        table._set(v, cand, u)
        return True
    return False


def mark_touched(table, vertices, b: int) -> None:
    """Log ``vertices`` as touched at step b of an ``EstimateTable``."""
    if vertices:
        table._touch_log.setdefault(b, []).extend(vertices)


class ReferenceTable:
    """Estimates, parents and counters with the reference relaxation."""

    def __init__(self, graph, source: int, cap: int, gran: Fraction,
                 on_decrease=None):
        n = graph.n
        self.graph = graph
        self.source = source
        self.cap = cap
        self.gran_num = gran.numerator
        self.gran_den = gran.denominator
        self.dhat: list = [CAP] * n
        self.dhat[source] = 0
        self.parent: list = [None] * n
        self.on_decrease = on_decrease
        self.work = 0
        self.decreases = 0

    def _set(self, v: int, value: int, parent) -> None:
        old = self.dhat[v]
        self.dhat[v] = value
        self.parent[v] = parent
        self.decreases += 1
        if self.on_decrease is not None:
            self.on_decrease(v, old, value)

    def try_relax(self, u: int, v: int, w: int) -> bool:
        self.work += 1
        du = self.dhat[u]
        if du is CAP or du == inf:
            return False
        cand = du + w
        if cand >= self.cap:
            return False
        num, den = self.gran_num, self.gran_den
        dv = self.dhat[v]
        if dv == inf or ceil_div(dv * den, num) > ceil_div(cand * den, num):
            self._set(v, cand, u)
            return True
        return False

    def partial_dijkstra(self, v_input) -> set[int]:
        if not v_input:
            return set()
        dhat = self.dhat
        adj = self.graph._adj
        cap = self.cap
        num, den = self.gran_num, self.gran_den
        heap = []
        current_key = {}
        in_queue = set()
        for v in v_input:
            key = dhat[v]
            current_key[v] = key
            in_queue.add(v)
            heapq.heappush(heap, (key, v))
        touched: set[int] = set()
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            key, u = pop(heap)
            if u not in in_queue or current_key[u] != key:
                continue
            in_queue.discard(u)
            self.work += 1
            du = dhat[u]
            if du == inf:
                continue
            for v, w in adj[u]:
                self.work += 1
                cand = du + w
                if cand >= cap:
                    continue
                dv = dhat[v]
                if dv == inf or ceil_div(dv * den, num) > ceil_div(cand * den, num):
                    self._set(v, cand, u)
                    touched.add(v)
                    current_key[v] = cand
                    if v not in in_queue:
                        in_queue.add(v)
                    push(heap, (cand, v))
                elif v in in_queue and cand < dv:
                    self._set(v, cand, u)
                    current_key[v] = cand
                    push(heap, (cand, v))
        return touched


class ReferenceShortTree:
    """The exact short tree's insertion as written before its loop wrote
    decreases in place: every decrease goes through ``_set``, and work is
    counted per edge.  Starts from a copy of ``tree``'s state."""

    def __init__(self, tree):
        t = tree.table
        self.graph = tree.graph
        self.cap = tree.cap
        self.dhat = list(t.dhat)
        self.parent = list(t.parent)
        self.work = t.work
        self.decreases = t.decreases

    def _set(self, v: int, value: int, parent) -> None:
        self.dhat[v] = value
        self.parent[v] = parent
        self.decreases += 1

    def insert(self, u: int, v: int, w: int) -> None:
        self.work += 1
        du = self.dhat[u]
        if du == inf:
            return
        cand = du + w
        if cand >= self.cap or cand >= self.dhat[v]:
            return
        self._set(v, cand, u)
        heap = [(cand, v)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > self.dhat[x]:
                continue
            self.work += 1
            for y, wy in self.graph._adj[x]:
                self.work += 1
                nd = d + wy
                if nd < self.cap and nd < self.dhat[y]:
                    self._set(y, nd, x)
                    heapq.heappush(heap, (nd, y))
