"""Shared machinery for all lazy shortest-path structures.

An :class:`EstimateTable` keeps one distance estimate per vertex, a parent
pointer recording the edge that caused the last decrease, and per-phase
touch timestamps.  Relaxations fire only when they would lower the
quantized bucket index ⌈d/εδ⌉, with εδ held as an exact rational so the
boundary test never suffers floating-point misclassification.

Estimates at or above the table's cap are stored as the CAP sentinel
(``math.inf``); its bucket is maximal by construction, and a relaxation out
of CAP compares against the real candidate value.
"""

import heapq
from fractions import Fraction
from math import inf

from .errors import NotAPath
from .intmath import ceil_div

CAP = inf


def bucket(d, num: int, den: int):
    """Bucket index ⌈d·den/num⌉ of an estimate for granularity εδ = num/den.

    CAP maps to a dedicated maximal bucket.
    """
    if d is CAP or d == inf:
        return inf
    return ceil_div(d * den, num)


class EstimateTable:
    """Per-vertex distance estimates with εδ-quantized relaxation.

    Estimates only ever decrease.  Every decrease is reported through the
    ``on_decrease(vertex, old, new)`` callback (CAP passed as ``math.inf``),
    which is how potential tracking and the global minimum table stay
    current without scanning.
    """

    def __init__(self, graph, source: int, cap: int, gran: Fraction,
                 on_decrease=None):
        if gran <= 0:
            raise ValueError("granularity must be positive")
        n = graph.n
        self.graph = graph
        self.source = source
        self.cap = cap
        self.gran = gran
        self.gran_num = gran.numerator
        self.gran_den = gran.denominator
        self.dhat: list = [CAP] * n
        self.dhat[source] = 0
        self.parent: list = [None] * n
        self.last_touched = [0] * n
        self._touch_log: dict[int, list[int]] = {}
        self.on_decrease = on_decrease
        # instrumentation
        self.work = 0          # edges examined + queue extractions
        self.decreases = 0     # successful estimate decreases

    # -- state updates ------------------------------------------------

    def _set(self, v: int, value: int, parent) -> None:
        old = self.dhat[v]
        self.dhat[v] = value
        self.parent[v] = parent
        self.decreases += 1
        if self.on_decrease is not None:
            self.on_decrease(v, old, value)

    def try_relax(self, u: int, v: int, w: int) -> bool:
        """Relax edge (u, v) iff the candidate crosses an εδ bucket boundary."""
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

    def mark_touched(self, v: int, b: int) -> None:
        self.last_touched[v] = b
        self._touch_log.setdefault(b, []).append(v)

    def touched_in_window(self, lo: int, hi: int) -> set[int]:
        """Vertices whose last touch falls in (lo, hi]."""
        log = self._touch_log
        lt = self.last_touched
        out = set()
        for t in range(lo + 1, hi + 1):
            for v in log.get(t, ()):
                if lt[v] == t:
                    out.add(v)
        return out

    def reset_phase(self) -> None:
        """Zero all touch timestamps (called on rebuild / fixing phase)."""
        lt = self.last_touched
        for vs in self._touch_log.values():
            for v in vs:
                lt[v] = 0
        self._touch_log.clear()

    def assign_exact(self, dist, parents) -> None:
        """Overwrite with exact distances (clamped at cap) and tree parents.

        Exact distances never exceed current estimates, so this is a pure
        sequence of decreases plus parent refreshes.  ``dist`` may come from
        a run to a higher cap; entries at or above this table's cap (CAP
        included) are skipped.
        """
        cap = self.cap
        visit = [v for v, d in enumerate(dist) if d < cap]
        dhat = self.dhat
        parent = self.parent
        source = self.source
        set_ = self._set
        for v in visit:
            d = dist[v]
            old = dhat[v]
            if d < old:
                set_(v, d, parents[v])
            elif d == old and v != source:
                parent[v] = parents[v]

    # -- propagation ---------------------------------------------------

    def partial_dijkstra(self, v_input) -> set[int]:
        """Queue-driven propagation seeded from ``v_input``.

        Extracts vertices in key order; a bucket-crossing relaxation adds
        the head to the queue and to the returned touched set, while an
        in-queue head is decrease-keyed without being counted as touched.
        Each vertex leaves the queue at most once per call, ties broken by
        vertex id.
        """
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

    # -- diagnostics ----------------------------------------------------

    def slack(self, path, height=None):
        """Worst additive error witnessed along ``path``.

        With ``height`` absent this is max_i(d̂(v_l) − d̂(v_i) − d_path(v_i, v_l));
        with ``height`` given, d̂(v_l) is replaced by the fixed value.
        Read-only; raises NotAPath if a consecutive edge is missing.
        """
        if not path:
            raise NotAPath("empty vertex sequence")
        weights = []
        for a, b in zip(path, path[1:]):
            w = self.graph.weight_of(a, b)
            if w is None:
                raise NotAPath(f"missing edge ({a},{b})")
            weights.append(w)
        ref = self.dhat[path[-1]] if height is None else height
        best = None
        suffix = 0
        for i in range(len(path) - 1, -1, -1):
            term = ref - self.dhat[path[i]] - suffix
            if best is None or term > best:
                best = term
            if i > 0:
                suffix += weights[i - 1]
        return best
