"""Shared machinery for all lazy shortest-path structures.

A :class:`DistanceTable` keeps one distance estimate per vertex and a
parent pointer recording the edge that caused the last decrease; the exact
short tree uses it as it is.  An :class:`EstimateTable` adds εδ-quantized
relaxation and a per-phase touch log, one vertex list per step, for the
lazy ranges.  Relaxations fire only when they would lower the bucket index
⌈d·den/num⌉ of εδ = num/den, held as an exact rational so the boundary
test never suffers floating-point misclassification.

Every write of a decrease also lowers a minimum table in place: the
engine's ``min_value`` and ``_min_owner`` lists, which each visible table
holds with its structure's index; a table standing alone is its own
minimum.  The hot loops (``EstimateTable.partial_dijkstra``,
``ShortDistanceTree._propagate``) write estimate, parent, limit and
minimum inline, as ``_set`` does, and count work and decreases in locals.
The one per-decrease call left is the optional ``on_decrease`` hook, which
only the hidden table of a randomized range sets: it records the vertices
that table lowered since the last fixing phase and keeps its potential and
window slots (``incsssp.rand``).

Estimates at or above the table's cap are stored as the CAP sentinel
(``math.inf``); its bucket is maximal by construction, and a relaxation out
of CAP compares against the real candidate value.

Every relaxation test is one integer comparison, ``cand <= lim[v]``.  An
estimate table keeps ``lim[v]``, the largest candidate that lands in a
lower bucket than d̂(v) and stays below the cap:

    lim[v] = (⌈d̂(v)·den/num⌉ − 1)·num // den    for a finite d̂(v),
    lim[v] = cap − 1                             for CAP.

For an integer candidate c and k = ⌈d̂(v)·den/num⌉, ⌈c·den/num⌉ ≤ k − 1
iff c ≤ (k − 1)·num/den iff c ≤ ⌊(k − 1)·num/den⌋, and that bound lies
below d̂(v) < cap.  Every write of an estimate (``_set``, ``assign_exact``,
``partial_dijkstra``) refreshes ``lim``, so the invariant holds between
any two calls.
"""

import heapq
from fractions import Fraction
from math import inf

from .errors import InvalidConfig
from .graph import check_source

CAP = inf


def relax_limit(d, num: int, den: int, cap):
    """``lim`` for estimate ``d`` at granularity num/den below ``cap``."""
    if d == inf:
        return cap - 1
    return (-(-d * den // num) - 1) * num // den


class DistanceTable:
    """Per-vertex distance estimates with parent pointers.

    Estimates only ever decrease.  Every write of a decrease also lowers
    the minimum table the table reports to, in place: ``min_value[v]``
    takes the new estimate when it is smaller, and ``min_owner[v]`` then
    takes ``owner_index``.  Until :meth:`share_minimum` connects it to an
    engine's, a table is its own minimum: ``min_value`` is ``dhat``, and
    every write lowers ``dhat[v]`` before the minimum test, which then
    never fires (so there is no owner list to write).  The optional
    ``on_decrease(vertex, old, new)`` hook (CAP passed as ``math.inf``) is
    called before each decrease is written; only the hidden table of a
    randomized range sets it.
    """

    def __init__(self, graph, source: int, cap, on_decrease=None):
        check_source(graph, source)
        n = graph.n
        if not (cap == inf or isinstance(cap, int) and cap >= 1):
            raise InvalidConfig("cap must be an int >= 1 or math.inf")
        self.graph = graph
        self.source = source
        self.cap = cap
        self.dhat: list = [CAP] * n
        self.dhat[source] = 0
        self.parent: list = [None] * n
        self.min_value: list = self.dhat
        self.min_owner: list | None = None
        self.owner_index = 0
        self.on_decrease = on_decrease
        # instrumentation
        self.work = 0          # edges examined + queue extractions
        self.decreases = 0     # successful estimate decreases

    def share_minimum(self, min_value: list, min_owner: list,
                      index: int) -> None:
        """Report every later decrease to these minimum lists, as owner
        ``index``.  The table holds only the lists, so an engine sharing
        its own forms no reference cycle with its tables."""
        self.min_value = min_value
        self.min_owner = min_owner
        self.owner_index = index

    def _set(self, v: int, value: int, parent) -> None:
        if self.on_decrease is not None:
            self.on_decrease(v, self.dhat[v], value)
        self.dhat[v] = value
        self.parent[v] = parent
        self.decreases += 1
        if value < self.min_value[v]:
            self.min_value[v] = value
            self.min_owner[v] = self.owner_index

    def assign_exact(self, dist, parents, vertices) -> list[int]:
        """Overwrite ``vertices`` with exact distances (clamped at cap) and
        tree parents.

        Exact distances never exceed current estimates, so this is a pure
        sequence of decreases plus parent refreshes.  ``dist`` may come from
        a run to a higher cap; entries at or above this table's cap (CAP
        included) are skipped.  ``vertices`` lists each vertex to visit
        once; the order changes nothing, since a visit writes only that
        vertex's entries and the hidden listener's potential is a sum.
        Decreases are written here, not through ``_set``; returns the
        lowered vertices.
        """
        cap = self.cap
        dhat = self.dhat
        parent = self.parent
        min_value, min_owner = self.min_value, self.min_owner
        index = self.owner_index
        notify = self.on_decrease
        lowered = []
        for v in vertices:
            d = dist[v]
            if d >= cap:
                continue
            old = dhat[v]
            if d < old:
                if notify is not None:
                    notify(v, old, d)
                dhat[v] = d
                parent[v] = parents[v]
                lowered.append(v)
                if d < min_value[v]:
                    min_value[v] = d
                    min_owner[v] = index
            elif d == old:
                parent[v] = parents[v]
        self.decreases += len(lowered)
        return lowered


class EstimateTable(DistanceTable):
    """Distance estimates with εδ-quantized relaxation and a touch log."""

    def __init__(self, graph, source: int, cap: int, gran: Fraction,
                 on_decrease=None):
        if not (isinstance(gran, (int, Fraction)) and gran > 0):
            raise InvalidConfig("granularity must be a positive int or Fraction")
        super().__init__(graph, source, cap, on_decrease)
        n = graph.n
        self.gran = gran
        self.gran_num = num = gran.numerator
        self.gran_den = den = gran.denominator
        self.lim: list = [relax_limit(CAP, num, den, cap)] * n
        self.lim[source] = relax_limit(0, num, den, cap)
        self._touch_log: dict[int, list[int]] = {}
        # in-queue flags of partial_dijkstra, all False between calls
        self._queued = [False] * n

    # -- state updates ------------------------------------------------

    def _set(self, v: int, value: int, parent) -> None:
        num, den = self.gran_num, self.gran_den
        # relax_limit of a finite value, inlined as in partial_dijkstra
        self.lim[v] = (-(-value * den // num) - 1) * num // den
        DistanceTable._set(self, v, value, parent)

    def assign_exact(self, dist, parents, vertices) -> list[int]:
        """As :meth:`DistanceTable.assign_exact`, keeping ``lim`` in step."""
        lowered = super().assign_exact(dist, parents, vertices)
        lim = self.lim
        num, den = self.gran_num, self.gran_den
        for v in lowered:   # relax_limit, inlined as in _set
            lim[v] = (-(-dist[v] * den // num) - 1) * num // den
        return lowered

    def try_relax(self, u: int, v: int, w: int) -> bool:
        """Relax edge (u, v) iff the candidate crosses an εδ bucket boundary."""
        self.work += 1
        du = self.dhat[u]
        if du == inf:
            return False
        cand = du + w
        if cand <= self.lim[v]:
            self._set(v, cand, u)
            return True
        return False

    def mark_touched(self, vertices, b: int) -> None:
        """Log ``vertices`` as touched at step b."""
        if vertices:
            self._touch_log.setdefault(b, []).extend(vertices)

    def touched_in_window(self, lo: int, hi: int) -> set[int]:
        """Vertices touched at some step in (lo, hi].

        Both callers pass the current step as ``hi``, so no touch lies past
        the window and the union of its step lists is the set of vertices
        whose last touch falls in it: ``det.insert_step`` reads its batch,
        and a randomized range's fixing phase reads (0, b], every vertex
        the visible table lowered in the phase, for its sync.

        Steps are logged in increasing order within a phase (each step
        logs only at its own index, and :meth:`reset_phase` clears the
        log), so the log's last key is its latest step: ``det.insert_step``
        reads it to skip a window that holds no logged step.
        """
        log = self._touch_log
        out = set()
        for t in range(lo + 1, hi + 1):
            vs = log.get(t)
            if vs:   # most steps touch nothing: skip the update call
                out.update(vs)
        return out

    def reset_phase(self) -> None:
        """Clear the touch log (called on rebuild / fixing phase)."""
        self._touch_log.clear()

    # -- propagation ---------------------------------------------------

    def partial_dijkstra(self, v_input) -> set[int]:
        """Queue-driven propagation seeded from ``v_input``.

        Extracts vertices in key order; a bucket-crossing relaxation adds
        the head to the queue and to the returned touched set, while an
        in-queue head is decrease-keyed without being counted as touched.
        Each vertex leaves the queue at most once per call, ties broken by
        vertex id.  The crossing test is ``cand <= lim[v]``: ``lim[v]`` is
        the largest candidate below the cap whose bucket lies below that of
        d̂(v) (see the module docstring), refreshed by every write of d̂.
        Each decrease is written here as ``_set`` writes it, minimum table
        included, with no call unless ``on_decrease`` is set; work and
        decreases are counted in locals and added once.
        """
        dhat = self.dhat
        lim = self.lim
        parent = self.parent
        min_value, min_owner = self.min_value, self.min_owner
        index = self.owner_index
        notify = self.on_decrease
        num, den = self.gran_num, self.gran_den
        adj = self.graph._adj
        cap = self.cap
        queued = self._queued
        heap = []
        for v in v_input:
            if not queued[v]:
                queued[v] = True
                heap.append((dhat[v], v))
        heapq.heapify(heap)
        touched: set[int] = set()
        push = heapq.heappush
        pop = heapq.heappop
        work = decreases = 0
        try:
            while heap:
                du, u = pop(heap)
                # each push stores its key as d̂ and lies strictly below the
                # vertex's previous estimate, so only the latest entry of a
                # vertex matches d̂: the others are stale
                if du != dhat[u]:
                    continue
                queued[u] = False
                if du == inf:
                    work += 1
                    continue
                edges = adj[u]
                work += 1 + len(edges)
                for v, w in edges:
                    cand = du + w
                    if cand <= lim[v]:
                        touched.add(v)
                        queued[v] = True
                    elif not queued[v] or cand >= dhat[v] or cand >= cap:
                        continue
                    if notify is not None:
                        notify(v, dhat[v], cand)
                    dhat[v] = cand
                    lim[v] = (-(-cand * den // num) - 1) * num // den
                    parent[v] = u
                    decreases += 1
                    if cand < min_value[v]:
                        min_value[v] = cand
                        min_owner[v] = index
                    push(heap, (cand, v))
        finally:
            # a drained heap has cleared every flag; an exception may not
            for _, v in heap:
                queued[v] = False
            self.work += work
            self.decreases += decreases
        return touched
