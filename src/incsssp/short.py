"""Exact incremental shortest paths for small distances.

Distances below a fixed cap are maintained exactly: an insertion that
improves its head triggers a plain Dijkstra-style propagation (no bucket
slack) truncated at the cap.  With integer weights ≥ 1 each vertex can
improve at most cap times, so total work stays linear in n·cap + m without
any of the rounding machinery used for the long ranges.
"""

import heapq
from math import inf

from .det import bounded_dijkstra
from .lazy import DistanceTable


class ShortDistanceTree:
    """Exact distance estimates for every vertex with d(s, v) < cap."""

    def __init__(self, graph, source: int, cap: int):
        self.graph = graph
        self.source = source
        self.cap = cap
        # a plain table: exact relaxation has no bucket limits to keep
        self.table = DistanceTable(graph, source, cap)
        self.rebuild(bounded_dijkstra(graph, source, cap))

    def rebuild(self, tree: tuple[list, list, list]) -> None:
        """Exact distances below the cap from ``tree``, a
        ``(dist, parent, visit)`` as for ``DeterministicRange.rebuild``:
        ``visit`` holds every vertex whose entry may differ from the tree
        of the previous rebuild, the source-only tree for a new structure."""
        self.table.work += self.graph.edge_count + self.graph.n
        self.table.assign_exact(*tree)

    def insert(self, u: int, v: int, w: int) -> None:
        """Process one edge insertion, keeping sub-cap distances exact."""
        t = self.table
        t.work += 1
        du = t.dhat[u]
        if du == inf:
            return
        cand = du + w
        if cand >= self.cap or cand >= t.dhat[v]:
            return
        t._set(v, cand, u)
        self._propagate(v)

    def _propagate(self, start: int) -> None:
        """Dijkstra from ``start``, whose estimate was just lowered.

        Each decrease is written here as ``DistanceTable._set`` writes it,
        minimum table included, with no call: only a randomized range's
        hidden table sets ``on_decrease``.  Work and decreases are counted
        in locals and added once.
        """
        t = self.table
        dhat = t.dhat
        parent = t.parent
        min_value, min_owner = t.min_value, t.min_owner
        index = t.owner_index
        adj = self.graph._adj
        cap = self.cap
        heap = [(dhat[start], start)]
        push = heapq.heappush
        pop = heapq.heappop
        work = decreases = 0
        while heap:
            d, u = pop(heap)
            if d > dhat[u]:
                continue
            edges = adj[u]
            work += 1 + len(edges)
            for v, w in edges:
                nd = d + w
                if nd < cap and nd < dhat[v]:
                    dhat[v] = nd
                    parent[v] = u
                    decreases += 1
                    if nd < min_value[v]:
                        min_value[v] = nd
                        min_owner[v] = index
                    push(heap, (nd, v))
        t.work += work
        t.decreases += decreases

    def estimate(self, v: int):
        return self.table.dhat[v]

    def counters(self) -> dict:
        t = self.table
        return {"relaxations": t.work, "decreases": t.decreases}
