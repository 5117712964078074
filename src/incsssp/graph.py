"""Insert-only directed weighted graph over a fixed vertex universe.

Vertices are plain integer ids in [0, n).  Edges carry integer weights in
[1, W], the graph stays simple (no parallel edges), and nothing is ever
removed.  Edges are kept in arrival order, initial edges first, so runs
can be replayed bit-for-bit.  Propagation scans ``_adj[u]``, u's
``(head, weight)`` pairs; audits read the flat edge arrays.
"""

from .errors import (BudgetExceeded, DuplicateEdge, InvalidConfig,
                     InvalidParams, VertexOutOfRange, WeightOutOfRange)


def check_source(graph, source) -> None:
    """Raise :class:`InvalidConfig` unless ``source`` is an int in [0, n)."""
    if not (isinstance(source, int) and 0 <= source < graph.n):
        raise InvalidConfig(f"source {source} outside [0,{graph.n})")


class Graph:
    """Directed weighted graph receiving only edge insertions.

    ``budget``, when given, caps the total number of edges (initial edges
    plus logged insertions); structure parameters elsewhere are functions
    of this total, which is why it is declared up front.

    Single writer.  Readers may run between insertions; no locking is done
    during a mutation.
    """

    def __init__(self, n: int, max_weight: int, budget: int | None = None,
                 initial_edges=()):
        if not (isinstance(n, int) and n >= 1):
            raise VertexOutOfRange("vertex count must be a positive int")
        if not (isinstance(max_weight, int) and max_weight >= 1):
            raise WeightOutOfRange("maximum weight must be an int >= 1")
        if not (budget is None or (isinstance(budget, int) and budget >= 0)):
            raise BudgetExceeded("edge budget must be an int >= 0")
        self.n = n
        self.max_weight = max_weight
        self.budget = budget
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._weights: dict[tuple[int, int], int] = {}
        # flat edge arrays in arrival order, for vectorized audits; the
        # first ``_initial_count`` entries are the initial edges
        self.edge_tails: list[int] = []
        self.edge_heads: list[int] = []
        self.edge_weights: list[int] = []
        self._initial_count = 0
        self.load_initial(initial_edges)

    def insert_edge(self, u: int, v: int, w: int) -> None:
        """Insert edge (u, v, w); :meth:`load_initial` installs each
        initial edge through here too."""
        if not (isinstance(u, int) and 0 <= u < self.n
                and isinstance(v, int) and 0 <= v < self.n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside [0,{self.n})")
        if not (isinstance(w, int) and 1 <= w <= self.max_weight):
            raise WeightOutOfRange(f"weight {w} outside [1,{self.max_weight}]")
        if (u, v) in self._weights:
            raise DuplicateEdge(f"edge ({u},{v}) already present")
        if self.budget is not None and self.edge_count >= self.budget:
            raise BudgetExceeded(f"edge budget {self.budget} exhausted")
        self._adj[u].append((v, w))
        self._weights[(u, v)] = w
        self.edge_tails.append(u)
        self.edge_heads.append(v)
        self.edge_weights.append(w)

    @property
    def edge_count(self) -> int:
        return len(self.edge_tails)

    @property
    def insertion_log(self) -> list[tuple[int, int, int]]:
        """The inserted edges as ``(u, v, w)``, in insertion order (a fresh
        list); the benchmark's scipy baseline counts them
        (``bench/engines.py``)."""
        lo = self._initial_count
        return list(zip(self.edge_tails[lo:], self.edge_heads[lo:],
                        self.edge_weights[lo:]))

    def load_initial(self, edges) -> None:
        """Install pre-existing edges, all or none; only valid before any
        logged insertion.  A rejected edge removes the ones installed
        before it in this call, then the error propagates; an item that is
        not a ``(u, v, w)`` triple raises :class:`InvalidParams`."""
        if self.edge_count > self._initial_count:
            raise BudgetExceeded("initial edges must precede all insertions")
        start = self.edge_count
        try:
            for edge in edges:
                try:
                    u, v, w = edge
                except (TypeError, ValueError):
                    raise InvalidParams(
                        f"initial edge {edge!r} is not (u, v, w)") from None
                self.insert_edge(u, v, w)
        except BaseException:
            tails, heads = self.edge_tails, self.edge_heads
            while len(tails) > start:   # newest first: each is last in adj
                u, v = tails.pop(), heads.pop()
                self.edge_weights.pop()
                self._adj[u].pop()
                del self._weights[(u, v)]
            raise
        self._initial_count = self.edge_count

    def weight_of(self, u: int, v: int) -> int | None:
        return self._weights.get((u, v))
