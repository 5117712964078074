"""Insert-only directed weighted graph over a fixed vertex universe.

Vertices are plain integer ids in [0, n).  Edges carry integer weights in
[1, W], the graph stays simple (no parallel edges), and nothing is ever
removed.  Edges are kept in arrival order, initial edges first, so runs
can be replayed bit-for-bit.
"""

from dataclasses import dataclass

from .errors import BudgetExceeded, DuplicateEdge, VertexOutOfRange, WeightOutOfRange


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    weight: int


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
        if n < 1:
            raise VertexOutOfRange("vertex count must be positive")
        if max_weight < 1:
            raise WeightOutOfRange("maximum weight must be >= 1")
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

    def _check(self, u: int, v: int, w: int) -> None:
        if not (isinstance(u, int) and 0 <= u < self.n
                and isinstance(v, int) and 0 <= v < self.n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside [0,{self.n})")
        if not (isinstance(w, int) and 1 <= w <= self.max_weight):
            raise WeightOutOfRange(f"weight {w} outside [1,{self.max_weight}]")
        if (u, v) in self._weights:
            raise DuplicateEdge(f"edge ({u},{v}) already present")
        if self.budget is not None and self.edge_count >= self.budget:
            raise BudgetExceeded(f"edge budget {self.budget} exhausted")

    def _add(self, u: int, v: int, w: int) -> None:
        self._check(u, v, w)
        self._adj[u].append((v, w))
        self._weights[(u, v)] = w
        self.edge_tails.append(u)
        self.edge_heads.append(v)
        self.edge_weights.append(w)

    @property
    def edge_count(self) -> int:
        return len(self.edge_tails)

    def _edges(self, lo: int, hi: int) -> list[Edge]:
        return list(map(Edge, self.edge_tails[lo:hi], self.edge_heads[lo:hi],
                        self.edge_weights[lo:hi]))

    @property
    def initial_edges(self) -> list[Edge]:
        """The edges installed before any insertion (a fresh list)."""
        return self._edges(0, self._initial_count)

    @property
    def insertion_log(self) -> list[Edge]:
        """The inserted edges, in insertion order (a fresh list)."""
        return self._edges(self._initial_count, self.edge_count)

    def load_initial(self, edges) -> None:
        """Install pre-existing edges; only valid before any logged insertion."""
        if self.edge_count > self._initial_count:
            raise BudgetExceeded("initial edges must precede all insertions")
        for (u, v, w) in edges:
            self._add(u, v, w)
            self._initial_count += 1

    def insert_edge(self, u: int, v: int, w: int) -> int:
        """Insert edge (u, v, w); returns its 1-based insertion index."""
        self._add(u, v, w)
        return self.edge_count - self._initial_count

    def out_edges(self, u: int) -> list[tuple[int, int]]:
        """Out-neighborhood of u as (head, weight) pairs, in insertion order."""
        if not (0 <= u < self.n):
            raise VertexOutOfRange(f"vertex {u} outside [0,{self.n})")
        return list(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._weights

    def weight_of(self, u: int, v: int) -> int | None:
        return self._weights.get((u, v))

    def replay_clone(self) -> "Graph":
        """Rebuild an identical graph from the initial edges plus the log."""
        g = Graph(self.n, self.max_weight, self.budget,
                  [(e.tail, e.head, e.weight) for e in self.initial_edges])
        for e in self.insertion_log:
            g.insert_edge(e.tail, e.head, e.weight)
        return g
