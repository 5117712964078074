"""Top-level incremental SSSP object.

Derives all parameters from (n, m_budget, W, ε), owns the exact short tree
plus one lazy range per power of two, fans every insertion out to them, and
answers queries in O(1) from a per-vertex minimum table maintained through
decrease notifications.  Approximate shortest paths are reported by walking
parent pointers inside whichever structure owns the minimum.

The short tree and every range, deterministic or randomized, give one
protocol (``table``, ``cap``, ``estimate``, ``insert``, ``phase_full``,
``rebuild(tree)``, ``counters``; ranges also ``audit_tables``), so the
engine never asks which kind a structure is.  Exact (re)initialization
runs one bounded Dijkstra to the largest cap, shared by every structure
it serves: at ``preprocess`` all of them, before an insertion every
structure whose phase is full (only deterministic ranges fill, together).
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

import numpy as np

from . import det
from .det import DeterministicRange
from .errors import AlreadyPreprocessed, BudgetExceeded, InvalidConfig, \
    Unreachable, VertexOutOfRange
from .graph import Graph
from .intmath import ceil_cbrt, ceil_frac, ceil_log2, ceil_sqrt, floor_log2
from .rand import RandomizedRange
from .short import ShortDistanceTree

UNREACHABLE = inf

MODES = ("det", "rand", "nosync")


@dataclass
class Config:
    """Construction-time parameters.

    ``m_budget`` is the total number of edges the instance will ever hold
    (initial plus inserted); batch lengths and error tolerances are
    functions of it, so it cannot grow later.  ``c_b`` overrides the
    phase-length constant (default 6·⌈lg n⌉); ``iter_mult`` scales the
    fixing-phase sampling iteration count; ``raw_epsilon`` skips the
    internal ε rescaling in both modes; ``seed`` seeds the randomized
    ranges' window draws.
    """
    n: int
    m_budget: int
    max_weight: int
    eps: Fraction = Fraction(1, 4)
    source: int = 0
    mode: str = "det"
    seed: int = 0
    c_b: int | None = None
    iter_mult: Fraction = Fraction(1)
    raw_epsilon: bool = False

    def validate(self) -> None:
        ints = ("n", "m_budget", "max_weight", "source", "seed")
        for name in ints if self.c_b is None else ints + ("c_b",):
            if not isinstance(getattr(self, name), int):
                raise InvalidConfig(f"{name} must be an int")
        if self.n < 1:
            raise InvalidConfig("n must be >= 1")
        if not (0 <= self.source < self.n):
            raise InvalidConfig("source outside vertex universe")
        if self.m_budget < 1:
            raise InvalidConfig("m_budget must be >= 1")
        if self.max_weight < 1:
            raise InvalidConfig("max weight must be >= 1")
        for name in ("eps", "iter_mult"):
            if not isinstance(getattr(self, name), (int, Fraction)):
                raise InvalidConfig(f"{name} must be an int or a Fraction")
        eps = Fraction(self.eps)
        if not (0 < eps < 1):
            raise InvalidConfig("eps must lie in (0, 1)")
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}")
        if self.c_b is not None and self.c_b < 1:
            raise InvalidConfig("c_b override must be >= 1")
        if Fraction(self.iter_mult) <= 0:
            raise InvalidConfig("iteration multiplier must be positive")
        if not (0 <= self.seed < 2 ** 64):
            raise InvalidConfig("seed must fit in 64 bits")


class _MinCallback:
    """Decrease listener that keeps one vertex's global minimum current.

    The structure's tables hold the listener, and the engine's owner list
    holds the structures, so the listener holds the minimum values (plain
    numbers) and only weak references to the engine and the structure:
    strong references back would make every engine and every structure
    owning a minimum a reference cycle, which is freed only when the
    cyclic garbage collector next runs.
    """

    __slots__ = ("min_value", "engine", "owner")

    def __init__(self, engine, owner):
        self.min_value = engine.min_value
        self.engine = weakref.ref(engine)
        self.owner = weakref.ref(owner)

    def __call__(self, v, old, new):
        if new < self.min_value[v]:
            self.min_value[v] = new
            engine = self.engine()
            if engine is not None:   # else no one can read the minimum
                engine._min_owner[v] = self.owner()


class IncrementalSSSP:
    """Single-source (1+ε)-approximate distances under edge insertions.

    Public API is externally synchronized: one logical writer.  Queries
    never read the randomized hidden tables; their influence reaches the
    answers only through synchronization steps inside fixing phases.
    """

    def __init__(self, config: Config):
        config.validate()
        self.config = config
        self.eps = Fraction(config.eps)
        n, m, W = config.n, config.m_budget, config.max_weight
        self.graph = Graph(n, W, budget=m)
        self.source = config.source
        self.lg_n = ceil_log2(n) if n > 1 else 1
        self.insertions_used = 0
        self._preprocessed = False

        self.min_value: list = [inf] * n
        self.min_value[self.source] = 0
        self._min_owner: list = [None] * n

        if config.mode in ("det", "nosync"):
            self._setup_deterministic()
        else:
            self._setup_randomized()
        self._structures = (self.short, *self.ranges)
        # the graph is still empty, so no estimate has decreased yet
        for s in self._structures:
            s.table.on_decrease = _MinCallback(self, s)
        self._min_owner[self.source] = self.short
        self._tree_cap = max(s.cap for s in self._structures)

    # -- construction -----------------------------------------------------

    def _range_taus(self, floor_exp: int) -> list[int]:
        top = floor_log2(self.config.n * self.config.max_weight)
        return [1 << i for i in range(floor_exp, top + 1)]

    def _setup_deterministic(self) -> None:
        cfg = self.config
        m = cfg.m_budget
        sq = ceil_sqrt(m)
        c_b = cfg.c_b if cfg.c_b is not None else 6 * self.lg_n
        B = max(1, isqrt(m) // c_b)   # ⌊√m / c_B⌋
        lg_B = ceil_log2(B) if B > 1 else 0
        # keep the per-phase error bound B·εδ·(2·lg B + 1) below ε·τ
        blow_up = Fraction(B * (2 * lg_B + 1), sq)
        if cfg.raw_epsilon or blow_up <= 1:
            self.eps_internal = self.eps
        else:
            self.eps_internal = self.eps / blow_up

        self.short = ShortDistanceTree(self.graph, self.source, 2 * sq)

        floor_exp = (ceil_log2(m) + 1) // 2   # smallest e with 2^e ≥ √m
        self.ranges = []
        sync = cfg.mode == "det"
        for tau in self._range_taus(floor_exp):
            eps_delta = self.eps_internal * Fraction(tau, sq)
            cap = ceil_frac((1 + self.eps_internal) * 2 * tau)
            self.ranges.append(DeterministicRange(
                self.graph, self.source, tau, eps_delta, B, cap, sync=sync))
        self.guarantee_epsilon = self.eps

    def _setup_randomized(self) -> None:
        cfg = self.config
        m = cfg.m_budget
        if cfg.raw_epsilon:
            self.eps_internal = self.eps
        else:
            self.eps_internal = self.eps / (100 * self.lg_n)
        self.guarantee_epsilon = 100 * self.eps_internal * self.lg_n

        self.short = ShortDistanceTree(self.graph, self.source,
                                       2 * ceil_cbrt(m))

        floor_exp = (ceil_log2(m) + 2) // 3   # smallest e with 2^e ≥ m^{1/3}
        self.ranges = []
        for i, tau in enumerate(self._range_taus(floor_exp)):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(cfg.seed, spawn_key=(i,))))
            self.ranges.append(RandomizedRange(
                self.graph, self.source, tau, self.eps_internal, m, self.lg_n,
                rng, iter_mult=Fraction(cfg.iter_mult)))

    # -- updates ------------------------------------------------------------

    def preprocess(self, initial_edges) -> None:
        """Load the initial graph and initialize every structure exactly."""
        if self._preprocessed or self.insertions_used:
            raise AlreadyPreprocessed("preprocess must come first, once")
        edges = list(initial_edges)
        if len(edges) > self.config.m_budget:
            raise BudgetExceeded("initial edges exceed the declared budget")
        self.graph.load_initial(edges)
        # through the module, so a wrapper on det.bounded_dijkstra sees it;
        # a run to a higher cap is exact for every lower one
        tree = det.bounded_dijkstra(self.graph, self.source, self._tree_cap)
        for s in self._structures:
            s.rebuild(tree)
        self._preprocessed = True

    def insert(self, u: int, v: int, w: int) -> None:
        """Insert one edge and bring every structure up to date.

        The graph validates before mutating, so a rejected insertion leaves
        every structure untouched.  A structure whose phase is full is
        rebuilt first, from one bounded Dijkstra shared by all of them.
        """
        self.graph.insert_edge(u, v, w)
        self.insertions_used += 1
        tree = None
        for s in self._structures:
            if s.phase_full():
                if tree is None:
                    # deterministic ranges share B and b, so they fill
                    # together and the largest cap is needed anyway
                    tree = det.bounded_dijkstra(self.graph, self.source,
                                                self._tree_cap)
                s.rebuild(tree)
            s.insert(u, v, w)

    # -- queries --------------------------------------------------------------

    def query(self, v: int):
        """Current distance estimate; UNREACHABLE (math.inf) if every
        structure reports out-of-range."""
        if not (0 <= v < self.graph.n):
            raise VertexOutOfRange(f"vertex {v} outside [0,{self.graph.n})")
        return self.min_value[v]

    def report_path(self, v: int) -> list[int]:
        """Vertex sequence of an approximate shortest path source → v.

        Walks parent pointers inside the structure owning the minimum; the
        result is a real path of weight ≤ query(v).
        """
        if self.query(v) == inf:
            raise Unreachable(f"vertex {v} currently unreachable")
        if v == self.source:
            return [self.source]
        table = self._min_owner[v].table
        path = [v]
        x = v
        while x != self.source:
            x = table.parent[x]
            path.append(x)
        path.reverse()
        return path

    # -- introspection -----------------------------------------------------

    def audit_tables(self):
        """(label, table) pairs across all ranges, hidden twins included.

        Harness-side visibility for invariant audits; never feeds answers.
        """
        return [pair for r in self.ranges for pair in r.audit_tables()]

    def counters(self) -> dict:
        """Cumulative instrumentation totals across all structures."""
        totals = dict.fromkeys(
            ("relaxations", "decreases", "rebuilds", "fixing_phases"), 0)
        for s in self._structures:
            for key, value in s.counters().items():
                totals[key] += value
        return totals
