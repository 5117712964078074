"""Top-level incremental SSSP object.

Derives all parameters from (n, m_budget, W, ε), owns the exact short tree
plus one lazy range per power of two, fans every insertion out to them, and
answers queries in O(1) from a per-vertex minimum table.  ``min_value[v]``
is the smallest estimate of v in any structure's visible table, and
``_min_owner[v]`` the index in ``_structures`` (the short tree is 0) of a
structure holding it.  Every visible table holds the two lists and its own
index, and writes them in place with each decrease it writes, inside the
propagation loops too (``lazy.DistanceTable``): a decrease costs no call,
and the tables hold no reference back to the engine.  Approximate shortest
paths are reported by walking parent pointers inside the owner.

A range whose bucket width εδ is below 1 is not built: the short tree
covers it.  Estimates and weights are integers, so with εδ < 1 every strict
decrease lowers the bucket index, and the relaxation limit is
``lim[v] = min(d̂(v), cap) − 1``, the exact relaxation rule.  Such a range
therefore holds the exact distances below its cap after every insertion,
in every mode (a randomized range's hidden pass and sync then lower
nothing).  εδ and the cap both grow with τ, so these ranges are the lowest
ones and their caps nest: a short tree whose cap is the largest of theirs
(or its own 2⌈√m⌉, 2⌈m^{1/3}⌉ when that is larger) gives every answer they
gave.  The paper keeps the exact tree only below √m or m^{1/3}, where the
buckets give no slack; the ε rescaling moves that point much higher, so on
graphs of a few thousand vertices every default-ε ``rand`` range is folded.

The short tree and every range, deterministic or randomized, give one
protocol (``table``, ``cap``, ``estimate``, ``insert``, ``phase_full``,
``rebuild(tree)``, ``counters``; ranges also ``audit_tables``), so the
engine never asks which kind a structure is.  ``tree`` is ``(dist, parent,
visit)``, and a rebuild visits every vertex whose entry may differ from the
tree of the structure's previous rebuild, where a new structure's previous
tree is the source-only tree its tables hold.  Each structure is built from
``det.bounded_dijkstra`` on the still empty graph, which reaches only the
source.  Exact re-initialization reads one bounded Dijkstra tree to the
largest cap, shared by every structure it serves: at ``preprocess`` all of
them, before an insertion every structure whose phase is full (only
deterministic ranges fill, together).  The engine keeps that tree and
advances it in place by a decrease-only Dijkstra from the edges inserted
since the previous boundary (the empty graph's tree at ``preprocess``):
distances only fall, so only a vertex that a new edge or a lowered vertex
reaches can change.  Each structure visits only the vertices whose distance
or parent changed, which that run names as it goes.

An update validates in the graph before changing it.  If a structure then
raises, the structures may hold part of the update, so the engine marks
itself broken and every later update, query and path report raises
``EngineBroken``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

import numpy as np

from . import det
from .det import DeterministicRange
from .errors import AlreadyPreprocessed, BudgetExceeded, EngineBroken, \
    InvalidConfig, InvalidParams, Unreachable, VertexOutOfRange
from .graph import Graph
from .intmath import ceil_cbrt, ceil_frac, ceil_log2, ceil_sqrt, floor_log2
from .rand import RandomizedRange
from .short import ShortDistanceTree

UNREACHABLE = inf


class _Broken:
    """A broken engine's minimum table: reading any entry raises
    ``EngineBroken``, so a valid query pays no test for it."""

    def __init__(self, reason: str):
        self.reason = reason

    def __getitem__(self, v):
        raise EngineBroken(self.reason)


MODES = ("det", "rand", "nosync")

# Deterministic phases last B = ⌊√m / c_B⌋ insertions.  The paper's
# c_B = Θ(log n) is an asymptotic constant: 6·⌈lg n⌉ gives B = 1 below
# m ≈ 17,000 at n = 2048, a rebuild before every insertion.  Of c_B in
# {1, 2, 3, 4, 6, 8, 6·⌈lg n⌉}, 2 measured fastest on chains, by 3.5× over
# c_B = 1, which is 1.35–1.7× faster on random graphs (README, "Phase
# length").  The guarantee holds for any c_B: ε is rescaled by
# B(2⌈lg B⌉+1)/⌈√m⌉.
DEFAULT_C_B = 2


@dataclass
class Config:
    """Construction-time parameters.

    ``m_budget`` is the total number of edges the instance will ever hold
    (initial plus inserted); batch lengths and error tolerances are
    functions of it, so it cannot grow later.  ``c_b`` overrides the
    phase-length constant c_B (default ``DEFAULT_C_B``, 2): deterministic
    phases last ⌊√m / c_B⌋ insertions.  ``iter_mult`` scales the
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

        self._broken: str | None = None   # why a failed update left it

        if config.mode in ("det", "nosync"):
            self._setup_deterministic()
        else:
            self._setup_randomized()
        self._structures = (self.short, *self.ranges)
        # each structure's visible table lowers the minimum in place as it
        # writes; the graph is still empty, so no estimate has decreased yet
        self.min_value: list = [inf] * n
        self.min_value[self.source] = 0
        self._min_owner: list = [None] * n   # indices into _structures
        self._min_owner[self.source] = 0
        for i, s in enumerate(self._structures):
            s.table.share_minimum(self.min_value, self._min_owner, i)
        self._tree_cap = max(s.cap for s in self._structures)
        # the empty graph's tree, which every structure was just built
        # from; each boundary advances it in place by the edges from _since
        self._tree = det.bounded_dijkstra(self.graph, self.source,
                                          self._tree_cap)[:2]
        self._since = 0

    # -- construction -----------------------------------------------------

    def _range_taus(self, floor_exp: int) -> list[int]:
        top = floor_log2(self.config.n * self.config.max_weight)
        return [1 << i for i in range(floor_exp, top + 1)]

    def _setup_deterministic(self) -> None:
        cfg = self.config
        m = cfg.m_budget
        sq = ceil_sqrt(m)
        c_b = cfg.c_b if cfg.c_b is not None else DEFAULT_C_B
        B = max(1, isqrt(m) // c_b)   # ⌊√m / c_B⌋
        lg_B = ceil_log2(B)
        # keep the per-phase error bound B·εδ·(2·lg B + 1) below ε·τ
        blow_up = Fraction(B * (2 * lg_B + 1), sq)
        if cfg.raw_epsilon or blow_up <= 1:
            self.eps_internal = self.eps
        else:
            self.eps_internal = self.eps / blow_up

        floor_exp = (ceil_log2(m) + 1) // 2   # smallest e with 2^e ≥ √m
        short_cap = 2 * sq
        self.ranges = []
        sync = cfg.mode == "det"
        for tau in self._range_taus(floor_exp):
            eps_delta = self.eps_internal * Fraction(tau, sq)
            cap = ceil_frac((1 + self.eps_internal) * 2 * tau)
            if eps_delta < 1:   # an exact tree: the short tree covers it
                short_cap = max(short_cap, cap)
                continue
            self.ranges.append(DeterministicRange(
                self.graph, self.source, tau, eps_delta, B, cap, sync=sync))
        self.short = ShortDistanceTree(self.graph, self.source, short_cap)
        self.guarantee_epsilon = self.eps

    def _setup_randomized(self) -> None:
        cfg = self.config
        m = cfg.m_budget
        if cfg.raw_epsilon:
            self.eps_internal = self.eps
        else:
            self.eps_internal = self.eps / (100 * self.lg_n)
        self.guarantee_epsilon = 100 * self.eps_internal * self.lg_n

        floor_exp = (ceil_log2(m) + 2) // 3   # smallest e with 2^e ≥ m^{1/3}
        short_cap = 2 * ceil_cbrt(m)
        self.ranges = []
        for i, tau in enumerate(self._range_taus(floor_exp)):
            eps_delta, cap = RandomizedRange.granularity_and_cap(
                tau, self.eps_internal, m, self.lg_n)
            if eps_delta < 1:   # an exact tree: the short tree covers it
                short_cap = max(short_cap, cap)
                continue
            # spawn key i, the index among all τ, whichever ranges are kept
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(cfg.seed, spawn_key=(i,))))
            self.ranges.append(RandomizedRange(
                self.graph, self.source, tau, self.eps_internal, m, self.lg_n,
                rng, iter_mult=Fraction(cfg.iter_mult)))
        self.short = ShortDistanceTree(self.graph, self.source, short_cap)

    # -- updates ------------------------------------------------------------

    def preprocess(self, initial_edges) -> None:
        """Load the initial graph and initialize every structure exactly.

        A non-iterable argument, or an item that is not a ``(u, v, w)``
        triple, raises :class:`InvalidParams` and installs nothing."""
        if self._broken is not None:
            raise EngineBroken(self._broken)
        if self._preprocessed or self.insertions_used:
            raise AlreadyPreprocessed("preprocess must come first, once")
        try:
            edges = iter(initial_edges)
        except TypeError:
            raise InvalidParams("initial edges must be an iterable of "
                                "(u, v, w)") from None
        edges = list(edges)
        if len(edges) > self.config.m_budget:
            raise BudgetExceeded("initial edges exceed the declared budget")
        self.graph.load_initial(edges)
        try:
            tree = self._next_tree()
            for s in self._structures:
                s.rebuild(tree)
        except BaseException as exc:
            self._poison("preprocess", exc)
            raise
        self._preprocessed = True

    def _next_tree(self) -> tuple[list, list, list]:
        """``(dist, parent, visit)``: the shared tree, advanced in place by
        the edges inserted since the previous boundary to the bounded
        Dijkstra tree of the current graph, and the vertices whose entry
        changed.  Distances only fall, so only a vertex that a new edge or
        a lowered vertex reaches can change (``det.advance_tree``).

        Every structure rebuilt at a boundary was rebuilt at the previous
        one too (or, before the first, built on the empty graph), so each
        needs to visit only those vertices.  No structure keeps the tree
        after its ``rebuild`` returns, so the next boundary may change it.
        """
        # through the module, so a wrapper on det.advance_tree sees it;
        # a tree to a higher cap is exact for every lower one
        dist, parent = self._tree
        visit = det.advance_tree(self.graph, dist, parent, self._since,
                                 self._tree_cap)
        self._since = self.graph.edge_count
        return dist, parent, visit

    def insert(self, u: int, v: int, w: int) -> None:
        """Insert one edge and bring every structure up to date.

        The graph validates before mutating, so a rejected insertion leaves
        every structure untouched.  A structure whose phase is full is
        rebuilt first, from one bounded Dijkstra shared by all of them.
        If a structure raises once the edge is in the graph, the engine is
        broken: the exception propagates, and every later call of
        ``insert``, ``preprocess``, ``query`` or ``report_path`` raises
        :class:`EngineBroken`.
        """
        if self._broken is not None:
            raise EngineBroken(self._broken)
        self.graph.insert_edge(u, v, w)
        self.insertions_used += 1
        try:
            tree = None
            for s in self._structures:
                if s.phase_full():
                    # deterministic ranges share B and b, so they fill
                    # together and the largest cap is needed anyway
                    tree = tree or self._next_tree()
                    s.rebuild(tree)
                s.insert(u, v, w)
        except BaseException as exc:
            self._poison(f"insert({u}, {v}, {w})", exc)
            raise

    def _poison(self, what: str, exc: BaseException) -> None:
        """Mark the engine broken: ``what`` failed with ``exc`` after
        changing the graph, so the structures, and the minimum table they
        write, may hold part of it.  Only the message is kept, since the
        exception's frames would tie the engine into a reference cycle."""
        self._broken = (f"{what} failed after changing the graph "
                        f"({type(exc).__name__}: {exc}); the engine is "
                        f"inconsistent")
        self.min_value = _Broken(self._broken)

    # -- queries --------------------------------------------------------------

    def query(self, v: int):
        """Current distance estimate; UNREACHABLE (math.inf) if every
        structure reports out-of-range."""
        # a non-integer index fails the comparison or the list lookup,
        # which costs nothing on the valid path, unlike an isinstance test
        try:
            if 0 <= v < self.graph.n:
                return self.min_value[v]
        except TypeError:
            pass
        raise VertexOutOfRange(f"vertex {v} outside [0,{self.graph.n})")

    def report_path(self, v: int) -> list[int]:
        """Vertex sequence of an approximate shortest path source → v.

        Walks parent pointers inside the structure owning the minimum; the
        result is a real path of weight ≤ query(v).
        """
        if self.query(v) == inf:
            raise Unreachable(f"vertex {v} currently unreachable")
        source = self.source
        parent = self._structures[self._min_owner[v]].table.parent
        path = [v]
        x = v
        while x != source:
            x = parent[x]
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
