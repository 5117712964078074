"""Top-level incremental SSSP object.

Construction plans, then builds.  ``_plan`` derives every parameter from
(n, m_budget, W, ε) in one loop over the scales τ = 2^e, both modes alike,
and sets ``plan``: one ``(spawn key, τ, εδ, cap)`` per range to build; the
constructor then builds the exact short tree and one lazy range per entry.
The engine fans every insertion out to them and answers queries in O(1)
from a per-vertex minimum table.  ``min_value[v]`` is the smallest estimate
of v in any structure's visible table, and ``_min_owner[v]`` the index in
``_structures`` (the short tree is 0) of a structure holding it.  Every
visible table holds the two lists and its own index, and writes them in
place with each decrease it writes, inside the propagation loops too
(``lazy.DistanceTable``): a decrease costs no call, and the tables hold no
reference back to the engine.  Approximate shortest paths are reported by
walking parent pointers inside the owner.

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
protocol (``table``, ``cap``, ``rebuild(tree)``, ``counters``; ranges also
``audit_tables``), so the engine never asks which kind a structure is.
``tree`` is ``(dist, parent, visit)``, and a rebuild visits every vertex
whose entry may differ from the tree of the structure's previous rebuild,
where a new structure's previous tree is the source-only tree its tables
hold.  Each structure is built from ``det.bounded_dijkstra`` on the still
empty graph, which reaches only the source.  Exact re-initialization reads
one bounded Dijkstra tree to the largest cap, shared by every structure it
serves: at ``preprocess`` all of them, and at a phase boundary every range.
Only deterministic ranges have phase boundaries: the engine builds one
``det.Phase``, which owns B and b, and every deterministic range joins it
when built, so they fill together; the engine asks the phase's
``phase_full`` once per insertion (the short tree and randomized ranges
never fill; a randomized range runs its fixing phases inside its own
``insert``).  After the short tree's ``insert``, each insertion makes one
``insert`` call per stepper: the phase, whose one ``det.insert_step`` call
steps every deterministic range's table, or each randomized range, whose
own phase steps both of its tables.  The engine keeps the shared tree and
advances it in place by a decrease-only Dijkstra from the edges inserted
since the previous boundary (the empty graph's tree at ``preprocess``):
distances only fall, so only a vertex that a new edge or a lowered vertex
reaches can change.  Each structure visits only the vertices whose
distance or parent changed, which that run names as it goes.

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
from .errors import AlreadyPreprocessed, EngineBroken, InvalidConfig, \
    Unreachable, VertexOutOfRange
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
# {1, 2, 3, 4, 6, 8, 6·⌈lg n⌉}, 2 measured fastest on chains, by 3.8× over
# c_B = 1, which is 1.1–1.2× faster on random graphs (README, "Phase
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
        if not isinstance(self.raw_epsilon, bool):
            raise InvalidConfig("raw_epsilon must be a bool")


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

        short_cap = self._plan()
        self.short = ShortDistanceTree(self.graph, self.source, short_cap)
        self.ranges = [self._build(*entry) for entry in self.plan]
        self._structures = (self.short, *self.ranges)
        # each structure's visible table lowers the minimum in place as it
        # writes; the graph is still empty, so no estimate has decreased yet
        self.min_value: list = [inf] * n
        self.min_value[self.source] = 0
        self._min_owner: list = [None] * n   # indices into _structures
        self._min_owner[self.source] = 0
        for i, s in enumerate(self._structures):
            s.table.share_minimum(self.min_value, self._min_owner, i)
        # the deterministic ranges joined one phase, stepped by one call per
        # insertion; a randomized range steps its own tables, and no other
        # structure has a phase boundary
        if not self.ranges:   # a phase of no tables has no boundary
            self._phase = None
        self._steppers = tuple(self.ranges) if self._phase is None else \
            (self._phase,)
        self._tree_cap = max(s.cap for s in self._structures)
        # the empty graph's tree, which every structure was just built
        # from; each boundary advances it in place by the edges from _since
        self._tree = det.bounded_dijkstra(self.graph, self.source,
                                          self._tree_cap)[:2]
        self._since = 0

    # -- construction -----------------------------------------------------

    def _plan(self) -> int:
        """Set ``eps_internal``, ``guarantee_epsilon``, ``_phase``, the
        ``det.Phase`` of length B that the deterministic ranges join (None
        in ``rand``), and ``plan``: one ``(spawn key, τ, εδ, cap)`` per
        range to build, the key being τ's index among all τ.  Returns the
        short tree's cap: 2·M, or the largest cap of a folded range when
        that is larger."""
        cfg = self.config
        m, eps = cfg.m_budget, self.eps
        if cfg.mode == "rand":
            self._phase = None
            self.eps_internal = eps if cfg.raw_epsilon else \
                eps / (100 * self.lg_n)
            self.guarantee_epsilon = 100 * self.eps_internal * self.lg_n
            M, root = ceil_cbrt(m), 3
            def granularity_and_cap(tau):
                return RandomizedRange.granularity_and_cap(
                    tau, self.eps_internal, m, self.lg_n)
        else:
            c_b = cfg.c_b if cfg.c_b is not None else DEFAULT_C_B
            B = max(1, isqrt(m) // c_b)   # ⌊√m / c_B⌋
            self._phase = det.Phase(B, sync=cfg.mode == "det")
            M, root = ceil_sqrt(m), 2
            # keep the per-phase error bound B·εδ·(2·lg B + 1) below ε·τ
            blow_up = Fraction(B * (2 * ceil_log2(B) + 1), M)
            self.eps_internal = eps if cfg.raw_epsilon or blow_up <= 1 else \
                eps / blow_up
            self.guarantee_epsilon = eps
            def granularity_and_cap(tau):
                return (self.eps_internal * Fraction(tau, M),
                        ceil_frac((1 + self.eps_internal) * 2 * tau))
        first = (ceil_log2(m) + root - 1) // root   # smallest e: 2^e ≥ M
        top = floor_log2(cfg.n * cfg.max_weight)
        short_cap = 2 * M
        self.plan = []
        for key, e in enumerate(range(first, top + 1)):
            eps_delta, cap = granularity_and_cap(1 << e)
            if eps_delta < 1:   # an exact tree: the short tree covers it
                short_cap = max(short_cap, cap)
            else:
                self.plan.append((key, 1 << e, eps_delta, cap))
        return short_cap

    def _build(self, key: int, tau: int, eps_delta: Fraction, cap: int):
        """The range of one ``plan`` entry, built on the empty graph."""
        cfg = self.config
        if cfg.mode == "rand":
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(cfg.seed, spawn_key=(key,))))
            return RandomizedRange(
                self.graph, self.source, tau, self.eps_internal, cfg.m_budget,
                self.lg_n, rng, iter_mult=Fraction(cfg.iter_mult))
        return DeterministicRange(self.graph, self.source, tau, eps_delta,
                                  self._phase, cap)

    # -- updates ------------------------------------------------------------

    def preprocess(self, initial_edges) -> None:
        """Load the initial graph and initialize every structure exactly.

        ``Graph.load_initial`` checks the edges; a list it rejects installs
        nothing and leaves the engine usable."""
        if self._broken is not None:
            raise EngineBroken(self._broken)
        if self._preprocessed or self.insertions_used:
            raise AlreadyPreprocessed("preprocess must come first, once")
        self.graph.load_initial(initial_edges)
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
        every structure untouched.  At a phase boundary every range is
        rebuilt first, after the short tree's insertion, from one bounded
        Dijkstra shared by all of them; then each stepper steps.
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
            self.short.insert(u, v, w)
            phase = self._phase
            if phase is not None and phase.phase_full():
                tree = self._next_tree()
                for r in self.ranges:
                    r.rebuild(tree)
            for stepper in self._steppers:
                stepper.insert(u, v, w)
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
