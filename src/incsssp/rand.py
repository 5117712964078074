"""Randomized per-range structure with a hidden twin table.

Two estimate tables are maintained for each range: a visible one that
answers every query, and a hidden one whose state (and the random choices
driving it) is never exposed.  Insertions update both through the same
synchronized-propagation step: the range's own ``det.Phase`` steps the
visible table, then the hidden one, with one ``det.insert_step`` call,
and its ``reset`` starts the next phase.  Whenever a phase fills up or
the hidden potential Σ d̂ drops far enough, a global fixing phase runs:
the tables are synchronized to their pointwise minimum, the potential
snapshot is taken, random distance windows are sampled, and one
propagation pass over the sampled vertices runs on the hidden table only.
Keeping the sampled windows hidden is what lets query answers reveal
nothing an adaptive adversary can use before the next synchronization.

The sync visits only what either table lowered since the last fixing
phase: the hidden listener's ``changed``, and the visible table's touch log
of the phase.  ``det.insert_step`` lowers the relaxed head, bucket-crossing
vertices and queued ones (batch seeds or already touched), all logged.  The
tables agree wherever the sync lowered one, so the sync logs nothing.
"""

from fractions import Fraction
from math import inf

import numpy as np

from .det import Phase, bounded_dijkstra
from .errors import InvalidConfig
from .intmath import ceil_cbrt, ceil_frac, floor_cbrt
from .lazy import EstimateTable


class _HiddenListener:
    """Decrease listener of the hidden table: records the vertices it
    lowered since the last fixing phase, and keeps the potential Σ d̂ and
    each vertex's window slot.

    Hidden vertex v lies in window i iff iτ ≤ d̂·M < (i+8)τ, that is iff
    its slot ⌊d̂·M/τ⌋ is in [i, i+8).  Slots past the last window (CAP
    included) collapse to ``top``, which no window covers, so the slots fit
    int64 at any τ while d̂·M is formed as an exact Python int.

    The table holds the listener, so the listener holds no reference to the
    range: one back would make every range a reference cycle, freed only
    when the cyclic garbage collector next runs.
    """

    __slots__ = ("changed", "phi", "slots", "cap", "m_cbrt", "tau", "top")

    def __init__(self, r: "RandomizedRange", n: int, source: int):
        self.changed: set[int] = set()
        # a new table holds d̂(s) = 0 and CAP, counted as the cap, elsewhere;
        # every later decrease, a rebuild's included, is reported here
        self.phi = (n - 1) * r.cap
        self.cap = r.cap
        self.m_cbrt = r.m_cbrt
        self.tau = r.tau
        self.top = r.max_window_index + 8
        self.slots = np.full(n, self.top, dtype=np.int64)
        self.slots[source] = 0

    def __call__(self, v, old, new):
        self.changed.add(v)
        # estimates only decrease, so ``new`` is finite
        self.phi -= (self.cap if old == inf else old) - new
        slot = new * self.m_cbrt // self.tau
        self.slots[v] = slot if slot < self.top else self.top


class RandomizedRange:
    """Twin-table structure for one distance range [τ, 2τ).

    ``rng`` must be a numpy Generator seeded from the frontend; its draws
    are the only randomness used.  The hidden table has no public accessor:
    all answers come from the visible ``table``, through :meth:`estimate`.
    """

    def __init__(self, graph, source: int, tau: int, eps: Fraction,
                 m_budget: int, lg_n: int, rng, iter_mult: Fraction = Fraction(1)):
        if not all(isinstance(x, int) and x >= 1
                   for x in (tau, m_budget, lg_n)):
            raise InvalidConfig("tau, m_budget and lg_n must be ints >= 1")
        if not all(isinstance(x, (int, Fraction)) and x > 0
                   for x in (eps, iter_mult)):
            raise InvalidConfig("eps and iter_mult must be positive rationals")
        if not isinstance(rng, np.random.Generator):
            raise InvalidConfig("rng must be a numpy.random.Generator")
        self.source = source
        self.tau = tau
        m_cbrt = ceil_cbrt(m_budget)
        self.m_cbrt = m_cbrt
        eps_delta, self.cap = self.granularity_and_cap(tau, eps, m_budget,
                                                       lg_n)
        # potential drops are integers, so ⌈ε·M·τ/4⌉ decides as ε·M·τ/4 does
        self.threshold = ceil_frac(Fraction(eps * m_cbrt * tau, 4))
        self.max_window_index = max(
            0, ceil_frac(2 * m_cbrt + 200 * eps * m_cbrt * lg_n - 8))
        if self.max_window_index + 8 >= 2 ** 63:   # slots and draws are int64
            raise InvalidConfig("rand window indices exceed int64")
        self.iterations = max(1, ceil_frac(Fraction(2000 * lg_n) / eps * iter_mult))
        self.rng = rng
        self.fixing_log: list[int] = []   # insertion count at each phase
        self.insertions_seen = 0

        self.table = EstimateTable(graph, source, self.cap, eps_delta)
        self._listener = _HiddenListener(self, graph.n, source)
        self._hidden = EstimateTable(graph, source, self.cap, eps_delta,
                                     on_decrease=self._listener)
        self.phase = Phase(max(1, floor_cbrt(m_budget)))
        self.phase.tables += (self.table, self._hidden)   # stepped in order
        self.rebuild(bounded_dijkstra(graph, source, self.cap))

    @staticmethod
    def granularity_and_cap(tau: int, eps: Fraction, m_budget: int,
                            lg_n: int) -> tuple[Fraction, int]:
        """εδ with δ = τ/⌈m^{1/3}⌉, and the maximum estimate, of the range
        [τ, 2τ); known before the range is built."""
        eps_delta = eps * Fraction(tau, ceil_cbrt(m_budget))
        return eps_delta, ceil_frac((2 + 200 * lg_n * eps) * tau) + 1

    @property
    def B(self) -> int:
        return self.phase.B

    @property
    def b(self) -> int:
        return self.phase.b

    # -- potential tracking ---------------------------------------------

    @property
    def phi(self) -> int:
        """Hidden potential Σ d̂, CAP counted as the cap."""
        return self._listener.phi

    @property
    def fixing_phases(self) -> int:
        return len(self.fixing_log)

    # -- lifecycle -------------------------------------------------------

    def rebuild(self, tree: tuple[list, list, list]) -> None:
        """Exact initialization of both tables from ``tree``, a
        ``(dist, parent, visit)`` as for ``DeterministicRange.rebuild``:
        ``visit`` holds every vertex whose entry may differ from the tree
        of the previous rebuild, the source-only tree for a new range.  It
        starts a new phase but is not a fixing phase and draws nothing.
        """
        self.table.assign_exact(*tree)
        self._hidden.assign_exact(*tree)
        self.phi_snapshot = self.phi
        self.phase.reset()
        self._listener.changed.clear()

    def insert(self, u: int, v: int, w: int) -> None:
        self.phase.insert(u, v, w)
        self.insertions_seen += 1
        # a loop: the hidden pass runs after the potential snapshot, so it
        # can lower the potential past the threshold once more
        while self.needs_fixing():
            self.run_fixing_phase()

    def needs_fixing(self) -> bool:
        return self.phase.phase_full() or \
            self.phi_snapshot - self.phi >= self.threshold

    def run_fixing_phase(self) -> None:
        ds, hid = self.table, self._hidden
        hid_changed = self._listener.changed
        # synchronize to the pointwise minimum, parents following the winner
        for v in ds.touched_in_window(0, self.phase.b) | hid_changed:
            a, h = ds.dhat[v], hid.dhat[v]
            if a < h:
                hid._set(v, a, ds.parent[v])
            elif h < a:
                ds._set(v, h, hid.parent[v])
        hid_changed.clear()

        self.phi_snapshot = self.phi   # potential reference point

        draws = self.rng.integers(0, self.max_window_index + 1,
                                  size=self.iterations)
        hid.partial_dijkstra(self._window_union(draws).tolist())

        self.phase.reset()
        self.fixing_log.append(self.insertions_seen)

    def _window_union(self, draws):
        """Vertices of the hidden table with d̂ in [iδ, (i+8)δ) for any
        drawn i, as a numpy array in increasing order.

        Membership is decided in exact integer arithmetic: with δ = τ/M,
        d̂ ∈ [iδ, (i+8)δ)  ⟺  iτ ≤ d̂·M < (i+8)τ  ⟺  i ≤ ⌊d̂·M/τ⌋ < i+8,
        so a vertex is in the union iff a drawn window covers its slot.
        """
        top = self._listener.top
        drawn = np.bincount(draws, minlength=top + 1) > 0
        # +1 where a drawn window starts, −1 eight slots on; the prefix sum
        # counts the drawn windows covering each slot (none cover ``top``)
        edges = drawn.astype(np.int64)
        edges[8:] -= edges[:top - 7]
        covered = np.cumsum(edges) > 0
        return np.flatnonzero(covered[self._listener.slots])

    # -- queries ----------------------------------------------------------

    def estimate(self, v: int):
        """Estimate from the visible table only; CAP is ``math.inf``."""
        return self.table.dhat[v]

    def audit_tables(self):
        """(label, table) pairs for invariant audits.  Harness use only;
        query answers never flow through this."""
        return ((f"rand[{self.tau}].visible", self.table),
                (f"rand[{self.tau}].hidden", self._hidden))

    def counters(self) -> dict:
        a, h = self.table, self._hidden
        return {"relaxations": a.work + h.work,
                "decreases": a.decreases + h.decreases,
                "fixing_phases": self.fixing_phases}
