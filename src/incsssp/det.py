"""Per-range structure with power-of-two synchronized propagation.

Each range owns the distances in [τ, 2τ).  Insertions are processed in
phases of at most B; the b-th insertion of a phase batches every vertex
touched since step (k−1)·2^j (where b = k·2^j with j maximal) into one
propagation call, which limits error build-up on surviving path segments
to O(εδ·lg B) per phase.  Most steps relax nothing and find nothing
logged in their window, and such an idle step returns right after its
relaxation test: within a phase each step logs only at its own index, in
increasing order, so the log's latest key tells whether the window holds
any touch, and a propagation from an empty batch would count nothing.
:func:`insert_step` is the one step kernel of every lazy range table.  It
steps a sequence of tables at the same b in one loop: for each it writes
the relaxation's decrease and logs the head inline, tests for idleness,
and calls a table method only to read a non-idle window and propagate it.
A :class:`Phase` is the one holder of b and B: it steps its tables with
one kernel call per insertion, answers whether it is full, and
:meth:`Phase.reset` starts the next phase, clearing every table's touch
log.  The paper steps every range at the same b, so the deterministic
ranges of one engine join one phase, built by the engine; a randomized
range steps its visible and hidden tables through a phase of its own.
A distance-bounded rebuild restores exact estimates between phases.  All
ranges of one engine share a phase boundary, so the engine keeps one
bounded Dijkstra tree to the largest cap and every range assigns the
distances below its own cap from it.

A rebuild has one contract: it visits every vertex whose distance or
parent may differ from the tree of the structure's previous rebuild.  A
structure just built holds the source-only tree (the source at 0, every
other vertex at CAP, no parents), which counts as its previous one.  Right
after a rebuild a range holds that tree exactly below its cap.  Until the
next one, every estimate it lowers becomes the weight of a real path,
never below the vertex's true distance at the next boundary.  A vertex
whose distance did not change between the two trees was therefore never
lowered: it still holds the value and parent the previous rebuild gave it
(or CAP, if its distance is still at least the cap), and unless its tree
parent changed a visit would write nothing to it.  Under insertions
distances only fall, so a vertex can change only if a new edge or a
lowered vertex reaches it.  One decrease-only Dijkstra makes every tree
and names the vertices it changes as it goes: :func:`bounded_dijkstra`
runs it from the source-only tree with the source as its one lowered
vertex, and :func:`advance_tree` from the previous tree with the edges
inserted since.  A boundary costs what changed, plus one look at each new
edge, not what the tree reaches.

A baseline mode replaces the batch with just the head of the inserted edge
(when its relaxation fired), reproducing the per-edge propagation scheme
this design improves on; it exists for contrast experiments only.
"""

import heapq
from fractions import Fraction

from .errors import InvalidConfig, PhaseFull
from .graph import check_source
from .lazy import CAP, EstimateTable


def insert_step(tables, u: int, v: int, w: int, b: int,
                sync: bool = True) -> None:
    """One insertion-processing step at in-phase index b of every table in
    ``tables``, in order: the step kernel of every lazy range table.

    ``tables`` are the tables stepped together at the same b: every range
    of a :class:`Phase`, or the visible and hidden tables of a randomized
    range.  The window's start and the parity of b are found once; each
    table then runs the body below in a single loop.

    Bucket-tests the new edge and writes the decrease, as
    ``EstimateTable.partial_dijkstra`` writes one: estimate, limit, parent,
    decrease count, minimum table, and ``on_decrease`` when set.  With
    ``sync`` it logs the head at step b if it relaxed, gathers the
    synchronized batch (the union of the touch lists of steps
    ((k−1)·2^j, b]), propagates, and logs everything the propagation
    touched at step b.  Without ``sync`` the batch is the head alone, if
    its relaxation fired, and nothing is logged, since only the batch
    reads the log.  The only table methods it calls are
    ``touched_in_window`` and ``partial_dijkstra``.

    An idle step, one whose window holds no logged step, moves on to the
    next table right after the relaxation test, without reading the
    window or propagating.  Two facts make this exact: within a phase every
    step logs only at its own b, which grows, so the log's last key is its
    latest step; and ``partial_dijkstra`` of an empty batch counts no work.
    Estimates, parents, limits, log and counters are those of a step that
    read and propagated the empty batch.  A step that relaxed is never
    idle, and an odd one that did not is: for odd b the window is step b
    alone.
    """
    # b = k·2^j with k odd, so (k−1)·2^j is b with its lowest set bit cleared
    lo = b & (b - 1)
    # without sync, or for odd b, whose window is step b alone, a step that
    # relaxed nothing is idle
    idle_unless_relaxed = not sync or b & 1
    for table in tables:
        table.work += 1
        dhat = table.dhat
        du = dhat[u]
        if du == CAP or du + w > table.lim[v]:
            if idle_unless_relaxed:
                continue
            log = table._touch_log
            if not log or next(reversed(log)) <= lo:
                continue
        else:
            cand = du + w
            notify = table.on_decrease
            if notify is not None:
                notify(v, dhat[v], cand)
            dhat[v] = cand
            num, den = table.gran_num, table.gran_den
            # relax_limit of a finite value, inlined as in partial_dijkstra
            table.lim[v] = (-(-cand * den // num) - 1) * num // den
            table.parent[v] = u
            table.decreases += 1
            min_value = table.min_value
            if cand < min_value[v]:
                min_value[v] = cand
                table.min_owner[v] = table.owner_index
            if not sync:
                table.partial_dijkstra((v,))
                continue
            log = table._touch_log
            log[b] = [v]   # the first entry of step b
        touched = table.partial_dijkstra(table.touched_in_window(lo, b))
        if touched:
            log.setdefault(b, []).extend(touched)


class Phase:
    """The step index of tables that step together: the one holder of b
    and B.

    Phases last ``B`` insertions; ``b`` counts the steps of the current
    one.  Every table in ``tables`` is stepped at the same b by one
    :func:`insert_step` call per insertion, so the tables of a phase fill
    together and their owner asks one :meth:`phase_full` per insertion.
    An insertion into a full phase raises :class:`PhaseFull` before any
    table changes.  :meth:`reset` starts the next phase.
    """

    def __init__(self, length: int, sync: bool = True):
        if not (isinstance(length, int) and length >= 1):
            raise InvalidConfig("phase length must be an int >= 1")
        self.B = length
        self.sync = sync
        self.b = 0
        self.tables: list[EstimateTable] = []

    def insert(self, u: int, v: int, w: int) -> None:
        b = self.b + 1
        if b > self.B:
            raise PhaseFull(f"phase of length {self.B} already full")
        self.b = b
        insert_step(self.tables, u, v, w, b, self.sync)

    def phase_full(self) -> bool:
        return self.b >= self.B

    def reset(self) -> None:
        """Start the next phase: b = 0 and every table's touch log empty,
        since a window never reaches back past the phase's start."""
        self.b = 0
        for table in self.tables:
            table.reset_phase()


def bounded_dijkstra(graph, source: int,
                     cap: int) -> tuple[list, list, list]:
    """Exact distances from ``source``, abandoning keys ≥ cap.

    Returns (dist, parent, settled) with out-of-range vertices at CAP and
    ``settled`` the reached vertices in settle order, the source first.
    The run is :func:`advance_tree`'s loop from the source-only tree, with
    the source as its one lowered vertex: vertices are settled in
    nondecreasing (distance, id) order, and each parent is the least tight
    in-neighbour in that order, so parents are reproducible and the
    entries below any lower cap equal those of a run capped there: one run
    to the largest cap serves every structure.  It reads only what the
    source reaches.
    """
    check_source(graph, source)
    dist = [CAP] * graph.n
    parent = [None] * graph.n
    dist[source] = 0
    return dist, parent, _advance(graph, dist, parent, [(0, source, -1)],
                                  cap)


def advance_tree(graph, dist: list, parent: list, since: int,
                 cap: int) -> list[int]:
    """Bring a :func:`bounded_dijkstra` tree up to date, in place, after
    the insertion of edges ``since`` onwards; returns the vertices whose
    distance or parent changed, each once.

    ``(dist, parent)`` is the tree of a run to ``cap`` on the graph's first
    ``since`` edges (or one this function advanced).  Distances only fall,
    so a vertex can change only if a new edge or a lowered vertex reaches
    it: each new edge out of a reached tail is taken once, from its tail's
    distance.
    """
    tails = graph.edge_tails
    # an unreached tail holds the CAP object bounded_dijkstra filled in
    heap = [(dist[u], u, i) for i, u in enumerate(tails[since:], since)
            if dist[u] is not CAP]
    heapq.heapify(heap)
    return _advance(graph, dist, parent, heap, cap)


def _advance(graph, dist: list, parent: list, heap: list,
             cap: int) -> list[int]:
    """The decrease-only Dijkstra both trees are made by: lowers
    ``(dist, parent)`` in place from ``heap`` and returns the vertices
    whose distance or parent changed, each once, lowered ones in settle
    order.

    ``heap`` holds ``(distance, tail, edge index)`` entries at the tail's
    current distance: an index i ≥ 0 offers the edge i alone, and −1 the
    tail's whole adjacency.  Tails are taken in (distance, id) order; each
    lowered vertex scans its whole adjacency once, at its final distance.
    Candidates ≥ ``cap`` are ignored.  A vertex whose distance does not
    change keeps its parent p unless a tight candidate tail u has
    (dist[u], u) < (dist[p], p): each parent is the least tight
    in-neighbour in (distance, id) order.
    """
    heads = graph.edge_heads
    weights = graph.edge_weights
    adj = graph._adj
    push = heapq.heappush
    pop = heapq.heappop
    lowered = []
    switched = []   # (vertex, distance) given a new parent at that distance
    while heap:
        d, u, i = pop(heap)
        # stale: u was lowered after this entry was pushed, and the full
        # scan at its final distance covers it
        if d > dist[u]:
            continue
        if i < 0:
            lowered.append(u)
            edges = adj[u]
        else:
            edges = ((heads[i], weights[i]),)
        for v, w in edges:
            nd = d + w
            dv = dist[v]
            if nd > dv:
                continue
            if nd < dv:
                if nd < cap:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v, -1))
            else:   # a tie, below cap as every reached distance is:
                # tails come in (distance, id) order, so only a parent
                # from the tree the run started from can lose it
                p = parent[v]
                if d < dist[p] or (d == dist[p] and u < p):
                    parent[v] = u
                    switched.append((v, nd))
    # a vertex switched and then lowered is already in ``lowered``
    lowered += [v for v, d in switched if dist[v] == d]
    return lowered


class DeterministicRange:
    """Deterministic structure for one distance range [τ, 2τ).

    Estimates are kept up to ``cap`` and reported as unreachable beyond it.
    The range joins ``phase``, a :class:`Phase` its owner built, and is
    stepped with every other table of it: ``insert``, ``phase_full``, ``b``
    and ``B`` are the phase's.  The owner must rebuild once the phase is
    full, and an insertion into a full phase raises :class:`PhaseFull`.
    :meth:`rebuild` resets the whole phase, so an owner of several ranges
    rebuilds every range of it at once, from the same tree.
    """

    def __init__(self, graph, source: int, tau: int, eps_delta: Fraction,
                 phase: Phase, cap: int):
        if not (isinstance(tau, int) and tau >= 1):
            raise InvalidConfig("tau must be an int >= 1")
        if not isinstance(phase, Phase):
            raise InvalidConfig("phase must be a det.Phase")
        self.graph = graph
        self.source = source
        self.tau = tau
        self.eps_delta = eps_delta
        self.cap = cap
        self.rebuilds = 0
        self.table = EstimateTable(graph, source, cap, eps_delta)
        self.phase = phase
        phase.tables.append(self.table)
        self.rebuild(bounded_dijkstra(graph, source, cap))

    @property
    def B(self) -> int:
        return self.phase.B

    @property
    def b(self) -> int:
        return self.phase.b

    def insert(self, u: int, v: int, w: int) -> None:
        """Step the range's phase: every table of it."""
        self.phase.insert(u, v, w)

    def phase_full(self) -> bool:
        return self.phase.phase_full()

    def rebuild(self, tree: tuple[list, list, list]) -> None:
        """Restore exact estimates (clamped at cap) and reset the phase,
        every table of it.

        ``tree`` is ``(dist, parent, visit)``: the distances and parents
        of the bounded Dijkstra tree of the current graph, to at least
        this range's cap, and the vertices to visit, each once.  ``visit``
        must hold every vertex whose distance or parent may differ from
        the tree of the range's previous rebuild, which for a range just
        built is the source-only tree: :func:`bounded_dijkstra`'s settled
        list, or the list :func:`advance_tree` returns.  The tree is read
        during the call only, so its owner may advance it afterwards.  The
        rebuild is charged ``edge_count + n`` work whatever it visits.
        """
        self.table.work += self.graph.edge_count + self.graph.n
        self.table.assign_exact(*tree)
        self.phase.reset()
        self.rebuilds += 1

    def estimate(self, v: int):
        """Current estimate; CAP (``math.inf``) means out of range."""
        return self.table.dhat[v]

    def audit_tables(self):
        return ((f"det[{self.tau}]", self.table),)

    def counters(self) -> dict:
        t = self.table
        return {"relaxations": t.work, "decreases": t.decreases,
                "rebuilds": self.rebuilds}
