"""Insertion-stream generators and the adaptive-adversary harness.

Streams are replayable value objects: an initial edge list plus an ordered
event sequence of insertions and queries, deterministic in their seed.

The quadratic-error construction (``quadratic_error_stream``) builds
H = B/2 unit-weight path segments whose endpoints are pre-reachable
through heavy shortcut edges.  The first H inserted edges activate hub
vertices that lower one position of every segment (back to front, one
position per insertion) by just under the propagation threshold; the last
H−1 inserted edges connect the segments into one long path.  Under
per-edge baseline propagation the sink's estimate freezes at its initial
value while its true distance collapses, manufacturing Θ(B²·εδ) additive
error in a single phase.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParams, TooDense
from .graph import Graph

# events: ("a", u, v, w) insert | ("q", v) distance query | ("p", v) path query


@dataclass
class InsertionStream:
    n: int
    max_weight: int
    budget: int
    initial_edges: list = field(default_factory=list)
    events: list = field(default_factory=list)
    eps: Fraction | None = None
    meta: dict = field(default_factory=dict)

    @property
    def insertions(self) -> list:
        return [e for e in self.events if e[0] == "a"]

    def build_graph(self) -> Graph:
        """Replay everything into a fresh graph (validates the stream)."""
        g = Graph(self.n, self.max_weight, budget=self.budget,
                  initial_edges=self.initial_edges)
        for e in self.events:
            if e[0] == "a":
                g.insert_edge(e[1], e[2], e[3])
        return g


def random_stream(n: int, m: int, max_weight: int, seed: int,
                  query_rate: float = 0.0) -> InsertionStream:
    """m distinct edges drawn uniformly without replacement, random weights,
    queries interleaved at ``query_rate`` per insertion.  ``n`` ≥ 1, ``m``
    ≥ 0 and ``max_weight`` ≥ 1 must be ints (else :class:`InvalidParams`)."""
    if not all(isinstance(x, int) for x in (n, m, max_weight)):
        raise InvalidParams("n, m and max_weight must be ints")
    if n < 1 or m < 0 or max_weight < 1:
        raise InvalidParams("need n >= 1, m >= 0 and max_weight >= 1")
    if m > n * (n - 1):
        raise TooDense(f"{m} edges > n(n-1) = {n * (n - 1)}")
    rng = random.Random(seed)
    seen = set()
    events = []
    while len(seen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        if (u, v) in seen:
            continue
        seen.add((u, v))
        events.append(("a", u, v, rng.randint(1, max_weight)))
        if query_rate > 0:
            if rng.random() < query_rate:
                events.append(("q", rng.randrange(n)))
            if rng.random() < query_rate / 4:
                events.append(("p", rng.randrange(n)))
    return InsertionStream(n=n, max_weight=max_weight, budget=m,
                           events=events, meta={"seed": seed})


def quadratic_error_stream(phase_edges: int) -> InsertionStream:
    """Quadratic-error adversarial instance for one phase of B−1 insertions,
    B = ``phase_edges``, at granularity εδ = 2.

    Shortcut f_i into segment i's endpoint costs i·(1+εδ/2)·B/2 + i + 1 and
    the hub edge lowering position j−1 of segment i costs
    ω(f_i) − (B/2−j+1)·(1+εδ/2) − 1, reached through a weight-1 stub where
    that keeps the segment's estimates even; every other edge weighs 1.
    The estimate freezing of the baseline mode is alignment-sensitive
    under the bucket relaxation test, and this alignment freezes it.
    """
    B = phase_edges
    if B < 4 or B % 2:
        raise InvalidParams("phase_edges must be an even integer >= 4")
    H = B // 2

    def wf(i: int) -> int:
        return 2 * i * H + i + 1

    # id layout: source, hubs a_1..a_H, segments row-major, stubs on demand
    source = 0
    hub = [0] + list(range(1, H + 1))          # hub[k] for k in 1..H
    nxt = H + 1
    seg = {}
    for i in range(1, H + 1):
        seg[i] = list(range(nxt, nxt + H + 1))  # positions 0..H; seg[i][H] = x_i
        nxt += H + 1

    initial = []
    for i in range(1, H + 1):
        vs = seg[i]
        for p in range(H):
            initial.append((vs[p], vs[p + 1], 1))
        initial.append((source, vs[H], wf(i)))          # shortcut f_i
    for k in range(1, H + 1):
        p = H - k                                       # position lowered at step k
        for i in range(1, H + 1):
            w_low = wf(i) - 2 * k - 1
            # estimates along segment i sit at wf(i) + β_i − 2k, where
            # β_i = 1 iff the segment's hub edges pass a stub: it keeps
            # them even
            if wf(i) % 2:
                stub = nxt
                nxt += 1
                initial.append((hub[k], stub, 1))
                initial.append((stub, seg[i][p], w_low))
            else:
                initial.append((hub[k], seg[i][p], w_low))

    events = [("a", source, hub[k], 1) for k in range(1, H + 1)]
    events += [("a", seg[i][H], seg[i + 1][0], 1) for i in range(1, H)]

    n = nxt
    sink = seg[H][H]
    max_w = wf(H)
    budget = len(initial) + len(events)
    meta = {
        "sink": sink,
        "eps_delta_scaled": 2,
        "initial_sink_distance": wf(H),
        "final_sink_distance": H * H + H + 1,
        "phase_edges": B,
    }
    return InsertionStream(n=n, max_weight=max_w, budget=budget,
                           initial_edges=initial, events=events, meta=meta)


def quadratic_error_replay(stream: InsertionStream, sync: bool) -> dict:
    """Replay a quadratic-error stream through one stand-alone range.

    The range is configured to match the instance: granularity equal to the
    stream's scaled εδ, phase length B (so all B−1 red insertions land in a
    single phase), τ at the largest power of two below the final sink
    distance, and a cap above every initial estimate.  Returns the
    per-insertion sink-estimate/truth trajectory and the running audit of
    in-range additive error.
    """
    from .det import DeterministicRange
    from .oracle import dijkstra, phase_error_audit

    meta = stream.meta
    sink = meta["sink"]
    B = meta["phase_edges"]
    gran = Fraction(meta["eps_delta_scaled"])
    tau = 1 << (meta["final_sink_distance"].bit_length() - 1)
    cap = meta["initial_sink_distance"] + 1
    g = Graph(stream.n, stream.max_weight, budget=stream.budget,
              initial_edges=stream.initial_edges)
    rng = DeterministicRange(g, 0, tau, gran, phase_length=B, cap=cap,
                             sync=sync)
    sink_estimates = []
    sink_truths = []
    audits = []
    for (_, u, v, w) in stream.events:
        g.insert_edge(u, v, w)
        rng.insert(u, v, w)
        dist = dijkstra(g, 0).d
        sink_estimates.append(rng.estimate(sink))
        sink_truths.append(dist[sink])
        audits.append(phase_error_audit(rng, dist))
    return {
        "sink_estimates": sink_estimates,
        "sink_truths": sink_truths,
        "sink_errors": [e - t for e, t in zip(sink_estimates, sink_truths)],
        "audits": audits,
        "tau": tau,
        "range": rng,
    }


def adaptive_run(adversary, system, budget: int):
    """Drive ``system`` with events chosen by ``adversary``.

    The adversary is a callable receiving only the tuple of answers to its
    past queries and returning the next event; it never sees internal
    state.  Runs until ``budget`` insertions have been applied, verifying
    against the exact oracle after every insertion, and returns the
    per-insertion reports.
    """
    from .oracle import dijkstra, verify

    answers: list = []
    reports = []
    inserted = 0
    while inserted < budget:
        event = adversary(tuple(answers))
        kind = event[0]
        if kind == "a":
            _, u, v, w = event
            system.insert(u, v, w)
            inserted += 1
            dist = dijkstra(system.graph, system.source).d
            reports.append(verify(system, dist, system.guarantee_epsilon,
                                  insertion_index=inserted))
        elif kind == "q":
            answers.append(system.query(event[1]))
        elif kind == "p":
            answers.append(tuple(system.report_path(event[1])))
        else:
            raise InvalidParams(f"unknown adversary event {event!r}")
    return reports
