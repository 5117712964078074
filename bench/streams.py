"""Seeded insertion streams for the benchmark workloads.

Each builder returns an :class:`incsssp.InsertionStream` whose initial
edges are loaded through ``preprocess`` and whose events are the timed
insertions; :func:`build` gives the streams one run of a workload
replays, in order.  The same seed always gives the same streams.
"""

import random

from incsssp import InsertionStream, random_stream

CHAIN_EDGE = 32       # path edge weight
CHAIN_SHORTCUT = 63   # i -> i+2 shortcut, one less than two path edges


def sparse_uniform(n: int, seed: int) -> InsertionStream:
    """n uniform edges over n vertices, W=4, from an empty graph.

    The source reaches only a handful of vertices, so every step is O(n)
    bookkeeping and lazy propagation idles.
    """
    return random_stream(n, n, 4, seed)


def connected(n: int, seed: int, inserted: int | None = None) -> InsertionStream:
    """8n uniform edges, W=64; the first half is preloaded, and the first
    ``inserted`` edges of the rest (all of them by default) are inserted.

    The vertex with the most preloaded out-edges (the lowest such id) swaps
    labels with vertex 0, so the source is never isolated: a uniform vertex
    has no preloaded out-edge with probability e^-4, and a graph whose
    source reaches nothing until the inserted edges arrive costs several
    times the work of the others.  Almost every vertex is then reachable
    once the preload is in, so each rebuild is a full bounded Dijkstra and
    propagation does real work.
    """
    full = random_stream(n, 8 * n, 64, seed)
    half = len(full.events) // 2
    end = len(full.events) if inserted is None else half + inserted
    degree = [0] * n
    for _, u, _, _ in full.events[:half]:
        degree[u] += 1
    hub = max(range(n), key=lambda v: (degree[v], -v))
    label = list(range(n))
    label[0], label[hub] = hub, 0
    events = [(kind, label[u], label[v], w)
              for kind, u, v, w in full.events[:end]]
    return InsertionStream(
        n=n, max_weight=64, budget=full.budget,
        initial_edges=[e[1:] for e in events[:half]],
        events=events[half:],
        meta={"seed": seed, "preloaded": half, "source_was": hub})


def chain(n: int, seed: int) -> InsertionStream:
    """A weight-32 path with weight-63 shortcuts i -> i+2 inserted back to front.

    Each shortcut lowers every downstream distance by exactly 1, so exact
    incremental propagation does Θ(n²) decreases while the lazy ranges can
    absorb most of them inside their εδ buckets.  The seed relabels the
    non-source vertices; the source stays vertex 0.
    """
    if n < 3:
        raise ValueError("chain needs at least 3 vertices")
    rng = random.Random(seed)
    rest = list(range(1, n))
    rng.shuffle(rest)
    label = [0] + rest
    initial = [(label[i], label[i + 1], CHAIN_EDGE) for i in range(n - 1)]
    events = [("a", label[i], label[i + 2], CHAIN_SHORTCUT)
              for i in range(n - 3, -1, -1)]
    return InsertionStream(
        n=n, max_weight=CHAIN_SHORTCUT, budget=len(initial) + len(events),
        initial_edges=initial, events=events, meta={"seed": seed})


# name -> (builder, n); sizes are chosen so one run of every engine fits
# the run time and every workload has at least 1,000 insertions
WORKLOADS = {
    "sparse_uniform": (sparse_uniform, 2048),
    "connected": (connected, 256),
    "chain": (chain, 1024),
}

# How much work one n=256 `connected` graph takes depends on its seed: over
# seeds 1-10, `exact` relaxes 5,677-10,455 times on the whole stream (an
# interquartile spread of 0.30 of the median).  A run therefore replays
# several independent graphs, each with the start of its second half
# inserted.  Fewer insertions per graph would let more graphs fit a run,
# but with 64 every graph ends near `det_c1`'s first phase boundary and
# its median insert time moved by 0.20 across seeds.
CONNECTED_GRAPHS = 16
CONNECTED_INSERTED = 128


def build(workload: str, seed: int) -> list[InsertionStream]:
    """The streams one run of ``workload`` replays, in order."""
    builder, n = WORKLOADS[workload]
    if workload == "connected":
        return [connected(n, CONNECTED_GRAPHS * seed + j, CONNECTED_INSERTED)
                for j in range(CONNECTED_GRAPHS)]
    return [builder(n, seed)]
