import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import incsssp
from incsssp import (Graph, InsertionStream, quadratic_error_stream,
                     random_stream)
from incsssp.lazy import CAP, relax_limit
from incsssp.oracle import dijkstra


def cli_env() -> dict:
    """Environment for a ``python -m incsssp`` child process: the package
    under test comes first on its path, whether or not it is installed."""
    src = str(Path(incsssp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def random_graph(n, m, max_weight, seed):
    rng = random.Random(seed)
    g = Graph(n, max_weight)
    seen = set()
    added = 0
    limit = min(m, n * (n - 1))
    while added < limit:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        if (u, v) in seen:
            continue
        seen.add((u, v))
        g.insert_edge(u, v, rng.randint(1, max_weight))
        added += 1
    return g


def capped_tree(graph, source, cap) -> tuple[list, list]:
    """``(dist, parent)`` of a Dijkstra run to ``cap``, from the oracle's
    independent reference: entries at or above the cap become CAP, with no
    parent.  A vertex below the cap has every tight in-neighbour below it
    too, so the oracle's parents, the least tight in-neighbour in
    (distance, id) order, are those of a capped run."""
    exact = dijkstra(graph, source)
    dist = [d if d < cap else CAP for d in exact.d]
    parent = [p if d < cap else None
              for d, p in zip(exact.d, exact.tree_parent)]
    return dist, parent


def plant(table, estimates):
    """Overwrite estimates of an ``EstimateTable`` (test-only surgery),
    keeping its relaxation limits in step.  ``estimates`` maps vertex to
    value, or is a list of values for vertices 0, 1, ..."""
    items = estimates.items() if isinstance(estimates, dict) \
        else enumerate(estimates)
    for v, d in items:
        table.dhat[v] = d
        table.lim[v] = relax_limit(d, table.gran_num, table.gran_den,
                                   table.cap)


class NotAPath(Exception):
    """A vertex sequence given to :func:`slack` is not a path of the graph."""


def slack(table, path, height=None):
    """Worst additive error of ``table`` witnessed along ``path``.

    With ``height`` absent this is max_i(d̂(v_l) − d̂(v_i) − d_path(v_i, v_l));
    with ``height`` given, d̂(v_l) is replaced by the fixed value.
    Read-only; raises NotAPath if a consecutive edge is missing.
    """
    if not path:
        raise NotAPath("empty vertex sequence")
    weights = []
    for a, b in zip(path, path[1:]):
        w = table.graph.weight_of(a, b)
        if w is None:
            raise NotAPath(f"missing edge ({a},{b})")
        weights.append(w)
    ref = table.dhat[path[-1]] if height is None else height
    best = None
    suffix = 0
    for i in range(len(path) - 1, -1, -1):
        term = ref - table.dhat[path[i]] - suffix
        if best is None or term > best:
            best = term
        if i > 0:
            suffix += weights[i - 1]
    return best


def chain_shortcut_stream(n):
    """Weight-32 path 0→…→n−1, weight-63 shortcuts i→i+2 inserted back to
    front: each shortcut lowers every later distance by one."""
    initial = [(i, i + 1, 32) for i in range(n - 1)]
    events = [("a", i, i + 2, 63) for i in range(n - 3, -1, -1)]
    return InsertionStream(n=n, max_weight=63, budget=len(initial) + len(events),
                           initial_edges=initial, events=events)


@st.composite
def streams(draw, families=("random", "quadratic", "chain")):
    """Small insertion streams: uniform random, the quadratic-error
    construction, or a chain with shortcuts."""
    family = draw(st.sampled_from(families))
    if family == "random":
        n = draw(st.integers(4, 24))
        m = draw(st.integers(n, min(4 * n, n * (n - 1))))
        return random_stream(n, m, draw(st.integers(1, 16)),
                             seed=draw(st.integers(0, 2 ** 16)))
    if family == "quadratic":
        return quadratic_error_stream(draw(st.sampled_from([4, 6, 8, 12])))
    return chain_shortcut_stream(draw(st.integers(3, 48)))


@pytest.fixture
def small_graph():
    return random_graph(12, 40, 6, seed=3)
