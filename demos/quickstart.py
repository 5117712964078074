#!/usr/bin/env python3
"""Build an engine, feed it a random insertion stream, and watch the
approximation hold: every query answer sits between the true distance and
(1+eps) times it, and every reported path is a real path of matching weight.
"""

from fractions import Fraction
from math import inf

from incsssp import Config, IncrementalSSSP, dijkstra, random_stream

n, m, W = 64, 400, 64
eps = Fraction(1, 4)

# at the default c_b=2 a phase batches B = ⌊√400 / 2⌋ = 10 insertions
# between exact rebuilds
stream = random_stream(n, m, W, seed=11)
engine = IncrementalSSSP(Config(n=n, m_budget=m, max_weight=W, eps=eps,
                                mode="det"))

worst = Fraction(1)
for i, (_, u, v, w) in enumerate(stream.events, 1):
    engine.insert(u, v, w)
    truth = dijkstra(engine.graph, 0)
    worst = max(worst, max((Fraction(engine.query(x), truth.d[x])
                            for x in range(n) if 0 < truth.d[x] < inf),
                           default=Fraction(1)))
    if i % 100 == 0:
        print(f"after {i:4d} insertions: worst ratio seen so far "
              f"{float(worst):.4f} (allowed {float(1 + eps):.2f})")

truth = dijkstra(engine.graph, 0)
target = max((x for x in range(n) if truth.d[x] != inf),
             key=lambda x: truth.d[x])
path = engine.report_path(target)
weight = sum(engine.graph.weight_of(a, b) for a, b in zip(path, path[1:]))
print(f"\nfarthest reachable vertex: {target}")
print(f"  true distance {truth.d[target]}, query {engine.query(target)}")
print(f"  reported path ({len(path)} vertices) has weight {weight}")
print("\nbenign random streams rarely open any gap at all: estimates only "
      "lag\nwhen decreases arrive in a structured back-to-front pattern. "
      "See\nquadratic_error_contrast.py for the stream that manufactures "
      "exactly that.")
