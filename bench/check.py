"""Output checks in exact integer arithmetic.

Ground truth comes from the oracle's scipy path at each checkpoint and is
cross-checked against the hand-written reference Dijkstra at the final
state.  Every comparison is between Python integers; the float64
``oracle.verify`` is never used for pass/fail.
"""

import sys
from fractions import Fraction
from math import inf

from incsssp import Graph, Unreachable, oracle


CHECKPOINTS = 4


def checkpoints(insertions: int) -> list[int]:
    """1-based insertion indices after which answers are checked; the last
    one is the final state."""
    return sorted({max(1, insertions * k // CHECKPOINTS)
                   for k in range(1, CHECKPOINTS + 1)})


class Truth:
    """Exact distances from the source after each checkpoint insertion."""

    def __init__(self, stream, points, source: int = 0):
        graph = Graph(stream.n, stream.max_weight, budget=stream.budget,
                      initial_edges=stream.initial_edges)
        wanted = set(points)
        self.at: dict[int, list] = {}
        for i, (_, u, v, w) in enumerate(stream.events, 1):
            graph.insert_edge(u, v, w)
            if i in wanted:
                self.at[i] = oracle.exact_distances_fast(graph, source)
        self.final = self.at[max(points)]
        self.reference = oracle.dijkstra(graph, source).d


class Checker:
    """Counts checks attempted and failed, and tracks the worst stretch."""

    MAX_REPORTED = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stretch = (1, 1)   # worst query/d as (num, den)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.MAX_REPORTED:
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def oracle_agrees(self, truth: Truth) -> None:
        """The scipy distances match the reference Dijkstra at the end."""
        self.attempted += 1
        if truth.final != truth.reference:
            self.fail("scipy distances differ from the reference Dijkstra")

    def exact(self, label: str, answers, truth) -> None:
        """Every answer equals the true distance."""
        self.attempted += len(truth)
        for v, (q, d) in enumerate(zip(answers, truth)):
            if q != d:
                self.fail(f"{label}: vertex {v} answered {q}, distance {d}")

    def sandwich(self, label: str, answers, truth, eps: Fraction) -> None:
        """d ≤ q ≤ (1+ε)·d for every vertex, as q·den ≤ d·num in integers."""
        one = 1 + Fraction(eps)
        num, den = one.numerator, one.denominator
        s_num, s_den = self.stretch
        self.attempted += len(truth)
        for v, (q, d) in enumerate(zip(answers, truth)):
            if d == inf:
                if q != inf:
                    self.fail(f"{label}: vertex {v} answered {q}, unreachable")
            elif q == inf or q < d or q * den > d * num:
                self.fail(f"{label}: vertex {v} answered {q}, distance {d}")
            elif d and q * s_den > s_num * d:
                s_num, s_den = q, d
        self.stretch = (s_num, s_den)

    def path(self, label: str, engine, v: int) -> None:
        """``report_path(v)`` is a real source→v path of weight ≤ query(v),
        or raises Unreachable exactly when the query is infinite."""
        self.attempted += 1
        q = engine.query(v)
        try:
            path = engine.report_path(v)
        except Unreachable:
            if q != inf:
                self.fail(f"{label}: path to {v} unreachable, query {q}")
            return
        if q == inf:
            self.fail(f"{label}: path to {v} returned with infinite query")
            return
        if not path or path[0] != engine.source or path[-1] != v:
            self.fail(f"{label}: path to {v} has wrong endpoints")
            return
        weight = 0
        for a, b in zip(path, path[1:]):
            w = engine.graph.weight_of(a, b)
            if w is None:
                self.fail(f"{label}: path to {v} uses missing edge ({a},{b})")
                return
            weight += w
        if weight > q:
            self.fail(f"{label}: path to {v} weighs {weight} > query {q}")

    @property
    def max_stretch(self) -> Fraction:
        return Fraction(*self.stretch)
