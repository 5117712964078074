#!/usr/bin/env python3
"""The adversarial instance that separates synchronized batching from plain
per-edge propagation.

One phase of B-1 insertions drives both variants over the same graph.
Under per-edge propagation every insertion undercuts the next estimate by
half a bucket, nothing ever fires, and the sink's estimate freezes while
its true distance collapses: additive error reaches (B^2/8)*eps_delta.
Synchronized batching re-propagates power-of-two windows of recently
touched vertices and keeps the worst in-range error at a constant number
of buckets.
"""

from fractions import Fraction

from incsssp import quadratic_error_stream, phase_error_bound
from incsssp.workloads import quadratic_error_replay

print(f"{'B':>4} {'nosync end error':>17} {'quadratic target':>17} "
      f"{'sync worst audit':>17} {'phase bound':>12}")
for B in (16, 32, 64):
    stream = quadratic_error_stream(B)
    eps_delta = stream.meta["eps_delta_scaled"]
    base = quadratic_error_replay(stream, sync=False)
    syn = quadratic_error_replay(stream, sync=True)
    target = (B * B // 8) * eps_delta
    bound = phase_error_bound(B, Fraction(eps_delta))
    print(f"{B:>4} {base['sink_errors'][-1]:>17} {target:>17} "
          f"{max(syn['audits']):>17} {float(bound):>12.0f}")

B = 16
stream = quadratic_error_stream(B)
base = quadratic_error_replay(stream, sync=False)
print(f"\nsink trajectory under nosync (B={B}):")
print(f"{'step':>5} {'estimate':>9} {'truth':>6} {'error':>6}")
for i, (e, t) in enumerate(zip(base["sink_estimates"],
                               base["sink_truths"]), 1):
    if i % 5 == 0 or i == B - 1:
        print(f"{i:>5} {e:>9} {t:>6} {e - t:>6}")
