"""Incremental single-source shortest paths with synchronized propagation.

Directed weighted graphs under edge insertions: a deterministic engine that
batches propagation along power-of-two windows, a randomized twin-structure
variant safe against adaptive adversaries, an exact oracle for checking
every approximation claim, and adversarial workload generators.
"""

from .engine import Config, IncrementalSSSP, UNREACHABLE
from .errors import (AlreadyPreprocessed, BudgetExceeded, DuplicateEdge,
                     EngineBroken, IncSSSPError, InvalidConfig, InvalidParams,
                     ParseError, PhaseFull, TooDense, Unreachable,
                     VertexOutOfRange, WeightOutOfRange)
from .graph import Graph
from .lazy import CAP, EstimateTable
from .det import DeterministicRange, bounded_dijkstra
from .rand import RandomizedRange
from .short import ShortDistanceTree
from .oracle import (ExactDistances, VerifyReport, brute_force_distances,
                     dijkstra, exact_distances_fast, phase_error_audit,
                     phase_error_bound, verify)
from .workloads import (InsertionStream, adaptive_run, quadratic_error_stream,
                        random_stream)
from .cli import parse_stream, serialize_stream, run

__all__ = [
    "Config", "IncrementalSSSP", "UNREACHABLE",
    "AlreadyPreprocessed", "BudgetExceeded", "DuplicateEdge", "EngineBroken",
    "IncSSSPError", "InvalidConfig", "InvalidParams", "ParseError", "PhaseFull",
    "TooDense", "Unreachable", "VertexOutOfRange", "WeightOutOfRange",
    "Graph", "CAP", "EstimateTable",
    "DeterministicRange", "bounded_dijkstra",
    "RandomizedRange", "ShortDistanceTree",
    "ExactDistances", "VerifyReport", "brute_force_distances", "dijkstra",
    "exact_distances_fast", "phase_error_audit", "phase_error_bound", "verify",
    "InsertionStream", "adaptive_run", "quadratic_error_stream",
    "random_stream", "parse_stream", "serialize_stream", "run",
]
