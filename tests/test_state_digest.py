from fractions import Fraction

import numpy as np
import pytest

from incsssp import Config, IncrementalSSSP, random_stream
from tests.conftest import plant
from tests.reference_lazy import mark_touched
from tools.state_digest import (C1_STREAMS, c1_run, c7_run, corpus_runs,
                                 replay_digest, snapshot)


def builder(mode):
    # the raw ε keeps ranges; the rescaled one folds every rand range here
    def make(stream):
        return IncrementalSSSP(Config(
            n=stream.n, m_budget=stream.budget, max_weight=stream.max_weight,
            mode=mode, raw_epsilon=True, iter_mult=Fraction(1, 100)))
    return make


@pytest.mark.parametrize("mode", ["det", "rand"])
def test_digest_is_stable_and_sees_one_estimate(mode):
    stream = random_stream(24, 80, 6, seed=7)
    make = builder(mode)
    assert replay_digest(make, [stream]) == replay_digest(make, [stream])

    eng = make(stream)
    eng.preprocess(stream.initial_edges)
    for _, u, v, w in stream.insertions:
        eng.insert(u, v, w)
    before = snapshot(eng)
    assert snapshot(eng) == before
    table = eng.audit_tables()[-1][1]
    v = next(v for v, d in enumerate(table.dhat) if 0 < d < table.cap)
    plant(table, {v: table.dhat[v] + 1})
    assert snapshot(eng) != before
    planted = snapshot(eng)
    mark_touched(table, (v,), 10 ** 9)   # a touch log entry alone
    assert snapshot(eng) != planted
    touched = snapshot(eng)
    owner = eng._min_owner
    u = next(u for u, o in enumerate(owner) if o is not None)
    owner[u] = (owner[u] + 1) % len(eng._structures)   # an owner index alone
    assert snapshot(eng) != touched

    def make_planted(stream):
        eng = make(stream)
        plant(eng.audit_tables()[-1][1], {v: 0})   # below any true distance
        return eng
    assert replay_digest(make_planted, [stream]) != \
        replay_digest(make, [stream])


def test_c7_digest_sees_the_hidden_pass():
    """The c7 workload runs rand with the raw ε, where fixing-phase hidden
    passes lower estimates: seeding every pass with no vertex changes its
    digest.  The windows are still drawn, so the random streams match."""
    [(label, make, streams)] = corpus_runs(c7_run, 1)
    config = make(streams[0]).config
    assert (config.mode, config.raw_epsilon, config.iter_mult) == \
        ("rand", True, Fraction(1, 100))

    def make_seedless(stream):
        eng = make(stream)
        for r in eng.ranges:
            r._window_union = lambda draws: np.empty(0, dtype=np.int64)
        return eng
    assert replay_digest(make, streams) != replay_digest(make_seedless,
                                                         streams)


def test_digests_split_by_structure():
    """A change to one C7 range moves its own digest and the state digest
    only: the short tree, at the largest folded cap, holds every distance
    exactly, so the answers stay too."""
    [(_, make, streams)] = corpus_runs(c7_run, 1)
    top = make(streams[0]).ranges[-1]

    def make_changed(stream):
        eng = make(stream)
        plant(eng.ranges[-1].table, {eng.source: 1})   # undone by preprocess
        return eng
    base = replay_digest(make, streams)
    changed = replay_digest(make_changed, streams)
    assert base.keys() == changed.keys()
    assert {"state", "answers", f"rand[{top.tau}]"} < base.keys()
    assert {k for k in base if base[k] != changed[k]} == \
        {"state", f"rand[{top.tau}]"}


def test_c1w14_ranges_own_answers():
    """The c1w14 workload's streams end with a deterministic range owning
    some minimum, so its digests cover range-owned answers; the c1 ones
    at W = 64 never get there."""
    for W, owns in ((2 ** 14, True), (64, False)):
        for _, make, [stream] in corpus_runs(c1_run, C1_STREAMS, W=W):
            eng = make(stream)
            eng.preprocess(stream.initial_edges)
            for _, u, v, w in stream.insertions:
                eng.insert(u, v, w)
            assert any(eng._min_owner) == owns   # the short tree is 0


def test_plan_digest_follows_the_parameters():
    """The plan digest is stable, moves with c_B (through the rescaled ε,
    which plans the τ = 128 range at c_B = 2 and none at c_B = 1), and
    ignores the seed in det mode, which draws nothing."""
    stream = random_stream(24, 80, 6, seed=7)

    def plan(**kw):
        def make(stream):
            return IncrementalSSSP(Config(
                n=stream.n, m_budget=stream.budget,
                max_weight=stream.max_weight, mode="det", **kw))
        return replay_digest(make, [stream])["plan"]
    assert plan() == plan()
    assert plan(c_b=1) != plan(c_b=2) == plan()
    assert plan(seed=1) == plan(seed=2)
