"""Spans around each layer's entry points, recorded from outside the program.

:class:`Tracer` replaces methods on live objects (and one module function)
with timing wrappers, keeps every span in memory as integer columns, and
puts every attribute back on :meth:`Tracer.restore`.  A span records its
name, id, start, end, parent span and insertion number; the insertion
number counts root spans, which are the engine's ``insert`` calls.
"""

from array import array
from collections import defaultdict
from time import perf_counter_ns

import incsssp.det
from incsssp import CAP, oracle

COLUMNS = ("name", "id", "start_ns", "end_ns", "parent", "insertion")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in COLUMNS}
        self.counts: dict[str, int] = defaultdict(int)
        self.insertion = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, obj, attr: str, name: str, pre=None, post=None) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``.

        ``pre(args)`` runs before the span opens and its result reaches
        ``post(args, result, token)`` after it closes; both feed counts.
        """
        fn = getattr(obj, attr)
        own = vars(obj)
        self._saved.append((obj, attr, attr in own, own.get(attr)))
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        c_name, c_id, c_start, c_end, c_parent, c_ins = (
            self.cols[c].append for c in COLUMNS)
        clock = perf_counter_ns
        tracer = self

        def wrapper(*args):
            token = pre(args) if pre is not None else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                tracer.insertion += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                t1 = clock()
                stack.pop()
                c_name(nid)
                c_id(sid)
                c_start(t0)
                c_end(t1)
                c_parent(parent)
                c_ins(tracer.insertion)
            if post is not None:
                post(args, result, token)
            return result

        setattr(obj, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            obj, attr, was_own, old = self._saved.pop()
            if was_own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    # -- attaching to the engines ------------------------------------------

    def _count_work(self, table):
        """Hooks adding a call's work and decreases on ``table`` to the
        lazy-layer counts."""
        counts = self.counts

        def pre(args):
            return table.work, table.decreases

        def post(args, result, token):
            counts["lazy.work"] += table.work - token[0]
            counts["lazy.decreases"] += table.decreases - token[1]
        return pre, post

    def attach(self, engine: str, adapter) -> None:
        """Wrap the layers of one benchmark adapter (see ``engines.py``)."""
        counts = self.counts
        if engine in ("exact", "scipy"):
            self.wrap(adapter, "insert", "engine.insert")
            self.wrap(adapter.graph, "insert_edge", "graph.insert_edge")
            if engine == "exact":
                self.wrap(adapter.short, "insert", "short.insert")
            else:
                self.wrap(oracle, "exact_distances_fast",
                          "oracle.exact_distances_fast")
            return
        eng = adapter.engine
        n = eng.graph.n
        self.wrap(eng, "insert", "engine.insert")
        self.wrap(eng.graph, "insert_edge", "graph.insert_edge")
        self.wrap(eng.short, "insert", "short.insert")
        for r in eng.ranges:
            self.wrap(r, "insert", "range.insert")
            if engine == "rand":
                def cause(args, r=r):
                    counts["fixing_full" if r.b >= r.B
                           else "fixing_potential"] += 1

                def window(args, result, token):
                    counts["window_calls"] += 1
                    counts["window_vertices"] += len(result)
                self.wrap(r, "run_fixing_phase", "range.run_fixing_phase",
                          pre=cause)
                self.wrap(r, "_window_union", "range.window_union",
                          post=window)
            else:
                self.wrap(r, "phase_full", "range.phase_full")
                self.wrap(r, "rebuild", "range.rebuild")
        for label, table in eng.audit_tables():
            kind = "hidden" if label.endswith(".hidden") else "table"
            pre, post = self._count_work(table)
            self.wrap(table, "partial_dijkstra", f"{kind}.partial_dijkstra",
                      pre=pre, post=post)
            self.wrap(table, "assign_exact", f"{kind}.assign_exact")
            self.wrap(table, "touched_in_window", f"{kind}.touched_in_window")
        if engine != "rand":
            def reach(args, result, token):
                counts["reach_calls"] += 1
                counts["reach_vertices"] += n - result[0].count(CAP)
            self.wrap(incsssp.det, "bounded_dijkstra", "det.bounded_dijkstra",
                      post=reach)

    # -- reading the spans ---------------------------------------------------

    def aggregate(self) -> dict[str, list[int]]:
        """name -> [total ns, self ns, calls], plus ``<parent>/<name>``
        entries for spans by the name of their parent; absent names read
        as zeros."""
        cols = self.cols
        names = self.names
        size = self._next_id
        dur = array("q", bytes(8 * size))
        child = array("q", bytes(8 * size))
        name_of = array("q", bytes(8 * size))
        for nid, sid, t0, t1, parent in zip(cols["name"], cols["id"],
                                            cols["start_ns"], cols["end_ns"],
                                            cols["parent"]):
            dur[sid] = t1 - t0
            name_of[sid] = nid
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for sid, parent in zip(cols["id"], cols["parent"]):
            name = names[name_of[sid]]
            keys = (name,) if parent < 0 else (
                name, f"{names[name_of[parent]]}/{name}")
            for key in keys:
                agg = out[key]
                agg[0] += dur[sid]
                agg[1] += dur[sid] - child[sid]
                agg[2] += 1
        return out

    def dump(self) -> dict:
        return {"names": self.names, "columns": list(COLUMNS),
                "spans": {c: self.cols[c].tolist() for c in COLUMNS}}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(engine: str, tracer: Tracer, short_delta, n: int) -> dict:
    """Per-layer metrics of one traced replay, as name -> (value, unit).

    ``short_delta`` is the (work, decreases) the short tree added during
    the replay, or None for the scipy baseline.
    """
    agg = tracer.aggregate()
    c = tracer.counts
    out: dict[str, tuple] = {}

    def put(name, value, unit):
        out[f"{engine}.{name}"] = (value, unit)

    def seconds(span, own=False):
        return agg[span][1 if own else 0] / 1e9

    def calls(span):
        return agg[span][2]

    if engine in ("exact", "scipy"):
        put("graph.insert_edge_s", seconds("graph.insert_edge"), "s")
        if engine == "exact":
            put("short.insert_s", seconds("short.insert"), "s")
            put("short.work", short_delta[0], "count")
            put("short.decreases", short_delta[1], "count")
        else:
            put("oracle.exact_distances_fast_s",
                seconds("oracle.exact_distances_fast"), "s")
        return out

    put("engine.insert_s", seconds("engine.insert"), "s")
    put("engine.self_s", seconds("engine.insert", own=True), "s")
    put("graph.insert_edge_s", seconds("graph.insert_edge"), "s")
    put("short.insert_s", seconds("short.insert"), "s")
    put("short.work", short_delta[0], "count")
    put("short.decreases", short_delta[1], "count")
    if engine == "rand":
        put("rand.insert_s", seconds("range.insert"), "s")
        put("rand.fixing_s", seconds("range.run_fixing_phase"), "s")
        put("rand.fixing_self_s",
            seconds("range.run_fixing_phase", own=True), "s")
        put("rand.fixing_full", c["fixing_full"], "count")
        put("rand.fixing_potential", c["fixing_potential"], "count")
        put("rand.window_union_s", seconds("range.window_union"), "s")
        put("rand.window_ratio",
            _ratio(c["window_vertices"], c["window_calls"] * n), "ratio")
        put("lazy.hidden_propagate_s",
            seconds("range.run_fixing_phase/hidden.partial_dijkstra"), "s")
    else:
        put("det.rebuild_s", seconds("range.rebuild"), "s")
        put("det.rebuilds", calls("range.rebuild"), "count")
        put("det.bounded_dijkstra_s", seconds("det.bounded_dijkstra"), "s")
        put("det.assign_exact_s", seconds("table.assign_exact"), "s")
        put("det.reach_ratio",
            _ratio(c["reach_vertices"], c["reach_calls"] * n), "ratio")
    kinds = ("table", "hidden")
    put("lazy.partial_dijkstra_s",
        sum(seconds(f"{k}.partial_dijkstra") for k in kinds), "s")
    put("lazy.partial_dijkstra_calls",
        sum(calls(f"{k}.partial_dijkstra") for k in kinds), "count")
    put("lazy.touched_in_window_s",
        sum(seconds(f"{k}.touched_in_window") for k in kinds), "s")
    put("lazy.work", c["lazy.work"], "count")
    put("lazy.decreases", c["lazy.decreases"], "count")
    put("lazy.useful_ratio", _ratio(c["lazy.decreases"], c["lazy.work"]),
        "ratio")
    return out


def self_time_split(tracer: Tracer) -> list[tuple[str, float]]:
    """Span names by self time, as shares of all traced time."""
    agg = tracer.aggregate()
    plain = {k: v[1] for k, v in agg.items() if "/" not in k}
    total = sum(plain.values()) or 1
    return sorted(((k, v / total) for k, v in plain.items()),
                  key=lambda kv: -kv[1])
