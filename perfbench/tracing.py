"""Span recording from outside the program: wrappers around the public
functions of each layer, installed and removed at run time.

A :class:`Recorder` keeps finished spans in memory as tuples
``(span_id, parent_id, name, start_ns, end_ns, request_id, thread_id,
weight)``; parents come from a per-thread stack, so a span's parent is
the innermost wrapped call still open on the same thread.  The request
id is the wire correlation id: the wrapper around frame decoding
publishes it for the rest of the request on that thread.

Hot accessors (``Topology.root``, ``QueryPlan.visited_nodes``) are
never timed; :func:`install_server_counts` counts them in a separate
pass so their wrapper cost stays out of the timed self times.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter


class Recorder:
    """In-memory span and call-count store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self):
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid) -> None:
        self._local.rid = rid

    def timed(self, name, fn, *, name_of=None, rid_of=None, weight_of=None):
        """``fn`` wrapped in a span; the optional hooks derive the span
        name from the arguments, the request id from the arguments and
        result, and a work weight (rows, say) from the arguments."""
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rid = recorder.request_id
                if rid_of is not None:
                    rid = rid_of(args, kwargs, result)
                    recorder.request_id = rid
                recorder.spans.append((
                    span_id,
                    parent,
                    name if name_of is None else name_of(args, kwargs),
                    start,
                    end,
                    rid,
                    threading.get_ident(),
                    1 if weight_of is None else weight_of(args, kwargs),
                ))

        return wrapper

    def counted(self, name, fn, *, weight_of=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1 if weight_of is None else weight_of(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def record(self, name, start_ns, end_ns, rid) -> None:
        """A span timed by the caller (the generator's round trips)."""
        self.spans.append((
            next(self._ids), 0, name, start_ns, end_ns, rid,
            threading.get_ident(), 1,
        ))

    def to_dict(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts)}

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


class Patches:
    """Installed wrappers, restorable in one call."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def method(self, cls, attr, make) -> None:
        """Wrap ``cls.attr`` (a function or a property's getter)."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            replacement = property(make(original.fget))
        else:
            replacement = make(original)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def function(self, module, attr, make) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it
        by name (``from x import f`` copies the reference)."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows_at(index):
    """Weight hook: the row count of the readings matrix argument."""

    def rows(args, kwargs) -> int:
        matrix = _arg(args, kwargs, index, "readings_matrix")
        matrix = getattr(matrix, "values", matrix)
        return int(matrix.shape[0]) if hasattr(matrix, "shape") else len(matrix)

    return rows


def _solve_name(args, kwargs) -> str:
    name = _arg(args, kwargs, 2, "name") if len(args) > 2 or "name" in kwargs else "lp"
    return "lp.solve." + str(name).removeprefix("prospector-")


def _frame_cid(args, kwargs, result):
    return result[1] if result is not None else None


def _encode_cid(args, kwargs, result):
    return _arg(args, kwargs, 1, "cid") if len(args) > 1 or "cid" in kwargs else None


def install_server_spans(recorder: Recorder) -> Patches:
    """The timed wrapper set of the server process, one per layer."""
    from repro.lp import fastbuild
    from repro.lp.scipy_backend import ScipyBackend
    from repro.obs.energy import EnergyLedger
    from repro.planners.lp_lf import LPLFPlanner
    from repro.planners.lp_no_lf import LPNoLFPlanner
    from repro.planners.proof import ProofPlanner
    from repro.plans import execution
    from repro.query.engine import TopKEngine
    from repro.sampling.window import SampleWindow
    from repro.service import wire
    from repro.service.server import TopKService
    from repro.simulation.batch import BatchSimulator
    from repro.simulation.runtime import Simulator

    patches = Patches()

    def timed(name, **hooks):
        return lambda fn: recorder.timed(name, fn, **hooks)

    patches.method(TopKService, "handle", timed("service.server.handle"))
    patches.function(
        wire, "decode_frame_trace",
        timed("service.wire.decode", rid_of=_frame_cid),
    )
    patches.function(wire, "encode_frame", timed("service.wire.encode"))
    for attr, name in (
        ("query", "query.engine.query"),
        ("feed_sample", "query.engine.feed"),
        ("ensure_plan", "query.engine.ensure_plan"),
    ):
        patches.method(TopKEngine, attr, timed(name))
    patches.method(
        TopKEngine, "query_batch",
        timed("query.engine.query_batch", weight_of=_rows_at(1)),
    )
    patches.method(
        Simulator, "run_collection", timed("simulation.runtime.run_collection")
    )
    patches.function(
        execution, "execute_plan", timed("plans.execution.execute_plan")
    )
    patches.method(
        BatchSimulator, "run_collection",
        timed("simulation.batch.run_collection", weight_of=_rows_at(2)),
    )
    for attr in ("charge", "end_epoch", "charge_epochs"):
        patches.method(EnergyLedger, attr, timed("obs.energy.ledger"))
    for cls, planner, post_solve in (
        (LPLFPlanner, "lp-lf", "_repair_and_fill"),
        (LPNoLFPlanner, "lp-no-lf", "_round_and_fill"),
        (ProofPlanner, "proof", "_repair_and_fill"),
    ):
        patches.method(cls, "plan", timed(f"planners.plan.{planner}"))
        patches.method(cls, post_solve, timed("planners.rounding"))
    for attr, formulation in (
        ("compile_lp_lf", "lp-lf"),
        ("compile_lp_no_lf", "lp-no-lf"),
        ("compile_proof", "proof"),
    ):
        patches.function(
            fastbuild, attr, timed(f"lp.fastbuild.compile.{formulation}")
        )
    patches.method(ScipyBackend, "solve_form", timed("lp", name_of=_solve_name))
    patches.method(SampleWindow, "matrix", timed("sampling.window.matrix"))
    return patches


def install_server_counts(recorder: Recorder) -> Patches:
    """The counting pass: hot accessors and rows reaching the
    vectorized batch simulator, counted but never timed."""
    from repro.network.topology import Topology
    from repro.plans.plan import QueryPlan
    from repro.simulation.batch import BatchSimulator

    patches = Patches()
    patches.method(
        Topology, "root",
        lambda fn: recorder.counted("network.topology.root", fn),
    )
    patches.method(
        QueryPlan, "visited_nodes",
        lambda fn: recorder.counted("plans.plan.visited_nodes", fn),
    )
    patches.method(
        BatchSimulator, "run_collection",
        lambda fn: recorder.counted(
            "simulation.batch.rows", fn, weight_of=_rows_at(2)
        ),
    )
    return patches


def install_client_spans(recorder: Recorder) -> Patches:
    """The generator's codec wrappers (its round trips are recorded
    by the generator itself)."""
    from repro.service import wire

    patches = Patches()
    patches.function(
        wire, "encode_frame",
        lambda fn: recorder.timed("client.wire.encode", fn, rid_of=_encode_cid),
    )
    patches.function(
        wire, "decode_frame",
        lambda fn: recorder.timed("client.wire.decode", fn, rid_of=_frame_cid),
    )
    return patches


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the part of it that
    child spans cover (children of one span run on its thread, one
    after another, so their durations add)."""
    covered: Counter = Counter()
    for __, parent, __, start, end, *__ in spans:
        if parent:
            covered[parent] += end - start
    return {
        span[0]: (span[4] - span[3]) - covered[span[0]] for span in spans
    }


def chrome_trace(process_spans: dict[str, list]) -> dict:
    """Chrome-trace JSON (``chrome://tracing`` / Perfetto) of the
    spans of several processes, one ``pid`` lane each."""
    events = []
    for pid, (process, spans) in enumerate(sorted(process_spans.items()), 1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": process},
        })
        for span_id, parent, name, start, end, rid, tid, weight in spans:
            events.append({
                "name": name,
                "ph": "X",
                "ts": start / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": {
                    "id": span_id, "parent": parent, "rid": rid,
                    "weight": weight,
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
