"""Per-layer metrics of a traced run, from the recorded spans.

Span tuples are ``(span_id, parent_id, name, start_ns, end_ns,
request_id, thread_id, weight)`` (see :mod:`tracing`).  "Steady" spans
are those of the traced pass's requests (their correlation ids);
set-up work — the first plans, the window feeds — is in the rest.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import tracing

PLANNERS = ("lp-lf", "lp-no-lf", "proof")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def per_layer(*, server_spans, counts, client_spans, traced, untraced,
              counted, stats, late_p99_ms) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    steady_ids = {cid for cid, __, __ in traced.requests}
    own = tracing.self_times(server_spans)
    by_name: dict[str, list] = defaultdict(list)
    steady: dict[str, list] = defaultdict(list)
    for span in server_spans:
        by_name[span[2]].append(span)
        if span[5] in steady_ids:
            steady[span[2]].append(span)

    def durations_us(spans) -> list:
        return [(span[4] - span[3]) / 1e3 for span in spans]

    def mean_ms(name) -> float:
        return _mean(durations_us(by_name[name])) / 1e3

    def per_row_us(name) -> float:
        spans = steady[name]
        rows = sum(span[7] for span in spans)
        return sum(durations_us(spans)) / rows if rows else 0.0

    handles = steady["service.server.handle"]
    handle_total = sum(durations_us(handles))
    handle_of = {span[5]: (span[4] - span[3]) / 1e3 for span in handles}
    round_trips = {
        cid: (done - sent) * 1e6 for cid, sent, done in traced.requests
    }
    requests = max(len(traced.requests), 1)
    client = defaultdict(float)
    for span in client_spans:
        if span[5] in steady_ids:
            client[span[2]] += (span[4] - span[3]) / 1e3

    planning_us = sum(
        own[span[0]] / 1e3
        for name, spans in steady.items()
        if name.startswith(("planners.", "lp."))
        for span in spans
    )
    planned = {
        span[1] for name in by_name if name.startswith("planners.plan.")
        for span in by_name[name]
    }
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    counted_queries = max(counted.queries, 1)

    metrics = {
        "service.wire.encode_us": (
            (sum(durations_us(steady["service.wire.encode"]))
             + client["client.wire.encode"]) / requests, "us"),
        "service.wire.decode_us": (
            (sum(durations_us(steady["service.wire.decode"]))
             + client["client.wire.decode"]) / requests, "us"),
        "service.wire.bytes_per_request": (
            stats["wire"]["bytes_per_request"]["v2"] or 0.0, "bytes"),
        "service.client.request_us": (
            _median(list(round_trips.values())), "us"),
        "service.server.outside_handle_us": (
            _median([
                round_trips[cid] - handle_of[cid]
                for cid in round_trips if cid in handle_of
            ]), "us"),
        "service.server.handle_us": (
            _median([own[span[0]] / 1e3 for span in handles]), "us"),
        "service.session.shed": (stats["requests_shed"], "count"),
        "service.cache.hits": (cache["hits"], "count"),
        "service.cache.misses": (cache["misses"], "count"),
        "service.cache.hit_ratio": (
            cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "query.engine.query_us": (
            _median(durations_us(steady["query.engine.query"])), "us"),
        "query.engine.feed_us": (
            _median(durations_us(by_name["query.engine.feed"])), "us"),
        "query.engine.ensure_plan_ms": (
            _mean([
                (span[4] - span[3]) / 1e6
                for span in by_name["query.engine.ensure_plan"]
                if span[0] in planned
            ]), "ms"),
        "query.engine.query_batch_us_per_row": (
            per_row_us("query.engine.query_batch"), "us"),
        "query.engine.batch_vectorized_ratio": (
            counts.get("simulation.batch.rows", 0) / counted.batch_rows
            if counted.batch_rows else 0.0, "ratio"),
        "simulation.runtime.run_collection_us": (
            _median(durations_us(steady["simulation.runtime.run_collection"])),
            "us"),
        "plans.execution.execute_plan_us": (
            _median(durations_us(steady["plans.execution.execute_plan"])),
            "us"),
        "simulation.batch.run_collection_us_per_row": (
            per_row_us("simulation.batch.run_collection"), "us"),
        "obs.energy.ledger_charge_us": (
            sum(durations_us(steady["obs.energy.ledger"]))
            / max(traced.queries, 1), "us"),
        "network.topology.root_calls_per_query": (
            counts.get("network.topology.root", 0) / counted_queries, "count"),
        "plans.plan.visited_nodes_calls_per_query": (
            counts.get("plans.plan.visited_nodes", 0) / counted_queries,
            "count"),
        "planners.rounding_ms": (mean_ms("planners.rounding"), "ms"),
        "sampling.window.matrix_us": (
            mean_ms("sampling.window.matrix") * 1e3, "us"),
        "loadgen.late_p99_ms": (late_p99_ms, "ms"),
        "e2e.latency_p95_ms": (untraced.latency(95), "ms"),
        "e2e.latency_p99_ms": (untraced.latency(99), "ms"),
        "trace.overhead_ratio": (
            traced.latency(50) / untraced.latency(50), "ratio"),
        "layer.planning_share_of_handle": (
            planning_us / handle_total if handle_total else 0.0, "ratio"),
        "layer.query_batch_share_of_handle": (
            sum(durations_us(steady["query.engine.query_batch"]))
            / handle_total if handle_total else 0.0, "ratio"),
    }
    for planner in PLANNERS:
        metrics[f"planners.plan_ms.{planner}"] = (
            mean_ms(f"planners.plan.{planner}"), "ms")
        metrics[f"lp.fastbuild.compile_ms.{planner}"] = (
            mean_ms(f"lp.fastbuild.compile.{planner}"), "ms")
        metrics[f"lp.solve_ms.{planner}"] = (
            mean_ms(f"lp.solve.{planner}"), "ms")
    return metrics
