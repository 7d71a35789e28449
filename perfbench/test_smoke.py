"""Smoke test of the benchmark itself at a tiny size (n=16, a few ops
per workload), untraced and traced.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "n": 16,
    "radio_range": 40.0,
    "pool_rows": 256,
    "setup_repeats": 1,
    "slices": 2,
    "rate_per_s": 200,
    "warmup_ops": 1,
    "accuracy_ops": 3,
}
SECONDS = {"query_stream": 0.4, "replan_feed": 0.6, "batch_scan": 0.3}
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def tiny(name: str, trace: bool):
    return workloads.WORKLOADS[name](
        workloads.load_spec(name, **TINY), 7, SECONDS[name], trace,
        server_cpu=run._cores()[0],
    )


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = tiny(name, trace=False).run()
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_writes_a_well_formed_span_tree(name):
    result = tiny(name, trace=True).run()
    assert result["correct"], result
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    trace = json.loads(
        (workloads.OUT_DIR / f"trace-{name}.json").read_text()
    )
    spans = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            spans[(event["pid"], event["args"]["id"])] = event
    assert any(e["name"] == "service.server.handle" for e in spans.values())
    covered = {}
    for (pid, __), span in spans.items():
        parent = span["args"]["parent"]
        if not parent:
            continue
        outer = spans[(pid, parent)]
        assert outer["tid"] == span["tid"]
        assert outer["ts"] <= span["ts"]
        assert span["ts"] + span["dur"] <= outer["ts"] + outer["dur"] + 1e-3
        covered[(pid, parent)] = covered.get((pid, parent), 0) + span["dur"]
    for key, span in spans.items():
        assert span["dur"] - covered.get(key, 0.0) >= -1e-3


def _tampered(workload, tamper) -> int:
    """Failures the output check finds after ``tamper`` edits one
    recorded answer."""
    workload.setup()
    try:
        workload.warmup()
        workload.timed(workload.seconds, with_throughput=False)
        tamper(workload)
        workload.check()
    finally:
        workload.client.close()
        workload.server.stop()
    return workload.failed


def test_checks_catch_a_wrong_query_answer():
    def tamper(workload):
        row, reply = workload.answers[-1]
        wrong = dataclasses.replace(reply, energy_mj=reply.energy_mj + 1e-6)
        workload.answers[-1] = (row, wrong)

    assert _tampered(tiny("query_stream", False), tamper) == 1


def test_checks_catch_a_batch_row_that_differs_from_the_scalar_answer():
    def tamper(workload):
        frame, reply = workload.answers[-1]
        nodes = list(reply.nodes)
        nodes[0] = tuple(reversed(nodes[0]))
        workload.answers[-1] = (
            frame, dataclasses.replace(reply, nodes=tuple(nodes))
        )

    assert _tampered(tiny("batch_scan", False), tamper) == 1


def test_checks_catch_a_plan_over_its_budget():
    def tamper(workload):
        # the last lp-lf plan, made to collect every value
        index = max(i for i, (slot, __) in enumerate(workload.plans) if slot == 0)
        bloated = dict(workload.plans[index][1])
        bloated["bandwidths"] = {
            str(edge): workload.topology.n for edge in workload.topology.edges
        }
        workload.plans[index] = (0, bloated)

    assert _tampered(tiny("replan_feed", False), tamper) == 1
