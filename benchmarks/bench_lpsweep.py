"""Parametric budget-sweep benchmark on the production LP engine (HiGHS).

An 8-budget Figure-3-shaped ladder over the LP+LF formulation at
n = 60, m = 25, measured two ways:

- ``sweep``: one :class:`~repro.lp.ParametricForm` compile plus
  ``ScipyBackend.solve_sweep`` — the budget row's RHS slot is patched
  per member and the ``linprog`` inputs are converted once;
- ``cold``: a fresh ``compile_lp_lf`` + ``solve_form`` per budget (the
  pre-sweep regime).

Every member is a cold HiGHS solve, so the sweep's win is the shared
compile and the hoisted input conversion.  Both paths run once untimed
(the first call in a process absorbs one-time import and allocation
cost), then ``REPEATS`` timed times, alternating the two so drift on
the host hits both alike; ``sweep_s`` and ``cold_s`` are the medians,
``*_iqr_s`` the interquartile ranges, and ``speedup`` the ratio of the
medians.  The regression gate tracks ``speedup`` against the committed
baseline.  Equivalence is asserted on the warm-up run: sweep
objectives match the cold objectives to 1e-9 and the rounded LP+LF
plans are exactly equal.

``run(quick=True)`` (or ``--quick`` / ``BENCH_QUICK=1``) shrinks the
instance for the CI smoke job.  Besides the human-readable
``results/lpsweep.txt`` table, a machine-readable
``results/BENCH_lpsweep.json`` is written for the CI artifact and the
regression gate.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import replace

import numpy as np
from _helpers import RESULTS_DIR, record

from repro.datagen.gaussian import random_gaussian_field
from repro.lp import ScipyBackend, compile_lp_lf
from repro.lp.fastbuild import compile_lp_lf_parametric
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.rounding import round_bandwidth

K = 10
REPEATS = 15
_BUDGET_FACTORS = (0.7, 0.85, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


def _context(n: int, m: int) -> PlanningContext:
    rng = np.random.default_rng(2006)
    energy = EnergyModel.mica2()
    topology = random_topology(n, rng=rng, radio_range=max(25.0, 200.0 / n**0.5))
    field = random_gaussian_field(n, rng).scaled_variance(4.0)
    samples = field.trace(m, rng).sample_matrix(K)
    budget = energy.message_cost(1) * 2 * K
    return PlanningContext(topology, energy, samples, K, budget)


def _sweep(backend, context, budgets):
    parametric = compile_lp_lf_parametric(context)
    return parametric, backend.solve_sweep(
        parametric, parametric.rhs_values(budgets)
    )


def _cold(backend, context, budgets):
    solutions = []
    for budget in budgets:
        compiled = compile_lp_lf(replace(context, budget=budget))
        solutions.append(backend.solve_form(compiled.form, compiled.name))
    return solutions


def _check_equivalence(context, budgets, parametric, sweep, cold) -> None:
    """Objectives to 1e-9; plans exactly equal after the planner's
    rounding (raw vectors may differ at alternate optima)."""
    planner = LPLFPlanner()
    bandwidth_of = parametric.compiled.primary_columns
    for budget, swept, fresh in zip(budgets, sweep, cold):
        assert abs(swept.objective - fresh.objective) <= 1e-9 * max(
            1.0, abs(fresh.objective)
        )
        member_context = replace(context, budget=float(budget))
        plans = [
            planner._repair_and_fill(
                member_context,
                {
                    edge: round_bandwidth(float(member.values[col]))
                    for edge, col in bandwidth_of.items()
                },
            ).bandwidths
            for member in (swept, fresh)
        ]
        assert plans[0] == plans[1]


def _timed(*paths) -> list[list[float]]:
    """``REPEATS`` wall times per path, the paths run alternately."""
    seconds = [[] for __ in paths]
    for __ in range(REPEATS):
        for times, path in zip(seconds, paths):
            start = time.perf_counter()
            path()
            times.append(time.perf_counter() - start)
    return seconds


def _iqr(seconds: list[float]) -> float:
    quartiles = statistics.quantiles(seconds, n=4)
    return quartiles[2] - quartiles[0]


def run(quick: bool = False) -> list[dict]:
    n, m = (30, 10) if quick else (60, 25)
    context = _context(n, m)
    budgets = [context.budget * factor for factor in _BUDGET_FACTORS]
    backend = ScipyBackend()
    # untimed warm-up of both paths, which also carries the
    # equivalence check
    parametric, sweep = _sweep(backend, context, budgets)
    cold = _cold(backend, context, budgets)
    _check_equivalence(context, budgets, parametric, sweep, cold)

    sweep_times, cold_times = _timed(
        lambda: _sweep(backend, context, budgets),
        lambda: _cold(backend, context, budgets),
    )
    sweep_s = statistics.median(sweep_times)
    cold_s = statistics.median(cold_times)
    return [{
        "backend": backend.name,
        "budgets": len(budgets),
        "repeats": REPEATS,
        "sweep_s": sweep_s,
        "sweep_iqr_s": _iqr(sweep_times),
        "cold_s": cold_s,
        "cold_iqr_s": _iqr(cold_times),
        "speedup": cold_s / max(sweep_s, 1e-12),
    }]


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "lpsweep",
        rows,
        columns=[
            "backend", "budgets", "repeats", "sweep_s", "sweep_iqr_s",
            "cold_s", "cold_iqr_s", "speedup",
        ],
        title="Parametric budget sweep vs per-budget cold solves"
        " (LP+LF, HiGHS, medians)",
    )
    payload = {
        "benchmark": "lpsweep",
        "quick": quick,
        "rows": rows,
    }
    (RESULTS_DIR / "BENCH_lpsweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


def test_lpsweep(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
