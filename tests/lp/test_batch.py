"""Budget ladders solved as one batch: ``solve_sweep`` and its cache.

A whole ladder goes to the backend as one ``solve_sweep`` call, which
records the ``lp.sweep.*`` counters, and the cross-session
:class:`~repro.service.cache.SharedPlanCache` solves each
``(content, backend, ladder)`` at most once.  Equivalence with cold
solves lives in ``test_parametric.py``; the simplex-oracle cross-check
in ``test_duals.py``.
"""

from __future__ import annotations

import numpy as np

from repro.lp import ScipyBackend, compile_lp_no_lf_parametric
from repro.obs import Instrumentation
from repro.service.cache import SharedPlanCache
from tests.lp.test_fastbuild import make_context

_FACTORS = np.linspace(0.7, 2.4, 16)


def _ladder(context, parametric):
    budgets = [context.budget * float(f) for f in _FACTORS]
    return parametric.rhs_values(budgets)


class TestBatchTelemetry:
    def test_scipy_batch_records_counters(self):
        obs = Instrumentation()
        context = make_context(7, 10, 5, 3)
        parametric = compile_lp_no_lf_parametric(context)
        rhs = _ladder(context, parametric)
        members = ScipyBackend(instrumentation=obs).solve_sweep(
            parametric, rhs
        )
        assert len(members) == len(rhs)
        assert obs.counter("lp.sweep.solves").value == 1
        assert obs.counter("lp.sweep.members").value == len(rhs)
        assert obs.counter("lp.solves").value == len(rhs)
        events = obs.trace.events("lp_sweep")
        assert len(events) == 1
        assert events[0].data["model"] == parametric.name
        assert events[0].data["members"] == len(rhs)
        assert events[0].data["seconds"] >= 0
        hist = obs.histogram(f"lp.sweep.seconds.{parametric.name}")
        assert hist.count == 1


class TestSharedSweepCache:
    def test_equal_ladders_solve_once(self):
        obs = Instrumentation()
        cache = SharedPlanCache()
        context = make_context(8, 10, 5, 3)
        parametric = compile_lp_no_lf_parametric(context)
        rhs = _ladder(context, parametric)
        backend = ScipyBackend(instrumentation=obs)
        first = cache.sweep_solutions(
            "lp-no-lf", context, parametric, rhs, backend
        )
        second = cache.sweep_solutions(
            "lp-no-lf", context, parametric, rhs, backend
        )
        assert cache.sweep_misses == 1
        assert cache.sweep_hits == 1
        assert obs.counter("lp.sweep.solves").value == 1
        assert [m.objective for m in first] == [m.objective for m in second]
        stats = cache.stats()
        assert stats["sweep_entries"] == 1
        assert stats["sweep_hits"] == 1

    def test_different_ladders_miss(self):
        cache = SharedPlanCache()
        context = make_context(8, 10, 5, 3)
        parametric = compile_lp_no_lf_parametric(context)
        rhs = _ladder(context, parametric)
        backend = ScipyBackend()
        cache.sweep_solutions("lp-no-lf", context, parametric, rhs, backend)
        cache.sweep_solutions(
            "lp-no-lf", context, parametric, rhs * 1.1, backend
        )
        assert cache.sweep_misses == 2
        assert cache.sweep_hits == 0
