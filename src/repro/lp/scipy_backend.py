"""Production LP backend built on ``scipy.optimize.linprog`` (HiGHS).

This stands in for the ILOG CPLEX 8.1 solver the paper used; the LPs
are identical, only the solver implementation differs.  It is the only
engine production solves go through; the pure simplex
(:mod:`repro.lp.simplex`) is a cold-solve oracle for tests.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from repro.errors import SolverError
from repro.lp.model import Model
from repro.lp.result import Solution, SolveStats
from repro.lp.standard_form import compile_model, orient_inequality_duals
from repro.obs.spans import maybe_span

_STATUS_BY_CODE = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical",
}


class ScipyBackend:
    """Solve models with scipy's HiGHS wrapper.

    Every solve uses ``linprog(method="highs")``, which lets HiGHS
    choose between dual simplex and interior point.  The method is
    fixed, so ``name`` identifies the solver completely (the shared
    plan cache keys pooled solutions on it).

    Parameters
    ----------
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; when set, every
        solve records an ``lp_solve`` event and solve-time histograms.
    """

    name = "scipy-highs"

    def __init__(self, instrumentation=None) -> None:
        self.instrumentation = instrumentation

    def solve(self, model: Model) -> Solution:
        return self._solve_compiled(compile_model(model), model.name, model=model)

    def solve_form(self, form, name: str = "lp") -> Solution:
        """Solve a pre-compiled :class:`StandardForm` (fast-path entry).

        Used by :mod:`repro.lp.fastbuild`, which lowers the PROSPECTOR
        formulations to arrays without an algebraic model.  All
        inequality rows of a ``StandardForm`` are already in ``<=``
        orientation, so the reported duals need no per-row flips.
        """
        return self._solve_compiled(form, name, model=None)

    @staticmethod
    def _hoisted(form) -> dict:
        """One-time preparation of the ``linprog`` inputs for a sweep.

        ``linprog`` re-validates and re-converts every array on every
        call: the dense ``A_ub`` is copied to CSC for HiGHS and the
        bounds list is re-parsed each time.  Doing that work once per
        sweep (CSC matrices, a packed ``(n, 2)`` bounds array) is where
        :meth:`solve_sweep` gets its speedup over per-budget solves.
        """
        bounds = np.empty((form.num_variables, 2), dtype=float)
        for i, (lo, hi) in enumerate(form.bounds):
            bounds[i, 0] = -np.inf if lo is None else lo
            bounds[i, 1] = np.inf if hi is None else hi
        return {
            "c": np.ascontiguousarray(form.c, dtype=float),
            "a_ub": csc_array(form.a_ub) if form.a_ub.shape[0] else None,
            "a_eq": csc_array(form.a_eq) if form.a_eq.shape[0] else None,
            "b_eq": form.b_eq if form.b_eq.size else None,
            "bounds": bounds,
        }

    def _solve_compiled(
        self, form, name: str, model: Model | None, b_ub=None,
        prepared=None,
    ) -> Solution:
        start = time.perf_counter()
        rhs = form.b_ub if b_ub is None else b_ub
        if prepared is None:
            kwargs = {
                "A_ub": form.a_ub if form.a_ub.shape[0] else None,
                "A_eq": form.a_eq if form.a_eq.shape[0] else None,
                "b_eq": form.b_eq if form.b_eq.size else None,
                "bounds": form.bounds,
            }
            c = form.c
        else:
            kwargs = {
                "A_ub": prepared["a_ub"],
                "A_eq": prepared["a_eq"],
                "b_eq": prepared["b_eq"],
                "bounds": prepared["bounds"],
            }
            c = prepared["c"]
        with maybe_span(
            self.instrumentation, "solve", model=name, backend=self.name
        ) as span:
            result = linprog(
                c,
                b_ub=rhs if rhs.size else None,
                method="highs",
                **kwargs,
            )
            span.annotate(iterations=int(getattr(result, "nit", 0) or 0))
        elapsed = time.perf_counter() - start
        if not result.success:
            status = _STATUS_BY_CODE.get(result.status, "error")
            raise SolverError(
                f"LP {name!r} failed: {result.message}", status=status
            )
        values = np.asarray(result.x, dtype=float)
        stats = SolveStats(
            backend=self.name,
            wall_seconds=elapsed,
            iterations=int(getattr(result, "nit", 0) or 0),
            num_variables=form.num_variables,
            num_constraints=form.a_ub.shape[0] + form.a_eq.shape[0],
        )
        if self.instrumentation is not None:
            self.instrumentation.record_lp_solve(name, stats)
        return Solution(
            status="optimal",
            objective=form.report_objective(float(result.fun)),
            values=values,
            stats=stats,
            inequality_duals=self._duals(model, form, result),
        )

    def solve_sweep(self, parametric, rhs_values, name: str | None = None):
        """Solve one compiled form for many values of its RHS slot.

        scipy's ``linprog`` has no warm-start entry point, so the win
        here is structural: the sweep compiles once and every member
        reuses the same ``c``/``A_ub``/``A_eq``/bounds arrays, patching
        the single scalar RHS slot per solve.  Returns one
        :class:`~repro.lp.result.Solution` per value, element-wise
        identical to independent cold solves (the patched arrays are
        bitwise equal to freshly compiled ones).
        """
        label = name or parametric.name
        form = parametric.compiled.form
        prepared = self._hoisted(form)
        b_ub = form.b_ub.copy()
        solutions = []
        start = time.perf_counter()
        for rhs in np.asarray(rhs_values, dtype=float):
            b_ub[parametric.row] = rhs
            with maybe_span(
                self.instrumentation, "sweep.member",
                model=label, rhs=float(rhs),
            ):
                solutions.append(
                    self._solve_compiled(
                        form, label, model=None, b_ub=b_ub,
                        prepared=prepared,
                    )
                )
        if self.instrumentation is not None:
            self.instrumentation.record_lp_sweep(
                label,
                members=len(solutions),
                seconds=time.perf_counter() - start,
            )
        return solutions

    @staticmethod
    def _duals(model, form, result) -> np.ndarray | None:
        """HiGHS marginals oriented into the model's own sense."""
        ineqlin = getattr(result, "ineqlin", None)
        marginals = getattr(ineqlin, "marginals", None)
        return orient_inequality_duals(marginals, form, model)
