"""Solution objects returned by LP solver backends."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lp.expr import LinExpr, Variable


@dataclass
class SolveStats:
    """Bookkeeping about a solve, for the LP-timing experiments.

    ``pivots`` counts the basis changes (including bound flips) the
    solve needed; it is zero for backends that do not expose one.
    """

    backend: str = ""
    wall_seconds: float = 0.0
    iterations: int = 0
    num_variables: int = 0
    num_constraints: int = 0
    pivots: int = 0


@dataclass
class Solution:
    """An optimal solution to an LP model.

    Attributes
    ----------
    status:
        ``"optimal"`` on success; backends raise
        :class:`~repro.errors.SolverError` otherwise, so user code only
        ever sees optimal solutions.
    objective:
        Objective value in the model's own sense (a maximization model
        reports the maximum, even though backends minimize internally).
    values:
        Array of variable values indexed by variable index.
    inequality_duals:
        Shadow prices of the model's ``<=``/``>=`` constraints, indexed
        by their order among inequality rows, *in the model's own
        sense*: the objective's improvement per unit of right-hand-side
        slack.  Both shipped backends produce them; ``None`` only for a
        backend that does not.
    """

    status: str
    objective: float
    values: np.ndarray
    stats: SolveStats = field(default_factory=SolveStats)
    inequality_duals: np.ndarray | None = None

    def dual_of(self, model, constraint) -> float:
        """Shadow price of one inequality constraint of ``model``.

        For a budget row ``cost <= E`` of a maximization model this is
        the expected objective gain per extra unit of budget.
        """
        from repro.errors import SolverError

        if self.inequality_duals is None:
            raise SolverError("this backend did not produce dual values")
        index = 0
        for candidate in model.constraints:
            if candidate.sense == "==":
                continue
            if candidate is constraint:
                return float(self.inequality_duals[index])
            index += 1
        raise SolverError("constraint is not an inequality of this model")

    def value(self, item: Variable | LinExpr) -> float:
        """Value of a variable or linear expression under this solution."""
        if isinstance(item, Variable):
            return float(self.values[item.index])
        return float(item.evaluate(self.values))

    def __getitem__(self, var: Variable) -> float:
        return self.value(var)
