"""Semismooth Newton driver with pluggable step-length strategies.

Each iteration assembles the residual and generalized Jacobian once, solves
the linear system by direct factorization, picks a step length with the
chosen strategy, and applies the update. Convergence is declared on the
root-mean-square norm of either the increment or the residual; divergence on
a non-finite initial residual, a failed factorization or search, a
non-finite residual or iterate, or a residual past ``DIVERGENCE_FACTOR``
times the initial one. The iteration cap is a constant too.

``NewtonReport.trace`` holds one ``IterationRecord`` per iteration, record 0
the initial state. A record holds what its iteration computed and ``None``
for what it did not reach; the report's lists and counters derive from it.

Models are duck-typed: they provide ``residual(x)``, ``jacobian(x)`` and
``initial_guess()``. ``residual`` maps the last axis, one point ``(n_dofs,)``
or a stack ``(k, n_dofs)`` giving one residual row per point, so a residual
search evaluates its trial points in one stacked call. Contact-aware models
also expose ``contact_states(x)``, a read-only ``ContactStates`` of per-cell
arrays that the searches, the census and the adaptive scale read, and
``fracture_cells()``, the cell range of each fracture. ``contact_states``
marks a model as contact-aware (a missing ``fracture_cells`` raises); models
without it take full steps under the constraint strategies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .contact import classify_regime, evaluate_field, reference_mask
from .linesearch import (
    LineSearchOutcome,
    SearchDiverged,
    Strategy,
    search_constraint,
    search_residual,
)
from .scaling import cell_scale_estimate, p_mean_scale

__all__ = [
    "SolveStatus",
    "CriterionKind",
    "ConvergenceCriterion",
    "NewtonOptions",
    "IterationRecord",
    "NewtonReport",
    "LinearSolveFailed",
    "linear_solve",
    "solve",
]


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    NO_CONVERGENCE = "NC"
    DIVERGED = "Div"


# The residual norm past which a run is declared diverged, relative to the
# initial one, and the iteration cap of every run.
DIVERGENCE_FACTOR = 1e10
MAX_ITERATIONS = 100


class CriterionKind(enum.Enum):
    INCREMENT = "increment"
    RESIDUAL = "residual"


@dataclass(frozen=True)
class ConvergenceCriterion:
    kind: CriterionKind = CriterionKind.INCREMENT
    tolerance: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class NewtonOptions:
    criterion: ConvergenceCriterion = ConvergenceCriterion()
    line_search: Strategy = Strategy.CONSTRAINT_ADAPTIVE
    # Diagnostic: pin the adaptive scale at 1 (reproduces constraint-const bitwise).
    force_unit_scale: bool = False

    def __post_init__(self):
        if not isinstance(self.line_search, Strategy):
            raise TypeError("line_search must be a Strategy")


@dataclass
class IterationRecord:
    """One iteration's values; ``census`` is (open, sticking, sliding) cells."""

    increment_norm: float | None = None
    search: LineSearchOutcome | None = None
    census: tuple[int, int, int] | None = None
    residual_norm: float | None = None
    scale: float | None = None


def _recorded(name: str, attribute: str | None = None, reduce=list) -> property:
    """``reduce`` of one record field's non-``None`` values, or of one attribute of each."""
    def derived(report: NewtonReport):
        present = [getattr(record, name) for record in report.trace
                   if getattr(record, name) is not None]
        return reduce(present if attribute is None else [getattr(v, attribute) for v in present])
    return property(derived)


@dataclass
class NewtonReport:
    status: SolveStatus
    criterion: ConvergenceCriterion
    trace: list[IterationRecord]
    divergence_reason: str | None = None
    x: np.ndarray | None = None

    # Read-only values derived from the trace.
    residual_norms = _recorded("residual_norm")
    increment_norms = _recorded("increment_norm")
    alphas = _recorded("search", "alpha")
    regime_history = _recorded("census")
    scale_history = _recorded("scale")
    iterations = _recorded("search", reduce=len)
    ls_evaluations = _recorded("search", "evaluations", sum)
    tightening_rounds = _recorded("search", "tightening_rounds", sum)

    @property
    def final_norm(self) -> float:
        seq = (self.increment_norms if self.criterion.kind is CriterionKind.INCREMENT
               else self.residual_norms)
        return seq[-1] if seq else float("inf")


class LinearSolveFailed(RuntimeError):
    pass


class _Diverged(RuntimeError):
    """A divergence the driver detects itself; the message is the reason."""


def linear_solve(matrix, rhs: np.ndarray) -> np.ndarray:
    """Direct factorization solve with a residual check.

    One step of iterative refinement keeps the backward error near machine
    level; the solution is rejected (singular or ill-conditioned system) when
    the final residual exceeds 1e-10 of the right-hand side norm.
    """
    rhs = np.asarray(rhs, dtype=float)
    try:
        if sp.issparse(matrix):
            factor = spla.splu(sp.csc_matrix(matrix))
            solution = factor.solve(rhs)
            solution = solution + factor.solve(rhs - matrix @ solution)
        else:
            dense = np.asarray(matrix, dtype=float)
            solution = np.linalg.solve(dense, rhs)
            solution = solution + np.linalg.solve(dense, rhs - dense @ solution)
    except (RuntimeError, np.linalg.LinAlgError) as err:
        raise LinearSolveFailed(str(err)) from err
    if not np.all(np.isfinite(solution)):
        raise LinearSolveFailed("non-finite solution from factorization")
    residual = float(np.linalg.norm(matrix @ solution - rhs))
    if residual > 1e-10 * float(np.linalg.norm(rhs)) + 1e-300:
        raise LinearSolveFailed(f"factorization residual too large ({residual:.3e})")
    return solution


def _run_search(model, x: np.ndarray, step: np.ndarray, residual_now: np.ndarray,
                strategy: Strategy, scale: float, contact: bool) -> LineSearchOutcome:
    if strategy is Strategy.RESIDUAL:
        def objective(alphas: np.ndarray) -> np.ndarray:
            stacked = model.residual(x + alphas[:, None] * step)
            return np.array([0.5 * float(row @ row) for row in stacked])
        reference = 0.5 * float(residual_now @ residual_now)
        return search_residual(objective, reference)

    # No search, or a constraint strategy on a contactless model: the full step.
    if strategy is Strategy.NONE or not contact:
        return LineSearchOutcome(alpha=1.0)
    mask = reference_mask(model.contact_states(x))

    def evaluator(alpha: float):
        return evaluate_field(model.contact_states(x + alpha * step), mask)

    # The scale stays 1 unless the strategy is the adaptive one.
    return search_constraint(evaluator, model.fracture_cells(), scale=scale)


def solve(model, x0: np.ndarray | None = None,
          options: NewtonOptions | None = None) -> NewtonReport:
    """Run the Newton iteration until convergence, divergence or the cap."""
    options = options or NewtonOptions()
    criterion = options.criterion
    x = np.array(model.initial_guess() if x0 is None else x0, dtype=float)
    sqrt_n = float(np.sqrt(x.size))

    contact = hasattr(model, "contact_states")
    adapt = (options.line_search is Strategy.CONSTRAINT_ADAPTIVE
             and contact and not options.force_unit_scale)
    # Frozen magnitude estimate: set at the end of iteration k, used by k+1's search.
    scale = 1.0

    report = NewtonReport(status=SolveStatus.NO_CONVERGENCE, criterion=criterion,
                          trace=[IterationRecord(scale=scale)])
    try:
        residual = model.residual(x)
        norm0 = float(np.linalg.norm(residual))
        if not np.isfinite(norm0):
            raise _Diverged("non-finite initial residual")
        report.trace[0].residual_norm = norm0 / sqrt_n

        while (report.final_norm >= criterion.tolerance
               and report.iterations < MAX_ITERATIONS):
            record = IterationRecord()
            report.trace.append(record)
            try:
                step = linear_solve(model.jacobian(x), -residual)
            except LinearSolveFailed as err:
                raise _Diverged(f"linear solve failed: {err}") from err
            record.increment_norm = float(np.linalg.norm(step)) / sqrt_n

            record.search = _run_search(model, x, step, residual, options.line_search,
                                        scale, contact)
            x = x + record.search.alpha * step
            if contact:
                regimes = classify_regime(model.contact_states(x))
                record.census = tuple(np.bincount(regimes, minlength=3).tolist())

            residual = model.residual(x)
            norm = float(np.linalg.norm(residual))
            if not np.isfinite(norm) or not np.all(np.isfinite(x)):
                raise _Diverged("non-finite residual or iterate")
            if norm > DIVERGENCE_FACTOR * max(norm0, 1e-300):
                raise _Diverged(f"residual grew past {DIVERGENCE_FACTOR:g} of initial")
            record.residual_norm = norm / sqrt_n

            if adapt:
                scale = p_mean_scale(cell_scale_estimate(model.contact_states(x)))
            record.scale = scale

        report.status = (SolveStatus.CONVERGED if report.final_norm < criterion.tolerance
                         else SolveStatus.NO_CONVERGENCE)
    except (_Diverged, SearchDiverged) as err:
        report.status = SolveStatus.DIVERGED
        report.divergence_reason = str(err)
    report.x = x
    return report
