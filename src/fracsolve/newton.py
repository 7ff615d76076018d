"""Semismooth Newton driver with pluggable step-length strategies.

Each iteration assembles the residual and generalized Jacobian once, solves
the linear system by direct factorization, picks a step length with the
chosen strategy, and applies the update. Convergence is declared on the
root-mean-square norm of either the increment or the residual; divergence on
non-finite values, a residual blow-up past ``DIVERGENCE_FACTOR`` times the
initial residual, or a failed factorization. The options are the criterion,
the strategy and one diagnostic switch; the iteration cap and the search
parameters are constants, here and in ``linesearch``.

Models are duck-typed: they provide ``residual(x)``, ``jacobian(x)`` and
``initial_guess()``. ``residual`` maps the last axis: it takes one point
``(n_dofs,)`` or a stack ``(k, n_dofs)`` of points and returns one residual
row per point, and the residual search evaluates its ``SAMPLE_COUNT`` trial
points in one stacked call. Contact-aware models additionally expose
``contact_states(x)``, a read-only ``ContactStates`` of per-cell arrays that
carries the model's contact parameters and complementarity weight, and
``fracture_cells()``, the consecutive cell range of each fracture. The
constraint searches, the regime census and the adaptive magnitude estimate
evaluate the array-valued kernels of ``contact`` and ``scaling`` on those
states alone, one call per evaluation. ``contact_states`` marks a model as
contact-aware (a missing ``fracture_cells`` raises); models without it run
with full steps under the constraint strategies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .contact import classify_regime, evaluate_field, reference_mask
from .linesearch import (
    LineSearchOutcome,
    SearchDiverged,
    Strategy,
    search_constraint,
    search_none,
    search_residual,
)
from .scaling import cell_scale_estimate, p_mean_scale

__all__ = [
    "SolveStatus",
    "CriterionKind",
    "ConvergenceCriterion",
    "NewtonOptions",
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
    # Diagnostic: pin the adaptive scale at 1 (reproduces the constant
    # variant bitwise).
    force_unit_scale: bool = False

    def __post_init__(self):
        if not isinstance(self.line_search, Strategy):
            raise TypeError("line_search must be a Strategy")


@dataclass
class NewtonReport:
    status: SolveStatus
    iterations: int
    criterion: ConvergenceCriterion
    residual_norms: list[float] = dataclass_field(default_factory=list)
    increment_norms: list[float] = dataclass_field(default_factory=list)
    alphas: list[float] = dataclass_field(default_factory=list)
    regime_history: list[tuple[int, int, int]] = dataclass_field(default_factory=list)
    scale_history: list[float] = dataclass_field(default_factory=list)
    ls_evaluations: int = 0
    tightening_rounds: int = 0
    divergence_reason: str | None = None
    x: np.ndarray | None = None

    @property
    def final_norm(self) -> float:
        seq = (self.increment_norms if self.criterion.kind is CriterionKind.INCREMENT
               else self.residual_norms)
        return seq[-1] if seq else float("inf")


class LinearSolveFailed(RuntimeError):
    pass


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


def _regime_census(model, x: np.ndarray) -> tuple[int, int, int]:
    """(open, sticking, sliding) cell counts at ``x``."""
    regimes = classify_regime(model.contact_states(x))
    open_, sticking, sliding = np.bincount(regimes, minlength=3)
    return int(open_), int(sticking), int(sliding)


def _run_search(model, x: np.ndarray, step: np.ndarray, residual_now: np.ndarray,
                strategy: Strategy, scale: float, contact: bool) -> LineSearchOutcome:
    if strategy is Strategy.NONE:
        return search_none()

    if strategy is Strategy.RESIDUAL:
        def objective(alphas: np.ndarray) -> np.ndarray:
            stacked = model.residual(x + alphas[:, None] * step)
            return np.array([0.5 * float(row @ row) for row in stacked])
        reference = 0.5 * float(residual_now @ residual_now)
        return search_residual(objective, reference)

    # Constraint strategies; contactless models just take the full step.
    if not contact:
        return search_none()
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
    # Frozen magnitude estimate: computed at the end of iteration k, used by
    # iteration k+1's line search.
    scale = 1.0

    report = NewtonReport(status=SolveStatus.NO_CONVERGENCE, iterations=0,
                          criterion=criterion, scale_history=[scale])

    def diverged(reason: str) -> NewtonReport:
        report.status = SolveStatus.DIVERGED
        report.divergence_reason = reason
        report.x = x
        return report

    residual = model.residual(x)
    norm0 = float(np.linalg.norm(residual))
    if not np.isfinite(norm0):
        return diverged("non-finite initial residual")
    report.residual_norms.append(norm0 / sqrt_n)
    if report.final_norm < criterion.tolerance:
        report.status = SolveStatus.CONVERGED
        report.x = x
        return report

    for iteration in range(1, MAX_ITERATIONS + 1):
        jacobian = model.jacobian(x)
        try:
            step = linear_solve(jacobian, -residual)
        except LinearSolveFailed as err:
            return diverged(f"linear solve failed: {err}")

        increment_norm = float(np.linalg.norm(step)) / sqrt_n
        report.increment_norms.append(increment_norm)

        try:
            outcome = _run_search(model, x, step, residual, options.line_search,
                                  scale, contact)
        except SearchDiverged as err:
            return diverged(str(err))
        report.alphas.append(outcome.alpha)
        report.ls_evaluations += outcome.evaluations
        report.tightening_rounds += outcome.tightening_rounds

        x = x + outcome.alpha * step
        report.iterations = iteration
        if contact:
            report.regime_history.append(_regime_census(model, x))

        residual = model.residual(x)
        norm = float(np.linalg.norm(residual))
        if not np.isfinite(norm) or not np.all(np.isfinite(x)):
            return diverged("non-finite residual or iterate")
        if norm > DIVERGENCE_FACTOR * max(norm0, 1e-300):
            return diverged(f"residual grew past {DIVERGENCE_FACTOR:g} of initial")
        report.residual_norms.append(norm / sqrt_n)

        if adapt:
            scale = p_mean_scale(cell_scale_estimate(model.contact_states(x)))
        report.scale_history.append(scale)

        if report.final_norm < criterion.tolerance:
            report.status = SolveStatus.CONVERGED
            break

    report.x = x
    return report
