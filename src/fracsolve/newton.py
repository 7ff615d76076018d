"""Semismooth Newton driver with pluggable step-length strategies.

Each iteration assembles the residual and generalized Jacobian once, solves
the linear system by direct factorization, picks a step length with the
chosen strategy, and applies the update. Convergence is declared on the
root-mean-square norm of the increment or the residual, below ``TOLERANCE``.
Each divergence raises the one ``Diverged``, whose message is the reason: a
non-finite initial residual, a failed factorization or search, a non-finite
residual or iterate, or a residual past ``DIVERGENCE_FACTOR`` times the
initial one. The iteration cap is a constant too. Importing the module fixes
glibc's malloc thresholds for the whole process (``_keep_freed_heap``), so
each factorization reuses the memory the previous one freed.

``NewtonReport.trace`` holds one ``IterationRecord`` per iteration, record 0
the initial state. A record holds what its iteration computed and ``None``
for what it did not reach; the report's counters and final norm read it.

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

import ctypes
import enum
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .contact import cell_scale_estimate, classify_regime, evaluate_field, p_mean_scale, reference_mask
from .linesearch import (
    Diverged,
    LineSearchOutcome,
    Strategy,
    search_constraint,
    search_residual,
)

__all__ = [
    "SolveStatus",
    "CriterionKind",
    "ConvergenceCriterion",
    "NewtonOptions",
    "IterationRecord",
    "NewtonReport",
    "Diverged",
    "linear_solve",
    "solve",
]


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    NO_CONVERGENCE = "NC"
    DIVERGED = "Div"


# The residual norm past which a run is declared diverged, relative to the
# initial one, the iteration cap and the convergence tolerance of every run.
DIVERGENCE_FACTOR = 1e10
MAX_ITERATIONS = 100
TOLERANCE = 1e-10


class CriterionKind(enum.Enum):
    INCREMENT = "increment"
    RESIDUAL = "residual"


@dataclass(frozen=True)
class ConvergenceCriterion:
    kind: CriterionKind = CriterionKind.INCREMENT
    tolerance: ClassVar[float] = TOLERANCE  # not a field: every run shares it

    def __post_init__(self):
        if not isinstance(self.kind, CriterionKind):
            raise TypeError("kind must be a CriterionKind")


@dataclass(frozen=True)
class NewtonOptions:
    criterion: ConvergenceCriterion = ConvergenceCriterion()
    line_search: Strategy = Strategy.CONSTRAINT_ADAPTIVE
    # Diagnostic: pin the adaptive scale at 1 (reproduces constraint-const bitwise).
    force_unit_scale: bool = False

    def __post_init__(self):
        for name, kind in (("criterion", ConvergenceCriterion), ("line_search", Strategy),
                           ("force_unit_scale", bool)):
            if not isinstance(getattr(self, name), kind):
                raise TypeError(f"{name} must be a {kind.__name__}")


@dataclass
class IterationRecord:
    """One iteration's values; ``census`` is (open, sticking, sliding) cells."""

    increment_norm: float | None = None
    search: LineSearchOutcome | None = None
    census: tuple[int, int, int] | None = None
    residual_norm: float | None = None
    scale: float | None = None


def _searched(attribute: str | None = None) -> property:
    """The sum of one attribute over the trace's searches; without one, their count."""
    return property(lambda report: sum(1 if attribute is None else getattr(r.search, attribute)
                                       for r in report.trace if r.search is not None))


@dataclass
class NewtonReport:
    status: SolveStatus
    criterion: ConvergenceCriterion
    trace: list[IterationRecord]
    divergence_reason: str | None = None
    x: np.ndarray | None = None

    # Read-only counts derived from the trace.
    iterations = _searched()
    ls_evaluations = _searched("evaluations")
    tightening_rounds = _searched("tightening_rounds")

    @property
    def final_norm(self) -> float:
        """The criterion's last recorded norm; inf when none was recorded."""
        name = "increment_norm" if self.criterion.kind is CriterionKind.INCREMENT else "residual_norm"
        norms = [getattr(r, name) for r in self.trace if getattr(r, name) is not None]
        return norms[-1] if norms else float("inf")


def _squared_norm(vector: np.ndarray) -> float:
    """``vector @ vector``: inf past the float range, without an overflow warning."""
    with np.errstate(over="ignore"):
        return float(vector @ vector)


# glibc's mallopt options (malloc.h) and the ceiling of its adaptive mmap
# threshold, 4 MiB times the size of a C long (32 MiB on 64-bit hosts); the
# adaptive trim threshold is twice the mmap threshold.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


def _keep_freed_heap(libc=None) -> bool:
    """Fix glibc's malloc thresholds at their adaptive ceilings, for the whole process.

    SuperLU mallocs its factors and work arrays on every ``splu`` and frees
    them after. Below these thresholds glibc trims that memory at the top of
    the heap after each factorization, and the next one faults the same pages
    back in. With them the freed memory stays in the process for the next
    factorization: up to twice ``_MMAP_THRESHOLD_MAX`` more resident memory,
    and blocks under it come from the heap, not from their own mapping.
    Returns whether both ``mallopt`` calls succeeded; where the C library is
    not glibc, or ``libc`` has no ``mallopt``, it does nothing.
    """
    if libc is None:
        try:
            glibc = os.confstr("CS_GNU_LIBC_VERSION")
        except (AttributeError, ValueError, OSError):
            glibc = None
        if not glibc:
            return False
        libc = ctypes.CDLL(None)
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    done = [mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX),
            mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)]
    return done == [1, 1]


# Whether both thresholds were set; False where the C library is not glibc.
_HEAP_KEPT = _keep_freed_heap()


def linear_solve(matrix, rhs: np.ndarray) -> np.ndarray:
    """Direct factorization solve with a residual check.

    One step of iterative refinement keeps the backward error near machine
    level. A singular or ill-conditioned system, or a final residual above
    1e-10 of the right-hand side norm, raises ``Diverged("linear solve failed: …")``.
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
        raise Diverged(f"linear solve failed: {err}") from err
    if not np.all(np.isfinite(solution)):
        raise Diverged("linear solve failed: non-finite solution from factorization")
    residual = float(np.linalg.norm(matrix @ solution - rhs))
    if residual > 1e-10 * float(np.linalg.norm(rhs)) + 1e-300:
        raise Diverged(f"linear solve failed: factorization residual too large ({residual:.3e})")
    return solution


def _run_search(model, x: np.ndarray, step: np.ndarray, residual_now: np.ndarray,
                strategy: Strategy, scale: float, contact: bool) -> LineSearchOutcome:
    if strategy is Strategy.RESIDUAL:
        def objective(alphas: np.ndarray) -> np.ndarray:
            stacked = model.residual(x + alphas[:, None] * step)
            return np.array([0.5 * _squared_norm(row) for row in stacked])
        reference = 0.5 * _squared_norm(residual_now)
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
    x = np.array(model.initial_guess() if x0 is None else x0, dtype=float)
    sqrt_n = float(np.sqrt(x.size))

    contact = hasattr(model, "contact_states")
    adapt = (options.line_search is Strategy.CONSTRAINT_ADAPTIVE
             and contact and not options.force_unit_scale)
    # Frozen magnitude estimate: set at the end of iteration k, used by k+1's search.
    scale = 1.0

    report = NewtonReport(status=SolveStatus.NO_CONVERGENCE, criterion=options.criterion,
                          trace=[IterationRecord(scale=scale)])
    try:
        residual = model.residual(x)
        norm0 = float(np.sqrt(_squared_norm(residual)))
        if not np.isfinite(norm0):
            raise Diverged("non-finite initial residual")
        report.trace[0].residual_norm = norm0 / sqrt_n

        # The criterion's norm in the last record; len(trace) - 1 iterations are done.
        increment = options.criterion.kind is CriterionKind.INCREMENT
        checked = float("inf") if increment else report.trace[0].residual_norm
        while checked >= TOLERANCE and len(report.trace) <= MAX_ITERATIONS:
            record = IterationRecord()
            report.trace.append(record)
            step = linear_solve(model.jacobian(x), -residual)
            record.increment_norm = float(np.sqrt(_squared_norm(step))) / sqrt_n

            record.search = _run_search(model, x, step, residual, options.line_search,
                                        scale, contact)
            x = x + record.search.alpha * step
            if contact:
                regimes = classify_regime(model.contact_states(x))
                record.census = tuple(np.bincount(regimes, minlength=3).tolist())

            residual = model.residual(x)
            norm = float(np.sqrt(_squared_norm(residual)))
            if not np.isfinite(norm) or not np.all(np.isfinite(x)):
                raise Diverged("non-finite residual or iterate")
            if norm > DIVERGENCE_FACTOR * max(norm0, 1e-300):
                raise Diverged(f"residual grew past {DIVERGENCE_FACTOR:g} of initial")
            record.residual_norm = norm / sqrt_n

            if adapt:
                scale = p_mean_scale(cell_scale_estimate(model.contact_states(x)))
            record.scale = scale
            checked = record.increment_norm if increment else record.residual_norm

        report.status = SolveStatus.CONVERGED if checked < TOLERANCE else SolveStatus.NO_CONVERGENCE
    except Diverged as err:
        report.status = SolveStatus.DIVERGED
        report.divergence_reason = str(err)
    report.x = x
    return report
