"""Semismooth Newton driver: linear algebra, convergence, divergence, costs."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import fracsolve.linesearch
from fracsolve.contact import friction_bound, gap
from fracsolve.linesearch import (
    ALPHA_MIN,
    MAX_TIGHTENINGS,
    SAMPLE_COUNT,
    TRANSITION_FRACTION,
    TRANSITION_TOLERANCE,
    Strategy,
)
from fracsolve.models import preset
from fracsolve.newton import (
    DIVERGENCE_FACTOR,
    MAX_ITERATIONS,
    ConvergenceCriterion,
    CriterionKind,
    IterationRecord,
    LinearSolveFailed,
    NewtonOptions,
    NewtonReport,
    SolveStatus,
    linear_solve,
    solve,
)
from fracsolve.scaling import P_MEAN_EXPONENT

ALL_STRATEGIES = ("none", "residual", "constraint-const", "constraint-adaptive")


# ---------------------------------------------------------------------------
# test models


class LinearModel:
    """r(x) = A x - b with SPD A: one Newton step solves it."""

    def __init__(self, n=8, seed=0):
        rng = np.random.default_rng(seed)
        root = rng.standard_normal((n, n))
        self.matrix = root @ root.T + n * np.eye(n)
        self.solution = rng.standard_normal(n)
        self.rhs = self.matrix @ self.solution

    def residual(self, x):
        # one matrix-vector product per point, so each row of a stack is
        # bitwise the residual of that row alone
        return np.apply_along_axis(self.matrix.__matmul__, -1, x) - self.rhs

    def jacobian(self, x):
        return self.matrix

    def initial_guess(self):
        return np.zeros(self.rhs.size)


class CubicModel:
    def residual(self, x):
        # float_power rounds as the scalar ``x[0] ** 3`` does
        return np.float_power(x[..., :1], 3) - 1.0

    def jacobian(self, x):
        return np.array([[3.0 * x[0] ** 2]])

    def initial_guess(self):
        return np.array([2.0])


class BlowupModel:
    """exp(x) = 3 from x = -40: the first full step lands around x = 40."""

    def residual(self, x):
        with np.errstate(over="ignore"):
            return np.exp(x) - 3.0

    def jacobian(self, x):
        with np.errstate(over="ignore"):
            return np.diag(np.exp(x))

    def initial_guess(self):
        return np.array([-40.0])


class CubeRootModel:
    """cbrt(x) = 0: undamped Newton doubles the iterate every step."""

    def residual(self, x):
        return np.cbrt(x)

    def jacobian(self, x):
        return np.diag(np.cbrt(x) ** -2 / 3.0)

    def initial_guess(self):
        return np.array([1.0])


class CountingModel:
    """Forwarding wrapper that counts residual points, residual calls and jacobians."""

    def __init__(self, inner):
        self.inner = inner
        self.residual_calls = 0   # points evaluated; a stack counts each row
        self.residual_batches = 0
        self.jacobian_calls = 0

    def residual(self, x):
        self.residual_calls += 1 if x.ndim == 1 else len(x)
        self.residual_batches += 1
        return self.inner.residual(x)

    def jacobian(self, x):
        self.jacobian_calls += 1
        return self.inner.jacobian(x)

    def initial_guess(self):
        return self.inner.initial_guess()

    def fracture_cells(self):
        return self.inner.fracture_cells()

    def contact_states(self, x):
        return self.inner.contact_states(x)


def _options(strategy, **kwargs):
    return NewtonOptions(line_search=Strategy(strategy), **kwargs)


# ---------------------------------------------------------------------------
# linear solve


def test_linear_solve_identity():
    rhs = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(linear_solve(np.eye(3), rhs), rhs)


def test_linear_solve_diagonal():
    x = linear_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-15)


def test_linear_solve_random_dense_backward_error():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50)) + 50.0 * np.eye(50)
    b = rng.standard_normal(50)
    x = linear_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_linear_solve_sparse_matches_dense():
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    assert np.allclose(linear_solve(sp.csr_matrix(dense), b),
                       linear_solve(dense, b), atol=1e-12)


def test_linear_solve_rejects_singular():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(LinearSolveFailed):
        linear_solve(singular, np.array([1.0, 0.0]))
    with pytest.raises(LinearSolveFailed):
        linear_solve(sp.csr_matrix(singular), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# convergence


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_linear_problem_converges_in_one_full_step(strategy):
    report = solve(LinearModel(), options=_options(
        strategy, criterion=ConvergenceCriterion(kind=CriterionKind.RESIDUAL)))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert report.alphas == [1.0]


def test_cubic_model_converges_superlinearly():
    report = solve(CubicModel(), options=_options("none"))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations < 10
    assert abs(report.x[0] - 1.0) < 1e-10
    tail = report.residual_norms[-3:]
    assert tail[2] <= tail[1] ** 1.5
    assert tail[1] <= tail[0] ** 1.5


def test_residual_criterion_early_exit_at_root():
    model = LinearModel()
    report = solve(model, x0=model.solution, options=_options(
        "none", criterion=ConvergenceCriterion(kind=CriterionKind.RESIDUAL)))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    assert len(report.residual_norms) == 1


def test_final_norm_tracks_criterion_kind():
    increment = solve(CubicModel(), options=_options("none"))
    assert increment.final_norm == increment.increment_norms[-1]
    residual = solve(LinearModel(), options=_options(
        "none", criterion=ConvergenceCriterion(kind=CriterionKind.RESIDUAL)))
    assert residual.final_norm == residual.residual_norms[-1]


# ---------------------------------------------------------------------------
# divergence


class SingularModel:
    """x = 1 with a zero Jacobian: the first linear solve fails."""

    def residual(self, x):
        return x - 1.0

    def jacobian(self, x):
        return np.zeros((1, 1))

    def initial_guess(self):
        return np.zeros(1)


# Each way a run diverges: model, initial point, strategy, iterations, lengths
# of the residual, increment, alpha and scale histories, the fields the last
# trace record holds, and reason. The scale of an iteration that diverges
# after its update is not recorded. In the blow-up, |cbrt(x)| grows by
# 2 ** (1/3) per step and passes 1e10 at step 100, the last one the iteration
# cap allows.
DIVERGENCE_EXITS = {
    "initial-residual": (LinearModel(), np.full(8, np.nan), "none", 0, (0, 0, 0, 1),
                         {"scale"}, "non-finite initial residual"),
    "linear-solve": (SingularModel(), None, "none", 0, (1, 0, 0, 1),
                     set(), "linear solve failed: "),
    "search": (BlowupModel(), None, "residual", 0, (1, 1, 0, 1),
               {"increment_norm"}, "residual objective non-finite at every trial step"),
    "non-finite-update": (BlowupModel(), None, "none", 1, (1, 1, 1, 1),
                          {"increment_norm", "search"}, "non-finite residual or iterate"),
    "blow-up": (CubeRootModel(), None, "none", 100, (100, 100, 100, 100),
                {"increment_norm", "search"}, "residual grew past 1e+10 of initial"),
}


def _held(record):
    """The names of the fields a trace record holds."""
    return {f.name for f in dataclasses.fields(record) if getattr(record, f.name) is not None}


@pytest.mark.parametrize("exit_name", DIVERGENCE_EXITS)
def test_every_divergence_exit_reports_its_state(exit_name):
    model, x0, strategy, iterations, lengths, held, reason = DIVERGENCE_EXITS[exit_name]
    report = solve(model, x0=x0, options=_options(strategy))
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == iterations
    assert (len(report.residual_norms), len(report.increment_norms), len(report.alphas),
            len(report.scale_history)) == lengths
    assert report.scale_history == [1.0] * lengths[3]
    assert _held(report.trace[-1]) == held
    if exit_name == "linear-solve":
        # the rest of the message is the factorization's own
        assert report.divergence_reason.startswith(reason)
    else:
        assert report.divergence_reason == reason
    assert report.x is not None


def test_failed_constraint_root_search_is_reported_as_divergence(monkeypatch):
    # the root finder's own exceptions (a NaN profile value, no convergence)
    # end the run as Div with the finder's message as the reason
    def failing_find_root(spline):
        raise ValueError("The function value at x=0.3 is NaN; solver cannot continue.")

    monkeypatch.setattr(fracsolve.linesearch, "find_root", failing_find_root)
    report = solve(preset("single-pm", cells_per_side=4), options=_options("constraint-adaptive"))
    assert report.status is SolveStatus.DIVERGED
    assert report.divergence_reason == ("constraint root search failed: "
                                        "The function value at x=0.3 is NaN; "
                                        "solver cannot continue.")
    assert _held(report.trace[-1]) == {"increment_norm"}


def test_iteration_cap_reports_no_convergence():
    # NC at the cap of 100 in the default sweep
    report = solve(preset("single-pm", characteristic_displacement=1e-4),
                   options=_options("residual"))
    assert report.status is SolveStatus.NO_CONVERGENCE
    assert report.iterations == MAX_ITERATIONS


# ---------------------------------------------------------------------------
# evaluation costs


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_exact_evaluation_counts(strategy):
    wrapped = CountingModel(preset("single-pm", cells_per_side=4))
    report = solve(wrapped, options=_options(strategy))
    assert report.status is SolveStatus.CONVERGED
    k = report.iterations
    assert wrapped.jacobian_calls == k
    if strategy == "residual":
        # one residual per accepted iterate plus sample_count per search,
        # the samples of one search in one stacked call
        assert wrapped.residual_calls == 6 * k + 1
        assert wrapped.residual_batches == 2 * k + 1
    else:
        assert wrapped.residual_calls == k + 1
        assert wrapped.residual_batches == k + 1


# ---------------------------------------------------------------------------
# contact model behavior


class ContactStatesOnlyModel:
    """Forwards the model hooks and ``contact_states``, but no other contact hook."""

    def __init__(self, inner):
        self.inner = inner

    def residual(self, x):
        return self.inner.residual(x)

    def jacobian(self, x):
        return self.inner.jacobian(x)

    def initial_guess(self):
        return self.inner.initial_guess()

    def contact_states(self, x):
        return self.inner.contact_states(x)


class ContactHooksModel(ContactStatesOnlyModel):
    """Forwards the model hooks and exactly the two contact hooks."""

    def fracture_cells(self):
        return self.inner.fracture_cells()


@pytest.mark.parametrize("strategy", ["constraint-const", "constraint-adaptive"])
def test_contact_states_alone_marks_a_contact_model(strategy):
    # The constraint search needs the missing ``fracture_cells``, so the
    # solve fails loudly instead of taking full steps.
    model = ContactStatesOnlyModel(preset("single-pm", cells_per_side=4))
    with pytest.raises(AttributeError):
        solve(model, options=_options(strategy))


def test_contact_states_and_fracture_cells_suffice():
    # The contact law travels in the states: no other hook is read.
    inner = preset("single-pm", cells_per_side=4)
    expected = solve(inner, options=_options("constraint-adaptive"))
    report = solve(ContactHooksModel(inner), options=_options("constraint-adaptive"))
    assert report.alphas == expected.alphas
    assert report.x.tobytes() == expected.x.tobytes()


def test_determinism_bitwise():
    first = solve(preset("single-pm"), options=_options("constraint-adaptive"))
    second = solve(preset("single-pm"), options=_options("constraint-adaptive"))
    assert np.array_equal(first.x, second.x)
    assert first.alphas == second.alphas
    assert first.residual_norms == second.residual_norms
    assert first.scale_history == second.scale_history


def _kkt_ok(states, tol=1e-8):
    """Per-cell frictional-contact optimality conditions, a boolean array."""
    params = states.params
    g = gap(states.tangential_jump, params.dilation_angle)
    b = friction_bound(states.normal_traction, params.friction_coefficient)
    slip = states.slip_increment
    penetration = states.normal_jump - g
    traction_norm = np.linalg.norm(states.tangential_traction, axis=1)
    slip_norm = np.linalg.norm(slip, axis=1)
    inner = np.sum(slip * states.tangential_traction, axis=1)

    normal_ok = ((states.normal_traction <= tol) & (penetration >= -tol)
                 & (np.abs(states.normal_traction * penetration) <= tol))
    cone_ok = traction_norm <= b + tol
    stick_ok = slip_norm <= tol
    # slip only at the cone boundary, aligned with the traction
    slide_ok = ((b - traction_norm <= tol)
                & (slip_norm * traction_norm - inner <= tol))
    return normal_ok & cone_ok & (stick_ok | slide_ok)


def test_converged_iterate_satisfies_contact_conditions():
    model = preset("single-pm")
    report = solve(model, options=_options("constraint-adaptive"))
    assert report.status is SolveStatus.CONVERGED
    assert np.all(_kkt_ok(model.contact_states(report.x)))


def test_scale_history_semantics():
    const = solve(preset("single-pm"), options=_options("constraint-const"))
    assert const.scale_history[0] == 1.0
    assert all(s == 1.0 for s in const.scale_history)

    adaptive = solve(preset("single-pm"), options=_options("constraint-adaptive"))
    assert adaptive.scale_history[0] == 1.0
    assert len(adaptive.scale_history) == adaptive.iterations + 1
    assert all(1e-8 <= s <= 1e8 for s in adaptive.scale_history)
    assert any(s != 1.0 for s in adaptive.scale_history[1:])

    forced = solve(preset("single-pm"), options=_options(
        "constraint-adaptive", force_unit_scale=True))
    assert all(s == 1.0 for s in forced.scale_history)


def test_regime_history_is_recorded_per_iteration():
    model = preset("single-pm")
    report = solve(model, options=_options("constraint-adaptive"))
    assert len(report.regime_history) == report.iterations
    n = model.n_cells
    assert all(sum(census) == n for census in report.regime_history)


def test_report_stores_the_trace_and_derives_the_rest():
    assert [f.name for f in dataclasses.fields(NewtonReport)] == [
        "status", "criterion", "trace", "divergence_reason", "x"]
    assert [f.name for f in dataclasses.fields(IterationRecord)] == [
        "increment_norm", "search", "census", "residual_norm", "scale"]
    report = solve(preset("single-pm"), options=_options("constraint-adaptive"))
    first, *steps = report.trace
    assert _held(first) == {"residual_norm", "scale"}
    assert first.scale == 1.0
    assert all(_held(record) == {f.name for f in dataclasses.fields(IterationRecord)}
               for record in steps)
    assert report.iterations == len(steps)
    assert report.alphas == [record.search.alpha for record in steps]
    assert report.residual_norms == [record.residual_norm for record in report.trace]
    with pytest.raises(AttributeError):
        report.alphas = []


def test_report_keeps_every_search_outcome():
    # the outcome fields the cost counters do not sum stay on the records
    model = preset("single-tpm", cells_per_side=6)
    report = solve(model, options=_options("constraint-adaptive"))
    searches = [record.search for record in report.trace[1:]]
    assert any(search.tightening_rounds for search in searches)
    for search in searches:
        assert search.final_tolerance == TRANSITION_TOLERANCE * 0.5 ** search.tightening_rounds
        assert len(search.transitions_per_fracture) == len(model.fracture_cells())
    assert sum(search.evaluations for search in searches) == report.ls_evaluations


# ---------------------------------------------------------------------------
# options


def test_options_accept_bare_strategy():
    options = NewtonOptions(line_search=Strategy.NONE)
    assert options.line_search is Strategy.NONE


def test_options_hold_the_strategy_and_the_parameters_are_the_paper_values():
    for strategy in Strategy:
        assert NewtonOptions(line_search=strategy).line_search is strategy
    # a strategy's name is not a strategy: it would run the constraint search
    with pytest.raises(TypeError):
        NewtonOptions(line_search="residual")
    assert (TRANSITION_TOLERANCE, TRANSITION_FRACTION, SAMPLE_COUNT, MAX_TIGHTENINGS,
            ALPHA_MIN) == (0.3, 0.2, 5, 10, 1e-3)
    assert DIVERGENCE_FACTOR == 1e10
    assert MAX_ITERATIONS == 100
    assert P_MEAN_EXPONENT == 5.0
    assert [f.name for f in dataclasses.fields(NewtonOptions)] == [
        "criterion", "line_search", "force_unit_scale"]


def test_criterion_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        ConvergenceCriterion(tolerance=0.0)
    with pytest.raises(ValueError):
        ConvergenceCriterion(tolerance=float("nan"))
    with pytest.raises(ValueError):
        ConvergenceCriterion(tolerance=float("inf"))
