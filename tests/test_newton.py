"""Semismooth Newton driver: linear algebra, convergence, divergence, costs."""

import dataclasses
import platform
import resource
import types

import numpy as np
import pytest
import scipy.sparse as sp

import fracsolve.linesearch
import fracsolve.newton
from fracsolve.contact import ContactStates, friction_bound, gap
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
    TOLERANCE,
    ConvergenceCriterion,
    CriterionKind,
    Diverged,
    IterationRecord,
    NewtonOptions,
    NewtonReport,
    SolveStatus,
    linear_solve,
    solve,
)
from fracsolve.scaling import P_MEAN_EXPONENT, SCALE_CEILING

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


def _recorded(report, name):
    """The non-``None`` values of one trace record field, in iteration order."""
    return [getattr(record, name) for record in report.trace
            if getattr(record, name) is not None]


def _alphas(report):
    return [search.alpha for search in _recorded(report, "search")]


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
    with pytest.raises(Diverged, match="^linear solve failed: "):
        linear_solve(singular, np.array([1.0, 0.0]))
    with pytest.raises(Diverged, match="^linear solve failed: "):
        linear_solve(sp.csr_matrix(singular), np.array([1.0, 0.0]))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
def test_repeated_factorizations_reuse_the_freed_heap():
    # Importing the module set both thresholds; with glibc's defaults each
    # factorization here faults about 300 freed-and-trimmed pages back in.
    assert fracsolve.newton._HEAP_KEPT
    model = preset("single-tpm", cells_per_side=16)
    x = model.initial_guess()
    matrix, rhs = model.jacobian(x), -model.residual(x)
    for _ in range(3):
        linear_solve(matrix, rhs)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        linear_solve(matrix, rhs)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50 * 10


def test_heap_thresholds_set_through_mallopt():
    calls = []

    def mallopt(option, value):
        calls.append((option, value))
        return 1

    assert fracsolve.newton._keep_freed_heap(types.SimpleNamespace(mallopt=mallopt))
    ceiling = fracsolve.newton._MMAP_THRESHOLD_MAX
    assert calls == [(-3, ceiling), (-1, 2 * ceiling)]
    assert not fracsolve.newton._keep_freed_heap(
        types.SimpleNamespace(mallopt=lambda option, value: 0))


def test_heap_thresholds_skip_a_c_library_without_mallopt():
    assert fracsolve.newton._keep_freed_heap(types.SimpleNamespace()) is False


# ---------------------------------------------------------------------------
# convergence


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_linear_problem_converges_in_one_full_step(strategy):
    report = solve(LinearModel(), options=_options(
        strategy, criterion=ConvergenceCriterion(kind=CriterionKind.RESIDUAL)))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 1
    assert _alphas(report) == [1.0]


def test_cubic_model_converges_superlinearly():
    report = solve(CubicModel(), options=_options("none"))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations < 10
    assert abs(report.x[0] - 1.0) < 1e-10
    tail = _recorded(report, "residual_norm")[-3:]
    assert tail[2] <= tail[1] ** 1.5
    assert tail[1] <= tail[0] ** 1.5


def test_residual_criterion_early_exit_at_root():
    model = LinearModel()
    report = solve(model, x0=model.solution, options=_options(
        "none", criterion=ConvergenceCriterion(kind=CriterionKind.RESIDUAL)))
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 0
    assert len(report.trace) == 1
    assert report.final_norm == report.trace[0].residual_norm < TOLERANCE


def test_final_norm_tracks_criterion_kind():
    increment = solve(CubicModel(), options=_options("none"))
    assert increment.final_norm == increment.trace[-1].increment_norm
    residual = solve(LinearModel(), options=_options(
        "none", criterion=ConvergenceCriterion(kind=CriterionKind.RESIDUAL)))
    assert residual.final_norm == residual.trace[-1].residual_norm


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


class TinyJacobianModel:
    """x = 1 with a 1e-170 Jacobian: the first step's norm is past the float range."""

    def residual(self, x):
        return x - 1.0

    def jacobian(self, x):
        return 1e-170 * np.eye(2)

    def initial_guess(self):
        return np.zeros(2)


# Each way a run diverges: model, initial point, strategy, iterations, the
# number of trace records holding a residual norm, an increment norm, a
# search and a scale, the fields the last record holds, the final norm, and
# reason. The scale of an iteration that diverges after its update is not
# recorded. The final norm is the last recorded increment norm, inf where
# none was recorded: BlowupModel's first full step is 3 e^40 - 1 and
# CubeRootModel's last is 3 |x| at |x| = 2 ** 99. In the blow-up, |cbrt(x)|
# grows by 2 ** (1/3) per step and passes 1e10 at step 100, the last one the
# iteration cap allows. Norms and squares past the float range are inf, and no
# overflow warning leaves the run.
BLOWUP_STEP = 3.0 * np.exp(40.0) - 1.0
DIVERGENCE_EXITS = {
    "initial-residual": (LinearModel(), np.full(8, np.nan), "none", 0, (0, 0, 0, 1),
                         {"scale"}, np.inf, "non-finite initial residual"),
    "overflowing-initial-residual": (LinearModel(), np.full(8, 1e160), "none", 0, (0, 0, 0, 1),
                                     {"scale"}, np.inf, "non-finite initial residual"),
    "linear-solve": (SingularModel(), None, "none", 0, (1, 0, 0, 1),
                     set(), np.inf, "linear solve failed: "),
    "search": (BlowupModel(), None, "residual", 0, (1, 1, 0, 1),
               {"increment_norm"}, BLOWUP_STEP,
               "residual objective non-finite at every trial step"),
    "non-finite-update": (BlowupModel(), None, "none", 1, (1, 1, 1, 1),
                          {"increment_norm", "search"}, BLOWUP_STEP,
                          "non-finite residual or iterate"),
    "overflowing-step": (TinyJacobianModel(), None, "none", 1, (1, 1, 1, 1),
                         {"increment_norm", "search"}, np.inf, "non-finite residual or iterate"),
    "overflowing-trials": (TinyJacobianModel(), None, "residual", 0, (1, 1, 0, 1),
                           {"increment_norm"}, np.inf,
                           "residual objective non-finite at every trial step"),
    "blow-up": (CubeRootModel(), None, "none", 100, (100, 100, 100, 100),
                {"increment_norm", "search"}, 3.0 * 2.0 ** 99,
                "residual grew past 1e+10 of initial"),
}


def _held(record):
    """The names of the fields a trace record holds."""
    return {f.name for f in dataclasses.fields(record) if getattr(record, f.name) is not None}


@pytest.mark.parametrize("exit_name", DIVERGENCE_EXITS)
def test_every_divergence_exit_reports_its_state(exit_name):
    model, x0, strategy, iterations, counts, held, final_norm, reason = DIVERGENCE_EXITS[exit_name]
    report = solve(model, x0=x0, options=_options(strategy))
    assert report.status is SolveStatus.DIVERGED
    assert report.iterations == iterations
    names = ("residual_norm", "increment_norm", "search", "scale")
    assert tuple(len(_recorded(report, name)) for name in names) == counts
    assert _recorded(report, "scale") == [1.0] * counts[3]
    assert _held(report.trace[-1]) == held
    assert report.final_norm == final_norm
    if exit_name == "linear-solve":
        # the rest of the message is the factorization's own
        assert report.divergence_reason.startswith(reason)
    else:
        assert report.divergence_reason == reason
    assert report.x is not None


@pytest.mark.parametrize("exit_name, final_norm", [
    ("linear-solve", 1.0), ("non-finite-update", 3.0), ("blow-up", 2.0 ** 33)])
def test_final_norm_of_a_divergence_is_the_last_recorded_residual_norm(exit_name, final_norm):
    # the last record holds no residual norm, so the final norm is the one
    # before: the initial |x - 1| and |e^-40 - 3|, or |cbrt(x)| at |x| = 2 ** 99
    model, x0, strategy = DIVERGENCE_EXITS[exit_name][:3]
    report = solve(model, x0=x0, options=_options(
        strategy, criterion=ConvergenceCriterion(kind=CriterionKind.RESIDUAL)))
    assert report.status is SolveStatus.DIVERGED
    assert report.trace[-1].residual_norm is None
    assert report.final_norm == final_norm


class LoadedContactModel:
    """x = 1 with an identity Jacobian; every cell carries the normal traction ``sn``."""

    def __init__(self, sn):
        self.sn = sn

    def residual(self, x):
        return x - 1.0

    def jacobian(self, x):
        return np.eye(4)

    def initial_guess(self):
        return np.zeros(4)

    def contact_states(self, x):
        zeros = np.zeros(x.shape + (2,))
        return ContactStates(np.full(x.shape, self.sn), zeros, x, zeros, 0.0, 1.0)

    def fracture_cells(self):
        return [np.arange(4)]


@pytest.mark.parametrize("sn", [-1e70, -1e200, -np.inf])
def test_scale_estimate_past_the_float_range_is_the_ceiling(sn):
    # an estimate or its fifth power past the float range takes the ceiling
    # and ends no run, even under the RuntimeWarning error policy
    report = solve(LoadedContactModel(sn), options=_options("constraint-adaptive"))
    assert report.status is SolveStatus.CONVERGED
    assert _recorded(report, "scale") == [1.0] + [SCALE_CEILING] * report.iterations


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
    assert _alphas(report) == _alphas(expected)
    assert report.x.tobytes() == expected.x.tobytes()


def test_determinism_bitwise():
    first = solve(preset("single-pm"), options=_options("constraint-adaptive"))
    second = solve(preset("single-pm"), options=_options("constraint-adaptive"))
    assert np.array_equal(first.x, second.x)
    assert _alphas(first) == _alphas(second)
    assert _recorded(first, "residual_norm") == _recorded(second, "residual_norm")
    assert _recorded(first, "scale") == _recorded(second, "scale")


def _kkt_ok(states, tol=1e-8):
    """Per-cell frictional-contact optimality conditions, a boolean array."""
    g = gap(states.tangential_jump, states.dilation_angle)
    b = friction_bound(states.normal_traction)
    slip = states.tangential_jump
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


def test_recorded_scale_semantics():
    const = _recorded(solve(preset("single-pm"), options=_options("constraint-const")), "scale")
    assert const[0] == 1.0
    assert all(s == 1.0 for s in const)

    adaptive = solve(preset("single-pm"), options=_options("constraint-adaptive"))
    scales = _recorded(adaptive, "scale")
    assert scales[0] == 1.0
    assert len(scales) == adaptive.iterations + 1
    assert all(1e-8 <= s <= 1e8 for s in scales)
    assert any(s != 1.0 for s in scales[1:])

    forced = solve(preset("single-pm"), options=_options(
        "constraint-adaptive", force_unit_scale=True))
    assert all(s == 1.0 for s in _recorded(forced, "scale"))


def test_census_is_recorded_per_iteration():
    model = preset("single-pm")
    report = solve(model, options=_options("constraint-adaptive"))
    censuses = _recorded(report, "census")
    assert len(censuses) == report.iterations
    n = model.n_cells
    assert all(sum(census) == n for census in censuses)


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
    assert report.ls_evaluations == sum(record.search.evaluations for record in steps)
    assert report.tightening_rounds == sum(record.search.tightening_rounds for record in steps)
    assert report.final_norm == steps[-1].increment_norm
    with pytest.raises(AttributeError):
        report.iterations = 0


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
    # nor is a criterion's name a criterion: it would run the residual criterion
    for kind in CriterionKind:
        assert ConvergenceCriterion(kind=kind).kind is kind
    with pytest.raises(TypeError):
        ConvergenceCriterion(kind="increment")
    assert (TRANSITION_TOLERANCE, TRANSITION_FRACTION, SAMPLE_COUNT, MAX_TIGHTENINGS,
            ALPHA_MIN) == (0.3, 0.2, 5, 10, 1e-3)
    assert DIVERGENCE_FACTOR == 1e10
    assert MAX_ITERATIONS == 100
    assert TOLERANCE == 1e-10
    assert P_MEAN_EXPONENT == 5.0
    assert [f.name for f in dataclasses.fields(NewtonOptions)] == [
        "criterion", "line_search", "force_unit_scale"]
