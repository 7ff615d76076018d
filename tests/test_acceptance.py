"""Acceptance suite: twelve gate criteria, one printed verdict line each.

Each test re-derives its expected values from first principles (closed-form
oracles, counters, byte comparisons) rather than trusting the implementation,
and pins the tolerances the gate prescribes.
"""

import time

import numpy as np
import pytest

from fracsolve.bench import SweepSpec, emit_csv, run_sweep
from fracsolve.contact import (
    ContactStates,
    normal_complementarity,
    tangential_complementarity,
)
from fracsolve.interpolation import evaluate, fit
from fracsolve.linesearch import Strategy, search_constraint
from fracsolve.models import preset
from fracsolve.newton import (
    ConvergenceCriterion,
    CriterionKind,
    NewtonOptions,
    SolveStatus,
    solve,
)

U_C_SWEEP = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

FRICTION = 1.0
WEIGHT = 1.0
DILATION = 0.1


# ---------------------------------------------------------------------------
# independent oracles


def _oracle_complementarity(sn, st1, un, ut1):
    """Vectorized contact residual for in-plane states (t2 components zero)."""
    g = np.tan(DILATION) * np.abs(ut1)
    reach = -sn - WEIGHT * (un - g)
    cn = -sn - np.maximum(0.0, reach)
    b = -FRICTION * sn
    q = st1 + WEIGHT * ut1
    ct = np.where(b > 0.0, st1 * np.maximum(b, np.abs(q)) - b * q, st1)
    return cn, ct


def _oracle_kkt(sn, st1, un, ut1, tol):
    """Frictional-contact optimality conditions, checked term by term."""
    g = np.tan(DILATION) * np.abs(ut1)
    b = -FRICTION * sn
    normal_ok = (sn <= tol) & (un - g >= -tol) & (np.abs(sn * (un - g)) <= tol)
    cone_ok = np.abs(st1) <= b + tol
    stick_ok = np.abs(ut1) <= tol
    slide_ok = (b - np.abs(st1) <= tol) & (ut1 * st1 >= -tol)
    return normal_ok & cone_ok & (stick_ok | slide_ok)


def _fd_jacobian(model, x, h=1e-7):
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        cols.append((model.residual(xp) - model.residual(xm)) / (2.0 * h))
    return np.column_stack(cols)


def _branch_margin(model, x):
    from fracsolve.contact import friction_bound, gap

    st = model.contact_states(x)
    w = st.weight
    g = gap(st.tangential_jump, st.dilation_angle)
    reach = -st.normal_traction - w * (st.normal_jump - g)
    b = friction_bound(st.normal_traction)
    q = st.tangential_traction + w * st.tangential_jump
    return float(np.min([np.abs(reach), np.abs(b), np.abs(np.linalg.norm(q, axis=1) - b),
                         np.linalg.norm(st.tangential_jump, axis=1)]))


class _CountingModel:
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


def _iterations(model_name, strategy, **model_kwargs):
    model = preset(model_name, **model_kwargs)
    report = solve(model, options=NewtonOptions(line_search=Strategy(strategy)))
    if report.status is not SolveStatus.CONVERGED:
        return None
    return report.iterations


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_complementarity_kkt_equivalence(criterion_verdict):
    with criterion_verdict("criterion 1 (contact residual zero iff KKT holds)"):
        started = time.perf_counter()

        sn = np.arange(-25, 16) * 0.1
        st1 = np.arange(-25, 26) * 0.1
        ut1 = np.arange(-40, 41) * 0.025
        grid_sn, grid_st, grid_ut = (a.ravel() for a in
                                     np.meshgrid(sn, st1, ut1, indexing="ij"))
        grid_un = 0.5 * grid_ut
        assert grid_sn.size >= 100_000

        cn, ct = _oracle_complementarity(grid_sn, grid_st, grid_un, grid_ut)
        residual_zero = (np.abs(cn) <= 1e-10) & (np.abs(ct) <= 1e-10)
        kkt = _oracle_kkt(grid_sn, grid_st, grid_un, grid_ut, 1e-10)
        assert np.array_equal(residual_zero, kkt)
        assert residual_zero.sum() > 0

        # the vectorized oracle and the shipped kernel are the same function
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = rng.uniform(-2, 2, 3)
            d = rng.uniform(-1, 1)
            state = ContactStates(
                normal_traction=np.array([a]), tangential_traction=np.array([[b, 0.0]]),
                normal_jump=np.array([d]), tangential_jump=np.array([[c, 0.0]]),
                dilation_angle=DILATION, weight=WEIGHT)
            cn_o, ct_o = _oracle_complementarity(
                np.array([a]), np.array([b]), np.array([d]), np.array([c]))
            assert normal_complementarity(state)[0] == cn_o[0]
            tangential = tangential_complementarity(state)[0]
            assert tangential[0] == ct_o[0] and tangential[1] == 0.0

        assert time.perf_counter() - started < 10.0


def test_criterion_02_generalized_jacobian_matches_fd(criterion_verdict):
    with criterion_verdict("criterion 2 (assembled Jacobian matches central FD)"):
        started = time.perf_counter()
        model = preset("single-tpm", cells_per_side=3)
        rng = np.random.default_rng(42)
        n = model.n_cells
        checked = 0
        while checked < 20:
            x = np.zeros(model.n_dofs)
            x[0:3 * n] = rng.uniform(-1.5, 1.5, 3 * n)
            x[3 * n:6 * n] = rng.uniform(-0.5, 0.5, 3 * n) * model.scales.displacement
            x[6 * n:7 * n] = rng.uniform(-1.0, 1.0, n)
            x[7 * n:8 * n] = rng.uniform(-1.0, 1.0, n)
            if _branch_margin(model, x) < 1e-3:
                continue  # non-degenerate states only
            checked += 1
            fd = _fd_jacobian(model, x)
            analytic = model.jacobian(x).toarray()
            rel = np.max(np.abs(analytic - fd)) / max(1.0, np.max(np.abs(fd)))
            assert rel < 1e-5
        assert time.perf_counter() - started < 10.0


def test_criterion_03_exact_step_on_linear_indicator(criterion_verdict):
    with criterion_verdict("criterion 3 (linear indicator root hit exactly)"):
        def evaluator(alpha):
            return np.stack([np.array([0.5 - alpha]), np.zeros(1)])

        outcome = search_constraint(evaluator, [np.array([0])])
        assert abs(outcome.alpha - 0.8) <= 1e-10


def test_criterion_04_tightening_controls_crowded_transitions(criterion_verdict):
    with criterion_verdict("criterion 4 (crowded transitions tighten the tolerance)"):
        slopes = np.array([1.0, 1.1, 1.2, 1.3] + [0.0] * 6)

        def evaluator(alpha):
            return np.stack([0.5 - slopes * alpha, np.zeros(10)])

        outcome = search_constraint(evaluator, [np.arange(10)])
        assert outcome.tightening_rounds >= 1
        candidates = outcome.diagnostics["candidates"]
        assert len(candidates) == outcome.tightening_rounds + 1
        assert np.all(np.diff(candidates) <= 1e-12)
        budget = max(1.0, 0.2 * 10)
        assert all(count <= budget for count in outcome.transitions_per_fracture)


def test_criterion_05_interpolation_preserves_monotonicity(criterion_verdict):
    with criterion_verdict("criterion 5 (monotone data gives monotone interpolant)"):
        rng = np.random.default_rng(55)
        for trial in range(100):
            m = int(rng.integers(3, 9))
            x = np.cumsum(rng.uniform(0.1, 1.0, m))
            steps = rng.uniform(0.0, 1.0, m - 1)
            steps[rng.uniform(size=m - 1) < 0.2] = 0.0  # flat segments allowed
            direction = 1.0 if trial % 2 == 0 else -1.0
            y = np.concatenate([[0.0], np.cumsum(direction * steps)])
            spline = fit(x, y)
            dense = evaluate(spline, np.linspace(x[0], x[-1], 10_000))
            assert np.all(direction * np.diff(dense) >= -1e-12)

        line = fit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert evaluate(line, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_criterion_06_adaptive_scaling_rescues_hard_sweep(criterion_verdict):
    with criterion_verdict("criterion 6 (adaptive converges where full steps fail)"):
        started = time.perf_counter()
        none_failures = 0
        for u_c in U_C_SWEEP:
            model = preset("single-pm", dilation_angle=0.2, characteristic_displacement=u_c,
                           cells_per_side=12)
            report = solve(model, options=NewtonOptions(line_search=Strategy("none")))
            if report.status is not SolveStatus.CONVERGED:
                none_failures += 1

            adaptive = solve(preset("single-pm", dilation_angle=0.2,
                                    characteristic_displacement=u_c, cells_per_side=12),
                             options=NewtonOptions(
                                 line_search=Strategy("constraint-adaptive")))
            assert adaptive.status is SolveStatus.CONVERGED

        assert none_failures >= 1
        assert time.perf_counter() - started < 300.0


def test_criterion_07_iteration_spread_across_scalings(criterion_verdict):
    with criterion_verdict("criterion 7 (iteration counts flat across u_c)"):
        for model_name in ("single-pm", "single-tpm"):
            counts = {}
            for strategy in ("constraint-adaptive", "constraint-const"):
                its = []
                for u_c in U_C_SWEEP:
                    k = _iterations(model_name, strategy,
                                    characteristic_displacement=u_c)
                    its.append(100 if k is None else k)  # failed runs count as the cap
                counts[strategy] = its

            adaptive = counts["constraint-adaptive"]
            assert all(k < 100 for k in adaptive)
            adaptive_spread = max(adaptive) - min(adaptive)
            const_spread = max(counts["constraint-const"]) - min(counts["constraint-const"])
            assert adaptive_spread <= 2
            assert adaptive_spread <= const_spread


def test_criterion_08_refinement_changes_iterations_little(criterion_verdict):
    with criterion_verdict("criterion 8 (mesh refinement costs at most 3 iterations)"):
        coarse = _iterations("single-pm", "constraint-adaptive", cells_per_side=6)
        fine = _iterations("single-pm", "constraint-adaptive", cells_per_side=12)
        assert coarse is not None and fine is not None
        assert fine <= coarse + 3


def test_criterion_09_fracture_count_scales_gently(criterion_verdict):
    with criterion_verdict("criterion 9 (8 fractures cost at most 5 more iterations)"):
        options = NewtonOptions(
            criterion=ConvergenceCriterion(kind=CriterionKind.RESIDUAL),
            line_search=Strategy("constraint-adaptive"))
        for seed in (0, 1, 2):
            small = solve(preset("multi4-pm", seed=seed), options=options)
            large = solve(preset("multi8-pm", seed=seed), options=options)
            assert small.status is SolveStatus.CONVERGED
            assert large.status is SolveStatus.CONVERGED
            assert large.iterations <= small.iterations + 5


def test_criterion_10_unit_scale_reproduces_const_bitwise(criterion_verdict):
    with criterion_verdict("criterion 10 (adaptive at unit scale equals const)"):
        for name in ("single-pm", "single-tpm", "multi4-pm"):
            const = solve(preset(name), options=NewtonOptions(
                line_search=Strategy("constraint-const")))
            forced = solve(preset(name), options=NewtonOptions(
                line_search=Strategy("constraint-adaptive"), force_unit_scale=True))
            assert const.iterations == forced.iterations
            assert ([r.search.alpha for r in const.trace if r.search is not None]
                    == [r.search.alpha for r in forced.trace if r.search is not None])
            assert np.array_equal(const.x, forced.x)


def test_criterion_11_sweep_is_reproducible(criterion_verdict):
    with criterion_verdict("criterion 11 (sweep reruns byte-identical)"):
        spec = SweepSpec(strategies=("none", "constraint-adaptive"),
                         models=("single-pm",), phi_values=(0.1,), cells_values=(4,),
                         u_c_values=(0.01, 0.1), seeds=(0,))
        assert emit_csv(run_sweep(spec, workers=1)) == emit_csv(run_sweep(spec, workers=1))


def test_criterion_12_residual_evaluation_budget(criterion_verdict):
    with criterion_verdict("criterion 12 (exact residual evaluation counts)"):
        for strategy in ("none", "residual", "constraint-const", "constraint-adaptive"):
            wrapped = _CountingModel(preset("single-pm", cells_per_side=4))
            report = solve(wrapped, options=NewtonOptions(line_search=Strategy(strategy)))
            assert report.status is SolveStatus.CONVERGED
            k = report.iterations
            assert wrapped.jacobian_calls == k
            if strategy == "residual":
                # exactly sample_count extra residual evaluations per iteration,
                # made in one stacked call
                assert wrapped.residual_calls == k + 1 + 5 * k
                assert wrapped.residual_batches == k + 1 + k
            else:
                # line searches on indicators never touch the residual
                assert wrapped.residual_calls == k + 1
                assert wrapped.residual_batches == k + 1
