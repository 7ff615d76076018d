"""Model problems: assembly, physics couplings, factories, and presets."""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fracsolve.contact import (
    friction_bound,
    gap,
    normal_complementarity,
    tangential_complementarity,
)
from fracsolve.linesearch import Strategy
from fracsolve.models import (
    BIOT_COEFFICIENT,
    DRAINED_BULK_MODULUS,
    FLUID_VISCOSITY,
    HYDRAULIC_APERTURE_FLOOR,
    PRESET_NAMES,
    RESIDUAL_APERTURE,
    SOLID_THERMAL_EXPANSION,
    YOUNGS_MODULUS,
    CharacteristicScales,
    Fracture,
    FractureAssembly,
    Physics,
    preset,
    transmissibility,
)
from fracsolve.newton import NewtonOptions, SolveStatus, solve

NO_EDGES = np.zeros((0, 2), dtype=int)


def _single(physics=Physics.PORO, **kwargs):
    """The single-fracture preset of ``physics``."""
    return preset("single-pm" if physics is Physics.PORO else "single-tpm", **kwargs)


# ---------------------------------------------------------------------------
# transmissibility


def test_transmissibility_cubic_above_floor():
    one = transmissibility(2e-3)
    assert transmissibility(4e-3) == pytest.approx(8.0 * one, rel=1e-14)


def test_transmissibility_floor_for_closed_cells():
    """The edge terms floor the mean aperture of closed and interpenetrating pairs."""
    fracture = Fracture(shape=(1, 2), external_traction=np.zeros((2, 3)),
                        edges=np.array([[0, 1]]), cell_area=0.25)
    model = FractureAssembly([fracture], 0.0, Physics.PORO,
                             CharacteristicScales(displacement=0.01))
    pairs = np.array([[0.0, 0.0], [-1e-3, 0.0]])
    _, floored, _ = model._edge_terms(pairs, np.zeros(2))
    assert np.array_equal(floored, np.full((2, 1), HYDRAULIC_APERTURE_FLOOR))
    floor_value = HYDRAULIC_APERTURE_FLOOR ** 3 / (12.0 * FLUID_VISCOSITY)
    assert np.array_equal(transmissibility(floored), np.full((2, 1), floor_value))


# ---------------------------------------------------------------------------
# hand-checkable assemblies


def _unloaded(m=2):
    n = m * m
    fracture = Fracture(
        shape=(m, m),
        external_traction=np.zeros((n, 3)), edges=NO_EDGES, cell_area=0.25,
    )
    return FractureAssembly([fracture], 0.0, Physics.PORO,
                            CharacteristicScales(displacement=0.01))


def test_unloaded_state_is_an_exact_root():
    model = _unloaded()
    residual = model.residual(np.zeros(model.n_dofs))
    assert np.array_equal(residual, np.zeros(model.n_dofs))


def test_single_cell_compressed_fixed_point():
    # unit compressive load, zero jump: the scaled traction -1 balances the
    # load exactly and both contact rows sit on their branch boundaries
    scales = CharacteristicScales(displacement=0.01)
    fracture = Fracture(
        shape=(1, 1),
        external_traction=np.array([[-scales.stress, 0.0, 0.0]]),
        edges=NO_EDGES, cell_area=1.0,
    )
    model = FractureAssembly([fracture], 0.0, Physics.PORO, scales)
    x = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(model.residual(x), np.zeros(7))


def test_influence_operator_is_spd():
    model = preset("multi4-pm")
    dense = model._stiffness.toarray()
    assert np.allclose(dense, dense.T, atol=1e-12)
    assert np.linalg.eigvalsh(dense).min() > 0.0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_influence_operator_rows_dominate_by_the_diagonal_weight(name):
    # the positive-definiteness check rests on this margin (Gershgorin)
    stiffness = preset(name)._stiffness
    diagonal = stiffness.diagonal()
    off_diagonal = np.asarray(abs(stiffness - sp.diags(diagonal)).sum(axis=1)).ravel()
    assert np.allclose(diagonal - off_diagonal, 3.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dense", [
    [[3.0, 1.0, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 3.0]],   # not symmetric
    [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]],   # symmetric, singular
    [[1.0, -2.0], [-2.0, 1.0]],                            # symmetric, indefinite
    [[1.0, 0.0], [0.0, -1.0]],                             # negative diagonal
    [[3.0, 1.0], [0.0, 3.0]],                              # pattern not symmetric
    [[3.0, np.nan], [np.nan, 3.0]],                        # NaN entry
], ids=["nonsymmetric", "singular", "indefinite", "negative", "pattern", "nan"])
def test_positive_definiteness_check_rejects(dense):
    with pytest.raises(ValueError):
        FractureAssembly._check_positive_definite(sp.csr_matrix(dense))


# ---------------------------------------------------------------------------
# physics reductions


def _random_mechanics_state(model, rng):
    n = model.n_cells
    x = np.zeros(model.n_dofs)
    x[0:3 * n] = rng.uniform(-1.5, 1.5, 3 * n)
    x[3 * n:6 * n] = rng.uniform(-0.5, 0.5, 3 * n) * model.scales.displacement
    return x


def _elastic_rows(model, x):
    """Force balance and contact rows with every flow and heat term left out."""
    n = model.n_cells
    jump = x[3 * n:6 * n].reshape(n, 3)
    force = x[0:3 * n] + (model._stiffness @ (model.scales.complementarity_weight * jump)).ravel() \
        - model._external_traction.ravel() / model.scales.stress
    states = model.contact_states(x)
    contact = np.column_stack([normal_complementarity(states), tangential_complementarity(states)])
    return np.concatenate([force, contact.ravel()])


def test_every_physics_carries_the_flow():
    assert [p.value for p in Physics] == ["poro", "thermoporo"]


@pytest.mark.parametrize("physics", [Physics.PORO, Physics.THERMOPORO])
def test_mechanics_rows_reduce_to_elastic_at_reference_conditions(physics):
    model = _single(physics, cells_per_side=3)
    rng = np.random.default_rng(40)
    n = model.n_cells
    for _ in range(3):
        x = _random_mechanics_state(model, rng)
        assert np.array_equal(model.residual(x)[:6 * n], _elastic_rows(model, x))


def test_pressure_and_temperature_shift_normal_force_rows():
    model = _single(Physics.THERMOPORO, cells_per_side=3)
    n = model.n_cells
    sigma_c = model.scales.stress
    base = model.residual(np.zeros(model.n_dofs))

    lifted = np.zeros(model.n_dofs)
    lifted[6 * n:7 * n] = 1.0
    dp = (model.residual(lifted) - base)[:3 * n].reshape(n, 3)
    assert np.allclose(dp[:, 0], -BIOT_COEFFICIENT * 1.5e5 / sigma_c, rtol=1e-12)
    assert np.array_equal(dp[:, 1:], np.zeros((n, 2)))

    heated = np.zeros(model.n_dofs)
    heated[7 * n:8 * n] = 1.0
    dt = (model.residual(heated) - base)[:3 * n].reshape(n, 3)
    expected = 3.0 * DRAINED_BULK_MODULUS * SOLID_THERMAL_EXPANSION * 10.0 / sigma_c
    assert np.allclose(dt[:, 0], expected, rtol=1e-12)
    assert expected == pytest.approx(2.0, rel=1e-12)

    # complementarity rows never see the flow unknowns
    assert np.array_equal(model.residual(lifted)[3 * n:6 * n], base[3 * n:6 * n])


def test_dirichlet_rows_at_reference_state():
    model = _single(Physics.THERMOPORO, cells_per_side=4)
    n = model.n_cells
    r = model.residual(np.zeros(model.n_dofs))
    mass = r[6 * n:7 * n]
    energy = r[7 * n:8 * n]
    inlet = np.arange(4)
    outlet = np.arange(12, 16)
    interior = np.arange(4, 12)

    assert np.allclose(mass[inlet], -1.0, rtol=1e-15)
    assert np.allclose(mass[outlet], 2.0 / 3.0, rtol=1e-14)
    assert np.array_equal(mass[interior], np.zeros(8))

    assert np.allclose(energy[inlet], 1.0, rtol=1e-15)
    assert np.array_equal(energy[outlet], np.zeros(4))
    assert np.array_equal(energy[interior], np.zeros(8))


# ---------------------------------------------------------------------------
# analytic jacobian vs finite differences


def _branch_margin(model, x):
    st = model.contact_states(x)
    w = st.weight
    g = gap(st.tangential_jump, st.dilation_angle)
    reach = -st.normal_traction - w * (st.normal_jump - g)
    b = friction_bound(st.normal_traction)
    q = st.tangential_traction + w * st.tangential_jump
    return float(np.min([np.abs(reach), np.abs(b), np.abs(np.linalg.norm(q, axis=1) - b),
                         np.linalg.norm(st.tangential_jump, axis=1)]))


def _random_state(model, rng):
    n = model.n_cells
    x = np.zeros(model.n_dofs)
    x[0:3 * n] = rng.uniform(-1.5, 1.5, 3 * n)
    x[3 * n:6 * n] = rng.uniform(-0.5, 0.5, 3 * n) * model.scales.displacement
    x[6 * n:7 * n] = rng.uniform(-1.0, 1.0, n)
    if model.has_temperature:
        x[7 * n:8 * n] = rng.uniform(-1.0, 1.0, n)
    return x


def _fd_jacobian(model, x, h=1e-7, columns=None):
    cols = []
    for j in range(x.size) if columns is None else columns:
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        cols.append((model.residual(xp) - model.residual(xm)) / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("physics", [Physics.PORO, Physics.THERMOPORO])
def test_jacobian_matches_finite_differences(physics):
    model = _single(physics, cells_per_side=3)
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 3:
        x = _random_state(model, rng)
        if _branch_margin(model, x) < 1e-3:
            continue
        checked += 1
        analytic = model.jacobian(x).toarray()
        fd = _fd_jacobian(model, x)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(analytic - fd)) / scale < 1e-6


def _separated_state(model, rng):
    """A random state whose tangential jumps keep clear of zero.

    ``_random_state`` draws each jump component from a box, so a mesh of a
    few hundred cells almost always has a jump within 1e-3 of the kink at
    zero slip; here the jump length is drawn away from it.
    """
    x = _random_state(model, rng)
    n = model.n_cells
    jump = x[3 * n:6 * n].reshape(n, 3)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    length = rng.uniform(0.2, 0.5, n) * model.scales.displacement
    jump[:, 1] = length * np.cos(angle)
    jump[:, 2] = length * np.sin(angle)
    return x


@pytest.mark.parametrize("name,cells", [("single-tpm", 16), ("single-pm", 12), ("multi8-tpm", None)])
def test_jacobian_matches_finite_differences_at_bench_sizes(name, cells):
    # the benchmark's mesh sizes, on about 40 sampled columns spread over the
    # traction, jump, pressure and temperature blocks
    model = preset(name) if cells is None else preset(name, cells_per_side=cells)
    rng = np.random.default_rng(42)
    x = _separated_state(model, rng)
    while _branch_margin(model, x) < 1e-3:
        x = _separated_state(model, rng)
    n = model.n_cells
    blocks = np.split(np.arange(model.n_dofs), [k * n for k in (3, 6, 7) if k * n < model.n_dofs])
    columns = np.concatenate([rng.choice(block, 40 // len(blocks), replace=False)
                              for block in blocks])
    analytic = model.jacobian(x)[:, columns].toarray()
    fd = _fd_jacobian(model, x, columns=columns)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(analytic - fd)) / scale < 1e-6


@pytest.mark.parametrize("name", ["single-pm", "single-tpm", "multi4-pm"])
def test_jacobian_stores_no_explicit_zeros(name):
    # the sparse LU ordering sees the stored pattern, so zero contact-block
    # entries (open, sticking and tie branches) must not be stored
    model = preset(name, cells_per_side=4)
    rng = np.random.default_rng(43)
    for x in (model.initial_guess(), _random_state(model, rng)):
        jacobian = model.jacobian(x)
        assert jacobian.nnz > 0
        assert np.all(jacobian.data != 0.0)


# ---------------------------------------------------------------------------
# factories and presets


def test_the_size_goal_mesh_builds_and_evaluates_without_dense_work():
    # single-tpm 96x96, 73,728 dofs: a dense copy of its cell-grid operator
    # alone would take 648 MiB, and a dense definiteness check seconds. Measured
    # on a 2-core host: a 0.07-0.11 s build and a 58.7 MiB traced peak.
    tracemalloc.start()
    try:
        started = time.perf_counter()
        model = preset("single-tpm", cells_per_side=96)
        built = time.perf_counter() - started
        x = model.initial_guess()
        model.residual(x)
        model.jacobian(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_dofs == 73_728
    assert built < 2.0
    assert peak < 128 * 2**20


def test_single_fracture_load_profile():
    model = preset("single-pm", cells_per_side=6)
    ext = model.fractures[0].external_traction
    sigma_ref = YOUNGS_MODULUS * 0.01
    # normal ramp from -2.2 to -1.0 along the flow axis, uniform shear 0.75
    centers = np.repeat((np.arange(6) + 0.5) / 6.0, 6)
    assert np.allclose(ext[:, 0], sigma_ref * (-2.2 + 1.2 * centers), rtol=1e-12)
    assert np.all(ext[:, 0] < 0.0)
    assert np.allclose(ext[:, 1], 0.75 * sigma_ref, rtol=1e-12)
    assert np.array_equal(ext[:, 2], np.zeros(36))


def test_initial_guess_variants():
    model = preset("single-pm")
    n = model.n_cells
    seeded = model.initial_guess()
    expected = model.fractures[0].external_traction / model.scales.stress
    assert np.array_equal(seeded[:3 * n].reshape(n, 3), expected)
    assert np.array_equal(seeded[3 * n:], np.zeros(model.n_dofs - 3 * n))


def test_multi_fracture_families_are_nested():
    small = preset("multi4-pm", seed=0)
    large = preset("multi8-pm", seed=0)
    for a, b in zip(small.fractures, large.fractures[:4]):
        assert np.array_equal(a.external_traction, b.external_traction)
        assert a.dirichlet_pressure == b.dirichlet_pressure
    for a, b in zip(small.fracture_cells(), large.fracture_cells()[:4], strict=True):
        assert np.array_equal(a, b)


def _two_fracture_assembly():
    fractures = [Fracture(shape=shape, external_traction=np.zeros((shape[0] * shape[1], 3)),
                          edges=NO_EDGES, cell_area=1.0) for shape in ((2, 3), (1, 1), (2, 2))]
    return FractureAssembly(fractures, 0.0, Physics.PORO,
                            CharacteristicScales(displacement=0.01))


@pytest.mark.parametrize("build", [lambda: preset("single-pm"), lambda: preset("multi8-tpm"),
                                   _two_fracture_assembly],
                         ids=["single-pm", "multi8-tpm", "mixed-shapes"])
def test_fracture_cells_are_consecutive_ranges_in_fracture_order(build):
    model = build()
    ranges = model.fracture_cells()
    assert [len(cells) for cells in ranges] == [fr.n_cells for fr in model.fractures]
    assert np.array_equal(np.concatenate(ranges), np.arange(model.n_cells))


@pytest.mark.parametrize("build", [
    lambda kind: preset(f"single-{kind}", 0.2, cells_per_side=3),
    lambda kind: preset(f"single-{kind}", 0.2, cells_per_side=6),
    lambda kind: preset(f"multi4-{kind}", 0.2, seed=0),
], ids=["single-3", "single-6", "multi4"])
def test_physics_picks_the_unknowns_not_the_data(build):
    """Both physics build the same problem: boundary values, flow field and contact law."""
    poro, thermoporo = [build(kind) for kind in ("pm", "tpm")]
    assert (poro.physics, thermoporo.physics) == (Physics.PORO, Physics.THERMOPORO)
    assert all(fr.dirichlet_pressure and fr.dirichlet_temperature for fr in poro.fractures)
    for model in (poro, thermoporo):
        assert model.dilation_angle == 0.2
    for a, b in zip(poro.fractures, thermoporo.fractures, strict=True):
        assert a.dirichlet_pressure == b.dirichlet_pressure
        assert a.dirichlet_temperature == b.dirichlet_temperature
        np.testing.assert_array_equal(a.advection_rates, b.advection_rates)


def test_multi_fracture_alternating_wells():
    model = preset("multi4-pm", seed=0)
    pressures = [next(iter(fr.dirichlet_pressure.values())) for fr in model.fractures]
    assert pressures == [1.5e5, -1.0e5, 1.5e5, -1.0e5]
    # each well sits at the centermost cell of its 4x4 grid
    assert [list(fr.dirichlet_pressure) for fr in model.fractures] == [[10]] * 4


def test_preset_names_and_layouts():
    assert len(PRESET_NAMES) == 6
    single = preset("single-tpm")
    assert single.physics is Physics.THERMOPORO
    assert single.n_dofs == 8 * single.n_cells
    multi = preset("multi8-pm")
    assert len(multi.fractures) == 8
    assert multi.n_cells == 128
    assert preset("single-pm", cells_per_side=9).n_cells == 81


# multi3-pm is well formed but not in PRESET_NAMES.
@pytest.mark.parametrize("name", ["nope", "single-xx", "multi4-xx", "multix-pm", "multi3-pm"])
def test_preset_rejects_unknown_names(name):
    with pytest.raises(ValueError):
        preset(name)


def test_factory_validation():
    with pytest.raises(ValueError):
        preset("single-pm", cells_per_side=1)


# Only multi-fracture presets read the seed; every preset rejects a negative one.
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_rejects_a_negative_seed(name):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        preset(name, seed=-1)


@pytest.mark.parametrize("angle", [-0.1, 0.5 * np.pi, 2.0, np.nan, np.inf])
@pytest.mark.parametrize("name", ["single-pm", "multi4-tpm"])
def test_preset_rejects_dilation_angles_outside_the_range(name, angle):
    with pytest.raises(ValueError, match=r"dilation angle must lie in \[0, pi/2\)"):
        preset(name, dilation_angle=angle)


# ---------------------------------------------------------------------------
# converged-solution physics


def test_converged_solution_shows_all_three_regimes():
    report = solve(preset("single-pm"))
    assert report.status is SolveStatus.CONVERGED
    census = report.trace[-1].census
    assert sum(census) == 36
    assert all(count > 0 for count in census)


def test_converged_apertures_stay_physical():
    model = preset("single-pm")
    report = solve(model)
    assert report.status is SolveStatus.CONVERGED
    apertures = RESIDUAL_APERTURE + model.contact_states(report.x).normal_jump
    assert np.all(apertures >= RESIDUAL_APERTURE - 1e-8)


def test_characteristic_displacement_does_not_change_the_physics():
    solutions = {}
    for u_c in (0.01, 0.1):
        model = preset("single-pm", characteristic_displacement=u_c, cells_per_side=4)
        report = solve(model)
        assert report.status is SolveStatus.CONVERGED
        traction, jump, pressure, _ = model.split(report.x)
        solutions[u_c] = (traction * model.scales.stress, jump, pressure)

    small, big = solutions[0.01], solutions[0.1]
    assert np.allclose(small[0], big[0], rtol=1e-6, atol=1e-2)   # Pa
    assert np.allclose(small[1], big[1], rtol=1e-6, atol=1e-9)   # m
    assert np.allclose(small[2], big[2], rtol=1e-6, atol=1e-9)
