"""Spectral time evolution against matrix-exponential and averaging oracles."""

from __future__ import annotations

import csv
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import tbrisim as tb
from tbrisim.basis import occupancy_matrix
from tbrisim.dynamics import survival_probability
from tbrisim.exceptions import ParameterError, PreconditionError
from tbrisim.hamiltonian import HamiltonianMatrix
from tbrisim.spectral import EigenDecomposition
from tbrisim.strength import strength_function

from conftest import make_system
from oracles import (
    average_occupations,
    complex_trajectory,
    compound_occupations,
    direct_amplitudes,
    expm_amplitudes,
    full_grid_folded,
    libm_sincos,
    occupation_numbers,
    split_occupation_terms,
    standalone_long_time_grid,
)

ORACLE_PATH_TOL = 1e-13
SINCOS_COS, SINCOS_SIN = 7.5, 5.0   # ``dynamics._sincos``'s stated bound, in eps
SINCOS = math.hypot(SINCOS_COS, SINCOS_SIN)   # on a phase factor, in modulus: < 9.1 eps


def test_time_grid_validation():
    with pytest.raises(ParameterError):
        tb.TimeGrid(np.array([-1.0, 0.0]))
    with pytest.raises(ParameterError):
        tb.TimeGrid(np.array([0.0, 2.0, 1.0]))
    assert len(tb.TimeGrid(np.array([]))) == 0


def test_non_finite_times_and_w0_raise():
    """A NaN, infinite, negative, descending or repeated time is refused by the evolution,
    the survival probability, the model curves and eq. 14, and so is a NaN W0, rather
    than returned as a NaN W0 with a NaN unitarity drift or as exp(-Gamma t) > 1."""
    s = make_system(4, 8, 0.083, 3, initial=10)
    n0 = s.trajectory.occupations[:, 0]
    bad = ([0.0, math.nan], [0.0, 1.0, math.inf], [-1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0])
    for times in bad:
        calls = (
            lambda: tb.simulate_trajectory(s.decomp, s.basis, s.partition, s.i, times),
            lambda: tb.evolve_amplitudes(s.decomp, s.i, times),
            lambda: survival_probability(s.decomp, s.i, times),
            lambda: tb.survival_models(1.0, 1.0, times),
            lambda: tb.predict_occupations(n0, s.n_inf, np.linspace(1.0, 0.5, len(times)), times),
        )
        for call in calls:
            with pytest.raises(ParameterError, match="finite"):
                call()
    with pytest.raises(ParameterError, match="W0"):
        tb.predict_occupations(n0, s.n_inf, [1.0, math.nan], [0.0, 1.0])


@pytest.mark.parametrize(("delta_e", "gamma", "points"), [
    (math.nan, 1.0, 400), (1.0, math.nan, 400), (math.inf, 1.0, 400), (1.0, math.inf, 400),
    (1.0, 1.0, -1), (0.0, 0.0, -1),
])
def test_default_grid_refuses_a_bad_width_or_point_count(delta_e, gamma, points):
    """A NaN or infinite width, or a negative point count, raises ParameterError: not a grid
    with its NaN times dropped (NaN widths gave 81 and 2 points), nor numpy's ValueError."""
    with pytest.raises(ParameterError, match="finite widths"):
        tb.default_grid(delta_e, gamma, 3, points=points)


def test_default_grid_shape(fig1):
    grid = fig1.grid
    assert grid.points[0] == 0.0
    assert grid.points[1] == pytest.approx(0.01 / fig1.delta_e)
    assert grid.points[-1] == pytest.approx(10 * 6 / fig1.gamma)
    assert 350 <= len(grid) <= 450
    assert tb.default_grid(1.0, 1e6, 1).points[-1] == pytest.approx(100 * 0.01)   # 10/Gamma < start


def test_default_grid_free_fermion_fallback():
    grid = tb.default_grid(0.0, 0.0, 3)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 60.0


def test_sort_dedupe_and_sorted_median_equal_numpy_bit_for_bit():
    """The numpy.ma-free stand-ins give np.unique's and np.median's bytes, empty input and
    repeated or descending times included, and a NaN or -inf time is kept for ``TimeGrid``
    to refuse, not dropped."""
    rng = np.random.default_rng(0)
    repeated = rng.choice(rng.random(7), 40)
    non_finite = np.array([1.0, math.nan, 0.0, -math.inf, 1.0])
    for times in (np.array([]), np.linspace(2.0, 2.0, 5), np.geomspace(9.0, 0.1, 30), repeated,
                  non_finite):
        assert tb.dynamics._sorted_unique(times).tobytes() == np.unique(times).tobytes()
    for size in (1, 2, 924, 925):
        values = np.sort(rng.normal(size=size))
        median = np.float64(tb.spectral._sorted_median(values))
        assert median.tobytes() == np.median(values).tobytes()


def test_initial_frame_is_delta(small_3_6):
    a0 = tb.evolve_amplitudes(small_3_6.decomp, small_3_6.i, np.array([0.0]))[:, 0]
    expected = np.zeros(20)
    expected[small_3_6.i] = 1.0
    assert np.abs(a0 - expected).max() < 1e-10


def test_free_fermions_stay_put():
    s = make_system(3, 6, eta=0.0, seed=1, initial=7)
    prob = np.abs(tb.evolve_amplitudes(s.decomp, 7, np.linspace(0.0, 20.0, 31))) ** 2
    expected = np.zeros((20, 31))
    expected[7, :] = 1.0
    assert np.abs(prob - expected).max() < 1e-10


@pytest.mark.parametrize("fixture", ["small_2_4", "small_3_6"])
def test_amplitudes_match_matrix_exponential(fixture, request):
    """Spectral evolution vs scaling-and-squaring expm at 20 random times."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(12)
    times = np.sort(rng.uniform(0.05, 30.0, size=20))
    amplitudes = tb.evolve_amplitudes(s.decomp, s.i, times)
    occ = occupation_numbers(np.abs(amplitudes) ** 2, s.basis)
    w0 = survival_probability(s.decomp, s.i, times)
    occ_matrix = occupancy_matrix(s.basis)
    for j, t in enumerate(times):
        ref = expm_amplitudes(s.h.entries, s.i, t)
        assert np.abs(amplitudes[:, j] - ref).max() < 1e-10
        assert np.abs(occ[:, j] - occ_matrix @ np.abs(ref) ** 2).max() < 1e-10
        assert abs(w0[j] - np.abs(ref[s.i]) ** 2) < 1e-10


def test_unitarity_along_trajectory(fig2):
    prob = np.abs(tb.evolve_amplitudes(fig2.decomp, fig2.i, fig2.grid)) ** 2
    assert np.abs(prob.sum(axis=0) - 1.0).max() < 1e-10


@pytest.mark.parametrize("fixture", ["small_2_4", "small_3_6", "fig1", "fig2"])
def test_trajectory_matches_complex_oracle(fixture, request):
    """Real-GEMM trajectory vs the complex product split into frames.

    Same spectral sum in a different order, so only rounding may differ:
    occupations, W0 and class populations on the fixture grid and on an
    empty grid, plus the long-time occupation average.
    """
    s = request.getfixturevalue(fixture)
    for times in (s.grid.points, np.array([])):
        got = tb.simulate_trajectory(s.decomp, s.basis, s.partition, s.i, times)
        ref = complex_trajectory(s.decomp, s.basis, s.partition, s.i, times)
        for field in ("occupations", "w0", "class_populations"):
            a, b = getattr(got, field), getattr(ref, field)
            assert a.shape == b.shape
            assert a.size == 0 or np.abs(a - b).max() <= ORACLE_PATH_TOL, field
    long_times = standalone_long_time_grid(s.decomp, s.i, 256)
    ref = complex_trajectory(s.decomp, s.basis, s.partition, s.i, long_times)
    avg = average_occupations(s.decomp, s.basis, s.i, samples=256)
    assert np.abs(avg - ref.occupations.mean(axis=1)).max() <= ORACLE_PATH_TOL


def _fig2_phase_angles(s) -> tuple[np.ndarray, np.ndarray]:
    """The angles of fig2's node rows (the nodes >= 0) and tail rows, as ``_phase_rows`` forms them."""
    energies, times = s.decomp.energies, s.grid.points
    split, count = tb.dynamics._plan(energies, times)
    nodes = tb.dynamics._folded(times[split - 1], count, np.empty(0))[0]
    centre = 0.5 * (energies.max() + energies.min())
    node_angles = np.outer(nodes, centre - energies)
    return node_angles, np.outer(times[split:], -energies)


def test_sincos_matches_libm(fig2):
    """``_sincos`` is within its stated 7.5 eps (cos) and 5 eps (sin) of libm at the doubled
    angle, plus libm's own 1 ULP: on 0, +-pi/2 and +-pi with their neighbours, multiples of
    pi up to |theta| ~ 1e4 and fig2's node and tail angles, into contiguous rows with fewer
    sine rows, interleaved rows and interleaved columns.  0 gives exactly (1, 0), and no
    step warns (tier-1 raises a RuntimeWarning)."""
    eps = np.finfo(float).eps
    edges = [(np.nextafter(x, 0.0), x, np.nextafter(x, 4.0)) for x in (np.pi / 2, np.pi)]
    edges = np.ravel(edges)
    edges = np.concatenate(([0.0], edges, -edges, np.pi * np.arange(-3200, 3201)))
    for angles in (np.vstack((edges, edges[::-1])), *_fig2_phase_angles(fig2)):
        rows, cols = angles.shape
        interleaved_rows, interleaved_cols = np.empty((2 * rows, cols)), np.empty((rows, 2 * cols))
        layouts = [
            (np.empty((rows, cols)), np.empty((rows - 1, cols))),
            (interleaved_rows[0::2], interleaved_rows[1::2]),
            (interleaved_cols[:, 0::2], interleaved_cols[:, 1::2]),
        ]
        for cos_out, sin_out in layouts:
            half = 0.5 * angles
            doubled = half + half
            tb.dynamics._sincos(half, cos_out, sin_out)
            assert np.abs(cos_out - np.cos(doubled)).max() <= (SINCOS_COS + 1) * eps
            sines = np.sin(doubled[: len(sin_out)])
            assert np.abs(sin_out - sines).max() <= (SINCOS_SIN + 1) * eps
            zero = doubled == 0.0
            assert np.all(cos_out[zero] == 1.0) and np.all(sin_out[zero[: len(sin_out)]] == 0.0)


def _truncation(omega: float, count: int) -> float:
    """omega^K / (2^(K-1) K!), the Chebyshev remainder of exp(-i a u), |a| <= omega."""
    if omega == 0.0:
        return 0.0
    return math.exp(count * math.log(omega) - (count - 1) * math.log(2.0) - math.lgamma(count + 1))


def _prefix_omega(decomp, times, split: int) -> float:
    """omega = (W/2) t_s of the interval [-t_s, t_s] behind the first ``split`` times."""
    return 0.5 * (decomp.energies.max() - decomp.energies.min()) * times[split - 1]


def _interpolation_bound(decomp, times, split: int, count: int) -> float:
    """The stated bound per interpolated amplitude (see ``_reduce``), plus a reference's own
    rounding.

    sqrt(2) omega^K / (2^(K-1) K!) for truncation, omega = (W/2) t_s; rounding
    in the node values, ``_sincos``'s 7.5 eps included, and the K-term sums
    times the Lebesgue bound (2/pi) ln(K+1) + 1; and 2 eps (3 max|E| t_T + 2N)
    for the reference evaluated at every time (and for the directly evaluated
    tail), plus the tail's ``SINCOS`` eps.  With s = 0
    only the last term is left: ``evolve_amplitudes``'s own bound, plus the
    reference's rounding.
    """
    eps = np.finfo(float).eps
    energies, n = decomp.energies, decomp.size
    reference = eps * (2 * (3 * np.abs(energies).max() * times[-1] + 2 * n) + SINCOS)
    if split == 0:
        return reference
    omega = _prefix_omega(decomp, times, split)
    lebesgue = 2.0 / np.pi * np.log(count + 1) + 1.0
    nodes = lebesgue * eps * (3 * omega + 2 * n + SINCOS_COS + count)
    return math.sqrt(2.0) * _truncation(omega, count) + nodes + reference


def _assert_fewest_nodes(decomp, times, split: int, count: int) -> None:
    """On [-t_s, t_s], K meets omega^K / (2^(K-1) K!) <= eps and K - 1 does not."""
    eps = np.finfo(float).eps
    omega = _prefix_omega(decomp, times, split)
    assert _truncation(omega, count) <= eps
    assert count == 1 or eps < _truncation(omega, count - 1)


def _brute_force_plan_cost(decomp, times) -> int:
    """min over every s of N (K(s) + 2 (T - s)) + K(s) s, K(s) by the scalar criterion."""
    eps, size, points = np.finfo(float).eps, decomp.size, len(times)
    costs, count = [2 * size * points], 1
    for split in range(1, points + 1):
        omega = _prefix_omega(decomp, times, split)
        while _truncation(omega, count) > eps:   # K(s) never falls as t_s grows
            count += 1
        costs.append(size * (count + 2 * (points - split)) + count * split)
    return min(costs)


def test_direct_path_is_bitwise_the_oracle(fig1, monkeypatch):
    """fig1's directly evaluated tail, taken alone, is planned with s = 0: given the oracle's
    libm phase rows the trajectory's W0 is bitwise the oracle's, and its other rows are
    within the rounding of another order of summation."""
    s = fig1
    times = s.grid.points[s.trajectory.interpolated_points :]
    assert tb.dynamics._plan(s.decomp.energies, times) == (0, 0)
    reference = direct_amplitudes(s.decomp, s.i, times)
    monkeypatch.setattr(tb.dynamics, "_sincos", libm_sincos)
    traj = tb.simulate_trajectory(s.decomp, s.basis, s.partition, s.i, times)
    assert traj.time_nodes is None and traj.interpolated_points == 0
    prob = reference.real**2 + reference.imag**2
    assert traj.w0.tobytes() == prob[s.i].tobytes()
    # The reduction sums over f in another order: sums of N non-negative terms <= 1,
    # each within (N - 1) eps/2 of the exact sum.
    bound = (s.decomp.size - 1) * np.finfo(float).eps
    assert np.abs(traj.occupations - occupation_numbers(prob, s.basis)).max() <= bound
    pops = [prob[s.partition.class_of == c].sum(axis=0) for c in range(s.partition.n_classes + 1)]
    assert np.abs(traj.class_populations - pops).max() <= bound


@pytest.mark.parametrize("fixture", ["fig1", "fig2", "small_3_6"])
def test_evolve_amplitudes_is_bitwise_the_direct_oracle(fixture, request, monkeypatch):
    """Every time of the full grid is evaluated directly: within the direct
    path's stated bound of the oracle, and bitwise the oracle given its libm phase rows."""
    s = request.getfixturevalue(fixture)
    times = s.grid.points
    reference = direct_amplitudes(s.decomp, s.i, times)
    got = tb.evolve_amplitudes(s.decomp, s.i, times)
    assert got.shape == (s.decomp.size, len(times)) and got.dtype == np.complex128
    assert np.abs(got - reference).max() <= _interpolation_bound(s.decomp, times, 0, 0)
    monkeypatch.setattr(tb.dynamics, "_sincos", libm_sincos)
    assert tb.evolve_amplitudes(s.decomp, s.i, times).tobytes() == reference.tobytes()


def _reduced_nodes(decomp, times, split: int, count: int) -> int:
    """K2, the fewest nodes of [-t_s, t_s] for omega' = W t_s: the reduced rows' band is [-W, W]."""
    width = decomp.energies.max() - decomp.energies.min()
    return int(tb.dynamics._node_count(width * times[split - 1], 2 * count))


def _reduced_bound(decomp, times, split: int, count: int) -> float:
    """``_reduce``'s stated bound on each reduced row, sum_f R_af |A_f(t)|^2 (R a 0/1 row).

    Lambda_K2 (3 sqrt(N) b) + N omega'^K2 / (2^(K2-1) K2!), omega' = W t_s: at each K2 node
    the row is within sum_f ||a_f|^2 - |b_f|^2| <= |a - b|_2 (|a|_2 + |b|_2) <= 3 sqrt(N) b
    of the exact one, b the amplitudes' ``_interpolation_bound``; interpolation amplifies
    that by the Lebesgue bound (2/pi) ln(K2 + 1) + 1 and adds truncation, each |A_f|^2 a
    combination of cos((E_k - E_l) t) with coefficients of absolute sum <= 1, over N rows.
    """
    amplitudes = 3 * math.sqrt(decomp.size) * _interpolation_bound(decomp, times, split, count)
    count2 = _reduced_nodes(decomp, times, split, count)
    lebesgue = 2.0 / np.pi * np.log(count2 + 1) + 1.0
    omega = 2 * _prefix_omega(decomp, times, split)
    return lebesgue * amplitudes + decomp.size * _truncation(omega, count2)


def _assert_within_the_stated_bound(s) -> None:
    """A prefix of s < T times from K nodes, K fewest on [-t_s, t_s]; the reduced rows
    within ``_reduced_bound`` and ORACLE_PATH_TOL."""
    times, split, count = s.grid.points, s.trajectory.interpolated_points, s.trajectory.time_nodes
    assert 0 < split < len(times) and count is not None
    assert count + 2 * (len(times) - split) < 2 * len(times)
    _assert_fewest_nodes(s.decomp, times, split, count)
    ref = complex_trajectory(s.decomp, s.basis, s.partition, s.i, times)
    reduced_bound = _reduced_bound(s.decomp, times, split, count)
    for field in ("occupations", "w0", "class_populations"):
        deviation = np.abs(getattr(s.trajectory, field) - getattr(ref, field)).max()
        assert deviation <= min(reduced_bound, ORACLE_PATH_TOL), field


def test_fig1_interpolates_within_the_stated_bound(fig1):
    _assert_within_the_stated_bound(fig1)


def test_fig2_interpolates_within_the_stated_bound(fig2):
    """K = 79 and K2 = 133."""
    _assert_within_the_stated_bound(fig2)


def test_small_3_6_interpolates_within_the_stated_bound(small_3_6):
    """N = 20 with K = 19 and K2 = 25."""
    _assert_within_the_stated_bound(small_3_6)


def test_odd_node_sets_share_zero_through_a_unit_column():
    """K = 19 and K2 = 25, both odd, share the node 0.0: folded onto the K2 nodes >= 0, the
    K node 0.0 passes its value to the K2 node 0.0 through an exact unit column, with
    nothing from the odd part.  The folded weights carry an even and an odd function
    of band 1 on [-1, 1] to the K2 nodes within 1e-13."""
    nodes2 = tb.dynamics._folded(1.0, 25, np.empty(0))[0]
    nodes, folded, odd_part = tb.dynamics._folded(1.0, 19, nodes2)
    assert nodes.shape == (10,) and nodes2.shape == (13,)
    assert folded.shape == (10, 13) and odd_part.shape == (9, 13)
    assert nodes2[12] == nodes[9] == 0.0
    assert folded[:, -1].tobytes() == np.eye(10)[-1].tobytes()
    assert not odd_part[:, -1].any()
    assert np.abs(folded.T @ np.cos(nodes) - np.cos(nodes2)).max() <= 1e-13
    assert np.abs(odd_part.T @ np.sin(nodes[:9]) - np.sin(nodes2)).max() <= 1e-13


@pytest.mark.parametrize("grid", ["fig1", "fig2", "uniform"])
def test_plan_minimises_the_predicted_cost(grid, request, small_3_6):
    """``_plan``'s (s, K) costs the minimum over every split, and K is K(s)."""
    s = small_3_6 if grid == "uniform" else request.getfixturevalue(grid)
    times = np.linspace(0.0, 5.0, 400) if grid == "uniform" else s.grid.points
    split, count = tb.dynamics._plan(s.decomp.energies, times)
    size, points = s.decomp.size, len(times)
    assert size * (count + 2 * (points - split)) + count * split == _brute_force_plan_cost(s.decomp, times)
    if split:
        _assert_fewest_nodes(s.decomp, times, split, count)
    else:
        assert count == 0


FOLD_COUNTS = (1, 2, 7, 19, 25, 80, 133)


@pytest.mark.parametrize("count", FOLD_COUNTS)
def test_folded_weights_match_the_full_grid_oracle(count):
    """The half grid's nodes are the full grid's nodes >= 0, bit for bit: descending, below
    the radius, an odd K's last one 0.0.  Its folded weights, to the nodes >= 0 of every K2
    in ``FOLD_COUNTS`` and to 400 prefix times on [0, radius], are within 8 eps of the full
    grid's fold (``oracles.full_grid_folded``), on radii 1, 3.7 and 123.4.

    Both form the same terms w_j / (t - x_j) bit for bit (t + x_j is t - (-x_j), and the
    mirror's weight differs from w_j in sign only); they differ in the order in which the
    denominator adds its K terms, the half grid summing the mirror terms apart, and hence
    in the rounding of one quotient per weight.  The terms' absolute sum is the Lebesgue
    function times the denominator, below Lambda_133 < 4.2 times it, so a reordered sum
    moves the weights (|L_j| < 1.3 here) by a few eps: 6.5 eps at most on these grids.
    A target on a node takes that node's unit column, in the odd weights too but for the
    node 0.0, where an odd function vanishes.
    """
    eps = np.finfo(float).eps
    for radius in (1.0, 3.7, 123.4):
        half_nodes = [tb.dynamics._folded(radius, k2, np.empty(0))[0] for k2 in FOLD_COUNTS]
        prefix = np.linspace(0.0, radius, 400)
        for targets in (np.concatenate(half_nodes), prefix):
            nodes, folded, odd_part = tb.dynamics._folded(radius, count, targets.copy())
            ref_nodes, ref_folded, ref_odd = full_grid_folded(radius, count, targets.copy())
            assert nodes.tobytes() == ref_nodes.tobytes()
            assert np.all(np.diff(nodes) < 0) and np.all(nodes >= 0.0) and nodes[0] < radius
            assert count % 2 == 0 or nodes[-1] == 0.0
            assert folded.shape == ((count + 1) // 2, len(targets))
            assert odd_part.shape == (count // 2, len(targets))
            assert np.abs(folded - ref_folded).max() <= 8 * eps
            assert odd_part.size == 0 or np.abs(odd_part - ref_odd).max() <= 8 * eps
        on_nodes, odd_on_nodes = tb.dynamics._folded(radius, count, nodes.copy())[1:]
        assert on_nodes.tobytes() == np.eye(len(nodes)).tobytes()
        assert odd_on_nodes.tobytes() == np.eye(count // 2, len(nodes)).tobytes()


def _on_node_grid(decomp) -> tuple[np.ndarray, int, int]:
    """200 points on [0, 1], the first s from K nodes, plus two of the K2 nodes >= 0 exactly,
    the nodes the reduced rows are interpolated from."""
    base = np.linspace(0.0, 1.0, 200)
    split, count = tb.dynamics._plan(decomp.energies, base)
    count2 = _reduced_nodes(decomp, base, split, count)
    nodes2 = tb.dynamics._folded(base[split - 1], count2, np.empty(0))[0]
    return np.union1d(base, nodes2[[0, count2 // 4]]), split + 2, count


@pytest.mark.parametrize(
    "grid",
    [
        np.linspace(0.0, 5.0, 400),
        np.linspace(0.0, 25.0, 400),
        np.linspace(3.0, 20.0, 300),   # does not start at 0
        "on-node",
        np.array([2.5]),
        np.array([]),
    ],
    ids=["0-5", "0-25", "3-20", "on-node", "one-point", "empty"],
)
def test_grids_match_matrix_exponential(grid, small_3_6):
    """Interpolated and direct grids vs scaling-and-squaring expm at every time: amplitudes,
    occupations, W0 and class populations (class sums of the squared expm amplitudes)."""
    s = small_3_6
    times = _on_node_grid(s.decomp)[0] if isinstance(grid, str) else grid
    traj = tb.simulate_trajectory(s.decomp, s.basis, s.partition, s.i, times)
    amplitudes = tb.evolve_amplitudes(s.decomp, s.i, times)
    assert amplitudes.shape == (s.decomp.size, len(times))
    assert traj.occupations.shape == (6, len(times))
    split = traj.interpolated_points
    assert (split, traj.time_nodes or 0) == tb.dynamics._plan(s.decomp.energies, times)
    if split:
        _assert_fewest_nodes(s.decomp, times, split, traj.time_nodes)
    else:
        assert traj.time_nodes is None
    assert 0.0 <= traj.unitarity_drift <= tb.dynamics.UNITARITY_TOL
    occ_matrix = occupancy_matrix(s.basis)
    indicator = np.eye(s.partition.n_classes + 1)[:, s.partition.class_of]
    for j, t in enumerate(times):
        ref = expm_amplitudes(s.h.entries, s.i, t)
        prob = np.abs(ref) ** 2
        assert np.abs(amplitudes[:, j] - ref).max() < 1e-10, t
        assert np.abs(traj.occupations[:, j] - occ_matrix @ prob).max() < 1e-10, t
        assert abs(traj.w0[j] - prob[s.i]) < 1e-10, t
        assert np.abs(traj.class_populations[:, j] - indicator @ prob).max() < 1e-10, t


def test_grid_time_on_a_node_takes_the_node_value(small_3_6):
    """A prefix time on a K2 node >= 0 takes that node's unit column of the folded weights
    that carry the reduced rows to the prefix; every column sums to 1, as the full grid's
    Lagrange weights do, so a constant carries exactly up to rounding."""
    decomp = small_3_6.decomp
    times, split, count = _on_node_grid(decomp)
    assert tb.dynamics._plan(decomp.energies, times) == (split, count)
    count2 = _reduced_nodes(decomp, times, split, count)
    nodes2, carry, _ = tb.dynamics._folded(times[split - 1], count2, times[:split])
    for k in (0, count2 // 4):
        j = int(np.searchsorted(times, nodes2[k]))
        assert times[j] == nodes2[k]
        assert carry[:, j].tobytes() == np.eye(len(nodes2))[k].tobytes()
    assert np.all(np.isfinite(carry))
    assert np.abs(carry.sum(axis=0) - 1.0).max() < 1e-14


def test_unitarity_guard_rejects_non_orthonormal_vectors(small_3_6):
    s = small_3_6
    bad = EigenDecomposition(energies=s.decomp.energies, vectors=s.decomp.vectors * 1.001,
                             basis=s.basis)
    with pytest.raises(PreconditionError, match="unitarity"):
        tb.evolve_amplitudes(bad, s.i, s.grid)
    with pytest.raises(PreconditionError, match="unitarity"):
        tb.simulate_trajectory(bad, s.basis, s.partition, s.i, s.grid)


def test_unitarity_guard_sees_a_small_drift_on_an_interpolated_prefix(small_3_6):
    """Vectors scaled by 1 + 1e-9 put every norm 4e-9 off, 40 x UNITARITY_TOL: a trajectory
    whose prefix is reduced at the K2 nodes and interpolated still refuses them, on the
    fixture grid (s > 0 and a tail) and on one interpolated whole (s = T, no tail)."""
    s = small_3_6
    bad = EigenDecomposition(energies=s.decomp.energies, vectors=s.decomp.vectors * (1 + 1e-9),
                             basis=s.basis)
    whole = np.linspace(0.0, 1.0, 400)
    assert 0 < s.trajectory.interpolated_points < len(s.grid)
    assert tb.dynamics._plan(s.decomp.energies, whole)[0] == len(whole)
    for times in (s.grid.points, whole):
        assert tb.simulate_trajectory(s.decomp, s.basis, s.partition, s.i, times).unitarity_drift < 1e-13
        with pytest.raises(PreconditionError, match="unitarity"):
            tb.simulate_trajectory(bad, s.basis, s.partition, s.i, times)


def test_occupations_start_on_bits(fig1):
    bits = [(int(fig1.basis.states[fig1.i]) >> a) & 1 for a in range(12)]
    assert np.allclose(fig1.trajectory.occupations[:, 0], bits, atol=1e-10)


@pytest.mark.parametrize("fixture", ["fig1", "fig2"])
def test_particle_number_conserved(fixture, request):
    s = request.getfixturevalue(fixture)
    sums = s.trajectory.occupations.sum(axis=0)
    assert np.abs(sums - 6.0).max() < 1e-10


def test_split_terms_reconstruct_probability(fig1):
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(0.0, 50.0, size=7))
    prob = np.abs(tb.evolve_amplitudes(fig1.decomp, fig1.i, times)) ** 2
    for q in rng.choice(fig1.basis.size, size=5, replace=False):
        s_d, s_fl = split_occupation_terms(fig1.decomp, fig1.i, int(q), times)
        assert np.abs(s_d + s_fl - prob[int(q)]).max() < 1e-10


def test_split_terms_at_time_zero(fig1):
    s_d, s_fl = split_occupation_terms(fig1.decomp, fig1.i, fig1.i, np.array([0.0]))
    assert s_d + s_fl[0] == pytest.approx(1.0, abs=1e-10)
    q = (fig1.i + 5) % fig1.basis.size
    s_d_q, s_fl_q = split_occupation_terms(fig1.decomp, fig1.i, q, np.array([0.0]))
    assert s_d_q + s_fl_q[0] == pytest.approx(0.0, abs=1e-10)


def test_asymptotic_occupations_sum_to_n(fig2):
    assert tb.asymptotic_occupations(fig2.decomp, fig2.i, fig2.basis).sum() == pytest.approx(6.0, abs=1e-10)


@pytest.mark.parametrize("fixture", ["small_2_4", "fig2"])
def test_asymptotic_occupations_match_whole_matrix_product(fixture, request):
    """The compound-state table gives occ @ ((V**2) @ V[i]**2): N=6 is below one block,
    924 is no multiple of it.  Both are sums of N^2 non-negative products in two orders,
    each within (2N + 1) eps/2 relative of the exact value."""
    s = request.getfixturevalue(fixture)
    vectors, eps = s.decomp.vectors, np.finfo(float).eps
    for i in (0, s.i, s.basis.size - 1):
        expected = occupancy_matrix(s.basis) @ ((vectors**2) @ (vectors[i] ** 2))
        got = tb.asymptotic_occupations(s.decomp, i, s.basis)
        assert np.all(np.abs(got - expected) <= (2 * s.decomp.size + 1) * eps * expected), i


@pytest.mark.parametrize("fixture", ["small_3_6", "fig2"])
def test_compound_occupations_match_the_oracle(fixture, request):
    """Every column k is the eigenstate-k occupations of the one-column oracle, within
    (N - 1) eps (two sums of N non-negative terms <= 1), and sums to n."""
    s = request.getfixturevalue(fixture)
    table = s.decomp.compound_occupations
    assert table.shape == (s.basis.m, s.decomp.size) and not table.flags.writeable
    bound = (s.decomp.size - 1) * np.finfo(float).eps
    for k in range(s.decomp.size):
        assert np.abs(table[:, k] - compound_occupations(s.decomp, s.basis, k)).max() <= bound, k
    assert np.abs(table.sum(axis=0) - s.basis.n).max() <= 1e-12


def test_compound_occupations_are_kept_per_decomposition(small_2_4, small_3_6):
    """Two decompositions used alternately keep their own tables, each computed once on
    first use; a table is read-only, the attribute cannot be replaced, and the table is
    freed with its decomposition."""
    tables = {}
    for s in (small_2_4, small_3_6, small_2_4, small_3_6):
        table = s.decomp.compound_occupations
        assert tables.setdefault(id(s), table) is table
        assert table.shape == (s.basis.m, s.decomp.size)
    decomp = EigenDecomposition(small_3_6.decomp.energies, small_3_6.decomp.vectors.copy(),
                                small_3_6.basis)
    first = decomp.compound_occupations
    assert decomp.compound_occupations is first
    assert first is not tables[id(small_3_6)]
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    with pytest.raises(AttributeError):
        decomp.compound_occupations = first.copy()
    refs = weakref.ref(decomp), weakref.ref(first)
    del decomp, first
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_mid_grid_prefix_and_direct_grid_match_the_oracles(small_3_6, monkeypatch):
    """N=20 from the initial state i = 17: a prefix that ends inside the grid, and a
    direct grid of 300 times, against the complex oracle; given libm phase rows the
    direct grid's amplitudes and W0 are bitwise the oracle's."""
    s = small_3_6
    i = 17
    partition = tb.classify(s.basis, int(s.basis.states[i]))
    split, _ = tb.dynamics._plan(s.decomp.energies, s.grid.points)
    assert 0 < split < len(s.grid)
    direct = np.linspace(3.0, 20.0, 300)
    assert tb.dynamics._plan(s.decomp.energies, direct) == (0, 0)
    for times in (s.grid.points, direct):
        got = tb.simulate_trajectory(s.decomp, s.basis, partition, i, times)
        ref = complex_trajectory(s.decomp, s.basis, partition, i, times)
        for field in ("occupations", "w0", "class_populations"):
            assert np.abs(getattr(got, field) - getattr(ref, field)).max() <= ORACLE_PATH_TOL, field
    reference = direct_amplitudes(s.decomp, i, direct)
    bound = _interpolation_bound(s.decomp, direct, 0, 0)
    assert np.abs(tb.evolve_amplitudes(s.decomp, i, direct) - reference).max() <= bound
    monkeypatch.setattr(tb.dynamics, "_sincos", libm_sincos)
    got = tb.simulate_trajectory(s.decomp, s.basis, partition, i, direct)
    amplitudes = tb.evolve_amplitudes(s.decomp, i, direct)
    assert amplitudes.tobytes() == reference.tobytes()
    prob = amplitudes.real**2 + amplitudes.imag**2
    assert got.w0.tobytes() == prob[i].tobytes()


def test_trajectory_and_asymptotic_occupations_stay_small(fig1, fig2):
    """No (N, T) array: the fig2 trajectory peaks at <= 6 MB of Python-visible memory,
    fig1's (K = 184 nodes, the widest node set here) at <= 8 MB, and n(inf) after its
    first call at < 0.1 MB."""
    s = fig2
    tb.asymptotic_occupations(s.decomp, s.i, s.basis)
    tracemalloc.start()
    try:
        tb.simulate_trajectory(s.decomp, s.basis, s.partition, s.i, s.grid)
        trajectory_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        tb.simulate_trajectory(fig1.decomp, fig1.basis, fig1.partition, fig1.i, fig1.grid)
        widest_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        tb.asymptotic_occupations(s.decomp, s.i, s.basis)
        occupations_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trajectory_peak <= 6e6, trajectory_peak
    assert widest_peak <= 8e6, widest_peak
    assert occupations_peak < 1e5, occupations_peak


def test_fluctuating_term_averages_to_zero(fig2):
    """Long-window mean of S_q^(fl) vanishes within the statistical scale."""
    times = standalone_long_time_grid(fig2.decomp, fig2.i, 256)
    n_pc = fig2.profile.n_pc_ipr()
    tol = 3.0 / np.sqrt(len(times) * n_pc)
    rng = np.random.default_rng(8)
    for q in rng.choice(fig2.basis.size, size=6, replace=False):
        s_d, s_fl = split_occupation_terms(fig2.decomp, fig2.i, int(q), times)
        assert abs(s_fl.mean()) < tol


def test_survival_starts_at_one(fig1):
    assert fig1.trajectory.w0[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fixture", ["fig1", "fig2"])
def test_survival_short_time_quadratic(fixture, request):
    """W0 = 1 - Delta_E^2 t^2 to 10% of the quadratic term for Delta*t <= 0.1."""
    s = request.getfixturevalue(fixture)
    times = np.array([0.01, 0.03, 0.1]) / s.delta_e
    w0 = survival_probability(s.decomp, s.i, times)
    quad = (s.delta_e * times) ** 2
    assert np.all(np.abs(w0 - (1 - quad)) <= 0.1 * quad)


def test_survival_time_reversal(fig1):
    """W0(-t) = W0(t): W0 at -t is W0 of the mirrored spectrum -E at t."""
    times = np.array([0.3, 1.7, 4.0])
    forward = survival_probability(fig1.decomp, fig1.i, times)
    mirrored = EigenDecomposition(-fig1.decomp.energies[::-1], fig1.decomp.vectors[:, ::-1],
                                  fig1.basis)
    backward = survival_probability(mirrored, fig1.i, times)
    assert np.abs(forward - backward).max() < 1e-12


def test_class_populations_start_in_class_zero(fig1):
    pop = fig1.trajectory.class_populations
    assert pop[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pop[1:, 0]).max() < 1e-12


@pytest.mark.parametrize("fixture", ["fig1", "fig2"])
def test_class_populations_sum_to_one(fixture, request):
    s = request.getfixturevalue(fixture)
    sums = s.trajectory.class_populations.sum(axis=0)
    assert np.abs(sums - 1.0).max() < 1e-10


def test_class_zero_equals_survival(fig1):
    """``trajectory.w0`` is the class-0 row itself, so class 0 is checked against the
    direct sum of ``survival_probability``."""
    pop = fig1.trajectory.class_populations
    assert fig1.trajectory.w0.tobytes() == pop[0].tobytes()
    assert np.abs(pop[0] - survival_probability(fig1.decomp, fig1.i, fig1.grid)).max() < 1e-12


def test_first_class_rises_on_golden_rule_timescale(fig1):
    """Half-maximum time of W_1 within a factor of two of 1/Gamma."""
    w1 = fig1.trajectory.class_populations[1]
    t = fig1.trajectory.grid.points
    half = 0.5 * w1.max()
    j = int(np.argmax(w1 >= half))
    t_half = np.interp(half, w1[j - 1 : j + 1], t[j - 1 : j + 1]) if j > 0 else t[0]
    ratio = t_half * fig1.gamma
    assert 0.5 <= ratio <= 2.0


def test_asymptotic_occupations_free_case():
    s = make_system(3, 6, eta=0.0, seed=4, initial=11)
    n_inf = tb.asymptotic_occupations(s.decomp, 11, s.basis)
    bits = [(int(s.basis.states[11]) >> a) & 1 for a in range(6)]
    assert np.allclose(n_inf, bits, atol=1e-12)


def test_asymptotic_occupations_infinite_temperature(fig2):
    assert np.all(np.abs(fig2.n_inf - 0.5) < 0.05)


def test_long_time_average_matches_diagonal_ensemble(fig2):
    """Time-averaged occupations equal the diagonal-ensemble values."""
    avg = average_occupations(fig2.decomp, fig2.basis, fig2.i, samples=256)
    tol = 3.0 / np.sqrt(fig2.profile.n_pc_ipr())
    assert np.abs(avg - fig2.n_inf).max() < tol


def test_long_time_grid_contract(fig2):
    """The averaged times lie pi / D_mid or more apart."""
    times = standalone_long_time_grid(fig2.decomp, fig2.i, 256)
    assert np.all(np.diff(times) >= np.pi / fig2.spacing_mid * 0.99)
    assert len(times) == 256


LATE_TIMES = 4096        # M
LATE_TIME_CHUNK = 256    # times per survival_probability call: (N, 512) phases at a time
LATE_TIME_SDS = 5.0      # k


@pytest.mark.parametrize("fixture", ["fig1", "fig2"])
def test_late_time_mean_of_w0_is_the_exact_floor(fixture, request):
    """W0 at M = 4096 uniform times in [t_H, 100 t_H], t_H = 2 pi / D_min the Heisenberg
    time of the closest pair of levels, averages to ``average_survival``'s sum_k w_k^2.

    Bound, stated before the run: with independent uniform phases E_k t,
    E_t W0 = sum w^2 and Var_t W0 = (sum w^2)^2 - sum w^4 <= (sum w^2)^2, so the mean of
    M independent samples has relative SD at most 1 / sqrt(M), and k = 5 SD at M = 4096
    allows 5 / 64 = 7.8%.  The window starts far past the decay (t_H Gamma > 1e3) and
    the slowest phase difference, D_min t, turns 99 times across it.
    """
    s = request.getfixturevalue(fixture)
    heisenberg = 2 * np.pi / np.diff(s.decomp.energies).min()
    assert heisenberg * min(s.gamma, s.delta_e) > 1e3
    times = np.sort(np.random.default_rng(LATE_TIMES).uniform(heisenberg, 100 * heisenberg, LATE_TIMES))
    total = sum(survival_probability(s.decomp, s.i, times[lo : lo + LATE_TIME_CHUNK]).sum()
                for lo in range(0, LATE_TIMES, LATE_TIME_CHUNK))
    floor = tb.dynamics.average_survival(s.decomp, s.i)
    assert abs(total / LATE_TIMES - floor) <= LATE_TIME_SDS * floor / math.sqrt(LATE_TIMES)


def test_average_survival_on_a_two_level_matrix():
    """W0 = 1 - 2 w0 w1 (1 - cos((E1 - E0) t)) has mean w0^2 + w1^2, to the rounding of
    the two-term sum."""
    decomp = tb.diagonalize(HamiltonianMatrix(np.array([[0.3, 0.4], [0.4, -0.2]]),
                                              tb.build_basis(1, 2)))
    w = decomp.vectors[0] ** 2
    exact = w[0] ** 2 + w[1] ** 2
    assert abs(tb.dynamics.average_survival(decomp, 0) - exact) <= np.finfo(float).eps * exact


@pytest.mark.parametrize(("n", "m", "seed"), [(3, 6, 4), (6, 12, 1)])
def test_average_survival_of_free_fermions_is_one(n, m, seed):
    """At eta = 0 H is diagonal with repeated levels, and eigh returns unit vectors, so
    every basis state is an eigenstate and its floor is exactly 1: the repeated levels
    need no grouping of their weights."""
    params = tb.ModelParams(n=n, m=m, eta=0.0, seed=seed)
    basis = tb.build_basis(n, m)
    h = tb.build_hamiltonian(basis, tb.sample_spectrum(params), tb.sample_two_body(params))
    decomp = tb.diagonalize(h)
    assert len(np.unique(decomp.energies)) < decomp.size
    assert all(tb.dynamics.average_survival(decomp, i) == 1.0 for i in range(decomp.size))


def test_evolve_rejects_bad_index(fig1):
    with pytest.raises(PreconditionError):
        tb.evolve_amplitudes(fig1.decomp, -1, np.array([0.0]))
    with pytest.raises(PreconditionError):
        survival_probability(fig1.decomp, 924, np.array([0.0]))


def _golden_rule_at(s, i):
    """Gamma_GR of state i, with the partition of the state index i would wrap to."""
    partition = tb.classify(s.basis, int(s.basis.states[int(i) % s.basis.size]))
    return tb.golden_rule_gamma(s.h, partition, i)


INDEXED = {
    "strength_function": lambda s, i: strength_function(s.decomp, i),
    "energy_variance": lambda s, i: tb.energy_variance(s.h, i),
    "golden_rule_gamma": _golden_rule_at,
    "evolve_amplitudes": lambda s, i: tb.evolve_amplitudes(s.decomp, i, np.array([0.0])),
    "simulate_trajectory": lambda s, i: tb.simulate_trajectory(
        s.decomp, s.basis, s.partition, i, np.array([0.0])),
    "survival_probability": lambda s, i: survival_probability(s.decomp, i, np.array([0.0])),
    "asymptotic_occupations": lambda s, i: tb.asymptotic_occupations(s.decomp, i, s.basis),
    "average_survival": lambda s, i: tb.dynamics.average_survival(s.decomp, i),
}


@pytest.mark.parametrize("where", ["negative", "size", "bool", "float"])
@pytest.mark.parametrize("name", sorted(INDEXED))
def test_every_basis_index_check_is_one_rule(small_3_6, name, where):
    """0 <= i < N everywhere: -1 does not wrap to the last state, and N raises
    PreconditionError, not a bare IndexError.  True (once read as state 1) and 3.0 are no
    index, and are refused before numpy warns or raises."""
    size = small_3_6.basis.size
    i, message = {
        "negative": (-1, rf"basis index -1 outside \[0, {size}\)"),
        "size": (size, rf"basis index {size} outside \[0, {size}\)"),
        "bool": (True, "basis index True is not an integer"),
        "float": (3.0, "basis index 3.0 is not an integer"),
    }[where]
    with pytest.raises(PreconditionError, match=message):
        INDEXED[name](small_3_6, i)


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_a_numpy_integer_is_a_basis_index(small_3_6, name):
    INDEXED[name](small_3_6, np.int64(small_3_6.i))


@pytest.mark.parametrize("name", ["asymptotic_occupations", "simulate_trajectory"])
def test_a_basis_of_another_size_is_refused(small_3_6, name):
    """A basis of another (n, m) than the decomposition's raises PreconditionError before
    any product: of another N, not numpy's ValueError from inside matmul, and of the same
    N = 20, not m = 20 "occupations" that sum to 1."""
    s = small_3_6
    for other in (tb.build_basis(2, 6), tb.build_basis(1, 20)):   # 15 and 20 states
        call = {
            "asymptotic_occupations": lambda: tb.asymptotic_occupations(s.decomp, s.i, other),
            "simulate_trajectory": lambda: tb.simulate_trajectory(s.decomp, other, s.partition,
                                                                  s.i, s.grid),
        }[name]
        with pytest.raises(PreconditionError, match=rf"basis of \(n, m\) = \({other.n}, "
                                                    rf"{other.m}\) for a decomposition of \(3, 6\)"):
            call()


@pytest.mark.parametrize("order", ["descending", "shuffled", "negative", "repeated"])
def test_evolve_amplitudes_refuses_times_that_are_no_grid(small_3_6, order):
    """The times are read as a ``TimeGrid``, as the trajectory reads them, whose Chebyshev
    plan takes t_s as the half-width of its node interval: any times but ascending,
    non-negative ones are refused."""
    times = np.linspace(0.0, 3.0, 40)
    bad = {"descending": times[::-1], "shuffled": np.random.default_rng(3).permutation(times),
           "negative": -times[::-1], "repeated": np.repeat(times, 2)}[order]
    with pytest.raises(ParameterError):
        tb.evolve_amplitudes(small_3_6.decomp, small_3_6.i, bad)


@pytest.mark.parametrize("name", ["golden_rule_gamma", "simulate_trajectory"])
def test_partition_of_another_state_is_refused(small_3_6, name):
    """A partition must be classified from state i: its class 0 is then i alone, so the
    class populations are the reference's and class 0 is W0."""
    s = small_3_6
    other = tb.classify(s.basis, int(s.basis.states[(s.i + 1) % s.basis.size]))
    call = {
        "golden_rule_gamma": lambda: tb.golden_rule_gamma(s.h, other, s.i),
        "simulate_trajectory": lambda: tb.simulate_trajectory(s.decomp, s.basis, other, s.i, s.grid),
    }[name]
    with pytest.raises(PreconditionError, match="partition reference does not match"):
        call()


def test_trajectory_csv_round_trip(tmp_path, small_3_6):
    path = tmp_path / "occ.csv"
    tb.dynamics.write_trajectory_csv(
        small_3_6.trajectory, path, header_lines=["seed=5"]
    )
    with open(path) as fh:
        body = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(body))
    assert len(rows) == len(small_3_6.grid)
    for row in rows[:: max(len(rows) // 10, 1)]:
        n_sum = sum(float(row[f"n_{a}"]) for a in range(6))
        assert n_sum == pytest.approx(3.0, abs=1e-10)
        w_sum = float(row["W0"]) + sum(float(row[f"W_{s}"]) for s in range(1, 3))
        assert w_sum == pytest.approx(1.0, abs=1e-10)
    assert list(rows[0])[-3:] == ["W0", "W_1", "W_2"]   # n=3, m=6 reaches classes 1 and 2
