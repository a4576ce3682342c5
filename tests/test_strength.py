"""Strength-function weights, spreading widths, and line-shape fits."""

from __future__ import annotations

import csv

import numpy as np
import pytest

import tbrisim as tb
from tbrisim import strength
from tbrisim.exceptions import FitConvergenceError, PreconditionError

from conftest import FIG1_ETA, FIG2_ETA, make_system, realization_fit_inputs
from oracles import compound_occupations, scipy_bw_fit, scipy_hybrid_fit

ORACLE_RTOL = 1e-6   # scipy's 3-point finite-difference Jacobian agrees to ~5e-8


def synthetic_profile(shape_fn, spacing=0.02, half_span=30.0, center=0.0):
    """Profile whose weights sample a given line shape on a dense ladder."""
    energies = np.arange(-half_span, half_span + spacing / 2, spacing) + center
    weights = shape_fn(energies)
    weights = weights / weights.sum()
    e_i = float(weights @ energies)
    return strength.StrengthProfile(energies=energies, weights=weights, e_i=e_i)


def rms_width(profile):
    """The profile's second-moment width about E_i: a start for the fits that does not
    know the answer (the pipeline starts them at Gamma_GR)."""
    return float(np.sqrt(profile.second_central_moment()))


def breit_wigner(gamma, center=0.0):
    return lambda e: (gamma / (2 * np.pi)) / ((e - center) ** 2 + gamma**2 / 4)


def hybrid_shape(b, e_c, sigma, gamma, e_i=0.0):
    return lambda e: b * np.exp(-((e - e_c) ** 2) / (2 * sigma**2)) / (
        (e - e_i) ** 2 + gamma**2 / 4
    )


@pytest.mark.parametrize(
    "n, bins", [(7, [(0, 7)]), (25, [(0, 10), (10, 25)]), (30, [(0, 10), (10, 20), (20, 30)])]
)
def test_adaptive_bins_take_runs_of_ten_levels(n, bins):
    """Runs of MIN_BIN_COUNT levels, the last taking the remainder; edges at level midpoints
    and half a spacing past the end levels; the heights integrate to the total weight 1."""
    energies = np.arange(n, dtype=float) ** 2 / n   # unequal spacings, so each midpoint is its own
    weights = np.arange(1.0, n + 1) / (n * (n + 1) / 2)
    profile = strength.StrengthProfile(energies=energies, weights=weights, e_i=float(weights @ energies))
    inner = [0.5 * (energies[a - 1] + energies[a]) for a, _ in bins[1:]]
    edges = np.array([
        energies[0] - 0.5 * (energies[1] - energies[0]), *inner,
        energies[-1] + 0.5 * (energies[-1] - energies[-2]),
    ])
    centers, heights = strength._adaptive_bins(profile)
    np.testing.assert_allclose(centers, 0.5 * (edges[:-1] + edges[1:]), rtol=0, atol=1e-14)
    sums = [weights[a:b].sum() for a, b in bins]
    np.testing.assert_allclose(heights, np.array(sums) / np.diff(edges), rtol=1e-14)
    assert heights @ np.diff(edges) == pytest.approx(1.0, abs=1e-14)


def test_free_fermion_profile_is_delta():
    s = make_system(3, 6, eta=0.0, seed=1, initial=4)
    profile = strength.strength_function(s.decomp, 4)
    assert profile.weights.max() == pytest.approx(1.0, abs=1e-12)
    assert profile.n_pc_ipr() == pytest.approx(1.0, abs=1e-10)


def test_profile_normalized(fig2):
    assert fig2.profile.weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(fig2.profile.weights >= 0)


def test_profile_first_moment_is_diagonal_energy(fig2):
    assert fig2.profile.e_i == pytest.approx(fig2.h.entries[fig2.i, fig2.i], abs=1e-8)


def test_profile_rejects_bad_index(fig1):
    with pytest.raises(PreconditionError):
        strength.strength_function(fig1.decomp, 924)


def test_energy_variance_free_case():
    s = make_system(2, 4, eta=0.0, seed=1, initial=0)
    assert tb.energy_variance(s.h, 0) == 0.0


def test_energy_variance_keeps_a_weak_coupling():
    """At eta 1e-16 the couplings of (3, 6) are ~1e-8 against H_ii = 7: H_ii^2 subtracted
    from the full row sum cancels their squares to 0.  The off-diagonal sum is the one with the
    diagonal deleted, summed in another order: each of the two sums of N - 1 squares is
    within (N - 1) eps relative of the exact one, so their roots agree within N eps."""
    s = make_system(3, 6, eta=1e-16, seed=1)
    off = np.delete(s.h.entries[s.i], s.i)
    expected = float(np.sqrt(off @ off))
    delta = tb.energy_variance(s.h, s.i)
    assert delta > 0
    assert abs(delta - expected) <= s.basis.size * np.finfo(float).eps * expected


@pytest.mark.parametrize("fixture", ["fig1", "fig2"])
def test_second_moment_identity(fixture, request):
    """Profile variance equals the off-diagonal row norm, row by row."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    for i in rng.choice(s.basis.size, size=10, replace=False):
        profile = strength.strength_function(s.decomp, int(i))
        delta = tb.energy_variance(s.h, int(i))
        assert profile.second_central_moment() == pytest.approx(delta**2, rel=1e-8)


def test_npc_ipr_at_least_one(fig1):
    rng = np.random.default_rng(2)
    for i in rng.choice(fig1.basis.size, size=20, replace=False):
        assert strength.strength_function(fig1.decomp, int(i)).n_pc_ipr() >= 1.0


def test_golden_rule_zero_interaction():
    s = make_system(3, 6, eta=0.0, seed=2)
    assert tb.golden_rule_gamma(s.h, s.partition, s.i) == 0.0


def test_golden_rule_weak_preset_near_paper_value(fig1):
    assert abs(fig1.gamma / 0.50 - 1) < 0.30


def test_golden_rule_strong_preset_near_paper_value(fig2):
    assert abs(fig2.gamma / 10.5 - 1) < 0.30


def test_golden_rule_rejects_foreign_partition(fig1):
    other = tb.classify(fig1.basis, int(fig1.basis.states[0]))
    if fig1.i != 0:
        with pytest.raises(PreconditionError):
            tb.golden_rule_gamma(fig1.h, other, fig1.i)


def test_golden_rule_scales_linearly_with_eta():
    """Double the squared elements (same draw) and Gamma doubles, nearly."""
    params = tb.ModelParams(n=6, m=12, eta=0.002, seed=13)
    basis = tb.build_basis(6, 12)
    spectrum = tb.sample_spectrum(params)
    tensor = tb.sample_two_body(params)
    gammas = []
    for scale in (1.0, np.sqrt(2.0), 2.0):
        h = tb.build_hamiltonian(basis, spectrum, scale * tensor)
        diag = h.diagonal()
        i = int(np.argmin(np.abs(diag - np.median(diag))))
        part = tb.classify(basis, int(basis.states[i]))
        gammas.append(tb.golden_rule_gamma(h, part, i))
    assert gammas[1] / gammas[0] == pytest.approx(2.0, rel=0.15)
    assert gammas[2] / gammas[0] == pytest.approx(4.0, rel=0.15)


def test_fit_bw_recovers_synthetic_width():
    profile = synthetic_profile(breit_wigner(0.5), spacing=0.005)
    fit = strength.fit_bw(profile, gamma0=rms_width(profile))
    assert fit["gamma"] == pytest.approx(0.5, rel=0.05)
    assert fit["center"] == pytest.approx(0.0, abs=0.05)


def test_fit_bw_rejects_single_component():
    s = make_system(3, 6, eta=0.0, seed=1, initial=4)
    profile = strength.strength_function(s.decomp, 4)
    with pytest.raises(PreconditionError):
        strength.fit_bw(profile, gamma0=1.0)


@pytest.mark.parametrize("gamma0", [0.0, -1.0, float("nan"), float("inf")])
def test_fits_refuse_a_start_width_that_is_not_positive_and_finite(fig2, gamma0):
    """Gamma_GR is 0 only without class-1 coupling, and then N_pc < 5 refuses first."""
    for fit in (strength.fit_bw, strength.fit_hybrid):
        with pytest.raises(PreconditionError, match="start width"):
            fit(fig2.profile, gamma0=gamma0)


def test_fit_bw_consistent_with_golden_rule(fig1):
    fit = strength.fit_bw(fig1.profile, gamma0=fig1.gamma)
    assert abs(fit["gamma"] / fig1.gamma - 1) < 0.40


def test_fit_hybrid_recovers_synthetic_parameters():
    profile = synthetic_profile(
        hybrid_shape(1.0, 0.0, 5.8, 10.5), spacing=0.05, half_span=40.0
    )
    fit = strength.fit_hybrid(profile, gamma0=rms_width(profile))
    assert fit["sigma"] == pytest.approx(5.8, rel=0.10)
    assert fit["gamma"] == pytest.approx(10.5, rel=0.10)
    assert abs(fit["e_c"]) < 0.5


def test_fit_hybrid_wide_band_limit_matches_bw():
    """For sigma >> Gamma the hybrid core width agrees with a pure BW fit."""
    profile = synthetic_profile(
        hybrid_shape(1.0, 0.0, 20.0, 0.5), spacing=0.005, half_span=30.0
    )
    bw = strength.fit_bw(profile, gamma0=rms_width(profile))
    hybrid = strength.fit_hybrid(profile, gamma0=rms_width(profile))
    assert hybrid["gamma"] == pytest.approx(bw["gamma"], rel=0.10)


def test_fit_hybrid_normalization_self_consistent(fig2):
    fit = strength.fit_hybrid(fig2.profile, gamma0=fig2.gamma)
    assert fit["b_derived"] == pytest.approx(fit["b_fitted"], rel=0.10)


FIT_CASES = ["bw-shape", "hybrid-shape"] + [
    f"{fig}-seed{seed}" for fig in ("fig1", "fig2") for seed in (1, 2, 3)
]


def _fit_case(case):
    """(profile, Gamma start) of a synthetic shape or a fig1/fig2 realization."""
    if case == "bw-shape":
        return synthetic_profile(breit_wigner(0.5), spacing=0.005), 0.6
    if case == "hybrid-shape":
        return synthetic_profile(hybrid_shape(1.0, 0.0, 5.8, 10.5), spacing=0.05, half_span=40.0), 9.0
    fig, seed = case.split("-seed")
    profile, gamma, _, _ = realization_fit_inputs(
        FIG1_ETA if fig == "fig1" else FIG2_ETA, int(seed)
    )
    return profile, gamma


def _bw_agrees_with_scipy(profile, gamma0) -> bool:
    try:
        fit = strength.fit_bw(profile, gamma0=gamma0)
    except FitConvergenceError:
        return False
    gamma, center = scipy_bw_fit(profile, gamma0)
    return bool(
        np.isclose(fit["gamma"], gamma, rtol=ORACLE_RTOL, atol=0)
        and abs(fit["center"] - center) <= ORACLE_RTOL * (1 + abs(center))
    )


def _hybrid_agrees_with_scipy(profile, gamma0) -> bool:
    try:
        fit = strength.fit_hybrid(profile, gamma0=gamma0)
    except FitConvergenceError:
        return False
    return bool(np.allclose(
        [fit["b_fitted"], fit["sigma"], fit["gamma"]], scipy_hybrid_fit(profile, gamma0),
        rtol=ORACLE_RTOL, atol=0,
    ))


@pytest.mark.parametrize("case", FIT_CASES)
def test_line_shape_fits_match_scipy(case):
    """The Levenberg-Marquardt fits land where scipy's least_squares lands."""
    profile, gamma0 = _fit_case(case)
    assert _bw_agrees_with_scipy(profile, gamma0)
    assert _hybrid_agrees_with_scipy(profile, gamma0)


def test_flipped_jacobian_column_fails_the_oracle(monkeypatch):
    """Mutation check: the oracle comparison catches a Jacobian column with a wrong sign."""
    solve = strength._levenberg_marquardt

    def with_flipped_column(fun, x0, lower, upper):
        def flipped(x):
            r, jac = fun(x)
            jac = jac.copy()
            jac[:, 0] *= -1
            return r, jac

        return solve(flipped, x0, lower, upper)

    profile = synthetic_profile(breit_wigner(0.5), spacing=0.005)
    assert _bw_agrees_with_scipy(profile, 1.0)
    monkeypatch.setattr(strength, "_levenberg_marquardt", with_flipped_column)
    assert not _bw_agrees_with_scipy(profile, 1.0)


def test_fit_hybrid_sigma_meets_the_moment_identity(fig2):
    """The fitted shape's second moment about E_i is the profile's, Delta_E^2."""
    fit = strength.fit_hybrid(fig2.profile, gamma0=fig2.gamma)
    e = np.linspace(fig2.profile.energies[0], fig2.profile.energies[-1], strength.MOMENT_NODES)
    shape = hybrid_shape(1.0, fit["e_c"], fit["sigma"], fit["gamma"], e_i=fig2.profile.e_i)(e)
    moment = np.trapezoid(shape * (e - fig2.profile.e_i) ** 2, e) / np.trapezoid(shape, e)
    assert moment == pytest.approx(fig2.delta_e**2, rel=1e-8)
    assert fit["sigma"] >= fig2.delta_e


def test_fit_hybrid_bisects_where_the_moment_has_no_slope():
    """At eta 1e-10 (fig2 basis, seed 1) Delta_E is 0.01 moment-node spacings: ``fit_hybrid``
    refuses the profile.  Its moment solver, in units of Delta_E on the fit's 2001 trapezoid
    nodes and at the fit's upper Gamma bound (10 spans, which the solver tries on this profile),
    starts at the lower sigma bound 1, where the shape sits on one node and d(m2)/d(log sigma)
    rounds to 0: it bisects there instead of dividing by it (a RuntimeWarning is an error
    in this suite)."""
    profile, gamma, *_ = realization_fit_inputs(1e-10, 1)
    with pytest.raises(PreconditionError, match="moment-node spacings"):
        strength.fit_hybrid(profile, gamma0=gamma)
    x = (profile.energies - profile.e_i) / np.sqrt(profile.second_central_moment())
    span = x[-1] - x[0]
    nodes = np.linspace(x[0], x[-1], strength.MOMENT_NODES)
    weights = np.full(len(nodes), nodes[1] - nodes[0])
    weights[[0, -1]] *= 0.5
    sigma, dlog_sigma, at_bound = strength._moment_sigma(nodes**2, weights, 10 * span,
                                                         (1.0, 10 * span))
    assert np.isfinite(sigma) and sigma >= 1.0 and np.isfinite(dlog_sigma)
    assert not at_bound


def test_fit_hybrid_refuses_a_width_under_the_moment_quadrature():
    """At eta 1e-8 (fig2 basis, seed 1) Delta_E = 0.0021 is 0.12 spacings of the moment
    nodes, under the stated 10: the fit is unavailable with the reason, and sigma falls
    back to Delta_E rather than the quadrature's 0.093."""
    profile, gamma, *_ = realization_fit_inputs(1e-8, 1)
    delta_e = float(np.sqrt(profile.second_central_moment()))
    with pytest.raises(PreconditionError, match="under 10 moment-node spacings"):
        strength.fit_hybrid(profile, gamma0=gamma)
    record = strength.attempt_fit(strength.fit_hybrid, profile, gamma0=gamma)
    assert record["status"] == "unavailable" and "quadrature" in record["reason"]
    assert strength.spreading_params(profile, delta_e, gamma) == delta_e


def test_fit_diagnostics(fig2):
    """Iterations, standard errors and bound flags come with every fit."""
    bw = strength.fit_bw(fig2.profile, gamma0=fig2.gamma)
    hybrid = strength.fit_hybrid(fig2.profile, gamma0=fig2.gamma)
    assert bw["iterations"] > 0 and hybrid["iterations"] > 0
    assert set(bw["stderr"]) == {"gamma", "center"}
    assert set(hybrid["stderr"]) == {"b_fitted", "gamma"}
    assert all(v > 0 for v in [*bw["stderr"].values(), *hybrid["stderr"].values()])
    assert bw["at_bound"] == () and hybrid["at_bound"] == ()


def test_fit_reports_parameter_at_bound():
    """A pure Gaussian drives Gamma to its upper bound, which the fit reports."""
    profile = synthetic_profile(lambda e: np.exp(-e * e / 2), spacing=0.01, half_span=8.0)
    fit = strength.fit_hybrid(profile, gamma0=1.0)
    assert "gamma" in fit["at_bound"]
    assert fit["sigma"] == pytest.approx(1.0, rel=1e-3)


def _fits_in_delta_e(eta, seed, state):
    """Both fit records of basis state ``state`` at n=5, m=10, in units of Delta_E about E_i."""
    params = tb.ModelParams(n=5, m=10, eta=eta, seed=seed)
    basis = tb.build_basis(5, 10)
    h = tb.build_hamiltonian(basis, tb.sample_spectrum(params), tb.sample_two_body(params))
    i = basis.position(state)
    profile = strength.strength_function(tb.diagonalize(h), i)
    gamma = tb.golden_rule_gamma(h, tb.classify(basis, state), i)
    delta_e = np.sqrt(profile.second_central_moment())
    bw, hybrid = (fit(profile, gamma0=gamma) for fit in (strength.fit_bw, strength.fit_hybrid))
    return {"bw gamma": bw["gamma"] / delta_e, "bw center": (bw["center"] - profile.e_i) / delta_e,
            "hybrid gamma": hybrid["gamma"] / delta_e, "sigma": hybrid["sigma"] / delta_e,
            "b_fitted": hybrid["b_fitted"] / delta_e}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_records_scale_with_delta_e(seed):
    """H / sqrt(eta) tends to one matrix at large eta, and both line shapes are fitted in units
    of Delta_E about E_i: at n=5, m=10, Gamma/Delta_E, (centre - E_i)/Delta_E, sigma/Delta_E
    and B/Delta_E read the same at eta 1e20, 1e100 and 1e300, to 1e-9 relative.  The state is
    fixed by its bitmask, since "mid-spectrum" picks different states across eta.  From 1e60
    on they agree to ~5e-14; at 1e20 the ladder still moves H / sqrt(eta) by ~1e-10, which
    this state's fits read as up to 2.2e-10 (other states, up to 7e-9)."""
    reference = _fits_in_delta_e(1e300, seed, 0b1011001100)
    for eta in (1e20, 1e100):
        assert _fits_in_delta_e(eta, seed, 0b1011001100) == pytest.approx(reference, rel=1e-9,
                                                                          abs=0), eta


def test_compound_occupations_free_case():
    s = make_system(3, 6, eta=0.0, seed=3)
    for k in (0, 7, 19):
        occ = compound_occupations(s.decomp, s.basis, k)
        bits = [(int(s.basis.states[k]) >> a) & 1 for a in range(6)]
        assert np.allclose(occ, bits, atol=1e-12)


def test_compound_occupations_conserve_particle_number(fig2):
    rng = np.random.default_rng(5)
    for k in rng.choice(fig2.basis.size, size=10, replace=False):
        occ = compound_occupations(fig2.decomp, fig2.basis, int(k))
        assert occ.sum() == pytest.approx(6.0, abs=1e-10)


def test_compound_occupations_mid_spectrum_plateau(fig2):
    k = fig2.basis.size // 2
    occ = compound_occupations(fig2.decomp, fig2.basis, k)
    assert np.all(np.abs(occ - 0.5) < 0.1)


def test_profile_csv_round_trip(tmp_path, fig1):
    path = tmp_path / "strength.csv"
    tb.strength.write_profile_csv(fig1.profile, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 924
    weights = np.array([float(r["w_k"]) for r in rows])
    energies = np.array([float(r["E_k"]) for r in rows])
    assert np.array_equal(weights, fig1.profile.weights)
    assert np.array_equal(energies, fig1.profile.energies)
