"""Interpolation prediction, model survival curves, smoothed overlap, FD fit."""

from __future__ import annotations

import math

import numpy as np
import pytest

import tbrisim as tb
from scipy.optimize import brentq
from tbrisim import theory
from tbrisim.exceptions import ParameterError, PreconditionError

from conftest import FIG1_ETA, FIG2_ETA, realization_fit_inputs
from oracles import scipy_fermi_dirac


def test_prediction_frozen_when_w0_is_one():
    n0 = np.array([1.0, 0.0, 1.0])
    ninf = np.array([0.5, 0.5, 0.5])
    pred = tb.predict_occupations(n0, ninf, np.ones(4))
    assert np.allclose(pred.occupations, n0[:, None])


def test_prediction_thermal_when_w0_is_zero():
    n0 = np.array([1.0, 0.0])
    ninf = np.array([0.6, 0.4])
    pred = tb.predict_occupations(n0, ninf, np.zeros(3))
    assert np.allclose(pred.occupations, ninf[:, None])


def test_prediction_direct_arithmetic():
    pred = tb.predict_occupations(np.array([1.0]), np.array([0.5]), np.array([0.4]))
    assert pred.occupations[0, 0] == pytest.approx(0.7, abs=1e-15)


def test_prediction_conserves_particle_number():
    rng = np.random.default_rng(0)
    n0 = (rng.random(12) < 0.5).astype(float)
    total = n0.sum()
    ninf = np.full(12, total / 12)
    w0 = rng.random(50)
    pred = tb.predict_occupations(n0, ninf, w0)
    assert np.abs(pred.occupations.sum(axis=0) - total).max() < 1e-12


def test_prediction_rejects_mismatched_lengths():
    with pytest.raises(ParameterError):
        tb.predict_occupations(np.ones(3), np.ones(4), np.ones(5))


def test_survival_models_at_zero():
    params = tb.SpreadingParams(
        gamma_gr=0.5, delta_e=1.2, sigma=1.2, e_c=0.0, n_pc_ratio=30.0, n_pc_ipr=30.0
    )
    curves = tb.survival_models(params, 30.0, np.array([0.0, 2.0]))
    assert curves.breit_wigner[0] == 1.0
    assert curves.gaussian[0] == 1.0
    assert curves.breit_wigner[1] == pytest.approx(math.exp(-1.0))
    assert curves.saturation == pytest.approx(0.1)


def test_survival_models_require_positive_widths():
    params = tb.SpreadingParams(
        gamma_gr=0.0, delta_e=1.0, sigma=1.0, e_c=0.0, n_pc_ratio=1.0, n_pc_ipr=1.0
    )
    with pytest.raises(ParameterError):
        tb.survival_models(params, 10.0, np.array([0.0]))


def _ladder_profile(weights):
    """Profile on unit-spaced levels 0..N-1 with the spectral stats of that ladder."""
    energies = np.arange(len(weights), dtype=float)
    profile = tb.StrengthProfile(i=0, energies=energies, weights=weights, e_i=float(weights @ energies))
    stats = tb.spectral_stats(tb.EigenDecomposition(energies=energies, vectors=np.eye(len(energies))))
    return profile, stats


def test_n_pc_envelope_of_flat_weights_is_n():
    """The kernel mean of a constant is that constant, so 1/N everywhere gives N."""
    n = 300
    profile, stats = _ladder_profile(np.full(n, 1.0 / n))
    assert tb.n_pc_envelope(profile, stats) == pytest.approx(n, rel=1e-12)


def test_n_pc_envelope_carries_porter_thomas_factor():
    """Gaussian envelope times chi^2_1 draws: sum w^2 is about 3/N_env, not 1/N_env."""
    n = 924
    rng = np.random.default_rng(0)
    levels = np.arange(n) - (n - 1) / 2
    weights = np.exp(-0.5 * (levels / (n / 12)) ** 2) * rng.standard_normal(n) ** 2
    weights /= weights.sum()
    profile, stats = _ladder_profile(weights)
    ratio = (weights @ weights) * tb.n_pc_envelope(profile, stats) / 3.0
    assert 0.5 <= ratio <= 2.0


def test_n_pc_envelope_matches_density_ratio(fig2):
    """One kernel per block equals the smoothed weight density over rho."""
    energies = fig2.profile.energies
    envelope = tb.theory._smoothed_weight_density(
        fig2.profile, energies, fig2.stats.bandwidth
    ) / fig2.stats.rho(energies)
    expected = 1.0 / (envelope @ envelope)
    assert tb.n_pc_envelope(fig2.profile, fig2.stats) == pytest.approx(expected, rel=1e-12)


def test_gaussian_model_tracks_exact_survival(fig2):
    """In the strong-coupling regime exp(-Delta^2 t^2) follows W0 closely."""
    w0 = fig2.trajectory.w0
    t = fig2.trajectory.grid.points
    model = np.exp(-(fig2.delta_e**2) * t * t)
    sel = w0 >= 0.1
    assert np.abs(model[sel] - w0[sel]).max() <= 0.05


def test_prediction_error_smaller_in_strong_coupling(fig1, fig2):
    """Monotonic strong-coupling relaxation beats the oscillatory weak regime."""
    errors = {}
    for name, s in (("weak", fig1), ("strong", fig2)):
        pred = tb.predict_occupations(
            s.trajectory.occupations[:, 0], s.n_inf, s.trajectory.w0, s.grid
        )
        errors[name] = tb.prediction_error(s.trajectory.occupations, pred)
    assert errors["strong"][0] < errors["weak"][0]
    assert errors["strong"][1] < errors["weak"][1]


def _synthetic_bw_system(gamma=0.5, spacing=0.02, half_span=25.0):
    """Fabricated decomposition where every row q is a BW profile centered at E_q."""
    energies = np.arange(-half_span, half_span + spacing / 2, spacing)
    detuning = energies[:, None] - energies[None, :]
    w = (gamma / (2 * np.pi)) / (detuning**2 + gamma**2 / 4)
    w /= w.sum(axis=1, keepdims=True)
    decomp = tb.EigenDecomposition(energies=energies, vectors=np.sqrt(w))
    center = len(energies) // 2
    profile = tb.StrengthProfile(
        i=center,
        energies=energies,
        weights=w[center],
        e_i=float(w[center] @ energies),
    )
    stats = tb.spectral_stats(decomp)
    return decomp, profile, stats, spacing, center


def test_convolution_matches_analytic_lorentzian():
    """Same-center BW profiles: the overlap equals D * L_{2 Gamma}(0) = D/(pi Gamma)."""
    gamma = 0.5
    decomp, profile, stats, spacing, center = _synthetic_bw_system(gamma=gamma)
    value = tb.convolve_strength(profile, decomp, stats, q=center, nodes=2001)
    analytic = spacing / (np.pi * gamma)
    assert value == pytest.approx(analytic, rel=0.05)


def test_convolution_peaks_at_zero_detuning():
    decomp, profile, stats, _, center = _synthetic_bw_system(spacing=0.05)
    at_center = tb.convolve_strength(profile, decomp, stats, q=center, nodes=801)
    n = len(decomp.energies)
    rng = np.random.default_rng(4)
    for q in rng.choice(n, size=8, replace=False):
        assert at_center >= tb.convolve_strength(profile, decomp, stats, int(q), nodes=801)


def test_convolution_completeness_on_realization(fig2):
    """Sum over q of the smoothed overlap approximates sum_q S_q^(d) = 1."""
    smoothed = tb.convolve_strength_map(fig2.profile, fig2.decomp, fig2.stats)
    assert smoothed.sum() == pytest.approx(1.0, rel=0.05)
    rng = np.random.default_rng(9)
    for q in rng.choice(fig2.basis.size, size=4, replace=False):
        single = tb.convolve_strength(fig2.profile, fig2.decomp, fig2.stats, int(q))
        assert single == pytest.approx(smoothed[int(q)], rel=1e-6)


def test_convolution_rejects_sparse_quadrature(fig2):
    with pytest.raises(ParameterError):
        tb.convolve_strength(fig2.profile, fig2.decomp, fig2.stats, 0, nodes=50)


def test_fermi_dirac_recovers_synthetic_parameters():
    eps = tb.SingleParticleSpectrum(epsilon=np.arange(12.0))
    t_true, mu_true = 2.0, 5.5
    ninf = 1.0 / (np.exp((eps.epsilon - mu_true) / t_true) + 1.0)
    fit = tb.fit_fermi_dirac(ninf, eps, n=6)
    assert not fit.infinite_temperature
    assert fit.temperature == pytest.approx(t_true, rel=0.01)
    assert fit.mu == pytest.approx(mu_true, rel=0.01)
    assert fit.residual < 1e-8


def test_fermi_dirac_constraint_holds():
    eps = tb.SingleParticleSpectrum(epsilon=np.arange(12.0))
    rng = np.random.default_rng(1)
    ninf = np.clip(0.5 + 0.2 * rng.standard_normal(12), 0.05, 0.95)
    ninf *= 6.0 / ninf.sum()
    fit = tb.fit_fermi_dirac(ninf, eps, n=6)
    filled = 1.0 / (np.exp((eps.epsilon - fit.mu) / fit.temperature) + 1.0)
    assert filled.sum() == pytest.approx(6.0, abs=1e-8)


def test_fermi_dirac_uniform_is_infinite_temperature():
    eps = tb.SingleParticleSpectrum(epsilon=np.arange(12.0))
    fit = tb.fit_fermi_dirac(np.full(12, 0.5), eps, n=6)
    assert fit.infinite_temperature
    assert fit.temperature == math.inf
    assert math.isnan(fit.mu)


def test_fermi_dirac_step_function_is_cold():
    eps = tb.SingleParticleSpectrum(epsilon=np.arange(12.0))
    ninf = np.array([1.0] * 6 + [0.0] * 6)
    fit = tb.fit_fermi_dirac(ninf, eps, n=6)
    assert fit.temperature < 0.05
    assert fit.residual < 1e-6


def test_fermi_dirac_flags_a_temperature_at_the_scan_edge():
    """fig1 seed 2 ends at T = 1e6 d0, the top of the scan; fig2 seed 1 inside it."""
    for eta, seed, expected in ((FIG1_ETA, 2, ("temperature",)), (FIG2_ETA, 1, ())):
        _, _, ninf, spectrum = realization_fit_inputs(eta, seed)
        fit = tb.fit_fermi_dirac(ninf, spectrum, n=6)
        assert fit.at_bound == expected, (eta, seed, fit.temperature)
    eps = tb.SingleParticleSpectrum(epsilon=np.arange(12.0))
    assert tb.fit_fermi_dirac(np.full(12, 0.5), eps, n=6).at_bound == ()


def test_fermi_dirac_rejects_length_mismatch():
    eps = tb.SingleParticleSpectrum(epsilon=np.arange(12.0))
    with pytest.raises(ParameterError):
        tb.fit_fermi_dirac(np.full(6, 0.5), eps, n=6)


def test_fermi_dirac_rejects_out_of_range():
    eps = tb.SingleParticleSpectrum(epsilon=np.arange(12.0))
    bad = np.full(12, 0.5)
    bad[0] = 1.2
    with pytest.raises(PreconditionError):
        tb.fit_fermi_dirac(bad, eps, n=6)


def test_mu_for_filling_matches_brentq():
    """One vectorized solve gives every temperature's chemical potential."""
    eps = np.array([0.0, 0.3, 1.1, 1.2, 2.0, 3.5, 3.6, 5.0])
    temperatures = np.geomspace(1e-3, 1e6, 25)
    mus = theory._mu_for_filling(eps, temperatures, 3)
    for temperature, mu in zip(temperatures, mus):
        def excess(x):
            return theory._fermi_dirac(eps, x, temperature).sum() - 3

        assert abs(excess(mu)) <= 1e-12
        filled = theory._fermi_dirac(eps, mu, temperature)
        if (filled * (1 - filled)).sum() / temperature > 1e-6:   # else S is flat: mu not unique
            expected = brentq(excess, -100 * temperature - 10, 100 * temperature + 10, xtol=1e-14)
            assert mu == pytest.approx(expected, abs=1e-9 * (1 + temperature))


def _fermi_dirac_case(case):
    """(occupations, spectrum) of a synthetic profile or of fig1/fig2 seeds 1-3."""
    eps = tb.SingleParticleSpectrum(epsilon=np.arange(12.0))
    if case == "thermal":
        return 1.0 / (np.exp((eps.epsilon - 5.5) / 2.0) + 1.0), eps
    if case == "noisy":
        rng = np.random.default_rng(1)
        ninf = np.clip(0.5 + 0.2 * rng.standard_normal(12), 0.05, 0.95)
        return ninf * 6.0 / ninf.sum(), eps
    fig, seed = case.split("-seed")
    _, _, n_inf, spectrum = realization_fit_inputs(
        FIG1_ETA if fig == "fig1" else FIG2_ETA, int(seed)
    )
    return n_inf, spectrum


@pytest.mark.parametrize(
    "case",
    ["thermal", "noisy"] + [f"{fig}-seed{seed}" for fig in ("fig1", "fig2") for seed in (1, 2, 3)],
)
def test_fermi_dirac_matches_scipy(case):
    """Same minimum as brentq + bounded Brent: a misfit no larger, T within the flatness.

    Near its minimum the misfit is flat to rounding over ~1e-7 relative in T,
    so Brent's T is only that good; the misfit values are compared tightly.
    """
    ninf, spectrum = _fermi_dirac_case(case)
    fit = tb.fit_fermi_dirac(ninf, spectrum, n=6)
    temperature, mu, residual = scipy_fermi_dirac(ninf, spectrum.epsilon, 6)
    assert fit.residual <= residual + 1e-14
    assert fit.temperature == pytest.approx(temperature, rel=1e-5)
    assert fit.mu == pytest.approx(mu, abs=1e-8)


def test_prediction_csv_provenance(tmp_path, small_3_6):
    pred = tb.predict_occupations(
        small_3_6.trajectory.occupations[:, 0],
        small_3_6.n_inf,
        small_3_6.trajectory.w0,
        small_3_6.grid,
    )
    path = tmp_path / "prediction.csv"
    tb.theory.write_prediction_csv(pred, path, header_lines=["seed=5"])
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].endswith("provenance")
    assert lines[1].endswith("eq14-exactW0")
    assert len(lines) - 1 == len(small_3_6.grid)
