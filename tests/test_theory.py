"""Interpolation prediction, model survival curves, envelope N_pc, FD fit."""

from __future__ import annotations

import math

import numpy as np
import pytest

import tbrisim as tb
from scipy.optimize import brentq
from tbrisim import theory
from tbrisim.exceptions import ParameterError, PreconditionError

from conftest import FIG1_ETA, FIG2_ETA, realization_fit_inputs
from oracles import kernel_density, scipy_fermi_dirac, smoothed_weight_density


def test_prediction_frozen_when_w0_is_one():
    n0 = np.array([1.0, 0.0, 1.0])
    ninf = np.array([0.5, 0.5, 0.5])
    pred = tb.predict_occupations(n0, ninf, np.ones(4), np.arange(4.0))
    assert np.allclose(pred.occupations, n0[:, None])


def test_prediction_thermal_when_w0_is_zero():
    n0 = np.array([1.0, 0.0])
    ninf = np.array([0.6, 0.4])
    pred = tb.predict_occupations(n0, ninf, np.zeros(3), np.arange(3.0))
    assert np.allclose(pred.occupations, ninf[:, None])


def test_prediction_direct_arithmetic():
    pred = tb.predict_occupations(np.array([1.0]), np.array([0.5]), np.array([0.4]), [2.0])
    assert pred.occupations[0, 0] == pytest.approx(0.7, abs=1e-15)


def test_prediction_conserves_particle_number():
    rng = np.random.default_rng(0)
    n0 = (rng.random(12) < 0.5).astype(float)
    total = n0.sum()
    ninf = np.full(12, total / 12)
    w0 = rng.random(50)
    pred = tb.predict_occupations(n0, ninf, w0, np.arange(50.0))
    assert np.abs(pred.occupations.sum(axis=0) - total).max() < 1e-12


def test_prediction_rejects_mismatched_lengths():
    with pytest.raises(ParameterError):
        tb.predict_occupations(np.ones(3), np.ones(4), np.ones(5), np.arange(5.0))
    with pytest.raises(ParameterError, match="grid"):
        tb.predict_occupations(np.ones(3), np.ones(3), np.ones(5), np.arange(4.0))


def test_survival_models_at_zero():
    """At t = 0 both curves are 1; a zero width gives the constant curve 1."""
    breit_wigner, gaussian = tb.survival_models(0.5, 1.2, np.array([0.0, 2.0]))
    assert breit_wigner[0] == 1.0
    assert gaussian[0] == 1.0
    assert breit_wigner[1] == pytest.approx(math.exp(-1.0))
    for frozen in tb.survival_models(0.0, 0.0, np.array([0.0, 2.0, 1e6])):
        assert np.array_equal(frozen, np.ones(3))


def test_survival_models_require_positive_widths():
    """A negative or NaN width is refused; a zero width is not (see above)."""
    for gamma, delta_e in [(-0.1, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.nan)]:
        with pytest.raises(ParameterError):
            tb.survival_models(gamma, delta_e, np.array([0.0]))


def _ladder_profile(weights):
    """Profile on unit-spaced levels 0..N-1."""
    energies = np.arange(len(weights), dtype=float)
    return tb.StrengthProfile(energies=energies, weights=weights, e_i=float(weights @ energies))


def test_n_pc_envelope_of_flat_weights_is_n():
    """The kernel mean of a constant is that constant, so 1/N everywhere gives N."""
    n = 300
    profile = _ladder_profile(np.full(n, 1.0 / n))
    assert tb.n_pc_envelope(profile) == pytest.approx(n, rel=1e-12)


def test_n_pc_envelope_carries_porter_thomas_factor():
    """Gaussian envelope times chi^2_1 draws: sum w^2 is about 3/N_env, not 1/N_env."""
    n = 924
    rng = np.random.default_rng(0)
    levels = np.arange(n) - (n - 1) / 2
    weights = np.exp(-0.5 * (levels / (n / 12)) ** 2) * rng.standard_normal(n) ** 2
    weights /= weights.sum()
    ratio = (weights @ weights) * tb.n_pc_envelope(_ladder_profile(weights)) / 3.0
    assert 0.5 <= ratio <= 2.0


def test_n_pc_envelope_matches_density_ratio(fig2):
    """One kernel per block equals the smoothed weight density over the level density, both
    at a bandwidth of three mean level spacings."""
    energies = fig2.profile.energies
    bandwidth = 3.0 * np.diff(energies).mean()
    envelope = smoothed_weight_density(fig2.profile, energies, bandwidth) / kernel_density(
        energies, energies, bandwidth
    )
    expected = 1.0 / (envelope @ envelope)
    assert tb.n_pc_envelope(fig2.profile) == pytest.approx(expected, rel=1e-12)


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


def test_deviation_gives_the_prediction_error_and_the_per_point_rms(fig2):
    """One difference serves the time-weighted RMS, the max and the plain RMS over all points."""
    s = fig2
    pred = tb.predict_occupations(s.trajectory.occupations[:, 0], s.n_inf, s.trajectory.w0, s.grid)
    diff = s.trajectory.occupations - pred.occupations
    rms, worst, per_point = tb.prediction_error(s.trajectory.occupations, pred)
    assert worst == float(np.abs(diff).max())
    assert per_point == float(np.sqrt(np.mean(diff**2))) != rms
    first = tb.ThermalizationPrediction(grid=tb.TimeGrid(pred.grid.points[:1]),
                                        occupations=pred.occupations[:, :1])
    assert tb.prediction_error(s.trajectory.occupations[:, :1], first) == (
        float(np.sqrt(np.mean(diff[:, 0] ** 2))), float(np.abs(diff[:, 0]).max()),
        float(np.sqrt(np.mean(diff[:, 0] ** 2))))


def test_fermi_dirac_recovers_synthetic_parameters():
    eps = np.arange(12.0)
    t_true, mu_true = 2.0, 5.5
    ninf = 1.0 / (np.exp((eps - mu_true) / t_true) + 1.0)
    fit = tb.fit_fermi_dirac(ninf, eps, n=6)
    assert not fit["infinite_temperature"]
    assert fit["temperature"] == pytest.approx(t_true, rel=0.01)
    assert fit["mu"] == pytest.approx(mu_true, rel=0.01)
    assert fit["residual"] < 1e-8


def test_fermi_dirac_constraint_holds():
    eps = np.arange(12.0)
    rng = np.random.default_rng(1)
    ninf = np.clip(0.5 + 0.2 * rng.standard_normal(12), 0.05, 0.95)
    ninf *= 6.0 / ninf.sum()
    fit = tb.fit_fermi_dirac(ninf, eps, n=6)
    filled = 1.0 / (np.exp((eps - fit["mu"]) / fit["temperature"]) + 1.0)
    assert filled.sum() == pytest.approx(6.0, abs=1e-8)


def test_fermi_dirac_uniform_is_infinite_temperature():
    eps = np.arange(12.0)
    fit = tb.fit_fermi_dirac(np.full(12, 0.5), eps, n=6)
    assert fit["infinite_temperature"]
    assert fit["temperature"] == "inf"
    assert fit["mu"] is None


def test_fermi_dirac_step_function_is_cold():
    eps = np.arange(12.0)
    ninf = np.array([1.0] * 6 + [0.0] * 6)
    fit = tb.fit_fermi_dirac(ninf, eps, n=6)
    assert fit["temperature"] < 0.05
    assert fit["residual"] < 1e-6


def test_fermi_dirac_flags_a_temperature_at_the_scan_edge():
    """fig1 seed 2 ends at T = 1e6 d0, the top of the scan; fig2 seed 1 inside it."""
    for eta, seed, expected in ((FIG1_ETA, 2, ("temperature",)), (FIG2_ETA, 1, ())):
        _, _, ninf, spectrum = realization_fit_inputs(eta, seed)
        fit = tb.fit_fermi_dirac(ninf, spectrum, n=6)
        assert fit["at_bound"] == expected, (eta, seed, fit["temperature"])
    eps = np.arange(12.0)
    assert tb.fit_fermi_dirac(np.full(12, 0.5), eps, n=6)["at_bound"] == ()


def test_fermi_dirac_flags_a_misfit_flat_to_the_scan_edge():
    """A step fits to rounding at every T below ~0.05 d0, down to the scan's lower end.

    The slope bisection stops two scan steps above that end, so the distance
    rule alone leaves the temperature unflagged; the flat misfit flags it.
    """
    eps = np.arange(12.0)
    fit = tb.fit_fermi_dirac(np.array([1.0] * 6 + [0.0] * 6), eps, n=6)
    assert fit["residual"] < 1e-100
    assert fit["at_bound"] == ("temperature",)


def test_fermi_dirac_rejects_length_mismatch():
    eps = np.arange(12.0)
    with pytest.raises(ParameterError):
        tb.fit_fermi_dirac(np.full(6, 0.5), eps, n=6)


def test_fermi_dirac_rejects_out_of_range():
    eps = np.arange(12.0)
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
    eps = np.arange(12.0)
    if case == "thermal":
        return 1.0 / (np.exp((eps - 5.5) / 2.0) + 1.0), eps
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
    temperature, mu, residual = scipy_fermi_dirac(ninf, spectrum, 6)
    assert fit["residual"] <= residual + 1e-14
    assert fit["temperature"] == pytest.approx(temperature, rel=1e-5)
    assert fit["mu"] == pytest.approx(mu, abs=1e-8)


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
