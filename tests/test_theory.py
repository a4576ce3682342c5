"""Interpolation prediction, model survival curves, envelope N_pc, FD fit."""

from __future__ import annotations

import math

import numpy as np
import pytest

import tbrisim as tb
from scipy.optimize import brentq
from tbrisim import theory
from tbrisim.exceptions import ParameterError, PreconditionError
from tbrisim.strength import StrengthProfile

from conftest import FIG1_ETA, FIG2_ETA, percentile_occupations, realization_fit_inputs
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
    return StrengthProfile(energies=energies, weights=weights, e_i=float(weights @ energies))


def test_n_pc_envelope_of_flat_weights_is_n():
    """The kernel mean of a constant is that constant, so 1/N everywhere gives N."""
    n = 300
    profile = _ladder_profile(np.full(n, 1.0 / n))
    assert theory.n_pc_envelope(profile) == pytest.approx(n, rel=1e-12)


def test_n_pc_envelope_carries_porter_thomas_factor():
    """Gaussian envelope times chi^2_1 draws: sum w^2 is about 3/N_env, not 1/N_env."""
    n = 924
    rng = np.random.default_rng(0)
    levels = np.arange(n) - (n - 1) / 2
    weights = np.exp(-0.5 * (levels / (n / 12)) ** 2) * rng.standard_normal(n) ** 2
    weights /= weights.sum()
    ratio = (weights @ weights) * theory.n_pc_envelope(_ladder_profile(weights)) / 3.0
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
    assert theory.n_pc_envelope(fig2.profile) == pytest.approx(expected, rel=1e-12)


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
    first = theory.ThermalizationPrediction(grid=tb.TimeGrid(pred.grid.points[:1]),
                                        occupations=pred.occupations[:, :1])
    assert tb.prediction_error(s.trajectory.occupations[:, :1], first) == (
        float(np.sqrt(np.mean(diff[:, 0] ** 2))), float(np.abs(diff[:, 0]).max()),
        float(np.sqrt(np.mean(diff[:, 0] ** 2))))


def test_fermi_dirac_recovers_synthetic_parameters():
    eps = np.arange(12.0)
    beta_true, alpha_true = 0.5, 2.75
    ninf = 1.0 / (np.exp(beta_true * eps - alpha_true) + 1.0)
    fit = theory.fit_fermi_dirac(ninf, eps, n=6)
    assert fit["beta"] == pytest.approx(beta_true, rel=0.01)
    assert fit["alpha"] == pytest.approx(alpha_true, rel=0.01)
    assert fit["residual"] < 1e-8


def test_fermi_dirac_constraint_holds():
    eps = np.arange(12.0)
    rng = np.random.default_rng(1)
    ninf = np.clip(0.5 + 0.2 * rng.standard_normal(12), 0.05, 0.95)
    ninf *= 6.0 / ninf.sum()
    fit = theory.fit_fermi_dirac(ninf, eps, n=6)
    filled = 1.0 / (np.exp(fit["beta"] * eps - fit["alpha"]) + 1.0)
    assert filled.sum() == pytest.approx(6.0, abs=1e-8)


def test_fermi_dirac_uniform_is_infinite_temperature():
    """n/m on every level is the interior point beta = 0, alpha = ln(n / (m - n))."""
    eps = np.arange(12.0)
    for n in (6, 3):
        fit = theory.fit_fermi_dirac(np.full(12, n / 12), eps, n=n)
        assert set(fit) == {"beta", "alpha", "residual", "at_bound"}
        assert abs(fit["beta"]) <= 1e-12   # |beta| d0, with d0 = 1
        assert fit["alpha"] == pytest.approx(math.log(n / (12 - n)), abs=1e-12)
        assert fit["residual"] == 0.0
        assert fit["at_bound"] == ()


def test_fermi_dirac_step_function_is_cold():
    eps = np.arange(12.0)
    ninf = np.array([1.0] * 6 + [0.0] * 6)
    fit = theory.fit_fermi_dirac(ninf, eps, n=6)
    assert fit["beta"] > 20
    assert fit["residual"] < 1e-6


def test_fermi_dirac_flags_a_temperature_at_the_scan_edge():
    """A step ends at beta = +1e3 / d0, the top of the scan; fig1 seed 2, whose
    occupations rise with eps, and fig2 seed 1 end inside it, fig1 seed 2 at beta < 0."""
    eps = np.arange(12.0)
    step = theory.fit_fermi_dirac(np.array([1.0] * 6 + [0.0] * 6), eps, n=6)
    assert step["beta"] == pytest.approx(1e3, rel=1e-12)
    assert step["at_bound"] == ("beta",)
    for eta, seed, sign in ((FIG1_ETA, 2, -1), (FIG2_ETA, 1, 1)):
        _, _, ninf, spectrum = realization_fit_inputs(eta, seed)
        fit = theory.fit_fermi_dirac(ninf, spectrum, n=6)
        assert fit["at_bound"] == () and np.sign(fit["beta"]) == sign, (eta, seed, fit)
    assert theory.fit_fermi_dirac(np.full(12, 0.5), eps, n=6)["at_bound"] == ()


def test_fermi_dirac_flags_a_misfit_flat_to_the_scan_edge():
    """A reversed step fits to rounding at every beta below ~ -700 / d0, down to the scan's
    lower end -1e3 / d0.

    Where every level is frozen the slope is flat, so the bisection stops two
    scan steps above that end, and the distance rule alone leaves beta
    unflagged; the flat misfit flags it.
    """
    eps = np.arange(12.0)
    fit = theory.fit_fermi_dirac(np.array([0.0] * 6 + [1.0] * 6), eps, n=6)
    one_step = 10 ** (9 / 119)   # ratio of adjacent |beta| in the scan
    assert -1e3 / one_step < fit["beta"] < -1e2
    assert fit["residual"] < 1e-100
    assert fit["at_bound"] == ("beta",)


def test_fermi_dirac_rejects_length_mismatch():
    eps = np.arange(12.0)
    with pytest.raises(ParameterError):
        theory.fit_fermi_dirac(np.full(6, 0.5), eps, n=6)


def test_fermi_dirac_rejects_out_of_range():
    eps = np.arange(12.0)
    for value in (1.2, np.nan):
        bad = np.full(12, 0.5)
        bad[0] = value
        with pytest.raises(PreconditionError):
            theory.fit_fermi_dirac(bad, eps, n=6)


def test_fermi_dirac_rejects_equal_energies():
    """Equal orbital energies have no level spacing to scale beta by."""
    with pytest.raises(PreconditionError):
        theory.fit_fermi_dirac(np.full(12, 0.5), np.full(12, 2.0), n=6)


@pytest.mark.parametrize("case", ["noisy", "fig2-seed1"])
def test_fermi_dirac_does_not_depend_on_the_order_of_the_levels(case):
    """Permuting (occupations, energies) together, or reversing both, gives the same record."""
    ninf, eps = _fermi_dirac_case(case)
    fit = theory.fit_fermi_dirac(ninf, eps, n=6)
    for order in (np.random.default_rng(0).permutation(12), np.arange(12)[::-1]):
        other = theory.fit_fermi_dirac(ninf[order], eps[order], n=6)
        assert other["beta"] == pytest.approx(fit["beta"], rel=1e-12)
        assert other["alpha"] == pytest.approx(fit["alpha"], rel=1e-12)
        assert other["residual"] == pytest.approx(fit["residual"], rel=1e-12)
        assert other["at_bound"] == fit["at_bound"]


@pytest.mark.parametrize("eta", [FIG1_ETA, FIG2_ETA], ids=["fig1", "fig2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_fermi_dirac_fits_occupations_rising_with_energy(eta, seed):
    """States at the 75th and 90th percentile of the diagonal energies relax to
    occupations that rise with eps: beta < 0, inside the scan.

    The ladder is symmetric at jitter 0, so the profile mirrored in eps is
    the same fit at -beta with the same misfit.
    """
    occupations, spectrum = percentile_occupations(eta, seed, (75, 90))
    for ninf in occupations:
        fit = theory.fit_fermi_dirac(ninf, spectrum, n=6)
        mirrored = theory.fit_fermi_dirac(ninf[::-1], spectrum, n=6)
        assert fit["beta"] < 0 and fit["at_bound"] == ()
        assert mirrored["beta"] == pytest.approx(-fit["beta"], rel=1e-9)
        assert abs(mirrored["residual"] - fit["residual"]) <= 1e-15
        assert mirrored["at_bound"] == ()


def test_alpha_for_filling_matches_brentq():
    """One vectorized solve gives alpha at every beta of either sign, beta = 0 included."""
    eps = np.array([0.0, 0.3, 1.1, 1.2, 2.0, 3.5, 3.6, 5.0])
    steps = np.geomspace(1e-6, 1e3, 12)
    betas = np.concatenate((-steps[::-1], [0.0], steps))
    alphas = theory._alpha_for_filling(eps, betas, 3)
    assert alphas[len(steps)] == math.log(3 / 5)
    for beta, alpha in zip(betas, alphas):
        def excess(x):
            return theory._fermi_dirac(eps, x, beta).sum() - 3

        assert abs(excess(alpha)) <= 1e-12
        filled = theory._fermi_dirac(eps, alpha, beta)
        if (filled * (1 - filled)).sum() > 1e-6:   # else S is flat: alpha not unique
            span = beta * eps
            expected = brentq(excess, span.min() - 10, span.max() + 10, xtol=1e-14)
            assert alpha == pytest.approx(expected, abs=1e-9 * (1 + abs(beta)))


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
    """Same minimum as brentq + bounded Brent: a misfit no larger, beta within the flatness.

    Near its minimum the misfit is flat to rounding over ~1e-7 relative in
    beta, so Brent's beta is only that good; the misfit values are compared
    tightly.  alpha = mu beta carries beta's error, and mu = alpha / beta
    hardly depends on beta, so mu is compared tightly.  fig1 seeds 2 and 3
    have their minimum at beta < 0.
    """
    ninf, spectrum = _fermi_dirac_case(case)
    fit = theory.fit_fermi_dirac(ninf, spectrum, n=6)
    beta, alpha, residual = scipy_fermi_dirac(ninf, spectrum, 6)
    assert fit["residual"] <= residual + 1e-14
    assert fit["beta"] == pytest.approx(beta, rel=1e-5)
    assert fit["alpha"] == pytest.approx(alpha, rel=1e-5)
    assert fit["alpha"] / fit["beta"] == pytest.approx(alpha / beta, abs=1e-8)


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
