"""Analytic predictors overlaid against the exact dynamics.

The central relation is the two-reservoir interpolation

    n_alpha(t) = n_alpha(0) * W0(t) + n_alpha(inf) * (1 - W0(t)),

which assumes every escape from the initial state lands in the already
thermalized remainder.  Model survival curves (exponential, Gaussian,
saturation floor), the smoothed strength-function overlap, and a
Fermi-Dirac fit of the asymptotic occupations complete the comparison
toolkit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid, _times
from .exceptions import ParameterError, PreconditionError
from .hamiltonian import SingleParticleSpectrum
from .spectral import EigenDecomposition, SpectralStats
from .strength import SpreadingParams, StrengthProfile, strength_function

UNIFORM_TOL = 1e-9
ENVELOPE_BLOCK = 256
MU_MAX_STEPS = 200       # bisection alone reaches adjacent floats in ~55 steps at m=12


@dataclass(frozen=True)
class ThermalizationPrediction:
    """Predicted occupations on a grid, tagged with the W0 source used."""

    grid: TimeGrid
    occupations: np.ndarray     # (m, T)
    source_w0: str              # "exact" | "model-bw" | "model-gaussian"


@dataclass(frozen=True)
class SurvivalModelCurves:
    """Model W0 curves: exponential, Gaussian and the saturation floor."""

    breit_wigner: np.ndarray
    gaussian: np.ndarray
    saturation: float


@dataclass(frozen=True)
class FermiDiracFit:
    """Temperature/chemical-potential fit of an occupation profile.

    ``infinite_temperature`` flags the degenerate uniform profile n/m, where
    T diverges and mu is fixed only by symmetry; ``mu`` is NaN there.
    ``at_bound`` holds "temperature" when T ends within one scan step of
    either end of the scanned range [1e-3 d0, 1e6 d0]: the misfit's
    minimum lies at or beyond the end of the scan.
    """

    temperature: float
    mu: float
    residual: float
    infinite_temperature: bool
    at_bound: tuple[str, ...]


def predict_occupations(
    n0, ninf, w0, grid=None, *, source_w0: str = "exact"
) -> ThermalizationPrediction:
    """Interpolate between initial and asymptotic occupations with weight W0(t)."""
    n0 = np.asarray(n0, dtype=float)
    ninf = np.asarray(ninf, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    if n0.shape != ninf.shape:
        raise ParameterError(f"length mismatch: n0 has {n0.shape}, ninf has {ninf.shape}")
    if np.any(w0 < -1e-12) or np.any(w0 > 1 + 1e-12):
        raise ParameterError("W0 series must lie in [0, 1]")
    occupations = n0[:, None] * w0[None, :] + ninf[:, None] * (1.0 - w0[None, :])
    times = TimeGrid(_times(grid)) if grid is not None else TimeGrid(np.arange(len(w0), dtype=float))
    return ThermalizationPrediction(grid=times, occupations=occupations, source_w0=source_w0)


def survival_models(params: SpreadingParams, n_pc: float, grid) -> SurvivalModelCurves:
    """Comparison curves exp(-Gamma t), exp(-Delta_E^2 t^2) and the 3/N_pc floor."""
    if params.gamma_gr <= 0 or params.delta_e <= 0:
        raise ParameterError("survival models need positive Gamma and Delta_E")
    t = _times(grid)
    return SurvivalModelCurves(
        breit_wigner=np.exp(-params.gamma_gr * t),
        gaussian=np.exp(-(params.delta_e**2) * t * t),
        saturation=3.0 / n_pc if n_pc > 0 else 0.0,
    )


def _smoothed_weight_density(profile: StrengthProfile, nodes: np.ndarray, bandwidth: float):
    z = (nodes[:, None] - profile.energies[None, :]) / bandwidth
    kernel = np.exp(-0.5 * z * z) / (bandwidth * np.sqrt(2 * np.pi))
    return kernel @ profile.weights


def n_pc_envelope(profile: StrengthProfile, stats: SpectralStats) -> float:
    """Principal components of the smooth envelope of w_k: 1 / sum_k (F~/rho)(E_k)^2.

    F~(E_k) / rho(E_k) is the kernel-weighted local mean of the weights over
    the density bandwidth (about 3 mean spacings), so it keeps the envelope
    of w_k and averages away the Porter-Thomas fluctuation of single
    components.  For Gaussian components <w^2> = 3 <w>^2, hence the raw
    inverse participation ratio is about a third of this count and the
    long-time W0 floor sum_k w_k^2 is about 3 / n_pc_envelope (Flambaum &
    Izrailev, PRE 56, 5144 (1997)).

    rho is the kernel density of the same levels at the bandwidth of
    ``stats``, so one kernel block K gives F~/rho = (K @ w) / K.sum(axis=1);
    the kernel normalisation cancels.
    """
    energies = profile.energies
    envelope = np.empty_like(energies)
    for lo in range(0, len(energies), ENVELOPE_BLOCK):   # no N x N kernel held at once
        z = (energies[lo : lo + ENVELOPE_BLOCK, None] - energies[None, :]) / stats.bandwidth
        kernel = np.exp(-0.5 * z * z)
        envelope[lo : lo + len(kernel)] = (kernel @ profile.weights) / kernel.sum(axis=1)
    return float(1.0 / (envelope @ envelope))


def convolve_strength(
    profile_i: StrengthProfile,
    decomp: EigenDecomposition,
    rho: SpectralStats,
    q: int,
    *,
    nodes: int = 400,
) -> float:
    """Smoothed overlap integral F~(E_i, E_q) = int F_i(E) F_q(E) rho(E) dE.

    Both strength functions are kernel-smoothed into weight densities
    (F rho); the integrand F_i F_q rho equals their product divided by the
    level density.  Approximates the average diagonal term S_q^(d).
    """
    if nodes < 200:
        raise ParameterError(f"need >= 200 quadrature nodes, got {nodes}")
    profile_q = strength_function(decomp, q)
    bw = rho.bandwidth
    lo = min(profile_i.energies[0], profile_q.energies[0]) - 5 * bw
    hi = max(profile_i.energies[-1], profile_q.energies[-1]) + 5 * bw
    grid = np.linspace(lo, hi, nodes)
    fi_rho = _smoothed_weight_density(profile_i, grid, bw)
    fq_rho = _smoothed_weight_density(profile_q, grid, bw)
    density = np.maximum(rho.rho(grid), 1e-300)
    return float(np.trapezoid(fi_rho * fq_rho / density, grid))


def convolve_strength_map(
    profile_i: StrengthProfile,
    decomp: EigenDecomposition,
    rho: SpectralStats,
    *,
    nodes: int = 400,
) -> np.ndarray:
    """F~(E_i, E_q) for every basis state q at once (vectorized form)."""
    if nodes < 200:
        raise ParameterError(f"need >= 200 quadrature nodes, got {nodes}")
    bw = rho.bandwidth
    lo = profile_i.energies[0] - 5 * bw
    hi = profile_i.energies[-1] + 5 * bw
    grid = np.linspace(lo, hi, nodes)
    z = (grid[:, None] - decomp.energies[None, :]) / bw
    kernel = np.exp(-0.5 * z * z) / (bw * np.sqrt(2 * np.pi))   # (nodes, N)
    all_fq_rho = kernel @ (decomp.vectors**2).T                 # (nodes, N_states)
    fi_rho = kernel @ profile_i.weights
    density = np.maximum(rho.rho(grid), 1e-300)
    integrand = all_fq_rho * (fi_rho / density)[:, None]
    return np.trapezoid(integrand, grid, axis=0)


def _fermi_dirac(eps: np.ndarray, mu: float, temperature: float) -> np.ndarray:
    x = np.clip((eps - mu) / temperature, -500, 500)
    return 1.0 / (np.exp(x) + 1.0)


def _mu_for_filling(eps: np.ndarray, temperatures, n: int) -> np.ndarray:
    """Chemical potential that holds n particles, at each temperature.

    The filling sum S(mu) rises monotonically, and S = n has its root in
    [min eps, max eps] + T ln(n / (m - n)): at the lower end no level holds
    more than n/m, at the upper end none holds less.  Each step halves that
    bracket or, where the Newton step on S lands inside it, takes that step;
    the bracket shrinks by the sign of S - n either way.  All temperatures
    are solved at once, to the precision that rounding of S allows.
    """
    t = np.asarray(temperatures, dtype=float)[:, None]
    shift = t * math.log(n / (len(eps) - n))
    lo, hi = eps.min() + shift, eps.max() + shift
    mu = 0.5 * (lo + hi)
    tiny = 4 * np.finfo(float).eps
    for _ in range(MU_MAX_STEPS):
        filled = _fermi_dirac(eps, mu, t)
        excess = filled.sum(axis=1, keepdims=True) - n
        hi = np.where(excess > 0, mu, hi)
        lo = np.where(excess > 0, lo, mu)
        slope = (filled * (1 - filled)).sum(axis=1, keepdims=True) / t
        with np.errstate(divide="ignore", invalid="ignore"):
            step = mu - excess / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        # done once a step is below rounding of mu, or S - n is below rounding of the sum
        done = np.all((np.abs(step - mu) <= tiny * (1 + np.abs(mu))) | (np.abs(excess) <= tiny * n))
        mu = step
        if done:
            break
    return mu[:, 0]


def _misfit_slope(eps: np.ndarray, ninf: np.ndarray, log_t: float, n: int) -> float:
    """Sign of d/d(log T) of the squared Fermi-Dirac misfit, mu held by the constraint.

    With z = (eps - mu)/T and w = f (1 - f), the constraint sum f = n gives
    df/d(log T) = w (z - zbar), zbar the w-weighted mean of z.
    """
    temperature = math.exp(log_t)
    mu = _mu_for_filling(eps, [temperature], n)[0]
    filled = _fermi_dirac(eps, mu, temperature)
    w = filled * (1 - filled)
    if not w.sum() > 0:   # every level frozen at 0 or 1: the misfit is flat here
        return 0.0
    z = (eps - mu) / temperature
    return float((filled - ninf) @ (w * (z - (w @ z) / w.sum())))


def fit_fermi_dirac(ninf, spectrum: SingleParticleSpectrum, n: int) -> FermiDiracFit:
    """Constrained (T, mu) fit: sum of occupations pinned to n, RMS minimized.

    The chemical potential is eliminated by the particle-number constraint
    at every trial temperature; the remaining 1-D problem is scanned over
    120 log T points (one vectorized solve for all of them) and refined by
    bisection on the sign of its slope within two scan steps of the best.
    A profile uniformly equal to n/m has no finite-T solution and is
    returned as the infinite-temperature case.
    """
    ninf = np.asarray(ninf, dtype=float)
    eps = np.asarray(spectrum.epsilon, dtype=float)
    if ninf.shape != eps.shape:
        raise ParameterError(
            f"occupation list length {ninf.shape} does not match spectrum {eps.shape}"
        )
    if np.abs(ninf - n / len(eps)).max() < UNIFORM_TOL:
        return FermiDiracFit(
            temperature=math.inf, mu=math.nan, residual=0.0, infinite_temperature=True,
            at_bound=(),
        )
    if np.any(ninf < 0) or np.any(ninf > 1):
        raise PreconditionError("occupations must lie in [0, 1]")
    if not 0 < n < len(eps):
        raise ParameterError(f"particle number {n} leaves no partly filled level")

    d0 = (eps[-1] - eps[0]) / (len(eps) - 1)

    def rms(log_t):
        temperatures = np.exp(np.atleast_1d(log_t))
        mu = _mu_for_filling(eps, temperatures, n)
        filled = _fermi_dirac(eps, mu[:, None], temperatures[:, None])
        return np.sqrt(np.mean((filled - ninf) ** 2, axis=1)), mu

    lo, hi = math.log(1e-3 * d0), math.log(1e6 * d0)
    coarse = np.linspace(lo, hi, 120)
    best = coarse[np.argmin(rms(coarse)[0])]
    width = coarse[1] - coarse[0]
    # Bisect the sign of the slope, not the misfit: near its minimum the misfit
    # is flat to rounding over ~1e-7 in log T, its slope is not.
    a, b = max(lo, best - 2 * width), min(hi, best + 2 * width)
    while a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        if _misfit_slope(eps, ninf, mid, n) > 0:
            b = mid
        else:
            a = mid
    (residual,), (mu,) = rms(a)
    return FermiDiracFit(
        temperature=math.exp(a), mu=float(mu), residual=float(residual),
        infinite_temperature=False,
        at_bound=("temperature",) if min(a - lo, hi - a) <= width else (),
    )


def prediction_error(n_exact: np.ndarray, prediction: ThermalizationPrediction) -> tuple[float, float]:
    """(RMS, max-abs) deviation between exact and predicted occupations.

    The RMS is taken over orbitals and uniformly over time (trapezoid rule
    on the grid), so the value does not depend on how densely any time zone
    was sampled; the max runs over all grid points.
    """
    if n_exact.shape != prediction.occupations.shape:
        raise ParameterError(
            f"shape mismatch: exact {n_exact.shape} vs predicted {prediction.occupations.shape}"
        )
    diff = n_exact - prediction.occupations
    times = prediction.grid.points
    if len(times) >= 2 and times[-1] > times[0]:
        msq_t = np.mean(diff**2, axis=0)
        rms = float(np.sqrt(np.trapezoid(msq_t, times) / (times[-1] - times[0])))
    else:
        rms = float(np.sqrt(np.mean(diff**2))) if diff.size else 0.0
    return rms, float(np.abs(diff).max()) if diff.size else 0.0


def write_prediction_csv(
    prediction: ThermalizationPrediction, path, *, header_lines=()
) -> None:
    """Same row layout as the trajectory export plus a provenance column."""
    m = prediction.occupations.shape[0]
    provenance = "eq14-exactW0" if prediction.source_w0 == "exact" else "eq14-modelW0"
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"n_{a}" for a in range(m)] + ["provenance"])
        for j, t in enumerate(prediction.grid.points):
            row = [f"{t:.17g}"]
            row += [f"{x:.17g}" for x in prediction.occupations[:, j]]
            row.append(provenance)
            writer.writerow(row)
