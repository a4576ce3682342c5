"""Analytic predictors overlaid against the exact dynamics.

The central relation is the two-reservoir interpolation

    n_alpha(t) = n_alpha(0) * W0(t) + n_alpha(inf) * (1 - W0(t)),

which assumes every escape from the initial state lands in the already
thermalized remainder.  Model survival curves (exponential, Gaussian),
the principal-component count of the smoothed strength-function envelope,
and a Fermi-Dirac fit of the asymptotic occupations complete the
comparison toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid, _times
from .exceptions import ParameterError, PreconditionError
from .export import write_table
from .spectral import kernel_bandwidth, mean_spacing
from .strength import StrengthProfile

UNIFORM_TOL = 1e-9
ENVELOPE_BLOCK = 256
MU_MAX_STEPS = 200       # bisection alone reaches adjacent floats in ~55 steps at m=12


@dataclass(frozen=True)
class ThermalizationPrediction:
    """Occupations predicted by eq. 14 from the exact W0, on a grid."""

    grid: TimeGrid
    occupations: np.ndarray     # (m, T)


def predict_occupations(n0, ninf, w0, grid) -> ThermalizationPrediction:
    """Interpolate between initial and asymptotic occupations with weight W0(t) on ``grid``."""
    n0 = np.asarray(n0, dtype=float)
    ninf = np.asarray(ninf, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    if n0.shape != ninf.shape:
        raise ParameterError(f"length mismatch: n0 has {n0.shape}, ninf has {ninf.shape}")
    if not np.all((w0 >= -1e-12) & (w0 <= 1 + 1e-12)):   # NaN fails too
        raise ParameterError("W0 series must lie in [0, 1]")
    occupations = n0[:, None] * w0[None, :] + ninf[:, None] * (1.0 - w0[None, :])
    times = TimeGrid(_times(grid))
    if len(times) != len(w0):
        raise ParameterError(f"W0 has {len(w0)} points, the grid {len(times)}")
    return ThermalizationPrediction(grid=times, occupations=occupations)


def survival_models(gamma: float, delta_e: float, grid) -> tuple[np.ndarray, np.ndarray]:
    """Model W0 curves (exp(-Gamma t), exp(-Delta_E^2 t^2)); a zero width gives ones."""
    if not (gamma >= 0 and delta_e >= 0):   # NaN fails both
        raise ParameterError(f"survival models need widths >= 0, got {gamma!r}, {delta_e!r}")
    t = _times(grid)
    return np.exp(-gamma * t), np.exp(-(delta_e**2) * t * t)


def n_pc_envelope(profile: StrengthProfile) -> float:
    """Principal components of the smooth envelope of w_k: 1 / sum_k (F~/rho)(E_k)^2.

    F~(E_k) / rho(E_k) is the kernel-weighted local mean of the weights over
    the density bandwidth (``kernel_bandwidth``: 3 mean spacings), so it keeps
    the envelope of w_k and averages away the Porter-Thomas fluctuation of
    single components.  For Gaussian components <w^2> = 3 <w>^2, hence the raw
    inverse participation ratio is about a third of this count and the
    long-time W0 floor sum_k w_k^2 is about 3 / n_pc_envelope (Flambaum &
    Izrailev, PRE 56, 5144 (1997)).

    rho is the kernel density of the same levels at the same bandwidth, so
    one kernel block K gives F~/rho = (K @ w) / K.sum(axis=1); the kernel
    normalisation cancels.
    """
    energies, bandwidth = profile.energies, kernel_bandwidth(profile.energies)
    envelope = np.empty_like(energies)
    for lo in range(0, len(energies), ENVELOPE_BLOCK):   # no N x N kernel held at once
        z = (energies[lo : lo + ENVELOPE_BLOCK, None] - energies[None, :]) / bandwidth
        kernel = np.exp(-0.5 * z * z)
        envelope[lo : lo + len(kernel)] = (kernel @ profile.weights) / kernel.sum(axis=1)
    return float(1.0 / (envelope @ envelope))


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


def fit_fermi_dirac(ninf, epsilon, n: int) -> dict:
    """Constrained (T, mu) fit to the orbital energies ``epsilon``: sum of occupations
    pinned to n, RMS minimized.

    The chemical potential is eliminated by the particle-number constraint
    at every trial temperature; the remaining 1-D problem is scanned over
    120 log T points (one vectorized solve for all of them) and refined by
    bisection on the sign of its slope within two scan steps of the best.

    Returns the manifest's ``fermi_dirac`` record: ``temperature``, ``mu``,
    the RMS ``residual``, ``infinite_temperature`` and ``at_bound``.  A
    profile uniformly equal to n/m has no finite-T solution: T diverges and
    mu is fixed only by symmetry, so it is returned as the
    infinite-temperature case, with temperature "inf" and mu None (JSON has
    no inf or NaN).  ``at_bound`` holds "temperature" when T ends within
    one scan step of either end of the scanned range [1e-3, 1e6] level
    spacings, or when the misfit at the scan's end on the optimum's side is
    within rounding (4 eps) of its minimum: either way the minimum lies at
    or beyond the end of the scan, and T is only bounded from one side.
    """
    ninf = np.asarray(ninf, dtype=float)
    eps = np.asarray(epsilon, dtype=float)
    if ninf.shape != eps.shape:
        raise ParameterError(
            f"occupation list length {ninf.shape} does not match spectrum {eps.shape}"
        )
    if np.abs(ninf - n / len(eps)).max() < UNIFORM_TOL:
        return {
            "temperature": "inf", "mu": None, "residual": 0.0, "infinite_temperature": True,
            "at_bound": (),
        }
    if np.any(ninf < 0) or np.any(ninf > 1):
        raise PreconditionError("occupations must lie in [0, 1]")
    if not 0 < n < len(eps):
        raise ParameterError(f"particle number {n} leaves no partly filled level")

    d0 = mean_spacing(eps)

    def rms(log_t):
        temperatures = np.exp(np.atleast_1d(log_t))
        mu = _mu_for_filling(eps, temperatures, n)
        filled = _fermi_dirac(eps, mu[:, None], temperatures[:, None])
        return np.sqrt(np.mean((filled - ninf) ** 2, axis=1)), mu

    lo, hi = math.log(1e-3 * d0), math.log(1e6 * d0)
    coarse = np.linspace(lo, hi, 120)
    misfit = rms(coarse)[0]
    k = int(np.argmin(misfit))
    best, width = coarse[k], coarse[1] - coarse[0]
    # flat to rounding out to the scan's end on the optimum's side: T is not identified
    edge = misfit[0] if 2 * k < len(coarse) else misfit[-1]
    flat_to_edge = edge - misfit[k] <= 4 * np.finfo(float).eps
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
    return {
        "temperature": math.exp(a), "mu": float(mu), "residual": float(residual),
        "infinite_temperature": False,
        "at_bound": ("temperature",) if flat_to_edge or min(a - lo, hi - a) <= width else (),
    }


def prediction_error(n_exact, prediction: ThermalizationPrediction) -> tuple[float, float, float]:
    """(RMS, max-abs, per-point RMS) deviation of exact from predicted (m, T) occupations.

    The RMS weighs time uniformly (trapezoid rule), so it does not depend on how
    densely any time zone was sampled; the other two run over all grid points.
    """
    if n_exact.shape != prediction.occupations.shape:
        raise ParameterError(f"shape mismatch: exact {n_exact.shape} vs predicted "
                             f"{prediction.occupations.shape}")
    diff, times = n_exact - prediction.occupations, prediction.grid.points
    squares = diff**2
    per_point = rms = float(np.sqrt(np.mean(squares))) if diff.size else 0.0
    if len(times) >= 2 and times[-1] > times[0]:
        rms = float(np.sqrt(np.trapezoid(np.mean(squares, axis=0), times) / (times[-1] - times[0])))
    return rms, float(np.abs(diff).max()) if diff.size else 0.0, per_point


def write_prediction_csv(
    prediction: ThermalizationPrediction, path, *, header_lines=()
) -> None:
    """Same row layout as the trajectory export plus a provenance column."""
    columns = {
        "t": prediction.grid.points,
        **{f"n_{a}": row for a, row in enumerate(prediction.occupations)},
        "provenance": ["eq14-exactW0"] * len(prediction.grid.points),
    }
    write_table(path, columns, header_lines=header_lines)
