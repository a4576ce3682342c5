"""Analytic predictors overlaid against the exact dynamics.

The central relation is the two-reservoir interpolation

    n_alpha(t) = n_alpha(0) * W0(t) + n_alpha(inf) * (1 - W0(t)),

which assumes every escape from the initial state lands in the already
thermalized remainder.  Model survival curves (exponential, Gaussian),
the principal-component count of the smoothed strength-function envelope,
and a Fermi-Dirac fit of the asymptotic occupations in the signed inverse
temperature complete the comparison toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid
from .exceptions import ParameterError, PreconditionError
from .export import write_table
from .spectral import kernel_bandwidth
from .strength import StrengthProfile

ENVELOPE_BLOCK = 256
ALPHA_MAX_STEPS = 200    # bisection alone reaches adjacent floats in ~55 steps at m=12


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
    if not (np.all(np.isfinite(n0)) and np.all(np.isfinite(ninf))):
        raise ParameterError("occupations n0 and ninf must be finite")
    if not np.all((w0 >= -1e-12) & (w0 <= 1 + 1e-12)):   # NaN fails too
        raise ParameterError("W0 series must lie in [0, 1]")
    occupations = n0[:, None] * w0[None, :] + ninf[:, None] * (1.0 - w0[None, :])
    times = TimeGrid(grid)
    if len(times) != len(w0):
        raise ParameterError(f"W0 has {len(w0)} points, the grid {len(times)}")
    return ThermalizationPrediction(grid=times, occupations=occupations)


def survival_models(gamma: float, delta_e: float, grid) -> tuple[np.ndarray, np.ndarray]:
    """Model W0 curves (exp(-Gamma t), exp(-Delta_E^2 t^2)) on the times of ``grid``, read
    as a ``TimeGrid``; a zero width gives ones, a negative, NaN or infinite one ParameterError."""
    if not (0 <= gamma < math.inf and 0 <= delta_e < math.inf):   # NaN fails both
        raise ParameterError(f"survival models need finite widths >= 0, got {gamma!r}, {delta_e!r}")
    t = TimeGrid(grid).points
    return np.exp(-gamma * t), np.exp(-(delta_e**2) * t * t)


def n_pc_envelope(profile: StrengthProfile) -> float:
    """Principal components of the smooth envelope of w_k: 1 / sum_k (F~/rho)(E_k)^2.

    F~(E_k) / rho(E_k) is the kernel-weighted local mean of the weights over
    the density bandwidth (``kernel_bandwidth``: 3 mean spacings), so it keeps
    the envelope of w_k and averages away the Porter-Thomas fluctuation of
    single components.  For Gaussian components <w^2> = 3 <w>^2, hence the raw
    inverse participation ratio is about a third of this count and the
    long-time W0 floor sum_k w_k^2 is about 3 / n_pc_envelope (Flambaum &
    Izrailev, PRE 56, 5144 (1997)): 1 / n_pc_ipr already holds the factor 3
    and is the floor itself, not a third of it.

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


def _fermi_dirac(eps: np.ndarray, alpha, beta) -> np.ndarray:
    x = np.clip(beta * eps - alpha, -500, 500)
    return 1.0 / (np.exp(x) + 1.0)


def _alpha_for_filling(eps: np.ndarray, betas, n: int) -> np.ndarray:
    """The alpha that holds n particles, at each inverse temperature beta.

    The filling sum S(alpha) rises monotonically, and S = n has its root in
    [min beta eps, max beta eps] + ln(n / (m - n)): at the lower end no level
    holds more than n/m, at the upper end none holds less; at beta = 0 the
    bracket is the one point ln(n / (m - n)).  Each step halves that bracket
    or, where the Newton step on S lands inside it, takes that step; the
    bracket shrinks by the sign of S - n either way.  All betas are solved
    at once, to the precision that rounding of S allows.
    """
    beta = np.asarray(betas, dtype=float)[:, None]
    shift = math.log(n / (len(eps) - n))
    lo = (beta * eps).min(axis=1, keepdims=True) + shift
    hi = (beta * eps).max(axis=1, keepdims=True) + shift
    alpha = 0.5 * (lo + hi)
    tiny = 4 * np.finfo(float).eps
    for _ in range(ALPHA_MAX_STEPS):
        filled = _fermi_dirac(eps, alpha, beta)
        excess = filled.sum(axis=1, keepdims=True) - n
        hi = np.where(excess > 0, alpha, hi)
        lo = np.where(excess > 0, lo, alpha)
        slope = (filled * (1 - filled)).sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = alpha - excess / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        # done once a step is below rounding of alpha, or S - n is below rounding of the sum
        done = np.all((np.abs(step - alpha) <= tiny * (1 + np.abs(alpha)))
                      | (np.abs(excess) <= tiny * n))
        alpha = step
        if done:
            break
    return alpha[:, 0]


def _misfit_slope(eps: np.ndarray, ninf: np.ndarray, beta: float, n: int) -> float:
    """Sign of d/d(beta) of the squared Fermi-Dirac misfit, alpha held by the constraint.

    With w = f (1 - f), the constraint sum f = n gives df/d(beta) =
    -w (eps - epsbar), epsbar the w-weighted mean of eps.
    """
    alpha = _alpha_for_filling(eps, [beta], n)[0]
    filled = _fermi_dirac(eps, alpha, beta)
    w = filled * (1 - filled)
    if not w.sum() > 0:   # every level frozen at 0 or 1: the misfit is flat here
        return 0.0
    return float((filled - ninf) @ (w * ((w @ eps) / w.sum() - eps)))


def fit_fermi_dirac(ninf, epsilon, n: int) -> dict:
    """Constrained fit of n(eps) = 1 / (1 + exp(beta eps - alpha)) to the orbital
    energies ``epsilon``: sum of occupations pinned to n, RMS minimized.

    alpha is eliminated by the particle-number constraint at every trial
    beta; the remaining 1-D problem is scanned over beta = 0 and 120
    log-spaced |beta| of either sign, from 1e-6 to 1e3 inverse level
    spacings (one vectorized solve for all of them), and refined by
    bisection on the sign of its slope within two scan steps of the best.
    Infinite temperature (n(eps) = n/m) is the interior point beta = 0, and
    occupations that rise with eps give beta < 0, as an initial state above
    the spectrum's centre relaxes to, the orbital spectrum being bounded;
    T = 1/beta and the chemical potential mu = alpha/beta wherever beta != 0.
    The order of the levels does not matter.  Occupations outside [0, 1]
    (NaN included) and orbital energies that are all equal raise
    PreconditionError.

    Returns the manifest's ``fermi_dirac`` record: ``beta``, ``alpha``, the
    RMS ``residual`` and ``at_bound``, which holds "beta" when beta ends
    within one scan step of either end of the scan, or when the misfit at
    the scan's end on the optimum's side is within rounding (4 eps) of its
    minimum: either way the minimum lies at or beyond the end of the scan,
    and beta is only bounded from one side.  A step profile is the second
    case: it fits equally well at every |beta| above ~70 inverse level spacings.
    """
    ninf = np.asarray(ninf, dtype=float)
    eps = np.asarray(epsilon, dtype=float)
    if ninf.shape != eps.shape:
        raise ParameterError(
            f"occupation list length {ninf.shape} does not match spectrum {eps.shape}"
        )
    if not 0 < n < len(eps):
        raise ParameterError(f"particle number {n} leaves no partly filled level")
    if not np.all((ninf >= 0) & (ninf <= 1)):   # NaN fails too
        raise PreconditionError("occupations must lie in [0, 1]")
    d0 = np.ptp(eps) / (len(eps) - 1)
    if not d0 > 0:
        raise PreconditionError("orbital energies must not all be equal")

    def rms(beta):
        beta = np.atleast_1d(beta)
        alpha = _alpha_for_filling(eps, beta, n)
        filled = _fermi_dirac(eps, alpha[:, None], beta[:, None])
        return np.sqrt(np.mean((filled - ninf) ** 2, axis=1)), alpha

    steps = np.geomspace(1e-6, 1e3, 120) / d0
    coarse = np.concatenate((-steps[::-1], [0.0], steps))
    misfit = rms(coarse)[0]
    k = int(np.argmin(misfit))
    # flat to rounding out to the scan's end on the optimum's side: beta is not identified
    edge = misfit[0] if 2 * k < len(coarse) else misfit[-1]
    flat_to_edge = edge - misfit[k] <= 4 * np.finfo(float).eps
    # Bisect the sign of the slope, not the misfit: near its minimum the misfit
    # is flat to rounding over ~1e-7 relative in beta, its slope is not.  Near
    # beta = 0 the bisection stops at rounding of the smallest scanned |beta|.
    a, b = coarse[max(k - 2, 0)], coarse[min(k + 2, len(coarse) - 1)]
    while a < 0.5 * (a + b) < b and b - a > np.finfo(float).eps * steps[0]:
        mid = 0.5 * (a + b)
        if _misfit_slope(eps, ninf, mid, n) > 0:
            b = mid
        else:
            a = mid
    (residual,), (alpha,) = rms(a)
    return {
        "beta": float(a), "alpha": float(alpha), "residual": float(residual),
        "at_bound": ("beta",) if flat_to_edge or not coarse[1] < a < coarse[-2] else (),
    }


def prediction_error(n_exact, prediction: ThermalizationPrediction) -> tuple[float, float, float]:
    """(RMS, max-abs, per-point RMS) deviation of exact from predicted (m, T) occupations.

    The RMS weighs time uniformly (trapezoid rule), so it does not depend on how
    densely any time zone was sampled; the other two run over all grid points.
    ``n_exact`` is read as a float array; a NaN or infinite cell raises ParameterError.
    """
    n_exact, shape = np.asarray(n_exact, dtype=float), prediction.occupations.shape
    if n_exact.shape != shape or not np.all(np.isfinite(n_exact)):
        raise ParameterError(f"exact occupations must be finite, of the predicted shape {shape}; "
                             f"got shape {n_exact.shape}")
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
