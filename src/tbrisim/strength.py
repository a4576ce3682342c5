"""Strength function of a basis state and its spreading parameters.

The strength function collects the squared overlaps of one unperturbed
basis state with every exact eigenstate, viewed against eigenenergy.  Its
width is characterized three ways: the golden-rule spreading width Gamma,
the exact second-moment width Delta_E, and least-squares fits of the
Breit-Wigner and Gaussian/Lorentzian hybrid line shapes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .basis import Basis, ClassPartition, occupancy_matrix
from .exceptions import (
    FitConvergenceError,
    InsufficientStatisticsError,
    PreconditionError,
)
from .hamiltonian import HamiltonianMatrix
from .spectral import EigenDecomposition, SpectralStats

MIN_BIN_COUNT = 10
MIN_FIT_COMPONENTS = 5.0


@dataclass(frozen=True)
class StrengthProfile:
    """Weights w_k = C_i(k)^2 of basis state i over eigenstates, with E_i = <i|H|i>."""

    i: int
    energies: np.ndarray
    weights: np.ndarray
    e_i: float

    def second_central_moment(self) -> float:
        d = self.energies - self.e_i
        return float(self.weights @ (d * d))

    def n_pc_ipr(self) -> float:
        """Inverse participation ratio 1 / sum w^2."""
        return float(1.0 / (self.weights @ self.weights))


@dataclass(frozen=True)
class SpreadingParams:
    """Width and band parameters extracted for one initial basis state."""

    gamma_gr: float
    delta_e: float
    sigma: float
    e_c: float
    n_pc_ratio: float
    n_pc_ipr: float


@dataclass(frozen=True)
class BWFit:
    gamma: float
    center: float
    residual: float


@dataclass(frozen=True)
class HybridFit:
    b_fitted: float
    e_c: float
    sigma: float
    gamma: float
    b_derived: float
    residual: float


def strength_function(decomp: EigenDecomposition, i: int) -> StrengthProfile:
    """Squared components of basis state i over all eigenstates."""
    if not 0 <= i < decomp.size:
        raise PreconditionError(f"basis index {i} outside [0, {decomp.size})")
    weights = decomp.vectors[i, :] ** 2
    e_i = float(weights @ decomp.energies)
    return StrengthProfile(i=i, energies=decomp.energies, weights=weights, e_i=e_i)


def energy_variance(h: HamiltonianMatrix, i: int) -> float:
    """Delta_E: root of the off-diagonal row sum, sum_{f != i} H_if^2.

    This equals the exact second central moment of the strength function of
    state i, by the operator identity <i|H^2|i> - H_ii^2 = sum_f H_if^2.
    """
    row = h.entries[i]
    return float(np.sqrt(row @ row - row[i] ** 2))


def golden_rule_gamma(
    h: HamiltonianMatrix,
    partition: ClassPartition,
    i: int,
    *,
    bandwidth_spacings: float = 3.0,
) -> float:
    """Golden-rule spreading width 2*pi * mean(H_if^2) * rho_f(E_i).

    The mean square coupling runs over all class-1 states (those reachable
    by one two-body move); rho_f is a Gaussian-kernel density of their
    diagonal energies evaluated at E_i = H_ii, with bandwidth equal to
    ``bandwidth_spacings`` mean class-1 spacings.
    """
    ref = int(h.basis.states[i])
    if partition.reference != ref:
        raise PreconditionError(
            "partition reference does not match the requested basis state"
        )
    class1 = partition.members(1)
    if len(class1) == 0:
        raise PreconditionError("class 1 is empty; no states coupled to i")
    couplings = h.entries[i, class1]
    mean_sq = float(couplings @ couplings) / len(class1)
    if mean_sq == 0.0:
        return 0.0

    e_i = h.entries[i, i]
    final_energies = np.sort(h.entries[class1, class1])
    spacing = (final_energies[-1] - final_energies[0]) / (len(final_energies) - 1)
    if spacing <= 0:
        raise InsufficientStatisticsError("class-1 energies are degenerate")
    bandwidth = bandwidth_spacings * spacing
    z = (final_energies - e_i) / bandwidth
    if np.count_nonzero(np.abs(z) <= 3.0) < 10:
        raise InsufficientStatisticsError(
            "fewer than 10 class-1 states within the density window around E_i"
        )
    rho_f = float(np.exp(-0.5 * z * z).sum() / (bandwidth * np.sqrt(2 * np.pi)))
    return 2 * np.pi * mean_sq * rho_f


def _adaptive_bins(profile: StrengthProfile, min_count: int = MIN_BIN_COUNT):
    """Bin raw weights into >= min_count levels per bin; heights are weight densities."""
    energies = profile.energies
    weights = profile.weights
    n = len(energies)
    edges = [energies[0] - 0.5 * (energies[1] - energies[0])]
    counts, sums = [], []
    start = 0
    while start < n:
        stop = min(start + min_count, n)
        if n - stop < min_count:
            stop = n
        right = (
            0.5 * (energies[stop - 1] + energies[stop])
            if stop < n
            else energies[-1] + 0.5 * (energies[-1] - energies[-2])
        )
        edges.append(right)
        counts.append(stop - start)
        sums.append(float(weights[start:stop].sum()))
        start = stop
    edges = np.array(edges)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, np.array(sums) / widths, widths


def _check_fit_precondition(profile: StrengthProfile) -> None:
    if profile.n_pc_ipr() < MIN_FIT_COMPONENTS:
        raise PreconditionError(
            f"too few principal components ({profile.n_pc_ipr():.2f} < "
            f"{MIN_FIT_COMPONENTS}) to define a line shape"
        )


def _quartile_width(profile: StrengthProfile) -> float:
    """Interquartile width of the weight distribution; equals Gamma for a pure BW."""
    cum = np.cumsum(profile.weights)
    lo = float(np.interp(0.25, cum, profile.energies))
    hi = float(np.interp(0.75, cum, profile.energies))
    return max(hi - lo, 1e-12)


def _run_least_squares(residual_fn, x0, bounds):
    from scipy.optimize import least_squares   # ~0.4 s to import: paid by the first fit only

    result = least_squares(residual_fn, x0=x0, bounds=bounds)
    if not result.success:
        raise FitConvergenceError(
            f"line-shape fit did not converge: {result.message}", last_params=result.x
        )
    return result


def fit_bw(profile: StrengthProfile, *, gamma0: float | None = None) -> BWFit:
    """Least-squares Breit-Wigner fit of the binned weight density.

    Model: (Gamma/2pi) / ((E - E0)^2 + Gamma^2/4), the unit-normalized
    Lorentzian.  Returns the fitted width and center with the RMS residual
    relative to the peak height.
    """
    _check_fit_precondition(profile)
    centers, heights, _ = _adaptive_bins(profile)
    g0 = gamma0 if gamma0 and gamma0 > 0 else _quartile_width(profile)
    span = profile.energies[-1] - profile.energies[0]

    def residual(x):
        gamma, e0 = x
        model = (gamma / (2 * np.pi)) / ((centers - e0) ** 2 + gamma**2 / 4)
        return model - heights

    result = _run_least_squares(
        residual,
        x0=[g0, profile.e_i],
        bounds=([1e-9, profile.energies[0] - span], [10 * span, profile.energies[-1] + span]),
    )
    gamma, e0 = result.x
    rms = float(np.sqrt(np.mean(result.fun**2)) / heights.max())
    return BWFit(gamma=float(gamma), center=float(e0), residual=rms)


def fit_hybrid(
    profile: StrengthProfile,
    rho: SpectralStats | None = None,
    *,
    gamma0: float | None = None,
) -> HybridFit:
    """Fit the Gaussian-band / Lorentzian-core hybrid line shape.

    Model for the weight density:
        B * exp(-(E - E_c)^2 / (2 sigma^2)) / ((E - E_i)^2 + Gamma^2/4)
    with E_i pinned to the profile's first moment.  B is reported both as
    fitted and as re-derived from unit normalization of the shape.
    """
    _check_fit_precondition(profile)
    centers, heights, _ = _adaptive_bins(profile)
    g0 = gamma0 if gamma0 and gamma0 > 0 else _quartile_width(profile)
    sigma0 = max(np.sqrt(profile.second_central_moment()), 1e-9)
    e_i = profile.e_i
    b0 = float(heights.max() * g0**2 / 4)
    span = profile.energies[-1] - profile.energies[0]

    def shape(e, e_c, sigma, gamma):
        return np.exp(-((e - e_c) ** 2) / (2 * sigma**2)) / ((e - e_i) ** 2 + gamma**2 / 4)

    def residual(x):
        b, e_c, sigma, gamma = x
        return b * shape(centers, e_c, sigma, gamma) - heights

    result = _run_least_squares(
        residual,
        x0=[b0, e_i, sigma0, g0],
        bounds=(
            [0.0, profile.energies[0] - span, 1e-9, 1e-9],
            [np.inf, profile.energies[-1] + span, 10 * span, 10 * span],
        ),
    )
    b_fit, e_c, sigma, gamma = (float(x) for x in result.x)

    # Unit normalization of the fitted shape fixes B independently.
    margin = 0.5 * span if rho is None else 3 * rho.bandwidth + 0.5 * span
    grid = np.linspace(profile.energies[0] - margin, profile.energies[-1] + margin, 4001)
    b_derived = float(1.0 / np.trapezoid(shape(grid, e_c, sigma, gamma), grid))
    rms = float(np.sqrt(np.mean(result.fun**2)) / heights.max())
    return HybridFit(
        b_fitted=b_fit, e_c=e_c, sigma=sigma, gamma=gamma, b_derived=b_derived, residual=rms
    )


def compound_occupations(decomp: EigenDecomposition, basis: Basis, k: int) -> np.ndarray:
    """Orbital occupation numbers inside exact eigenstate k."""
    if not 0 <= k < decomp.size:
        raise PreconditionError(f"eigenstate index {k} outside [0, {decomp.size})")
    return occupancy_matrix(basis) @ (decomp.vectors[:, k] ** 2)


def spreading_params(
    h: HamiltonianMatrix,
    decomp: EigenDecomposition,
    partition: ClassPartition,
    i: int,
    mean_spacing: float,
    *,
    fit: bool = True,
) -> SpreadingParams:
    """Bundle all width estimates for initial state i.

    sigma and E_c come from the hybrid fit when it is feasible; otherwise
    they fall back to the profile's second moment and first moment.
    """
    profile = strength_function(decomp, i)
    delta_e = energy_variance(h, i)
    gamma = golden_rule_gamma(h, partition, i)
    sigma, e_c = delta_e, profile.e_i
    if fit:
        try:
            hybrid = fit_hybrid(profile, gamma0=gamma)
            sigma, e_c = hybrid.sigma, hybrid.e_c
        except (PreconditionError, FitConvergenceError):
            pass
    return SpreadingParams(
        gamma_gr=gamma,
        delta_e=delta_e,
        sigma=sigma,
        e_c=e_c,
        n_pc_ratio=gamma / mean_spacing if mean_spacing > 0 else np.inf,
        n_pc_ipr=profile.n_pc_ipr(),
    )


def write_profile_csv(profile: StrengthProfile, path, *, header_lines=()) -> None:
    """CSV of (k, E_k, w_k) rows at full float precision."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["k", "E_k", "w_k"])
        for k, (e, w) in enumerate(zip(profile.energies, profile.weights)):
            writer.writerow([k, f"{e:.17g}", f"{w:.17g}"])


def write_spreading_json(params: SpreadingParams, path, extra: dict | None = None) -> None:
    payload = asdict(params)
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
