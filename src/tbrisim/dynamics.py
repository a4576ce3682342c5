"""Exact time evolution of an initially excited basis state.

All dynamics are evaluated spectrally: with row i of the eigenvector matrix
written as c_k = C_i(k), the amplitude on basis state f at time t is

    A_f(t) = sum_k c_k C_f(k) exp(-i E_k t)        (hbar = 1),

so every quantity is exact at any t with no step-size error.  Occupation
numbers, the survival probability W0, cascade-class populations and the
diagonal-ensemble (infinite-time) occupations all derive from these
amplitudes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis, ClassPartition, occupancy_matrix
from .exceptions import ParameterError, PreconditionError
from .spectral import EigenDecomposition, _mid_spacing

UNITARITY_TOL = 1e-10
ROW_BLOCK = 256


@dataclass(frozen=True)
class TimeGrid:
    """Ascending, non-negative times in units of inverse energy."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.size and (pts[0] < 0 or np.any(np.diff(pts) <= 0)):
            raise ParameterError("time grid must be non-negative and strictly increasing")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class OccupationTrajectory:
    """Occupations n_alpha(t), survival W0(t) and class populations W_s(t)."""

    grid: TimeGrid
    occupations: np.ndarray      # (m, T)
    w0: np.ndarray               # (T,)
    class_populations: np.ndarray  # (n_classes + 1, T)


def _times(grid) -> np.ndarray:
    return np.asarray(getattr(grid, "points", grid), dtype=float)


def default_grid(
    delta_e: float, gamma: float, n_classes: int, *, points: int = 400
) -> TimeGrid:
    """Log-spaced grid resolving the quadratic, exponential and saturated zones.

    Runs from 0.01/Delta_E to 10*n_classes/Gamma with a linear refinement
    around 1/Gamma, plus t = 0.  Degenerate widths (free fermions) fall back
    to a linear grid on [0, 10*n_classes].
    """
    if delta_e <= 0 or gamma <= 0:
        return TimeGrid(np.linspace(0.0, 10.0 * max(n_classes, 1), points))
    start = 0.01 / delta_e
    stop = 10.0 * max(n_classes, 1) / gamma
    if stop <= start:
        stop = 100.0 * start
    n_lin = points // 5
    log_part = np.geomspace(start, stop, points - n_lin)
    lin_part = np.linspace(0.2 / gamma, min(3.0 / gamma, stop), n_lin)
    merged = np.unique(np.concatenate(([0.0], log_part, lin_part)))
    return TimeGrid(merged)


def _phases(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(N, 2T) exp(-i E_k t_j) as interleaved columns cos(E_k t_j), -sin(E_k t_j)."""
    theta = np.outer(-energies, times)
    out = np.empty(theta.shape + (2,))
    np.cos(theta, out=out[..., 0])
    np.sin(theta, out=out[..., 1])
    return out.reshape(len(energies), -1)


def _spectral_power(weights: np.ndarray, energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """|sum_k weights_k exp(-i E_k t)|^2 at every t."""
    parts = weights @ _phases(energies, times)
    return parts[0::2] ** 2 + parts[1::2] ** 2


def evolve_amplitudes(decomp: EigenDecomposition, i: int, grid) -> np.ndarray:
    """(N, T) amplitudes A_f(t) for an initial basis state i; unitary at every t.

    The eigenvectors are real, so the product runs as one real GEMM over the
    interleaved real/imaginary columns of the phase matrix; the complex
    result is a view of it.
    """
    if not 0 <= i < decomp.size:
        raise PreconditionError(f"basis index {i} outside [0, {decomp.size})")
    times = _times(grid)
    rhs = _phases(decomp.energies, times)
    rhs *= decomp.vectors[i, :, None]
    parts = decomp.vectors @ rhs
    norms = np.einsum("ft,ft->t", parts, parts).reshape(-1, 2).sum(axis=1)
    worst = np.abs(norms - 1.0).max() if times.size else 0.0
    if worst > UNITARITY_TOL:
        raise PreconditionError(f"evolution lost unitarity: |sum - 1| = {worst:.3e}")
    return parts.view(np.complex128)


def _probabilities(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes.real**2 + amplitudes.imag**2


def occupation_numbers(prob: np.ndarray, basis: Basis) -> np.ndarray:
    """(m, T) occupations n_alpha(t) = sum_f |A_f|^2 [alpha occupied in f]."""
    return occupancy_matrix(basis) @ prob


def survival_probability(decomp: EigenDecomposition, i: int, grid) -> np.ndarray:
    """W0(t) = |sum_k w_k exp(-i E_k t)|^2 with w_k the strength weights of i."""
    if not 0 <= i < decomp.size:
        raise PreconditionError(f"basis index {i} outside [0, {decomp.size})")
    return _spectral_power(decomp.vectors[i, :] ** 2, decomp.energies, _times(grid))


def class_populations(prob: np.ndarray, partition: ClassPartition) -> np.ndarray:
    """(n_classes + 1, T) populations W_s(t) summed over each cascade class."""
    indicator = np.zeros((partition.n_classes + 1, len(partition.class_of)))
    indicator[partition.class_of, np.arange(len(partition.class_of))] = 1.0
    return indicator @ prob


def diagonal_weights(decomp: EigenDecomposition, i: int) -> np.ndarray:
    """S_q^(d) for every q: the time-independent part of |A_q(t)|^2."""
    vectors, target = decomp.vectors, decomp.vectors[i] ** 2
    weights = np.empty(decomp.size)
    for lo in range(0, decomp.size, ROW_BLOCK):   # no N x N square held at once
        weights[lo : lo + ROW_BLOCK] = (vectors[lo : lo + ROW_BLOCK] ** 2) @ target
    return weights


def split_occupation_terms(
    decomp: EigenDecomposition, i: int, q: int, grid
) -> tuple[float, np.ndarray]:
    """Diagonal term S_q^(d) and fluctuating series S_q^(fl)(t).

    The fluctuating part is computed as |A_q(t)|^2 - S_q^(d), which is
    algebraically identical to the double eigenstate sum but O(N) per time.
    """
    for idx in (i, q):
        if not 0 <= idx < decomp.size:
            raise PreconditionError(f"basis index {idx} outside [0, {decomp.size})")
    s_diag = float((decomp.vectors[q] ** 2) @ (decomp.vectors[i] ** 2))
    power = _spectral_power(decomp.vectors[i] * decomp.vectors[q], decomp.energies, _times(grid))
    return s_diag, power - s_diag


def asymptotic_occupations(decomp: EigenDecomposition, i: int, basis: Basis) -> np.ndarray:
    """Diagonal-ensemble occupations n_alpha(inf) = sum_q S_q^(d) [alpha in q]."""
    return occupancy_matrix(basis) @ diagonal_weights(decomp, i)


def simulate_trajectory(
    decomp: EigenDecomposition,
    basis: Basis,
    partition: ClassPartition,
    i: int,
    grid,
) -> OccupationTrajectory:
    """Full trajectory bundle for one initial state on one grid."""
    times = TimeGrid(_times(grid))
    prob = _probabilities(evolve_amplitudes(decomp, i, times))
    return OccupationTrajectory(
        grid=times,
        occupations=occupation_numbers(prob, basis),
        w0=prob[i].copy(),
        class_populations=class_populations(prob, partition),
    )


def long_time_grid(
    decomp: EigenDecomposition,
    i: int,
    *,
    samples: int = 256,
    spacing_factor: float = 1.137,
) -> np.ndarray:
    """Equidistant sampling times for infinite-time averages.

    Spacing is ``spacing_factor`` * pi / D with D the central mean level
    spacing, which decorrelates the eigenphases; the first sample starts
    past the decay zone estimated from the strength-function width.
    """
    t0, dt = _long_time_origin_step(decomp, i, samples, spacing_factor)
    return t0 + dt * np.arange(samples)


def _long_time_origin_step(
    decomp: EigenDecomposition, i: int, samples: int, spacing_factor: float = 1.137
) -> tuple[float, float]:
    """(t0, dt) of ``long_time_grid``; (1, 1) for fewer than three levels."""
    if samples < 200:
        raise ParameterError(f"need >= 200 samples for a stable average, got {samples}")
    energies = decomp.energies
    if len(energies) < 3:
        return 1.0, 1.0
    spacing_mid = _mid_spacing(energies)[0]
    if spacing_mid <= 0:
        spacing_mid = max((energies[-1] - energies[0]) / (len(energies) - 1), 1e-12)
    dt = spacing_factor * np.pi / spacing_mid
    weights = decomp.vectors[i, :] ** 2
    e_mean = weights @ energies
    width = np.sqrt(max(weights @ (energies - e_mean) ** 2, 0.0))
    t0 = max(dt, 50.0 / width) if width > 0 else dt
    return float(t0), float(dt)


def average_survival(decomp: EigenDecomposition, i: int, *, samples: int = 256) -> float:
    """Long-time average of W0 over the ``samples`` times of ``long_time_grid``.

    The grid is equidistant, t_j = t0 + dt j, so with j = B a + b,
    B = ceil(sqrt(samples)) and A = ceil(samples / B) rows, angle addition
    splits every amplitude into a coarse and a fine phase:

        sum_k w_k exp(-i E_k t_j) = sum_k C[k, a] F[k, b],
        C[k, a] = w_k exp(-i E_k t0) z_k^(B a),   F[k, b] = z_k^b,   z_k = exp(-i E_k dt).

    The tables are built as powers from three ``_phases`` columns (t0, dt
    and B dt), each power one elementwise complex product from the last:
    6 N sin/cos instead of 2 N samples, and no N x samples array.  All
    A x B amplitudes are then one complex product C^T F, and the mean runs
    over its first ``samples`` entries in row-major order.

    Agreement with ``survival_probability(decomp, i, long_time_grid(...)).mean()``:
    that path rounds each phase E_k t_j to within 3 eps |E_k| t_j; this one
    rounds the three generating phases to within 2 eps |E_k| t and adds at
    most 5 eps per power (the complex product, and |z_k| off 1 by 2 eps).
    The weights are positive and sum to one and the sum over k adds 2 N eps,
    so each path leaves every amplitude within
    eps (3 max|E_k| t_max + 2 N + 5 (A + B) + 8) of the exact one, and
    W0 <= 1 within twice that.  The two averages therefore differ by at most

        16 eps (max_k |E_k| t_max + N + samples),   t_max = t0 + dt (samples - 1).

    At N=924, max|E_k| t_max reaches ~2e6, so the bound is ~7e-9; the
    phase errors are not aligned, and the measured difference is <= 8e-13.
    """
    t0, dt = _long_time_origin_step(decomp, i, samples)
    fine = math.isqrt(samples - 1) + 1          # B = ceil(sqrt(samples))
    coarse = -(-samples // fine)                # A = ceil(samples / B)
    base = _phases(decomp.energies, np.array([t0, dt, dt * fine])).view(np.complex128)
    rows = _powers(base[:, 0] * decomp.vectors[i] ** 2, base[:, 2], coarse)   # C^T
    cols = _powers(1.0, base[:, 1], fine)                                      # F^T
    amplitudes = (rows @ cols.T).ravel()[:samples]
    return float(np.mean(amplitudes.real**2 + amplitudes.imag**2))


def _powers(first, ratio: np.ndarray, count: int) -> np.ndarray:
    """(count, N) rows first * ratio**r, each one complex product from the row before."""
    out = np.empty((count, len(ratio)), dtype=np.complex128)
    out[0] = first
    for r in range(1, count):
        np.multiply(out[r - 1], ratio, out=out[r])
    return out


def average_occupations(
    decomp: EigenDecomposition, basis: Basis, i: int, *, samples: int = 256
) -> np.ndarray:
    """Long-time average of n_alpha(t) over the decorrelating sample grid."""
    times = long_time_grid(decomp, i, samples=samples)
    prob = _probabilities(evolve_amplitudes(decomp, i, times))
    return occupation_numbers(prob, basis).mean(axis=1)


def write_trajectory_csv(traj: OccupationTrajectory, path, *, header_lines=()) -> None:
    """One row per time: t, n_0..n_{m-1}, W0, W_1..W_{n_c}; 17 significant digits."""
    m = traj.occupations.shape[0]
    n_classes = traj.class_populations.shape[0] - 1
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["t"]
            + [f"n_{a}" for a in range(m)]
            + ["W0"]
            + [f"W_{s}" for s in range(1, n_classes + 1)]
        )
        for j, t in enumerate(traj.grid.points):
            row = [f"{t:.17g}"]
            row += [f"{x:.17g}" for x in traj.occupations[:, j]]
            row.append(f"{traj.w0[j]:.17g}")
            row += [f"{x:.17g}" for x in traj.class_populations[1:, j]]
            writer.writerow(row)


def write_trajectory_sidecar(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
