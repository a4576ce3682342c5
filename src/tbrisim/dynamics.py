"""Time evolution of an initially excited basis state.

All dynamics are evaluated spectrally: with row i of the eigenvector matrix
written as c_k = C_i(k), the amplitude on basis state f at time t is

    A_f(t) = sum_k c_k C_f(k) exp(-i E_k t)        (hbar = 1).

Every phase row, scaled by C_i(k) (``_phase_rows``), comes from one tangent of the
half angle (``_sincos``), within a stated few eps of the exact values; times V^T in
one time-major GEMM they give ``evolve_amplitudes``, times C_i the survival amplitude.
Occupation numbers, the survival probability W0 and cascade-class populations are
reductions of |A_f(t)|^2, real and even in t.  On a prefix [t_1, t_s] of the grid
``simulate_trajectory`` evaluates the centred sum exp(i c t) A_f(t), whose values at
-t are the conjugates of those at t, at the ceil(K/2) first-kind Chebyshev nodes >= 0
of [-t_s, t_s], carries it to the K2 nodes >= 0 of twice the bandwidth, reduces there
and interpolates the reduced rows (``_reduce``), by the folded weights of those half
grids (``_folded``); the rest of the grid, where a log grid is sparse, is evaluated
directly in the same GEMM.  The split follows from a cost estimate (``_plan``), K and
K2 from stated a-priori bounds of ~eps.  The diagonal-ensemble (infinite-time)
occupations derive from the occupations of the eigenstates, and the infinite-time mean
of W0 is sum_k w_k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis, ClassPartition, check_index, check_reference, occupancy_matrix
from .exceptions import ParameterError, PreconditionError
from .export import write_table
from .spectral import EigenDecomposition
from .strength import strength_function

UNITARITY_TOL = 1e-10
_NODE_EPS = np.finfo(float).eps   # target of the Chebyshev truncation bound


@dataclass(frozen=True)
class TimeGrid:
    """Ascending, finite, non-negative times in units of inverse energy; ``TimeGrid(grid)``
    takes a ``TimeGrid`` or an array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(getattr(self.points, "points", self.points), dtype=float)
        object.__setattr__(self, "points", pts)
        if not np.all(np.isfinite(pts)) or pts.size and (pts[0] < 0 or np.any(np.diff(pts) <= 0)):
            raise ParameterError("time grid must be finite, non-negative and strictly increasing")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class OccupationTrajectory:
    """Occupations n_alpha(t), survival W0(t) and class populations W_s(t).

    ``unitarity_drift`` is the largest |sum_f |A_f(t)|^2 - 1| over the directly
    evaluated times, the ceil(K2/2) Chebyshev nodes >= 0 where the prefix is
    reduced and the prefix times the norm is interpolated to (see ``_reduce``);
    ``interpolated_points`` is the number s of leading times interpolated
    from Chebyshev nodes, and ``time_nodes`` the node count K of the phase rows,
    or None when s = 0 and every time was evaluated directly.
    """

    grid: TimeGrid
    occupations: np.ndarray      # (m, T)
    w0: np.ndarray               # (T,)
    class_populations: np.ndarray  # (n_classes + 1, T)
    unitarity_drift: float
    interpolated_points: int
    time_nodes: int | None


def default_grid(
    delta_e: float, gamma: float, n_classes: int, *, points: int = 400
) -> TimeGrid:
    """Log-spaced grid resolving the quadratic, exponential and saturated zones.

    Runs from 0.01/Delta_E to 10*n_classes/Gamma with a linear refinement
    around 1/Gamma, plus t = 0.  Degenerate widths (free fermions) fall back
    to a linear grid on [0, 10*n_classes].  A NaN or infinite width, or a
    negative point count, raises ParameterError.
    """
    if not (math.isfinite(delta_e) and math.isfinite(gamma)) or points < 0:
        raise ParameterError(f"grid needs finite widths and points >= 0, got Delta_E={delta_e}, "
                             f"Gamma={gamma}, points={points}")
    if delta_e <= 0 or gamma <= 0:
        return TimeGrid(np.linspace(0.0, 10.0 * max(n_classes, 1), points))
    start = 0.01 / delta_e
    stop = 10.0 * max(n_classes, 1) / gamma
    if stop <= start:
        stop = 100.0 * start
    n_lin = points // 5
    log_part = np.geomspace(start, stop, points - n_lin)
    lin_part = np.linspace(0.2 / gamma, min(3.0 / gamma, stop), n_lin)
    return TimeGrid(_sorted_unique(np.concatenate(([0.0], log_part, lin_part))))


def _sorted_unique(times: np.ndarray) -> np.ndarray:
    """``np.unique`` of times, without the numpy.ma import it makes; a NaN or infinite time
    is kept, for ``TimeGrid`` to refuse."""
    times = np.sort(times)
    keep = np.ones(len(times), dtype=bool)
    keep[1:] = times[1:] != times[:-1]   # no subtraction: inf - inf would warn
    return times[keep]


def _sincos(half: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray) -> None:
    """cos and sin of the angles 2 ``half``, from t = tan(half): cos = r - 1, sin = t r,
    r = 2 / (1 + t^2).  ``half`` is overwritten with t; ``sin_out`` takes the sines of
    its first ``len(sin_out)`` rows, so it may cover fewer rows than ``cos_out``.

    numpy's float64 ``tan`` is SIMD on AVX-512 CPUs, several times the speed of its
    libm ``cos`` and ``sin``.  Halving is exact, so an angle formed as 0.5 x is half
    of the angle formed as x, with the same rounding.

    Bound, per entry, with t within 1 ULP (relative eps) of tan(half): t^2 is within
    2 eps and its rounding adds eps/2, 1 + t^2 another eps/2 and the division
    another, so r in (0, 2] is within 3.5 eps relative.  Hence, to first order in
    eps, cos is within 2 * 3.5 eps + eps/2 = 7.5 eps of cos(2 half) (the subtraction
    rounds by at most eps/2), and sin within (eps + 3.5 eps + eps/2) |t r| <= 5 eps
    of sin(2 half), as |t r| ~ |sin(2 half)| <= 1.  tan(0) = 0 gives exactly (1, 0).
    Nothing overflows: no double lies within 4e-19 of a pole of tan, so |t| < 1e19,
    t^2 is finite and 1 + t^2 >= 1.
    """
    t = np.tan(half, out=half)
    rows = len(sin_out)
    np.multiply(t, t, out=cos_out)
    cos_out += 1.0
    np.divide(2.0, cos_out, out=cos_out)   # r
    np.multiply(t[:rows], cos_out[:rows], out=sin_out)
    cos_out -= 1.0


def _node_count(omega, most: int) -> np.ndarray:
    """Smallest K <= most with omega^K / (2^(K-1) K!) <= _NODE_EPS, per omega; most + 1 if none."""
    counts = np.arange(1, most + 1)   # the largest omega K nodes resolve grows with K
    log_limits = math.log(_NODE_EPS) + (counts - 1) * math.log(2.0) + np.cumsum(np.log(counts))
    return np.searchsorted(np.exp(log_limits / counts), omega) + 1


def _plan(energies: np.ndarray, times: np.ndarray) -> tuple[int, int]:
    """(s, K): interpolate times[:s] from K nodes of [-t_s, t_s]; evaluate the rest directly.

    s minimises N (K + 2 (T - s)) + K s per row, with omega = (W/2) t_s for K;
    the first minimum is taken, so s = 0 (K = 0, 2 N T) unless a prefix is
    cheaper.  N (K + 2 (T - s)) counts the GEMM's columns, and K s stands in
    for the rest of ``_reduce``: the carry of the K node values to ceil(K2/2)
    nodes, the K2 weights built for the s prefix times and the carry of the
    reduced rows.  It is a proxy, kept because it measured faster than pricing
    the node carry alone, ceil(K2/2) K, which picks a wider prefix and a larger
    K2.  K >= 2T is never cheaper, so no count past 2T is resolved.
    """
    points = len(times)
    omega = 0.5 * (energies.max() - energies.min()) * times
    counts = np.concatenate(([0], _node_count(omega, 2 * points)))
    split = np.arange(points + 1)
    best = int(np.argmin(len(energies) * (counts + 2 * (points - split)) + counts * split))
    return best, int(counts[best])


def _folded(radius: float, count: int, targets: np.ndarray):
    """The ceil(K/2) first-kind Chebyshev nodes >= 0 of [-radius, radius], descending, with
    the (ceil(K/2), T) and (K//2, T) weights L_j + L_mirror(j) and L_j - L_mirror(j) that
    carry an even and an odd function from its values there to the ``targets`` >= 0.

    Node x_j has the barycentric weight w_j = (-1)^j sin((2j + 1) pi / 2K), its mirror -x_j
    (-1)^(K-1) w_j (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)); an odd K's node 0.0 is
    its own mirror, entered once with no odd row.  A target on a node keeps that node's
    unit column in both sets, an odd part of zero at the node 0.0.
    """
    even, odd = (count + 1) // 2, count // 2
    angles = (2 * np.arange(even) + 1) * np.pi / (2 * count)
    nodes, weights = radius * np.cos(angles), np.sin(angles)
    nodes[odd:] = 0.0
    weights[1::2] *= -1.0
    offsets = targets - nodes[:, None]
    exact = offsets == 0.0
    offsets[exact] = 1.0
    near = weights[:, None] / offsets
    far = (-1.0) ** (count - 1) * weights[:odd, None] / (targets + nodes[:odd, None])
    scale = near.sum(axis=0) + far.sum(axis=0)
    folded, far = near / scale, far / scale
    odd_part = folded[:odd] - far
    folded[:odd] += far
    hits = exact.any(axis=0)
    folded[:, hits], odd_part[:, hits] = exact[:, hits], exact[:odd, hits]
    return nodes, folded, odd_part


def _phase_rows(decomp: EigenDecomposition, i: int, nodes: np.ndarray, sines: int, times):
    """(len(nodes) + sines + 2T, N) phase rows scaled by C_i(k): cos at the ``nodes``, sin at
    the first ``sines`` of them (with the energies centred at c), then cos, -sin per time.

    Each pair of row sets is one ``_sincos`` of the half angles.  Times V^T they are the
    node values and the amplitudes; times C_i, the survival amplitude's parts.
    """
    energies, cosines = decomp.energies, len(nodes)
    count, centre = cosines + sines, 0.5 * (energies.max() + energies.min())
    phases = np.empty((count + 2 * len(times), decomp.size))
    _sincos(np.outer(0.5 * nodes, centre - energies), phases[:cosines], phases[cosines:count])
    _sincos(np.outer(0.5 * times, -energies), phases[count::2], phases[count + 1 :: 2])
    phases *= decomp.vectors[i]
    return phases


def _checked_drift(norms: np.ndarray) -> float:
    """max |sum_f |A_f|^2 - 1| over ``norms``; PreconditionError beyond UNITARITY_TOL."""
    drift = float(np.abs(norms - 1.0).max()) if len(norms) else 0.0
    if not drift <= UNITARITY_TOL:   # NaN fails too
        raise PreconditionError(f"evolution lost unitarity: |sum - 1| = {drift:.3e}")
    return drift


def _reduce(
    decomp: EigenDecomposition, i: int, times: np.ndarray, reduction: np.ndarray
) -> tuple[np.ndarray, float, int, int]:
    """``reduction @ |A(t)|^2`` (r, T), the unitarity drift, s and K (see ``_plan``).

    Every reduced row, sum_f R_af |A_f(t)|^2, and the norm sum_f |A_f(t)|^2 are real,
    even in t (A_f(-t) = conj A_f(t)) and band-limited to [-W, W], W = E_max - E_min.
    So on the prefix they are interpolated after the reduction, on K2 first-kind
    Chebyshev nodes of [-t_s, t_s], K2 from the criterion of ``_node_count`` at
    omega' = W t_s.  ``_folded`` makes both half grids: K2 with its weights to the s
    prefix times, then K with its weights L_j +- L_mirror(j) to the ceil(K2/2) nodes
    >= 0, which carry the K ``_phase_rows`` values, cos rows (the even real part of
    exp(i c t) A_f) and sin rows (the odd imaginary part), there in one pair of GEMMs.
    |A_f|^2 there and on the tail (squared in place) fills one array of
    ceil(K2/2) + T - s rows, with no phase to put back, whose rows are summed and
    reduced in one pass; the K2 weights carry the r reduced rows and the norms to the
    prefix times, which get no N-wide row.  The drift is the largest over the K2 node
    norms, the tail and the interpolated prefix norms.

    Bound: at K nodes, each of the real and imaginary parts of exp(-i a u),
    u = t / t_s and |a| <= omega = (W/2) t_s, is off by at most
    omega^K / (2^(K-1) K!) <= eps; an amplitude combines these with coefficients
    c_k C_f(k) of absolute sum <= 1 (Cauchy-Schwarz), so it is off by sqrt(2) eps
    at most.  Rounding in the node values, eps (3 omega + 2N + 7.5) as on the direct
    path, and in the K-term sums is amplified by at most the Lebesgue constant
    Lambda_K <= (2/pi) ln(K + 1) + 1: b per amplitude in all.  Each node value of
    sum_f R_af |A_f|^2 (R a 0/1 row) is then within 3 sqrt(N) b of the exact one
    (sum_f ||a_f|^2 - |b_f|^2| <= |a - b|_2 (|a|_2 + |b|_2)).  Interpolation
    amplifies that by at most Lambda_K2 and adds N omega'^K2 / (2^(K2-1) K2!)
    <= N eps for truncation: each |A_f|^2 is a combination of cos((E_k - E_l) t)
    with coefficients of absolute sum (sum_k |c_k C_f(k)|)^2 <= 1.
    """
    split, count = _plan(decomp.energies, times)
    radius, width = times[split - 1] if split else 0.0, np.ptp(decomp.energies)
    count2 = int(_node_count(width * radius, 2 * count)) if split else 0   # K2 <= 2K
    nodes2, carry, _ = _folded(radius, count2, times[:split])
    nodes, folded, odd_part = _folded(radius, count, nodes2)
    even, half = len(nodes), len(nodes2)
    values = _phase_rows(decomp, i, nodes, len(odd_part), times[split:]) @ decomp.vectors.T
    squares = np.empty((half + len(times) - split, decomp.size))   # K2 nodes >= 0, then tail
    re, im = squares[:half], odd_part.T @ values[even:count]
    np.matmul(folded.T, values[:even], out=re)
    tail = np.square(values[count:], out=values[count:])
    np.add(tail[0::2], tail[1::2], out=squares[half:])
    re *= re   # |A_f|^2, in place
    re += np.square(im, out=im)
    norms, rows = squares.sum(axis=1), squares @ reduction.T
    drift = _checked_drift(np.concatenate((norms, carry.T @ norms[:half])))
    reduced = np.concatenate((carry.T @ rows[:half], rows[half:]))
    return reduced.T, drift, split, count


def evolve_amplitudes(decomp: EigenDecomposition, i: int, grid) -> np.ndarray:
    """(N, T) amplitudes A_f(t) for an initial basis state i; unitary at every t.

    The times are read as a ``TimeGrid``: finite, non-negative and strictly increasing,
    so NaN, infinite, descending, unordered, negative or repeated times raise ParameterError.

    Every time is evaluated directly: the 2T phase rows cos(E_k t), -sin(E_k t),
    interleaved per time and scaled by C_i(k) (``_phase_rows``), are multiplied by
    V^T in one real time-major GEMM, 2T x N x N.  Only ``simulate_trajectory``
    interpolates a prefix (``_reduce``).

    Bound: each amplitude is within eps (3 max_k |E_k| t + 2N) of the exact one for
    the rounding of the angles and of the N-term sums, plus the most ``_sincos``
    moves a phase factor, 7.5 eps on its cos and 5 eps on its sin.
    """
    check_index(i, decomp.size)
    values = _phase_rows(decomp, i, np.empty(0), 0, TimeGrid(grid).points) @ decomp.vectors.T
    _checked_drift(np.einsum("tf,tf->t", values, values).reshape(-1, 2).sum(axis=1))
    return np.ascontiguousarray(values.T).view(np.complex128)


def survival_probability(decomp: EigenDecomposition, i: int, grid) -> np.ndarray:
    """W0(t) = |sum_k w_k exp(-i E_k t)|^2 with w_k = C_i(k)^2 the strength weights of i, on
    the times of ``grid`` read as a ``TimeGrid``: the ``_phase_rows`` times C_i."""
    check_index(i, decomp.size)
    parts = _phase_rows(decomp, i, np.empty(0), 0, TimeGrid(grid).points) @ decomp.vectors[i]
    return parts[0::2] ** 2 + parts[1::2] ** 2


def _check_state(decomp: EigenDecomposition, basis: Basis, i: int) -> None:
    """``check_index``, and PreconditionError unless ``basis`` has the (n, m) of the
    decomposition's basis."""
    check_index(i, decomp.size)
    if (basis.n, basis.m) != (decomp.basis.n, decomp.basis.m):
        raise PreconditionError(f"basis of (n, m) = ({basis.n}, {basis.m}) for a decomposition "
                                f"of ({decomp.basis.n}, {decomp.basis.m})")


def asymptotic_occupations(decomp: EigenDecomposition, i: int, basis: Basis) -> np.ndarray:
    """Diagonal ensemble n_alpha(inf) = sum_k C_i(k)^2 n_alpha^(k): the compound-state
    occupations weighted by the strength function of i (Flambaum & Izrailev, PRE 56,
    5144 (1997)); O(mN) once the decomposition holds its ``compound_occupations``."""
    _check_state(decomp, basis, i)
    return decomp.compound_occupations @ decomp.vectors[i] ** 2


def simulate_trajectory(
    decomp: EigenDecomposition,
    basis: Basis,
    partition: ClassPartition,
    i: int,
    grid,
) -> OccupationTrajectory:
    """Full trajectory bundle for one initial state on one grid; occupations and class
    populations are one reduction of |A_f(t)|^2 by the occupancy over the class rows,
    interpolated on the prefix after the reduction (``_reduce``).
    ``partition`` must be classified from state i: its class 0, state i alone, is W0."""
    _check_state(decomp, basis, i)
    check_reference(partition, basis, i)
    times = TimeGrid(grid)
    indicator = np.eye(partition.n_classes + 1)[:, partition.class_of]
    reduction = np.vstack((occupancy_matrix(basis), indicator))
    reduced, drift, split, count = _reduce(decomp, i, times.points, reduction)
    return OccupationTrajectory(
        grid=times,
        occupations=reduced[: basis.m],
        w0=reduced[basis.m],
        class_populations=reduced[basis.m :],
        unitarity_drift=drift,
        interpolated_points=split,
        time_nodes=count if split else None,
    )


def average_survival(decomp: EigenDecomposition, i: int) -> float:
    """Infinite-time mean of W0, sum_k w_k^2 = 1 / ``n_pc_ipr`` (Flambaum & Izrailev, PRE 56,
    5144 (1997)): exact when no level repeats, and where one does no validated config mixes
    its eigenvectors (at eta = 0 H is diagonal and eigh returns unit vectors).  The name is
    kept for the benchmark's ``quench`` op and its tracer, which call it."""
    return strength_function(decomp, i).ipr()


def write_trajectory_csv(traj: OccupationTrajectory, path, *, header_lines=()) -> None:
    """One row per time: t, n_0..n_{m-1}, W0, W_1..W_{n_c}; 17 significant digits."""
    columns = {
        "t": traj.grid.points,
        **{f"n_{a}": row for a, row in enumerate(traj.occupations)},
        "W0": traj.w0,
        **{f"W_{s}": row for s, row in enumerate(traj.class_populations[1:], start=1)},
    }
    write_table(path, columns, header_lines=header_lines)
