"""Time evolution of an initially excited basis state.

All dynamics are evaluated spectrally: with row i of the eigenvector matrix
written as c_k = C_i(k), the amplitude on basis state f at time t is

    A_f(t) = sum_k c_k C_f(k) exp(-i E_k t)        (hbar = 1).

The centred sum exp(i c t) A_f(t) has real coefficients, so its values at
-t are the conjugates of those at t.  A prefix [t_1, t_s] of the grid is
interpolated from K first-kind Chebyshev nodes of [-t_s, t_s], of which only
the non-negative half is evaluated; the rest of the grid, where a log grid is
sparse, is evaluated directly.  The split follows from a flop count and K
from a stated a-priori bound of ~eps (see ``evolve_amplitudes``).  Both
parts come from one time-major GEMM, phase rows times V^T, whose values are
carried and reduced in contiguous blocks of times.
Occupation numbers, the survival probability W0 and cascade-class
populations derive from these amplitudes; the diagonal-ensemble
(infinite-time) occupations from the occupations of the eigenstates.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .basis import Basis, ClassPartition, check_index, occupancy_matrix
from .exceptions import ParameterError, PreconditionError
from .export import write_table
from .spectral import EigenDecomposition, _mid_spacing, mean_spacing
from .strength import strength_function

UNITARITY_TOL = 1e-10
ROW_BLOCK = 256
TIME_BLOCK = 64                   # grid times carried and reduced together
_NODE_EPS = np.finfo(float).eps   # target of the Chebyshev truncation bound
LONG_TIME_SPACING = 1.137         # long-time sampling step, in pi / (mid-spectrum spacing)


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
    """Occupations n_alpha(t), survival W0(t) and class populations W_s(t).

    ``unitarity_drift`` is max_t |sum_f |A_f(t)|^2 - 1| on the grid;
    ``interpolated_points`` is the number s of leading times interpolated
    from Chebyshev nodes, and ``time_nodes`` the node count K, or None when
    s = 0 and every time was evaluated directly.
    """

    grid: TimeGrid
    occupations: np.ndarray      # (m, T)
    w0: np.ndarray               # (T,)
    class_populations: np.ndarray  # (n_classes + 1, T)
    unitarity_drift: float
    interpolated_points: int
    time_nodes: int | None


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
    return TimeGrid(_sorted_unique(np.concatenate(([0.0], log_part, lin_part))))


def _sorted_unique(times: np.ndarray) -> np.ndarray:
    """``np.unique`` of finite times, without the numpy.ma import it makes."""
    times = np.sort(times)
    return times[np.diff(times, prepend=-np.inf) > 0]


def _phases(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(N, 2T) exp(-i E_k t_j) as interleaved columns cos(E_k t_j), -sin(E_k t_j)."""
    theta = np.outer(-energies, times)
    out = np.empty((len(energies), 2 * len(times)))
    np.cos(theta, out=out[:, 0::2])
    np.sin(theta, out=out[:, 1::2])
    return out


def _node_count(omega, most: int) -> np.ndarray:
    """Smallest K <= most with omega^K / (2^(K-1) K!) <= _NODE_EPS, per omega; most + 1 if none."""
    counts = np.arange(1, most + 1)   # the largest omega K nodes resolve grows with K
    log_limits = math.log(_NODE_EPS) + (counts - 1) * math.log(2.0) + np.cumsum(np.log(counts))
    return np.searchsorted(np.exp(log_limits / counts), omega) + 1


def _plan(energies: np.ndarray, times: np.ndarray) -> tuple[int, int]:
    """(s, K): interpolate times[:s] from K nodes of [-t_s, t_s]; evaluate the rest directly.

    s minimises the predicted flops per row, N (K + 2 (T - s)) + K s (GEMM
    columns and the carry to the grid), with omega = (W/2) t_s for K; the
    first minimum is taken, so s = 0 (K = 0, 2 N T) unless a prefix is
    cheaper.  K >= 2T never is, so no count past 2T is resolved.
    """
    points = len(times)
    omega = 0.5 * (energies.max() - energies.min()) * times
    counts = np.concatenate(([0], _node_count(omega, 2 * points)))
    split = np.arange(points + 1)
    best = int(np.argmin(len(energies) * (counts + 2 * (points - split)) + counts * split))
    return best, int(counts[best])


def _chebyshev_nodes(radius: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev nodes on [-radius, radius] and their barycentric weights.

    Descending and exactly symmetric: node K-1-j is -node j, an odd K has 0.0
    in the middle, and mirrored weights differ at most in sign.
    """
    angles = (2 * np.arange((count + 1) // 2) + 1) * np.pi / (2 * count)
    half = radius * np.cos(angles)
    half[count // 2 :] = 0.0
    nodes = np.concatenate((half, -half[: count // 2][::-1]))
    weights = np.concatenate((np.sin(angles), np.sin(angles[: count // 2])[::-1]))
    weights[1::2] *= -1.0
    return nodes, weights


def _lagrange_matrix(nodes: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(K, T) barycentric Lagrange weights carrying node values to ``times``.

    A time that equals a node exactly gets that node's unit column.
    """
    offsets = times - nodes[:, None]
    exact = offsets == 0.0
    offsets[exact] = 1.0
    lagrange = weights[:, None] / offsets
    lagrange /= lagrange.sum(axis=0)
    hits = exact.any(axis=0)
    lagrange[:, hits] = exact[:, hits]
    return lagrange


def _evolve(
    decomp: EigenDecomposition, i: int, times: np.ndarray, reduction: np.ndarray, amplitudes=None
) -> tuple[np.ndarray, np.ndarray, float, int, int]:
    """``reduction @ |A(t)|^2`` (r, T), W0 (T,), the unitarity drift, s and K (see ``_plan``).

    Time-major: the (K + 2(T - s), N) phase rows (node cos | node sin | tail cos, -sin
    per time), scaled by C_i(k), take one GEMM against V^T and are released.  Then
    ``TIME_BLOCK`` times at a time: the prefix carried from the node values (the tail
    rows read in place), |A_f(t)|^2 squared in place, the per-time norm sums, W0 and
    the reduction, with no (N, T) array; A_f(t) also goes into ``amplitudes`` when given.
    """
    check_index(i, decomp.size)
    energies, (split, count) = decomp.energies, _plan(decomp.energies, times)
    centre, even, odd = 0.5 * (energies.max() + energies.min()), (count + 1) // 2, count // 2
    nodes, weights = _chebyshev_nodes(times[split - 1] if split else 0.0, count)
    phases = np.empty((count + 2 * (len(times) - split), decomp.size))
    theta = np.outer(nodes[:even], centre - energies)   # the nodes >= 0
    np.cos(theta, out=phases[:even])
    np.sin(theta[:odd], out=phases[even:count])
    theta = np.outer(times[split:], -energies)
    np.cos(theta, out=phases[count::2])
    np.sin(theta, out=phases[count + 1 :: 2])
    del theta
    phases *= decomp.vectors[i]
    values = phases @ decomp.vectors.T   # (K + 2(T - s)) x N x N
    del phases
    # A(-x) = conj A(x): the mirror of node j carries the conjugate of its value.
    lagrange = _lagrange_matrix(nodes, weights, times[:split])
    mirror = lagrange[::-1]
    folded, odd_part = lagrange[:even] + mirror[:even], lagrange[:odd] - mirror[:odd]
    folded[odd:] *= 0.5   # an odd K's middle node is its own mirror
    reduced, (norms, w0) = np.empty((len(times), len(reduction))), np.empty((2, len(times)))
    carried = np.empty((2, min(TIME_BLOCK, split), decomp.size))
    for lo in [*range(0, split, TIME_BLOCK), *range(split, len(times), TIME_BLOCK)]:
        hi = min(lo + TIME_BLOCK, split if lo < split else len(times))
        if lo < split:
            re, im = carried[:, : hi - lo]
            np.matmul(folded[:, lo:hi].T, values[:even], out=re)
            np.matmul(odd_part[:, lo:hi].T, values[even:count], out=im)
        else:
            tail = values[count + 2 * (lo - split) : count + 2 * (hi - split)]
            re, im = tail[0::2], tail[1::2]
        if amplitudes is not None:
            amplitudes[:, lo:hi].real, amplitudes[:, lo:hi].imag = re.T, im.T
        re *= re
        re += np.square(im, out=im)   # |A_f(t)|^2
        re.sum(axis=1, out=norms[lo:hi])
        w0[lo:hi] = re[:, i]
        np.matmul(re, reduction.T, out=reduced[lo:hi])
    if amplitudes is not None:
        amplitudes[:, :split] *= np.exp(-1j * centre * times[:split])
    drift = float(np.abs(norms - 1.0).max()) if len(times) else 0.0
    if drift > UNITARITY_TOL:
        raise PreconditionError(f"evolution lost unitarity: |sum - 1| = {drift:.3e}")
    return reduced.T, w0, drift, split, count


def evolve_amplitudes(decomp: EigenDecomposition, i: int, grid) -> np.ndarray:
    """(N, T) amplitudes A_f(t) for an initial basis state i; unitary at every t.

    With the energies centred at c = (E_min + E_max)/2 and V real,
    exp(i c t) A_f(t) = sum_k c_k C_f(k) exp(-i (E_k - c) t) has an even real
    and an odd imaginary part.  The first s grid times are interpolated from
    K first-kind Chebyshev nodes of [-t_s, t_s], K the smallest count with
    omega^K / (2^(K-1) K!) <= eps, omega = (W/2) t_s, W = E_max - E_min.  The
    nodes are exactly symmetric, so only the non-negative ones are evaluated:
    their cos rows carry the real part and the sin rows of the positive ones
    the imaginary part, K real phase rows in all.  The barycentric Lagrange
    weights (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)), folded as
    L_j +- L_mirror(j), carry them to the prefix, where exp(-i c t) is
    multiplied back.  Later times take 2 uncentred rows each, cos(E_k t)
    and -sin(E_k t).  One real time-major GEMM, the (K + 2(T - s), N) phase rows
    times V^T, does both; ``_evolve`` carries its values ``TIME_BLOCK`` times
    at a time and writes each block, transposed, into the (N, T) result.
    ``_plan`` picks s, and s = 0 is the direct GEMM over every time.

    Bound: interpolating exp(-i a u), u = t / t_s in [-1, 1] and |a| <= omega,
    at K Chebyshev nodes leaves each of its real and imaginary parts off by
    at most omega^K / (2^(K-1) K!).  Each amplitude is a combination of these
    with coefficients c_k C_f(k), whose absolute values sum to at most 1 by
    Cauchy-Schwarz over the unit vectors c and C_f, so it is off by at most
    sqrt(2) omega^K / (2^(K-1) K!) <= sqrt(2) eps.  Rounding in the node
    values, eps (3 (W/2) t_s + 2N) as on the direct path, and in the final
    K-term sums is amplified by at most the Lebesgue constant
    Lambda_K <= (2/pi) ln(K + 1) + 1 (about 4 at K ~ 100).
    """
    times = _times(grid)
    amplitudes = np.empty((decomp.size, len(times)), dtype=np.complex128)
    _evolve(decomp, i, times, np.empty((0, decomp.size)), amplitudes)
    return amplitudes


def survival_probability(decomp: EigenDecomposition, i: int, grid) -> np.ndarray:
    """W0(t) = |sum_k w_k exp(-i E_k t)|^2 with w_k the strength weights of i."""
    check_index(i, decomp.size)
    parts = decomp.vectors[i, :] ** 2 @ _phases(decomp.energies, _times(grid))
    return parts[0::2] ** 2 + parts[1::2] ** 2


_COMPOUND_OCCUPATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compound_occupations(decomp: EigenDecomposition, basis: Basis) -> np.ndarray:
    """(m, N) read-only n_alpha^(k) = sum_f [alpha in f] C_f(k)^2 of every eigenstate k, summed
    in ``ROW_BLOCK`` rows (no N x N square) once per decomposition and (n, m), kept while it is."""
    key, cached = _COMPOUND_OCCUPATIONS.get(decomp, (None, None))
    if key == (basis.n, basis.m):
        return cached
    occupied, table = occupancy_matrix(basis), np.zeros((basis.m, decomp.size))
    for lo in range(0, decomp.size, ROW_BLOCK):
        table += occupied[:, lo : lo + ROW_BLOCK] @ decomp.vectors[lo : lo + ROW_BLOCK] ** 2
    table.flags.writeable = False
    _COMPOUND_OCCUPATIONS[decomp] = ((basis.n, basis.m), table)
    return table


def asymptotic_occupations(decomp: EigenDecomposition, i: int, basis: Basis) -> np.ndarray:
    """Diagonal ensemble n_alpha(inf) = sum_k C_i(k)^2 n_alpha^(k): the compound-state
    occupations weighted by the strength function of i (Flambaum & Izrailev, PRE 56,
    5144 (1997)); O(mN) once ``compound_occupations`` holds the decomposition's table."""
    check_index(i, decomp.size)
    return compound_occupations(decomp, basis) @ decomp.vectors[i] ** 2


def simulate_trajectory(
    decomp: EigenDecomposition,
    basis: Basis,
    partition: ClassPartition,
    i: int,
    grid,
) -> OccupationTrajectory:
    """Full trajectory bundle for one initial state on one grid; occupations and class
    populations are one reduction of |A_f(t)|^2 by the occupancy over the class rows."""
    times = TimeGrid(_times(grid))
    indicator = np.eye(partition.n_classes + 1)[:, partition.class_of]
    reduction = np.vstack((occupancy_matrix(basis), indicator))
    reduced, w0, drift, split, count = _evolve(decomp, i, times.points, reduction)
    return OccupationTrajectory(
        grid=times,
        occupations=reduced[: basis.m],
        w0=w0,
        class_populations=reduced[basis.m :],
        unitarity_drift=drift,
        interpolated_points=split,
        time_nodes=count if split else None,
    )


def average_survival(decomp: EigenDecomposition, i: int, *, samples: int = 256) -> float:
    """Long-time average of W0 over ``samples`` equidistant times t_j = t0 + dt j.

    dt is ``LONG_TIME_SPACING`` * pi / D, D the mid-spectrum spacing (the
    global ``mean_spacing`` where that is 0), which decorrelates the
    eigenphases; t0 = max(dt, 50 / width) starts past the decay zone, width
    the second-moment width of the strength function of i.  Below three
    levels t0 = dt = 1.

    With j = B a + b, B = ceil(sqrt(samples)) and A = ceil(samples / B)
    rows, angle addition splits every amplitude into a coarse and a fine
    phase:

        sum_k w_k exp(-i E_k t_j) = sum_k C[k, a] F[k, b],
        C[k, a] = w_k exp(-i E_k t0) z_k^(B a),   F[k, b] = z_k^b,   z_k = exp(-i E_k dt).

    The tables are built as powers from three ``_phases`` columns (t0, dt
    and B dt), each power one elementwise complex product from the last:
    6 N sin/cos instead of 2 N samples, and no N x samples array.  All
    A x B amplitudes are then one complex product C^T F, and the mean runs
    over its first ``samples`` entries in row-major order.

    Agreement with ``survival_probability(decomp, i, t).mean()`` on the same times t:
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
    if samples < 200:
        raise ParameterError(f"need >= 200 samples for a stable average, got {samples}")
    profile, energies = strength_function(decomp, i), decomp.energies
    t0 = dt = 1.0
    if len(energies) >= 3:
        spacing_mid = _mid_spacing(energies)[0]
        if spacing_mid <= 0:
            spacing_mid = max(mean_spacing(energies), 1e-12)
        dt = LONG_TIME_SPACING * np.pi / spacing_mid
        width = math.sqrt(profile.second_central_moment())
        t0 = max(dt, 50.0 / width) if width > 0 else dt
    fine = math.isqrt(samples - 1) + 1          # B = ceil(sqrt(samples))
    coarse = -(-samples // fine)                # A = ceil(samples / B)
    base = _phases(energies, np.array([t0, dt, dt * fine])).view(np.complex128)
    rows = _powers(base[:, 0] * profile.weights, base[:, 2], coarse)           # C^T
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


def write_trajectory_csv(traj: OccupationTrajectory, path, *, header_lines=()) -> None:
    """One row per time: t, n_0..n_{m-1}, W0, W_1..W_{n_c}; 17 significant digits."""
    columns = {
        "t": traj.grid.points,
        **{f"n_{a}": row for a, row in enumerate(traj.occupations)},
        "W0": traj.w0,
        **{f"W_{s}": row for s, row in enumerate(traj.class_populations[1:], start=1)},
    }
    write_table(path, columns, header_lines=header_lines)
