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
carried and reduced in contiguous blocks of times.  Every phase row, cos and
sin alike, comes from one tangent of the half angle (``_sincos``), within a
stated few eps of the exact values.
Occupation numbers, the survival probability W0 and cascade-class
populations derive from these amplitudes; the diagonal-ensemble
(infinite-time) occupations from the occupations of the eigenstates.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .basis import Basis, ClassPartition, check_index, check_reference, occupancy_matrix
from .exceptions import ParameterError, PreconditionError
from .export import write_table
from .spectral import EigenDecomposition, _mid_spacing, mean_spacing
from .strength import strength_function

UNITARITY_TOL = 1e-10
ROW_BLOCK = 256
TIME_BLOCK = 64                   # grid times carried and reduced together
_NODE_EPS = np.finfo(float).eps   # target of the Chebyshev truncation bound
LONG_TIME_SPACING = 1.137         # long-time sampling step, in pi / (mid-spectrum spacing)
LONG_TIME_SIDE = 16               # the long-time average samples LONG_TIME_SIDE**2 times


@dataclass(frozen=True)
class TimeGrid:
    """Ascending, finite, non-negative times in units of inverse energy."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if not np.all(np.isfinite(pts)) or pts.size and (pts[0] < 0 or np.any(np.diff(pts) <= 0)):
            raise ParameterError("time grid must be finite, non-negative and strictly increasing")

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


def _phases(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(N, 2T) exp(-i E_k t_j) as interleaved columns cos(E_k t_j), -sin(E_k t_j)."""
    out = np.empty((len(energies), 2 * len(times)))
    _sincos(np.outer(-0.5 * energies, times), out[:, 0::2], out[:, 1::2])
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
) -> tuple[np.ndarray, float, int, int]:
    """``reduction @ |A(t)|^2`` (r, T), the unitarity drift, s and K (see ``_plan``).

    Time-major: the (K + 2(T - s), N) phase rows (node cos | node sin | tail cos, -sin
    per time), each pair from one ``_sincos`` of the half angles of the nodes >= 0 or
    of the tail, scaled by C_i(k), take one GEMM against V^T and are released.  Then
    ``TIME_BLOCK`` times at a time: the prefix carried from the node values (the tail
    rows read in place), |A_f(t)|^2 squared in place, the per-time norm sums and the
    reduction, with no (N, T) array; A_f(t) also goes into ``amplitudes`` when given.
    """
    energies, (split, count) = decomp.energies, _plan(decomp.energies, times)
    centre, even, odd = 0.5 * (energies.max() + energies.min()), (count + 1) // 2, count // 2
    nodes, weights = _chebyshev_nodes(times[split - 1] if split else 0.0, count)
    phases = np.empty((count + 2 * (len(times) - split), decomp.size))
    _sincos(np.outer(0.5 * nodes[:even], centre - energies), phases[:even], phases[even:count])
    _sincos(np.outer(0.5 * times[split:], -energies), phases[count::2], phases[count + 1 :: 2])
    phases *= decomp.vectors[i]
    values = phases @ decomp.vectors.T   # (K + 2(T - s)) x N x N
    del phases
    # A(-x) = conj A(x): the mirror of node j carries the conjugate of its value.
    lagrange = _lagrange_matrix(nodes, weights, times[:split])
    mirror = lagrange[::-1]
    folded, odd_part = lagrange[:even] + mirror[:even], lagrange[:odd] - mirror[:odd]
    folded[odd:] *= 0.5   # an odd K's middle node is its own mirror
    reduced, norms = np.empty((len(times), len(reduction))), np.empty(len(times))
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
        np.matmul(re, reduction.T, out=reduced[lo:hi])
    if amplitudes is not None:
        amplitudes[:, :split] *= np.exp(-1j * centre * times[:split])
    drift = float(np.abs(norms - 1.0).max()) if len(times) else 0.0
    if not drift <= UNITARITY_TOL:   # NaN fails too
        raise PreconditionError(f"evolution lost unitarity: |sum - 1| = {drift:.3e}")
    return reduced.T, drift, split, count


def evolve_amplitudes(decomp: EigenDecomposition, i: int, grid) -> np.ndarray:
    """(N, T) amplitudes A_f(t) for an initial basis state i; unitary at every t.

    The times are read as a ``TimeGrid``: finite, non-negative and strictly increasing,
    so NaN, infinite, descending, unordered, negative or repeated times raise ParameterError.

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
    and -sin(E_k t).  Every row is formed by ``_sincos`` from the tangent of
    the half angle.  One real time-major GEMM, the (K + 2(T - s), N) phase rows
    times V^T, does both; ``_evolve`` carries its values ``TIME_BLOCK`` times
    at a time and writes each block, transposed, into the (N, T) result.
    ``_plan`` picks s, and s = 0 is the direct GEMM over every time.

    Bound: interpolating exp(-i a u), u = t / t_s in [-1, 1] and |a| <= omega,
    at K Chebyshev nodes leaves each of its real and imaginary parts off by
    at most omega^K / (2^(K-1) K!).  Each amplitude is a combination of these
    with coefficients c_k C_f(k), whose absolute values sum to at most 1 by
    Cauchy-Schwarz over the unit vectors c and C_f, so it is off by at most
    sqrt(2) omega^K / (2^(K-1) K!) <= sqrt(2) eps.  Rounding in the node
    values, eps (3 (W/2) t_s + 2N + 7.5) as on the direct path (the 7.5 eps
    is the most ``_sincos`` moves a cos, 5 eps a sin), and in the final
    K-term sums is amplified by at most the Lebesgue constant
    Lambda_K <= (2/pi) ln(K + 1) + 1 (about 4 at K ~ 100).
    """
    check_index(i, decomp.size)
    times = TimeGrid(_times(grid)).points
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
    populations are one reduction of |A_f(t)|^2 by the occupancy over the class rows.
    ``partition`` must be classified from state i: its class 0, state i alone, is W0."""
    check_index(i, decomp.size)
    check_reference(partition, basis, i)
    times = TimeGrid(_times(grid))
    indicator = np.eye(partition.n_classes + 1)[:, partition.class_of]
    reduction = np.vstack((occupancy_matrix(basis), indicator))
    reduced, drift, split, count = _evolve(decomp, i, times.points, reduction)
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
    """Long-time average of W0 over 256 equidistant times t_j = t0 + dt j.

    dt is ``LONG_TIME_SPACING`` * pi / D, D the mid-spectrum spacing (the
    global ``mean_spacing`` where that is 0), which decorrelates the
    eigenphases; t0 = max(dt, 50 / width) starts past the decay zone, width
    the second-moment width of the strength function of i.  Below three
    levels t0 = dt = 1.

    With j = B a + b and A = B = ``LONG_TIME_SIDE`` = 16, angle addition
    splits every amplitude into a coarse and a fine phase:

        sum_k w_k exp(-i E_k t_j) = sum_k C[k, a] F[k, b],
        C[k, a] = w_k exp(-i E_k t0) z_k^(B a),   F[k, b] = z_k^b,   z_k = exp(-i E_k dt).

    The tables are built as powers from three ``_phases`` columns (t0, dt
    and B dt), each power one elementwise complex product from the last:
    3 N tangents instead of 512 N sin/cos, and no N x 256 array.  All A x B
    amplitudes are then one complex product C^T F, and the mean runs over
    all of them.

    Agreement with ``survival_probability(decomp, i, t).mean()`` on the same times t:
    that path rounds each phase E_k t_j to within 3 eps |E_k| t_j; this one
    rounds the three generating phases to within 2 eps |E_k| t and adds at
    most 3 eps per power for the complex product.  Both take every phase
    factor from ``_sincos``, which puts it within s = 9.1 eps of
    exp(-i theta) at its rounded angle theta (7.5 eps on the cos and 5 eps on
    the sin, in modulus; this covers |z_k| - 1 too): that path once per
    amplitude, this one once per generating factor, and a power z^a carries a
    such errors, so a table product C[k, a] F[k, b] at most A + B - 1.  The
    weights are positive and sum to one and the sum over k adds 2 N eps, so
    each path leaves every amplitude within
    eps (3 max|E_k| t_max + 2 N + 3 (A + B) + 8) + s (A + B) of the exact one,
    and W0 <= 1 within twice that.  The two averages therefore differ by at most

        16 eps (max_k |E_k| t_max + N + 256) + 4 s (A + B),   t_max = t0 + 255 dt.

    At N=924, max|E_k| t_max reaches ~2e6, so the bound is ~7e-9; the
    phase errors are not aligned, and the measured difference is <= 8e-13.
    """
    profile, energies = strength_function(decomp, i), decomp.energies
    t0 = dt = 1.0
    if len(energies) >= 3:
        spacing_mid = _mid_spacing(energies)[0]
        if spacing_mid <= 0:
            spacing_mid = max(mean_spacing(energies), 1e-12)
        dt = LONG_TIME_SPACING * np.pi / spacing_mid
        width = math.sqrt(profile.second_central_moment())
        t0 = max(dt, 50.0 / width) if width > 0 else dt
    side = LONG_TIME_SIDE
    base = _phases(energies, np.array([t0, dt, dt * side])).view(np.complex128)
    rows = _powers(base[:, 0] * profile.weights, base[:, 2], side)             # C^T
    cols = _powers(1.0, base[:, 1], side)                                      # F^T
    amplitudes = (rows @ cols.T).ravel()
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
