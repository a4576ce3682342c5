"""Independent reference implementations used only to check the package.

Everything here is built from different machinery than the code under
test: fermion operators as explicit Jordan-Wigner matrices (kron products),
signs from list transpositions, time evolution through the
scaling-and-squaring matrix exponential, the Hamiltonian assembled
entry by entry with scalar fermionic phases, a trajectory evolved with
a complex product split into per-time frames, the line-shape and
Fermi-Dirac fits solved by ``scipy.optimize`` with finite-difference
Jacobians and Brent root finding, the phase rows as libm's cos and sin
rather than from the half-angle tangent, the eigendecomposition checked
through the full products V^T V and H V, the mid-spectrum spacing
and long-time grid as each was computed on its own before they shared
one helper, and the amplitudes evaluated directly at every grid time from
libm phases in the transposed layout, the reference of ``evolve_amplitudes``
and of the trajectory's directly evaluated tail.  The Fermi-Dirac fit's
bisection on a scalar slope, 1-D products at a single beta, is the
reference of the bisection on the batched misfit.
The bitmask helpers and ``fermionic_phase``, one state and one operator
at a time, are the reference of the vectorized signs in
``hamiltonian._sign_bit``; the tensor drawn one row at a time is the
reference of the single draw in ``sample_two_body``, and the pair
enumeration, element lookup and mean orbital spacing are helpers the
package does not need.  The occupation numbers of a probability array,
the occupation-term split, the long-time occupation average, the
occupations inside one eigenstate and the kernel-smoothed weight and
level densities are physics checks that the pipeline does not need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq, least_squares, minimize_scalar

from tbrisim.basis import Basis, ClassPartition, occupancy_matrix
from tbrisim.dynamics import (
    UNITARITY_TOL,
    OccupationTrajectory,
    TimeGrid,
    evolve_amplitudes,
)
from tbrisim.exceptions import ParameterError, PreconditionError
from tbrisim.hamiltonian import (
    _TENSOR_STREAM,
    HamiltonianMatrix,
    ModelParams,
)
from tbrisim.spectral import EigenDecomposition
from tbrisim.strength import MOMENT_NODES, StrengthProfile, _adaptive_bins
from tbrisim.theory import _alpha_for_filling, _fermi_dirac

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_EYE2 = np.eye(2)


def jw_annihilators(m: int) -> list[np.ndarray]:
    """a_j as dense 2^m x 2^m matrices; basis index = occupation bitmask."""
    ops = []
    for j in range(m):
        mat = np.array([[1.0]])
        for k in range(m - 1, -1, -1):   # leftmost kron factor = highest bit
            if k == j:
                factor = _SIGMA_MINUS
            elif k < j:
                factor = _PAULI_Z
            else:
                factor = _EYE2
            mat = np.kron(mat, factor)
        ops.append(mat)
    return ops


def operator_hamiltonian(m: int, epsilon, tensor_matrix, pairs) -> np.ndarray:
    """H = sum eps_s n_s + sum_{AB} V_AB a+_{c1} a+_{c2} a_{a2} a_{a1} in full Fock space."""
    a = jw_annihilators(m)
    adag = [op.T for op in a]
    dim = 2**m
    h = np.zeros((dim, dim))
    for s in range(m):
        h += epsilon[s] * (adag[s] @ a[s])
    for bi, (c1, c2) in enumerate(pairs):
        for ai, (a1, a2) in enumerate(pairs):
            v = tensor_matrix[bi, ai]
            if v != 0.0:
                h += v * (adag[c1] @ adag[c2] @ a[a2] @ a[a1])
    return h


def orbital_pairs(m: int) -> list[tuple[int, int]]:
    """Pairs (p, q), p < q, in lexicographic order: the row order of ``sample_two_body``'s table."""
    return list(combinations(range(m), 2))


def pair_index(m: int) -> dict[tuple[int, int], int]:
    """Row of each orbital pair in ``sample_two_body``'s table."""
    return {pq: a for a, pq in enumerate(orbital_pairs(m))}


def tensor_element(tensor: np.ndarray, m: int, p: int, q: int, r: int, s: int) -> float:
    """Amplitude V[(p,q),(r,s)] of the table of m orbitals; requires p < q and r < s."""
    index = pair_index(m)
    return float(tensor[index[(p, q)], index[(r, s)]])


def mean_spacing(epsilon: np.ndarray) -> float:
    """Mean spacing of the ascending orbital energies, end to end."""
    return float(epsilon[-1] - epsilon[0]) / (len(epsilon) - 1)


def rowwise_two_body(params: ModelParams) -> np.ndarray:
    """``sample_two_body`` as it was: one draw per upper-triangle row, mirrored row by row."""
    n_pairs = params.m * (params.m - 1) // 2
    rng = np.random.default_rng([params.seed, _TENSOR_STREAM])
    scale = np.sqrt(params.eta)
    matrix = np.zeros((n_pairs, n_pairs))
    for a in range(n_pairs):
        row = scale * rng.standard_normal(n_pairs - a)
        matrix[a, a:] = row
        matrix[a:, a] = row
    return matrix


def project_to_basis(full_matrix: np.ndarray, states) -> np.ndarray:
    """Restrict a full Fock-space matrix to the listed bitmask states, in order."""
    idx = np.asarray(states, dtype=np.int64)
    return full_matrix[np.ix_(idx, idx)]


def transposition_sign(occupied: tuple[int, ...], annihilate, create):
    """Sign of a+_{c1} a+_{c2} a_{a2} a_{a1} |occ> by explicit operator moves.

    The state is kept as the ascending list of creation operators; removing
    or inserting an operator at position p costs (-1)^p.  Returns None when
    the operator string annihilates the state.
    """
    orbs = list(occupied)
    a1, a2 = sorted(annihilate)
    c1, c2 = sorted(create)
    sign = 1
    for x in (a1, a2):
        if x not in orbs:
            return None
        pos = orbs.index(x)
        sign *= (-1) ** pos
        orbs.remove(x)
    for x in (c2, c1):
        if x in orbs:
            return None
        pos = sum(1 for o in orbs if o < x)
        sign *= (-1) ** pos
        orbs.insert(pos, x)
    return sign, tuple(orbs)


def occupied_orbitals(state: int) -> tuple[int, ...]:
    """Ascending orbital indices set in the bitmask."""
    orbs = []
    s = state
    while s:
        low = s & -s
        orbs.append(low.bit_length() - 1)
        s ^= low
    return tuple(orbs)


def state_from_orbitals(orbitals) -> int:
    """Bitmask of the listed orbitals; PreconditionError if one is listed twice."""
    mask = 0
    for s in orbitals:
        bit = 1 << s
        if mask & bit:
            raise PreconditionError(f"orbital {s} listed twice")
        mask |= bit
    return mask


def orbital_difference(f: int, g: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbitals occupied in f but not g, and in g but not f (both ascending)."""
    return occupied_orbitals(f & ~g), occupied_orbitals(g & ~f)


def fermionic_phase(state: int, annihilate, create) -> int:
    """Sign of <g| a+_{c1} a+_{c2} a_{a2} a_{a1} |f> for f = ``state``.

    The operator pairs are taken in canonical ascending order a1 < a2 and
    c1 < c2 and applied right to left; each application contributes
    (-1)^(number of occupied orbitals below the target orbital).
    """
    a1, a2 = sorted(annihilate)
    c1, c2 = sorted(create)
    if a1 == a2:
        raise PreconditionError(f"cannot annihilate orbital {a1} twice")
    if c1 == c2:
        raise PreconditionError(f"cannot create orbital {c1} twice")
    sign = 1
    s = int(state)
    for orb in (a1, a2):
        bit = 1 << orb
        if not s & bit:
            raise PreconditionError(f"orbital {orb} is empty, cannot annihilate")
        if (s & (bit - 1)).bit_count() & 1:
            sign = -sign
        s &= ~bit
    for orb in (c2, c1):
        bit = 1 << orb
        if s & bit:
            raise PreconditionError(f"orbital {orb} already occupied, cannot create")
        if (s & (bit - 1)).bit_count() & 1:
            sign = -sign
        s |= bit
    return sign


def expm_amplitudes(h_entries: np.ndarray, i: int, t: float) -> np.ndarray:
    """Column i of exp(-i H t) via scipy's scaling-and-squaring expm."""
    u = expm(-1j * h_entries * t)
    return u[:, i]


def loop_hamiltonian(
    basis: Basis,
    epsilon: np.ndarray,
    tensor: np.ndarray,
) -> HamiltonianMatrix:
    """Assemble the dense symmetric matrix of H0 + V on the basis.

    Matrix elements follow the two-body selection rule: states differing in
    more than two orbitals are not connected.
    """
    n_pairs = basis.m * (basis.m - 1) // 2
    if len(epsilon) != basis.m or tensor.shape != (n_pairs, n_pairs):
        raise ParameterError(
            f"inconsistent orbital counts: basis m={basis.m}, "
            f"spectrum m={len(epsilon)}, tensor shape {tensor.shape}"
        )
    eps = epsilon.tolist()
    v = tensor.tolist()
    pairs = pair_index(basis.m)
    index = {state: j for j, state in enumerate(basis.states.tolist())}
    n_states = basis.size
    entries = np.zeros((n_states, n_states))
    all_orbitals = range(basis.m)

    for fi, f_np in enumerate(basis.states):
        f = int(f_np)
        occ = occupied_orbitals(f)
        unocc = tuple(s for s in all_orbitals if not f >> s & 1)

        diag = sum(eps[s] for s in occ)
        for pq in combinations(occ, 2):
            a = pairs[pq]
            diag += v[a][a]
        entries[fi, fi] = diag

        for pq in combinations(occ, 2):
            a = pairs[pq]
            removed = f ^ (1 << pq[0]) ^ (1 << pq[1])
            for rs in combinations(unocc, 2):
                g = removed | (1 << rs[0]) | (1 << rs[1])
                gi = index[g]
                if gi < fi:
                    continue  # already filled from the partner row
                sign = fermionic_phase(f, pq, rs)
                entries[fi, gi] = entries[gi, fi] = sign * v[a][pairs[rs]]

        for p in occ:
            removed = f ^ (1 << p)
            for q in unocc:
                gi = index[removed | (1 << q)]
                if gi < fi:
                    continue
                element = 0.0
                for s in occ:
                    if s == p:
                        continue
                    ps = (p, s) if p < s else (s, p)
                    qs = (q, s) if q < s else (s, q)
                    element += fermionic_phase(f, ps, qs) * v[pairs[ps]][pairs[qs]]
                entries[fi, gi] = entries[gi, fi] = element

    return HamiltonianMatrix(entries=entries, basis=basis)


@dataclass(frozen=True)
class AmplitudeFrame:
    """Complex amplitudes over the whole basis at one time."""

    t: float
    amplitudes: np.ndarray


def _evolve_frames(decomp: EigenDecomposition, i: int, times: np.ndarray) -> list[AmplitudeFrame]:
    """Amplitude frames A_f(t) for an initial basis state i; unitary at every t."""
    if not 0 <= i < decomp.size:
        raise PreconditionError(f"basis index {i} outside [0, {decomp.size})")
    phases = np.exp(-1j * np.outer(decomp.energies, times))   # (N, T)
    amplitudes = decomp.vectors @ (decomp.vectors[i, :, None] * phases)
    norms = np.abs(amplitudes) ** 2
    worst = np.abs(norms.sum(axis=0) - 1.0).max() if times.size else 0.0
    if worst > UNITARITY_TOL:
        raise PreconditionError(f"evolution lost unitarity: |sum - 1| = {worst:.3e}")
    return [AmplitudeFrame(t=float(t), amplitudes=amplitudes[:, j]) for j, t in enumerate(times)]


def _probability_matrix(frames) -> np.ndarray:
    """(N, T) squared amplitudes of a frame sequence."""
    if not frames:
        return np.zeros((0, 0))
    return np.abs(np.stack([fr.amplitudes for fr in frames], axis=1)) ** 2


def _occupation_numbers(frames, basis: Basis) -> np.ndarray:
    """(m, T) occupations n_alpha(t) = sum_f |A_f|^2 [alpha occupied in f]."""
    prob = _probability_matrix(frames)
    if prob.size == 0:
        return np.zeros((basis.m, 0))
    return occupancy_matrix(basis) @ prob


def _survival_probability(decomp: EigenDecomposition, i: int, times: np.ndarray) -> np.ndarray:
    """W0(t) = |sum_k w_k exp(-i E_k t)|^2 with w_k the strength weights of i."""
    if not 0 <= i < decomp.size:
        raise PreconditionError(f"basis index {i} outside [0, {decomp.size})")
    weights = decomp.vectors[i, :] ** 2
    amplitude = np.exp(-1j * np.outer(times, decomp.energies)) @ weights
    return np.abs(amplitude) ** 2


def _class_populations(frames, partition: ClassPartition) -> np.ndarray:
    """(n_classes + 1, T) populations W_s(t) summed over each cascade class."""
    prob = _probability_matrix(frames)
    if prob.size == 0:
        return np.zeros((partition.n_classes + 1, 0))
    out = np.zeros((partition.n_classes + 1, prob.shape[1]))
    for cls in range(partition.n_classes + 1):
        members = partition.members(cls)
        if len(members):
            out[cls] = prob[members].sum(axis=0)
    return out


def complex_trajectory(
    decomp: EigenDecomposition,
    basis: Basis,
    partition: ClassPartition,
    i: int,
    times,
) -> OccupationTrajectory:
    """Trajectory bundle from a complex eigenvector product split into frames.

    The eigenvector matrix is multiplied as complex, the result is split
    into one frame per time and re-stacked for each observable, and W0 comes
    from a second phase product over the strength weights.
    """
    grid = TimeGrid(np.asarray(times, dtype=float))
    frames = _evolve_frames(decomp, i, grid.points)
    norms = _probability_matrix(frames).sum(axis=0)
    return OccupationTrajectory(
        grid=grid,
        occupations=_occupation_numbers(frames, basis),
        w0=_survival_probability(decomp, i, grid.points),
        class_populations=_class_populations(frames, partition),
        unitarity_drift=float(np.abs(norms - 1.0).max()) if norms.size else 0.0,
        interpolated_points=0,
        time_nodes=None,
    )


def _interleaved_phases(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(N, 2T) exp(-i E_k t_j) as interleaved columns cos(E_k t_j), -sin(E_k t_j)."""
    theta = np.outer(-energies, times)
    out = np.empty(theta.shape + (2,))
    np.cos(theta, out=out[..., 0])
    np.sin(theta, out=out[..., 1])
    return out.reshape(len(energies), -1)


def libm_sincos(half: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray) -> None:
    """``dynamics._sincos`` through libm: ``np.cos`` and ``np.sin`` of the doubled angle.

    half + half is exactly the angle ``direct_amplitudes`` forms, so with this in
    place of ``_sincos`` the package's phase rows are the oracle's, bit for bit.
    """
    angle = half + half
    np.cos(angle, out=cos_out)
    np.sin(angle[: len(sin_out)], out=sin_out)


def full_grid_folded(radius: float, count: int, targets: np.ndarray):
    """``dynamics._folded`` from the whole symmetric grid: the K first-kind Chebyshev nodes of
    [-radius, radius] with their barycentric weights, the (K, T) Lagrange matrix to
    ``targets`` and the mirror fold L_j +- L_mirror(j) of its two halves.

    Returns the ceil(K/2) nodes >= 0 and the (ceil(K/2), T) and (K//2, T) folded weights.
    The full grid is built descending and exactly symmetric: node K-1-j is -node j, and an
    odd K's middle node is 0.0, its own mirror, whose column is 2 L_j halved.  A target on a
    node gets that node's unit column of the Lagrange matrix before the fold.
    """
    angles = (2 * np.arange((count + 1) // 2) + 1) * np.pi / (2 * count)
    half = radius * np.cos(angles)
    half[count // 2 :] = 0.0
    nodes = np.concatenate((half, -half[: count // 2][::-1]))
    weights = np.concatenate((np.sin(angles), np.sin(angles[: count // 2])[::-1]))
    weights[1::2] *= -1.0
    offsets = targets - nodes[:, None]
    exact = offsets == 0.0
    offsets[exact] = 1.0
    lagrange = weights[:, None] / offsets
    lagrange /= lagrange.sum(axis=0)
    hits = exact.any(axis=0)
    lagrange[:, hits] = exact[:, hits]
    even, odd = (count + 1) // 2, count // 2
    mirror = lagrange[::-1]
    folded, odd_part = lagrange[:even] + mirror[:even], lagrange[:odd] - mirror[:odd]
    folded[odd:] *= 0.5
    return nodes[:even], folded, odd_part


def direct_amplitudes(decomp: EigenDecomposition, i: int, grid) -> np.ndarray:
    """(N, T) amplitudes from the phases at every grid time: a real GEMM of 2T x N x N.

    The phases are libm's cos and sin, formed as (N, 2T) columns and scaled
    there, and the GEMM is taken time-major, phase rows times V^T in one
    product, as ``evolve_amplitudes`` takes it, so that the two compare byte
    for byte given the same phase rows.  A BLAS micro-kernel
    rounds the rows of a short edge tile differently, and a chunk's edge tile
    falls elsewhere than a whole product's (or, with threads, each thread's
    share's), and the transposed product ``V @ rhs`` tiles the other way, so
    only products in the same layout and chunks agree bit for bit.
    """
    if not 0 <= i < decomp.size:
        raise PreconditionError(f"basis index {i} outside [0, {decomp.size})")
    times = np.asarray(getattr(grid, "points", grid), dtype=float)
    rhs = _interleaved_phases(decomp.energies, times)
    rhs *= decomp.vectors[i, :, None]
    parts = np.ascontiguousarray(rhs.T) @ decomp.vectors.T   # (2T, N)
    norms = np.einsum("tf,tf->t", parts, parts).reshape(-1, 2).sum(axis=1)
    worst = np.abs(norms - 1.0).max() if times.size else 0.0
    if worst > UNITARITY_TOL:
        raise PreconditionError(f"evolution lost unitarity: |sum - 1| = {worst:.3e}")
    return np.ascontiguousarray(parts.T).view(np.complex128)


def split_occupation_terms(
    decomp: EigenDecomposition, i: int, q: int, times
) -> tuple[float, np.ndarray]:
    """Diagonal term S_q^(d) and fluctuating series S_q^(fl)(t) of |A_q(t)|^2.

    S_q^(d) = sum_k C_i(k)^2 C_q(k)^2; the fluctuating part is
    |sum_k C_i(k) C_q(k) exp(-i E_k t)|^2 - S_q^(d), which equals the double
    eigenstate sum over k != k'.
    """
    for idx in (i, q):
        if not 0 <= idx < decomp.size:
            raise PreconditionError(f"basis index {idx} outside [0, {decomp.size})")
    s_diag = float((decomp.vectors[q] ** 2) @ (decomp.vectors[i] ** 2))
    times = np.asarray(times, dtype=float)
    amplitude = np.exp(-1j * np.outer(times, decomp.energies)) @ (decomp.vectors[i] * decomp.vectors[q])
    return s_diag, np.abs(amplitude) ** 2 - s_diag


def occupation_numbers(prob: np.ndarray, basis: Basis) -> np.ndarray:
    """(m, T) occupations n_alpha(t) = sum_f |A_f|^2 [alpha occupied in f]."""
    return occupancy_matrix(basis) @ prob


def average_occupations(
    decomp: EigenDecomposition, basis: Basis, i: int, *, samples: int = 256
) -> np.ndarray:
    """Long-time average of n_alpha(t) over the decorrelating sample grid."""
    times = standalone_long_time_grid(decomp, i, samples)
    prob = np.abs(evolve_amplitudes(decomp, i, times)) ** 2
    return occupation_numbers(prob, basis).mean(axis=1)


def _least_squares(residual, x0) -> np.ndarray:
    fit = least_squares(residual, x0, jac="3-point", x_scale="jac",
                        ftol=1e-15, xtol=1e-15, gtol=1e-15)
    return fit.x


def scipy_bw_fit(profile: StrengthProfile, gamma0: float) -> tuple[float, float]:
    """(Gamma, E0) of the binned Breit-Wigner least-squares fit."""
    centers, heights = _adaptive_bins(profile)

    def residual(x):
        gamma = np.exp(x[0])
        return (gamma / (2 * np.pi)) / ((centers - x[1]) ** 2 + gamma**2 / 4) - heights

    log_gamma, center = _least_squares(residual, [np.log(gamma0), profile.e_i])
    return float(np.exp(log_gamma)), float(center)


def scipy_hybrid_fit(profile: StrengthProfile, gamma0: float) -> tuple[float, float, float]:
    """(B, sigma, Gamma) of the hybrid fit, sigma from the second moment about E_i by brentq."""
    centers, heights = _adaptive_bins(profile)
    e_i, target = profile.e_i, profile.second_central_moment()
    span = profile.energies[-1] - profile.energies[0]
    nodes = np.linspace(profile.energies[0], profile.energies[-1], MOMENT_NODES)

    def shape(e, sigma, gamma):
        return np.exp(-((e - e_i) ** 2) / (2 * sigma**2)) / ((e - e_i) ** 2 + gamma**2 / 4)

    def sigma_for(gamma):
        def excess(sigma):
            f = shape(nodes, sigma, gamma)
            return np.trapezoid(f * (nodes - e_i) ** 2, nodes) / np.trapezoid(f, nodes) - target

        return brentq(excess, np.sqrt(target), 10 * span, xtol=1e-15, rtol=1e-15)

    def residual(x):
        gamma = np.exp(x[1])
        return np.exp(x[0]) * shape(centers, sigma_for(gamma), gamma) - heights

    unit = shape(centers, sigma_for(gamma0), gamma0)
    log_b, log_gamma = _least_squares(residual, [np.log(unit @ heights / (unit @ unit)),
                                                 np.log(gamma0)])
    gamma = float(np.exp(log_gamma))
    return float(np.exp(log_b)), sigma_for(gamma), gamma


def scipy_fermi_dirac(ninf, eps, n: int) -> tuple[float, float, float]:
    """(beta, alpha, RMS misfit): alpha by brentq per trial beta, beta by bounded Brent
    after a scan of beta = 0 and 120 log-spaced |beta| of either sign."""
    ninf, eps = np.asarray(ninf, dtype=float), np.asarray(eps, dtype=float)

    def filled(alpha, beta):
        return 1.0 / (np.exp(np.clip(beta * eps - alpha, -500, 500)) + 1.0)

    def alpha_at(beta):
        return brentq(lambda alpha: filled(alpha, beta).sum() - n,
                      min(beta * eps) - 50, max(beta * eps) + 50, xtol=1e-14)

    def rms(beta):
        return float(np.sqrt(np.mean((filled(alpha_at(beta), beta) - ninf) ** 2)))

    d0 = (eps[-1] - eps[0]) / (len(eps) - 1)
    steps = np.geomspace(1e-6 / d0, 1e3 / d0, 120)
    coarse = np.concatenate((-steps[::-1], [0.0], steps))
    k = min(range(len(coarse)), key=lambda j: rms(coarse[j]))
    lo, hi = coarse[max(k - 2, 0)], coarse[min(k + 2, len(coarse) - 1)]
    fit = minimize_scalar(rms, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * max(abs(lo), abs(hi))})
    beta = float(fit.x)
    return beta, alpha_at(beta), float(fit.fun)


def _misfit_slope(eps: np.ndarray, ninf: np.ndarray, beta: float, n: int) -> float:
    """d/d(beta) of the squared Fermi-Dirac misfit at one beta, up to a positive factor,
    alpha held by the constraint: with w = f (1 - f), df/d(beta) = -w (eps - epsbar)."""
    alpha = _alpha_for_filling(eps, [beta], n)[0]
    filled = _fermi_dirac(eps, alpha, beta)
    w = filled * (1 - filled)
    if not w.sum() > 0:
        return 0.0
    return float((filled - ninf) @ (w * ((w @ eps) / w.sum() - eps)))


def bisected_fermi_dirac(ninf, eps, n: int) -> tuple[float, float, float]:
    """``fit_fermi_dirac``'s (beta, alpha, residual) by its loop on a scalar slope: the same
    scan of beta = 0 and 120 log-spaced |beta| of either sign, then one bisection step per
    slope, each solving alpha for a single beta, until no float lies strictly inside the
    bracket or its width is at most eps times the smallest scanned |beta|."""
    ninf, eps = np.asarray(ninf, dtype=float), np.asarray(eps, dtype=float)

    def rms(beta):
        beta = np.atleast_1d(beta)
        alpha = _alpha_for_filling(eps, beta, n)
        filled = _fermi_dirac(eps, alpha[:, None], beta[:, None])
        return np.sqrt(np.mean((filled - ninf) ** 2, axis=1)), alpha

    steps = np.geomspace(1e-6, 1e3, 120) / (np.ptp(eps) / (len(eps) - 1))
    coarse = np.concatenate((-steps[::-1], [0.0], steps))
    k = int(np.argmin(rms(coarse)[0]))
    a, b = coarse[max(k - 2, 0)], coarse[min(k + 2, len(coarse) - 1)]
    while a < 0.5 * (a + b) < b and b - a > np.finfo(float).eps * steps[0]:
        mid = 0.5 * (a + b)
        if _misfit_slope(eps, ninf, mid, n) > 0:
            b = mid
        else:
            a = mid
    (residual,), (alpha,) = rms(a)
    return float(a), float(alpha), float(residual)


def exact_eigen_residuals(h, decomp: EigenDecomposition) -> tuple[float, float]:
    """Max-norm residuals of V^T V = 1 and of H V = V E, the latter over max|H|.

    These are the O(N^3) checks ``diagonalize`` made before its probe
    check; compare them with ``ORTHONORMALITY_TOL`` and ``RECONSTRUCTION_TOL``.
    """
    matrix = h.entries if isinstance(h, HamiltonianMatrix) else np.asarray(h, dtype=float)
    energies, vectors = decomp.energies, decomp.vectors
    ortho = np.abs(vectors.T @ vectors - np.eye(len(energies))).max()
    scale = np.abs(matrix).max() or 1.0
    recon = np.abs(matrix @ vectors - vectors * energies).max()
    return float(ortho), float(recon / scale)


def windowed_mid_spacing(energies: np.ndarray) -> float:
    """Mean spacing of the ~51 levels nearest the median, as ``spectral_stats`` had it."""
    median = float(np.median(energies))
    count = min(51, len(energies))
    window = float(np.sort(np.abs(energies - median))[count - 1]) * (1 + 1e-12)
    inside = energies[np.abs(energies - median) <= window]
    return float(inside[-1] - inside[0]) / (len(inside) - 1)


def standalone_long_time_grid(
    decomp: EigenDecomposition, i: int, samples: int = 256, spacing_factor: float = 1.137
) -> np.ndarray:
    """Equidistant late times pi / D_mid or more apart, D_mid the mid-spectrum spacing,
    starting past the decay: the averaging grid of ``average_occupations`` and of the
    fluctuating-term check."""
    energies = decomp.energies
    if len(energies) < 3:
        return np.arange(1, samples + 1, dtype=float)
    count = min(51, len(energies))
    median = np.median(energies)
    order = np.sort(np.abs(energies - median))
    window = energies[np.abs(energies - median) <= order[count - 1] * (1 + 1e-12)]
    spacing_mid = (window[-1] - window[0]) / max(len(window) - 1, 1)
    if spacing_mid <= 0:
        spacing_mid = max((energies[-1] - energies[0]) / (len(energies) - 1), 1e-12)
    dt = spacing_factor * np.pi / spacing_mid
    weights = decomp.vectors[i, :] ** 2
    e_mean = weights @ energies
    width = np.sqrt(max(weights @ (energies - e_mean) ** 2, 0.0))
    t0 = max(dt, 50.0 / width) if width > 0 else dt
    return t0 + dt * np.arange(samples)


def compound_occupations(decomp: EigenDecomposition, basis: Basis, k: int) -> np.ndarray:
    """Orbital occupation numbers inside exact eigenstate k."""
    if not 0 <= k < decomp.size:
        raise PreconditionError(f"eigenstate index {k} outside [0, {decomp.size})")
    return occupancy_matrix(basis) @ (decomp.vectors[:, k] ** 2)


def smoothed_weight_density(profile: StrengthProfile, nodes: np.ndarray, bandwidth: float):
    """Gaussian-kernel smoothing of the weights w_k into a weight density at ``nodes``."""
    z = (nodes[:, None] - profile.energies[None, :]) / bandwidth
    kernel = np.exp(-0.5 * z * z) / (bandwidth * np.sqrt(2 * np.pi))
    return kernel @ profile.weights


def kernel_density(energies: np.ndarray, nodes: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian-kernel level density of ``energies`` at ``nodes``; it integrates to their count."""
    z = (nodes[:, None] - energies[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (bandwidth * np.sqrt(2 * np.pi))
