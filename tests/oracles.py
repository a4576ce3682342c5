"""Independent reference implementations used only to check the package.

Everything here is built from different machinery than the code under
test: fermion operators as explicit Jordan-Wigner matrices (kron products),
signs from list transpositions, time evolution through the
scaling-and-squaring matrix exponential, and the Hamiltonian assembled
entry by entry with scalar fermionic phases.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.linalg import expm

from tbrisim.basis import Basis, fermionic_phase, occupied_orbitals
from tbrisim.exceptions import ParameterError
from tbrisim.hamiltonian import HamiltonianMatrix, SingleParticleSpectrum, TwoBodyTensor

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


def expm_amplitudes(h_entries: np.ndarray, i: int, t: float) -> np.ndarray:
    """Column i of exp(-i H t) via scipy's scaling-and-squaring expm."""
    u = expm(-1j * h_entries * t)
    return u[:, i]


def loop_hamiltonian(
    basis: Basis,
    spectrum: SingleParticleSpectrum,
    tensor: TwoBodyTensor,
    *,
    one_orbital_terms: bool = True,
    diagonal_pair_terms: bool = True,
) -> HamiltonianMatrix:
    """Assemble the dense symmetric matrix of H0 + V on the basis.

    Matrix elements follow the two-body selection rule: states differing in
    more than two orbitals are not connected.  ``one_orbital_terms`` and
    ``diagonal_pair_terms`` switch off the spectator-summed single-move
    elements and the V contribution to the diagonal, for comparing
    conventions of the random-interaction ensemble.
    """
    if spectrum.m != basis.m or tensor.m != basis.m:
        raise ParameterError(
            f"inconsistent orbital counts: basis m={basis.m}, "
            f"spectrum m={spectrum.m}, tensor m={tensor.m}"
        )
    eps = spectrum.epsilon.tolist()
    v = tensor.matrix.tolist()
    pair_index = tensor.pair_index
    index = basis.index
    n_states = basis.size
    entries = np.zeros((n_states, n_states))
    all_orbitals = range(basis.m)

    for fi, f_np in enumerate(basis.states):
        f = int(f_np)
        occ = occupied_orbitals(f)
        unocc = tuple(s for s in all_orbitals if not f >> s & 1)

        diag = sum(eps[s] for s in occ)
        if diagonal_pair_terms:
            for pq in combinations(occ, 2):
                a = pair_index[pq]
                diag += v[a][a]
        entries[fi, fi] = diag

        for pq in combinations(occ, 2):
            a = pair_index[pq]
            removed = f ^ (1 << pq[0]) ^ (1 << pq[1])
            for rs in combinations(unocc, 2):
                g = removed | (1 << rs[0]) | (1 << rs[1])
                gi = index[g]
                if gi < fi:
                    continue  # already filled from the partner row
                sign = fermionic_phase(f, pq, rs)
                entries[fi, gi] = entries[gi, fi] = sign * v[a][pair_index[rs]]

        if one_orbital_terms:
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
                        element += fermionic_phase(f, ps, qs) * v[pair_index[ps]][pair_index[qs]]
                    entries[fi, gi] = entries[gi, fi] = element

    return HamiltonianMatrix(entries=entries, basis=basis)
