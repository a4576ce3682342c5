"""Random two-body interaction Hamiltonian H = H0 + V on the Fock basis.

H0 is a fixed single-particle ladder (mean spacing d0, optional uniform
jitter); V is a Gaussian random two-body operator

    V = sum_{p<q, r<s} V[(p,q),(r,s)] a+_p a+_q a_s a_r,

with one independent draw per unordered pair of index pairs and
V[(p,q),(r,s)] = V[(r,s),(p,q)], so V is real symmetric.  The dimensionless
strength eta fixes the element variance: var(V) = eta * d0**2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import Basis, basis_states, occupation_bits
from .exceptions import ParameterError

_SPECTRUM_STREAM = 0
_TENSOR_STREAM = 1


@dataclass(frozen=True)
class ModelParams:
    """Defining parameters of one disorder realization.

    eta is the mean squared two-body element in units of d0**2; jitter
    displaces each single-particle level by jitter*d0*u with u uniform on
    [-1/2, 1/2].  The seed fixes both the level jitter and the tensor.
    eta and d0 must be finite.
    """

    n: int
    m: int
    eta: float
    seed: int
    d0: float = 1.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.n <= 0 or self.n > self.m:
            raise ParameterError(f"need 0 < n <= m, got n={self.n}, m={self.m}")
        if not (math.isfinite(self.eta) and math.isfinite(self.d0)):
            raise ParameterError(f"eta and d0 must be finite, got eta={self.eta}, d0={self.d0}")
        if self.d0 <= 0:
            raise ParameterError(f"d0 must be positive, got {self.d0}")
        if self.eta < 0:
            raise ParameterError(f"eta must be non-negative, got {self.eta}")
        if not 0 <= self.jitter < 1:
            raise ParameterError(f"jitter must lie in [0, 1), got {self.jitter}")


@dataclass(frozen=True)
class SingleParticleSpectrum:
    """Ascending orbital energies eps_s."""

    epsilon: np.ndarray

    @property
    def m(self) -> int:
        return len(self.epsilon)

    def mean_spacing(self) -> float:
        return float(self.epsilon[-1] - self.epsilon[0]) / (self.m - 1)


class TwoBodyTensor:
    """Symmetric table of two-body amplitudes indexed by orbital pairs.

    Pairs (p, q) with p < q are enumerated lexicographically; ``matrix`` is
    the (P, P) symmetric array of amplitudes between pair indices.
    """

    def __init__(self, m: int, matrix: np.ndarray):
        pairs = list(combinations(range(m), 2))
        if matrix.shape != (len(pairs), len(pairs)):
            raise ParameterError(
                f"tensor for m={m} needs shape {(len(pairs),) * 2}, got {matrix.shape}"
            )
        if not np.array_equal(matrix, matrix.T):
            raise ParameterError("two-body tensor must be symmetric in its pair indices")
        self.m = m
        self.pairs = pairs
        self.pair_index = {pq: a for a, pq in enumerate(pairs)}
        self.matrix = matrix

    def element(self, p: int, q: int, r: int, s: int) -> float:
        """Amplitude V[(p,q),(r,s)]; requires p < q and r < s."""
        return float(self.matrix[self.pair_index[(p, q)], self.pair_index[(r, s)]])


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense symmetric many-body matrix together with its basis."""

    entries: np.ndarray
    basis: Basis

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)


def sample_spectrum(params: ModelParams) -> SingleParticleSpectrum:
    """Equidistant ladder eps_s = d0*s with optional seeded uniform jitter."""
    rng = np.random.default_rng([params.seed, _SPECTRUM_STREAM])
    eps = params.d0 * np.arange(params.m, dtype=float)
    if params.jitter > 0:
        eps = eps + params.jitter * params.d0 * (rng.random(params.m) - 0.5)
    return SingleParticleSpectrum(epsilon=np.sort(eps))


def sample_two_body(params: ModelParams) -> TwoBodyTensor:
    """Draw the symmetric Gaussian pair-pair table, one draw per canonical element."""
    n_pairs = params.m * (params.m - 1) // 2
    rng = np.random.default_rng([params.seed, _TENSOR_STREAM])
    scale = np.sqrt(params.eta) * params.d0
    matrix = np.zeros((n_pairs, n_pairs))
    # Row-major upper triangle, mirrored: each (a <= b) element is one draw.
    for a in range(n_pairs):
        row = scale * rng.standard_normal(n_pairs - a)
        matrix[a, a:] = row
        matrix[a:, a] = row
    return TwoBodyTensor(params.m, matrix)


def build_hamiltonian(
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

    Which entries couple, through which tensor element and with which
    fermionic sign depends only on (n, m), not on the seed, eta or the level
    jitter.  That coupling structure is computed once per (n, m) and cached
    for the two most recent sizes.  For every basis state it holds each term
    of that state's row, as an index into the table
    ``concat(V.ravel(), -V.ravel(), epsilon)``, and the column each move
    reaches: n orbital energies and C(n,2) pair terms on the diagonal, one
    term per two-orbital move, and n - 1 spectator terms per one-orbital
    move.  Indices are int16 while N and the table fit, wider beyond: 1.3 MB
    at N=924 (n=6, m=12), 8.6 MB at N=3432 (n=7, m=14).  With one row per
    state, assembly is one gather and one row-wise scatter per move kind.

    The terms of an entry are added in a fixed order: orbital energies in
    ascending orbital order, then the pair terms, and the spectators of a
    one-orbital move in ascending orbital order; a two-orbital entry has one
    term and is assigned.  That is the order of a plain loop over states and
    moves, so H is bitwise what such a loop gives, whatever way the structure
    was computed, and exactly symmetric, since each triangle is filled from
    its own row with the same terms.
    """
    if spectrum.m != basis.m or tensor.m != basis.m:
        raise ParameterError(
            f"inconsistent orbital counts: basis m={basis.m}, "
            f"spectrum m={spectrum.m}, tensor m={tensor.m}"
        )
    couplings = _couplings(basis.n, basis.m)
    v = tensor.matrix.ravel()
    table = np.concatenate((v, -v, spectrum.epsilon))
    n_states = basis.size
    rows = np.arange(n_states)[:, None]
    entries = np.zeros((n_states, n_states))

    diagonal = entries.reshape(-1)[:: n_states + 1]   # writable view
    n_diagonal = len(couplings.diagonal) if diagonal_pair_terms else basis.n
    for terms in couplings.diagonal[:n_diagonal]:
        diagonal += table[terms]
    entries[rows, couplings.move2_col] = table[couplings.move2_term]
    if one_orbital_terms:
        summed = np.zeros(couplings.move1_col.shape)   # +0.0 start, as the plain loop
        for rank_terms in couplings.move1_term:
            summed += table[rank_terms]
        entries[rows, couplings.move1_col] = summed

    return HamiltonianMatrix(entries=entries, basis=basis)


@dataclass(frozen=True)
class _Couplings:
    """Coupling structure of H for one (n, m); see ``build_hamiltonian``.

    N = binomial(m, n) basis states; the move arrays have one row per state.
    A term is an index into ``concat(V.ravel(), -V.ravel(), epsilon)``.
    """

    diagonal: np.ndarray    # (n + C(n,2), N): orbital energies, then pair terms
    move2_col: np.ndarray   # (N, C(n,2) C(m-n,2)): target of each two-orbital move
    move2_term: np.ndarray  # same shape: its signed tensor element
    move1_col: np.ndarray   # (N, n (m-n)): target of each one-orbital move
    move1_term: np.ndarray  # (n - 1, N, n (m-n)): its terms, by spectator rank


@functools.lru_cache(maxsize=2)
def _couplings(n: int, m: int) -> _Couplings:
    """Vectorized over basis states; loops only over orbital-position pairs."""
    states = basis_states(n, m)
    n_states, n_pairs = len(states), m * (m - 1) // 2
    bits = occupation_bits(states, m).T
    occ = np.nonzero(bits)[1].reshape(n_states, n)          # ascending per state
    free = np.nonzero(1 - bits)[1].reshape(n_states, m - n)
    f = states[:, None]

    def pair(p, q):
        """Index of (p, q), p < q, in TwoBodyTensor.pairs."""
        return p * (2 * m - p - 1) // 2 + q - p - 1

    def term(a1, a2, c1, c2):
        """Signed element V[(a1,a2),(c1,c2)] of <g| a+_c1 a+_c2 a_a2 a_a1 |f>."""
        negative = _sign_bit(f, a1, a2, c1, c2)
        return negative * n_pairs**2 + pair(a1, a2) * n_pairs + pair(c1, c2)

    occ_pairs = list(combinations(range(n), 2))
    free_pairs = np.array(list(combinations(range(m - n), 2)), dtype=np.intp).reshape(-1, 2)
    n_move2, n_move1 = len(occ_pairs) * len(free_pairs), n * (m - n)
    # One allocation backs every field: five separate arrays measured about
    # 2 MB more peak RSS in the dense work that follows at N=924.
    block_rows = np.empty(
        (n + len(occ_pairs) + 2 * n_move2 + n * n_move1, n_states),
        _index_dtype(max(n_states - 1, 2 * n_pairs**2 + m - 1)),
    )
    diagonal, move2_col, move2_term, move1_col, move1_term = np.split(
        block_rows, np.cumsum([n + len(occ_pairs), n_move2, n_move2, n_move1])
    )
    move2_col, move2_term, move1_col = (
        a.reshape(n_states, -1) for a in (move2_col, move2_term, move1_col))
    move1_term = move1_term.reshape(n - 1, n_states, n_move1)

    diagonal[:n] = 2 * n_pairs**2 + occ.T
    r, s = free[:, free_pairs[:, 0]], free[:, free_pairs[:, 1]]
    for c, (j, k) in enumerate(occ_pairs):
        p, q = occ[:, j:j + 1], occ[:, k:k + 1]
        diagonal[n + c] = (n_pairs + 1) * pair(p, q)[:, 0]
        block = slice(c * len(free_pairs), (c + 1) * len(free_pairs))
        move2_col[:, block] = np.searchsorted(states, f ^ (1 << p) ^ (1 << q) | (1 << r) | (1 << s))
        move2_term[:, block] = term(p, q, r, s)

    for j in range(n):
        p, block = occ[:, j:j + 1], slice(j * (m - n), (j + 1) * (m - n))
        move1_col[:, block] = np.searchsorted(states, f ^ (1 << p) ^ (1 << free))
        for rank, k in enumerate(k for k in range(n) if k != j):
            s = occ[:, k:k + 1]
            move1_term[rank, :, block] = term(np.minimum(p, s), np.maximum(p, s),
                                              np.minimum(free, s), np.maximum(free, s))

    structure = _Couplings(diagonal, move2_col, move2_term, move1_col, move1_term)
    for array in vars(structure).values():
        array.flags.writeable = False   # shared by every caller through the cache
    return structure


def _sign_bit(state, a1, a2, c1, c2) -> np.ndarray:
    """1 where the sign of <g| a+_c1 a+_c2 a_a2 a_a1 |f>, f = ``state``, is -1, else 0.

    ``fermionic_phase`` in ``tests/oracles.py`` is its one-state reference.
    """
    parity = 0
    for orb, create in ((a1, False), (a2, False), (c2, True), (c1, True)):
        bit = 1 << orb
        parity = parity + np.bitwise_count(state & (bit - 1))
        state = state | bit if create else state & ~bit
    # bitwise_count gives uint8: widen before the result is scaled into a term.
    return (parity & 1).astype(np.int64)


def _index_dtype(largest: int) -> type[np.signedinteger]:
    """Narrowest of int16/int32/int64 that holds every index up to ``largest``."""
    return next(t for t in (np.int16, np.int32, np.int64) if largest <= np.iinfo(t).max)
