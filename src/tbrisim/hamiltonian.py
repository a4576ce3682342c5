"""Random two-body interaction Hamiltonian H = H0 + V on the Fock basis.

H0 is a fixed single-particle ladder of unit mean spacing (optional
uniform jitter); V is a Gaussian random two-body operator

    V = sum_{p<q, r<s} V[(p,q),(r,s)] a+_p a+_q a_s a_r,

with one independent draw per unordered pair of index pairs and
V[(p,q),(r,s)] = V[(r,s),(p,q)], so V is real symmetric.  The dimensionless
strength eta fixes the element variance: var(V) = eta.  Energies are in
units of the ladder spacing d0: a ladder of spacing d0 gives d0 times this H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import Basis, basis_states, occupation_bits
from .exceptions import ParameterError

INDEX_BLOCK = 2**16   # entries of a move kind indexed together
_SPECTRUM_STREAM = 0
_TENSOR_STREAM = 1


@dataclass(frozen=True)
class ModelParams:
    """Defining parameters of one disorder realization.

    eta is the mean squared two-body element in units of the squared
    ladder spacing; jitter displaces each single-particle level by jitter*u
    spacings with u uniform on [-1/2, 1/2].  The seed fixes both the level
    jitter and the tensor.  eta must be finite, and the seed non-negative;
    m is at most 63, since a basis state is an int64 bitmask.
    """

    n: int
    m: int
    eta: float
    seed: int
    jitter: float = 0.0

    def __post_init__(self):
        if self.n <= 0 or self.n > self.m:
            raise ParameterError(f"need 0 < n <= m, got n={self.n}, m={self.m}")
        if self.m > 63:
            raise ParameterError(f"m must be at most 63 (an int64 bitmask), got m={self.m}")
        if not math.isfinite(self.eta):
            raise ParameterError(f"eta must be finite, got {self.eta}")
        if self.eta < 0:
            raise ParameterError(f"eta must be non-negative, got {self.eta}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.jitter < 1:
            raise ParameterError(f"jitter must lie in [0, 1), got {self.jitter}")


@dataclass(frozen=True)
class SingleParticleSpectrum:
    """Ascending orbital energies eps_s."""

    epsilon: np.ndarray

    @property
    def m(self) -> int:
        return len(self.epsilon)


class TwoBodyTensor:
    """Symmetric table of two-body amplitudes indexed by orbital pairs.

    Pairs (p, q) with p < q are enumerated lexicographically; ``matrix`` is
    the (P, P) symmetric array of amplitudes between pair indices.
    """

    def __init__(self, m: int, matrix: np.ndarray):
        n_pairs = m * (m - 1) // 2
        if matrix.shape != (n_pairs, n_pairs):
            raise ParameterError(f"tensor for m={m} needs shape {(n_pairs,) * 2}, "
                                 f"got {matrix.shape}")
        if not np.array_equal(matrix, matrix.T):
            raise ParameterError("two-body tensor must be symmetric in its pair indices")
        self.m = m
        self.matrix = matrix


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
    """Equidistant ladder eps_s = s with optional seeded uniform jitter."""
    eps = np.arange(params.m, dtype=float)
    if params.jitter > 0:
        rng = np.random.default_rng([params.seed, _SPECTRUM_STREAM])
        eps = eps + params.jitter * (rng.random(params.m) - 0.5)
    return SingleParticleSpectrum(epsilon=np.sort(eps))


def sample_two_body(params: ModelParams) -> TwoBodyTensor:
    """Draw the symmetric Gaussian pair-pair table: elements (a <= b), row-major, then mirrored."""
    n_pairs = params.m * (params.m - 1) // 2
    rng = np.random.default_rng([params.seed, _TENSOR_STREAM])
    upper = np.sqrt(params.eta) * rng.standard_normal(n_pairs * (n_pairs + 1) // 2)
    rows, cols = np.triu_indices(n_pairs)
    matrix = np.zeros((n_pairs, n_pairs))
    matrix[rows, cols] = matrix[cols, rows] = upper
    return TwoBodyTensor(params.m, matrix)


def build_hamiltonian(
    basis: Basis, spectrum: SingleParticleSpectrum, tensor: TwoBodyTensor
) -> HamiltonianMatrix:
    """Assemble the dense symmetric matrix of H0 + V on the basis.

    Matrix elements follow the two-body selection rule: states differing in
    more than two orbitals are not connected.  A one-orbital move sums its
    spectators' two-body elements, and the diagonal holds the pair energies.

    Which entries couple, through which tensor element and with which
    fermionic sign depends only on (n, m), not on the seed, eta or the level
    jitter.  That coupling structure is computed once per (n, m) and cached
    for the two most recent sizes.  As indices into the table
    ``concat(V.ravel(), -V.ravel(), epsilon)`` it holds the n orbital energies
    and C(n,2) pair terms of each diagonal entry, and for each entry (f, g)
    above the diagonal the terms of the move from f to g (one for two
    orbitals, n - 1 spectators for one), with the flat positions of (f, g)
    and (g, f).  Terms are int16 up to m=16 and positions int32 up to
    N=46340: 1.38 MB at N=924 (n=6, m=12), 9.4 MB at N=3432 (n=7, m=14).

    Assembly walks each move kind in blocks of ``INDEX_BLOCK`` entries: it
    gathers a block's values from the table (summing the spectators of a
    one-orbital move), then scatters them to the upper row and to the mirror
    row.  numpy's fancy indexing is fast only with contiguous intp indices,
    so every gather and scatter index is cast from the stored narrow field
    one block at a time, never kept.  Those casts, the values and the
    spectator sum are at most four 8-byte arrays of one block, 2 MB beside H
    and its table (tracemalloc: +1.1 MB at N=924, +1.7 MB at N=3432).

    The terms of an entry are added in a fixed order: orbital energies in
    ascending orbital order, then the pair terms, and the spectators of a
    one-orbital move in ascending orbital order; a two-orbital entry has one
    term and is assigned.  That is the order of a plain loop over states and
    moves that fills both triangles from the upper row, so H is bitwise what
    such a loop gives, and exactly symmetric.
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
    entries = np.zeros((n_states, n_states))
    flat = entries.reshape(-1)   # writable view

    diagonal = flat[:: n_states + 1]
    for terms in couplings.diagonal:
        diagonal += table[terms.astype(np.intp)]
    for lo in range(0, couplings.move2_term.shape[0], INDEX_BLOCK):
        block = slice(lo, lo + INDEX_BLOCK)
        values = table[couplings.move2_term[block].astype(np.intp)]
        _scatter(flat, couplings.move2_at[:, block], values)
    for lo in range(0, couplings.move1_term.shape[1], INDEX_BLOCK):
        block = slice(lo, lo + INDEX_BLOCK)
        terms = couplings.move1_term[:, block]
        summed = np.zeros(terms.shape[1])   # +0.0 start, as the plain loop
        for rank_terms in terms:
            summed += table[rank_terms.astype(np.intp)]
        _scatter(flat, couplings.move1_at[:, block], summed)

    return HamiltonianMatrix(entries=entries, basis=basis)


def _scatter(flat: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """Write ``values`` at the flat positions ``at[0]`` above the diagonal, then at their
    mirrors ``at[1]``, each row cast to one contiguous intp index."""
    for positions in at:
        flat[positions.astype(np.intp)] = values


@dataclass(frozen=True)
class _Couplings:
    """Coupling structure of H for one (n, m); see ``build_hamiltonian``.  Of N = C(m, n)
    states, K2 = N C(n,2) C(m-n,2) / 2 and K1 = N n (m-n) / 2 entries lie above the diagonal."""

    move2_at: np.ndarray    # (2, K2): flat positions of the two-orbital moves, then mirrors
    move1_at: np.ndarray    # (2, K1): the same for the one-orbital moves
    diagonal: np.ndarray    # (n + C(n,2), N): orbital energies, then pair terms
    move2_term: np.ndarray  # (K2,): signed tensor element of each two-orbital move
    move1_term: np.ndarray  # (n - 1, K1): one-orbital terms, by spectator rank


@functools.lru_cache(maxsize=2)
def _couplings(n: int, m: int) -> _Couplings:
    """Axes (state, occupied orbital or pair, free orbital or pair).  A move from f reaches
    an entry above the diagonal exactly when its target bitmask exceeds f, since the basis
    is sorted; only those are looked up and kept.  The moves are generated for blocks of
    consecutive states, at most ``INDEX_BLOCK // 2`` moves of a kind per block (or one
    state), so the int64 temporaries stay bounded: a cold build peaks at 2.8 MB at N=924
    and 11.6 MB at N=3432 under tracemalloc, the structure itself included."""
    states = basis_states(n, m)
    n_states, n_pairs = len(states), m * (m - 1) // 2
    bits = occupation_bits(states, m).T.astype(bool)
    occ = np.nonzero(bits)[1].reshape(n_states, n)          # ascending per state
    free = np.nonzero(~bits)[1].reshape(n_states, m - n)

    def pair(p, q):
        """Index of (p, q), p < q, in the lexicographic pair order of ``TwoBodyTensor.matrix``."""
        return p * (2 * m - p - 1) // 2 + q - p - 1

    def term(state, a1, a2, c1, c2):
        """Signed element V[(a1,a2),(c1,c2)] of <g| a+_c1 a+_c2 a_a2 a_a1 |state>."""
        index = _sign_bit(state, a1, a2, c1, c2)
        index *= n_pairs**2   # in place: no second full-size temporary
        index += pair(a1, a2) * n_pairs
        index += pair(c1, c2)
        return index

    def place(at, done, first, targets, upper):
        """Write the flat positions the flagged moves of states ``first``, ... reach, row-major,
        then their mirrors, from entry ``done`` on; return the entry after the last."""
        rows = np.repeat(np.arange(first, first + len(targets)),
                         upper.reshape(len(targets), -1).sum(axis=1))
        cols = np.searchsorted(states, targets[upper])
        end = done + len(cols)
        at[0, done:end] = rows * n_states + cols
        at[1, done:end] = cols * n_states + rows
        return end

    occ_pairs = np.array(list(combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    free_pairs = np.array(list(combinations(range(m - n), 2)), dtype=np.intp).reshape(-1, 2)
    n_move2, n_move1 = n_states * len(occ_pairs) * len(free_pairs) // 2, n_states * n * (m - n) // 2
    # One allocation backs every field: separate arrays measured about 2 MB
    # more peak RSS in the dense work that follows at N=924.  Positions come
    # first; a term dtype is never more than twice as wide, so each field is aligned.
    at_type = np.dtype(_index_dtype(n_states**2 - 1))
    term_type = np.dtype(_index_dtype(2 * n_pairs**2 + m - 1))
    layout = {"move2_at": ((2, n_move2), at_type), "move1_at": ((2, n_move1), at_type),
              "diagonal": ((n + len(occ_pairs), n_states), term_type),
              "move2_term": ((n_move2,), term_type), "move1_term": ((n - 1, n_move1), term_type)}
    ends = np.cumsum([math.prod(shape) * dtype.itemsize for shape, dtype in layout.values()])
    blocks = np.split(np.empty(ends[-1], np.uint8), ends[:-1])
    structure = _Couplings(**{name: block.view(dtype).reshape(shape)
                              for (name, (shape, dtype)), block in zip(layout.items(), blocks)})

    structure.diagonal[:n] = 2 * n_pairs**2 + occ.T
    for row, (a1, a2) in zip(structure.diagonal[n:], occ_pairs):
        row[:] = (n_pairs + 1) * pair(occ[:, a1], occ[:, a2])

    # Half-size blocks here: with INDEX_BLOCK moves per block the ensemble workload's
    # peak RSS measured 0.9 MB higher (65.4 against 64.5 MB; numpy 2.4.6, glibc), and
    # the build no faster.
    step = max(1, INDEX_BLOCK // 2 // max(len(occ_pairs) * len(free_pairs), n * (m - n), 1))
    end2 = end1 = 0
    for first in range(0, n_states, step):
        f = states[first:first + step, None, None]
        occ_f, free_f = occ[first:first + step], free[first:first + step]

        p, q = occ_f[:, occ_pairs[:, 0], None], occ_f[:, occ_pairs[:, 1], None]
        r, s = free_f[:, None, free_pairs[:, 0]], free_f[:, None, free_pairs[:, 1]]
        targets = f ^ (1 << p) ^ (1 << q) | (1 << r) | (1 << s)
        upper = targets > f
        start, end2 = end2, place(structure.move2_at, end2, first, targets, upper)
        structure.move2_term[start:end2] = term(f, p, q, r, s)[upper]

        p, r = occ_f[:, :, None], free_f[:, None, :]
        targets = f ^ (1 << p) ^ (1 << r)
        upper = targets > f
        start, end1 = end1, place(structure.move1_at, end1, first, targets, upper)
        for rank in range(n - 1):   # spectators in ascending orbital order
            s = occ_f[:, rank + (rank >= np.arange(n)), None]
            structure.move1_term[rank, start:end1] = term(
                f, np.minimum(p, s), np.maximum(p, s), np.minimum(r, s), np.maximum(r, s))[upper]

    for array in vars(structure).values():
        array.flags.writeable = False   # shared by every caller through the cache
    return structure


def _sign_bit(state, a1, a2, c1, c2) -> np.ndarray:
    """1 where the sign of <g| a+_c1 a+_c2 a_a2 a_a1 |f>, f = ``state``, is -1, else 0.

    For a1 < a2 occupied and c1 < c2 free: each operator counts the occupied orbitals
    below it, so a_a1 a_a2 count f in [a1, a2) less a1 itself, and a+_c2 a+_c1 count
    f without a1, a2 in [c1, c2).  ``fermionic_phase`` in ``tests/oracles.py`` is its reference.
    """
    removed = state & ~(1 << a1) & ~(1 << a2)
    parity = (np.bitwise_count(state & ((1 << a1) - 1 ^ (1 << a2) - 1))
              + np.bitwise_count(removed & ((1 << c1) - 1 ^ (1 << c2) - 1)) + 1)
    # bitwise_count gives uint8: widen before the result is scaled into a term.
    return (parity & 1).astype(np.int64)


def _index_dtype(largest: int) -> type[np.signedinteger]:
    """Narrowest of int16/int32/int64 that holds every index up to ``largest``."""
    return next(t for t in (np.int16, np.int32, np.int64) if largest <= np.iinfo(t).max)
