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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import Basis, basis_states, occupation_bits
from .exceptions import ParameterError

INDEX_BLOCK = 2**15   # moves of a kind generated together: 2**16 cost 0.9 MB ensemble peak RSS
BAND_BYTES = 2**18    # bytes of H filled together: positions in a band stay int16
_SPECTRUM_STREAM = 0
_TENSOR_STREAM = 1


@dataclass(frozen=True)
class ModelParams:
    """Defining parameters of one disorder realization.

    eta is the mean squared two-body element in units of the squared
    ladder spacing; jitter displaces each single-particle level by jitter*u
    spacings with u uniform on [-1/2, 1/2].  The seed fixes both the level
    jitter and the tensor.  The seed is non-negative, and m is at most 63,
    since a basis state is an int64 bitmask.

    eta lies in [0, 1e300], where every stage's arithmetic stays finite.  H
    scales as sqrt(eta) at large eta, so the largest square a run forms
    overflows first.  The line-shape fits square only numbers in units of
    Delta_E, so that square is (E_k - E_i)^2 in the profile's Delta_E^2, at
    most span^2.  With c eta the mean of sum_f H_if^2, c = n (m - n) (n - 1)
    + C(n, 2) C(m - n, 2), the span is 3.3-5.2 sqrt(c eta) over 13 bases up
    to N=3432, seeds 1-5, so span^2 < 36 c eta stays finite at eta 1e300
    while c < 4.9e6; c <= 261,392 for every m <= 63 (n=32, m=63).
    Runs overflow from eta 1e305 at n=6, m=12 and from 1e307 at n=3, m=6.  A
    larger bound would show nothing new: H / sqrt(eta) tends to one matrix,
    and every fit scales with it.
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
        if not self.eta <= 1e300:   # NaN fails too
            raise ParameterError(f"eta must be finite and at most 1e300, got {self.eta}")
        if self.eta < 0:
            raise ParameterError(f"eta must be non-negative, got {self.eta}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.jitter < 1:
            raise ParameterError(f"jitter must lie in [0, 1), got {self.jitter}")


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense symmetric many-body matrix together with its basis."""

    entries: np.ndarray
    basis: Basis

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)


def sample_spectrum(params: ModelParams) -> np.ndarray:
    """Ascending orbital energies: the ladder eps_s = s with optional seeded uniform jitter."""
    eps = np.arange(params.m, dtype=float)
    if params.jitter > 0:
        rng = np.random.default_rng([params.seed, _SPECTRUM_STREAM])
        eps = eps + params.jitter * (rng.random(params.m) - 0.5)
    return np.sort(eps)


def sample_two_body(params: ModelParams) -> np.ndarray:
    """Draw the symmetric Gaussian (P, P) pair-pair table, P = m(m-1)/2, its rows and columns
    the pairs (p, q), p < q, in lexicographic order: elements (a <= b), row-major, then mirrored."""
    n_pairs = params.m * (params.m - 1) // 2
    rng = np.random.default_rng([params.seed, _TENSOR_STREAM])
    upper = np.sqrt(params.eta) * rng.standard_normal(n_pairs * (n_pairs + 1) // 2)
    rows, cols = _upper_triangle(n_pairs)
    matrix = np.zeros((n_pairs, n_pairs))
    matrix[rows, cols] = matrix[cols, rows] = upper
    return matrix


@functools.lru_cache(maxsize=2)
def _upper_triangle(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n_pairs)``; read-only, shared by every draw through the cache."""
    rows, cols = np.triu_indices(n_pairs)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def build_hamiltonian(basis: Basis, epsilon: np.ndarray, tensor: np.ndarray) -> HamiltonianMatrix:
    """Assemble the dense symmetric matrix of H0 + V on the basis from the orbital energies
    and the pair-pair table of ``sample_two_body``, which must be (P, P) for the basis's m
    and exactly symmetric: an asymmetric V would build H from one half of the table.

    Matrix elements follow the two-body selection rule: states differing in
    more than two orbitals are not connected.  A one-orbital move sums its
    spectators' two-body elements, and the diagonal holds the pair energies.

    Which entries couple, through which tensor element and with which
    fermionic sign depends only on (n, m), not on the seed, eta or the level
    jitter.  That coupling structure is computed once per (n, m) and cached
    for the two most recent sizes.  It points each element of H at its value
    in ``ext = concat(V.ravel(), -V.ravel(), epsilon, sums, [0.0], diagonal)``:
    the sums of the K1 one-orbital entries above the diagonal, each over its
    n - 1 spectator terms, which an entry below shares with its upper partner.
    A two-orbital entry takes its own row's signed element, which is its
    partner's, since V is symmetric and a move's sign is its reverse's.

    H is filled in bands of ``_band_rows(N)`` rows, at most ``BAND_BYTES``,
    which stay in L2 while written, and a band's indices are cast into a
    reused intp buffer: numpy indexes fast only with contiguous intp arrays.
    The structure's layout is chosen by size.  It is dense exactly when every
    ext index fits int16, as up to N=924 (n=6, m=12; ext has 26,281 entries):
    an (N, N) int16 ``template`` of 1.91 MB holds every element's ext index,
    and a band is one ``np.take`` into a fresh H.  Its ``mode="clip"`` skips
    take's per-element bounds check, which measured slower than the sparse
    layout; it would clamp a bad index silently, so ``_couplings`` checks
    every index once.  Beyond that the structure is sparse: each entry off
    the diagonal, row by row, with its position from its band's first
    element (int16 up to N=32768) and its ext index, 8.3 MB at N=3432
    (n=7, m=14; an int32 template would take 47 MB).  H is allocated zeroed,
    and a band scatters its entries and takes its diagonal.

    The terms of an entry are added in a fixed order: orbital energies in
    ascending orbital order, then the pair terms, and the spectators of a
    one-orbital move in ascending orbital order; a two-orbital entry has one
    term and is assigned.  That is the order of a plain loop over states and
    moves that fills both triangles from the upper row, so H is bitwise what
    such a loop gives, and exactly symmetric.
    """
    if len(epsilon) != basis.m:
        raise ParameterError(
            f"inconsistent orbital counts: basis m={basis.m}, spectrum m={len(epsilon)}"
        )
    n_pairs = basis.m * (basis.m - 1) // 2
    if tensor.shape != (n_pairs, n_pairs):
        raise ParameterError(f"tensor for m={basis.m} needs shape {(n_pairs,) * 2}, "
                             f"got {tensor.shape}")
    if not np.array_equal(tensor, tensor.T):
        raise ParameterError("two-body tensor must be symmetric in its pair indices")
    couplings = _couplings(basis.n, basis.m)
    v = tensor.ravel()
    n_states, n_sums, first_sum = basis.size, couplings.move1_term.shape[1], 2 * v.size + basis.m
    ext = np.concatenate((v, -v, epsilon, np.zeros(n_sums + 1 + n_states)))
    sums = ext[first_sum:first_sum + n_sums]   # +0.0 start, as the plain loop
    for rank_terms in couplings.move1_term:
        sums += ext[rank_terms.astype(np.intp)]
    diagonal = ext[first_sum + n_sums + 1:]
    for terms in couplings.diagonal:
        diagonal += ext[terms.astype(np.intp)]

    rows = _band_rows(n_states)
    if couplings.template is not None:
        entries = np.empty((n_states, n_states))
        flat, index = entries.reshape(-1), np.empty(rows * n_states, np.intp)
        for first in range(0, n_states * n_states, rows * n_states):
            band = couplings.template.reshape(-1)[first:first + rows * n_states]
            index[:band.size] = band
            np.take(ext, index[:band.size], out=flat[first:first + band.size], mode="clip")
        return HamiltonianMatrix(entries=entries, basis=basis)

    split, width = couplings.move2_source.shape[1], couplings.at.shape[1]
    at, source = np.empty((rows, width), np.intp), np.empty((rows, width), np.intp)
    entries = np.zeros((n_states, n_states))   # zeroed once, by calloc or the kernel
    flat = entries.reshape(-1)   # writable view
    for first in range(0, n_states, rows):
        band = slice(first, first + rows)
        count = len(couplings.at[band])
        at[:count] = couplings.at[band]
        source[:count, :split] = couplings.move2_source[band]
        source[:count, split:] = couplings.move1_source[band]
        block = flat[first * n_states:(first + count) * n_states]
        block[at[:count].reshape(-1)] = ext[source[:count].reshape(-1)]
        block[first::n_states + 1] = diagonal[band]

    return HamiltonianMatrix(entries=entries, basis=basis)


def _band_rows(n_states: int) -> int:
    """Rows of ``BAND_BYTES`` of H, at least one: 35 at N=924, where 17 and 70 were slower."""
    return max(1, BAND_BYTES // (8 * n_states))


@dataclass(frozen=True)
class _Couplings:
    """Coupling structure of H for one (n, m); see ``build_hamiltonian``.  Each of the
    N = C(m, n) states has M2 = C(n,2) C(m-n,2) two-orbital and M1 = n (m-n) one-orbital
    moves, and K1 = N M1 / 2 one-orbital entries lie above the diagonal."""

    diagonal: np.ndarray      # (n + C(n,2), N): orbital energies, then pair terms
    move1_term: np.ndarray    # (n - 1, K1): upper one-orbital terms, by spectator rank
    template: np.ndarray | None = None      # dense (N, N) int16: ext index of each element of H
    at: np.ndarray | None = None            # sparse (N, M2 + M1): each entry's offset in its band
    move2_source: np.ndarray | None = None  # (N, M2): ext index of each two-orbital signed element
    move1_source: np.ndarray | None = None  # (N, M1): ext index of each one-orbital entry's sum


@functools.lru_cache(maxsize=2)
def _couplings(n: int, m: int) -> _Couplings:
    """Axes (state, occupied orbital or pair, free orbital or pair).  The layout is dense exactly
    when the largest ext index, 2P^2 + m + K1 + N, fits int16 (the largest such N is 924), and the
    template's range is checked once here, so ``np.take(mode="clip")`` has nothing to clamp.  One
    loop writes either layout, over blocks of consecutive states, at most ``INDEX_BLOCK`` moves of
    a kind per block (or one state), so the int64 temporaries stay bounded: a cold build peaks at
    3.7 MB at N=924 and 12.0 MB at N=3432 under tracemalloc, of which 1.91 and 8.3 MB are kept.
    A move from f is above the diagonal exactly when its target exceeds f, as the basis is sorted;
    it takes its own sum, and one below its partner's, found by the move back in ``move1_source``.
    Only one-orbital targets are searched for: a two-orbital move is two one-orbital ones."""
    states = basis_states(n, m)
    n_states, n_pairs = len(states), m * (m - 1) // 2
    bits = occupation_bits(states, m).T.astype(bool)
    occ = np.nonzero(bits)[1].reshape(n_states, n)          # ascending per state
    free = np.nonzero(~bits)[1].reshape(n_states, m - n)

    def pair(p, q):
        """Index of (p, q), p < q, in the lexicographic pair order of the tensor."""
        return p * (2 * m - p - 1) // 2 + q - p - 1

    def move(state, p, r):
        """Index among the one-orbital moves of ``state`` of the move from occupied p to free r."""
        return (np.bitwise_count(state & (1 << p) - 1).astype(np.intp) * (m - n)
                + r - np.bitwise_count(state & (1 << r) - 1))

    def term(state, a1, a2, c1, c2):
        """Signed element V[(a1,a2),(c1,c2)] of <g| a+_c1 a+_c2 a_a2 a_a1 |state>."""
        index = _sign_bit(state, a1, a2, c1, c2)
        index *= n_pairs**2   # in place: no second full-size temporary
        index += pair(a1, a2) * n_pairs
        index += pair(c1, c2)
        return index

    occ_pairs = np.array(list(combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    free_pairs = np.array(list(combinations(range(m - n), 2)), dtype=np.intp).reshape(-1, 2)
    n_move2, n_move1 = len(occ_pairs) * len(free_pairs), n * (m - n)
    n_sums, band, first_sum = n_states * n_move1 // 2, _band_rows(n_states), 2 * n_pairs**2 + m
    zero = first_sum + n_sums   # ext index of the 0.0; the diagonal's slots follow it
    dense = _index_dtype(zero + n_states) is np.int16
    term_type = _index_dtype(first_sum - 1)
    fields = {"diagonal": np.empty((n + len(occ_pairs), n_states), term_type),
              "move1_term": np.empty((n - 1, n_sums), term_type)}
    move1_source = np.empty((n_states, n_move1), _index_dtype(zero - 1))   # kept if sparse
    if dense:
        fields["template"] = np.full((n_states, n_states), zero, np.int16)
    else:
        fields |= {"at": np.empty((n_states, n_move2 + n_move1), _index_dtype(band * n_states - 1)),
                   "move2_source": np.empty((n_states, n_move2), term_type),
                   "move1_source": move1_source}
    structure = _Couplings(**fields)
    template = structure.template

    structure.diagonal[:n] = 2 * n_pairs**2 + occ.T
    for row, (a1, a2) in zip(structure.diagonal[n:], occ_pairs):
        row[:] = (n_pairs + 1) * pair(occ[:, a1], occ[:, a2])
    if dense:
        np.fill_diagonal(template, np.arange(zero + 1, zero + 1 + n_states))

    one_move = np.searchsorted(states, states[:, None, None] ^ (1 << occ[:, :, None])
                               ^ (1 << free[:, None, :])).reshape(n_states, -1)
    step = max(1, INDEX_BLOCK // max(n_move2, n_move1, 1))
    end = 0
    for first in range(0, n_states, step):
        block = slice(first, first + step)
        f = states[block, None, None]
        occ_f, free_f, count = occ[block], free[block], len(f)
        row = np.arange(first, first + count)[:, None]

        p, q = occ_f[:, occ_pairs[:, 0], None], occ_f[:, occ_pairs[:, 1], None]
        r, s = free_f[:, None, free_pairs[:, 0]], free_f[:, None, free_pairs[:, 1]]
        via = one_move[block][:, occ_pairs[:, 0, None] * (m - n) + free_pairs[:, 0]]   # p to r
        move2_cols = one_move[via, move(f ^ (1 << p) | (1 << r), q, s)].reshape(count, -1)  # q to s
        move2_terms = term(f, p, q, r, s).reshape(count, -1)

        p, r = occ_f[:, :, None], free_f[:, None, :]
        targets, cols = f ^ (1 << p) ^ (1 << r), one_move[block]
        upper = targets > f
        start, end = end, end + np.count_nonzero(upper)
        for rank in range(n - 1):   # spectators in ascending orbital order
            s = occ_f[:, rank + (rank >= np.arange(n)), None]
            structure.move1_term[rank, start:end] = term(
                f, np.minimum(p, s), np.maximum(p, s), np.minimum(r, s), np.maximum(r, s))[upper]
        upper, source = upper.reshape(count, -1), move1_source[block]
        source[upper] = np.arange(first_sum + start, first_sum + end)
        reverse = move(targets, r, p).reshape(count, -1)   # the move back, from g to f
        source[~upper] = move1_source[cols[~upper], reverse[~upper]]   # in an earlier row
        if dense:
            template[row, move2_cols] = move2_terms
            template[row, cols] = source
        else:
            structure.at[block] = row % band * n_states + np.hstack((move2_cols, cols))
            structure.move2_source[block] = move2_terms
        del move2_cols, move2_terms   # kept into the next block, they cost 0.5 MB cold peak

    if dense:
        _check_template(template, zero + 1 + n_states)
    for array in vars(structure).values():
        if array is not None:
            array.flags.writeable = False   # shared by every caller through the cache
    return structure


def _check_template(template: np.ndarray, n_ext: int) -> None:
    """Refuse an index outside ``ext`` (a bare assert would go under ``python -O``)."""
    if template.min() < 0 or template.max() >= n_ext:
        raise AssertionError(f"a template index lies outside ext[0:{n_ext}]")


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
