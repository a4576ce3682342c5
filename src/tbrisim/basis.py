"""Many-body Fock basis for n spinless fermions on m orbitals.

A basis state (Slater determinant) is stored as a plain integer bitmask:
bit s set means orbital s is occupied.  The reference ket is built by
applying creation operators in ascending orbital order to the vacuum, so a
state with occupied orbitals f1 < f2 < ... < fn means

    |f> = a+_{f1} a+_{f2} ... a+_{fn} |0>.

All fermionic signs in this package are derived from that single ordering
convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .exceptions import ParameterError, PreconditionError

FockState = int


@dataclass(frozen=True)
class Basis:
    """All binomial(m, n) states of n fermions on m orbitals.

    States are sorted by ascending bitmask value, so ``position`` finds a
    bitmask by binary search.
    """

    n: int
    m: int
    states: np.ndarray                       # int64, ascending bitmasks

    @property
    def size(self) -> int:
        return len(self.states)

    def position(self, state: FockState) -> int:
        """Index of ``state`` in ``states``; PreconditionError if it is not a basis state."""
        state = int(state)
        # outside [0, 2^m) a bitmask is no state, and may not fit an int64
        j = int(np.searchsorted(self.states, state)) if 0 <= state < 1 << self.m else self.size
        if j == self.size or self.states[j] != state:
            raise PreconditionError(
                f"state {state:#x} is not an {self.n}-particle state on {self.m} orbitals"
            )
        return j


@dataclass(frozen=True)
class ClassPartition:
    """Partition of a basis by two-body distance from a reference state.

    ``class_of[j]`` is the minimal number of two-body moves from the
    reference to basis state j.  One move relocates one or two particles,
    so class 1 is exactly the set of states directly coupled by a two-body
    interaction (Hamming distance 2 or 4 from the reference).
    """

    reference: FockState
    class_of: np.ndarray    # int64, one entry per basis state
    n_classes: int          # class-index bound, min(n, m - n)
    sizes: np.ndarray       # occupancy count per class, length n_classes + 1

    def members(self, cls: int) -> np.ndarray:
        return np.nonzero(self.class_of == cls)[0]


def build_basis(n: int, m: int) -> Basis:
    """Enumerate all n-of-m occupation bitmasks in ascending order."""
    if n <= 0 or n > m:
        raise ParameterError(f"need 0 < n <= m, got n={n}, m={m}")
    return Basis(n=n, m=m, states=basis_states(n, m))


def check_index(i: int, size: int) -> None:
    """PreconditionError unless 0 <= i < size: a negative basis index is refused too."""
    if not 0 <= i < size:
        raise PreconditionError(f"basis index {i} outside [0, {size})")


@functools.lru_cache(maxsize=2)
def basis_states(n: int, m: int) -> np.ndarray:
    """The ascending int64 bitmasks of ``build_basis(n, m)``; read-only, shared through the cache."""
    masks = sorted(
        sum(1 << s for s in occ) for occ in combinations(range(m), n)
    )
    states = np.array(masks, dtype=np.int64)
    assert len(states) == comb(m, n)
    states.flags.writeable = False
    return states


def classify(basis: Basis, reference: FockState) -> ClassPartition:
    """Group basis states by the number of two-body moves from ``reference``.

    A state whose occupancy differs in j particles (Hamming distance 2j) is
    ceil(j/2) moves away, because each two-body move relocates at most two
    particles.  Class sizes are reported up to the bound min(n, m - n);
    classes above the largest reachable move count are empty.
    """
    ref = int(reference)
    basis.position(ref)
    n_classes = min(basis.n, basis.m - basis.n)
    moved = np.bitwise_count(basis.states ^ ref).astype(np.int64) // 2
    class_of = (moved + 1) // 2
    sizes = np.bincount(class_of, minlength=n_classes + 1)
    return ClassPartition(
        reference=ref, class_of=class_of, n_classes=n_classes, sizes=sizes
    )


def occupancy_matrix(basis: Basis) -> np.ndarray:
    """(m, N) 0/1 matrix; row alpha flags the states occupying orbital alpha."""
    return occupation_bits(basis.states, basis.m).astype(np.float64)


def occupation_bits(states: np.ndarray, m: int) -> np.ndarray:
    """(m, N) int64 0/1 array: entry [alpha, j] is bit alpha of ``states[j]``."""
    return (states >> np.arange(m)[:, None]) & 1
