"""Fock-basis construction, orbital bookkeeping, fermionic phases, classes."""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest

import tbrisim as tb
from tbrisim.basis import occupancy_matrix
from tbrisim.exceptions import ParameterError, PreconditionError

from oracles import (
    fermionic_phase,
    jw_annihilators,
    occupied_orbitals,
    orbital_difference,
    state_from_orbitals,
    transposition_sign,
)


def test_basis_size_paper_case():
    assert tb.build_basis(6, 12).size == 924


def test_basis_size_small():
    assert tb.build_basis(2, 4).size == 6


def test_basis_single_orbital():
    basis = tb.build_basis(1, 1)
    assert basis.size == 1
    assert basis.states.tolist() == [1]


@pytest.mark.parametrize("n,m", [(0, 4), (-1, 4), (5, 4)])
def test_basis_rejects_bad_counts(n, m):
    with pytest.raises(ParameterError):
        tb.build_basis(n, m)


def test_basis_canonical_order_and_index():
    basis = tb.build_basis(3, 7)
    states = basis.states
    assert np.all(np.diff(states) > 0)
    assert all(int(s).bit_count() == 3 for s in states)
    assert len(states) == comb(7, 3)
    for j, s in enumerate(states):
        assert basis.position(int(s)) == j
    with pytest.raises(PreconditionError):
        basis.position(0b1)  # wrong particle number


@pytest.mark.parametrize("state", [
    0b1,                 # one particle, not three
    0b10000011,          # three particles, one at orbital 7 = m
    1 << 9 | 0b11,       # three particles, one above m
    -0b111,              # negative, with three set bits
    -1,
    1 << 63 | 0b11,      # beyond int64
    1 << 100 | 0b11,
])
def test_position_refuses_a_bitmask_that_is_not_a_basis_state(state):
    """A bitmask with the wrong particle count, a bit at or above m, a negative int or one
    of 2^63 or more is a PreconditionError, never an OverflowError."""
    with pytest.raises(PreconditionError):
        tb.build_basis(3, 7).position(state)


def test_orbital_difference_examples():
    f = state_from_orbitals([0, 1])
    assert orbital_difference(f, f) == ((), ())
    g = state_from_orbitals([0, 2])
    assert orbital_difference(f, g) == ((1,), (2,))
    h = state_from_orbitals([2, 3])
    assert orbital_difference(f, h) == ((0, 1), (2, 3))


def test_orbital_difference_is_symmetric():
    rng = np.random.default_rng(3)
    basis = tb.build_basis(3, 6)
    for _ in range(50):
        f, g = (int(s) for s in rng.choice(basis.states, size=2))
        removed, added = orbital_difference(f, g)
        assert orbital_difference(g, f) == (added, removed)
        assert len(removed) == len(added)


def test_phase_identity_pair():
    state = state_from_orbitals([0, 1])
    assert fermionic_phase(state, (0, 1), (0, 1)) == 1


def test_phase_same_orbital_round_trip():
    state = state_from_orbitals([0, 1, 2])
    assert fermionic_phase(state, (0, 2), (0, 2)) == 1


def test_phase_round_trip_is_positive_for_any_pair():
    rng = np.random.default_rng(9)
    basis = tb.build_basis(3, 7)
    for _ in range(100):
        state = int(rng.choice(basis.states))
        occ = occupied_orbitals(state)
        pair = tuple(rng.choice(occ, size=2, replace=False))
        assert fermionic_phase(state, pair, pair) == 1


def test_phase_occupancy_violations():
    state = state_from_orbitals([0, 1, 2])
    with pytest.raises(PreconditionError):
        fermionic_phase(state, (0, 3), (4, 5))   # 3 not occupied
    with pytest.raises(PreconditionError):
        fermionic_phase(state, (0, 1), (2, 4))   # 2 still occupied
    with pytest.raises(PreconditionError):
        fermionic_phase(state, (0, 0), (3, 4))   # doubled operator
    with pytest.raises(PreconditionError):
        fermionic_phase(state, (0, 1), (3, 3))


def test_phase_matches_transposition_oracle_m5_n3():
    """Every valid two-body move on every 3-of-5 state, against list algebra."""
    basis = tb.build_basis(3, 5)
    checked = 0
    for s in basis.states:
        state = int(s)
        occ = occupied_orbitals(state)
        for ann in combinations(occ, 2):
            middle = state & ~(1 << ann[0]) & ~(1 << ann[1])
            for cre in combinations(range(5), 2):
                if (middle >> cre[0] & 1) or (middle >> cre[1] & 1):
                    continue
                expected = transposition_sign(occ, ann, cre)
                assert expected is not None
                assert fermionic_phase(state, ann, cre) == expected[0]
                checked += 1
    assert checked > 100


def test_phase_matches_jw_matrix_oracle_m5():
    """Sign of <g| a+ a+ a a |f> from dense Jordan-Wigner matrices."""
    a = jw_annihilators(5)
    adag = [op.T for op in a]
    basis = tb.build_basis(3, 5)
    rng = np.random.default_rng(17)
    for _ in range(80):
        state = int(rng.choice(basis.states))
        occ = occupied_orbitals(state)
        ann = tuple(sorted(rng.choice(occ, size=2, replace=False)))
        middle = state & ~(1 << ann[0]) & ~(1 << ann[1])
        free = [o for o in range(5) if not middle >> o & 1]
        cre = tuple(sorted(rng.choice(free, size=2, replace=False)))
        op = adag[cre[0]] @ adag[cre[1]] @ a[ann[1]] @ a[ann[0]]
        target = middle | (1 << cre[0]) | (1 << cre[1])
        assert op[target, state] == fermionic_phase(state, ann, cre)


def test_classify_reference_is_class_zero(basis_6_12):
    ref = int(basis_6_12.states[100])
    part = tb.classify(basis_6_12, ref)
    assert part.class_of[100] == 0
    assert np.bincount(part.class_of, minlength=part.n_classes + 1)[0] == 1


def test_classify_two_particles_all_reachable_in_one_move():
    """For n=2, m=4 every other state is one two-body move from {0,1}."""
    basis = tb.build_basis(2, 4)
    part = tb.classify(basis, state_from_orbitals([0, 1]))
    sizes = np.bincount(part.class_of, minlength=part.n_classes + 1)
    assert sizes[0] == 1
    assert sizes[1] == 5
    assert sizes[1:].sum() == 5


def test_classify_sizes_sum_and_hamming_oracle(basis_6_12):
    diag_state = int(basis_6_12.states[462])
    part = tb.classify(basis_6_12, diag_state)
    assert np.bincount(part.class_of, minlength=part.n_classes + 1).sum() == 924
    assert part.n_classes == 3
    # exhaustive recount from Hamming distances
    for j, s in enumerate(basis_6_12.states):
        moved = (int(s) ^ diag_state).bit_count() // 2
        assert part.class_of[j] == (moved + 1) // 2


def test_classify_counts_exactly_the_reachable_classes():
    """n_classes is the largest class, ceil(min(n, m - n)/2), reached from every reference,
    and no class up to it is empty: a two-body move relocates up to two particles."""
    for n, m in [(2, 5), (3, 6), (3, 7), (4, 8), (5, 10), (6, 12), (7, 14)]:
        basis = tb.build_basis(n, m)
        for j in (0, 1, basis.size // 3, basis.size // 2, basis.size - 1):
            part = tb.classify(basis, int(basis.states[j]))
            assert part.n_classes == part.class_of.max() == (min(n, m - n) + 1) // 2, (n, m, j)
            assert np.bincount(part.class_of).min() > 0, (n, m, j)


def test_classify_rejects_foreign_reference(basis_6_12):
    with pytest.raises(PreconditionError):
        tb.classify(basis_6_12, 0b111)


def test_class_sizes_partition_whole_basis():
    for n, m in [(2, 5), (3, 6), (4, 8)]:
        basis = tb.build_basis(n, m)
        part = tb.classify(basis, int(basis.states[0]))
        assert np.bincount(part.class_of, minlength=part.n_classes + 1).sum() == comb(m, n)


def test_two_body_selection_rule_completeness():
    """No single a+ a+ a a term connects states more than 4 bits apart (n=3, m=6)."""
    basis = tb.build_basis(3, 6)
    for f in basis.states:
        for g in basis.states:
            distance = (int(f) ^ int(g)).bit_count()
            if distance <= 4:
                continue
            occ = occupied_orbitals(int(f))
            for ann in combinations(occ, 2):
                middle = int(f) & ~(1 << ann[0]) & ~(1 << ann[1])
                free = [o for o in range(6) if not middle >> o & 1]
                for cre in combinations(free, 2):
                    target = middle | (1 << cre[0]) | (1 << cre[1])
                    assert target != int(g)


def test_occupancy_matrix_counts_particles():
    basis = tb.build_basis(3, 6)
    occ = occupancy_matrix(basis)
    assert occ.shape == (6, 20)
    assert np.all(occ.sum(axis=0) == 3)
    # C order keeps the BLAS summation order of ``occ @ weights`` fixed.
    assert occ.dtype == np.float64 and occ.flags.c_contiguous
    for j, state in enumerate(basis.states):
        assert np.flatnonzero(occ[:, j]).tolist() == list(occupied_orbitals(int(state)))
