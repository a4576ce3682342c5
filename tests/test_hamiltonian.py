"""Sampling of the random interaction and assembly of the dense matrix."""

from __future__ import annotations

import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest

import tbrisim as tb
from tbrisim import hamiltonian
from tbrisim.exceptions import ParameterError
from tbrisim.hamiltonian import _couplings, _index_dtype, _scatter

from oracles import (
    loop_hamiltonian,
    mean_spacing,
    occupied_orbitals,
    operator_hamiltonian,
    orbital_pairs,
    project_to_basis,
    rowwise_two_body,
    tensor_element,
)


def test_model_params_validation():
    with pytest.raises(ParameterError):
        tb.ModelParams(n=0, m=4, eta=0.1, seed=1)
    with pytest.raises(ParameterError):
        tb.ModelParams(n=5, m=4, eta=0.1, seed=1)
    with pytest.raises(ParameterError):
        tb.ModelParams(n=2, m=4, eta=-0.1, seed=1)
    with pytest.raises(ParameterError):
        tb.ModelParams(n=2, m=4, eta=0.1, seed=1, jitter=1.0)
    with pytest.raises(ParameterError, match="seed"):
        tb.ModelParams(n=2, m=4, eta=0.1, seed=-1)
    nan, inf = float("nan"), float("inf")
    for eta in (nan, inf):
        with pytest.raises(ParameterError, match="finite"):
            tb.ModelParams(n=2, m=4, eta=eta, seed=1)


def test_spectrum_equidistant():
    params = tb.ModelParams(n=1, m=3, eta=0.0, seed=1)
    assert tb.sample_spectrum(params).epsilon.tolist() == [0.0, 1.0, 2.0]


def test_spectrum_mean_spacing_is_d0():
    params = tb.ModelParams(n=6, m=12, eta=0.0, seed=4)
    assert mean_spacing(tb.sample_spectrum(params)) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_jitter_deterministic_and_sorted():
    params = tb.ModelParams(n=6, m=12, eta=0.0, seed=42, jitter=0.5)
    s1 = tb.sample_spectrum(params)
    s2 = tb.sample_spectrum(params)
    assert np.array_equal(s1.epsilon, s2.epsilon)
    assert np.all(np.diff(s1.epsilon) > 0)
    assert not np.allclose(s1.epsilon, np.arange(12.0))


def test_tensor_zero_at_eta_zero():
    params = tb.ModelParams(n=2, m=4, eta=0.0, seed=3)
    assert not tb.sample_two_body(params).matrix.any()


def test_tensor_deterministic():
    params = tb.ModelParams(n=6, m=12, eta=0.05, seed=9)
    t1 = tb.sample_two_body(params)
    t2 = tb.sample_two_body(params)
    assert np.array_equal(t1.matrix, t2.matrix)


def test_tensor_symmetry_and_element_access():
    params = tb.ModelParams(n=6, m=12, eta=0.05, seed=9)
    tensor = tb.sample_two_body(params)
    assert np.array_equal(tensor.matrix, tensor.matrix.T)
    assert tensor_element(tensor, 0, 1, 2, 3) == tensor_element(tensor, 2, 3, 0, 1)


@pytest.mark.parametrize("m", [2, 4, 6, 12, 14])
def test_two_body_draw_bitwise_equals_rowwise_loop(m):
    """One draw placed by ``triu_indices`` gives the row-by-row loop's bytes.

    eta=0 scales every draw to a signed zero, which ``tobytes`` tells apart.
    """
    for eta in (0.0, 0.083):
        params = tb.ModelParams(n=1, m=m, eta=eta, seed=5)
        drawn, expected = tb.sample_two_body(params), rowwise_two_body(params)
        assert drawn.matrix.tobytes() == expected.matrix.tobytes(), eta
        if eta == 0.0 and m > 2:
            assert np.signbit(expected.matrix).any()   # signed zeros are compared


def test_tensor_variance_matches_eta():
    """Sample mean of V^2 over canonical elements is eta to 5 sigma."""
    eta = 0.02
    params = tb.ModelParams(n=6, m=12, eta=eta, seed=21)
    tensor = tb.sample_two_body(params)
    triu = tensor.matrix[np.triu_indices_from(tensor.matrix)]
    mean_sq = np.mean(triu**2)
    sigma_stat = eta * np.sqrt(2.0 / len(triu))
    assert abs(mean_sq - eta) < 5 * sigma_stat


def test_free_hamiltonian_is_diagonal():
    params = tb.ModelParams(n=2, m=4, eta=0.0, seed=1)
    basis = tb.build_basis(2, 4)
    spectrum = tb.sample_spectrum(params)
    h = tb.build_hamiltonian(basis, spectrum, tb.sample_two_body(params))
    expected = [
        sum(spectrum.epsilon[s] for s in occupied_orbitals(int(f)))
        for f in basis.states
    ]
    assert np.allclose(h.diagonal(), expected, atol=1e-14)
    assert not (h.entries - np.diag(h.diagonal())).any()


@pytest.mark.parametrize("n,m,eta,seed", [(2, 4, 0.2, 11), (2, 4, 1.5, 2), (3, 6, 0.1, 5)])
def test_hamiltonian_matches_operator_algebra_oracle(n, m, eta, seed):
    """Entrywise check against explicit a+ a+ a a matrices in full Fock space."""
    params = tb.ModelParams(n=n, m=m, eta=eta, seed=seed)
    basis = tb.build_basis(n, m)
    spectrum = tb.sample_spectrum(params)
    tensor = tb.sample_two_body(params)
    h = tb.build_hamiltonian(basis, spectrum, tensor)
    full = operator_hamiltonian(m, spectrum.epsilon, tensor.matrix, orbital_pairs(m))
    expected = project_to_basis(full, basis.states)
    assert np.abs(h.entries - expected).max() < 1e-12


@pytest.mark.parametrize("n,m", [(1, 4), (2, 4), (2, 5), (4, 4), (3, 7), (4, 8), (6, 12)])
def test_hamiltonian_bitwise_equal_to_loop_oracle(n, m):
    """The cached-structure builder reproduces the entry-by-entry loop exactly.

    ``tobytes`` also tells -0.0 from +0.0; eta=0 makes every move term a signed zero.
    """
    basis = tb.build_basis(n, m)
    for eta, jitter in ((0.083, 0.0), (0.083, 0.3), (0.0, 0.0)):
        params = tb.ModelParams(n=n, m=m, eta=eta, seed=7, jitter=jitter)
        spectrum, tensor = tb.sample_spectrum(params), tb.sample_two_body(params)
        h = tb.build_hamiltonian(basis, spectrum, tensor)
        expected = loop_hamiltonian(basis, spectrum, tensor)
        assert np.array_equal(h.entries, expected.entries), (eta, jitter)
        assert h.entries.tobytes() == expected.entries.tobytes(), (eta, jitter)


@pytest.mark.parametrize("n,m", [(4, 8), (6, 12)])
@pytest.mark.parametrize("block", [1, 7, 1000, 10**6])
def test_index_blocks_keep_structure_and_h_bitwise(n, m, block, monkeypatch):
    """Any ``INDEX_BLOCK`` gives the default structure's bytes and the default H's.

    1 and 7 divide every move count here; 1000 leaves a partial last block of
    moves at both sizes and of states at (4, 8); 10**6 exceeds K2, so each
    kind is one partial block.  The structure is rebuilt with the patched blocks.
    """
    params = tb.ModelParams(n=n, m=m, eta=0.083, seed=3, jitter=0.3)
    basis = tb.build_basis(n, m)
    spectrum, tensor = tb.sample_spectrum(params), tb.sample_two_body(params)
    structure = _couplings(n, m).move2_at.base.tobytes()
    expected = tb.build_hamiltonian(basis, spectrum, tensor).entries.tobytes()
    monkeypatch.setattr(hamiltonian, "INDEX_BLOCK", block)
    _couplings.cache_clear()
    try:
        assert _couplings(n, m).move2_at.base.tobytes() == structure
        assert tb.build_hamiltonian(basis, spectrum, tensor).entries.tobytes() == expected
    finally:
        _couplings.cache_clear()   # later tests build the structure with the default blocks


def test_scatter_indexes_with_contiguous_intp_rows():
    """Both rows of a narrow position block reach numpy as 1-D contiguous intp arrays."""
    indices = []

    class Recording(np.ndarray):
        def __setitem__(self, index, value):
            indices.append(index)
            super().__setitem__(index, value)

    flat = np.zeros(16).view(Recording)
    at = np.array([[1, 2, 7], [4, 8, 13]], dtype=np.int32)
    _scatter(flat, at, np.array([1.0, 2.0, 3.0]))
    assert len(indices) == 2
    for index, row in zip(indices, at):
        assert index.dtype == np.intp and index.ndim == 1 and index.flags.c_contiguous
        assert np.array_equal(index, row)
    assert np.array_equal(np.nonzero(np.asarray(flat))[0], [1, 2, 4, 7, 8, 13])


def test_hamiltonian_digest_at_n3432():
    """n=7, m=14 (N=3432): K2 = 756,756 two-orbital moves take 12 index blocks, the last
    one partial, and H keeps the SHA-256 that the assembly without blocks gave."""
    params = tb.ModelParams(n=7, m=14, eta=0.083, seed=1)
    h = tb.build_hamiltonian(tb.build_basis(7, 14), tb.sample_spectrum(params),
                             tb.sample_two_body(params))
    assert len(range(0, _couplings(7, 14).move2_term.shape[0], hamiltonian.INDEX_BLOCK)) == 12
    assert hashlib.sha256(h.entries.tobytes()).hexdigest() == (
        "b01a2246ad81f9fdf6af92db213b107389b6ba38dc8681e4536e48ef1c524a40")


def test_assembly_and_structure_stay_small():
    """A warm build at N=924 allocates at most 1.5 MB beside H; a cold structure peaks at
    4 MB at N=924 and 13 MB at N=3432 (of which 1.38 MB and 9.4 MB are kept)."""
    params = tb.ModelParams(n=6, m=12, eta=0.083, seed=2)
    basis = tb.build_basis(6, 12)
    spectrum, tensor = tb.sample_spectrum(params), tb.sample_two_body(params)
    tb.build_hamiltonian(basis, spectrum, tensor)   # the structure is cached before tracing
    tracemalloc.start()
    try:
        h = tb.build_hamiltonian(basis, spectrum, tensor)
        build_peak = tracemalloc.get_traced_memory()[1]
        del h
        peaks = {}
        for n, m in ((6, 12), (7, 14)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _couplings.__wrapped__(n, m)   # cold, and outside the cache
            peaks[n, m] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert build_peak <= 924 * 924 * 8 + 1.5e6, build_peak
    assert peaks[6, 12] <= 4e6, peaks
    assert peaks[7, 14] <= 13e6, peaks


def test_cached_structure_survives_another_size():
    """(6,12), then (4,8), then (6,12) from the cache give the same H."""
    def build(n, m):
        params = tb.ModelParams(n=n, m=m, eta=0.083, seed=4, jitter=0.3)
        basis = tb.build_basis(n, m)
        return tb.build_hamiltonian(
            basis, tb.sample_spectrum(params), tb.sample_two_body(params)
        ).entries

    _couplings.cache_clear()
    first = build(6, 12)
    build(4, 8)
    again = build(6, 12)
    assert _couplings.cache_info().hits == 1
    assert np.array_equal(again, first)


@pytest.mark.parametrize("n,m,nbytes", [(2, 4, 126), (4, 8, 14_560), (6, 12, 1_377_684)])
def test_upper_half_coupling_layout(n, m, nbytes):
    """Read-only fields of one backing array: above-diagonal entries only, each with its mirror."""
    couplings = _couplings(n, m)
    size = comb(m, n)
    upper2, upper1 = size * comb(n, 2) * comb(m - n, 2) // 2, size * n * (m - n) // 2
    at_type = np.dtype(_index_dtype(size * size - 1))
    term_type = np.dtype(_index_dtype(2 * comb(m, 2) ** 2 + m - 1))
    fields = {
        "move2_at": ((2, upper2), at_type),
        "move1_at": ((2, upper1), at_type),
        "diagonal": ((n + comb(n, 2), size), term_type),
        "move2_term": ((upper2,), term_type),
        "move1_term": ((n - 1, upper1), term_type),
    }
    backing = couplings.move2_at.base
    for name, (shape, dtype) in fields.items():
        array = getattr(couplings, name)
        assert array.shape == shape, name
        assert array.dtype == dtype, name
        assert not array.flags.writeable, name
        assert array.base is backing, name
    assert backing.nbytes == sum(getattr(couplings, name).nbytes for name in fields) == nbytes
    for at in (couplings.move2_at, couplings.move1_at):
        rows, cols = np.divmod(at[0].astype(np.int64), size)
        assert np.all(rows < cols)
        assert np.all(np.diff(rows) >= 0)   # row-major, so both scatters sweep the matrix once
        assert len(np.unique(at[0])) == len(at[0])
        assert np.array_equal(at[1], cols * size + rows)


def test_index_dtype_holds_largest_index():
    """Position and term dtypes widen before an index could wrap."""
    assert _index_dtype(comb(12, 6) - 1) is np.int16         # N=924 columns
    assert _index_dtype(2 * comb(14, 2) ** 2 + 14 - 1) is np.int16
    assert _index_dtype(np.iinfo(np.int16).max) is np.int16
    assert _index_dtype(np.iinfo(np.int16).max + 1) is np.int32
    assert _index_dtype(comb(18, 9) - 1) is np.int32         # n=9, m=18: N=48620
    assert _index_dtype(2 * comb(27, 2) ** 2 + 27 - 1) is np.int32
    assert _index_dtype(np.iinfo(np.int32).max + 1) is np.int64
    assert _index_dtype(comb(12, 6) ** 2 - 1) is np.int32    # flat positions at N=924
    assert _index_dtype(comb(16, 8) ** 2 - 1) is np.int32    # N=12870
    assert _index_dtype(comb(18, 9) ** 2 - 1) is np.int64    # N=48620


def test_hamiltonian_exactly_symmetric(fig1):
    assert np.array_equal(fig1.h.entries, fig1.h.entries.T)


def test_offdiagonal_support_is_class_one(fig1):
    """Nonzero off-diagonals exactly where one two-body move connects states."""
    h = fig1.h.entries
    states = fig1.basis.states
    rng = np.random.default_rng(0)
    rows = rng.choice(len(states), size=25, replace=False)
    for fi in rows:
        f = int(states[fi])
        for gi in range(len(states)):
            if gi == fi:
                continue
            distance = (f ^ int(states[gi])).bit_count()
            if distance in (2, 4):
                assert h[fi, gi] != 0.0
            else:
                assert h[fi, gi] == 0.0


def test_offdiagonal_count_matches_class_sizes(fig1):
    part = fig1.partition
    row = fig1.h.entries[fig1.i]
    nonzero = np.count_nonzero(row) - 1   # drop the diagonal
    assert nonzero == part.sizes[1]


def test_row_second_moment_identity(fig1):
    """<i|H^2|i> - H_ii^2 equals the off-diagonal row sum for every row checked."""
    h = fig1.h.entries
    h2_diag = np.einsum("ij,ji->i", h, h)
    for i in np.random.default_rng(1).choice(h.shape[0], size=40, replace=False):
        row = h[i]
        lhs = h2_diag[i] - h[i, i] ** 2
        rhs = row @ row - h[i, i] ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_hamiltonian_linear_in_tensor():
    params = tb.ModelParams(n=3, m=6, eta=0.2, seed=8)
    basis = tb.build_basis(3, 6)
    spectrum = tb.sample_spectrum(params)
    tensor = tb.sample_two_body(params)
    h1 = tb.build_hamiltonian(basis, spectrum, tensor).entries
    h3 = tb.build_hamiltonian(basis, spectrum, tb.TwoBodyTensor(6, 3.0 * tensor.matrix)).entries
    h0 = tb.build_hamiltonian(basis, spectrum, tb.TwoBodyTensor(6, 0.0 * tensor.matrix)).entries
    assert np.allclose(h3 - h0, 3.0 * (h1 - h0), atol=1e-12)


def test_build_rejects_mismatched_sizes():
    basis = tb.build_basis(2, 4)
    params5 = tb.ModelParams(n=2, m=5, eta=0.1, seed=1)
    with pytest.raises(ParameterError):
        tb.build_hamiltonian(basis, tb.sample_spectrum(params5), tb.sample_two_body(params5))
