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
from tbrisim.hamiltonian import _couplings, _index_dtype

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
    assert tb.sample_spectrum(params).tolist() == [0.0, 1.0, 2.0]


def test_spectrum_mean_spacing_is_d0():
    params = tb.ModelParams(n=6, m=12, eta=0.0, seed=4)
    assert mean_spacing(tb.sample_spectrum(params)) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_jitter_deterministic_and_sorted():
    params = tb.ModelParams(n=6, m=12, eta=0.0, seed=42, jitter=0.5)
    s1 = tb.sample_spectrum(params)
    s2 = tb.sample_spectrum(params)
    assert np.array_equal(s1, s2)
    assert np.all(np.diff(s1) > 0)
    assert not np.allclose(s1, np.arange(12.0))


def test_tensor_zero_at_eta_zero():
    params = tb.ModelParams(n=2, m=4, eta=0.0, seed=3)
    assert not tb.sample_two_body(params).any()


def test_tensor_deterministic():
    params = tb.ModelParams(n=6, m=12, eta=0.05, seed=9)
    t1 = tb.sample_two_body(params)
    t2 = tb.sample_two_body(params)
    assert np.array_equal(t1, t2)


def test_tensor_symmetry_and_element_access():
    params = tb.ModelParams(n=6, m=12, eta=0.05, seed=9)
    tensor = tb.sample_two_body(params)
    assert isinstance(tensor, np.ndarray) and tensor.shape == (66, 66)
    assert np.array_equal(tensor, tensor.T)
    assert tensor_element(tensor, 12, 0, 1, 2, 3) == tensor_element(tensor, 12, 2, 3, 0, 1)


def test_tensor_refuses_an_asymmetric_or_misshapen_matrix():
    """``build_hamiltonian`` refuses the table of an asymmetric V, which would build H from one
    half of it, and a table whose shape has no pair order for the basis's m."""
    params, params5 = (tb.ModelParams(n=2, m=m, eta=0.05, seed=9) for m in (4, 5))
    basis, basis5 = tb.build_basis(2, 4), tb.build_basis(2, 5)
    spectrum, spectrum5 = tb.sample_spectrum(params), tb.sample_spectrum(params5)
    matrix = tb.sample_two_body(params)
    asymmetric = matrix.copy()
    asymmetric[0, 1] += 1e-12
    with pytest.raises(ParameterError, match="symmetric"):
        tb.build_hamiltonian(basis, spectrum, asymmetric)
    with pytest.raises(ParameterError, match=r"needs shape \(6, 6\)"):
        tb.build_hamiltonian(basis, spectrum, matrix[:5, :5])
    with pytest.raises(ParameterError, match=r"needs shape \(10, 10\)"):
        tb.build_hamiltonian(basis5, spectrum5, matrix)


@pytest.mark.parametrize("m", [2, 4, 6, 12, 14])
def test_two_body_draw_bitwise_equals_rowwise_loop(m):
    """One draw placed by ``triu_indices`` gives the row-by-row loop's bytes.

    eta=0 scales every draw to a signed zero, which ``tobytes`` tells apart.
    """
    for eta in (0.0, 0.083):
        params = tb.ModelParams(n=1, m=m, eta=eta, seed=5)
        drawn, expected = tb.sample_two_body(params), rowwise_two_body(params)
        assert drawn.tobytes() == expected.tobytes(), eta
        if eta == 0.0 and m > 2:
            assert np.signbit(expected).any()   # signed zeros are compared


def test_two_body_draws_share_one_read_only_index_pair():
    """Draws of one pair count place their elements through one cached, read-only
    ``triu_indices`` pair instead of computing it per draw."""
    hamiltonian._upper_triangle.cache_clear()
    for seed in (1, 2):
        tb.sample_two_body(tb.ModelParams(n=6, m=12, eta=0.083, seed=seed))
    assert hamiltonian._upper_triangle.cache_info()[:2] == (1, 1)   # hits, misses
    rows, cols = hamiltonian._upper_triangle(66)
    assert not rows.flags.writeable and not cols.flags.writeable
    assert all(np.array_equal(x, y) for x, y in zip((rows, cols), np.triu_indices(66)))


def test_tensor_variance_matches_eta():
    """Sample mean of V^2 over canonical elements is eta to 5 sigma."""
    eta = 0.02
    params = tb.ModelParams(n=6, m=12, eta=eta, seed=21)
    tensor = tb.sample_two_body(params)
    triu = tensor[np.triu_indices_from(tensor)]
    mean_sq = np.mean(triu**2)
    sigma_stat = eta * np.sqrt(2.0 / len(triu))
    assert abs(mean_sq - eta) < 5 * sigma_stat


def test_free_hamiltonian_is_diagonal():
    params = tb.ModelParams(n=2, m=4, eta=0.0, seed=1)
    basis = tb.build_basis(2, 4)
    spectrum = tb.sample_spectrum(params)
    h = tb.build_hamiltonian(basis, spectrum, tb.sample_two_body(params))
    expected = [
        sum(spectrum[s] for s in occupied_orbitals(int(f)))
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
    full = operator_hamiltonian(m, spectrum, tensor, orbital_pairs(m))
    expected = project_to_basis(full, basis.states)
    assert np.abs(h.entries - expected).max() < 1e-12


@pytest.mark.parametrize("n,m", [(1, 4), (2, 4), (2, 5), (4, 4), (3, 7), (4, 8), (6, 12),
                                 (1, 17), (2, 45), (3, 20)])
def test_hamiltonian_bitwise_equal_to_loop_oracle(n, m):
    """The cached-structure builder reproduces the entry-by-entry loop exactly.

    ``tobytes`` also tells -0.0 from +0.0; eta=0 makes every move term a signed zero.
    Every lower one-orbital entry reads its upper partner's sum, in either layout.
    """
    basis = tb.build_basis(n, m)
    for eta, jitter in ((0.083, 0.0), (0.083, 0.3), (0.0, 0.0)):
        params = tb.ModelParams(n=n, m=m, eta=eta, seed=7, jitter=jitter)
        spectrum, tensor = tb.sample_spectrum(params), tb.sample_two_body(params)
        h = tb.build_hamiltonian(basis, spectrum, tensor)
        expected = loop_hamiltonian(basis, spectrum, tensor)
        assert np.array_equal(h.entries, expected.entries), (eta, jitter)
        assert h.entries.tobytes() == expected.entries.tobytes(), (eta, jitter)
    couplings = _couplings(n, m)
    if couplings.template is not None:
        one = np.bitwise_count(basis.states[:, None] ^ basis.states) == 2
        assert np.array_equal(couplings.template[one], couplings.template.T[one])
        return
    cols = couplings.at[:, couplings.move2_source.shape[1]:] % basis.size
    rows = np.arange(basis.size)[:, None].repeat(cols.shape[1], axis=1)
    upper, lower = cols > rows, cols < rows
    slot = np.full((basis.size, basis.size), -1)
    slot[rows[upper], cols[upper]] = couplings.move1_source[upper]
    assert np.array_equal(couplings.move1_source[lower], slot[cols[lower], rows[lower]])


def test_oracle_sizes_cover_band_edges():
    """The loop-oracle sizes fill H in each layout in one band (dense N <= 70, sparse
    N=17), and with a partial last band (dense N=924: 26 of 35 rows, then 14; sparse
    N=1140: 40 of 28, then 20); sparse N=990 fills 30 whole bands of 33 rows."""
    cases = (((4, 8), True, 1, 70), ((6, 12), True, 27, 14), ((1, 17), False, 1, 17),
             ((3, 20), False, 41, 20), ((2, 45), False, 30, 33))
    for (n, m), dense, bands, last in cases:
        size, rows = comb(m, n), hamiltonian._band_rows(comb(m, n))
        assert (-(-size // rows), size - (bands - 1) * rows) == (bands, last), size
        assert (_couplings(n, m).template is not None) == dense, (n, m)


@pytest.mark.parametrize("n,m", [(4, 8), (6, 12), (3, 20)])
@pytest.mark.parametrize("block", [1, 7, 1000, 10**6])
def test_index_blocks_keep_structure_and_h_bitwise(n, m, block, monkeypatch):
    """Any ``INDEX_BLOCK`` gives the default structure's bytes and the default H's.

    1 and 7 give blocks of one state; 1000 gives blocks of 27 states at (4, 8),
    the last one partial, of 4 at (6, 12) and of 2 at (3, 20); 10**6 makes each
    size one block.  (4, 8) and (6, 12) take the dense layout, (3, 20) the sparse
    one.  The structure is rebuilt with the patched blocks.
    """
    params = tb.ModelParams(n=n, m=m, eta=0.083, seed=3, jitter=0.3)
    basis = tb.build_basis(n, m)
    spectrum, tensor = tb.sample_spectrum(params), tb.sample_two_body(params)
    def structure():   # every field's bytes, either layout
        return {name: None if array is None else array.tobytes()
                for name, array in vars(_couplings(n, m)).items()}

    default = structure()
    expected = tb.build_hamiltonian(basis, spectrum, tensor).entries.tobytes()
    monkeypatch.setattr(hamiltonian, "INDEX_BLOCK", block)
    _couplings.cache_clear()
    try:
        assert structure() == default
        assert tb.build_hamiltonian(basis, spectrum, tensor).entries.tobytes() == expected
    finally:
        _couplings.cache_clear()   # later tests build the structure with the default blocks


def test_bands_index_with_contiguous_intp_arrays(monkeypatch):
    """Each band's template rows reach ``np.take`` as one 1-D contiguous intp array: at
    N=924, 27 bands of 35 rows, the last one of 14."""
    indices = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def take(self, a, index, out=None, mode="raise"):
            attributes = (index.dtype, index.ndim, index.flags.c_contiguous, mode)
            indices.append((attributes, index.copy()))   # a copy: the buffer is reused
            return np.take(a, index, out=out, mode=mode)

    params = tb.ModelParams(n=6, m=12, eta=0.083, seed=5)
    basis = tb.build_basis(6, 12)
    spectrum, tensor = tb.sample_spectrum(params), tb.sample_two_body(params)
    expected = tb.build_hamiltonian(basis, spectrum, tensor).entries   # the structure is cached
    monkeypatch.setattr(hamiltonian, "np", RecordingNumpy())
    h = tb.build_hamiltonian(basis, spectrum, tensor)
    assert h.entries.tobytes() == expected.tobytes()
    assert [len(index) for _, index in indices] == [35 * 924] * 26 + [14 * 924]
    assert {attributes for attributes, _ in indices} == {(np.dtype(np.intp), 1, True, "clip")}
    assert np.array_equal(np.concatenate([index for _, index in indices]),
                          _couplings(6, 12).template.ravel())


def test_band_scatter_indexes_with_contiguous_intp_arrays(monkeypatch):
    """In the sparse layout each band's positions reach numpy as one 1-D contiguous intp
    array, at N=1140 40 bands of 28 rows, the last one of 20, into an H allocated zeroed
    and never filled again."""
    indices, fills, zeroed = [], [], []

    class Recording(np.ndarray):
        def __setitem__(self, index, value):
            if isinstance(index, np.ndarray):   # a copy: the buffer is reused
                indices.append(((index.dtype, index.ndim, index.flags.c_contiguous), index.copy()))
            super().__setitem__(index, value)

        def fill(self, value):
            fills.append(value)
            super().fill(value)

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            return np.empty(*args, **kwargs).view(Recording)

        def zeros(self, shape, *args, **kwargs):
            zeroed.append(shape)
            return np.zeros(shape, *args, **kwargs).view(Recording)

    params = tb.ModelParams(n=3, m=20, eta=0.083, seed=5)
    basis = tb.build_basis(3, 20)
    spectrum, tensor = tb.sample_spectrum(params), tb.sample_two_body(params)
    expected = tb.build_hamiltonian(basis, spectrum, tensor).entries   # the structure is cached
    monkeypatch.setattr(hamiltonian, "np", RecordingNumpy())
    h = tb.build_hamiltonian(basis, spectrum, tensor)
    assert np.asarray(h.entries).tobytes() == expected.tobytes()
    assert (zeroed[-1], fills) == ((1140, 1140), [])   # after ext's tail
    width = 3 * comb(17, 2) + 3 * 17
    assert [len(index) for _, index in indices] == [28 * width] * 40 + [20 * width]
    assert {attributes for attributes, _ in indices} == {(np.dtype(np.intp), 1, True)}
    assert np.array_equal(np.concatenate([index for _, index in indices]),
                          _couplings(3, 20).at.ravel())


def test_hamiltonian_digest_at_n3432():
    """n=7, m=14 (N=3432): H keeps the SHA-256 that the assembly without blocks gave."""
    params = tb.ModelParams(n=7, m=14, eta=0.083, seed=1)
    h = tb.build_hamiltonian(tb.build_basis(7, 14), tb.sample_spectrum(params),
                             tb.sample_two_body(params))
    assert hashlib.sha256(h.entries.tobytes()).hexdigest() == (
        "b01a2246ad81f9fdf6af92db213b107389b6ba38dc8681e4536e48ef1c524a40")


def test_assembly_and_structure_stay_small():
    """A warm build at N=924 allocates at most 1.5 MB beside H; a cold structure peaks at
    4 MB at N=924 and 13 MB at N=3432 (of which 1.91 MB and 8.3 MB are kept)."""
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


@pytest.mark.parametrize("n,m,nbytes", [(2, 4, 132), (4, 8, 14_560), (6, 12, 1_912_680)])
def test_dense_coupling_template(n, m, nbytes):
    """Read-only fields of nbytes in all; the (N, N) int16 template points every element
    of H at its value in ext: zeros at the one 0.0 slot, the diagonal at its own slots, and
    per row M2 two-orbital entries at signed elements and M1 one-orbital ones at sums."""
    couplings = _couplings(n, m)
    size, pairs = comb(m, n), comb(m, 2)
    move2, move1 = comb(n, 2) * comb(m - n, 2), n * (m - n)
    first_sum = 2 * pairs**2 + m
    zero = first_sum + size * move1 // 2
    template = couplings.template
    assert couplings.at is couplings.move2_source is couplings.move1_source is None
    term_type = np.dtype(_index_dtype(first_sum - 1))
    fields = {"template": ((size, size), np.dtype(np.int16)),
              "diagonal": ((n + comb(n, 2), size), term_type),
              "move1_term": ((n - 1, size * move1 // 2), term_type)}
    for name, (shape, dtype) in fields.items():
        array = getattr(couplings, name)
        assert (array.shape, array.dtype) == (shape, dtype), name
        assert not array.flags.writeable, name
    assert sum(getattr(couplings, name).nbytes for name in fields) == nbytes
    assert np.array_equal(np.diag(template), np.arange(zero + 1, zero + 1 + size))
    states = tb.build_basis(n, m).states
    flipped = np.bitwise_count(states[:, None] ^ states)   # 4 for a two-orbital move
    assert np.all((template == zero) == (flipped > 4))
    assert np.all(template[flipped == 4] < 2 * pairs**2)
    assert np.all((template[flipped == 2] >= first_sum) & (template[flipped == 2] < zero))
    assert np.all(np.count_nonzero((template != zero) & (flipped > 0), axis=1) == move2 + move1)


def test_template_check_refuses_an_index_outside_ext(monkeypatch):
    """``np.take(mode="clip")`` would clamp a bad index, so the structure's build checks every
    template index once against len(ext), and raises even under ``python -O``."""
    checked = []
    monkeypatch.setattr(hamiltonian, "_check_template",
                        lambda template, n_ext: checked.append((template.copy(), n_ext)))
    template = _couplings.__wrapped__(2, 4).template
    n_ext = 2 * 6**2 + 4 + 6 * 4 // 2 + 1 + 6
    assert len(checked) == 1
    assert np.array_equal(checked[0][0], template) and checked[0][1] == n_ext
    monkeypatch.undo()
    hamiltonian._check_template(template, n_ext)
    for bad in (-1, n_ext, np.iinfo(np.int16).max):
        corrupt = template.copy()
        corrupt[0, 1] = bad
        with pytest.raises(AssertionError, match=r"outside ext\[0:95\]"):
            hamiltonian._check_template(corrupt, n_ext)


@pytest.mark.parametrize("n,m,nbytes", [(1, 17, 1_700), (3, 20, 3_399_480), (2, 45, 6_056_820)])
def test_row_grouped_coupling_layout(n, m, nbytes):
    """Read-only fields of nbytes in all: every entry off the diagonal once, row by row,
    each row's two-orbital moves first, with positions counted from the band's first row."""
    couplings = _couplings(n, m)
    assert couplings.template is None
    size, pairs = comb(m, n), comb(m, 2)
    move2, move1 = comb(n, 2) * comb(m - n, 2), n * (m - n)
    rows = hamiltonian._band_rows(size)
    term_type = np.dtype(_index_dtype(2 * pairs**2 + m - 1))
    fields = {
        "at": ((size, move2 + move1), np.dtype(_index_dtype(rows * size - 1))),
        "move2_source": ((size, move2), term_type),
        "move1_source": ((size, move1),
                         np.dtype(_index_dtype(2 * pairs**2 + m + size * move1 // 2 - 1))),
        "diagonal": ((n + comb(n, 2), size), term_type),
        "move1_term": ((n - 1, size * move1 // 2), term_type),
    }
    for name, (shape, dtype) in fields.items():
        array = getattr(couplings, name)
        assert array.shape == shape, name
        assert array.dtype == dtype, name
        assert not array.flags.writeable, name
    assert sum(getattr(couplings, name).nbytes for name in fields) == nbytes
    band_row, cols = np.divmod(couplings.at.astype(np.int64), size)
    row = np.arange(size)[:, None]
    assert np.all(band_row == row % rows)
    assert np.all(cols != row)
    flat = (row * size + cols).ravel()
    assert len(np.unique(flat)) == len(flat)
    assert np.array_equal(np.sort(flat), np.sort((cols * size + row).ravel()))   # both triangles
    states = tb.build_basis(n, m).states
    flipped = np.bitwise_count(states[row] ^ states[cols])   # 4 for a two-orbital move
    assert np.all(flipped[:, :move2] == 4) and np.all(flipped[:, move2:] == 2)


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
    assert nonzero == np.bincount(part.class_of, minlength=part.n_classes + 1)[1]


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
    h3 = tb.build_hamiltonian(basis, spectrum, 3.0 * tensor).entries
    h0 = tb.build_hamiltonian(basis, spectrum, 0.0 * tensor).entries
    assert np.allclose(h3 - h0, 3.0 * (h1 - h0), atol=1e-12)


def test_build_rejects_mismatched_sizes():
    basis = tb.build_basis(2, 4)
    params5 = tb.ModelParams(n=2, m=5, eta=0.1, seed=1)
    with pytest.raises(ParameterError):
        tb.build_hamiltonian(basis, tb.sample_spectrum(params5), tb.sample_two_body(params5))
