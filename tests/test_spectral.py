"""Eigendecomposition invariants and level-density statistics."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tbrisim as tb
from tbrisim import spectral
from tbrisim.dynamics import survival_probability
from tbrisim.exceptions import EigensolverError, InsufficientStatisticsError, PreconditionError
from tbrisim.hamiltonian import HamiltonianMatrix
from tbrisim.spectral import ORTHONORMALITY_TOL, PROBE_MARGIN, RECONSTRUCTION_TOL
from tbrisim.strength import strength_function

from oracles import exact_eigen_residuals, windowed_mid_spacing

FIXTURES = ("small_2_4", "small_3_6", "fig1", "fig2")


def test_one_by_one():
    d = tb.diagonalize(HamiltonianMatrix(np.array([[2.5]]), tb.build_basis(1, 1)))
    assert d.energies.tolist() == [2.5]
    assert d.vectors.tolist() == [[1.0]]


def test_two_by_two_analytic():
    a, b = 1.0, 0.25
    d = tb.diagonalize(HamiltonianMatrix(np.array([[a, b], [b, a]]), tb.build_basis(1, 2)))
    assert np.allclose(d.energies, [a - b, a + b], atol=1e-14)
    inv_sqrt2 = 1 / np.sqrt(2)
    assert np.allclose(np.abs(d.vectors), inv_sqrt2, atol=1e-14)


def test_reconstruction_small(small_2_4):
    d = small_2_4.decomp
    h = small_2_4.h.entries
    recon = d.vectors @ np.diag(d.energies) @ d.vectors.T
    assert np.abs(recon - h).max() < 1e-10


def test_orthonormality(fig2):
    c = fig2.decomp.vectors
    assert np.abs(c.T @ c - np.eye(c.shape[0])).max() < 1e-10


def test_energies_ascending(fig1):
    assert np.all(np.diff(fig1.decomp.energies) >= 0)


def test_trace_identity(fig1):
    lhs = fig1.decomp.energies.sum()
    rhs = np.trace(fig1.h.entries)
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def test_frobenius_identity(fig1):
    lhs = (fig1.decomp.energies**2).sum()
    rhs = (fig1.h.entries**2).sum()
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def test_diagonalize_deterministic(small_3_6):
    again = tb.diagonalize(small_3_6.h)
    assert np.array_equal(again.energies, small_3_6.decomp.energies)
    assert np.array_equal(again.vectors, small_3_6.decomp.vectors)


def test_diagonalize_rejects_bad_input():
    """A matrix that is not N x N for its basis of N states, square or not, or one with a
    non-finite entry, is refused before eigh: on the diagonal, in both triangles of a strip
    past the first, or in one triangle only (a -inf too), and the refused matrix keeps its
    bytes."""
    two = tb.build_basis(1, 2)
    with pytest.raises(PreconditionError):
        tb.diagonalize(HamiltonianMatrix(np.ones((2, 3)), two))
    with pytest.raises(PreconditionError, match="expected a 2 x 2 matrix for the basis"):
        tb.diagonalize(HamiltonianMatrix(np.eye(3), two))
    with pytest.raises(PreconditionError):
        tb.diagonalize(HamiltonianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]), two))
    with pytest.raises(PreconditionError, match="non-finite"):
        tb.diagonalize(HamiltonianMatrix(np.array([[1.0, 0.0], [0.0, np.inf]]), two))
    wide = tb.build_basis(4, 11)   # 330 states: two strips of ROW_BLOCK rows
    assert wide.size > spectral.ROW_BLOCK
    for cells, value, refusal in (([(300, 10), (10, 300)], np.nan, "non-finite"),
                                  ([(300, 280), (280, 300)], np.nan, "non-finite"),
                                  ([(300, 280)], -np.inf, "non-finite"),
                                  ([(10, 300)], np.nan, "non-finite"),
                                  ([(300, 10)], np.nan, "not exactly symmetric")):
        matrix = np.eye(wide.size)
        for cell in cells:
            matrix[cell] = value
        before = matrix.tobytes()
        with pytest.raises(PreconditionError, match=refusal):
            tb.diagonalize(HamiltonianMatrix(matrix, wide))
        assert matrix.tobytes() == before


def test_stats_equidistant_spectrum():
    energies = np.arange(66, dtype=float) * 0.5   # 66 levels: the basis of 2 on 12 orbitals
    decomp = spectral.EigenDecomposition(energies=energies, vectors=np.eye(66),
                                         basis=tb.build_basis(2, 12))
    assert spectral.spectral_stats(decomp) == pytest.approx(0.5, rel=1e-12)


def test_stats_mid_spacing_matches_central_average(fig1):
    """Windowed estimate vs a from-scratch spacing average over the 51 central levels."""
    e = np.sort(fig1.decomp.energies)
    median = np.median(e)
    central = e[np.argsort(np.abs(e - median))[:51]]
    direct = float(np.mean(np.diff(np.sort(central))))
    assert spectral.spectral_stats(fig1.decomp) == pytest.approx(direct, rel=0.01)


@pytest.mark.parametrize("name", FIXTURES)
def test_mid_spacing_bytes_unchanged_by_the_shared_helper(request, name):
    """``spectral_stats`` forms the window itself, once the shared helper of this test's
    name; small_2_4 has 6 levels, too few for it; the other three compare bytes."""
    decomp = request.getfixturevalue(name).decomp
    if decomp.size < 10:
        with pytest.raises(InsufficientStatisticsError):
            spectral.spectral_stats(decomp)
        return
    got = spectral.spectral_stats(decomp)
    assert np.float64(got).tobytes() == np.float64(windowed_mid_spacing(decomp.energies)).tobytes()


def test_stats_needs_three_levels():
    decomp = spectral.EigenDecomposition(energies=np.array([0.0, 1.0]), vectors=np.eye(2),
                                         basis=tb.build_basis(1, 2))
    with pytest.raises(PreconditionError):
        spectral.spectral_stats(decomp)


@pytest.mark.parametrize("name", FIXTURES)
def test_probe_and_exact_residuals_within_tolerances(request, name):
    system = request.getfixturevalue(name)
    h, decomp = system.h.entries, system.decomp
    scale = np.abs(h).max()
    assert decomp.orthonormality_residual <= ORTHONORMALITY_TOL / PROBE_MARGIN
    assert decomp.reconstruction_residual <= RECONSTRUCTION_TOL * scale / PROBE_MARGIN
    assert spectral._check_decomposition(h, decomp.energies, decomp.vectors, scale) == (
        decomp.orthonormality_residual, decomp.reconstruction_residual,
    )
    ortho, recon = exact_eigen_residuals(h, decomp)
    assert ortho <= ORTHONORMALITY_TOL and recon <= RECONSTRUCTION_TOL


def _mutate(kind, h, energies, vectors):
    """A copy of (H, E, V) with one defect, sized to fail the exact check by 1.5x.

    A swap of two columns of distinct energy has a fixed size, far above it.
    """
    h, energies, vectors = h.copy(), energies.copy(), vectors.copy()
    size = len(energies)
    k = size // 2
    scale = np.abs(h).max()
    if kind == "scaled-column":   # |V^T V - 1|_kk = 2 delta
        vectors[:, k] *= 1 + 1.5 * ORTHONORMALITY_TOL / 2
    elif kind == "swapped-columns":
        vectors[:, [k - 1, k]] = vectors[:, [k, k - 1]]
    elif kind == "shifted-energy":   # |H V - V E|_ik = shift |V_ik|
        energies[k] += 1.5 * RECONSTRUCTION_TOL * scale / np.abs(vectors[:, k]).max()
    elif kind == "perturbed-pair":   # rows i, j of (H' - H) V are delta V_j, delta V_i
        i, j = 1, size - 2
        delta = 1.5 * RECONSTRUCTION_TOL * scale / np.abs(vectors[[i, j]]).max()
        h[i, j] += delta
        h[j, i] += delta
    return h, energies, vectors


@pytest.mark.parametrize("kind", ["scaled-column", "swapped-columns", "shifted-energy",
                                  "perturbed-pair"])
@pytest.mark.parametrize("name", FIXTURES)
def test_probe_check_rejects_what_the_exact_check_rejects(request, name, kind):
    system = request.getfixturevalue(name)
    h, energies, vectors = _mutate(kind, system.h.entries, system.decomp.energies,
                                   system.decomp.vectors)
    ortho, recon = exact_eigen_residuals(h, spectral.EigenDecomposition(energies, vectors,
                                                                        system.basis))
    assert ortho > ORTHONORMALITY_TOL or recon > RECONSTRUCTION_TOL
    with pytest.raises(EigensolverError) as caught:
        spectral._check_decomposition(h, energies, vectors, np.abs(h).max())
    assert caught.value.residual > 0


def _loaded_libraries() -> set[str]:
    """File names of the shared libraries mapped into this process (empty off Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            return {Path(line.split()[-1]).name for line in fh if ".so" in line}
    except OSError:
        return set()


def _mapped_openblas_with_steps() -> ctypes.CDLL | None:
    """The oracle: the first OpenBLAS mapped into this process, by sorted path in
    ``/proc/self/maps``, that exports dsyevd's three ``_STEPS``; None without one."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(lib, name) for name in spectral._STEPS):
            return lib
    return None


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps")
def test_numpy_openblas_is_the_mapped_openblas_with_the_steps():
    """Through numpy.linalg's extension, the three ``_STEPS`` and the thread getter resolve to
    the addresses the mapped OpenBLAS gives them, with scipy's own OpenBLAS mapped too."""
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS)

    names = [*spectral._STEPS, "scipy_openblas_get_num_threads64_"]
    libs = [spectral._numpy_openblas(), _mapped_openblas_with_steps()]
    if None in libs:
        assert libs == [None, None]
        return
    found, scanned = ([ctypes.cast(getattr(lib, name), ctypes.c_void_p).value for name in names]
                      for lib in libs)
    assert found == scanned


PATHS = pytest.mark.parametrize("path", ["dsyevd in place", "numpy.linalg.eigh"],
                                ids=["in-place", "fallback"])


def _hamiltonian(n: int, m: int, eta: float = 0.083, seed: int = 1) -> HamiltonianMatrix:
    params = tb.ModelParams(n=n, m=m, eta=eta, seed=seed)
    return tb.build_hamiltonian(tb.build_basis(n, m), tb.sample_spectrum(params),
                                tb.sample_two_body(params))


def _recording_eigh(monkeypatch, path: str) -> list:
    """Make ``diagonalize`` take ``path``, the fallback by hiding numpy's OpenBLAS, and return
    the list that records every np.linalg.eigh call from then on."""
    if path == "numpy.linalg.eigh":
        monkeypatch.setattr(spectral, "_numpy_openblas", lambda: None)
    eigh, ran = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: ran.append(a) or eigh(a))
    return ran


@PATHS
@pytest.mark.parametrize("name", ["small_3_6", "n70", "fig2"])
def test_diagonalize_returns_eighs_arrays_bitwise(request, monkeypatch, name, path):
    """Both paths give eigh's bytes and leave H's; with numpy's ILP64 OpenBLAS loaded, dsyevd
    in place runs. At N = 70, (n, m) = (4, 8), dsyevd's dormqr runs at the block size 14 that
    its workspace size sets."""
    h = _hamiltonian(4, 8) if name == "n70" else request.getfixturevalue(name).h
    before = h.entries.tobytes()
    energies, vectors = np.linalg.eigh(h.entries)
    ran = _recording_eigh(monkeypatch, path)
    decomp = tb.diagonalize(h)
    assert decomp.energies.tobytes() == energies.tobytes()
    assert decomp.vectors.tobytes() == vectors.tobytes()
    assert h.entries.tobytes() == before
    ran_path = "numpy.linalg.eigh" if ran else "dsyevd in place"
    numpy_openblas = any(lib.startswith("libscipy_openblas64_") for lib in _loaded_libraries())
    assert ran_path == spectral._eigensolver() == (path if numpy_openblas else "numpy.linalg.eigh")


@PATHS
def test_diagonalize_refuses_an_asymmetric_matrix(monkeypatch, fig2, path):
    """One ulp between H[700, c] and H[c, 700], c < 256, rows of two row blocks, is refused
    before any eigensolver runs: eigh reads one triangle and the in-place path overwrites one."""
    entries = fig2.h.entries.copy()
    col = int(np.flatnonzero(entries[700, :256])[0])
    entries[700, col] = np.nextafter(entries[700, col], np.inf)
    before = entries.tobytes()
    ran = _recording_eigh(monkeypatch, path)
    with pytest.raises(PreconditionError, match="not exactly symmetric"):
        tb.diagonalize(HamiltonianMatrix(entries, fig2.basis))
    assert not ran and entries.tobytes() == before


@pytest.mark.parametrize("layout", ["read-only", "fortran"])
def test_diagonalize_copies_an_h_it_cannot_overwrite(tmp_path, small_3_6, layout):
    """An H mapped read-only by np.load(mmap_mode="r") or a Fortran-order one is copied before
    the in-place steps run on it: eigh's bytes come back and H keeps its own."""
    entries = np.asfortranarray(small_3_6.h.entries)
    if layout == "read-only":
        np.save(tmp_path / "h.npy", small_3_6.h.entries)
        entries = np.load(tmp_path / "h.npy", mmap_mode="r")
    before = entries.tobytes(order="A")
    energies, vectors = np.linalg.eigh(entries)
    decomp = tb.diagonalize(HamiltonianMatrix(entries, small_3_6.basis))
    assert decomp.energies.tobytes() == energies.tobytes()
    assert decomp.vectors.tobytes() == vectors.tobytes()
    assert entries.tobytes(order="A") == before


@pytest.mark.parametrize("factor", [1e150, 1e-150])
def test_a_matrix_dsyevd_would_rescale_goes_to_eigh(monkeypatch, small_3_6, factor):
    """dsyevd scales an H with max|H| outside [2^-485, 2^485] before its three steps, and the
    in-place path does not: such an H takes np.linalg.eigh, whose bytes come back."""
    h = HamiltonianMatrix(small_3_6.h.entries * factor, small_3_6.basis)
    energies, vectors = np.linalg.eigh(h.entries)
    ran = _recording_eigh(monkeypatch, "dsyevd in place")
    decomp = tb.diagonalize(h)
    assert decomp.energies.tobytes() == energies.tobytes()
    assert decomp.vectors.tobytes() == vectors.tobytes()
    assert len(ran) == 1


@pytest.mark.skipif(spectral._numpy_openblas() is None, reason="dsyevd in place is unavailable")
def test_a_failed_step_leaves_h_intact(monkeypatch, fig2):
    """dstedc reporting no convergence, after dsytrd has overwritten H's upper triangle, raises
    EigensolverError and leaves H's bytes as they were; so does eigh's LinAlgError on the
    fallback path."""
    lib = spectral._numpy_openblas()
    dstedc, overwritten = lib.scipy_dstedc_64_, []
    h = HamiltonianMatrix(fig2.h.entries.copy(), fig2.basis)
    before = h.entries.tobytes()

    def failing(*args):
        dstedc(*args)
        overwritten.append(h.entries.tobytes() != before)
        args[10].value = 1   # info > 0: an eigenvalue was not found

    monkeypatch.setattr(lib, "scipy_dstedc_64_", failing)
    with pytest.raises(EigensolverError, match="did not converge: dstedc info 1"):
        tb.diagonalize(h)
    assert overwritten == [True]
    assert h.entries.tobytes() == before

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral, "_numpy_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigensolverError, match="did not converge: Eigenvalues did not converge"):
        tb.diagonalize(h)
    assert h.entries.tobytes() == before


_PEAK_SCRIPT = """
import sys
import tbrisim as tb
from tbrisim import spectral

if sys.argv[1] == "numpy.linalg.eigh":
    spectral._numpy_openblas = lambda: None

def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024

def hamiltonian(n, m):
    params = tb.ModelParams(n=n, m=m, eta=0.083, seed=1)
    return tb.build_hamiltonian(tb.build_basis(n, m), tb.sample_spectrum(params),
                                tb.sample_two_body(params))

tb.diagonalize(hamiltonian(4, 8))   # warm-up: OpenBLAS's buffers exist before the measure
h = hamiltonian(6, 12)
before = peak_mb()
tb.diagonalize(h)
assert spectral._eigensolver() == sys.argv[1]
print(peak_mb() - before)
"""


@pytest.mark.skipif(spectral._numpy_openblas() is None, reason="dsyevd in place is unavailable")
def test_dsyevd_in_place_saves_two_dense_arrays_at_the_peak():
    """The peak rise of diagonalizing the fig2 H (N = 924) in a fresh process is at least
    1.75 N x N float64 arrays (8 N^2 B each) lower in place than through np.linalg.eigh:
    H, Z and one workspace against H, eigh's copy of H, its 2 N^2 workspace and its V."""
    env, rises = dict(os.environ, PYTHONPATH=str(Path(tb.__file__).parents[1])), {}
    for path in ("dsyevd in place", "numpy.linalg.eigh"):
        done = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, path], capture_output=True,
                              text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        rises[path] = float(done.stdout)
    dense_mb = 8 * 924**2 / 2**20
    assert rises["numpy.linalg.eigh"] - rises["dsyevd in place"] >= 1.75 * dense_mb, rises


@pytest.mark.parametrize("name", ["small_3_6", "fig2"])
def test_outputs_do_not_read_eigenvector_signs(request, name):
    """V's column signs are LAPACK's: flipping any set of columns leaves every output
    bitwise unchanged, since each reads C_f(k) squared or times C_i(k) of its own column."""
    system = request.getfixturevalue(name)
    decomp, i = system.decomp, system.i
    signs = np.random.default_rng(41).choice([-1.0, 1.0], size=decomp.size)
    assert (signs < 0).any() and (signs > 0).any()
    flipped = spectral.EigenDecomposition(decomp.energies, decomp.vectors * signs, decomp.basis)

    def outputs(d):
        traj = tb.simulate_trajectory(d, system.basis, system.partition, i, system.grid)
        return [strength_function(d, i).weights, d.compound_occupations,
                tb.asymptotic_occupations(d, i, system.basis), traj.occupations, traj.w0,
                traj.class_populations, traj.unitarity_drift,
                tb.evolve_amplitudes(d, i, system.grid), survival_probability(d, i, system.grid)]

    for got, want in zip(outputs(flipped), outputs(decomp), strict=True):
        assert np.array_equal(got, want)


def test_residuals_default_to_none():
    decomp = spectral.EigenDecomposition(energies=np.array([0.0, 1.0]), vectors=np.eye(2),
                                         basis=tb.build_basis(1, 2))
    assert decomp.orthonormality_residual is None and decomp.reconstruction_residual is None
