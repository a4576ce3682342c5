"""Exact diagonalization and spectral statistics of the dense Hamiltonian."""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .basis import Basis, occupancy_matrix
from .exceptions import EigensolverError, InsufficientStatisticsError, PreconditionError
from .hamiltonian import HamiltonianMatrix

ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
PROBES = 4
PROBE_SEED = 1977
PROBE_MARGIN = 10.0
# Width of the Gaussian kernel of a level density, in mean level spacings.
BANDWIDTH_SPACINGS = 3.0
# Levels a spectral window must hold: the mid-spectrum spacing's and the golden-rule density's.
MIN_WINDOW_LEVELS = 10
# Rows at a time in the compound-occupation table, the symmetry check and H's restore: no N x N
# temporary.
ROW_BLOCK = 256
# max|H| outside [sqrt(safmin/eps), 1/that] = [2^-485, 2^485], dsyevd scales H before its steps.
_UNSCALED = float(np.sqrt(np.finfo(float).tiny / np.finfo(float).eps))
# dsyevd's three steps with jobz "V" in numpy's OpenBLAS (ILP64) and their ctypes signatures:
# reduction to a tridiagonal T, T's eigenvectors by divide and conquer, and their back-transform.
_INT, _TEXT, _LEN = ctypes.POINTER(ctypes.c_int64), ctypes.c_char_p, ctypes.c_size_t
_F, _I = (np.ctypeslib.ndpointer(kind, flags="F") for kind in (np.float64, np.int64))
_STEPS = {
    "scipy_dsytrd_64_": [_TEXT, _INT, _F, _INT, _F, _F, _F, _F, _INT, _INT, _LEN],
    "scipy_dstedc_64_": [_TEXT, _INT, _F, _F, _F, _INT, _F, _INT, _I, _INT, _INT, _LEN],
    "scipy_dormtr_64_": [_TEXT, _TEXT, _TEXT, _INT, _INT, _F, _INT, _F, _F, _INT, _F, _INT, _INT,
                         _LEN, _LEN, _LEN],   # the trailing _LEN are hidden string lengths
}


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending), the orthonormal eigenvector matrix and the basis of both.

    Column k of ``vectors`` holds the components of eigenstate k over ``basis``;
    row f holds the expansion of basis state f over eigenstates.
    ``diagonalize`` also records its two probe residuals (see
    ``_check_decomposition``); a decomposition built another way has None.
    Equality is identity.
    """

    energies: np.ndarray
    vectors: np.ndarray
    basis: Basis
    orthonormality_residual: float | None = None
    reconstruction_residual: float | None = None

    @property
    def size(self) -> int:
        return len(self.energies)

    @functools.cached_property
    def compound_occupations(self) -> np.ndarray:
        """(m, N) read-only n_alpha^(k) = sum_f [alpha in f] C_f(k)^2 of every eigenstate k,
        summed in ``ROW_BLOCK`` rows on first use and kept with the decomposition."""
        occupied, table = occupancy_matrix(self.basis), np.zeros((self.basis.m, self.size))
        for lo in range(0, self.size, ROW_BLOCK):
            table += occupied[:, lo : lo + ROW_BLOCK] @ self.vectors[lo : lo + ROW_BLOCK] ** 2
        table.flags.writeable = False
        return table


@functools.cache
def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's OpenBLAS: the mapped OpenBLAS exporting the ``_STEPS``, found once in
    ``/proc/self/maps``, with their signatures set; None without one (scipy's copy has only
    the 32-bit ``scipy_dsytrd_`` and its kin)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(lib, name) for name in _STEPS):
            for name, argtypes in _STEPS.items():
                getattr(lib, name).argtypes, getattr(lib, name).restype = argtypes, None
            return lib
    return None


def _eigensolver() -> str:
    """The path ``diagonalize`` takes in this process, as the manifest records it; an H that
    dsyevd would rescale takes eigh on either path (the bytes are eigh's on both)."""
    return "numpy.linalg.eigh" if _numpy_openblas() is None else "dsyevd in place"


def diagonalize(h: HamiltonianMatrix) -> EigenDecomposition:
    """Full symmetric eigendecomposition of H over its basis: ``np.linalg.eigh``'s arrays.

    H must equal its transpose bit for bit. Where numpy's OpenBLAS is loaded,
    ``_dsyevd_in_place`` runs the LAPACK steps of eigh's dsyevd in H's own
    storage and restores H, byte-equal to eigh and two N x N arrays smaller;
    elsewhere, or where dsyevd would rescale H, eigh runs. H holds the same
    bytes when this returns or raises. V carries LAPACK's column signs; no
    output depends on them, since every observable reads C_f(k) through
    C_f(k)^2 or a product within one column. Orthonormality and
    reconstruction are verified in O(N^2) by ``_check_decomposition``.
    """
    matrix, size = np.asarray(h.entries, dtype=float), h.basis.size
    if matrix.shape != (size, size):
        raise PreconditionError(f"expected a {size} x {size} matrix for the basis, "
                                f"got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise PreconditionError("matrix contains non-finite entries")
    if not _is_symmetric(matrix):
        raise PreconditionError("matrix is not exactly symmetric")
    lib, scale = _numpy_openblas(), _max_abs(matrix)
    if lib is not None and (scale == 0 or _UNSCALED <= scale <= 1 / _UNSCALED):
        energies, vectors = _dsyevd_in_place(lib, np.require(matrix, requirements="CAW"))
    else:
        try:
            energies, vectors = np.linalg.eigh(matrix)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigensolver did not converge: {exc}") from exc

    ortho, recon = _check_decomposition(matrix, energies, vectors)
    return EigenDecomposition(
        energies=energies, vectors=vectors, basis=h.basis,
        orthonormality_residual=ortho, reconstruction_residual=recon,
    )


def _is_symmetric(matrix: np.ndarray) -> bool:
    """Whether the float64 ``matrix`` equals its transpose bit for bit, compared in row blocks."""
    bits = matrix.view(np.int64)
    return all(np.array_equal(bits[lo : lo + ROW_BLOCK, lo:], bits[lo:, lo : lo + ROW_BLOCK].T)
               for lo in range(0, len(bits), ROW_BLOCK))


def _max_abs(matrix: np.ndarray) -> float:
    """max|H| without an N x N temporary."""
    return float(max(matrix.max(), -matrix.min()))


def _dsyevd_in_place(lib: ctypes.CDLL, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, V) of the symmetric C-order ``matrix`` by the three steps dsyevd (jobz "V", uplo "L")
    runs inside itself, with its workspace sizes, so E and V are its bytes.

    dsytrd reads ``matrix``'s buffer as Fortran order, i.e. H^T = H, and overwrites its C-upper
    triangle and diagonal with T and the reflectors; dstedc writes T's eigenvectors into a fresh
    Fortran-order Z and dormtr applies the reflectors to Z. The three share one workspace of
    dsyevd's N^2 + 4N + 1 floats (dormtr's block size depends on it), so H, Z and that workspace
    are the peak. Z is copied C-contiguous as V; then the untouched C-lower triangle and the
    saved diagonal restore H, also when a step fails.
    """
    size = len(matrix)
    n, info = ctypes.c_int64(size), ctypes.c_int64(0)
    lwork, liwork = ctypes.c_int64(size * size + 4 * size + 1), ctypes.c_int64(3 + 5 * size)
    energies, off_diagonal, tau = np.empty(size), np.empty(size), np.empty(size)
    diagonal, reflectors = matrix.diagonal().copy(), matrix.T
    try:
        work = np.empty(lwork.value)
        lib.scipy_dsytrd_64_(b"L", n, reflectors, n, energies, off_diagonal, tau, work, lwork,
                             info, 1)
        _check_info("dsytrd", info)
        vectors = np.empty((size, size), order="F")
        lib.scipy_dstedc_64_(b"I", n, energies, off_diagonal, vectors, n, work, lwork,
                             np.empty(liwork.value, dtype=np.int64), liwork, info, 1)
        _check_info("dstedc", info)
        lib.scipy_dormtr_64_(b"L", b"L", b"N", n, n, reflectors, n, tau, vectors, n, work, lwork,
                             info, 1, 1, 1)
        _check_info("dormtr", info)
        del work
        vectors = np.ascontiguousarray(vectors)   # frees Z before the restore's row blocks
    finally:
        for lo in range(0, size, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, size)
            np.copyto(matrix[lo:hi, lo:], matrix[lo:, lo:hi].T,
                      where=np.arange(lo, size) > np.arange(lo, hi)[:, None])
        np.fill_diagonal(matrix, diagonal)
    return energies, vectors


def _check_info(step: str, info: ctypes.c_int64) -> None:
    """Raise on a LAPACK step's nonzero ``info``: < 0 a rejected argument, > 0 no convergence."""
    if info.value < 0:
        raise RuntimeError(f"{step} rejected its argument {-info.value}")
    if info.value > 0:
        raise EigensolverError(f"eigensolver did not converge: {step} info {info.value}")


def _check_decomposition(
    matrix: np.ndarray, energies: np.ndarray, vectors: np.ndarray
) -> tuple[float, float]:
    """Random-probe residuals of V^T V = 1 and H V = V E; raises EigensolverError.

    With ``PROBES`` fixed-seed Gaussian columns X (Freivalds, MFCS 1977),
    the orthonormality residual is max|V^T (V X) - X| and the
    reconstruction residual max|H (V X) - V (E X)|: three thin products,
    O(N^2 k) instead of the O(N^3) of forming V^T V and H V.

    Tolerances: each probe residual must stay below the exact check's
    max-norm tolerance divided by ``PROBE_MARGIN``, i.e. ORTHONORMALITY_TOL
    / 10 and RECONSTRUCTION_TOL * max|H| / 10.  This does not loosen the
    exact check.  Let R be V^T V - 1 (or H V - V E) and suppose the exact
    check fails, |R_ij| > tol for some entry.  Row i of R X then holds k
    independent draws (R x_p)_i ~ N(0, |R_i|^2), where the norm of row i
    is |R_i| >= |R_ij| > tol, and each lies below tol / PROBE_MARGIN with
    probability at most sqrt(2/pi) / PROBE_MARGIN < 0.08.  So a
    decomposition that fails the exact check passes the probe check with
    probability below 0.08^4 = 4e-5, and below (0.08 / r)^4 when it fails
    by a factor r.  The other way round, |(R x)_i| may exceed max|R|, so
    the probe check can reject what the exact check accepts: that only
    tightens it.  The margin costs nothing in practice: probe residuals of
    eigh outputs at N=924 and N=3432 sit 450x (orthonormality) and 1e5x
    (reconstruction) below the probe tolerances.

    The seed is fixed, so the check and the recorded residuals are
    deterministic; rounding errors of eigh are not correlated with it.
    """
    n = len(energies)
    probes = np.random.default_rng(PROBE_SEED).standard_normal((n, PROBES))
    images = vectors @ np.hstack([probes, energies[:, None] * probes])   # V X | V (E X)
    ortho = float(np.abs(vectors.T @ images[:, :PROBES] - probes).max())
    if not ortho <= ORTHONORMALITY_TOL / PROBE_MARGIN:
        raise EigensolverError("eigenvectors not orthonormal", residual=ortho)
    scale = _max_abs(matrix) or 1.0
    recon = float(np.abs(matrix @ images[:, :PROBES] - images[:, PROBES:]).max())
    if not recon <= RECONSTRUCTION_TOL * scale / PROBE_MARGIN:
        raise EigensolverError("reconstruction residual too large", residual=recon)
    return ortho, recon


def mean_spacing(levels: np.ndarray) -> float:
    """Mean nearest-neighbour spacing of ascending ``levels``: their span over their count - 1."""
    if len(levels) < 2:
        raise InsufficientStatisticsError(f"a spacing needs at least 2 levels, got {len(levels)}")
    return float(levels[-1] - levels[0]) / (len(levels) - 1)


def kernel_bandwidth(levels: np.ndarray) -> float:
    """Width of the Gaussian kernel of a level density: ``BANDWIDTH_SPACINGS`` mean spacings."""
    return BANDWIDTH_SPACINGS * mean_spacing(levels)


def spectral_stats(decomp: EigenDecomposition) -> float:
    """The mean level spacing at mid-spectrum, over the ~51 levels nearest the median energy.

    It needs at least ``MIN_WINDOW_LEVELS`` of them.
    """
    energies = decomp.energies
    if len(energies) < 3:
        raise PreconditionError(f"need at least 3 levels, got {len(energies)}")
    median = _sorted_median(energies)
    count = min(51, len(energies))
    window = float(np.sort(np.abs(energies - median))[count - 1]) * (1 + 1e-12)
    inside = energies[np.abs(energies - median) <= window]
    if len(inside) < MIN_WINDOW_LEVELS:
        raise InsufficientStatisticsError(f"only {len(inside)} levels near the median; "
                                          f"need >= {MIN_WINDOW_LEVELS}")
    return mean_spacing(inside)


def _sorted_median(values: np.ndarray) -> float:
    """``np.median`` of ascending ``values``, without the numpy.ma import it makes."""
    return float(values[(len(values) - 1) // 2] + values[len(values) // 2]) / 2
