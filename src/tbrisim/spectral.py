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
# Rows of V squared at a time in the compound-occupation table: no N x N square.
ROW_BLOCK = 256
# LAPACK's divide-and-conquer symmetric eigensolver in numpy's OpenBLAS: 64-bit integers (ILP64).
_DSYEVD = "scipy_dsyevd_64_"


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
    """numpy's OpenBLAS: the mapped OpenBLAS exporting ``_DSYEVD``, found once in
    ``/proc/self/maps``; None without one (scipy's copy has only the 32-bit ``scipy_dsyevd_``)."""
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
        if hasattr(lib, _DSYEVD):
            return lib
    return None


def _eigensolver() -> str:
    """The path ``diagonalize`` takes in this process, as the manifest records it."""
    return "numpy.linalg.eigh" if _numpy_openblas() is None else "dsyevd in place"


def diagonalize(h: HamiltonianMatrix) -> EigenDecomposition:
    """Full symmetric eigendecomposition of H over its basis: ``np.linalg.eigh``'s arrays.

    Where numpy's OpenBLAS is loaded, ``_dsyevd`` runs eigh's LAPACK call in
    place, byte-equal to eigh and one N x N array smaller; elsewhere eigh runs.
    V carries LAPACK's column signs; no output depends on them, since every
    observable reads C_f(k) through C_f(k)^2 or a product within one column.
    Orthonormality and reconstruction are verified in O(N^2) by
    ``_check_decomposition``.
    """
    matrix, size = h.entries, h.basis.size
    if matrix.shape != (size, size):
        raise PreconditionError(f"expected a {size} x {size} matrix for the basis, "
                                f"got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise PreconditionError("matrix contains non-finite entries")
    lib = _numpy_openblas()
    if lib is not None:
        energies, vectors = _dsyevd(getattr(lib, _DSYEVD), matrix)
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


def _dsyevd(routine, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, V) of the symmetric ``matrix`` by the ILP64 dsyevd ``routine``, called as eigh calls it:
    jobz "V" and uplo "L" on a Fortran-order copy, which LAPACK overwrites with V, and the work
    arrays of the lwork = liwork = -1 query, freed before V is copied C-contiguous."""
    vectors, energies = np.array(matrix, dtype=float, order="F"), np.empty(len(matrix))
    floats, ints = (np.ctypeslib.ndpointer(kind, flags="F") for kind in (np.float64, np.int64))
    scalar, text = ctypes.POINTER(ctypes.c_int64), ctypes.c_char_p
    routine.restype = None
    routine.argtypes = [text, text, scalar, floats, scalar, floats, floats, scalar, ints, scalar,
                        scalar, ctypes.c_size_t, ctypes.c_size_t]   # hidden string lengths
    n, lwork, liwork, info = (ctypes.c_int64(value) for value in (len(matrix), -1, -1, 0))
    work, iwork = np.zeros(1), np.zeros(1, dtype=np.int64)
    routine(b"V", b"L", n, vectors, n, energies, work, lwork, iwork, liwork, info, 1, 1)
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    lwork.value, liwork.value = len(work), len(iwork)
    routine(b"V", b"L", n, vectors, n, energies, work, lwork, iwork, liwork, info, 1, 1)
    del work, iwork
    if info.value < 0:
        raise RuntimeError(f"dsyevd rejected its argument {-info.value}")
    if info.value > 0:
        raise EigensolverError(f"eigensolver did not converge: dsyevd info {info.value}")
    return energies, np.ascontiguousarray(vectors)


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
    scale = max(matrix.max(), -matrix.min()) or 1.0   # max|H| without an N x N temporary
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
