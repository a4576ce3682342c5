"""Exact diagonalization and spectral statistics of the dense Hamiltonian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# Columns gauged at a time: abs() and argmax's transposed copy stay N x 64,
# not N x N (halves the gauge at N=3432, where those copies page-fault).
GAUGE_BLOCK = 64


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and the orthonormal eigenvector matrix.

    Column k of ``vectors`` holds the components of eigenstate k over the
    basis; row f holds the expansion of basis state f over eigenstates.
    ``diagonalize`` also records its two probe residuals (see
    ``_check_decomposition``); a decomposition built another way has None.
    Equality is identity, so tables derived from it can be kept weakly beside it.
    """

    energies: np.ndarray
    vectors: np.ndarray
    orthonormality_residual: float | None = None
    reconstruction_residual: float | None = None

    @property
    def size(self) -> int:
        return len(self.energies)


def diagonalize(h: HamiltonianMatrix | np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition with a fixed sign gauge.

    The gauge makes the largest-magnitude component of every eigenvector
    positive, so repeated runs and dumps are reproducible; the flip is done
    in place, in blocks of columns.  Orthonormality and reconstruction are
    then verified in O(N^2) by ``_check_decomposition``.
    """
    matrix = h.entries if isinstance(h, HamiltonianMatrix) else np.asarray(h, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise PreconditionError("matrix contains non-finite entries")
    try:
        energies, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc

    for lo in range(0, len(energies), GAUGE_BLOCK):
        block = vectors[:, lo : lo + GAUGE_BLOCK]   # a view: the flip writes into vectors
        lead = np.argmax(np.abs(block), axis=0)
        flip = block[lead, np.arange(block.shape[1])] < 0
        block *= np.where(flip, -1.0, 1.0)

    ortho, recon = _check_decomposition(matrix, energies, vectors)
    return EigenDecomposition(
        energies=energies, vectors=vectors,
        orthonormality_residual=ortho, reconstruction_residual=recon,
    )


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
