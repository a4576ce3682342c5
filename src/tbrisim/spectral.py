"""Exact diagonalization and spectral statistics of the dense Hamiltonian."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .exceptions import EigensolverError, InsufficientStatisticsError, PreconditionError
from .hamiltonian import HamiltonianMatrix, ModelParams

ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
PROBES = 4
PROBE_SEED = 1977
PROBE_MARGIN = 10.0
# Columns gauged at a time: abs() and argmax's transposed copy stay N x 64,
# not N x N (halves the gauge at N=3432, where those copies page-fault).
GAUGE_BLOCK = 64


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and the orthonormal eigenvector matrix.

    Column k of ``vectors`` holds the components of eigenstate k over the
    basis; row f holds the expansion of basis state f over eigenstates.
    ``diagonalize`` also records its two probe residuals (see
    ``_check_decomposition``); a decomposition built another way has None.
    """

    energies: np.ndarray
    vectors: np.ndarray
    orthonormality_residual: float | None = None
    reconstruction_residual: float | None = None

    @property
    def size(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class SpectralStats:
    """Smoothed level density and the mean level spacing at mid-spectrum."""

    rho: Callable[[np.ndarray], np.ndarray]
    mean_spacing_mid: float
    bandwidth: float
    window: float


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


def spectral_stats(
    decomp: EigenDecomposition,
    window: float | None = None,
    *,
    bandwidth_spacings: float = 3.0,
) -> SpectralStats:
    """Gaussian-kernel density of the spectrum and the central mean spacing.

    The density smooths the level staircase with bandwidth equal to
    ``bandwidth_spacings`` global mean spacings and integrates to the number
    of levels.  ``mean_spacing_mid`` averages nearest-neighbour spacings over
    the levels within ``window`` of the median energy (default: the ~51
    central levels).
    """
    energies = decomp.energies
    n_levels = len(energies)
    if n_levels < 3:
        raise PreconditionError(f"need at least 3 levels, got {n_levels}")
    mean_spacing = (energies[-1] - energies[0]) / (n_levels - 1)
    bandwidth = bandwidth_spacings * mean_spacing

    def rho(e, _energies=energies, _bw=bandwidth):
        e = np.asarray(e, dtype=float)
        z = (e[..., None] - _energies) / _bw
        return np.exp(-0.5 * z * z).sum(axis=-1) / (_bw * np.sqrt(2 * np.pi))

    median = float(np.median(energies))
    if window is None:
        count = min(51, n_levels)
        window = float(np.sort(np.abs(energies - median))[count - 1]) * (1 + 1e-12)
    inside = energies[np.abs(energies - median) <= window]
    if len(inside) < 10:
        raise InsufficientStatisticsError(
            f"only {len(inside)} levels within {window} of the median; need >= 10"
        )
    spacing_mid = float(inside[-1] - inside[0]) / (len(inside) - 1)
    return SpectralStats(
        rho=rho, mean_spacing_mid=spacing_mid, bandwidth=bandwidth, window=float(window)
    )


_DUMP_MAGIC = b"TBRD"
_DUMP_VERSION = 1
_HEADER = struct.Struct("<4sIQQIIddd")  # magic, version, N, seed, n, m, eta, d0, jitter


def dump_decomposition(decomp: EigenDecomposition, params: ModelParams, path) -> None:
    """Binary dump: header, energies, then column-major eigenvectors."""
    header = _HEADER.pack(
        _DUMP_MAGIC, _DUMP_VERSION, decomp.size, params.seed,
        params.n, params.m, params.eta, params.d0, params.jitter,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(decomp.energies.tobytes())
        fh.write(np.asfortranarray(decomp.vectors).tobytes(order="F"))


def load_decomposition(path) -> tuple[EigenDecomposition, dict]:
    """Read a decomposition dump; arrays round-trip bit for bit."""
    raw = Path(path).read_bytes()
    magic, version, size, seed, n, m, eta, d0, jitter = _HEADER.unpack_from(raw)
    if magic != _DUMP_MAGIC or version != _DUMP_VERSION:
        raise PreconditionError(f"not a decomposition dump: {path}")
    offset = _HEADER.size
    energies = np.frombuffer(raw, dtype=np.float64, count=size, offset=offset).copy()
    offset += size * 8
    vectors = np.frombuffer(raw, dtype=np.float64, count=size * size, offset=offset)
    vectors = vectors.reshape((size, size), order="F").copy(order="F")
    header = {"size": size, "seed": seed, "n": n, "m": m, "eta": eta, "d0": d0, "jitter": jitter}
    return EigenDecomposition(energies=energies, vectors=vectors), header
