"""Eigendecomposition invariants and level-density statistics."""

from __future__ import annotations

import numpy as np
import pytest

import tbrisim as tb
from tbrisim import spectral
from tbrisim.exceptions import EigensolverError, InsufficientStatisticsError, PreconditionError
from tbrisim.spectral import ORTHONORMALITY_TOL, PROBE_MARGIN, RECONSTRUCTION_TOL

from oracles import exact_eigen_residuals, windowed_mid_spacing

FIXTURES = ("small_2_4", "small_3_6", "fig1", "fig2")


def test_one_by_one():
    d = tb.diagonalize(np.array([[2.5]]))
    assert d.energies.tolist() == [2.5]
    assert d.vectors.tolist() == [[1.0]]


def test_two_by_two_analytic():
    a, b = 1.0, 0.25
    d = tb.diagonalize(np.array([[a, b], [b, a]]))
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


def test_sign_gauge_fixed(fig1):
    c = fig1.decomp.vectors
    lead = np.argmax(np.abs(c), axis=0)
    assert np.all(c[lead, np.arange(c.shape[1])] > 0)


def test_diagonalize_deterministic(small_3_6):
    again = tb.diagonalize(small_3_6.h)
    assert np.array_equal(again.energies, small_3_6.decomp.energies)
    assert np.array_equal(again.vectors, small_3_6.decomp.vectors)


def test_diagonalize_rejects_bad_input():
    with pytest.raises(PreconditionError):
        tb.diagonalize(np.ones((2, 3)))
    with pytest.raises(PreconditionError):
        tb.diagonalize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_stats_equidistant_spectrum():
    energies = np.arange(101, dtype=float) * 0.5
    decomp = spectral.EigenDecomposition(energies=energies, vectors=np.eye(101))
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
    decomp = spectral.EigenDecomposition(energies=np.array([0.0, 1.0]), vectors=np.eye(2))
    with pytest.raises(PreconditionError):
        spectral.spectral_stats(decomp)


@pytest.mark.parametrize("name", FIXTURES)
def test_probe_and_exact_residuals_within_tolerances(request, name):
    system = request.getfixturevalue(name)
    h, decomp = system.h.entries, system.decomp
    scale = np.abs(h).max()
    assert decomp.orthonormality_residual <= ORTHONORMALITY_TOL / PROBE_MARGIN
    assert decomp.reconstruction_residual <= RECONSTRUCTION_TOL * scale / PROBE_MARGIN
    assert spectral._check_decomposition(h, decomp.energies, decomp.vectors) == (
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
    ortho, recon = exact_eigen_residuals(h, spectral.EigenDecomposition(energies, vectors))
    assert ortho > ORTHONORMALITY_TOL or recon > RECONSTRUCTION_TOL
    with pytest.raises(EigensolverError) as caught:
        spectral._check_decomposition(h, energies, vectors)
    assert caught.value.residual > 0


@pytest.mark.parametrize("name", ["small_3_6", "fig2"])
def test_in_place_gauge_matches_the_copying_gauge_bitwise(request, name):
    h = request.getfixturevalue(name).h.entries
    energies, vectors = np.linalg.eigh(h)
    lead = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    copied = vectors * np.where(flip, -1.0, 1.0)
    decomp = tb.diagonalize(h)
    assert decomp.vectors.tobytes() == copied.tobytes()
    assert decomp.energies.tobytes() == energies.tobytes()


def test_residuals_default_to_none():
    decomp = spectral.EigenDecomposition(energies=np.array([0.0, 1.0]), vectors=np.eye(2))
    assert decomp.orthonormality_residual is None and decomp.reconstruction_residual is None
