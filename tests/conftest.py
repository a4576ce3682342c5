"""Shared fixtures: small exactly-checkable systems and the two figure presets."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

import tbrisim as tb
from tbrisim.basis import Basis, ClassPartition
from tbrisim.dynamics import OccupationTrajectory
from tbrisim.hamiltonian import HamiltonianMatrix
from tbrisim.spectral import EigenDecomposition, spectral_stats
from tbrisim.strength import StrengthProfile, strength_function

FIG1_ETA = 0.003
FIG2_ETA = 0.083
MEDIAN_SEEDS = tuple(range(1, 11))


def strict_json(text: str):
    """Parse JSON as a strict parser does: NaN, Infinity and -Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@dataclass
class System:
    """One fully analyzed disorder realization."""

    params: tb.ModelParams
    basis: Basis
    spectrum: np.ndarray         # ascending orbital energies
    tensor: np.ndarray           # the (P, P) pair-pair table
    h: HamiltonianMatrix
    decomp: EigenDecomposition
    spacing_mid: float | None
    i: int
    partition: ClassPartition
    profile: StrengthProfile
    gamma: float
    delta_e: float
    grid: tb.TimeGrid
    trajectory: OccupationTrajectory
    n_inf: np.ndarray


def make_system(n: int, m: int, eta: float, seed: int, initial="mid-spectrum") -> System:
    params = tb.ModelParams(n=n, m=m, eta=eta, seed=seed)
    basis = tb.build_basis(n, m)
    spectrum = tb.sample_spectrum(params)
    tensor = tb.sample_two_body(params)
    h = tb.build_hamiltonian(basis, spectrum, tensor)
    decomp = tb.diagonalize(h)
    spacing_mid = spectral_stats(decomp) if basis.size >= 10 else None
    diag = h.diagonal()
    if initial == "mid-spectrum":
        i = int(np.argmin(np.abs(diag - np.median(diag))))
    else:
        i = int(initial)
    partition = tb.classify(basis, int(basis.states[i]))
    profile = strength_function(decomp, i)
    delta_e = tb.energy_variance(h, i)
    try:
        gamma = tb.golden_rule_gamma(h, partition, i)
    except tb.InsufficientStatisticsError:
        gamma = delta_e  # too few coupled states for the golden rule; use the moment width
    grid = tb.default_grid(delta_e, gamma, partition.n_classes)
    trajectory = tb.simulate_trajectory(decomp, basis, partition, i, grid)
    n_inf = tb.asymptotic_occupations(decomp, i, basis)
    return System(
        params=params, basis=basis, spectrum=spectrum, tensor=tensor, h=h,
        decomp=decomp, spacing_mid=spacing_mid, i=i, partition=partition, profile=profile,
        gamma=gamma, delta_e=delta_e, grid=grid, trajectory=trajectory, n_inf=n_inf,
    )


@lru_cache(maxsize=None)
def realization_widths(eta: float, seed: int) -> tuple[float, float]:
    """(golden-rule Gamma, Delta_E) of the mid-spectrum state, arrays discarded."""
    params = tb.ModelParams(n=6, m=12, eta=eta, seed=seed)
    basis = _basis_6_12()
    h = tb.build_hamiltonian(basis, tb.sample_spectrum(params), tb.sample_two_body(params))
    diag = h.diagonal()
    i = int(np.argmin(np.abs(diag - np.median(diag))))
    partition = tb.classify(basis, int(basis.states[i]))
    return tb.golden_rule_gamma(h, partition, i), tb.energy_variance(h, i)


def _realization(eta: float, seed: int):
    """(basis, spectrum, H, decomposition) of the n=6, m=12 realization."""
    params = tb.ModelParams(n=6, m=12, eta=eta, seed=seed)
    basis = _basis_6_12()
    spectrum = tb.sample_spectrum(params)
    h = tb.build_hamiltonian(basis, spectrum, tb.sample_two_body(params))
    return basis, spectrum, h, tb.diagonalize(h)


@lru_cache(maxsize=None)
def realization_fit_inputs(eta: float, seed: int):
    """(profile, golden-rule Gamma, asymptotic occupations, spectrum) of the mid-spectrum state."""
    basis, spectrum, h, decomp = _realization(eta, seed)
    diag = h.diagonal()
    i = int(np.argmin(np.abs(diag - np.median(diag))))
    partition = tb.classify(basis, int(basis.states[i]))
    return (
        strength_function(decomp, i),
        tb.golden_rule_gamma(h, partition, i),
        tb.asymptotic_occupations(decomp, i, basis),
        spectrum,
    )


def percentile_occupations(eta: float, seed: int, percentiles):
    """(asymptotic occupations of the state nearest each percentile of the diagonal
    energies, spectrum)."""
    basis, spectrum, h, decomp = _realization(eta, seed)
    diag = h.diagonal()
    states = [int(np.argmin(np.abs(diag - np.percentile(diag, q)))) for q in percentiles]
    return [tb.asymptotic_occupations(decomp, i, basis) for i in states], spectrum


@lru_cache(maxsize=1)
def _basis_6_12() -> Basis:
    return tb.build_basis(6, 12)


@pytest.fixture(scope="session")
def basis_6_12() -> Basis:
    return _basis_6_12()


@pytest.fixture(scope="session")
def fig1() -> System:
    """Weak-interaction preset, seed 1."""
    return make_system(6, 12, FIG1_ETA, seed=1)


@pytest.fixture(scope="session")
def fig2() -> System:
    """Strong-interaction preset, seed 1."""
    return make_system(6, 12, FIG2_ETA, seed=1)


@pytest.fixture(scope="session")
def small_2_4() -> System:
    """n=2, m=4 (N=6): small enough for full operator-algebra oracles."""
    return make_system(2, 4, eta=0.2, seed=11, initial=0)


@pytest.fixture(scope="session")
def small_3_6() -> System:
    """n=3, m=6 (N=20): the second oracle-equivalence system."""
    return make_system(3, 6, eta=0.1, seed=5)
