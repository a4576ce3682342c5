"""Benchmark workloads: inputs made from the seed, one op, and its checks.

Every op is checked without a stored reference; ``check`` returns the list of
problems found (empty when the op's outputs are correct).  Each workload draws
its inputs from ``random.Random(f"<name>:<seed>")``, so a seed fixes them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

from tbrisim import basis as fock
from tbrisim import cli, dynamics, hamiltonian, spectral, strength, theory

FIG1_ETA = 0.003
FIG2_ETA = 0.083
SEED_RANGE = (1, 2**31)
# Small config run once before timing: touches every traced function.
WARM_UP_MODEL = {"n": 4, "m": 8, "eta": FIG2_ETA, "seed": 1}


def expected_nnz(n: int, m: int) -> int:
    """Non-zeros of H: the diagonal, one-orbital moves and two-orbital moves per row."""
    return math.comb(m, n) * (1 + n * (m - n) + math.comb(n, 2) * math.comb(m - n, 2))


def warm_up(tmp: Path) -> None:
    outdir = tmp / "warm-up"
    cli.run(cli.config_from_dict({"model": WARM_UP_MODEL, "output": {"directory": str(outdir)}}))
    shutil.rmtree(outdir)


def _read_table(path: Path) -> np.ndarray:
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.loadtxt(rows[1:], delimiter=",", ndmin=2)


def check_rundir(outdir: Path, n: int, m: int) -> list[str]:
    """Checks on one exported run: hashes, moment identity, particle number, W0(0)."""
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        problems = []
        for name, digest in manifest["files"].items():
            path = outdir / name
            if not path.is_file():
                problems.append(f"{name}: missing")
            elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                problems.append(f"{name}: hash does not match the manifest")
        profile = _read_table(outdir / "strength.csv")
        energies, weights = profile[:, 1], profile[:, 2]
        moment = weights @ (energies - weights @ energies) ** 2
        delta_e2 = manifest["derived"]["delta_e"] ** 2
        if not abs(moment - delta_e2) <= 1e-8 * delta_e2:
            problems.append(f"Delta_E^2={delta_e2!r} but strength.csv moment={moment!r}")
        occ = _read_table(outdir / "occupations.csv")
        worst = np.abs(occ[:, 1:1 + m].sum(axis=1) - n).max()
        if not worst <= 1e-9:
            problems.append(f"occupations.csv rows miss n={n} by up to {worst:.3g}")
        if occ[0, 0] != 0.0 or not abs(occ[0, 1 + m] - 1.0) <= 1e-12:
            problems.append(f"W0({occ[0, 0]!r}) = {occ[0, 1 + m]!r}, expected W0(0) = 1")
        return problems
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable run directory {outdir}: {exc!r}"]


class Fig2:
    """``tbrisim reproduce-fig2`` in a fresh process per op; driven by run.py."""

    n, m = 6, 12

    def __init__(self, seed: int):
        self._rng = random.Random(f"fig2:{seed}")

    def next_seed(self) -> int:
        return self._rng.randrange(*SEED_RANGE)

    def check(self, outdir: Path) -> list[str]:
        return check_rundir(outdir, self.n, self.m)


class Ensemble:
    """Width statistics of 10 N=924 realizations, eta alternating fig1/fig2."""

    n, m = 6, 12

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(f"ensemble:{seed}")
        self.seeds = [rng.randrange(*SEED_RANGE) for _ in range(10)]
        self.basis = fock.build_basis(self.n, self.m)

    def op(self, k: int):
        params = hamiltonian.ModelParams(
            n=self.n, m=self.m, eta=(FIG1_ETA, FIG2_ETA)[k % 2], seed=self.seeds[k // 2 % 10]
        )
        h = hamiltonian.build_hamiltonian(
            self.basis, hamiltonian.sample_spectrum(params), hamiltonian.sample_two_body(params)
        )
        diag = h.diagonal()
        i = int(np.argmin(np.abs(diag - np.median(diag))))
        partition = fock.classify(self.basis, int(self.basis.states[i]))
        return h, strength.golden_rule_gamma(h, partition, i), strength.energy_variance(h, i)

    def check(self, result) -> list[str]:
        h, gamma, delta_e = result
        problems = []
        if not np.array_equal(h.entries, h.entries.T):
            problems.append("H is not symmetric")
        nnz, want = int(np.count_nonzero(h.entries)), expected_nnz(self.n, self.m)
        if nnz != want:
            problems.append(f"H has {nnz} non-zeros, expected {want}")
        for name, width in (("Gamma", gamma), ("Delta_E", delta_e)):
            if not (math.isfinite(width) and width > 0):
                problems.append(f"{name}={width!r} is not finite and positive")
        return problems


class Quench:
    """Many initial states evolved on one fig2 realization diagonalized at set-up."""

    n, m = 6, 12
    candidates = 64
    grid_points = 400

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(f"quench:{seed}")
        params = hamiltonian.ModelParams(n=self.n, m=self.m, eta=FIG2_ETA, seed=rng.randrange(*SEED_RANGE))
        self.basis = fock.build_basis(self.n, self.m)
        self.h = hamiltonian.build_hamiltonian(
            self.basis, hamiltonian.sample_spectrum(params), hamiltonian.sample_two_body(params)
        )
        self.decomp = spectral.diagonalize(self.h)
        diag = self.h.diagonal()
        nearest = np.argsort(np.abs(diag - np.median(diag)), kind="stable")[: self.candidates]
        self.states = [int(i) for i in nearest]
        rng.shuffle(self.states)

    def op(self, k: int):
        i = self.states[k % len(self.states)]
        partition = fock.classify(self.basis, int(self.basis.states[i]))
        gamma = strength.golden_rule_gamma(self.h, partition, i)
        delta_e = strength.energy_variance(self.h, i)
        grid = dynamics.default_grid(delta_e, gamma, partition.n_classes, points=self.grid_points)
        trajectory = dynamics.simulate_trajectory(self.decomp, self.basis, partition, i, grid)
        n_inf = dynamics.asymptotic_occupations(self.decomp, i, self.basis)
        dynamics.average_survival(self.decomp, i)
        prediction = theory.predict_occupations(trajectory.occupations[:, 0], n_inf, trajectory.w0, grid)
        theory.prediction_error(trajectory.occupations, prediction)
        return i, trajectory, n_inf

    def check(self, result) -> list[str]:
        i, trajectory, n_inf = result
        state = int(self.basis.states[i])
        bits = np.array([state >> a & 1 for a in range(self.m)], dtype=float)
        problems = []
        if trajectory.grid.points[0] != 0.0 or np.abs(trajectory.occupations[:, 0] - bits).max() > 1e-12:
            problems.append(f"n_alpha(0) does not match the initial bitmask {state:#x}")
        worst = np.abs(trajectory.occupations.sum(axis=0) - self.n).max()
        if not worst <= 1e-9:
            problems.append(f"n(t) misses n={self.n} by up to {worst:.3g}")
        if not abs(n_inf.sum() - self.n) <= 1e-9:
            problems.append(f"n(inf) sums to {n_inf.sum()!r}, expected {self.n}")
        return problems


class Large:
    """``cli.run`` of n=7, m=14 (N=3432) configs in one warm process."""

    n, m = 7, 14

    def __init__(self, seed: int, tmp: Path):
        self._rng = random.Random(f"large:{seed}")
        self.tmp = tmp

    def op(self, k: int) -> Path:
        outdir = self.tmp / f"op-{k}"
        model = {"n": self.n, "m": self.m, "eta": FIG2_ETA, "seed": self._rng.randrange(*SEED_RANGE)}
        cli.run(cli.config_from_dict({"model": model, "output": {"directory": str(outdir)}}))
        return outdir

    def check(self, outdir: Path) -> list[str]:
        try:
            return check_rundir(outdir, self.n, self.m)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


WARM = {"ensemble": Ensemble, "quench": Quench, "large": Large}
