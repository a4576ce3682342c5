"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside the pytest verdicts.  Criteria 4 and 5 take medians over
seeds 1..10; everything else runs on the documented default seed 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tbrisim as tb
from tbrisim import cli
from tbrisim.basis import occupancy_matrix
from tbrisim.dynamics import survival_probability
from tbrisim.pipeline import select_initial_state
from tbrisim.strength import strength_function
from tbrisim.theory import n_pc_envelope

from conftest import MEDIAN_SEEDS, realization_widths, strict_json
from oracles import expm_amplitudes, occupation_numbers

FIG1_GAMMA_WINDOW = (0.35, 0.65)
FIG1_DELTA_WINDOW = (1.00, 1.35)
FIG2_GAMMA_WINDOW = (7.0, 14.0)
FIG2_DELTA_WINDOW = (5.2, 6.4)
EQ14_RMS_LIMIT_FIG2 = 0.05
EQ14_RMS_LIMIT_FIG1 = 0.10
CONSERVATION_TOL = 1e-10
SATURATION_WINDOW = (0.5, 2.0)   # criterion 09's floor / (3/N_env)
ORACLE_TOL = 1e-10


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_basis_size():
    start = time.perf_counter()
    basis = tb.build_basis(6, 12)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    ok = basis.size == 924
    report(1, "basis-size", ok, f"{basis.size} states in {elapsed_ms:.2f} ms")
    assert ok
    assert elapsed_ms < 100.0


@pytest.mark.parametrize("fixture", ["small_2_4", "small_3_6"])
def test_criterion_02_oracle_equivalence(fixture, request):
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(2024)
    times = np.sort(rng.uniform(0.02, 25.0, size=20))
    start = time.perf_counter()
    amplitudes = tb.evolve_amplitudes(s.decomp, s.i, times)
    occ = occupation_numbers(np.abs(amplitudes) ** 2, s.basis)
    w0 = survival_probability(s.decomp, s.i, times)
    occ_matrix = occupancy_matrix(s.basis)
    worst = 0.0
    for j, t in enumerate(times):
        ref = expm_amplitudes(s.h.entries, s.i, t)
        worst = max(worst, np.abs(amplitudes[:, j] - ref).max())
        worst = max(worst, np.abs(occ[:, j] - occ_matrix @ np.abs(ref) ** 2).max())
        worst = max(worst, abs(w0[j] - abs(ref[s.i]) ** 2))
    elapsed = time.perf_counter() - start
    ok = worst <= ORACLE_TOL
    report(
        2, f"oracle-equivalence[{fixture}]", ok,
        f"max deviation {worst:.2e} vs expm, {elapsed:.2f} s",
    )
    assert ok
    assert elapsed < 1.0


@pytest.mark.parametrize("fixture", ["fig1", "fig2"])
def test_criterion_03_moment_identity(fixture, request):
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(33)
    worst = 0.0
    for i in rng.choice(s.basis.size, size=10, replace=False):
        profile = strength_function(s.decomp, int(i))
        delta_sq = tb.energy_variance(s.h, int(i)) ** 2
        worst = max(worst, abs(profile.second_central_moment() - delta_sq) / delta_sq)
    ok = worst <= 1e-8
    report(3, f"moment-identity[{fixture}]", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_04_fig1_widths():
    gammas, deltas = zip(*(realization_widths(0.003, s) for s in MEDIAN_SEEDS))
    g, d = float(np.median(gammas)), float(np.median(deltas))
    ok = (
        FIG1_GAMMA_WINDOW[0] <= g <= FIG1_GAMMA_WINDOW[1]
        and FIG1_DELTA_WINDOW[0] <= d <= FIG1_DELTA_WINDOW[1]
    )
    report(
        4, "fig1-widths", ok,
        f"median Gamma={g:.3f} in {FIG1_GAMMA_WINDOW}, Delta_E={d:.3f} in {FIG1_DELTA_WINDOW}",
    )
    assert ok


def test_criterion_05_fig2_widths():
    gammas, deltas = zip(*(realization_widths(0.083, s) for s in MEDIAN_SEEDS))
    g, d = float(np.median(gammas)), float(np.median(deltas))
    ok = (
        FIG2_GAMMA_WINDOW[0] <= g <= FIG2_GAMMA_WINDOW[1]
        and FIG2_DELTA_WINDOW[0] <= d <= FIG2_DELTA_WINDOW[1]
    )
    report(
        5, "fig2-widths", ok,
        f"median Gamma={g:.3f} in {FIG2_GAMMA_WINDOW}, Delta_E={d:.3f} in {FIG2_DELTA_WINDOW}",
    )
    assert ok


def test_criterion_06_thermal_plateau(fig2):
    worst = float(np.abs(fig2.n_inf - 0.5).max())
    ok = worst <= 0.05
    report(6, "thermal-plateau", ok, f"max |n_inf - 1/2| = {worst:.4f} over 12 orbitals")
    assert ok


def test_criterion_07_eq14_agreement(fig1, fig2):
    detail = []
    ok = True
    for s, limit, tag in ((fig2, EQ14_RMS_LIMIT_FIG2, "eta=0.083"),
                          (fig1, EQ14_RMS_LIMIT_FIG1, "eta=0.003")):
        pred = tb.predict_occupations(
            s.trajectory.occupations[:, 0], s.n_inf, s.trajectory.w0, s.grid
        )
        rms, mx, _ = tb.prediction_error(s.trajectory.occupations, pred)
        ok &= rms <= limit
        detail.append(f"{tag}: rms={rms:.4f} (<= {limit}), max={mx:.3f}")
    report(7, "eq14-agreement", ok, "; ".join(detail))
    assert ok


@pytest.mark.parametrize("fixture", ["fig1", "fig2"])
def test_criterion_08_short_time_law(fixture, request):
    """W0 = 1 - Delta_E^2 t^2 at Delta_E t <= 0.1, with W0 from ``simulate_trajectory``,
    the path a run takes."""
    s = request.getfixturevalue(fixture)
    times = np.array([0.01, 0.02, 0.05, 0.1]) / s.delta_e
    w0 = tb.simulate_trajectory(s.decomp, s.basis, s.partition, s.i, times).w0
    quad = (s.delta_e * times) ** 2
    worst = float(np.max(np.abs(w0 - (1 - quad)) / quad))
    ok = worst <= 0.1
    report(
        8, f"short-time-law[{fixture}]", ok,
        f"max |W0-(1-D^2t^2)|/(D^2t^2) = {worst:.3f} for Delta*t <= 0.1",
    )
    assert ok


def saturation_check(decomp, i) -> tuple[float, float, float, bool]:
    """Criterion 09's check of basis state i: (floor sum w^2, N_env, floor / (3/N_env), whether
    that ratio lies in SATURATION_WINDOW)."""
    floor = tb.dynamics.average_survival(decomp, i)
    n_env = n_pc_envelope(strength_function(decomp, i))
    ratio = floor / (3.0 / n_env)
    return floor, n_env, ratio, SATURATION_WINDOW[0] <= ratio <= SATURATION_WINDOW[1]


def test_criterion_09_saturation(fig2):
    """Long-time W0 floor vs 3/N_pc, with N_pc counted on the smooth envelope.

    The infinite-time mean of W0 is exactly sum_k w_k^2 = 1/N_ipr when no
    level repeats, and ``average_survival`` returns that sum.  The components
    of a chaotic eigenstate fluctuate like Gaussians (Porter-Thomas), so
    <w^2> = 3 <w>^2 and the floor is 3/N_pc when N_pc counts the principal
    components of the smoothed envelope of w_k (Flambaum & Izrailev, PRE 56,
    5144 (1997)).  The raw IPR already holds that factor 3, so the check uses
    the envelope count N_env; the ratio fails if the weights or their
    Gaussian statistics are off by a factor of order 3.
    """
    floor, n_env, ratio, ok = saturation_check(fig2.decomp, fig2.i)
    report(
        9, "saturation", ok,
        f"floor sum w^2={floor:.3e}, N_ipr={1 / floor:.1f}, N_env={n_env:.1f}, "
        f"floor/(3/N_env)={ratio:.3f} in {list(SATURATION_WINDOW)}",
    )
    assert ok


@pytest.mark.parametrize("eta, chaotic", [(1e-5, False), (1e-3, True)])
def test_criterion_09_fails_below_the_chaos_border(basis_6_12, eta, chaotic):
    """Criterion 09's check, unchanged, on the non-degenerate ladder (jitter 0.3), n=6, m=12,
    mid-spectrum, seeds 1-3: it must fail far below the chaos border and pass above it.

    The Porter-Thomas floor holds only where the exact states are chaotic, where the
    interaction mixes the states it couples directly, Gamma_GR rho_f >~ 1 (Flambaum &
    Izrailev, PRE 56, 5144 (1997)): rho_f Gamma_GR is ~0.03 at eta 1e-5, where the initial
    state is nearly an eigenstate and its floor lies ~10x above 3/N_env, and ~4 at 1e-3.  On
    the exact ladder (the presets) degenerate shells mix at any coupling, so the check
    passes there even at 1e-5 and cannot serve as the control.
    """
    verdicts = []
    for seed in (1, 2, 3):
        params = tb.ModelParams(n=6, m=12, eta=eta, seed=seed, jitter=0.3)
        h = tb.build_hamiltonian(basis_6_12, tb.sample_spectrum(params),
                                 tb.sample_two_body(params))
        _, n_env, ratio, ok = saturation_check(tb.diagonalize(h),
                                               select_initial_state(h, "mid-spectrum"))
        report(9, f"saturation-control[eta={eta:g}, seed {seed}]", ok == chaotic,
               f"floor/(3/N_env)={ratio:.3f}, N_env={n_env:.1f}, "
               f"{'in' if ok else 'outside'} {list(SATURATION_WINDOW)}")
        verdicts.append(ok)
    assert verdicts == [chaotic] * 3


@pytest.mark.parametrize("fixture", ["fig1", "fig2"])
def test_criterion_10_conservation(fixture, request):
    """Particle number, class sum and norm hold to ``CONSERVATION_TOL``; the unitarity drift
    the trajectory records (and a run writes to its manifest) agrees with a recount.

    The recount sums |A_f(t)|^2 of ``evolve_amplitudes``, evaluated directly at every
    grid time, over f.  A sum of N positive terms near 1 is off by at most (N - 1) eps,
    and each term is rounded differently by at most ~10 eps relative (the recount's
    modulus and square against the in-place squares): 2 (N + 10) eps, 4.1e-13 at N=924.
    That counts the two sums alone.  The amplitudes come from GEMMs of another shape
    (2T rows here, K + 2(T - s) in the trajectory), and the recorded drift also covers
    the K2 node norms and the interpolated prefix norms, reduced rows whose a-priori
    bound (``_reduced_bound`` in test_dynamics) is far wider.  So 2 (N + 10) eps is a
    measured margin, not a derived bound: on seed 1 the two read within 8.9e-16 (fig1)
    and 2.2e-16 (fig2).
    """
    s = request.getfixturevalue(fixture)
    n_err = float(np.abs(s.trajectory.occupations.sum(axis=0) - 6.0).max())
    w_err = float(np.abs(s.trajectory.class_populations.sum(axis=0) - 1.0).max())
    prob = np.abs(tb.evolve_amplitudes(s.decomp, s.i, s.grid)) ** 2
    u_err = float(np.abs(prob.sum(axis=0) - 1.0).max())
    recorded = s.trajectory.unitarity_drift
    bound = 2 * (s.decomp.size + 10) * np.finfo(float).eps
    worst = max(n_err, w_err, u_err, recorded)
    ok = worst <= CONSERVATION_TOL and abs(recorded - u_err) <= bound
    report(
        10, f"conservation[{fixture}]", ok,
        f"particle {n_err:.1e}, class-sum {w_err:.1e}, unitarity {u_err:.1e}, "
        f"recorded drift {recorded:.1e} (within {bound:.1e} of the recount)",
    )
    assert ok


def test_criterion_11_class_timescale(fig1):
    w1 = fig1.trajectory.class_populations[1]
    t = fig1.trajectory.grid.points
    half = 0.5 * w1.max()
    j = int(np.argmax(w1 >= half))
    t_half = float(np.interp(half, w1[j - 1 : j + 1], t[j - 1 : j + 1])) if j > 0 else t[0]
    ratio = t_half * fig1.gamma
    ok = 0.5 <= ratio <= 2.0
    report(
        11, "class-timescale", ok,
        f"t_half(W1)={t_half:.3f}, 1/Gamma={1 / fig1.gamma:.3f}, ratio={ratio:.3f}",
    )
    assert ok


def test_criterion_12_determinism(tmp_path):
    """Two runs of one config write byte-identical payloads.

    Byte identity holds at a fixed BLAS thread count: eigh's last bits
    depend on how BLAS splits its work, which
    ``test_payloads_and_fits_agree_across_blas_thread_counts`` bounds.
    """
    payloads = ("occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv")
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = cli.main(["reproduce-fig2", "--out", str(out), "--seed", "1"])
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in payloads
    )
    report(12, "determinism", identical, f"byte-identical payloads: {', '.join(payloads)}")
    assert identical



FIT_FIELDS = {
    "bw_fit": ("gamma", "center"),
    "hybrid_fit": ("b_fitted", "b_derived", "e_c", "sigma", "gamma"),
    "fermi_dirac": ("beta", "alpha"),
}


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


def test_payloads_and_fits_agree_across_blas_thread_counts(tmp_path):
    """fig2 seed 1 with 1 and with 2 BLAS threads: payloads within 1e-12, fits within 1e-8.

    Each manifest records the thread count that produced it, and the
    long-time W0 average agrees within 1e-11 relative.

    The payloads differ in their last bits (eigh); a well-identified fit must
    not amplify that into its parameters.
    """
    outs = {}
    for threads in ("1", "2"):
        outs[threads] = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(tb.__file__).parents[1]))
        subprocess.run(
            [sys.executable, "-m", "tbrisim.cli", "reproduce-fig2", "--seed", "1",
             "--out", str(outs[threads])],
            env=env, capture_output=True, check=True, timeout=300,
        )
    worst = 0.0
    for name in ("occupations.csv", "prediction.csv", "strength.csv", "plotdata.csv"):
        rows1, rows2 = (_csv_rows(outs[t] / name) for t in ("1", "2"))
        assert rows1[0] == rows2[0] and len(rows1) == len(rows2), name
        for row1, row2 in zip(rows1[1:], rows2[1:]):
            for a, b in zip(row1, row2):
                if a != b:
                    worst = max(worst, abs(float(a) - float(b)))
    assert worst <= 1e-12
    manifests = [strict_json((outs[t] / "manifest.json").read_text()) for t in ("1", "2")]
    assert [m["environment"]["blas_threads"] for m in manifests] == [1, 2]
    derived = [m["derived"] for m in manifests]
    n_ipr = [d["n_pc_ipr"] for d in derived]
    assert n_ipr[0] == pytest.approx(n_ipr[1], rel=1e-11)
    for fit, fields in FIT_FIELDS.items():
        assert derived[0][fit]["status"] == derived[1][fit]["status"] == "converged", fit
        for field in fields:
            assert derived[0][fit][field] == pytest.approx(derived[1][fit][field], rel=1e-8), (
                fit, field,
            )
    report(12, "determinism-across-threads", True, f"payloads within {worst:.1e}")
