"""Strength function of a basis state and its spreading parameters.

The strength function collects the squared overlaps of one unperturbed
basis state with every exact eigenstate, viewed against eigenenergy.  Its
width is characterized three ways: the golden-rule spreading width Gamma,
the exact second-moment width Delta_E, and least-squares fits of the
Breit-Wigner and Gaussian/Lorentzian hybrid line shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ClassPartition, check_index
from .exceptions import (
    FitConvergenceError,
    InsufficientStatisticsError,
    PreconditionError,
)
from .export import write_table
from .hamiltonian import HamiltonianMatrix
from .spectral import MIN_WINDOW_LEVELS, EigenDecomposition, kernel_bandwidth

MIN_BIN_COUNT = 10
MIN_FIT_COMPONENTS = 5.0
FIT_XTOL = 1e-12        # largest Gauss-Newton step of a converged fit, per 1 + |parameter|
FIT_MAX_ITER = 200
MIN_DAMPING = 1e-12     # Levenberg-Marquardt damping of a Gauss-Newton step
MAX_DAMPING = 1e10      # damping at which a fit counts as stalled
MOMENT_NODES = 2001     # trapezoid nodes for the hybrid shape's second moment


@dataclass(frozen=True)
class StrengthProfile:
    """Weights w_k = C_i(k)^2 of basis state i over eigenstates, with E_i = <i|H|i>."""

    i: int
    energies: np.ndarray
    weights: np.ndarray
    e_i: float

    def second_central_moment(self) -> float:
        d = self.energies - self.e_i
        return float(self.weights @ (d * d))

    def n_pc_ipr(self) -> float:
        """Inverse participation ratio 1 / sum w^2."""
        return float(1.0 / (self.weights @ self.weights))


@dataclass(frozen=True)
class SpreadingParams:
    """Width and band parameters extracted for one initial basis state."""

    gamma_gr: float
    delta_e: float
    sigma: float
    e_c: float
    n_pc_ratio: float | None     # Gamma over the mid-spectrum spacing; None if that is 0
    n_pc_ipr: float


@dataclass(frozen=True)
class BWFit:
    gamma: float
    center: float
    residual: float
    iterations: int
    stderr: dict
    at_bound: tuple[str, ...]


@dataclass(frozen=True)
class HybridFit:
    """Hybrid line shape: B and Gamma fitted, sigma solved from the second moment, E_c = E_i."""

    b_fitted: float
    e_c: float
    sigma: float
    gamma: float
    b_derived: float
    residual: float
    iterations: int
    stderr: dict
    at_bound: tuple[str, ...]


def strength_function(decomp: EigenDecomposition, i: int) -> StrengthProfile:
    """Squared components of basis state i over all eigenstates."""
    check_index(i, decomp.size)
    weights = decomp.vectors[i, :] ** 2
    e_i = float(weights @ decomp.energies)
    return StrengthProfile(i=i, energies=decomp.energies, weights=weights, e_i=e_i)


def energy_variance(h: HamiltonianMatrix, i: int) -> float:
    """Delta_E: root of the off-diagonal row sum, sum_{f != i} H_if^2.

    This equals the exact second central moment of the strength function of
    state i, by the operator identity <i|H^2|i> - H_ii^2 = sum_f H_if^2.
    """
    check_index(i, h.basis.size)
    row = h.entries[i]
    return float(np.sqrt(row @ row - row[i] ** 2))


def golden_rule_gamma(h: HamiltonianMatrix, partition: ClassPartition, i: int) -> float:
    """Golden-rule spreading width 2*pi * mean(H_if^2) * rho_f(E_i).

    The mean square coupling runs over all class-1 states (those reachable
    by one two-body move); rho_f is a Gaussian-kernel density of their
    diagonal energies evaluated at E_i = H_ii, with the bandwidth
    ``kernel_bandwidth`` of those energies.
    """
    check_index(i, h.basis.size)
    ref = int(h.basis.states[i])
    if partition.reference != ref:
        raise PreconditionError(
            "partition reference does not match the requested basis state"
        )
    class1 = partition.members(1)
    if len(class1) == 0:
        raise PreconditionError("class 1 is empty; no states coupled to i")
    couplings = h.entries[i, class1]
    mean_sq = float(couplings @ couplings) / len(class1)
    if mean_sq == 0.0:
        return 0.0

    e_i = h.entries[i, i]
    final_energies = np.sort(h.entries[class1, class1])
    bandwidth = kernel_bandwidth(final_energies)
    if bandwidth <= 0:
        raise InsufficientStatisticsError("class-1 energies are degenerate")
    z = (final_energies - e_i) / bandwidth
    if np.count_nonzero(np.abs(z) <= 3.0) < MIN_WINDOW_LEVELS:
        raise InsufficientStatisticsError(
            f"fewer than {MIN_WINDOW_LEVELS} class-1 states within the density window around E_i"
        )
    rho_f = float(np.exp(-0.5 * z * z).sum() / (bandwidth * np.sqrt(2 * np.pi)))
    return 2 * np.pi * mean_sq * rho_f


def _adaptive_bins(profile: StrengthProfile):
    """Bin raw weights into >= MIN_BIN_COUNT levels per bin; heights are weight densities."""
    energies = profile.energies
    weights = profile.weights
    n = len(energies)
    edges = [energies[0] - 0.5 * (energies[1] - energies[0])]
    sums = []
    start = 0
    while start < n:
        stop = min(start + MIN_BIN_COUNT, n)
        if n - stop < MIN_BIN_COUNT:
            stop = n
        right = (
            0.5 * (energies[stop - 1] + energies[stop])
            if stop < n
            else energies[-1] + 0.5 * (energies[-1] - energies[-2])
        )
        edges.append(right)
        sums.append(float(weights[start:stop].sum()))
        start = stop
    edges = np.array(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, np.array(sums) / np.diff(edges)


def _check_fit_precondition(profile: StrengthProfile, gamma0: float) -> None:
    if profile.n_pc_ipr() < MIN_FIT_COMPONENTS:
        raise PreconditionError(
            f"too few principal components ({profile.n_pc_ipr():.2f} < "
            f"{MIN_FIT_COMPONENTS}) to define a line shape"
        )
    if not (gamma0 > 0 and np.isfinite(gamma0)):   # NaN fails the first test
        raise PreconditionError(f"the fit's start width must be positive and finite, got {gamma0}")


def _box_step(normal, grad, damping, x, lower, upper):
    """Solve (J^T J + diag(damping)) dx = -J^T r inside the box [lower, upper].

    A parameter whose step would leave the box is moved onto the bound and
    held there while the others are solved again.
    """
    system = normal + np.diag(damping)
    step = np.zeros(len(x))
    free = np.ones(len(x), dtype=bool)
    while True:
        rhs = -grad[free] - system[np.ix_(free, ~free)] @ step[~free]
        step[free] = np.linalg.solve(system[np.ix_(free, free)], rhs)
        inside = np.clip(x + step, lower, upper)
        hit = free & (inside != x + step)
        if not hit.any():
            return step
        step[hit] = inside[hit] - x[hit]
        free &= ~hit


def _levenberg_marquardt(fun, x0, lower, upper):
    """Minimize |r(x)|^2 over the box [lower, upper]; returns (x, r, J, iterations).

    ``fun(x)`` returns the residual vector and its analytic Jacobian.  Each
    trial step solves (J^T J + lam D) dx = -J^T r within the box, D the
    running maximum of diag(J^T J) (More, LNM 630 (1978)).  lam shrinks
    after a step that does not raise the cost, or whose predicted change is
    below the rounding of the cost, and grows after any other.  The fit has
    converged when the Gauss-Newton step (lam = MIN_DAMPING) from the
    current point moves no parameter by more than FIT_XTOL (1 + |x|), so a
    small but heavily damped step in a flat valley does not end it.  A
    wrong Jacobian never passes that test away from a minimum: its steps
    raise the cost until lam exceeds MAX_DAMPING.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r, jac = fun(x)
    cost = r @ r
    scale = np.zeros(len(x))
    lam = 1e-3
    for iteration in range(1, FIT_MAX_ITER + 1):
        normal, grad = jac.T @ jac, jac.T @ r
        scale = np.maximum(scale, np.diag(normal))
        try:
            newton = _box_step(normal, grad, MIN_DAMPING * scale, x, lower, upper)
            if np.all(np.abs(newton) <= FIT_XTOL * (1 + np.abs(x))):
                return x, r, jac, iteration
            step = _box_step(normal, grad, lam * scale, x, lower, upper)
        except np.linalg.LinAlgError as exc:
            raise FitConvergenceError(f"singular normal equations: {exc}") from exc
        predicted = 2 * grad @ step + step @ normal @ step   # cost change, linear model
        with np.errstate(over="ignore", invalid="ignore"):   # an overflowing trial is rejected
            r_new, jac_new = fun(x + step)
            cost_new = r_new @ r_new
        if cost_new <= cost or (
            np.isfinite(cost_new) and abs(predicted) <= len(r) * np.finfo(float).eps * cost
        ):   # below the cost's rounding the gradient, not the cost, ranks the points
            x, r, jac, cost = x + step, r_new, jac_new, cost_new
            lam = max(0.1 * lam, MIN_DAMPING)
        else:
            lam *= 10.0
            if lam > MAX_DAMPING:
                raise FitConvergenceError("line-shape fit stalled: no step lowers the cost")
    raise FitConvergenceError(f"line-shape fit did not converge in {FIT_MAX_ITER} steps")


def _fit_diagnostics(names, x, r, jac, lower, upper, log_params):
    """Standard errors from s^2 (J^T J)^-1 and the names of parameters on a bound.

    Errors of log-parametrised values are carried to the values themselves
    (delta method: se(v) = v se(log v)).
    """
    dof = max(len(r) - len(x), 1)
    cov = (r @ r) / dof * np.linalg.pinv(jac.T @ jac)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    se = np.where(log_params, np.exp(x) * se, se)
    stderr = {name: float(v) for name, v in zip(names, se)}
    at_bound = tuple(n for n, v, lo, hi in zip(names, x, lower, upper) if v <= lo or v >= hi)
    return stderr, at_bound


def fit_bw(profile: StrengthProfile, *, gamma0: float) -> BWFit:
    """Least-squares Breit-Wigner fit of the binned weight density, started at width ``gamma0``.

    Model: (Gamma/2pi) / ((E - E0)^2 + Gamma^2/4), the unit-normalized
    Lorentzian, fitted in (log Gamma, E0).  Returns the fitted width and
    center with the RMS residual relative to the peak height.
    """
    _check_fit_precondition(profile, gamma0)
    centers, heights = _adaptive_bins(profile)
    span = profile.energies[-1] - profile.energies[0]

    def residual(x):
        gamma = np.exp(x[0])
        d = centers - x[1]
        denom = d * d + gamma**2 / 4
        model = (gamma / (2 * np.pi)) / denom
        jac = np.column_stack([model * (1 - gamma**2 / (2 * denom)), model * 2 * d / denom])
        return model - heights, jac

    lower = np.array([np.log(1e-9), profile.energies[0] - span])
    upper = np.array([np.log(10 * span), profile.energies[-1] + span])
    x, r, jac, iterations = _levenberg_marquardt(
        residual, [np.log(gamma0), profile.e_i], lower, upper
    )
    stderr, at_bound = _fit_diagnostics(
        ("gamma", "center"), x, r, jac, lower, upper, np.array([True, False])
    )
    return BWFit(
        gamma=float(np.exp(x[0])),
        center=float(x[1]),
        residual=float(np.sqrt(np.mean(r**2)) / heights.max()),
        iterations=iterations,
        stderr=stderr,
        at_bound=at_bound,
    )


def _hybrid_shape(u, sigma, gamma):
    """exp(-u / (2 sigma^2)) / (u + Gamma^2/4) and its Lorentzian factor, u = (E - E_i)^2."""
    lor = 1.0 / (u + gamma**2 / 4)
    return np.exp(-u / (2 * sigma**2)) * lor, lor


def _moment_sigma(u, weights, gamma, target, bounds):
    """sigma at which the hybrid shape's second moment about E_i equals ``target``.

    The moment is the trapezoid sum m2 = sum f u over nodes at squared
    distances ``u`` from E_i, f the normalized shape.  With both factors
    centred on E_i, d(m2)/d(log sigma) = Var_f(u) / sigma^2 > 0: the root is
    unique, and Newton's method in log sigma, kept inside a bisection
    bracket, finds it.  Returns sigma, d(log sigma)/d(log Gamma) by the
    implicit function theorem (0 when sigma sits on a bound), and whether
    it does.
    """

    def moments(t):
        f = weights * _hybrid_shape(u, np.exp(t), gamma)[0]
        f /= f.sum()
        m2 = f @ u
        # d m2 / d theta = Cov_f(u, d log shape / d theta)
        return m2, lambda a: f @ (u * a) - m2 * (f @ a)

    lo, hi = np.log(bounds)
    if moments(lo)[0] >= target:
        return bounds[0], 0.0, True
    if moments(hi)[0] <= target:
        return bounds[1], 0.0, True
    t = lo
    for _ in range(100):
        m2, slope = moments(t)
        if m2 > target:
            hi = t
        else:
            lo = t
        dm_dt = slope(u / np.exp(2 * t))
        t_new = t - (m2 - target) / dm_dt
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 4 * np.finfo(float).eps * (1 + abs(t)):
            break
        t = t_new
    dlog_shape_dlg = -(gamma**2 / 2) / (u + gamma**2 / 4)
    return float(np.exp(t)), float(-slope(dlog_shape_dlg) / dm_dt), False


def fit_hybrid(profile: StrengthProfile, *, gamma0: float) -> HybridFit:
    """Fit the Gaussian-band / Lorentzian-core hybrid line shape, started at width ``gamma0``.

    Model for the weight density:
        B * exp(-(E - E_c)^2 / (2 sigma^2)) / ((E - E_i)^2 + Gamma^2/4)
    with E_c = E_i, the profile's first moment (H_ii).  sigma is not a free
    parameter: the profile's second moment about E_i is exactly Delta_E^2
    (``energy_variance``), and sigma is solved so that the normalized
    shape, restricted to the spectrum, has that moment.  Only B and Gamma
    are fitted, which the binned data identify.  With sigma free as well,
    sigma and Gamma trade against each other from one realization to the
    next; with E_c free, E_c runs off to where the moment equation has no
    root on weak-coupling profiles.  B is reported both as fitted and as
    re-derived from unit normalization of the shape.
    """
    _check_fit_precondition(profile, gamma0)
    centers, heights = _adaptive_bins(profile)
    e_i = profile.e_i
    target = profile.second_central_moment()
    span = profile.energies[-1] - profile.energies[0]
    nodes = np.linspace(profile.energies[0], profile.energies[-1], MOMENT_NODES)
    weights = np.full(MOMENT_NODES, nodes[1] - nodes[0])
    weights[[0, -1]] *= 0.5
    u_nodes, u_centers = (nodes - e_i) ** 2, (centers - e_i) ** 2
    # the Lorentzian factor narrows a Gaussian centred with it, so sigma >= Delta_E
    sigma_bounds = (np.sqrt(target), 10 * span)

    def shape(gamma):
        sigma, dt_dlg, _ = _moment_sigma(u_nodes, weights, gamma, target, sigma_bounds)
        unit, lor = _hybrid_shape(u_centers, sigma, gamma)
        return unit, -lor * gamma**2 / 2 + u_centers / sigma**2 * dt_dlg

    def residual(x):
        unit, dlog_dlg = shape(np.exp(x[1]))
        model = np.exp(x[0]) * unit
        return model - heights, np.column_stack([model, model * dlog_dlg])

    unit = shape(gamma0)[0]   # B enters linearly: start from its least-squares value
    b0 = max(float(unit @ heights) / float(unit @ unit), 1e-300)
    lower = np.array([-np.inf, np.log(1e-9)])
    upper = np.array([np.inf, np.log(10 * span)])
    x, r, jac, iterations = _levenberg_marquardt(
        residual, [np.log(b0), np.log(gamma0)], lower, upper
    )
    stderr, at_bound = _fit_diagnostics(
        ("b_fitted", "gamma"), x, r, jac, lower, upper, np.array([True, True])
    )
    b_fit, gamma = (float(v) for v in np.exp(x))
    sigma, _, sigma_at_bound = _moment_sigma(u_nodes, weights, gamma, target, sigma_bounds)
    if sigma_at_bound:
        at_bound += ("sigma",)

    # Unit normalization of the fitted shape fixes B independently; the integral runs
    # three level-density bandwidths (``kernel_bandwidth``) past half the span.
    margin = 3 * kernel_bandwidth(profile.energies) + 0.5 * span
    grid = np.linspace(profile.energies[0] - margin, profile.energies[-1] + margin, 4001)
    b_derived = float(1.0 / np.trapezoid(_hybrid_shape((grid - e_i) ** 2, sigma, gamma)[0], grid))
    return HybridFit(
        b_fitted=b_fit,
        e_c=e_i,
        sigma=sigma,
        gamma=gamma,
        b_derived=b_derived,
        residual=float(np.sqrt(np.mean(r**2)) / heights.max()),
        iterations=iterations,
        stderr=stderr,
        at_bound=at_bound,
    )


def spreading_params(
    profile: StrengthProfile,
    delta_e: float,
    gamma_gr: float,
    mean_spacing: float,
) -> SpreadingParams:
    """Bundle the width estimates of one initial state from its computed profile and widths.

    sigma comes from the hybrid fit when it is feasible and falls back to
    Delta_E otherwise; E_c is the profile's first moment, where the hybrid
    shape is centred.
    """
    try:
        sigma = fit_hybrid(profile, gamma0=gamma_gr).sigma
    except (PreconditionError, FitConvergenceError):
        sigma = delta_e
    return SpreadingParams(
        gamma_gr=gamma_gr,
        delta_e=delta_e,
        sigma=sigma,
        e_c=profile.e_i,
        n_pc_ratio=gamma_gr / mean_spacing if mean_spacing > 0 else None,
        n_pc_ipr=profile.n_pc_ipr(),
    )


def write_profile_csv(profile: StrengthProfile, path, *, header_lines=()) -> None:
    """CSV of (k, E_k, w_k) rows at full float precision."""
    columns = {
        "k": np.arange(len(profile.energies)),
        "E_k": profile.energies,
        "w_k": profile.weights,
    }
    write_table(path, columns, header_lines=header_lines)
