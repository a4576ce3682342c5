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

from .basis import ClassPartition, check_index, check_reference
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

    energies: np.ndarray
    weights: np.ndarray
    e_i: float

    def second_central_moment(self) -> float:
        d = self.energies - self.e_i
        return float(self.weights @ (d * d))

    def ipr(self) -> float:
        """Inverse participation ratio sum w^2: the infinite-time mean of W0."""
        return float(self.weights @ self.weights)

    def n_pc_ipr(self) -> float:
        """Number of principal components 1 / sum w^2."""
        return 1.0 / self.ipr()


def strength_function(decomp: EigenDecomposition, i: int) -> StrengthProfile:
    """Squared components of basis state i over all eigenstates."""
    check_index(i, decomp.size)
    weights = decomp.vectors[i, :] ** 2
    e_i = float(weights @ decomp.energies)
    return StrengthProfile(energies=decomp.energies, weights=weights, e_i=e_i)


def energy_variance(h: HamiltonianMatrix, i: int) -> float:
    """Delta_E: root of the off-diagonal row sum, sum_{f != i} H_if^2.

    This equals the exact second central moment of the strength function of
    state i, by the operator identity <i|H^2|i> - H_ii^2 = sum_f H_if^2, summed
    without H_ii^2: subtracting it from the full sum would cancel a weak coupling away.
    """
    check_index(i, h.basis.size)
    row = h.entries[i]
    return float(np.sqrt(row[:i] @ row[:i] + row[i + 1 :] @ row[i + 1 :]))


def golden_rule_gamma(h: HamiltonianMatrix, partition: ClassPartition, i: int) -> float:
    """Golden-rule spreading width 2*pi * mean(H_if^2) * rho_f(E_i).

    The mean square coupling runs over all class-1 states (those reachable
    by one two-body move); rho_f is a Gaussian-kernel density of their
    diagonal energies evaluated at E_i = H_ii, with the bandwidth
    ``kernel_bandwidth`` of those energies.
    """
    check_index(i, h.basis.size)
    check_reference(partition, h.basis, i)
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
    """Weights binned in runs of MIN_BIN_COUNT levels, the last run taking the remainder.

    Inner edges sit at level midpoints, the outer ones half a spacing past the
    end levels; heights are weight densities.
    """
    e, w = profile.energies, profile.weights
    cuts = MIN_BIN_COUNT * np.arange(1, max(len(e) // MIN_BIN_COUNT, 1))   # first level of bins 2..
    first, last = e[0] - 0.5 * (e[1] - e[0]), e[-1] + 0.5 * (e[-1] - e[-2])
    edges = np.concatenate(([first], 0.5 * (e[cuts - 1] + e[cuts]), [last]))
    sums = [w[a:b].sum() for a, b in zip([0, *cuts], [*cuts, len(e)])]
    return 0.5 * (edges[:-1] + edges[1:]), np.array(sums) / np.diff(edges)


def _check_fit_precondition(profile: StrengthProfile, gamma0: float) -> None:
    """PreconditionError for a profile of fewer than ``MIN_FIT_COMPONENTS`` principal components,
    or a start width that is not positive and finite.  The run starts both line-shape fits at
    Gamma_GR, which is 0 only without class-1 coupling, where the component count refuses first."""
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


def _fit(residual, x0, lower, upper, names, log_params, peak):
    """Fit ``residual`` in the box: x and the keys every fit record carries.

    They are the RMS ``residual`` relative to ``peak``, the ``iterations``
    taken, each parameter's ``stderr`` from s^2 (J^T J)^-1 (of the value
    itself for log-parametrised ones: se(v) = v se(log v)) and ``at_bound``,
    the names of the parameters on a bound.
    """
    x, r, jac, iterations = _levenberg_marquardt(residual, x0, lower, upper)
    dof = max(len(r) - len(x), 1)
    cov = (r @ r) / dof * np.linalg.pinv(jac.T @ jac)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    se = np.where(log_params, np.exp(x) * se, se)
    return x, {
        "residual": float(np.sqrt(np.mean(r**2)) / peak),
        "iterations": iterations,
        "stderr": {name: float(v) for name, v in zip(names, se)},
        "at_bound": tuple(n for n, v, lo, hi in zip(names, x, lower, upper) if v <= lo or v >= hi),
    }


def fit_bw(profile: StrengthProfile, *, gamma0: float) -> dict:
    """Least-squares Breit-Wigner fit of the binned weight density, started at width ``gamma0``.

    Model: (Gamma/2pi) / ((E - E0)^2 + Gamma^2/4), the unit-normalized
    Lorentzian, fitted in (log Gamma, E0).  Returns the manifest's
    ``bw_fit`` record: the fitted width ``gamma`` and ``center``, then the
    keys of ``_fit``.
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
    x, diagnostics = _fit(
        residual, [np.log(gamma0), profile.e_i], lower, upper,
        ("gamma", "center"), (True, False), heights.max(),
    )
    return {"gamma": float(np.exp(x[0])), "center": float(x[1]), **diagnostics}


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
    bracket, finds it; where the slope rounds to 0 (a shape on one node) it
    bisects.  Returns sigma, d(log sigma)/d(log Gamma) by the implicit function
    theorem (0 on a bound or a zero slope), and whether sigma sits on a bound.
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
        t_new = t - (m2 - target) / dm_dt if dm_dt > 0 else 0.5 * (lo + hi)
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 4 * np.finfo(float).eps * (1 + abs(t)):
            break
        t = t_new
    dlog_shape_dlg = -(gamma**2 / 2) / (u + gamma**2 / 4)
    return float(np.exp(t)), float(-slope(dlog_shape_dlg) / dm_dt if dm_dt > 0 else 0.0), False


def fit_hybrid(profile: StrengthProfile, *, gamma0: float) -> dict:
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
    re-derived from unit normalization of the shape.  In the Gaussian limit
    (Gamma >> sigma) Gamma runs to its bound, and ``at_bound`` says so.  The
    moment is a trapezoid sum over ``MOMENT_NODES`` nodes spanning the spectrum.

    Returns the manifest's ``hybrid_fit`` record: ``b_fitted``, ``e_c``
    (= E_i), ``sigma``, ``gamma``, ``b_derived``, then the keys of ``_fit``,
    whose ``at_bound`` also names sigma when it sits on a bound.

    PreconditionError when Delta_E < 10 h, h the moment nodes' spacing: sampling a shape
    at spacing h shifts its second moment by up to h^2/12 (Sheppard's correction), more
    than Delta_E^2 / 1200 below that, so sigma would follow the nodes, not the data; also
    when the shape at ``gamma0`` squares to 0 (it underflows from Gamma ~ 1e77): B has no start.
    """
    _check_fit_precondition(profile, gamma0)
    centers, heights = _adaptive_bins(profile)
    e_i = profile.e_i
    target = profile.second_central_moment()
    span = profile.energies[-1] - profile.energies[0]
    nodes = np.linspace(profile.energies[0], profile.energies[-1], MOMENT_NODES)
    spacing = nodes[1] - nodes[0]
    if not target >= (10 * spacing) ** 2:   # NaN fails too
        raise PreconditionError(f"Delta_E = {np.sqrt(target):.3g} is under 10 moment-node "
                                f"spacings ({10 * spacing:.3g}): sigma would follow the quadrature")
    weights = np.full(MOMENT_NODES, spacing)
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
    norm = float(unit @ unit)
    if not norm > 0:
        raise PreconditionError(f"the hybrid shape underflows at the start width {gamma0:.3g}")
    b0 = max(float(unit @ heights) / norm, 1e-300)
    lower = np.array([-np.inf, np.log(1e-9)])
    upper = np.array([np.inf, np.log(10 * span)])
    x, diagnostics = _fit(
        residual, [np.log(b0), np.log(gamma0)], lower, upper,
        ("b_fitted", "gamma"), (True, True), heights.max(),
    )
    b_fit, gamma = (float(v) for v in np.exp(x))
    sigma, _, sigma_at_bound = _moment_sigma(u_nodes, weights, gamma, target, sigma_bounds)
    if sigma_at_bound:
        diagnostics["at_bound"] += ("sigma",)

    # Unit normalization of the fitted shape fixes B independently; the integral runs
    # three level-density bandwidths (``kernel_bandwidth``) past half the span.
    margin = 3 * kernel_bandwidth(profile.energies) + 0.5 * span
    grid = np.linspace(profile.energies[0] - margin, profile.energies[-1] + margin, 4001)
    b_derived = float(1.0 / np.trapezoid(_hybrid_shape((grid - e_i) ** 2, sigma, gamma)[0], grid))
    return {"b_fitted": b_fit, "e_c": e_i, "sigma": sigma, "gamma": gamma,
            "b_derived": b_derived, **diagnostics}


def attempt_fit(fit, *args, **kwargs) -> dict:
    """Run one optional fit: its manifest record, converged or unavailable with the reason.

    A PreconditionError or FitConvergenceError makes the fit unavailable and
    leaves the other fits and the rest of the run untouched.
    """
    try:
        return {"status": "converged", **fit(*args, **kwargs)}
    except (PreconditionError, FitConvergenceError) as exc:
        return {"status": "unavailable", "reason": str(exc)}


def spreading_params(profile: StrengthProfile, delta_e: float, gamma_gr: float) -> float:
    """The manifest's ``sigma``: the band width of a hybrid fit started at ``gamma_gr``, or
    Delta_E where ``attempt_fit`` finds that fit unavailable."""
    return attempt_fit(fit_hybrid, profile, gamma0=gamma_gr).get("sigma", delta_e)


def write_profile_csv(profile: StrengthProfile, path, *, header_lines=()) -> None:
    """CSV of (k, E_k, w_k) rows at full float precision."""
    columns = {
        "k": np.arange(len(profile.energies)),
        "E_k": profile.energies,
        "w_k": profile.weights,
    }
    write_table(path, columns, header_lines=header_lines)
