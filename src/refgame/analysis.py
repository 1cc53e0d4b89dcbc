"""Convergence diagnostics around the stationary equilibrium.

Everything here takes a solved stationary price pair ``sne`` as an
input and measures a trajectory or the static landscape against it:

* a weighted l1 distance whose weights cancel the firms' sensitivity
  scales,
* the quadrant of a price pair relative to the stationary point,
* ``sne_drift``: the signed sum of scaled derivatives pointing toward
  the stationary point, strictly positive away from it (off-equilibrium
  prices always drift back),
* ``local_potential`` and its closed-form Hessian at the stationary
  point, whose positive definiteness certifies local quadratic growth
  and yields the curvature constant the step-size rule 2/gamma is built
  from,
* window statistics (``rate_fit``) for the decay rates t * dist^2 and
  t^2 * gap^2, and a coarse verdict classifier (``cycle_detector``),
* ``check_properties``: the property checks of ``refgame verify`` on
  one market, gathered in a ``PropertyReport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import Trajectory
from .model import (
    MarketParams,
    PricePair,
    bound_constants,
    demand,
    log_rev_derivative,
    revenue,
    scaled_derivative,
    scaled_derivative_partials,
)

if TYPE_CHECKING:  # equilibrium imports this module
    from .equilibrium import SneSolution

__all__ = [
    "CONVERGED",
    "CYCLING",
    "UNDECIDED",
    "RateReport",
    "RateConstants",
    "HessianCertificate",
    "PropertyReport",
    "weighted_l1_distance",
    "quadrant",
    "sne_drift",
    "local_potential",
    "hessian_certificate",
    "rate_constants",
    "rate_fit",
    "cycle_detector",
    "check_properties",
]

CONVERGED = "CONVERGED"
CYCLING = "CYCLING"
UNDECIDED = "UNDECIDED"

# cycle_detector thresholds: tail distances below _SETTLED mean settled,
# a tail floor above _APART with stable oscillation amplitude means cycling
_SETTLED = 1e-3
_APART = 1e-2

# random states drawn by check_properties
_GRADIENT_STATES = 100
_BOUND_SAMPLES = 10_000


@dataclass(frozen=True)
class RateReport:
    """Window suprema of the two decay-rate statistics.

    ``sup_t_dist2`` is sup over the window of t * ||p** - p_t||_2^2 and
    ``sup_t2_gap2`` is sup of t^2 * ||r_t - p_t||_2^2. Under a step
    schedule of order 1/t both stay bounded; comparing them across
    doubling windows is the practical boundedness test.
    """

    sup_t_dist2: float
    sup_t2_gap2: float
    window: tuple[int, int]
    converged: bool


@dataclass(frozen=True)
class RateConstants:
    """Constant ledger for the 1/t step-size regime.

    lam        (1 + alpha^2) / 2, the per-period contraction of the
               price/reference gap (< 1 whenever alpha < 1)
    lam0       gap noise coefficient ((1+alpha^2)/(1-alpha^2)) * m_g^2
               * sum_i (b_i+c_i)^2
    t_lam      sqrt(lam+1) / (sqrt(lam+1) - sqrt(2 lam)), the period
               after which the gap induction closes
    c1         m_g^2 * sum_i (b_i+c_i)^2, the squared-step noise term
    c2         2 * l_r * (p_hi - p_lo) * sum_i (b_i+c_i), the
               gap-coupling term
    d_eta      2 / gamma: the recommended coefficient for the
               eta_t = d_eta / (t+1) schedule
    """

    lam: float
    lam0: float
    t_lam: float
    c1: float
    c2: float
    gamma_estimate: float
    d_eta: float


@dataclass(frozen=True)
class HessianCertificate:
    """Closed-form Hessian of the local potential at the stationary point."""

    matrix: np.ndarray
    det: float
    trace: float
    min_eig: float
    gamma_estimate: float


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of :func:`check_properties`: one field per summary line of
    ``refgame verify``, in its print order, then ``failures``, the names
    of the failed checks in the order gradient, bounds, drift, hessian.

    ``gradient`` fails unless ``gradient_max_rel_err`` < 1e-6; ``bounds``
    unless ``bounds_violations`` (counted with 1e-12 slack) is 0;
    ``drift`` unless ``drift_grid_min`` > 0 and the shell minima, given as
    (radius, least drift) pairs, increase with the radius; ``hessian``
    unless ``hessian_fd_max_rel_err`` < 1e-5. ``hessian_pd`` is always
    True: ``solve_sne`` refuses a Hessian that is not positive definite.
    """

    gradient_states: int
    gradient_max_rel_err: float
    bounds_samples: int
    bounds_violations: int
    drift_grid_points: int
    drift_grid_min: float
    drift_shell_minima: tuple[tuple[float, float], ...]
    drift_shells_increasing: bool
    hessian_pd: bool
    hessian_fd_max_rel_err: float
    failures: tuple[str, ...]


def weighted_l1_distance(params: MarketParams, p, sne: PricePair):
    """Sensitivity-weighted l1 distance to the stationary prices.

    |p_H** - p_H| / (b_H+c_H) + |p_L** - p_L| / (b_L+c_L); zero exactly
    at the stationary point. Accepts array components.
    """
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    p_H, p_L = p
    return np.abs(sne.p_H - p_H) / s_H + np.abs(sne.p_L - p_L) / s_L


def quadrant(p, sne: PricePair) -> str:
    """Classify a price pair into N1..N4 around the stationary point.

    Half-open conventions (strict on one axis, weak on the other):

        N1: p_H >  sne_H  and  p_L >= sne_L
        N2: p_H <= sne_H  and  p_L >  sne_L
        N3: p_H <  sne_H  and  p_L <= sne_L
        N4: p_H >= sne_H  and  p_L <  sne_L

    Exact equality on both axes returns "ORIGIN". Every pair lands in
    exactly one class.
    """
    p_H, p_L = float(p[0]), float(p[1])
    if p_H == sne.p_H and p_L == sne.p_L:
        return "ORIGIN"
    if p_H > sne.p_H and p_L >= sne.p_L:
        return "N1"
    if p_H <= sne.p_H and p_L > sne.p_L:
        return "N2"
    if p_H < sne.p_H and p_L <= sne.p_L:
        return "N3"
    return "N4"


def sne_drift(params: MarketParams, p, sne: PricePair):
    """Signed drift toward the stationary point at references r = p.

    sign(p_H** - p_H) * G_H(p, p) + sign(p_L** - p_L) * G_L(p, p),
    which is strictly positive everywhere in the box except at the
    stationary point itself: whichever side of the equilibrium a firm
    is on, its scaled derivative points back. Accepts array components.
    """
    p_H, p_L = p
    g_H, g_L = scaled_derivative(params, (p_H, p_L), (p_H, p_L))
    return np.sign(sne.p_H - p_H) * g_H + np.sign(sne.p_L - p_L) * g_L


def local_potential(params: MarketParams, p, sne: PricePair):
    """Potential sum_i (b_i+c_i) * G_i(p, p) * (p_i** - p_i).

    Vanishes at the stationary point, grows quadratically near it (see
    :func:`hessian_certificate`), and upper-bounds the per-period
    decrease of the squared distance under the ascent dynamics.
    """
    p_H, p_L = p
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    g_H, g_L = scaled_derivative(params, (p_H, p_L), (p_H, p_L))
    return s_H * g_H * (sne.p_H - p_H) + s_L * g_L * (sne.p_L - p_L)


def hessian_certificate(params: MarketParams, sne: PricePair) -> HessianCertificate:
    """Closed-form Hessian of the local potential at the stationary point.

    With d_i** the stationary demands, the entries are

        H_ii  = 2 (b_i+c_i) (1 - d_i**) [(b_i+c_i) - c_i d_i**]
        H_HL  = -[b_H (b_L+c_L) + b_L (b_H+c_H)] d_H** d_L**

    The matrix is symmetric positive definite, so det > 0, trace > 0,
    and the smallest eigenvalue is positive; ``gamma_estimate`` is half
    that eigenvalue (the potential dominates gamma * dist^2 nearby).
    """
    d_H, d_L, _ = demand(params, sne, sne)
    d_H, d_L = float(d_H), float(d_L)
    b_H, c_H = params.firm_H.b, params.firm_H.c
    b_L, c_L = params.firm_L.b, params.firm_L.c
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    h_HH = 2.0 * s_H * (1.0 - d_H) * (s_H - c_H * d_H)
    h_LL = 2.0 * s_L * (1.0 - d_L) * (s_L - c_L * d_L)
    h_HL = -(b_H * s_L + b_L * s_H) * d_H * d_L
    matrix = np.array([[h_HH, h_HL], [h_HL, h_LL]])
    eigs = np.linalg.eigvalsh(matrix)
    det = float(h_HH * h_LL - h_HL * h_HL)
    trace = float(h_HH + h_LL)
    min_eig = float(eigs[0])
    return HessianCertificate(
        matrix=matrix,
        det=det,
        trace=trace,
        min_eig=min_eig,
        gamma_estimate=0.5 * min_eig,
    )


def rate_constants(params: MarketParams, gamma_estimate: float) -> RateConstants:
    """Evaluate the 1/t-regime constant ledger for a game instance.

    ``gamma_estimate`` is the local curvature constant, normally
    ``hessian_certificate(...).gamma_estimate``. Undefined at
    alpha = 1 (frozen references never close the gap).
    """
    if not (isinstance(gamma_estimate, (int, float)) and gamma_estimate > 0.0):
        raise ValueError(f"gamma_estimate must be > 0, got {gamma_estimate!r}")
    alpha = params.alpha
    if alpha == 1.0:
        raise ValueError("rate constants are undefined at alpha = 1")
    m_g, l_r = bound_constants(params)
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    sum_sq = s_H**2 + s_L**2
    lam = (1.0 + alpha**2) / 2.0
    lam0 = ((1.0 + alpha**2) / (1.0 - alpha**2)) * m_g**2 * sum_sq
    t_lam = math.sqrt(lam + 1.0) / (math.sqrt(lam + 1.0) - math.sqrt(2.0 * lam))
    c1 = m_g**2 * sum_sq
    c2 = 2.0 * l_r * (params.p_hi - params.p_lo) * (s_H + s_L)
    return RateConstants(
        lam=lam,
        lam0=lam0,
        t_lam=t_lam,
        c1=c1,
        c2=c2,
        gamma_estimate=float(gamma_estimate),
        d_eta=2.0 / float(gamma_estimate),
    )


def _window_bounds(
    traj: Trajectory,
    window_fraction: float,
    window: tuple[int, int] | None,
) -> tuple[int, int]:
    t_last = traj.t0 + len(traj) - 1
    if window is not None:
        t_start, t_end = int(window[0]), int(window[1])
    else:
        if not 0.0 < window_fraction <= 1.0:
            raise ValueError(f"window_fraction must lie in (0, 1], got {window_fraction}")
        t_start = t_last - int(math.floor(window_fraction * t_last))
        t_end = t_last
    if not traj.t0 <= t_start <= t_end <= t_last:
        raise ValueError(f"window [{t_start}, {t_end}] outside trajectory periods")
    return t_start, t_end


def rate_fit(
    traj: Trajectory,
    sne: PricePair,
    window_fraction: float = 0.5,
    window: tuple[int, int] | None = None,
    converged_tol: float = 1e-2,
) -> RateReport:
    """Suprema of t * dist^2 and t^2 * gap^2 over a trajectory window.

    The window is the trailing ``window_fraction`` of periods unless an
    explicit inclusive ``(t_start, t_end)`` pair is given (windows that
    do not touch the tail are how decay is compared across doubling
    horizons). ``converged`` reports whether the terminal sup-norm
    price distance is below ``converged_tol``.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    t_start, t_end = _window_bounds(traj, window_fraction, window)
    i0, i1 = t_start - traj.t0, t_end - traj.t0 + 1
    t = np.arange(t_start, t_end + 1, dtype=float)
    dist2 = (traj.p_H[i0:i1] - sne.p_H) ** 2 + (traj.p_L[i0:i1] - sne.p_L) ** 2
    gap2 = (traj.r_H[i0:i1] - traj.p_H[i0:i1]) ** 2 + (
        traj.r_L[i0:i1] - traj.p_L[i0:i1]
    ) ** 2
    terminal = max(abs(traj.p_H[-1] - sne.p_H), abs(traj.p_L[-1] - sne.p_L))
    return RateReport(
        sup_t_dist2=float(np.max(t * dist2)),
        sup_t2_gap2=float(np.max(t * t * gap2)),
        window=(t_start, t_end),
        converged=bool(terminal < converged_tol),
    )


def cycle_detector(traj: Trajectory, sne: PricePair, tail_fraction: float = 0.2) -> str:
    """Coarse verdict on the tail of a trajectory: settled, cycling, or neither.

    Judged on the Euclidean price distance to the stationary point over
    the trailing ``tail_fraction`` of periods: CONVERGED when every
    tail distance is below 1e-3; CYCLING when the tail stays above
    1e-2, actually oscillates (several direction reversals), and keeps
    a comparable oscillation amplitude across its two halves (ratio
    within [0.5, 2]); UNDECIDED otherwise (drifting, aliased, or mixed
    tails all land here).
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1), got {tail_fraction}")
    n = len(traj)
    k = max(4, int(math.ceil(tail_fraction * n)))
    k = min(k, n)
    dist = np.hypot(traj.p_H[-k:] - sne.p_H, traj.p_L[-k:] - sne.p_L)
    if np.all(dist < _SETTLED):
        return CONVERGED
    half = k // 2
    first, second = dist[:half], dist[half:]
    amp_1 = float(np.max(first) - np.min(first)) if first.size else 0.0
    amp_2 = float(np.max(second) - np.min(second)) if second.size else 0.0
    reversals = int(np.sum(np.diff(np.sign(np.diff(dist))) != 0))
    if float(np.min(dist)) > _APART and amp_1 > 0.0 and amp_2 > 0.0 and reversals >= 4:
        ratio = amp_2 / amp_1
        if 0.5 <= ratio <= 2.0:
            return CYCLING
    return UNDECIDED


def _floored_rel(err: float, ref: float) -> float:
    return abs(err) / max(1.0, abs(ref))


def _central_diff(f, coords: list, k: int, h: float = 1e-6) -> float:
    """Central difference of f(p_H, p_L, r_H, r_L) in coordinate k."""
    up, down = list(coords), list(coords)
    up[k] += h
    down[k] -= h
    return (f(*up) - f(*down)) / (2.0 * h)


def _gradient_error(params: MarketParams, n_states: int, rng) -> float:
    """Max floored relative error of D_i and of the 2 x 4 partials of G
    against central differences, over n_states random box states."""
    worst = 0.0
    for _ in range(n_states):
        coords = list(rng.uniform(params.p_lo, params.p_hi, 4))
        analytic = log_rev_derivative(params, coords[:2], coords[2:])
        table = scaled_derivative_partials(params, coords[:2], coords[2:])
        for i in (0, 1):
            def log_rev_i(*c):
                return math.log(revenue(params, c[:2], c[2:])[i])

            def g_i(*c):
                return scaled_derivative(params, c[:2], c[2:])[i]

            fd = _central_diff(log_rev_i, coords, i)
            worst = max(worst, _floored_rel(fd - analytic[i], analytic[i]))
            # partials columns: own price, other price, own ref, other ref
            for col, k in enumerate((i, 1 - i, 2 + i, 3 - i)):
                fd = _central_diff(g_i, coords, k)
                worst = max(worst, _floored_rel(fd - table[i, col], table[i, col]))
    return float(worst)


def _bound_violations(params: MarketParams, n_samples: int, rng) -> int:
    """Count violations of |G_i| <= m_g and reference-gradient norm <= l_r."""
    m_g, l_r = bound_constants(params)
    states = rng.uniform(params.p_lo, params.p_hi, size=(4, n_samples))
    prices, refs = (states[0], states[1]), (states[2], states[3])
    g_H, g_L = scaled_derivative(params, prices, refs)
    table = scaled_derivative_partials(params, prices, refs)
    grad_H = np.hypot(table[0, 2], table[0, 3])
    grad_L = np.hypot(table[1, 2], table[1, 3])
    checks = ((np.abs(g_H), m_g), (np.abs(g_L), m_g), (grad_H, l_r), (grad_L, l_r))
    # one-ulp slack, so equality at a bound is no violation
    return sum(int(np.sum(values > bound + 1e-12)) for values, bound in checks)


def _shell_minimum(params: MarketParams, sne: PricePair, eps: float, n: int = 400) -> float:
    """Min of the drift over the weighted-l1 sphere of radius eps."""
    lo, hi = params.p_lo, params.p_hi
    t = (np.arange(n) + 0.5) / n
    best = math.inf
    for sig_H, sig_L in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        p_H = sne.p_H + sig_H * t * eps * params.firm_H.sensitivity
        p_L = sne.p_L + sig_L * (1.0 - t) * eps * params.firm_L.sensitivity
        ok = (p_H >= lo) & (p_H <= hi) & (p_L >= lo) & (p_L <= hi)
        if np.any(ok):
            best = min(best, float(np.min(sne_drift(params, (p_H[ok], p_L[ok]), sne))))
    return best


def _drift_minima(params: MarketParams, sne: PricePair):
    """(least drift on a 100 x 100 box grid off the SNE, its point count,
    (radius, least drift) on shells of 1/4, 1/2 and 1 times 0.9 of the
    largest weighted-l1 radius that stays in the box on every axis)."""
    grid = np.linspace(params.p_lo, params.p_hi, 100)
    gx, gy = np.meshgrid(grid, grid)
    keep = (gx - sne.p_H) ** 2 + (gy - sne.p_L) ** 2 > 1e-3**2
    vals = sne_drift(params, (gx[keep], gy[keep]), sne)
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    eps_max = 0.9 * min(
        (params.p_hi - sne.p_H) / s_H,
        (sne.p_H - params.p_lo) / s_H,
        (params.p_hi - sne.p_L) / s_L,
        (sne.p_L - params.p_lo) / s_L,
    )
    radii = (0.25 * eps_max, 0.5 * eps_max, eps_max)
    shells = tuple((eps, _shell_minimum(params, sne, eps)) for eps in radii)
    return float(np.min(vals)), int(keep.sum()), shells


def _hessian_error(params: MarketParams, sne: PricePair) -> float:
    """Max floored relative error of the closed-form Hessian of the local
    potential against second differences with step 1e-4."""
    matrix = hessian_certificate(params, sne).matrix
    h = 1e-4

    def pot(p_H, p_L):
        return float(local_potential(params, (p_H, p_L), sne))

    x, y = sne.p_H, sne.p_L
    fd = np.empty((2, 2))
    fd[0, 0] = (pot(x + h, y) - 2.0 * pot(x, y) + pot(x - h, y)) / h**2
    fd[1, 1] = (pot(x, y + h) - 2.0 * pot(x, y) + pot(x, y - h)) / h**2
    fd[0, 1] = fd[1, 0] = (
        pot(x + h, y + h) - pot(x + h, y - h) - pot(x - h, y + h) + pot(x - h, y - h)
    ) / (4.0 * h**2)
    return float(np.max(np.abs(fd - matrix) / np.maximum(1.0, np.abs(matrix))))


def check_properties(params: MarketParams, sne: "SneSolution", rng) -> PropertyReport:
    """The four property checks of ``refgame verify`` on one market.

    * ``gradient``: D_i and the 2 x 4 partials of G against central
      differences at 100 random box states; the worst floored relative
      error |err| / max(1, |ref|) must be below 1e-6.
    * ``bounds``: |G_i| <= m_g and the reference-gradient norm <= l_r of
      :func:`bound_constants`, each with 1e-12 slack, at 10 000 states.
    * ``drift``: :func:`sne_drift` must be positive on a box grid off the
      SNE and grow over three weighted-l1 shells around it.
    * ``hessian``: the closed-form Hessian of :func:`local_potential`
      against second differences; floored relative error below 1e-5.

    ``sne`` comes from ``solve_sne``. ``rng``, a numpy Generator, draws
    the gradient states, then the bound states, and nothing else.
    """
    grad_err = _gradient_error(params, _GRADIENT_STATES, rng)
    violations = _bound_violations(params, _BOUND_SAMPLES, rng)
    drift_min, n_grid, shells = _drift_minima(params, sne.prices)
    increasing = shells[0][1] < shells[1][1] < shells[2][1]
    hess_err = _hessian_error(params, sne.prices)
    passed = {
        "gradient": grad_err < 1e-6,
        "bounds": violations == 0,
        "drift": drift_min > 0.0 and increasing,
        "hessian": hess_err < 1e-5,
    }
    return PropertyReport(
        _GRADIENT_STATES, grad_err, _BOUND_SAMPLES, violations, n_grid, drift_min,
        shells, increasing, True, hess_err,
        failures=tuple(name for name, ok in passed.items() if not ok),
    )
