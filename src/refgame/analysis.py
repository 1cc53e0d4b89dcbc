"""Convergence diagnostics around the stationary equilibrium.

Everything here takes a solved stationary price pair ``sne`` as an
input and measures a trajectory or the static landscape against it:

* a weighted l1 distance whose weights cancel the firms' sensitivity
  scales,
* ``sne_drift``: the signed sum of scaled derivatives pointing toward
  the stationary point, strictly positive away from it (off-equilibrium
  prices always drift back),
* ``local_potential`` and its closed-form Hessian at the stationary
  point, whose positive definiteness certifies local quadratic growth
  and yields the curvature constant gamma of the step-size rule
  eta_t = (2/gamma) / (t+1),
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
    _consts,
    _shares,
    bound_constants,
    log_rev_derivative,
    scaled_derivative,
    scaled_derivative_partials,
    utility,
)

if TYPE_CHECKING:  # equilibrium imports this module
    from .equilibrium import SneSolution

__all__ = [
    "CONVERGED",
    "CYCLING",
    "UNDECIDED",
    "RateReport",
    "HessianCertificate",
    "PropertyReport",
    "weighted_l1_distance",
    "sne_drift",
    "local_potential",
    "hessian_certificate",
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
# rate_fit's converged verdict: terminal sup-norm price distance below this
_CONVERGED_TOL = 1e-2

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


@dataclass(frozen=True, eq=False)
class HessianCertificate:
    """Closed-form Hessian of the local potential at the stationary point.

    ``gamma_estimate`` is half the smallest eigenvalue, the curvature
    constant of the 1/t rate: the schedule eta_t = d / (t+1) with
    d = 2 / gamma_estimate is the theorem's choice of coefficient.
    Certificates compare and hash by identity.
    """

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
    Both eigenvalues come in closed form: the larger is mean +
    hypot((H_HH - H_LL)/2, H_HL), with mean the half trace, and the
    smaller is det / larger when the larger is positive, which avoids
    the cancellation of mean - hypot(...), and that difference otherwise.
    """
    d_H, d_L, q_H, q_L = _shares(_consts(params), *sne, *sne)
    b_H, c_H = params.firm_H.b, params.firm_H.c
    b_L, c_L = params.firm_L.b, params.firm_L.c
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    h_HH = 2.0 * s_H * q_H * (s_H - c_H * d_H)
    h_LL = 2.0 * s_L * q_L * (s_L - c_L * d_L)
    h_HL = -(b_H * s_L + b_L * s_H) * d_H * d_L
    det = float(h_HH * h_LL - h_HL * h_HL)
    trace = float(h_HH + h_LL)
    mean, radius = 0.5 * trace, math.hypot(0.5 * (h_HH - h_LL), h_HL)
    larger = mean + radius
    min_eig = det / larger if larger > 0.0 else mean - radius
    return HessianCertificate(
        matrix=np.array([[h_HH, h_HL], [h_HL, h_LL]]),
        det=det,
        trace=trace,
        min_eig=min_eig,
        gamma_estimate=0.5 * min_eig,
    )


def _window_bounds(
    traj: Trajectory,
    window_fraction: float,
    window: tuple[int, int] | None,
) -> tuple[int, int]:
    t_last = len(traj) - 1
    if window is not None:
        t_start, t_end = int(window[0]), int(window[1])
    else:
        if not 0.0 < window_fraction <= 1.0:
            raise ValueError(f"window_fraction must lie in (0, 1], got {window_fraction}")
        t_start = t_last - int(math.floor(window_fraction * t_last))
        t_end = t_last
    if not 0 <= t_start <= t_end <= t_last:
        raise ValueError(f"window [{t_start}, {t_end}] outside trajectory periods")
    return t_start, t_end


def rate_fit(
    traj: Trajectory,
    sne: PricePair,
    window_fraction: float = 0.5,
    window: tuple[int, int] | None = None,
) -> RateReport:
    """Suprema of t * dist^2 and t^2 * gap^2 over a trajectory window.

    The window is the trailing ``window_fraction`` of periods unless an
    explicit inclusive ``(t_start, t_end)`` pair is given (windows that
    do not touch the tail are how decay is compared across doubling
    horizons). ``converged`` reports whether the terminal sup-norm
    price distance is below 1e-2.

    Past a trajectory's stored records every record recurs each
    ``traj.period`` periods, and ``fl(t * x)`` does not fall as t grows
    for x >= 0, so there only the window's last ``traj.period`` periods
    are evaluated: the suprema are exactly those over the whole window.
    """
    t_start, t_end = _window_bounds(traj, window_fraction, window)
    stored = traj.onset + traj.period
    if t_end < stored:
        t, rows = np.arange(t_start, t_end + 1), slice(t_start, t_end + 1)
    else:
        t = rows = np.concatenate((
            np.arange(t_start, stored),
            np.arange(max(t_start, stored, t_end + 1 - traj.period), t_end + 1),
        ))
    p_H, p_L, r_H, r_L, _, _ = traj._take(rows)
    t = t.astype(float)
    dist2 = (p_H - sne.p_H) ** 2 + (p_L - sne.p_L) ** 2
    gap2 = (r_H - p_H) ** 2 + (r_L - p_L) ** 2
    final = traj.final_state().prices
    terminal = max(abs(final.p_H - sne.p_H), abs(final.p_L - sne.p_L))
    return RateReport(
        sup_t_dist2=float(np.max(t * dist2)),
        sup_t2_gap2=float(np.max(t * t * gap2)),
        window=(t_start, t_end),
        converged=bool(terminal < _CONVERGED_TOL),
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

    When the tail lies in a trajectory's repeating tail and spans at
    least four of its periods, the verdict is read from one period, with
    the same result: both halves then see every distance of the period,
    so their amplitudes are equal, and distances that are not all equal
    reverse direction at least twice in every period, so at least four
    times in the tail. Any other tail is read from the stored records,
    without building a column.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1), got {tail_fraction}")
    n = len(traj)
    k = max(4, int(math.ceil(tail_fraction * n)))
    k = min(k, n)
    orbit = traj.period and n - k >= traj.onset and k >= 4 * traj.period
    t = np.arange(traj.onset, traj.onset + traj.period) if orbit else np.arange(n - k, n)
    p_H, p_L, *_ = traj._take(t)
    dist = np.hypot(p_H - sne.p_H, p_L - sne.p_L)
    if np.all(dist < _SETTLED):
        return CONVERGED
    apart = float(np.min(dist)) > _APART
    if orbit:
        return CYCLING if apart and float(np.max(dist) - np.min(dist)) > 0.0 else UNDECIDED
    half = k // 2
    first, second = dist[:half], dist[half:]
    amp_1 = float(np.max(first) - np.min(first)) if first.size else 0.0
    amp_2 = float(np.max(second) - np.min(second)) if second.size else 0.0
    reversals = int(np.sum(np.diff(np.sign(np.diff(dist))) != 0))
    if apart and amp_1 > 0.0 and amp_2 > 0.0 and reversals >= 4 and 0.5 <= amp_2 / amp_1 <= 2.0:
        return CYCLING
    return UNDECIDED


def _log_revenue(params: MarketParams, prices, references):
    """(log R_H, log R_L) as log p_i + u_i - log(1 + e^u_H + e^u_L): no
    share is formed, so none underflows or is clamped."""
    u_H = utility(params.firm_H, prices[0], references[0])
    u_L = utility(params.firm_L, prices[1], references[1])
    log_total = np.logaddexp(0.0, np.logaddexp(u_H, u_L))
    return np.log(prices[0]) + u_H - log_total, np.log(prices[1]) + u_L - log_total


def _gradient_error(params: MarketParams, n_states: int, rng) -> float:
    """Max floored relative error |err| / max(1, |ref|) of D_i and of the
    2 x 4 partials of G against central differences, over n_states random
    box states drawn as one (n_states, 4) block (the doubles of n_states
    draws of four). A stencil moves each coordinate of every state by
    +-1e-6, so each function is evaluated once, on arrays. D_i is checked
    on :func:`_log_revenue`, which forms no share: a share clamped at the
    smallest normal double would hold fixed, and the difference of
    log(p_i d_i) would give 1/p_i and miss -(b_i+c_i)(1 - d_i)."""
    h = 1e-6
    states = rng.uniform(params.p_lo, params.p_hi, (n_states, 4)).T
    # [state value, coordinate moved, +h or -h, state]; unmoved ones gain 0.0
    stencil = states[:, None, None, :] + np.multiply.outer(np.eye(4), (h, -h))[..., None]
    p, r = stencil[:2], stencil[2:]
    values = np.stack(_log_revenue(params, p, r) + scaled_derivative(params, p, r))
    fd = (values[:, :, 0] - values[:, :, 1]) / (2.0 * h)  # [log R_H, log R_L, G_H, G_L]
    d = np.stack(log_rev_derivative(params, states[:2], states[2:]))
    table = scaled_derivative_partials(params, states[:2], states[2:])
    err_d = np.abs(fd[[0, 1], [0, 1]] - d) / np.maximum(1.0, np.abs(d))
    # partials columns: own price, other price, own ref, other ref
    fd_table = np.stack((fd[2], fd[3, [1, 0, 3, 2]]))
    err_table = np.abs(fd_table - table) / np.maximum(1.0, np.abs(table))
    return float(max(np.max(err_d), np.max(err_table)))


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
    """Min of the drift over the weighted-l1 sphere of radius eps, at n
    points per quadrant arc inside the box; inf when none is."""
    lo, hi = params.p_lo, params.p_hi
    t = (np.arange(n) + 0.5) / n
    # one row per quadrant, signs (+, +), (+, -), (-, +), (-, -)
    sig_H, sig_L = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[..., None]
    p_H = sne.p_H + sig_H * t * eps * params.firm_H.sensitivity
    p_L = sne.p_L + sig_L * (1.0 - t) * eps * params.firm_L.sensitivity
    ok = (p_H >= lo) & (p_H <= hi) & (p_L >= lo) & (p_L <= hi)
    return float(np.min(sne_drift(params, (p_H[ok], p_L[ok]), sne), initial=math.inf))


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


def _hessian_error(params: MarketParams, sne: PricePair, matrix: np.ndarray) -> float:
    """Max floored relative error of ``matrix``, the closed-form Hessian of
    the local potential at ``sne``, against second differences with step 1e-4."""
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
    hess_err = _hessian_error(params, sne.prices, sne.hessian_certificate.matrix)
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
