"""Convergence diagnostics around the stationary equilibrium.

Everything here takes a solved stationary price pair ``sne`` as an
input and measures a trajectory or the static landscape against it:

* a weighted l1 distance whose weights cancel the firms' sensitivity
  scales,
* ``sne_drift``: the signed sum of scaled derivatives pointing toward
  the stationary point, and ``sne_drift_bound``, its proved lower
  bound, positive away from that point (off-equilibrium prices always
  drift back),
* window statistics (``rate_fit``) for the decay rates t * dist^2 and
  t^2 * gap^2, and a coarse verdict classifier (``cycle_detector``),
* ``check_properties``: the property checks of ``refgame verify`` on
  one market, and a sweep of random markets, as an ordered ledger of
  named checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import random_market
from .dynamics import Trajectory
from .equilibrium import SneSolution, SolverError, solve_sne
from .model import (
    MarketParams,
    PricePair,
    bound_constants,
    log_rev_derivative,
    scaled_derivative,
    scaled_derivative_partials,
    utility,
)

__all__ = [
    "CONVERGED",
    "CYCLING",
    "UNDECIDED",
    "RateReport",
    "weighted_l1_distance",
    "sne_drift",
    "sne_drift_bound",
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
    is on, its scaled derivative points back. :func:`sne_drift_bound`
    states by how much, and proves it. Accepts array components.
    """
    p_H, p_L = p
    g_H, g_L = scaled_derivative(params, (p_H, p_L), (p_H, p_L))
    return np.sign(sne.p_H - p_H) * g_H + np.sign(sne.p_L - p_L) * g_L


def sne_drift_bound(params: MarketParams, p, sne: PricePair):
    """Lower bound sum_j |p_j - p**_j| / ((b_j+c_j) p_j p**_j) of
    :func:`sne_drift`, zero only at the stationary point. Accepts array
    components.

    Proof. Write s_i = b_i+c_i, q_i = 1 - d_i and d_0 for the no-purchase
    share. On the slice r = p the utility is u_i = a_i - b_i p_i, so

        dG_i/dp_i = -1/(s_i p_i^2) - b_i d_i q_i,   dG_i/dp_j = b_j d_i d_j.

    Each column j of this Jacobian J is diagonally dominant, with margin
    1/(s_j p_j^2) + b_j d_j d_0, because q_j = d_0 + d_i. By the mean
    value theorem G(p) - G(p**) = A delta, with delta = p - p** and A the
    mean of J along the segment from p** to p. With sigma = sign(-delta),
    the signs of the drift's terms, and i the firm other than j,

        sum_i sigma_i (A delta)_i = sum_j |delta_j| mean(|J_jj| - sigma_i sigma_j J_ij),

    which column dominance puts at or above sum_j |delta_j| mean(1/(s_j
    x_j^2)), with x_j running from p**_j to p_j. The mean of 1/x^2 over
    [p**_j, p_j] is 1/(p_j p**_j). A computed stationary point leaves each
    |G_i| at most ``residual`` there, so about it the drift is at least
    this bound minus 2 * residual.

    Both sides are unit-free: prices stated k times smaller, with b and c
    k times larger, leave them unchanged, bit for bit when k is a power
    of two.
    """
    p_H, p_L = p
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    return (
        np.abs(p_H - sne.p_H) / (s_H * p_H * sne.p_H)
        + np.abs(p_L - sne.p_L) / (s_L * p_L * sne.p_L)
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


def _gradient_check(params: MarketParams, sne: SneSolution, rng):
    """The states are one (100, 4) block (the doubles of 100 draws of
    four). A stencil moves each coordinate of every state by +-1e-6, so
    each function is evaluated once, on arrays. D_i is checked on
    :func:`_log_revenue`, which forms no share: a share clamped at the
    smallest normal double would hold fixed, and the difference of
    log(p_i d_i) would give 1/p_i and miss -(b_i+c_i)(1 - d_i)."""
    n, h = 100, 1e-6
    states = rng.uniform(params.p_lo, params.p_hi, (n, 4)).T
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
    err = float(max(np.max(err_d), np.max(err_table)))
    return (("gradient_states", n), ("gradient_max_rel_err", err)), err < 1e-6


def _bounds_check(params: MarketParams, sne: SneSolution, rng):
    n = 10_000
    m_g, l_r = bound_constants(params)
    states = rng.uniform(params.p_lo, params.p_hi, size=(4, n))
    prices, refs = (states[0], states[1]), (states[2], states[3])
    g_H, g_L = scaled_derivative(params, prices, refs)
    table = scaled_derivative_partials(params, prices, refs)
    grad_H = np.hypot(table[0, 2], table[0, 3])
    grad_L = np.hypot(table[1, 2], table[1, 3])
    checks = ((np.abs(g_H), m_g), (np.abs(g_L), m_g), (grad_H, l_r), (grad_L, l_r))
    # one-ulp slack, so equality at a bound is no violation
    violations = sum(int(np.sum(values > bound + 1e-12)) for values, bound in checks)
    return (("bounds_samples", n), ("bounds_violations", violations)), violations == 0


def _drift_check(params: MarketParams, sne: SneSolution, rng):
    """No grid point is left out near the SNE: drift and bound both vanish
    there. The slack, like G, is unit-free."""
    grid = np.linspace(params.p_lo, params.p_hi, 100)
    p = np.meshgrid(grid, grid)
    drift = sne_drift(params, p, sne.prices)
    slack = 2.0 * sne.residual + 1e-12
    violations = int(np.sum(drift < sne_drift_bound(params, p, sne.prices) - slack))
    lines = (
        ("drift_grid_points", drift.size),
        ("drift_grid_min", float(np.min(drift))),
        ("drift_bound_violations", violations),
    )
    return lines, violations == 0


def _hessian_check(params: MarketParams, sne: SneSolution, rng):
    """M = -S (G_p + G_r) is built from the partials at (p**, p**). The
    certificate's diagonal assumes 1/(s_i p_i) = 1 - d_i, which a computed
    SNE meets to within ``residual``, so the gate on the error relative to
    max|M + M^T| is 16 (residual + 2^-52): four times the worst measured,
    4.3 (residual + 2^-52), on figure1, STIFF and SATURATED of the tests
    and 600 random markets. Both sides are unit-free."""
    (g_HH, g_HL, r_HH, r_HL), (g_LL, g_LH, r_LL, r_LH) = scaled_derivative_partials(
        params, sne.prices, sne.prices
    )
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    m_HH, m_HL = -s_H * (g_HH + r_HH), -s_H * (g_HL + r_HL)
    m_LH, m_LL = -s_L * (g_LH + r_LH), -s_L * (g_LL + r_LL)
    identity = np.array((2.0 * m_HH, m_HL + m_LH, 2.0 * m_LL))
    cert = sne.hessian_certificate
    err = float(np.max(np.abs(identity - (cert.h_HH, cert.h_HL, cert.h_LL))))
    err /= float(np.max(np.abs(identity)))
    return (("hessian_identity_rel_err", err),), err <= 16.0 * (sne.residual + 2.0**-52)


def _sweep(rng, random_n: int):
    """``solve_sne`` refuses an SNE outside its bounds, so each solved
    market is contained."""
    failures = 0
    for _ in range(random_n):
        try:
            solve_sne(random_market(rng))
        except SolverError:
            failures += 1
    lines = (
        ("sweep_total", random_n),
        ("sweep_contained", random_n - failures),
        ("sweep_solver_failures", failures),
    )
    return lines, failures == 0


_CHECKS = (
    ("gradient", _gradient_check),
    ("bounds", _bounds_check),
    ("drift", _drift_check),
    ("hessian", _hessian_check),
)


def check_properties(params: MarketParams, sne: SneSolution, rng, random_n: int) -> tuple:
    """The checks of ``refgame verify``, as a ledger of ``(name, lines,
    passed)`` entries in the order below, with ``lines`` the check's
    ``(key, value)`` summary pairs.

    * ``gradient``: D_i and the 2 x 4 partials of G against central
      differences at 100 random box states; the worst error, floored
      relative |err| / max(1, |ref|), is below 1e-6.
    * ``bounds``: no |G_i| above m_g, and no reference-gradient norm
      above l_r, of :func:`bound_constants` by more than 1e-12, at 10 000
      random box states.
    * ``drift``: at no point of a 100 x 100 box grid is :func:`sne_drift`
      below :func:`sne_drift_bound` by more than 2 * residual + 1e-12.
    * ``hessian``: the certificate's entries against M + M^T, with M =
      -S (G_p + G_r) from :func:`scaled_derivative_partials` at the SNE;
      the error relative to max|M + M^T| is at most 16 (residual + 2^-52).
    * ``sweep``: ``random_n`` markets from :func:`random_market`, each
      solved by ``solve_sne`` without a ``SolverError``.

    ``sne`` comes from ``solve_sne``. ``rng``, a numpy Generator, draws
    the gradient states, then the bound states, then the sweep's markets.
    """
    ledger = tuple((name, *check(params, sne, rng)) for name, check in _CHECKS)
    return ledger + (("sweep", *_sweep(rng, random_n)),)
