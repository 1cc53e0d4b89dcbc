"""Equilibrium solvers: best responses, the per-period equilibrium
pricing policy, and the stationary point where that policy reproduces
its own reference price.

Both equilibria are roots of the scaled first-order conditions

    G_i(p, r) = 1 / ((b_i + c_i) * p_i) - (1 - d_i(p, r))      for i in {H, L}.

The policy p*(r) solves G(p, r) = 0 with the references fixed, each
component held at a box edge where G_i points out of the box. The
stationary equilibrium ``p**`` solves G(p, p) = 0. It is unique, and
each component is pinned between 1/(b_i+c_i) and an explicit Lambert-W
expression; those bounds double as the admissibility thresholds for the
price box.

Solvers here are deterministic and derivative-aware. The single-firm
best response exploits that the log-revenue derivative is strictly
decreasing in the own price (safeguarded Newton in a sign bracket).
The policy and the stationary point share one projected Newton
iteration on G with the analytic 2x2 Jacobian and a backtracking line
search on max|G_i| (Kelley 1995, ch. 8). Both Jacobians are strictly
column-diagonally dominant, so the step always exists. The complement
1 - d_i is formed as (e_0 + e_-i)/total, never by subtraction, so G
keeps its relative precision where demand saturates and d_i rounds to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .dynamics import Trajectory, reference_update
from .model import MarketParams, PricePair, _consts, _demands_fast

__all__ = [
    "SolverError",
    "SolverConfig",
    "BoxCheck",
    "SneSolution",
    "lambert_w",
    "sne_bounds",
    "validate_price_box",
    "best_response",
    "equilibrium_policy",
    "solve_sne",
    "equilibrium_path",
]


class SolverError(RuntimeError):
    """An iterative solver failed to meet its tolerance.

    Carries whatever context the failing solver had: the last bracket
    for root finders, the period index for path solvers, the last
    iterate, residual and iteration count for the Newton solver.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs.

    ``tolerance`` is the residual target: the dimensionless max|G_i|
    for the policy and stationary solvers, |D_i| for a best response.
    ``max_iterations`` caps every iteration loop.
    """

    tolerance: float = 1e-12
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class BoxCheck:
    """Outcome of the price-box admissibility test.

    The box is admissible when ``p_lo <= lower_threshold`` (the smaller
    of the two component lower bounds) and ``p_hi >= upper_threshold``
    (the larger of the two component upper bounds).
    """

    ok: bool
    lower_ok: bool
    upper_ok: bool
    lower_threshold: float
    upper_threshold: float

    def describe(self) -> str:
        if self.ok:
            return (
                f"price box admissible (p_lo <= {self.lower_threshold:.6g}, "
                f"p_hi >= {self.upper_threshold:.6g})"
            )
        parts = []
        if not self.lower_ok:
            parts.append(f"p_lo must be <= {self.lower_threshold:.6g}")
        if not self.upper_ok:
            parts.append(f"p_hi must be >= {self.upper_threshold:.6g}")
        return "price box inadmissible: " + "; ".join(parts)


@dataclass(frozen=True)
class SneSolution:
    """A solved stationary equilibrium with its certificates.

    ``residual`` is max|G_i(p**, p**)| at the solution, a dimensionless
    defect of the scaled first-order conditions (not in price units).
    ``iterations`` counts Newton steps. ``bounds`` holds the per-firm
    (lower, upper) analytic bounds, and
    ``hessian_certificate`` the (det, trace, min eigenvalue) of the
    local-potential Hessian at the solution; positive det and trace
    certify the local quadratic growth the rate theory relies on.
    """

    prices: PricePair
    residual: float
    iterations: int
    bounds: tuple[tuple[float, float], tuple[float, float]]
    hessian_certificate: tuple[float, float, float]


def lambert_w(x: float, tol: float = 1e-12, max_iter: int = 100) -> float:
    """Principal-branch Lambert W on [0, inf): the w >= 0 with w*e^w = x.

    Halley iteration from w0 = log(1 + x), switched to the asymptotic
    seed w0 = log(x) - log(log(x)) for x > e. The iteration stops on
    the relative step, once a Halley update moves w by at most tol * w
    (Corless et al. 1996), and returns the updated iterate. Convergence
    is cubic, so the result is within tol of W(x) relatively for every
    x, however small. The residual w*e^w - x is no stopping test: for
    x << 1 it is already below any absolute tolerance at the seed.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ValueError(f"lambert_w needs a finite argument, got {x!r}")
    if x < 0.0:
        raise ValueError(f"lambert_w is restricted to x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    w = math.log1p(x) if x <= math.e else math.log(x) - math.log(math.log(x))
    for _ in range(max_iter):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= tol * w:
            return w
    raise SolverError("lambert_w failed to converge", x=x, w=w)


# Above this exponent sne_bounds solves W(k e^y) in log form: e^y overflows
# past 709.8, and lambert_w's Halley denominator already near x = 1e307.
_EXP_MAX = 700.0


def _lambert_w_of_exp(y: float) -> float:
    """W(e^y) for y > 1, the w with w + ln w = y, without forming e^y.

    Newton from w0 = y - ln y, below the root of this increasing concave
    function, so it converges from below; stops as :func:`lambert_w` does.
    """
    w = y - math.log(y)
    for _ in range(100):
        step = (w + math.log(w) - y) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 1e-12 * w:
            return w
    raise SolverError("lambert_w failed to converge", log_x=y, w=w)


def sne_bounds(params: MarketParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-firm (lower, upper) bounds that bracket the stationary prices.

    lower_i = 1/(b_i+c_i); upper_i adds W(k*exp(a_i - k))/b_i with
    k = b_i/(b_i+c_i). Both are strict for the true solution. Past
    a_i - k = 700 the W term is solved in log form, so it never overflows.
    """
    out = []
    for firm in params.firms:
        s = firm.sensitivity
        lower = 1.0 / s
        k = firm.b / s
        y = firm.a - k
        w = lambert_w(k * math.exp(y)) if y <= _EXP_MAX else _lambert_w_of_exp(math.log(k) + y)
        out.append((lower, lower + w / firm.b))
    return (out[0], out[1])


def validate_price_box(params: MarketParams) -> BoxCheck:
    """Check that [p_lo, p_hi] is wide enough to contain the stationary point.

    Passes iff p_lo is at most the smaller component lower bound and
    p_hi at least the larger component upper bound.
    """
    (lo_H, up_H), (lo_L, up_L) = sne_bounds(params)
    lower_threshold = min(lo_H, lo_L)
    upper_threshold = max(up_H, up_L)
    lower_ok = params.p_lo <= lower_threshold
    upper_ok = params.p_hi >= upper_threshold
    return BoxCheck(
        ok=lower_ok and upper_ok,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        lower_threshold=lower_threshold,
        upper_threshold=upper_threshold,
    )


def _own_derivative(consts, firm: str, p_own: float, p_other: float, r: PricePair):
    """(D_i, dD_i/dp_i) for one firm at the assembled state."""
    if firm == "H":
        d_H, d_L, _, _ = _demands_fast(consts, p_own, p_other, r[0], r[1])
        s = consts[1]
        d = d_H
    else:
        d_H, d_L, _, _ = _demands_fast(consts, p_other, p_own, r[0], r[1])
        s = consts[4]
        d = d_L
    D = 1.0 / p_own + s * (d - 1.0)
    dD = -1.0 / (p_own * p_own) - s * s * d * (1.0 - d)
    return D, dD


def best_response(
    params: MarketParams,
    firm: str,
    opponent_price: float,
    r: PricePair,
    cfg: SolverConfig = SolverConfig(),
) -> float:
    """Revenue-maximizing price of one firm against a fixed opponent.

    The log-revenue derivative D_i is strictly decreasing in the own
    price, so the maximizer over the box is the unique sign change of
    D_i when one exists, otherwise the boundary where D_i points: p_lo
    when D_i(p_lo) <= 0, p_hi when D_i(p_hi) >= 0. Interior roots are
    located with Newton steps safeguarded by the sign bracket, to
    |D_i| <= cfg.tolerance. Once the bracket holds no float strictly
    inside it, no better iterate exists and SolverError is raised.
    """
    if firm not in ("H", "L"):
        raise ValueError(f"firm must be 'H' or 'L', got {firm!r}")
    if not params.in_box(opponent_price, r[0], r[1]):
        raise ValueError("opponent price and references must lie in the price box")
    consts = _consts(params)
    lo, hi = params.p_lo, params.p_hi

    f_lo, _ = _own_derivative(consts, firm, lo, opponent_price, r)
    if f_lo <= 0.0:
        return lo
    f_hi, _ = _own_derivative(consts, firm, hi, opponent_price, r)
    if f_hi >= 0.0:
        return hi

    x = 0.5 * (lo + hi)
    for it in range(cfg.max_iterations):
        f, df = _own_derivative(consts, firm, x, opponent_price, r)
        if abs(f) <= cfg.tolerance:
            return x
        if f > 0.0:
            lo = x
        else:
            hi = x
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise SolverError(
                "best_response bracket collapsed before the tolerance was met",
                firm=firm,
                bracket=(lo, hi),
                iterations=it + 1,
                last=x,
            )
        step = x - f / df
        x = step if lo < step < hi else mid
    raise SolverError(
        "best_response failed to converge",
        firm=firm,
        bracket=(lo, hi),
        iterations=cfg.max_iterations,
        last=x,
    )


def _newton(
    params: MarketParams, r: PricePair | None, start: PricePair, cfg: SolverConfig
) -> tuple[float, float, float, int]:
    """Projected Newton on the scaled first-order conditions G = 0.

    With ``r`` None the references follow the prices (the stationary
    system G(p, p) = 0); otherwise they stay at ``r``. A component is
    held fixed while it sits on a box edge with G_i pointing out of the
    box; the free components take a Newton step on the analytic
    Jacobian, clipped to the box and halved until max|G_i| over the
    free components falls by the Armijo factor 1 - 1e-4 * t. Returns
    (p_H, p_L, residual, iterations) once that residual is at most
    cfg.tolerance.
    """
    consts = _consts(params)
    s_H, s_L = consts[1], consts[4]
    lo, hi = params.p_lo, params.p_hi
    # dG_i/dp_j = k_j d_i d_j and dG_i/dp_i = -1/(s_i p_i^2) - k_i d_i (1 - d_i),
    # where k_i = b_i + c_i; with r = p the reference term cancels c_i.
    k_H, k_L = (params.firm_H.b, params.firm_L.b) if r is None else (s_H, s_L)

    def evaluate(x: float, y: float):
        d_H, d_L, q_H, q_L = _demands_fast(consts, x, y, *((x, y) if r is None else r))
        g_H = 1.0 / (s_H * x) - q_H
        g_L = 1.0 / (s_L * y) - q_L
        free_H = not ((x <= lo and g_H <= 0.0) or (x >= hi and g_H >= 0.0))
        free_L = not ((y <= lo and g_L <= 0.0) or (y >= hi and g_L >= 0.0))
        res = max(abs(g_H) if free_H else 0.0, abs(g_L) if free_L else 0.0)
        return res, g_H, g_L, d_H, d_L, q_H, q_L, free_H, free_L

    x, y = min(max(start[0], lo), hi), min(max(start[1], lo), hi)
    trial = evaluate(x, y)
    for it in range(cfg.max_iterations + 1):
        res, g_H, g_L, d_H, d_L, q_H, q_L, free_H, free_L = trial
        if res <= cfg.tolerance:
            return x, y, res, it
        if it == cfg.max_iterations:
            break
        j_HH = -1.0 / (s_H * x * x) - k_H * d_H * q_H
        j_LL = -1.0 / (s_L * y * y) - k_L * d_L * q_L
        if free_H and free_L:
            j_HL, j_LH = k_L * d_H * d_L, k_H * d_H * d_L
            det = j_HH * j_LL - j_HL * j_LH
            dx = (g_L * j_HL - g_H * j_LL) / det
            dy = (g_H * j_LH - g_L * j_HH) / det
        else:
            dx, dy = (-g_H / j_HH, 0.0) if free_H else (0.0, -g_L / j_LL)
        t = 1.0
        while True:
            nx, ny = min(max(x + t * dx, lo), hi), min(max(y + t * dy, lo), hi)
            stalled = nx == x and ny == y
            if stalled:
                break
            trial = evaluate(nx, ny)
            if trial[0] <= (1.0 - 1e-4 * t) * res:
                break
            t *= 0.5
        if stalled:
            break
        x, y = nx, ny
    raise SolverError(
        "Newton solver stopped above tolerance",
        iterations=it,
        residual=res,
        last=(x, y),
    )


def equilibrium_policy(
    params: MarketParams,
    r: PricePair,
    cfg: SolverConfig = SolverConfig(),
    start: PricePair | None = None,
) -> PricePair:
    """One-shot equilibrium prices p*(r) for fixed references.

    Solves the first-order conditions G_i(p, r) = 0 by projected Newton
    to max|G_i| <= cfg.tolerance, where a component on a box edge with
    G_i pointing out of the box is exempt: there the maximizer sits on
    the boundary. ``start`` (clipped to the box) warm-starts the
    iteration, the box midpoint otherwise; the solution does not depend
    on it.
    """
    if not params.in_box(r[0], r[1]):
        raise ValueError("references must lie in the price box")
    mid = 0.5 * (params.p_lo + params.p_hi)
    r = PricePair(float(r[0]), float(r[1]))
    p_H, p_L, _, _ = _newton(params, r, (mid, mid) if start is None else start, cfg)
    return PricePair(p_H, p_L)


def solve_sne(params: MarketParams, cfg: SolverConfig = SolverConfig()) -> SneSolution:
    """Solve the stationary equilibrium by projected Newton.

    Solves G_i(p, p) = 0 from the box midpoint to max|G_i| <=
    cfg.tolerance; that dimensionless defect is the returned residual,
    and the Newton steps taken its iteration count. The returned
    solution carries the analytic bounds and the local Hessian
    certificate.
    """
    check = validate_price_box(params)
    if not check.ok:
        raise ValueError(check.describe())

    mid = 0.5 * (params.p_lo + params.p_hi)
    p_H, p_L, residual, iterations = _newton(params, None, (mid, mid), cfg)
    prices = PricePair(p_H, p_L)
    bounds = sne_bounds(params)
    for value, (lower, upper) in zip(prices, bounds):
        if not (lower < value < upper):
            raise SolverError(
                "solved stationary prices violate their analytic bounds",
                prices=tuple(prices),
                bounds=bounds,
            )
    cert = analysis.hessian_certificate(params, prices)
    if not (cert.det > 0.0 and cert.trace > 0.0):
        raise SolverError(
            "Hessian certificate is not positive definite at the solution",
            det=cert.det,
            trace=cert.trace,
        )
    return SneSolution(
        prices=prices,
        residual=residual,
        iterations=iterations,
        bounds=bounds,
        hessian_certificate=(cert.det, cert.trace, cert.min_eig),
    )


def equilibrium_path(
    params: MarketParams,
    r0: PricePair,
    horizon: int,
    cfg: SolverConfig = SolverConfig(),
) -> Trajectory:
    """Full-information baseline: play p*(r_t) each period, smooth references.

    Returns a trajectory in the same layout as the learning simulator
    (the eta column is zero; no step size is involved). Each period's
    policy solve is warm-started from the previous one. Solver failures
    are re-raised with the offending period attached.
    """
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    r_H, r_L = float(r0[0]), float(r0[1])
    if not params.in_box(r_H, r_L):
        raise ValueError("initial references must lie in the price box")

    consts = _consts(params)
    s_H, s_L = consts[1], consts[4]
    n = horizon + 1
    columns = np.empty((6, n))  # p_H, p_L, r_H, r_L, D_H, D_L

    guess: PricePair | None = None
    for t in range(n):
        try:
            p = equilibrium_policy(params, PricePair(r_H, r_L), cfg, start=guess)
        except SolverError as err:
            raise SolverError(
                f"equilibrium_path failed at period {t}: {err}",
                period=t,
                **err.context,
            ) from err
        guess = p
        _, _, q_H, q_L = _demands_fast(consts, p.p_H, p.p_L, r_H, r_L)
        columns[:, t] = (p.p_H, p.p_L, r_H, r_L, 1.0 / p.p_H - s_H * q_H, 1.0 / p.p_L - s_L * q_L)
        if t < horizon:
            r_H, r_L = reference_update(params, PricePair(r_H, r_L), p)

    return Trajectory(params, "equilibrium-policy", *columns, eta=np.zeros(n))
