"""Equilibrium solvers: the per-period equilibrium pricing policy and
the stationary point where that policy reproduces its own reference
price.

Both equilibria are roots of the scaled first-order conditions

    G_i(p, r) = 1 / ((b_i + c_i) * p_i) - (1 - d_i(p, r))      for i in {H, L}.

The policy p*(r) solves G(p, r) = 0 with the references fixed, each
component held at a box edge where G_i points out of the box. The
stationary equilibrium ``p**`` solves G(p, p) = 0. It is unique, and
each component is pinned between 1/(b_i+c_i) and an explicit Lambert-W
expression; those bounds double as the admissibility thresholds for the
price box.

Both are solved by one projected Newton iteration on G with the
analytic 2x2 Jacobian and a backtracking line search on max|G_i|
(Kelley 1995, ch. 8). Both Jacobians are strictly column-diagonally
dominant, so the step always exists. An arithmetic exception inside the
iteration (an overflow, say) is re-raised as ``SolverError``.
``solve_sne`` runs the iteration once. ``equilibrium_path`` runs it once
per period on constants it takes once per market, and reads each
period's D_i from the complements of the iteration's last evaluation.

From period 1 on, each period's iteration starts at a first-order
prediction of its policy, the predictor step of numerical continuation
(Allgower & Georg 2003): s_{t+1} = p_t + P (r_{t+1} - r_t). The policy
Jacobian P = dp*/dr = -(d_p G)^-1 d_r G comes in closed form from the
shares of period t's last evaluation. With k_i = b_i + c_i, m_i =
d_i (1 - d_i) and x = d_H d_L,

    d_p G = [[-1/(k_H p_H^2) - k_H m_H,  k_L x],
             [k_H x,  -1/(k_L p_L^2) - k_L m_L]],
    d_r G = [[c_H m_H,  -c_L x],
             [-c_H x,  c_L m_L]].

A component on a box edge gets a zero row of P, so it starts on its edge
again; a free component's row then solves its own condition alone. The
path stops exactly once p_t equals its own start and r_{t+1} == r_t: the
prediction from a zero reference step is p_t itself, so period t+1 would
repeat period t's solve. Newton returns a start that already meets its
tolerance unchanged, so the stop comes at most one period after the
references settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _check_horizon, reference_update
from .model import MarketParams, PricePair, _consts, _shares

__all__ = [
    "SolverError",
    "SneSolution",
    "HessianCertificate",
    "sne_bounds",
    "validate_price_box",
    "hessian_certificate",
    "solve_sne",
    "equilibrium_path",
]


class SolverError(RuntimeError):
    """An iterative solver failed to meet its tolerance.

    Carries whatever context the failing solver had: the period index
    for the path solver, the last iterate, residual and iteration count
    for the Newton solver.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


# Residual target of the Newton solver: the dimensionless max|G_i|.
TOLERANCE = 1e-12
# Cap on the Newton solver's steps.
MAX_ITERATIONS = 100_000


@dataclass(frozen=True, eq=False)
class HessianCertificate:
    """The entries of H = [[h_HH, h_HL], [h_HL, h_LL]], with its det,
    trace and smallest eigenvalue. H = M + M^T is twice the symmetric part
    of the linearisation M = -S (G_p + G_r) at (p**, p**), with S =
    diag(b_i + c_i) and G_p, G_r the partials of G in the prices and in
    the references. ``gamma_estimate`` is half the smallest eigenvalue,
    the curvature constant of the 1/t rate: the schedule eta_t = d / (t+1)
    with d = 2 / gamma_estimate is the theorem's choice of coefficient.
    Certificates compare and hash by identity.
    """

    h_HH: float
    h_HL: float
    h_LL: float
    det: float
    trace: float
    min_eig: float
    gamma_estimate: float


@dataclass(frozen=True, eq=False)
class SneSolution:
    """A solved stationary equilibrium with its certificates.

    ``residual`` is max|G_i(p**, p**)| at the solution, a dimensionless
    defect of the scaled first-order conditions (not in price units).
    ``iterations`` counts Newton steps. ``bounds`` holds the per-firm
    (lower, upper) analytic bounds, and ``hessian_certificate`` the
    symmetric part of the linearisation M at the solution (see
    :class:`HessianCertificate`); its positive det and trace certify the
    local quadratic growth the rate theory relies on, and its
    ``gamma_estimate`` sets the rate's step coefficient 2 / gamma.
    Solutions compare and hash by identity.
    """

    prices: PricePair
    residual: float
    iterations: int
    bounds: tuple[tuple[float, float], tuple[float, float]]
    hessian_certificate: HessianCertificate


def _lambert_w_of_exp(y: float) -> float:
    """W(e^y) for every real y: the w > 0 with w + ln w = y.

    Newton on f(w) = w + ln w - y, which is increasing and concave, so
    from a seed below the root every step rises monotonically to it. The
    seed is y - ln y for y > 1, else x/(1+x) with x = e^y, which is at
    most W(x) because ln(1+x) >= x/(1+x); e^y is never formed above
    y = 1, so nothing overflows. The iteration stops on the relative
    step, once an update moves w by at most 1e-12 * w (Corless et al.
    1996), and returns the updated iterate. Where e^y underflows to 0,
    W is 0.
    """
    if y > 1.0:
        w = y - math.log(y)
    else:
        x = math.exp(y)
        if x == 0.0:
            return 0.0
        w = x / (1.0 + x)
    for _ in range(100):
        step = ((w - y) + math.log(w)) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 1e-12 * w:
            return w
    raise SolverError("Lambert W failed to converge", log_x=y, w=w)


def sne_bounds(params: MarketParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-firm (lower, upper) bounds that bracket the stationary prices.

    lower_i = 1/(b_i+c_i); upper_i adds W(k*exp(a_i - k))/b_i with
    k = b_i/(b_i+c_i). Both are strict for the true solution.
    """
    out = []
    for firm in params.firms:
        s = firm.sensitivity
        lower = 1.0 / s
        k = firm.b / s
        w = _lambert_w_of_exp(math.log(k) + (firm.a - k))
        out.append((lower, lower + w / firm.b))
    return (out[0], out[1])


def validate_price_box(params: MarketParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Check that [p_lo, p_hi] is wide enough to contain the stationary point.

    The box is admissible iff p_lo is at most the smaller component lower
    bound and p_hi at least the larger component upper bound of
    :func:`sne_bounds`. Returns those bounds when it is; otherwise raises
    ``ValueError("price box inadmissible: p_lo must be <= X; p_hi must
    be >= Y")``, naming only the thresholds that are missed.
    """
    bounds = sne_bounds(params)
    (lo_H, up_H), (lo_L, up_L) = bounds
    lower, upper = min(lo_H, lo_L), max(up_H, up_L)
    missed = []
    if params.p_lo > lower:
        missed.append(f"p_lo must be <= {lower:.6g}")
    if params.p_hi < upper:
        missed.append(f"p_hi must be >= {upper:.6g}")
    if missed:
        raise ValueError("price box inadmissible: " + "; ".join(missed))
    return bounds


def _newton(
    consts, lo: float, hi: float, r: PricePair | None, start=None, b: tuple | None = None
) -> tuple[float, float, float, int, float, float, float, float]:
    """Projected Newton on the scaled first-order conditions G = 0.

    ``consts`` is the market's ``model._consts`` and [lo, hi] its price
    box. With ``r`` None the references follow the prices (the
    stationary system G(p, p) = 0) and ``b`` gives (b_H, b_L), which
    the Jacobian needs there; otherwise they stay at ``r`` and ``b`` is
    not read. The iteration starts at ``start`` clipped to the box, or
    at the box midpoint when ``start`` is None. A component is held
    fixed while it sits on a box edge with G_i pointing out of the box;
    the free components take a Newton step on the analytic Jacobian,
    clipped to the box.

    One loop evaluates G at one point per pass, the trial point. The
    first evaluation, at the start, is always accepted. A later trial
    at step length t is accepted when max|G_i| over its free components
    is at most (1 - 1e-4 * t) times the accepted residual (Armijo);
    a rejected trial halves t. ``iterations`` counts accepted steps,
    not evaluations. Once the accepted residual is at most TOLERANCE,
    returns (p_H, p_L, residual, iterations, d_H, d_L, q_H, q_L), where
    the shares d_i and their complements q_i = 1 - d_i come from the
    last evaluation: bit for bit ``_shares(consts, p_H, p_L, *r)``, with
    r = p when ``r`` is None. It raises ``SolverError`` when a trial
    clips back onto the accepted point (a stall) or after MAX_ITERATIONS
    steps, and re-raises an ``ArithmeticError`` (an overflow, say) as one.
    """
    s_H, s_L = consts[1], consts[4]
    # dG_i/dp_j = k_j d_i d_j and dG_i/dp_i = -1/(s_i p_i^2) - k_i d_i (1 - d_i),
    # where k_i = b_i + c_i; with r = p the reference term cancels c_i.
    k_H, k_L = b if r is None else (s_H, s_L)
    r_H, r_L = (None, None) if r is None else r

    if start is None:
        x = y = 0.5 * (lo + hi)
    else:
        x, y = start
        x = lo if x < lo else hi if x > hi else x
        y = lo if y < lo else hi if y > hi else y
    # (nx, ny) is the trial point, res the accepted residual (None until the
    # first evaluation). Clamps and the residual's max are written as the
    # conditionals that builtins.min and max evaluate, operand order
    # included, so they give the same floats and pass a NaN through alike.
    nx, ny, res, it = x, y, None, 0
    try:
        while True:
            d_H, d_L, q_H, q_L = (
                _shares(consts, nx, ny, nx, ny) if r is None else _shares(consts, nx, ny, r_H, r_L)
            )
            g_H = 1.0 / (s_H * nx) - q_H
            g_L = 1.0 / (s_L * ny) - q_L
            free_H = not ((nx <= lo and g_H <= 0.0) or (nx >= hi and g_H >= 0.0))
            free_L = not ((ny <= lo and g_L <= 0.0) or (ny >= hi and g_L >= 0.0))
            e_H = abs(g_H) if free_H else 0.0
            e_L = abs(g_L) if free_L else 0.0
            e = e_L if e_L > e_H else e_H
            if res is None or e <= (1.0 - 1e-4 * t) * res:
                if res is not None:
                    it += 1
                x, y, res = nx, ny, e
                if res <= TOLERANCE:
                    return x, y, res, it, d_H, d_L, q_H, q_L
                if it == MAX_ITERATIONS:
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
            else:
                t *= 0.5
            nx = x + t * dx
            nx = lo if nx < lo else hi if nx > hi else nx
            ny = y + t * dy
            ny = lo if ny < lo else hi if ny > hi else ny
            if nx == x and ny == y:
                break
    except ArithmeticError as err:
        raise SolverError(
            f"Newton solver failed: {type(err).__name__}: {err}",
            iterations=it,
            last=(x, y),
        ) from err
    raise SolverError(
        "Newton solver stopped above tolerance",
        iterations=it,
        residual=res,
        last=(x, y),
    )


def _policy_step(
    consts, lo: float, hi: float, p_H: float, p_L: float, d_H, d_L, q_H, q_L, dr_H, dr_L
) -> tuple[float, float]:
    """P (dr_H, dr_L), where P = -(d_p G)^-1 d_r G is the policy Jacobian
    of the module docstring at a solved policy p = p*(r), from the shares
    d_i and complements q_i at (p, r).

    A component on a box edge (p_i == lo or hi) stays there: its row of P
    is zero, and a free component's row then solves its own condition
    alone. The step is one 2x2 solve, written as ``_newton`` writes its
    own, and calls no ``_shares``.
    """
    _, s_H, c_H, _, s_L, c_L = consts
    x, m_H, m_L = d_H * d_L, d_H * q_H, d_L * q_L
    # v = d_r G (dr); the step solves d_p G (step) = -v
    v_H = c_H * m_H * dr_H - c_L * x * dr_L
    v_L = c_L * m_L * dr_L - c_H * x * dr_H
    free_H, free_L = lo < p_H < hi, lo < p_L < hi
    if free_H:
        j_HH = -1.0 / (s_H * p_H * p_H) - s_H * m_H
    if free_L:
        j_LL = -1.0 / (s_L * p_L * p_L) - s_L * m_L
    if free_H and free_L:
        j_HL, j_LH = s_L * x, s_H * x
        det = j_HH * j_LL - j_HL * j_LH
        return (v_L * j_HL - v_H * j_LL) / det, (v_H * j_LH - v_L * j_HH) / det
    if free_H:
        return -v_H / j_HH, 0.0
    if free_L:
        return 0.0, -v_L / j_LL
    return 0.0, 0.0


def hessian_certificate(params: MarketParams, sne: PricePair) -> HessianCertificate:
    """The curvature certificate H = M + M^T at the stationary point.

    With d_i** the stationary demands, the entries are

        h_ii  = 2 (b_i+c_i) (1 - d_i**) [(b_i+c_i) - c_i d_i**]
        h_HL  = -[b_H (b_L+c_L) + b_L (b_H+c_H)] d_H** d_L**

    the diagonal of M + M^T with 1/p_i**^2 written as ((b_i+c_i) (1 -
    d_i**))^2, which the stationary condition G_i = 0 gives. H is
    positive definite at a solved SNE (``solve_sne`` refuses it
    otherwise), so det > 0, trace > 0, and the smallest eigenvalue is
    positive; ``gamma_estimate`` is half that eigenvalue. Both
    eigenvalues come in closed form: the larger is mean + hypot((h_HH -
    h_LL)/2, h_HL), with mean the half trace, and the smaller is det /
    larger when the larger is positive, which avoids the cancellation of
    mean - hypot(...), and that difference otherwise.
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
        h_HH=h_HH,
        h_HL=h_HL,
        h_LL=h_LL,
        det=det,
        trace=trace,
        min_eig=min_eig,
        gamma_estimate=0.5 * min_eig,
    )


def solve_sne(params: MarketParams) -> SneSolution:
    """Solve the stationary equilibrium by projected Newton.

    Solves G_i(p, p) = 0 from the box midpoint to max|G_i| <=
    TOLERANCE; that dimensionless defect is the returned residual,
    and the Newton steps taken its iteration count. An inadmissible
    price box raises the ``ValueError`` of :func:`validate_price_box`;
    the bounds that call returns are the solution's analytic bounds,
    beside the local Hessian certificate.
    """
    bounds = validate_price_box(params)
    lo, hi = params.p_lo, params.p_hi
    b = (params.firm_H.b, params.firm_L.b)
    p_H, p_L, residual, iterations, *_ = _newton(_consts(params), lo, hi, None, b=b)
    prices = PricePair(p_H, p_L)
    for value, (lower, upper) in zip(prices, bounds):
        if not (lower < value < upper):
            raise SolverError(
                "solved stationary prices violate their analytic bounds",
                prices=tuple(prices),
                bounds=bounds,
            )
    cert = hessian_certificate(params, prices)
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
        hessian_certificate=cert,
    )


def equilibrium_path(
    params: MarketParams,
    r0: PricePair,
    horizon: int,
) -> Trajectory:
    """Full-information baseline: play p*(r_t) each period, smooth references.

    Returns ``horizon + 1`` records in the simulator's layout, ``D_H``/``D_L``
    being the log-revenue derivatives at each period's policy prices. Period
    t plays the policy p_t = p*(r_t): ``_newton`` solves G(p, r_t) = 0 to
    max|G_i| <= TOLERANCE from the start s_t. It then sets ``r_{t+1} =
    reference_update(r_t, p_t)``; a solver failure is re-raised with the
    period attached. Period 0 starts at the box midpoint. Every later period
    starts at the first-order prediction of its policy, the predictor step
    of numerical continuation (Allgower & Georg 2003):

        s_{t+1} = p_t + P(p_t, r_t) (r_{t+1} - r_t),

    with P = -(d_p G)^-1 d_r G the policy Jacobian of the module docstring.
    ``_policy_step`` applies it in closed form from the shares of Newton's
    last evaluation: one 2x2 solve, no further ``_shares`` call. A
    component on a box edge has a zero row of P, so it starts on its edge
    again. A start component that comes out NaN (an overflowed P times a
    zero step) is replaced by p_t's. The solution meets the tolerance from
    every start, but its last bits depend on the start, so the start rule
    is part of the path.

    Once, for some t >= 1, ``p_t == s_t`` and ``r_{t+1} == r_t`` bit for
    bit, the loop stops and record t repeats to the end, a period-1 tail
    (see ``Trajectory``). That is exact: with a zero reference step the
    prediction is s_{t+1} = p_t = s_t, so period t+1 would solve from
    period t's reference and start, and it and every later period repeat
    record t. The stop comes at most one period after the references
    settle: once r_{t+1} == r_t, period t+1 starts at p_t, which meets the
    tolerance at r_{t+1}, and ``_newton`` returns such a start unchanged.

    The Newton constants are taken once per call, and D_i is read from the
    complements of Newton's last evaluation, which equal those of
    ``_shares`` at the solution. Only ``r0`` is checked:
    ``reference_update`` clamps every later reference into the box, and
    ``_newton`` clips each start, which is no NaN, onto it.
    """
    _check_horizon(horizon)
    r = PricePair(float(r0[0]), float(r0[1]))
    if not params.in_box(*r):
        raise ValueError("initial references must lie in the price box")

    consts = _consts(params)
    s_H, s_L = consts[1], consts[4]
    lo, hi = params.p_lo, params.p_hi
    records = ([], [], [], [], [], [])  # p_H, p_L, r_H, r_L, D_H, D_L
    put_pH, put_pL, put_rH, put_rL, put_DH, put_DL = (c.append for c in records)

    start = None  # the box midpoint
    for t in range(horizon + 1):
        try:
            p_H, p_L, _, _, d_H, d_L, q_H, q_L = _newton(consts, lo, hi, r, start)
        except SolverError as err:
            raise SolverError(
                f"equilibrium_path failed at period {t}: {err}",
                period=t,
                **err.context,
            ) from err
        put_pH(p_H)
        put_pL(p_L)
        put_rH(r[0])
        put_rL(r[1])
        put_DH(1.0 / p_H - s_H * q_H)
        put_DL(1.0 / p_L - s_L * q_L)
        r_next = reference_update(params, r, (p_H, p_L))
        # every value lies in [p_lo, p_hi] with p_lo > 0, so == is bit equality
        if t and p_H == start[0] and p_L == start[1] and r_next == r:
            return Trajectory._repeating(
                params, "equilibrium-policy", np.array(records), horizon + 1, 1
            )
        dp_H, dp_L = _policy_step(
            consts, lo, hi, p_H, p_L, d_H, d_L, q_H, q_L, r_next[0] - r[0], r_next[1] - r[1]
        )
        x, y = p_H + dp_H, p_L + dp_L
        # x != x holds for NaN alone, which would never leave Newton's line search
        start = (p_H if x != x else x, p_L if y != y else y)
        r = r_next

    return Trajectory(params, "equilibrium-policy", *np.array(records))
