"""Written-out oracles the program does not run.

The clamped logit shares and the revenue built on them, a single-firm
best response found by a safeguarded Newton in a sign bracket, and the
one-period equilibrium policy with its input checks. Tests check the
package's kernels and solvers against them: ``model._shares`` against
:func:`demand`, ``equilibrium._newton``'s solutions against
:func:`best_response`, and ``equilibrium_path`` against
:func:`equilibrium_policy` period by period. The solvers read
``equilibrium.TOLERANCE``, ``equilibrium.MAX_ITERATIONS`` and
``equilibrium._newton`` at call time, so a monkeypatch there reaches
them too.
"""

import math
import sys

import numpy as np

import refgame.equilibrium as equilibrium
from refgame.model import MarketParams, PricePair, _consts, _shares, utility

# The representable shares nearest 0 and 1 that still lie strictly inside (0, 1).
SHARE_MIN = sys.float_info.min
SHARE_MAX = math.nextafter(1.0, 0.0)


def demand(params: MarketParams, prices, references):
    """Logit market shares (d_H, d_L, d_0) including the outside option.

    d_i = exp(u_i) / (1 + exp(u_H) + exp(u_L)) and d_0 is the remaining
    no-purchase share. The largest exponent is subtracted before
    exponentiation so the shares stay finite for arbitrarily large
    utilities. Rounding alone would still let a dominant share reach
    exactly 1.0 (once its utility leads the others by about 37) and a
    dominated one underflow to 0.0, so each share is clamped onto
    [tiny, 1 - 2^-53], the representable values nearest the exact share
    that lie strictly inside (0, 1); the shares still sum to 1 within
    2^-53. Away from that clamp, scalar shares are bit-identical to those
    of ``model._shares``. Defined on all finite inputs, not only the price box.
    """
    u_H = utility(params.firm_H, prices[0], references[0])
    u_L = utility(params.firm_L, prices[1], references[1])
    shift = np.maximum(0.0, np.maximum(u_H, u_L))
    exp = math.exp if np.ndim(shift) == 0 else np.exp
    e_H = exp(u_H - shift)
    e_L = exp(u_L - shift)
    e_0 = exp(-shift)
    inv = 1.0 / (e_0 + e_H + e_L)
    return tuple(np.clip(d, SHARE_MIN, SHARE_MAX) for d in (e_H * inv, e_L * inv, e_0 * inv))


def revenue(params: MarketParams, prices, references):
    """Expected per-period revenue (p_H * d_H, p_L * d_L)."""
    d_H, d_L, _ = demand(params, prices, references)
    p_H, p_L = prices
    return p_H * d_H, p_L * d_L


def _own_derivative(consts, i: int, p_own: float, p_other: float, r: PricePair):
    """(D_i, dD_i/dp_i) for firm i (0 = H, 1 = L) at the assembled state."""
    prices = (p_own, p_other) if i == 0 else (p_other, p_own)
    shares = _shares(consts, *prices, *r)
    d, q, s = shares[i], shares[2 + i], consts[1 + 3 * i]
    return 1.0 / p_own - s * q, -1.0 / (p_own * p_own) - s * s * d * q


def best_response(
    params: MarketParams,
    firm: str,
    opponent_price: float,
    r: PricePair,
) -> float:
    """Revenue-maximizing price of one firm against a fixed opponent.

    The log-revenue derivative D_i is strictly decreasing in the own
    price, so the maximizer over the box is the unique sign change of
    D_i when one exists, otherwise the boundary where D_i points: p_lo
    when D_i(p_lo) <= 0, p_hi when D_i(p_hi) >= 0. Interior roots are
    located with Newton steps safeguarded by the sign bracket, to
    |D_i| <= TOLERANCE. Once the bracket holds no float strictly
    inside it, no better iterate exists and SolverError is raised; its
    context holds the last bracket.
    """
    if firm not in ("H", "L"):
        raise ValueError(f"firm must be 'H' or 'L', got {firm!r}")
    if not params.in_box(opponent_price, r[0], r[1]):
        raise ValueError("opponent price and references must lie in the price box")
    consts = _consts(params)
    i = "HL".index(firm)
    lo, hi = params.p_lo, params.p_hi

    f_lo, _ = _own_derivative(consts, i, lo, opponent_price, r)
    if f_lo <= 0.0:
        return lo
    f_hi, _ = _own_derivative(consts, i, hi, opponent_price, r)
    if f_hi >= 0.0:
        return hi

    x = 0.5 * (lo + hi)
    for it in range(equilibrium.MAX_ITERATIONS):
        f, df = _own_derivative(consts, i, x, opponent_price, r)
        if abs(f) <= equilibrium.TOLERANCE:
            return x
        if f > 0.0:
            lo = x
        else:
            hi = x
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise equilibrium.SolverError(
                "best_response bracket collapsed before the tolerance was met",
                firm=firm,
                bracket=(lo, hi),
                iterations=it + 1,
                last=x,
            )
        step = x - f / df
        x = step if lo < step < hi else mid
    raise equilibrium.SolverError(
        "best_response failed to converge",
        firm=firm,
        bracket=(lo, hi),
        iterations=equilibrium.MAX_ITERATIONS,
        last=x,
    )


def equilibrium_policy(
    params: MarketParams,
    r: PricePair,
    start: PricePair | None = None,
) -> PricePair:
    """One-shot equilibrium prices p*(r) for fixed references.

    Solves the first-order conditions G_i(p, r) = 0 by projected Newton
    to max|G_i| <= TOLERANCE, where a component on a box edge with
    G_i pointing out of the box is exempt: there the maximizer sits on
    the boundary. ``start`` (clipped to the box) warm-starts the
    iteration, the box midpoint otherwise. The solution meets the
    tolerance from every start, but its last bits depend on the start:
    from the 81 starts of a 9 x 9 grid on the figure1 box, the policy at
    r = (1.5, 1.0) takes 45 distinct values, up to 1.1e-12 apart. A
    start with a NaN component is refused with ``ValueError``.
    """
    if not params.in_box(r[0], r[1]):
        raise ValueError("references must lie in the price box")
    if start is not None and any(math.isnan(v) for v in start):
        raise ValueError(f"start must not hold NaN, got {tuple(start)}")
    r = PricePair(float(r[0]), float(r[1]))
    p_H, p_L, *_ = equilibrium._newton(_consts(params), params.p_lo, params.p_hi, r, start)
    return PricePair(p_H, p_L)
