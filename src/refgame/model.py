"""Two-product logit market with memory-based reference prices.

A market holds two substitutable products, labelled H and L. In each
period product ``i`` carries a posted price ``p_i`` and a reference
price ``r_i`` (the consumers' internal benchmark built from past
prices). The deterministic utility is

    u_i = a_i - b_i * p_i + c_i * (r_i - p_i),

market shares follow a multinomial logit over {H, L, no purchase}, and
revenue is price times share. This module also provides the analytic
first- and second-order quantities that the dynamics and diagnostics
build on: the log-revenue derivative a firm can recover from its own
price and realized demand, its scaled version, all four partial
derivatives of the scaled form, and global bound constants over a price
box.

Every function is pure. Components of a price pair may be floats or
numpy arrays of a common shape; results broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FirmParams",
    "MarketParams",
    "PricePair",
    "MarketState",
    "utility",
    "demand",
    "revenue",
    "log_rev_derivative",
    "scaled_derivative",
    "scaled_derivative_partials",
    "bound_constants",
]


class PricePair(NamedTuple):
    """An (H, L) pair of currency values (prices or references)."""

    p_H: float
    p_L: float


class MarketState(NamedTuple):
    """One period of market state: posted prices and reference prices."""

    prices: PricePair
    references: PricePair


@dataclass(frozen=True)
class FirmParams:
    """Utility coefficients of one product: u = a - b*p + c*(r - p).

    ``a`` is the intrinsic value, ``b`` the price sensitivity and ``c``
    the reference-price sensitivity. ``b`` must be strictly positive;
    ``c`` may be zero (no reference effect), in which case the
    equilibrium theory degenerates gracefully.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"FirmParams.{name} must be a finite real, got {v!r}")
        if self.b <= 0.0:
            raise ValueError(f"FirmParams.b must be > 0, got {self.b}")
        if self.c < 0.0:
            raise ValueError(f"FirmParams.c must be >= 0, got {self.c}")

    @property
    def sensitivity(self) -> float:
        """``b + c``: how fast the utility falls in the own price when the
        reference price is held fixed; written ``b_i+c_i`` in the formulas."""
        return self.b + self.c


@dataclass(frozen=True)
class MarketParams:
    """A full game instance: both firms, the memory weight, the price box.

    ``alpha`` is the exponential-smoothing memory of the reference
    price (1 = frozen references, 0 = references track last prices).
    ``[p_lo, p_hi]`` is the feasible price interval; whether it is wide
    enough to contain the stationary equilibrium is *not* checked here,
    call :func:`refgame.equilibrium.validate_price_box` for that.
    """

    firm_H: FirmParams
    firm_L: FirmParams
    alpha: float
    p_lo: float
    p_hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.p_lo) and math.isfinite(self.p_hi)):
            raise ValueError("price box bounds must be finite")
        if not (0.0 < self.p_lo < self.p_hi):
            raise ValueError(
                f"price box must satisfy 0 < p_lo < p_hi, got [{self.p_lo}, {self.p_hi}]"
            )

    @property
    def firms(self) -> tuple[FirmParams, FirmParams]:
        return (self.firm_H, self.firm_L)

    def in_box(self, *values: float) -> bool:
        """True when every value lies inside [p_lo, p_hi]."""
        return all(self.p_lo <= v <= self.p_hi for v in values)


# The representable shares nearest 0 and 1 that still lie strictly inside (0, 1).
_SHARE_MIN = float(np.finfo(float).tiny)
_SHARE_MAX = float(np.nextafter(1.0, 0.0))


def _check_finite(**named) -> None:
    for name, value in named.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def utility(firm: FirmParams, p, r):
    """Deterministic utility a - b*p + c*(r - p) of one product.

    Evaluated as (a - (b+c)*p) + c*r, the order the period kernels use,
    so that this path and the hot path round alike: near D_i = 0 the
    log-revenue derivative is a difference of two O(1) terms, and a
    one-ulp change in u shows there as a 1e-12 relative error. No
    clamping; defined for any finite price and reference, inside the
    box or not.
    """
    _check_finite(p=p, r=r)
    return firm.a - firm.sensitivity * p + firm.c * r


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
    2^-53. Away from that clamp, scalar shares are bit-identical to
    the period kernel's. Defined on all finite inputs, not only the
    price box.
    """
    p_H, p_L = prices
    r_H, r_L = references
    u_H = utility(params.firm_H, p_H, r_H)
    u_L = utility(params.firm_L, p_L, r_L)
    shift = np.maximum(0.0, np.maximum(u_H, u_L))
    # scalars take math.exp like the period kernel; numpy's exp differs
    # from it in the last bit for about one argument in twenty
    exp = math.exp if np.ndim(shift) == 0 else np.exp
    e_H = exp(u_H - shift)
    e_L = exp(u_L - shift)
    e_0 = exp(-shift)
    inv = 1.0 / (e_0 + e_H + e_L)
    return tuple(np.clip(e * inv, _SHARE_MIN, _SHARE_MAX) for e in (e_H, e_L, e_0))


def revenue(params: MarketParams, prices, references):
    """Expected per-period revenue (p_H * d_H, p_L * d_L)."""
    d_H, d_L, _ = demand(params, prices, references)
    p_H, p_L = prices
    return p_H * d_H, p_L * d_L


def log_rev_derivative(params: MarketParams, prices, references):
    """Own-price derivative of each firm's log revenue, (D_H, D_L).

    D_i = 1/p_i + (b_i + c_i) * (d_i - 1). A firm can evaluate this
    from its own posted price and realized demand alone, which is what
    makes decentralized gradient pricing feasible.
    """
    p_H, p_L = prices
    if np.any(np.asarray(p_H) == 0.0) or np.any(np.asarray(p_L) == 0.0):
        raise ValueError("log_rev_derivative is undefined at p_i = 0")
    d_H, d_L, _ = demand(params, prices, references)
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    return 1.0 / p_H + s_H * (d_H - 1.0), 1.0 / p_L + s_L * (d_L - 1.0)


def scaled_derivative(params: MarketParams, prices, references):
    """(G_H, G_L) with G_i = D_i / (b_i + c_i) = 1/((b_i+c_i) p_i) + d_i - 1.

    The scaling puts both firms' ascent directions on a common footing;
    all sign and bound diagnostics are stated in terms of G.
    """
    p_H, p_L = prices
    if np.any(np.asarray(p_H) == 0.0) or np.any(np.asarray(p_L) == 0.0):
        raise ValueError("scaled_derivative is undefined at p_i = 0")
    d_H, d_L, _ = demand(params, prices, references)
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    return 1.0 / (s_H * p_H) + d_H - 1.0, 1.0 / (s_L * p_L) + d_L - 1.0


def scaled_derivative_partials(params: MarketParams, prices, references) -> np.ndarray:
    """All four partial derivatives of G_i for each firm.

    Returns an array of shape (2, 4) (plus broadcast dimensions), rows
    ordered (H, L) and columns ordered

        [d/d own price, d/d other price, d/d own reference, d/d other reference]

    with the closed forms

        dG_i/dp_i    = -1/((b_i+c_i) p_i^2) - (b_i+c_i) d_i (1 - d_i)
        dG_i/dp_-i   =  (b_-i+c_-i) d_i d_-i
        dG_i/dr_i    =   c_i d_i (1 - d_i)
        dG_i/dr_-i   =  -c_-i d_i d_-i
    """
    p_H, p_L = prices
    if np.any(np.asarray(p_H) == 0.0) or np.any(np.asarray(p_L) == 0.0):
        raise ValueError("scaled_derivative_partials is undefined at p_i = 0")
    d_H, d_L, _ = demand(params, prices, references)
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    c_H, c_L = params.firm_H.c, params.firm_L.c
    cross = d_H * d_L
    row_H = np.stack(
        [
            -1.0 / (s_H * np.asarray(p_H, dtype=float) ** 2) - s_H * d_H * (1.0 - d_H),
            s_L * cross,
            c_H * d_H * (1.0 - d_H),
            -c_L * cross,
        ]
    )
    row_L = np.stack(
        [
            -1.0 / (s_L * np.asarray(p_L, dtype=float) ** 2) - s_L * d_L * (1.0 - d_L),
            s_H * cross,
            c_L * d_L * (1.0 - d_L),
            -c_H * cross,
        ]
    )
    return np.stack([row_H, row_L])


def bound_constants(params: MarketParams) -> tuple[float, float]:
    """Global constants (m_g, l_r) over the price box.

    ``m_g`` bounds |G_i| everywhere on the box: each |G_i| is at most
    1/((b_i+c_i) p_lo) + 1, and m_g takes the larger firm's value.
    ``l_r = sqrt(c_H^2 + c_L^2) / 4`` bounds the 2-norm of the gradient
    of G_i with respect to the reference pair, i.e. it is the Lipschitz
    constant of G in the references.
    """
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    m_g = max(1.0 / (s_H * params.p_lo), 1.0 / (s_L * params.p_lo)) + 1.0
    l_r = 0.25 * math.hypot(params.firm_H.c, params.firm_L.c)
    return m_g, l_r


def _consts(params: MarketParams) -> tuple[float, float, float, float, float, float]:
    """Flattened coefficients (a_H, b_H+c_H, c_H, a_L, b_L+c_L, c_L)."""
    f_H, f_L = params.firm_H, params.firm_L
    return (f_H.a, f_H.sensitivity, f_H.c, f_L.a, f_L.sensitivity, f_L.c)


def _demands_fast(consts, p_H: float, p_L: float, r_H: float, r_L: float):
    """Scalar logit shares and their complements on pre-flattened coefficients.

    Returns (d_H, d_L, 1 - d_H, 1 - d_L). Each complement is formed as
    (e_0 + e_-i)/total, never by subtraction, so it keeps full relative
    precision where a share saturates towards 1.

    Hot-path twin of :func:`demand` (math.exp instead of numpy, no
    validation) used by the period loops in the dynamics and
    equilibrium solvers. It evaluates the same expressions in the same
    order (the utility as a - (b+c)*p + c*r, the shares as e_i times
    1/total), so on scalars it matches :func:`demand` bit for bit,
    except where :func:`demand` clamps a saturated share onto
    [tiny, 1 - 2^-53]; here such a share may round to exactly 1.0 or
    0.0. The test suite pins the two paths against each other.
    """
    a_H, s_H, c_H, a_L, s_L, c_L = consts
    u_H = a_H - s_H * p_H + c_H * r_H
    u_L = a_L - s_L * p_L + c_L * r_L
    m = u_H if u_H > u_L else u_L
    if m < 0.0:
        m = 0.0
    e_H = math.exp(u_H - m)
    e_L = math.exp(u_L - m)
    e_0 = math.exp(-m)
    inv = 1.0 / (e_0 + e_H + e_L)
    return e_H * inv, e_L * inv, (e_0 + e_L) * inv, (e_0 + e_H) * inv
