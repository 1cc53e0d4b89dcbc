"""Two-product logit market with memory-based reference prices.

A market holds two substitutable products, labelled H and L. In each
period product ``i`` carries a posted price ``p_i`` and a reference
price ``r_i`` (the consumers' internal benchmark built from past
prices). The deterministic utility is

    u_i = a_i - b_i * p_i + c_i * (r_i - p_i),

market shares follow a multinomial logit over {H, L, no purchase}, and
a firm's revenue is its price times its share. This module provides the
analytic first- and second-order quantities that the dynamics and
diagnostics build on: the log-revenue derivative a firm can recover
from its own price and realized demand, its scaled version, the Jacobian
of the scaled form in the state, and global bound constants over a price
box.

Every function is pure. Components of a price pair may be floats or
numpy arrays of a common shape; results broadcast elementwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FirmParams",
    "MarketParams",
    "PricePair",
    "MarketState",
    "utility",
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
            x = _real(getattr(self, name), f"FirmParams.{name} must be a finite real")
            if not math.isfinite(x):
                raise ValueError(f"FirmParams.{name} must be a finite real, got {x!r}")
            object.__setattr__(self, name, x)
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
    enough to contain the stationary equilibrium is *not* checked here:
    :func:`refgame.equilibrium.validate_price_box` returns the bounds of
    the stationary prices when it is, and raises ``ValueError`` when not.
    """

    firm_H: FirmParams
    firm_L: FirmParams
    alpha: float
    p_lo: float
    p_hi: float

    def __post_init__(self) -> None:
        for name in ("alpha", "p_lo", "p_hi"):
            x = _real(getattr(self, name), f"MarketParams.{name} must be a finite real")
            object.__setattr__(self, name, x)
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


def _real(value, rule: str) -> float:
    """The constructors' number rule: a ``numbers.Real`` but no bool, as a
    Python float (so a numpy float32 is widened); anything else, or an int
    beyond the float range, raises ``ValueError`` naming ``rule`` and value."""
    # a float passes first: the ABC check would make a long explicit
    # schedule several times slower to build
    if isinstance(value, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    ):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{rule}, got {value!r}")


def _check_finite(**named) -> None:
    for name, value in named.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def utility(firm: FirmParams, p, r):
    """Deterministic utility a - b*p + c*(r - p) of one product.

    Evaluated as (a - (b+c)*p) + c*r, the order :func:`_shares` uses,
    so that the two round alike: near D_i = 0 the
    log-revenue derivative is a difference of two O(1) terms, and a
    one-ulp change in u shows there as a 1e-12 relative error. No
    clamping; defined for any finite price and reference, inside the
    box or not.
    """
    _check_finite(p=p, r=r)
    return firm.a - firm.sensitivity * p + firm.c * r


def _logit(params: MarketParams, prices, references):
    """(d_H, d_L, q_H, q_L) by the expressions of :func:`_shares`, so
    scalars carry its bits; arrays take ``np.exp``, which differs from
    ``math.exp`` in the last bit for about one argument in twenty."""
    u_H = utility(params.firm_H, prices[0], references[0])
    u_L = utility(params.firm_L, prices[1], references[1])
    shift = np.maximum(0.0, np.maximum(u_H, u_L))
    exp = math.exp if np.ndim(shift) == 0 else np.exp
    e_H = exp(u_H - shift)
    e_L = exp(u_L - shift)
    e_0 = exp(-shift)
    inv = 1.0 / (e_0 + e_H + e_L)
    return e_H * inv, e_L * inv, (e_0 + e_L) * inv, (e_0 + e_H) * inv


def log_rev_derivative(params: MarketParams, prices, references):
    """Own-price derivative of each firm's log revenue, (D_H, D_L).

    D_i = 1/p_i - (b_i + c_i) (1 - d_i). A firm can evaluate this
    from its own posted price and realized demand alone, which is what
    makes decentralized gradient pricing feasible.
    """
    p_H, p_L = prices
    if np.any(np.asarray(p_H) == 0.0) or np.any(np.asarray(p_L) == 0.0):
        raise ValueError("log_rev_derivative is undefined at p_i = 0")
    _, _, q_H, q_L = _logit(params, prices, references)
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    return 1.0 / p_H - s_H * q_H, 1.0 / p_L - s_L * q_L


def scaled_derivative(params: MarketParams, prices, references):
    """(G_H, G_L) with G_i = D_i / (b_i + c_i) = 1/((b_i+c_i) p_i) - (1 - d_i).

    The scaling puts both firms' ascent directions on a common footing;
    all sign and bound diagnostics are stated in terms of G.
    """
    p_H, p_L = prices
    if np.any(np.asarray(p_H) == 0.0) or np.any(np.asarray(p_L) == 0.0):
        raise ValueError("scaled_derivative is undefined at p_i = 0")
    _, _, q_H, q_L = _logit(params, prices, references)
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    return 1.0 / (s_H * p_H) - q_H, 1.0 / (s_L * p_L) - q_L


def scaled_derivative_partials(params: MarketParams, prices, references) -> np.ndarray:
    """The Jacobian of (G_H, G_L) in the state (p_H, p_L, r_H, r_L).

    Returns an array of shape (2, 4) (plus broadcast dimensions) whose
    entry [i, j] is dG_i/dx_j, rows ordered (H, L) and columns in state
    order, so ``J[:, :2]`` is G_p and ``J[:, 2:]`` is G_r. With j the
    firm other than i, the closed forms are

        dG_i/dp_i = -1/((b_i+c_i) p_i^2) - (b_i+c_i) d_i (1 - d_i)
        dG_i/dp_j =  (b_j+c_j) d_i d_j
        dG_i/dr_i =   c_i d_i (1 - d_i)
        dG_i/dr_j =  -c_j d_i d_j
    """
    p_H, p_L = prices
    if np.any(np.asarray(p_H) == 0.0) or np.any(np.asarray(p_L) == 0.0):
        raise ValueError("scaled_derivative_partials is undefined at p_i = 0")
    d_H, d_L, q_H, q_L = _logit(params, prices, references)
    s_H, s_L = params.firm_H.sensitivity, params.firm_L.sensitivity
    c_H, c_L = params.firm_H.c, params.firm_L.c
    cross = d_H * d_L
    own_H = -1.0 / (s_H * np.asarray(p_H, dtype=float) ** 2) - s_H * d_H * q_H
    own_L = -1.0 / (s_L * np.asarray(p_L, dtype=float) ** 2) - s_L * d_L * q_L
    return np.array(
        [
            [own_H, s_L * cross, c_H * d_H * q_H, -c_L * cross],
            [s_H * cross, own_L, -c_H * cross, c_L * d_L * q_L],
        ]
    )


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


def _shares(consts, p_H: float, p_L: float, r_H: float, r_L: float):
    """The logit kernel: (d_H, d_L, q_H, q_L) on pre-flattened coefficients.

    q_i is the complement 1 - d_i, formed as (e_0 + e_-i)/total and
    never by subtraction, so it keeps full relative precision where d_i
    saturates towards 1 (a subtraction would give 0 or 2^-53 there).
    Every site that needs 1 - d_i reads q_i: D_i = 1/p_i - (b_i+c_i) q_i,
    G_i = 1/((b_i+c_i) p_i) - q_i, and d_i (1 - d_i) is d_i q_i. No
    share or complement is clamped, and nothing is validated; scalars
    only (``math.exp``). :func:`_logit` evaluates the same expressions on
    arrays, and ``dynamics.simulate`` inlines them in its period loop.
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
