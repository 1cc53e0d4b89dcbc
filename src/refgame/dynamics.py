"""Repeated-game engine: projected ascent steps and trajectory simulation.

Each period every firm nudges its price along its own log-revenue
derivative and projects back onto the price box, after which the market
smooths the reference prices toward the posted prices:

    p_i <- Proj[p_lo, p_hi](p_i + eta_t * D_i(p, r))
    r_i <- Proj[p_lo, p_hi](alpha * r_i + (1 - alpha) * p_i)

Both updates read the pre-step state (old p, old r). The reference
projection only guards against the one-ulp rounding a convex
combination of two in-box values can incur. Simulations are strictly
sequential and bit-deterministic: identical inputs produce identical
trajectories. A run that reaches an exact fixed point in floats (a
period that leaves (p, r) bit-unchanged) is not iterated further:
every later period would repeat it, so ``simulate`` fills the remaining
records with it; see :func:`simulate` for why that is exact. A
trajectory holds every period in memory, so a run of more than
``RETENTION_LIMIT`` records is refused with ``ValueError``.
Trajectories are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    MarketParams,
    MarketState,
    PricePair,
    _consts,
    _demands_fast,
)

__all__ = [
    "RETENTION_LIMIT",
    "StepSchedule",
    "TrajectoryRecord",
    "Trajectory",
    "reference_update",
    "ascent_step",
    "simulate",
]

# Records one simulation may hold in memory; longer runs are refused.
RETENTION_LIMIT = 10_000_000
ETA_CHUNK = 4096  # periods `simulate` runs between flushes of its record buffers


class StepSchedule:
    """Step-size rule producing eta_t > 0 for t = 0, 1, 2, ...

    Four kinds:

    * ``constant(eta)``        -- eta_t = eta
    * ``inverse_sqrt(c)``      -- eta_t = c / sqrt(t + 1)
    * ``inverse_t(d)``         -- eta_t = d / (t + 1)
    * ``explicit(values)``     -- a caller-supplied sequence, validated
      positive and non-increasing

    The two diminishing kinds are non-increasing, vanish, and have a
    divergent sum by construction, which is the regime in which the
    learning dynamics provably stabilize. A constant schedule is legal
    but carries no such guarantee.
    """

    __slots__ = ("kind", "coef", "values")

    def __init__(self, kind: str, coef: float | None = None, values=None):
        if kind not in ("constant", "inverse_sqrt", "inverse_t", "explicit"):
            raise ValueError(f"unknown schedule kind {kind!r}")
        self.kind = kind
        self.coef = coef
        self.values = values
        if kind == "explicit":
            # a private read-only copy: simulate relies on the validation
            # below holding for the life of the schedule
            arr = np.array(values, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("explicit schedule needs a non-empty 1-d sequence")
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ValueError("explicit schedule values must be finite and > 0")
            if np.any(np.diff(arr) > 0.0):
                raise ValueError("explicit schedule must be non-increasing")
            arr.flags.writeable = False
            self.values = arr
        else:
            if coef is None or not (math.isfinite(coef) and coef > 0.0):
                raise ValueError(f"schedule coefficient must be finite and > 0, got {coef!r}")

    @classmethod
    def constant(cls, eta: float) -> "StepSchedule":
        return cls("constant", eta)

    @classmethod
    def inverse_sqrt(cls, c: float = 1.0) -> "StepSchedule":
        return cls("inverse_sqrt", c)

    @classmethod
    def inverse_t(cls, d: float) -> "StepSchedule":
        return cls("inverse_t", d)

    @classmethod
    def explicit(cls, values: Sequence[float]) -> "StepSchedule":
        return cls("explicit", values=values)

    def sequence(self, n: int) -> np.ndarray:
        """First n step sizes eta_0 .. eta_{n-1} as a float array."""
        if n < 0:
            raise ValueError("n must be >= 0")
        t = np.arange(n, dtype=float)
        if self.kind == "constant":
            return np.full(n, float(self.coef))
        if self.kind == "inverse_sqrt":
            return self.coef / np.sqrt(t + 1.0)
        if self.kind == "inverse_t":
            return self.coef / (t + 1.0)
        if n > self.values.size:
            raise ValueError(
                f"explicit schedule has {self.values.size} values, {n} requested"
            )
        return self.values[:n].copy()

    def describe(self) -> str:
        if self.kind == "explicit":
            return f"explicit(n={self.values.size})"
        return f"{self.kind}({self.coef:g})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StepSchedule.{self.describe()}"


class TrajectoryRecord(NamedTuple):
    """One period of a simulated path.

    ``derivatives`` holds (D_H, D_L) evaluated at this period's state;
    ``eta`` is the schedule value at ``t`` (the step consumed when
    advancing to ``t + 1``; informational on the final record).
    """

    t: int
    prices: PricePair
    references: PricePair
    derivatives: tuple[float, float]
    eta: float


@dataclass
class Trajectory:
    """A finished simulation: per-period state stored as parallel arrays.

    Records are indexed contiguously from ``t0`` (0 for an ordinary
    run); arrays are read-only after construction.
    """

    params: MarketParams
    schedule: str
    p_H: np.ndarray
    p_L: np.ndarray
    r_H: np.ndarray
    r_L: np.ndarray
    D_H: np.ndarray
    D_L: np.ndarray
    eta: np.ndarray
    t0: int = 0

    def __post_init__(self) -> None:
        n = self.p_H.size
        for name in ("p_L", "r_H", "r_L", "D_H", "D_L", "eta"):
            if getattr(self, name).size != n:
                raise ValueError("trajectory arrays must share one length")
        for name in ("p_H", "p_L", "r_H", "r_L", "D_H", "D_L", "eta"):
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return self.p_H.size

    @property
    def periods(self) -> np.ndarray:
        return self.t0 + np.arange(len(self))

    def record(self, i: int) -> TrajectoryRecord:
        if not -len(self) <= i < len(self):
            raise IndexError(f"record index {i} out of range for length {len(self)}")
        if i < 0:
            i += len(self)
        return TrajectoryRecord(
            t=self.t0 + i,
            prices=PricePair(float(self.p_H[i]), float(self.p_L[i])),
            references=PricePair(float(self.r_H[i]), float(self.r_L[i])),
            derivatives=(float(self.D_H[i]), float(self.D_L[i])),
            eta=float(self.eta[i]),
        )

    def final_state(self) -> MarketState:
        rec = self.record(len(self) - 1)
        return MarketState(prices=rec.prices, references=rec.references)


def reference_update(params: MarketParams, r: PricePair, p: PricePair) -> PricePair:
    """Smooth references toward prices, per firm:

        r_i <- min(max(alpha * r_i + (1 - alpha) * p_i, p_lo), p_hi)

    A convex combination of two in-box values cannot leave the box
    mathematically, but its final rounding can overshoot an edge by one
    ulp; the clamp keeps the result in the box. This is the reference
    rule of every period in :func:`ascent_step`, :func:`simulate` and
    ``equilibrium_path``.
    """
    lo, hi, alpha = params.p_lo, params.p_hi, params.alpha
    omega = 1.0 - alpha
    return PricePair(*(min(max(alpha * r_i + omega * p_i, lo), hi) for r_i, p_i in zip(r, p)))


def _state_floats(params: MarketParams, state: MarketState):
    p_H, p_L = float(state.prices[0]), float(state.prices[1])
    r_H, r_L = float(state.references[0]), float(state.references[1])
    if not params.in_box(p_H, p_L, r_H, r_L):
        raise ValueError(
            f"state {state!r} outside the price box [{params.p_lo}, {params.p_hi}]"
        )
    return p_H, p_L, r_H, r_L


def ascent_step(params: MarketParams, state: MarketState, eta: float) -> MarketState:
    """One period of the projected log-revenue ascent.

    Prices move by eta times the derivative evaluated at the *old*
    state and are projected onto the box; references follow
    :func:`reference_update` from the *old* (r, p) pair. Requires
    eta > 0 and a feasible state. Bit-identical to one period of
    :func:`simulate`.
    """
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"step size must be finite and > 0, got {eta!r}")
    p_H, p_L, r_H, r_L = _state_floats(params, state)
    consts = _consts(params)
    lo, hi = params.p_lo, params.p_hi

    d_H, d_L, _, _ = _demands_fast(consts, p_H, p_L, r_H, r_L)
    D_H = 1.0 / p_H + consts[1] * (d_H - 1.0)
    D_L = 1.0 / p_L + consts[4] * (d_L - 1.0)

    new_prices = PricePair(
        min(max(p_H + eta * D_H, lo), hi),
        min(max(p_L + eta * D_L, lo), hi),
    )
    new_refs = reference_update(params, PricePair(r_H, r_L), PricePair(p_H, p_L))
    return MarketState(prices=new_prices, references=new_refs)


def simulate(
    params: MarketParams,
    init: MarketState,
    schedule: StepSchedule,
    horizon: int,
) -> Trajectory:
    """Run the market for ``horizon`` periods from ``init``.

    Returns a trajectory of exactly ``horizon + 1`` records, record 0
    being the initial state, all held in memory. A run of more than
    ``RETENTION_LIMIT`` records is refused with ``ValueError`` before
    any period is computed.

    At the end of every ``ETA_CHUNK`` periods, if the period just run
    left (p_H, p_L, r_H, r_L) bit-unchanged, the remaining records are
    filled with the last one and the loop stops. The result is
    bit-identical to running every period, because:

    * the step sizes are non-increasing: ``explicit`` values are
      validated so, and ``c / sqrt(t + 1)`` and ``d / (t + 1)`` are
      built from monotone, correctly rounded operations;
    * rounding is monotone, so ``fl(p + fl(eta * D)) == p`` implies the
      same for every later ``eta' <= eta``, and a price clamped onto a
      box edge stays clamped there;
    * the reference update does not read eta, and D depends on the
      state alone, so the recorded D repeats as well.
    """
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    p_H, p_L, r_H, r_L = _state_floats(params, init)

    n = horizon + 1
    if n > RETENTION_LIMIT:
        raise ValueError(
            f"horizon {horizon} exceeds the retention limit "
            f"({RETENTION_LIMIT} records held in memory)"
        )

    # eta_0 .. eta_horizon; the final entry is informational only. An
    # explicit schedule may be exactly `horizon` long, in which case the
    # final record reuses its last value.
    try:
        etas = schedule.sequence(n)
    except ValueError:
        etas = schedule.sequence(horizon)
        etas = np.append(etas, etas[-1])

    a_H, s_H, c_H, a_L, s_L, c_L = _consts(params)
    lo, hi = params.p_lo, params.p_hi
    alpha = params.alpha
    omega = 1.0 - alpha
    exp = math.exp

    # Columns p_H, p_L, r_H, r_L, D_H, D_L. The loop appends plain floats
    # to one list per column and flushes them into the arrays every
    # ETA_CHUNK periods: a numpy store per value costs more than a list
    # append, and the short lists keep the memory overhead small.
    columns = [np.empty(n) for _ in range(6)]
    buffers = ([], [], [], [], [], [])
    put_pH, put_pL, put_rH, put_rL, put_DH, put_DL = (b.append for b in buffers)

    # The last pass records t = horizon; the update it computes is discarded.
    for i in range(0, n, ETA_CHUNK):
        j = min(i + ETA_CHUNK, n)
        for eta in etas[i:j].tolist():
            u_H = a_H - s_H * p_H + c_H * r_H
            u_L = a_L - s_L * p_L + c_L * r_L
            m = u_H if u_H > u_L else u_L
            if m < 0.0:
                m = 0.0
            e_H = exp(u_H - m)
            e_L = exp(u_L - m)
            e_0 = exp(-m)
            inv = 1.0 / (e_0 + e_H + e_L)
            D_H = 1.0 / p_H + s_H * (e_H * inv - 1.0)
            D_L = 1.0 / p_L + s_L * (e_L * inv - 1.0)
            put_pH(p_H)
            put_pL(p_L)
            put_rH(r_H)
            put_rL(r_L)
            put_DH(D_H)
            put_DL(D_L)

            # references first: they read the old prices. This is
            # reference_update, inlined.
            x = alpha * r_H + omega * p_H
            r_H = lo if x < lo else hi if x > hi else x
            x = alpha * r_L + omega * p_L
            r_L = lo if x < lo else hi if x > hi else x
            x = p_H + eta * D_H
            p_H = lo if x < lo else hi if x > hi else x
            x = p_L + eta * D_L
            p_L = lo if x < lo else hi if x > hi else x
        for column, buffer in zip(columns, buffers):
            column[i:j] = buffer
            buffer.clear()
        # Every state value lies in [p_lo, p_hi] with p_lo > 0, so == is
        # bit equality here. On the last pass the fill below is empty.
        if (p_H, p_L, r_H, r_L) == tuple(column[j - 1] for column in columns[:4]):
            for column in columns:
                column[j:] = column[j - 1]
            break

    return Trajectory(params, schedule.describe(), *columns, eta=etas)
