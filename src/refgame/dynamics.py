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
trajectories.

A run often ends in an exact orbit in floats: a fixed point (period 1)
under any schedule, or, once the remaining steps are all equal, a
cycle of a few periods, which is where a constant step usually ends.
``simulate`` looks for such an orbit at chunk ends that double from
``ORBIT_MAX`` to ``ETA_CHUNK`` and then come every ``ETA_CHUNK`` periods,
so an orbit that first closes at record m is found by period
max(64, 2m). It stops there and keeps the repeating tail implicit: the
trajectory stores the records up to the end of one period of the orbit,
and every later record is one of those; see :func:`simulate` for why
that is exact. A trajectory otherwise stores every period, so a run of
more than ``RETENTION_LIMIT`` records is refused with ``ValueError``.
A trajectory keeps its stored records as six read-only arrays and
builds a full-length column on that column's first read. Trajectories
compare and hash by identity, never change once built, and are safe to
share across threads.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .model import (
    MarketParams,
    MarketState,
    PricePair,
    _consts,
    _real,
)

__all__ = [
    "RETENTION_LIMIT",
    "StepSchedule",
    "Trajectory",
    "reference_update",
    "simulate",
]

# Records one simulation may hold in memory; longer runs are refused.
RETENTION_LIMIT = 10_000_000
# `simulate` flushes its record buffers and looks for an orbit at chunk
# ends 64, 128, ..., 4096 (doubling from ORBIT_MAX), then every ETA_CHUNK
ETA_CHUNK = 4096  # longest chunk of periods between two chunk ends
ORBIT_MAX = 64  # first chunk end, and the longest orbit period looked for


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
            if np.ndim(values) != 1 or len(values) == 0:
                raise ValueError("explicit schedule needs a non-empty 1-d sequence")
            # a private read-only copy: simulate relies on the validation
            # below holding for the life of the schedule
            rule = "explicit schedule values must be finite and > 0"
            arr = np.array([_real(v, rule) for v in values])
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ValueError(rule)
            if np.any(np.diff(arr) > 0.0):
                raise ValueError("explicit schedule must be non-increasing")
            arr.flags.writeable = False
            self.values = arr
        else:
            rule = "schedule coefficient must be finite and > 0"
            self.coef = _real(coef, rule)
            if not (math.isfinite(self.coef) and self.coef > 0.0):
                raise ValueError(f"{rule}, got {coef!r}")

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
            return np.full(n, self.coef)
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


def _column(row: int) -> functools.cached_property:
    """Column attribute ``row`` of a :class:`Trajectory`: the full-length,
    read-only array, built from the stored records on first read."""
    return functools.cached_property(lambda traj: traj._expand(traj._records[row]))


class Trajectory:
    """A finished simulation: per-period state as six parallel columns.

    Record t is period t, from 0 (the initial state) to len - 1. ``D_H``
    and ``D_L`` hold the log-revenue derivatives at each record's state.
    The step sizes are not stored: ``schedule`` names the rule that
    produced them.

    The six arrays given to the constructor, made read-only, are the
    stored records 0 .. onset + period - 1; they must share one
    length of at least 1. When ``period`` is k > 0,
    the last k of them repeat to the end: record t >= onset is record
    ``onset + (t - onset) % k``. A trajectory built from columns
    stores them all, with period 0 and onset len. Each column attribute
    is the full-length, read-only array, built from the stored records
    on its first read and kept; ``len``, :meth:`final_state`,
    ``rate_fit``, ``cycle_detector`` and the CSV writers read the stored
    records and build none. Trajectories compare and hash by identity,
    and ``repr`` builds no column.
    """

    p_H, p_L, r_H, r_L, D_H, D_L = (_column(row) for row in range(6))

    def __init__(self, params: MarketParams, schedule: str, p_H, p_L, r_H, r_L, D_H, D_L):
        self.params = params
        self.schedule = schedule
        self._records = (p_H, p_L, r_H, r_L, D_H, D_L)
        if any(records.size != p_H.size for records in self._records):
            raise ValueError("trajectory arrays must share one length")
        if not p_H.size:
            raise ValueError("trajectory is empty")
        for records in self._records:
            records.flags.writeable = False
        self.onset = self._length = p_H.size
        self.period = 0

    @classmethod
    def _repeating(
        cls, params: MarketParams, schedule: str, records, length: int, period: int
    ) -> "Trajectory":
        """``length`` records, of which ``records`` (six columns) give the
        first, and the last ``period`` of those repeat through the end.

        The repeat is traced back through the given records to its
        earliest onset, by bit comparison, and each column is copied to
        the records 0 .. onset + period - 1 that it keeps.
        """
        same = np.ones(records[0].size - period, dtype=bool)
        for column in records:
            bits = column.view(np.uint64)
            same &= bits[:-period] == bits[period:]
        differ = np.flatnonzero(~same)
        onset = int(differ[-1]) + 1 if differ.size else 0
        traj = cls(params, schedule, *(np.array(c[: onset + period]) for c in records))
        traj.onset, traj.period, traj._length = onset, period, length
        return traj

    def _take(self, t) -> list:
        """The six columns at period(s) ``t``, read from the stored
        records by the repeat rule: ``t`` is an int, an int array, or a
        slice of stored records, which reads them without a copy."""
        if self.period and not isinstance(t, slice):
            t = np.where(t < self.onset, t, self.onset + (t - self.onset) % self.period)
        return [records[t] for records in self._records]

    def _expand(self, records: np.ndarray) -> np.ndarray:
        if not self.period:
            return records
        column = np.empty(self._length)
        column[: self.onset] = records[: self.onset]
        # the tail as whole periods, then the part of one period left over
        tail = column[self.onset :]
        whole = tail.size - tail.size % self.period
        tail[:whole].reshape(-1, self.period)[:] = records[self.onset :]
        tail[whole:] = records[self.onset : self.onset + tail.size - whole]
        column.flags.writeable = False
        return column

    def __len__(self) -> int:
        return self._length

    def final_state(self) -> MarketState:
        p_H, p_L, r_H, r_L, _, _ = self._take(self._length - 1)
        return MarketState(
            prices=PricePair(float(p_H), float(p_L)),
            references=PricePair(float(r_H), float(r_L)),
        )


def reference_update(params: MarketParams, r: PricePair, p: PricePair) -> PricePair:
    """Smooth references toward prices, per firm:

        r_i <- min(max(alpha * r_i + (1 - alpha) * p_i, p_lo), p_hi)

    A convex combination of two in-box values cannot leave the box
    mathematically, but its final rounding can overshoot an edge by one
    ulp; the clamp keeps the result in the box. Every period of
    :func:`simulate` and ``equilibrium_path`` updates its references by
    this rule from the pre-step pair (r_t, p_t); in :func:`simulate` the
    same period moves the prices to Proj[p_lo, p_hi](p_t + eta_t * D(p_t, r_t)).
    """
    lo, hi, alpha = params.p_lo, params.p_hi, params.alpha
    omega = 1.0 - alpha
    x_H = alpha * r[0] + omega * p[0]
    x_L = alpha * r[1] + omega * p[1]
    return PricePair(
        lo if x_H < lo else hi if x_H > hi else x_H,
        lo if x_L < lo else hi if x_L > hi else x_L,
    )


def _check_horizon(horizon, error: type[ValueError] = ValueError) -> None:
    """The horizon rule of :func:`simulate`, ``equilibrium_path`` and
    ``ExperimentConfig``: raise ``error`` unless ``horizon`` is an int >= 1
    (a bool is none) whose ``horizon + 1`` records fit in RETENTION_LIMIT."""
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise error(f"horizon must be an integer >= 1, got {horizon!r}")
    if horizon >= RETENTION_LIMIT:
        raise error(
            f"horizon {horizon} exceeds the retention limit "
            f"({RETENTION_LIMIT} records held in memory)"
        )


def _state_floats(params: MarketParams, state: MarketState):
    p_H, p_L = float(state.prices[0]), float(state.prices[1])
    r_H, r_L = float(state.references[0]), float(state.references[1])
    if not params.in_box(p_H, p_L, r_H, r_L):
        raise ValueError(
            f"state {state!r} outside the price box [{params.p_lo}, {params.p_hi}]"
        )
    return p_H, p_L, r_H, r_L


def simulate(
    params: MarketParams,
    init: MarketState,
    schedule: StepSchedule,
    horizon: int,
) -> Trajectory:
    """Run the market for ``horizon`` periods from ``init``.

    Returns a trajectory of exactly ``horizon + 1`` records, record 0
    being the initial state. A run of more than ``RETENTION_LIMIT``
    records is refused with ``ValueError`` before any period is
    computed.

    The periods run in chunks whose ends double from ``ORBIT_MAX`` to
    ``ETA_CHUNK`` and then come every ``ETA_CHUNK``: 64, 128, ..., 4096,
    8192, 12288, ..., and the last record. At each chunk end j, with
    records 0 .. j - 1 computed, the loop looks for the smallest
    k <= min(ORBIT_MAX, j - 1) such that record j - 1 equals record
    j - 1 - k in its state, bit for bit. It stops there when k == 1, or
    when the step of period j - 1 - k equals ``etas[-1]``, the run's last
    step, which ``etas`` repeats for the discarded update of the last
    pass. The trajectory then stores the records up to the end of the
    orbit's first period, traced back through records 0 .. j - 1, and
    repeats that period to the end (see :class:`Trajectory`). That is
    bit-identical to running every period, because:

    * the recorded D depends on the state alone, and the reference
      update does not read eta, so equal states give equal records;
    * k == 1, a fixed point: the step sizes are non-increasing
      (``explicit`` values are validated so, and ``c / sqrt(t + 1)`` and
      ``d / (t + 1)`` are built from monotone, correctly rounded
      operations). Rounding is monotone, so ``fl(p + fl(eta * D)) == p``
      implies the same for every later ``eta' <= eta``, and a price
      clamped onto a box edge stays clamped there;
    * k >= 2: the steps are non-increasing, so the step of period
      j - 1 - k equals the last one only if every step from there on is
      that same value. The period map is then one fixed, autonomous map
      of the state, and a state that recurs after k periods makes every
      later record repeat with period k. At the last chunk end those
      steps are exactly the k between the compared records, so a tail
      that repeats while its steps still fall keeps period 0.

    None of this depends on where the chunk ends lie. An orbit of period
    k <= ORBIT_MAX first closes at record m = onset + k, which repeats
    record onset, and is seen at the first chunk end j > m: by period
    max(64, 2m) when m < 2048, and at the first multiple of
    ``ETA_CHUNK`` past m after that. A diminishing schedule, whose steps
    differ from period to period, stops at a fixed point only.
    """
    _check_horizon(horizon)
    p_H, p_L, r_H, r_L = _state_floats(params, init)

    n = horizon + 1
    # eta_0 .. eta_{horizon-1}, one per update, then the last again for
    # the last pass, which records t = horizon and discards its update
    etas = schedule.sequence(horizon)
    etas = np.append(etas, etas[-1])

    a_H, s_H, c_H, a_L, s_L, c_L = _consts(params)
    lo, hi = params.p_lo, params.p_hi
    alpha = params.alpha
    omega = 1.0 - alpha
    exp = math.exp

    # Columns p_H, p_L, r_H, r_L, D_H, D_L. The loop appends plain floats
    # to one list per column and flushes them into the arrays at each
    # chunk end: a numpy store per value costs more than a list append,
    # and the short lists keep the memory overhead small.
    # six arrays: one (6, n) block raised peak RSS ~20% at 1e6 periods, likely huge pages
    columns = [np.empty(n) for _ in range(6)]
    buffers = ([], [], [], [], [], [])
    put_pH, put_pL, put_rH, put_rL, put_DH, put_DL = (b.append for b in buffers)

    i = 0
    while i < n:
        # chunk ends 64, 128, ..., 4096, then every ETA_CHUNK, and n
        j = min(max(2 * i, ORBIT_MAX), i + ETA_CHUNK, n)
        for eta in etas[i:j].tolist():
            # model._shares and D_i = 1/p_i - (b_i+c_i)(1 - d_i), inlined:
            # calling the kernel once per period costs about 30% more
            u_H = a_H - s_H * p_H + c_H * r_H
            u_L = a_L - s_L * p_L + c_L * r_L
            m = u_H if u_H > u_L else u_L
            if m < 0.0:
                m = 0.0
            e_H = exp(u_H - m)
            e_L = exp(u_L - m)
            e_0 = exp(-m)
            inv = 1.0 / (e_0 + e_H + e_L)
            D_H = 1.0 / p_H - s_H * ((e_0 + e_L) * inv)
            D_L = 1.0 / p_L - s_L * ((e_0 + e_H) * inv)
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
        # hit[k - 1]: record j - 1 repeats the state of record j - 1 - k. Every
        # state value lies in [p_lo, p_hi] with p_lo > 0, so == is bit equality.
        hit = np.ones(min(ORBIT_MAX, j - 1), dtype=bool)
        for column in columns[:4]:
            hit &= column[j - 2 :: -1][:ORBIT_MAX] == column[j - 1]
        if hit.any():
            k = int(np.argmax(hit)) + 1
            if k == 1 or etas[j - 1 - k] == etas[-1]:
                return Trajectory._repeating(
                    params, schedule.describe(), [c[:j] for c in columns], n, k
                )
        i = j

    return Trajectory(params, schedule.describe(), *columns)
