"""Step schedules, the one-period ascent oracle, and full simulations."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import refgame as rg
import refgame.cli as cli
import refgame.dynamics as dynamics
from refgame.model import _consts, _shares

from conftest import (
    SATURATED,
    TRAJECTORY_COLUMNS,
    built_columns,
    spectral_radius,
    step_jacobian,
    stored,
)
from oracles import SHARE_MAX, SHARE_MIN

# frozen: log-revenue derivatives at the demo start state (see test_model)
D_H0 = -2.5950508119722233822
D_L0 = -1.1557483831049262107

# simulate's chunk ends up to 2 * ETA_CHUNK: doubling from ORBIT_MAX to
# ETA_CHUNK, then every ETA_CHUNK
CHUNK_ENDS = [64, 128, 256, 512, 1024, 2048, 4096, 8192]


def demo_state() -> rg.MarketState:
    return rg.MarketState(
        prices=rg.PricePair(4.85, 4.86), references=rg.PricePair(0.10, 2.95)
    )


def ascent_step(params: rg.MarketParams, state: rg.MarketState, eta: float) -> rg.MarketState:
    """One period of the projected log-revenue ascent, written out apart
    from ``simulate``'s inlined loop as the oracle it must match bit for bit.

    Prices move by eta times the derivative evaluated at the *old* state
    and are projected onto the box; references follow
    ``reference_update`` from the *old* (r, p) pair.
    """
    p_H, p_L = float(state.prices[0]), float(state.prices[1])
    r_H, r_L = float(state.references[0]), float(state.references[1])
    consts = _consts(params)
    lo, hi = params.p_lo, params.p_hi

    _, _, q_H, q_L = _shares(consts, p_H, p_L, r_H, r_L)
    D_H = 1.0 / p_H - consts[1] * q_H
    D_L = 1.0 / p_L - consts[4] * q_L

    new_prices = rg.PricePair(
        min(max(p_H + eta * D_H, lo), hi),
        min(max(p_L + eta * D_L, lo), hi),
    )
    new_refs = rg.reference_update(params, rg.PricePair(r_H, r_L), rg.PricePair(p_H, p_L))
    return rg.MarketState(prices=new_prices, references=new_refs)


def state_at(traj: rg.Trajectory, t: int) -> rg.MarketState:
    """The recorded (prices, references) of period t."""
    return rg.MarketState(
        prices=rg.PricePair(float(traj.p_H[t]), float(traj.p_L[t])),
        references=rg.PricePair(float(traj.r_H[t]), float(traj.r_L[t])),
    )


class TestStepSchedule:
    def test_constant(self):
        s = rg.StepSchedule.constant(0.7)
        seq = s.sequence(10_001)
        assert seq[0] == 0.7 and seq[10_000] == 0.7
        assert s.describe() == "constant(0.7)"

    def test_inverse_sqrt(self):
        s = rg.StepSchedule.inverse_sqrt(2.0)
        seq = s.sequence(5)
        assert math.isclose(seq[0], 2.0)
        assert math.isclose(seq[3], 1.0)
        np.testing.assert_allclose(seq, 2.0 / np.sqrt(np.arange(5) + 1.0))

    def test_inverse_t(self):
        s = rg.StepSchedule.inverse_t(3.0)
        seq = s.sequence(3)
        assert math.isclose(seq[0], 3.0)
        assert math.isclose(seq[2], 1.0)

    def test_diminishing_kinds_are_non_increasing_and_vanishing(self):
        for s in (rg.StepSchedule.inverse_sqrt(1.3), rg.StepSchedule.inverse_t(2.1)):
            seq = s.sequence(10_000)
            assert np.all(seq > 0.0)
            assert np.all(np.diff(seq) <= 0.0)
            assert seq[-1] < 0.05 * seq[0]

    def test_explicit_validation(self):
        rg.StepSchedule.explicit([3.0, 2.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            rg.StepSchedule.explicit([1.0, 2.0])  # increasing
        with pytest.raises(ValueError):
            rg.StepSchedule.explicit([1.0, 0.0])  # non-positive
        with pytest.raises(ValueError):
            rg.StepSchedule.explicit([])

    def test_explicit_values_frozen_after_validation(self):
        # writing to the caller's array or to `values` later could make the
        # schedule increase, which simulate's fixed-point stop rules out
        source = np.array([3.0, 2.0, 1.0])
        s = rg.StepSchedule.explicit(source)
        source[2] = 9.0
        assert list(s.sequence(3)) == [3.0, 2.0, 1.0]
        with pytest.raises(ValueError):
            s.values[2] = 9.0

    def test_explicit_sequence_and_call_agree(self):
        s = rg.StepSchedule.explicit([3.0, 2.0, 1.0])
        assert list(s.sequence(3)) == [3.0, 2.0, 1.0]
        with pytest.raises(ValueError):
            s.sequence(4)

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            rg.StepSchedule.constant(1.0).sequence(-1)

    def test_bad_coefficients(self):
        for kind in ("constant", "inverse_sqrt", "inverse_t"):
            with pytest.raises(ValueError):
                rg.StepSchedule(kind, 0.0)
            with pytest.raises(ValueError):
                rg.StepSchedule(kind, -1.0)
        with pytest.raises(ValueError):
            rg.StepSchedule("geometric", 0.5)

    def test_bool_coefficient_refused(self):
        # a bool is an int in Python, but it is no step size
        for build in (rg.StepSchedule.constant, rg.StepSchedule.inverse_sqrt):
            with pytest.raises(
                ValueError, match="schedule coefficient must be finite and > 0, got True"
            ):
                build(True)
        for values in ([True, True], [2.0, True], np.array([True])):
            with pytest.raises(
                ValueError, match="explicit schedule values must be finite and > 0, got .*True"
            ):
                rg.StepSchedule.explicit(values)

    def test_string_coefficient_refused(self):
        message = "schedule coefficient must be finite and > 0, got '1'"
        with pytest.raises(ValueError, match=message):
            rg.StepSchedule.constant("1")

    def test_string_explicit_values_refused(self):
        # a string is no step size, even one that parses as a number
        with pytest.raises(
            ValueError, match="explicit schedule values must be finite and > 0, got '1'"
        ):
            rg.StepSchedule.explicit(["1", "0.5"])

    def test_numpy_numbers_stored_as_floats(self):
        schedule = rg.StepSchedule.inverse_t(np.float32(2.5))
        assert type(schedule.coef) is float and schedule.coef == 2.5
        values = rg.StepSchedule.explicit([np.int64(2), np.float32(0.5)]).values
        assert values.dtype == np.float64 and list(values) == [2.0, 0.5]

    def test_sequence_matches_closed_form(self):
        for s, rule in (
            (rg.StepSchedule.constant(0.3), lambda t: 0.3),
            (rg.StepSchedule.inverse_sqrt(1.0), lambda t: 1.0 / math.sqrt(t + 1.0)),
            (rg.StepSchedule.inverse_t(2.25), lambda t: 2.25 / (t + 1.0)),
        ):
            seq = s.sequence(50)
            assert all(seq[t] == rule(t) for t in range(50))

    @pytest.mark.parametrize(
        "schedule", [rg.StepSchedule.inverse_sqrt(1.3), rg.StepSchedule.inverse_t(2.1)]
    )
    def test_diminishing_kinds_non_increasing_over_a_million_steps(self, schedule):
        # the premise of simulate's stop at an exact fixed point
        assert np.all(np.diff(schedule.sequence(10**6)) <= 0)


def with_alpha(params: rg.MarketParams, alpha: float) -> rg.MarketParams:
    return dataclasses.replace(params, alpha=alpha)


class TestReferenceUpdate:
    def test_arithmetic(self, fig1):
        out = rg.reference_update(
            with_alpha(fig1, 0.9), rg.PricePair(2.0, 2.0), rg.PricePair(1.0, 1.0)
        )
        assert math.isclose(out.p_H, 1.9, rel_tol=1e-15)
        assert math.isclose(out.p_L, 1.9, rel_tol=1e-15)

    def test_full_memory_and_memoryless(self, fig1):
        r = rg.PricePair(2.0, 3.0)
        p = rg.PricePair(1.0, 5.0)
        assert rg.reference_update(with_alpha(fig1, 1.0), r, p) == r
        assert rg.reference_update(with_alpha(fig1, 0.0), r, p) == p

    def test_stays_between_endpoints(self, fig1):
        rng = np.random.default_rng(0)
        for _ in range(200):
            params = with_alpha(fig1, float(rng.uniform(0.0, 1.0)))
            r = rg.PricePair(*rng.uniform(fig1.p_lo, fig1.p_hi, 2))
            p = rg.PricePair(*rng.uniform(fig1.p_lo, fig1.p_hi, 2))
            out = rg.reference_update(params, r, p)
            for o, r_i, p_i in zip(out, r, p):
                assert fig1.p_lo <= o <= fig1.p_hi
                lo, hi = min(r_i, p_i), max(r_i, p_i)
                assert math.nextafter(lo, -math.inf) <= o <= math.nextafter(hi, math.inf)


class TestAscentStep:
    def test_rejects_out_of_box_state(self, fig1):
        bad = rg.MarketState(rg.PricePair(9.0, 1.0), rg.PricePair(1.0, 1.0))
        with pytest.raises(ValueError, match="outside the price box"):
            rg.simulate(fig1, bad, rg.StepSchedule.constant(0.1), 1)

    def test_single_step_frozen_values(self, fig1):
        out = ascent_step(fig1, demo_state(), 1.0)
        assert math.isclose(out.prices.p_H, 4.85 + D_H0, rel_tol=1e-12)
        assert math.isclose(out.prices.p_L, 4.86 + D_L0, rel_tol=1e-12)
        # references smoothed from the old pair
        assert math.isclose(out.references.p_H, 0.9 * 0.10 + 0.1 * 4.85, rel_tol=1e-14)
        assert math.isclose(out.references.p_L, 0.9 * 2.95 + 0.1 * 4.86, rel_tol=1e-14)

    def test_projection_engages(self, fig1):
        # a huge step must clamp onto the box edge
        out = ascent_step(fig1, demo_state(), 1e6)
        assert out.prices.p_H == fig1.p_lo  # derivative is negative here
        assert out.prices.p_L == fig1.p_lo

    def test_stationary_point_is_fixed(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        state = rg.MarketState(prices=sne, references=sne)
        out = ascent_step(fig1, state, 1.0)
        # solver residual ~1e-12 bounds the derivative magnitude here
        assert abs(out.prices.p_H - sne.p_H) < 1e-9
        assert abs(out.prices.p_L - sne.p_L) < 1e-9
        assert out.references == sne

    def test_step_jacobian_matches_finite_differences(self, fig1, fig1_sne):
        # pins the conftest helper the stationary-start tests take their premise from
        sne = fig1_sne.prices
        x0 = np.array([*sne, *sne])

        def step(x):
            state = rg.MarketState(rg.PricePair(x[0], x[1]), rg.PricePair(x[2], x[3]))
            out = ascent_step(fig1, state, 1.0)
            return np.array([*out.prices, *out.references])

        h = 1e-6
        fd = np.column_stack([(step(x0 + h * e) - step(x0 - h * e)) / (2 * h) for e in np.eye(4)])
        np.testing.assert_allclose(step_jacobian(fig1, sne, 1.0), fd, rtol=0, atol=1e-8)

    def test_tiny_step_limit(self, fig1):
        # eta -> 0: prices barely move, references still smoothed
        out = ascent_step(fig1, demo_state(), 1e-300)
        assert math.isclose(out.prices.p_H, 4.85, rel_tol=1e-15)
        assert out.references.p_H != 0.10


class TestSimulate:
    def test_horizon_one_equals_single_step(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(1.0), 1)
        step = ascent_step(fig1, demo_state(), 1.0)
        assert len(traj) == 2
        assert state_at(traj, 1) == step

    def test_bad_horizon(self, fig1):
        with pytest.raises(ValueError):
            rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(1.0), 0)
        with pytest.raises(ValueError):
            rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(1.0), 2.5)
        # a bool is an int in Python, but it is no horizon
        with pytest.raises(ValueError, match="horizon must be an integer >= 1, got True"):
            rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(1.0), True)

    def test_record_zero_is_initial_state(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.inverse_sqrt(), 10)
        assert state_at(traj, 0) == demo_state()
        assert math.isclose(traj.D_H[0], D_H0, rel_tol=1e-12)

    def test_feasibility(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(1.0), 5000)
        for arr in (traj.p_H, traj.p_L, traj.r_H, traj.r_L):
            assert np.min(arr) >= fig1.p_lo
            assert np.max(arr) <= fig1.p_hi

    def test_smoothing_identity_exact(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.inverse_sqrt(), 2000)
        alpha = fig1.alpha
        expected_H = alpha * traj.r_H[:-1] + (1.0 - alpha) * traj.p_H[:-1]
        expected_L = alpha * traj.r_L[:-1] + (1.0 - alpha) * traj.p_L[:-1]
        # identical up to the defensive box clamp (at most one ulp)
        assert np.max(np.abs(traj.r_H[1:] - expected_H)) <= np.max(np.spacing(expected_H))
        assert np.max(np.abs(traj.r_L[1:] - expected_L)) <= np.max(np.spacing(expected_L))

    def test_stationary_start_stays_put(self, fig1, fig1_sne):
        # the SNE is a fixed point of every step, but stable only below the
        # critical step (about 0.848 here); at eta = 1 rounding noise grows
        eta = 0.5
        sne = fig1_sne.prices
        assert spectral_radius(step_jacobian(fig1, sne, eta)) < 1.0
        state = rg.MarketState(prices=sne, references=sne)
        traj = rg.simulate(fig1, state, rg.StepSchedule.constant(eta), 100)
        assert np.max(np.abs(traj.p_H - sne.p_H)) < 1e-8
        assert np.max(np.abs(traj.p_L - sne.p_L)) < 1e-8

    def test_determinism_bitwise(self, fig1):
        a = rg.simulate(fig1, demo_state(), rg.StepSchedule.inverse_sqrt(), 3000)
        b = rg.simulate(fig1, demo_state(), rg.StepSchedule.inverse_sqrt(), 3000)
        for name in ("p_H", "p_L", "r_H", "r_L", "D_H", "D_L"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_recorded_derivatives_match_model(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.inverse_sqrt(), 50)
        for i in (0, 7, 50):
            state = state_at(traj, i)
            # no share is clamped here, so the scalar path carries the kernel's bits
            shares = _shares(_consts(fig1), *state.prices, *state.references)
            assert all(SHARE_MIN < d < SHARE_MAX for d in shares[:2])
            D = rg.log_rev_derivative(fig1, *state)
            assert (traj.D_H[i], traj.D_L[i]) == D

    def test_gap_decays_under_diminishing_steps(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.inverse_sqrt(), 100_000)
        gap = np.hypot(traj.r_H - traj.p_H, traj.r_L - traj.p_L)
        n = len(traj)
        head = gap[: n // 10]
        tail = gap[-n // 10 :]
        assert np.max(tail) < np.max(head)
        assert gap[-1] < 1e-3

    def test_trajectory_is_immutable(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(0.5), 5)
        with pytest.raises(ValueError):
            traj.p_H[0] = 99.0

    def test_columns_of_different_lengths_refused(self, fig1):
        columns = [np.zeros(3)] * 5 + [np.zeros(2)]
        with pytest.raises(ValueError, match="trajectory arrays must share one length"):
            rg.Trajectory(fig1, "explicit(n=2)", *columns)

    def test_repr_and_equality_build_no_column(self):
        # the generated dataclass methods would read, and so build, every column
        cfg = rg.figure1_config("b")
        traj, other = (
            rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, 20_000) for _ in range(2)
        )
        assert "Trajectory" in repr(traj)
        assert traj == traj and traj != other
        assert len({traj, other}) == 2
        assert not built_columns(traj) and not built_columns(other)

    def test_retention_limit_refuses(self, fig1, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "RETENTION_LIMIT", 100)
        with pytest.raises(ValueError, match="retention limit"):
            rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(0.5), 200)
        with pytest.raises(ValueError, match="retention limit"):
            rg.equilibrium_path(fig1, demo_state().references, 200)
        out = tmp_path / "x.csv"
        code = cli.main(["figure1", "--horizon", "200", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "retention limit" in err
        assert "Traceback" not in err

    def test_explicit_schedule_shorter_than_the_horizon_refused(self, fig1):
        schedule = rg.StepSchedule.explicit([1.0, 0.5, 0.5])
        with pytest.raises(ValueError) as err:
            rg.simulate(fig1, demo_state(), schedule, 10)
        assert str(err.value) == "explicit schedule has 3 values, 10 requested"

    def test_explicit_schedule_consumed(self, fig1):
        values = [1.0, 0.5, 0.25]
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.explicit(values), 3)
        state = demo_state()
        for t, eta in enumerate(values, start=1):
            state = ascent_step(fig1, state, eta)
            assert state_at(traj, t) == state

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["constant", "inverse_sqrt", "inverse_t", "explicit"])
    def test_equals_iterated_steps_across_eta_chunks(self, fig1, kind, offset):
        # a horizon of each chunk end + offset, checked against one iterated
        # path: every schedule here gives each horizon a prefix of its steps
        def schedule_for(horizon):
            if kind == "explicit":
                # exactly `horizon` values, one per update
                return rg.StepSchedule.explicit(0.9 / np.sqrt(np.arange(horizon) + 1.0))
            return rg.StepSchedule(kind, 0.9)

        longest = CHUNK_ENDS[-1] + offset
        states = [demo_state()]
        for eta in schedule_for(longest).sequence(longest).tolist():
            states.append(ascent_step(fig1, states[-1], eta))
        for end in CHUNK_ENDS:
            horizon = end + offset
            traj = rg.simulate(fig1, demo_state(), schedule_for(horizon), horizon)
            for t in range(horizon + 1):
                assert state_at(traj, t) == states[t], (horizon, t)

    @pytest.mark.parametrize(
        "variant, horizon, most", [("a", 100_000, 1024), ("b", 1_000_000, 512)]
    )
    def test_stops_by_the_chunk_end_past_the_orbit(self, monkeypatch, variant, horizon, most):
        # figure1 a first closes its orbit at record 761 (fixed from 760)
        # and b at record 473 (period 4 from 469): each stops at the next
        # chunk end. The period loop makes three exp calls a period.
        exp, calls = math.exp, 0

        def counting_exp(x):
            nonlocal calls
            calls += 1
            return exp(x)

        cfg = rg.figure1_config(variant)
        monkeypatch.setattr(math, "exp", counting_exp)
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, horizon)
        assert calls % 3 == 0
        assert traj.onset + traj.period <= calls // 3 <= most
        assert len(traj) == horizon + 1

    @pytest.mark.parametrize(
        "schedule", [rg.StepSchedule.constant(1.0), rg.StepSchedule.inverse_sqrt(1.0)]
    )
    def test_equals_iterated_steps_where_demand_saturates(self, schedule):
        # r_H far above p_H: d_H rounds to 1.0 in most of the 301 records
        state = rg.MarketState(rg.PricePair(1.0, 1.0), rg.PricePair(30.0, 1.0))
        traj = rg.simulate(SATURATED, state, schedule, 300)
        etas = schedule.sequence(300).tolist()
        saturated = 0
        for t in range(301):
            assert state_at(traj, t) == state, t
            saturated += _shares(_consts(SATURATED), *state.prices, *state.references)[0] == 1.0
            if t < 300:
                state = ascent_step(SATURATED, state, etas[t])
        assert saturated > 250

    def test_final_state_accessor(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(0.5), 8)
        assert traj.final_state() == state_at(traj, 8)


def array_digest(traj: rg.Trajectory, schedule: rg.StepSchedule) -> str:
    """sha256 of the raw bytes of the six trajectory arrays, then of the
    schedule's first len(traj) step sizes (the digests were frozen when
    the trajectory still held that seventh column itself)."""
    h = hashlib.sha256()
    for name in ("p_H", "p_L", "r_H", "r_L", "D_H", "D_L"):
        h.update(getattr(traj, name).tobytes())
    h.update(schedule.sequence(len(traj)).tobytes())
    return h.hexdigest()


class TestKernelBits:
    """Every recorded bit of two runs, frozen from the kernel that reads
    1 - d_i as the exact complement (e_0 + e_-i)/total.

    The whole path is hashed, not the final state: the eta = 1 cycle of
    figure1 (b) is exactly periodic in floats, so its final state after
    2e4 periods equals the one after 1e6.
    """

    def test_figure1_b_constant_step(self):
        cfg = rg.figure1_config("b")
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, 20_000)
        assert array_digest(traj, cfg.schedule) == (
            "c7a61174387050002b860799f29d0b57a4a9e153ef0c3e7aede3676b6b8bd437"
        )

    def test_random_market_inverse_sqrt(self):
        # random_market(default_rng(504)): both utilities stay negative in
        # all but 69 periods, so the m = 0 floor of the stabilised
        # exponentials is live, and the path hits the box 123 times
        params = rg.MarketParams(
            firm_H=rg.FirmParams(
                a=0.15562240653276005, b=1.822035091675713, c=2.723700159643696
            ),
            firm_L=rg.FirmParams(
                a=0.28751909932378616, b=2.1763617982218495, c=2.8750771954145287
            ),
            alpha=0.8581801200790176,
            p_lo=0.17816705321667506,
            p_hi=0.390141615511821,
        )
        low, high = 0.24175942190521885, 0.32654924682327724  # 30% and 70% of the box
        init = rg.MarketState(
            prices=rg.PricePair(low, high), references=rg.PricePair(high, low)
        )
        schedule = rg.StepSchedule.inverse_sqrt(1.0)
        traj = rg.simulate(params, init, schedule, 20_000)
        assert array_digest(traj, schedule) == (
            "5dc3bcb233ac59037bd7953e1aa5205d9a279d583a115a2db0002d3492482d55"
        )


def kernel_derivatives(params: rg.MarketParams, state: rg.MarketState) -> tuple:
    """(D_H, D_L) at ``state`` as the period kernel computes them afresh."""
    traj = rg.simulate(params, state, rg.StepSchedule.constant(1.0), 1)
    return float(traj.D_H[0]), float(traj.D_L[0])


# a horizon that runs several ETA_CHUNKs past each case's fixed point
SETTLING_HORIZON = 4 * dynamics.ETA_CHUNK + 100


def settling_cases():
    """(params, init, schedule) runs that reach an exact fixed point in
    floats away from any of simulate's chunk ends, one per schedule kind,
    plus two with both prices pinned at p_hi throughout while one slow
    reference still moves across the chunk end at ETA_CHUNK and the other
    reference has long settled."""
    fig1 = rg.figure1_params()
    pinned = dataclasses.replace(fig1, alpha=0.995, p_hi=0.5)
    prices = rg.PricePair(0.5, 0.5)
    horizon_long = rg.StepSchedule.explicit(0.9 / np.sqrt(np.arange(SETTLING_HORIZON) + 1.0))
    return {
        "constant": (fig1, demo_state(), rg.StepSchedule.constant(0.3)),
        "inverse_sqrt": (fig1, demo_state(), rg.StepSchedule.inverse_sqrt(1.0)),
        "inverse_t": (fig1, demo_state(), rg.StepSchedule.inverse_t(10.0)),
        "explicit_horizon_long": (fig1, demo_state(), horizon_long),
        "pinned_slow_r_H": (
            pinned, rg.MarketState(prices, rg.PricePair(0.1, 0.5)), rg.StepSchedule.inverse_sqrt(1.0)
        ),
        "pinned_slow_r_L": (
            pinned, rg.MarketState(prices, rg.PricePair(0.5, 0.1)), rg.StepSchedule.inverse_t(1.0)
        ),
    }


def iterated_records(params, state, schedule, horizon):
    """(states, derivatives) of every period from iterated ``ascent_step``,
    with the kernel's derivatives computed once per distinct state."""
    etas = schedule.sequence(horizon).tolist()
    states, derivatives, cache = [], [], {}
    for t in range(horizon + 1):
        key = (*state.prices, *state.references)
        if key not in cache:
            cache[key] = kernel_derivatives(params, state)
        states.append(key)
        derivatives.append(cache[key])
        if t < horizon:
            state = ascent_step(params, state, etas[t])
    return np.array(states), np.array(derivatives)


def assert_records_equal(traj, states, derivatives):
    """Every column of ``traj`` equals the iterated records bit for bit."""
    for k, name in enumerate(("p_H", "p_L", "r_H", "r_L")):
        assert getattr(traj, name).tobytes() == states[:, k].tobytes(), name
    assert traj.D_H.tobytes() == derivatives[:, 0].tobytes()
    assert traj.D_L.tobytes() == derivatives[:, 1].tobytes()


class TestFixedPointStop:
    @pytest.mark.parametrize("case", list(settling_cases()))
    def test_equals_iterated_steps_past_the_fixed_point(self, case):
        params, state, schedule = settling_cases()[case]
        traj = rg.simulate(params, state, schedule, SETTLING_HORIZON)
        states, derivatives = iterated_records(params, state, schedule, SETTLING_HORIZON)
        assert_records_equal(traj, states, derivatives)
        assert traj.period == 1

        # the premise: a fixed point reached inside a chunk, with at
        # least two whole ETA_CHUNKs left to fill
        moved = np.flatnonzero(np.any(states[1:] != states[:-1], axis=1))
        settled_at = int(moved[-1]) + 1
        assert traj.onset == settled_at
        assert settled_at % dynamics.ETA_CHUNK != 0 and settled_at not in CHUNK_ENDS
        assert settled_at + 2 * dynamics.ETA_CHUNK < SETTLING_HORIZON
        if case.startswith("pinned"):
            assert np.all(states[:, :2] == params.p_hi)
            slow, fast = (2, 3) if case == "pinned_slow_r_H" else (3, 2)
            assert np.all(states[dynamics.ETA_CHUNK - 1 :, fast] == states[-1, fast])
            assert states[dynamics.ETA_CHUNK, slow] != states[dynamics.ETA_CHUNK - 1, slow]

    def test_figure1_a_full_run_bits(self):
        # every recorded bit of the 1e5-period paper run, which settles at
        # period 760 and is filled from there, frozen from the kernel that
        # iterated every period and read 1 - d_i as the exact complement
        cfg = rg.figure1_config("a")
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, cfg.horizon)
        assert array_digest(traj, cfg.schedule) == (
            "73144bcd0f261101a6e62474a183d6d02c228945f865b982acdb995f48bbd058"
        )


def box_state(params: rg.MarketParams) -> rg.MarketState:
    """Prices at 30% and 70% of the box, references the other way round."""
    lo, hi = params.p_lo, params.p_hi
    low, high = lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)
    return rg.MarketState(rg.PricePair(low, high), rg.PricePair(high, low))


# random_market(default_rng(0)), the 28th draw: at eta = 1 from box_state
# it enters a period-4 orbit at period 9977, which simulate first sees
# at its chunk end 12288, past the doubling ends: three ETA_CHUNKs in
LATE_ORBIT = rg.MarketParams(
    firm_H=rg.FirmParams(a=6.940030979115273, b=1.625464520991838, c=0.3579133567141888),
    firm_L=rg.FirmParams(a=2.329557274689523, b=1.6179607094452677, c=2.947633810067448),
    alpha=0.5656816444512167,
    p_lo=0.19712657270669248,
    p_hi=3.5542222613624017,
)


class TestOrbitStop:
    """simulate stops at an exact orbit of period k >= 2 once every
    remaining step equals the steps of one period, and keeps only the
    records up to the end of the orbit's first period."""

    def test_figure1_b_equals_iterated_steps(self):
        cfg = rg.figure1_config("b")
        horizon = 2 * dynamics.ETA_CHUNK + 100
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, horizon)
        states, derivatives = iterated_records(
            cfg.params, cfg.initial_state(), cfg.schedule, horizon
        )
        assert_records_equal(traj, states, derivatives)
        # state 473 is state 469 bit for bit, and no earlier state recurs
        # four periods on
        assert (traj.period, traj.onset, stored(traj)) == (4, 469, 473)
        assert np.array_equal(states[473], states[469])
        assert not np.array_equal(states[472], states[468])

    def test_orbit_in_a_run_shorter_than_one_chunk(self):
        # the only chunk end is the last, where the orbit is still found
        cfg = rg.figure1_config("b")
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, 1000)
        states, derivatives = iterated_records(cfg.params, cfg.initial_state(), cfg.schedule, 1000)
        assert_records_equal(traj, states, derivatives)
        assert (traj.period, traj.onset, stored(traj)) == (4, 469, 473)

    def test_orbit_found_at_a_later_chunk_end(self):
        horizon = 3 * dynamics.ETA_CHUNK + 100
        schedule = rg.StepSchedule.constant(1.0)
        init = box_state(LATE_ORBIT)
        traj = rg.simulate(LATE_ORBIT, init, schedule, horizon)
        states, derivatives = iterated_records(LATE_ORBIT, init, schedule, horizon)
        assert_records_equal(traj, states, derivatives)
        assert (traj.period, traj.onset) == (4, 9977)
        assert 2 * dynamics.ETA_CHUNK < traj.onset < 3 * dynamics.ETA_CHUNK - dynamics.ORBIT_MAX

    def test_explicit_schedule_with_a_flat_tail(self, fig1):
        horizon = 2 * dynamics.ETA_CHUNK + 100
        schedule = rg.StepSchedule.explicit([1.5] * 1000 + [1.0] * (horizon - 1000))
        traj = rg.simulate(fig1, demo_state(), schedule, horizon)
        states, derivatives = iterated_records(fig1, demo_state(), schedule, horizon)
        assert_records_equal(traj, states, derivatives)
        assert traj.period == 4 and traj.onset >= 1000
        assert stored(traj) == traj.onset + traj.period

    def test_a_smaller_last_step_keeps_every_period(self, fig1):
        # the eta = 1 orbit (period 4 from 469) shows at every chunk end
        # from 512 on, but the last step is smaller, so the map is not the
        # same to the end
        horizon = dynamics.ETA_CHUNK + 100
        schedule = rg.StepSchedule.explicit([1.0] * (horizon - 1) + [0.5])
        traj = rg.simulate(fig1, demo_state(), schedule, horizon)
        states, derivatives = iterated_records(fig1, demo_state(), schedule, horizon)
        assert_records_equal(traj, states, derivatives)
        assert not np.array_equal(states[255], states[251])
        assert np.array_equal(states[511], states[507])
        j = dynamics.ETA_CHUNK
        assert np.array_equal(states[j], states[j - 4])
        assert traj.period == 0 and stored(traj) == horizon + 1

    @pytest.mark.parametrize(
        "schedule, period",
        [
            (rg.StepSchedule.constant(1e6), 2),
            (rg.StepSchedule.inverse_sqrt(1e6), 0),
            (rg.StepSchedule.inverse_t(1e6), 0),
        ],
        ids=["constant", "inverse_sqrt", "inverse_t"],
    )
    def test_a_diminishing_schedule_stops_at_a_fixed_point_only(self, fig1, schedule, period):
        # steps this large throw both prices from one box edge to the
        # other every period, so from period 331 on every record repeats
        # two periods later under each schedule
        horizon = 2 * dynamics.ETA_CHUNK + 100
        traj = rg.simulate(fig1, demo_state(), schedule, horizon)
        states, derivatives = iterated_records(fig1, demo_state(), schedule, horizon)
        assert_records_equal(traj, states, derivatives)
        assert np.array_equal(states[333:], states[331:-2])
        assert not np.array_equal(states[332], states[330])
        assert traj.period == period
        assert traj.onset == (331 if period else horizon + 1)

    def test_columns_are_built_once_and_read_only(self):
        cfg = rg.figure1_config("b")
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, cfg.horizon)
        for name in TRAJECTORY_COLUMNS:
            column = getattr(traj, name)
            assert column is getattr(traj, name)
            assert name in built_columns(traj)  # the premise of built_columns
            assert column.size == len(traj) == cfg.horizon + 1
            with pytest.raises(ValueError):
                column[-1] = 1.0
        assert built_columns(traj) == set(TRAJECTORY_COLUMNS)
        for records in traj._records:
            with pytest.raises(ValueError):
                records[0] = 1.0

    def test_cycle_b_keeps_one_period_past_the_onset(self):
        # the bench's cycle-b run: a million periods, no column built
        cfg = rg.figure1_config("b")
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, 1_000_000)
        assert len(traj) == 1_000_001
        assert stored(traj) <= traj.onset + traj.period + dynamics.ETA_CHUNK
        assert not built_columns(traj)
        # 1e6 and 2e4 periods lie in the same phase of the 4-cycle
        short = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, 20_000)
        assert traj.final_state() == short.final_state() == state_at(short, 20_000)
