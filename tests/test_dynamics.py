"""Step schedules, single ascent steps, and full simulations."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import refgame as rg
import refgame.cli as cli
import refgame.dynamics as dynamics
from conftest import spectral_radius, step_jacobian

# frozen: log-revenue derivatives at the demo start state (see test_model)
D_H0 = -2.5950508119722233822
D_L0 = -1.1557483831049262107


def demo_state() -> rg.MarketState:
    return rg.MarketState(
        prices=rg.PricePair(4.85, 4.86), references=rg.PricePair(0.10, 2.95)
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

    def test_bad_coefficients(self):
        for kind in ("constant", "inverse_sqrt", "inverse_t"):
            with pytest.raises(ValueError):
                rg.StepSchedule(kind, 0.0)
            with pytest.raises(ValueError):
                rg.StepSchedule(kind, -1.0)
        with pytest.raises(ValueError):
            rg.StepSchedule("geometric", 0.5)

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
    def test_rejects_bad_eta(self, fig1):
        with pytest.raises(ValueError):
            rg.ascent_step(fig1, demo_state(), 0.0)
        with pytest.raises(ValueError):
            rg.ascent_step(fig1, demo_state(), -0.5)

    def test_rejects_out_of_box_state(self, fig1):
        bad = rg.MarketState(rg.PricePair(9.0, 1.0), rg.PricePair(1.0, 1.0))
        with pytest.raises(ValueError):
            rg.ascent_step(fig1, bad, 0.1)

    def test_single_step_frozen_values(self, fig1):
        out = rg.ascent_step(fig1, demo_state(), 1.0)
        assert math.isclose(out.prices.p_H, 4.85 + D_H0, rel_tol=1e-12)
        assert math.isclose(out.prices.p_L, 4.86 + D_L0, rel_tol=1e-12)
        # references smoothed from the old pair
        assert math.isclose(out.references.p_H, 0.9 * 0.10 + 0.1 * 4.85, rel_tol=1e-14)
        assert math.isclose(out.references.p_L, 0.9 * 2.95 + 0.1 * 4.86, rel_tol=1e-14)

    def test_projection_engages(self, fig1):
        # a huge step must clamp onto the box edge
        out = rg.ascent_step(fig1, demo_state(), 1e6)
        assert out.prices.p_H == fig1.p_lo  # derivative is negative here
        assert out.prices.p_L == fig1.p_lo

    def test_stationary_point_is_fixed(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        state = rg.MarketState(prices=sne, references=sne)
        out = rg.ascent_step(fig1, state, 1.0)
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
            out = rg.ascent_step(fig1, state, 1.0)
            return np.array([*out.prices, *out.references])

        h = 1e-6
        fd = np.column_stack([(step(x0 + h * e) - step(x0 - h * e)) / (2 * h) for e in np.eye(4)])
        np.testing.assert_allclose(step_jacobian(fig1, sne, 1.0), fd, rtol=0, atol=1e-8)

    def test_tiny_step_limit(self, fig1):
        # eta -> 0: prices barely move, references still smoothed
        out = rg.ascent_step(fig1, demo_state(), 1e-300)
        assert math.isclose(out.prices.p_H, 4.85, rel_tol=1e-15)
        assert out.references.p_H != 0.10


class TestSimulate:
    def test_horizon_one_equals_single_step(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(1.0), 1)
        step = rg.ascent_step(fig1, demo_state(), 1.0)
        assert len(traj) == 2
        assert traj.record(1).prices == step.prices
        assert traj.record(1).references == step.references

    def test_bad_horizon(self, fig1):
        with pytest.raises(ValueError):
            rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(1.0), 0)
        with pytest.raises(ValueError):
            rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(1.0), 2.5)

    def test_record_zero_is_initial_state(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.inverse_sqrt(), 10)
        rec = traj.record(0)
        assert rec.t == 0
        assert rec.prices == demo_state().prices
        assert rec.references == demo_state().references
        assert math.isclose(rec.derivatives[0], D_H0, rel_tol=1e-12)
        assert rec.eta == 1.0

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
        for name in ("p_H", "p_L", "r_H", "r_L", "D_H", "D_L", "eta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_recorded_derivatives_match_model(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.inverse_sqrt(), 50)
        for i in (0, 7, 50):
            rec = traj.record(i)
            D = rg.log_rev_derivative(fig1, rec.prices, rec.references)
            assert math.isclose(rec.derivatives[0], float(D[0]), rel_tol=1e-12)
            assert math.isclose(rec.derivatives[1], float(D[1]), rel_tol=1e-12)

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

    def test_retention_limit_refuses(self, fig1, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "RETENTION_LIMIT", 100)
        with pytest.raises(ValueError, match="retention limit"):
            rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(0.5), 200)
        out = tmp_path / "x.csv"
        code = cli.main(["figure1", "--horizon", "200", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "retention limit" in err
        assert "Traceback" not in err

    def test_explicit_schedule_consumed(self, fig1):
        values = [1.0, 0.5, 0.25]
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.explicit(values), 3)
        np.testing.assert_allclose(traj.eta, [1.0, 0.5, 0.25, 0.25])

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["constant", "inverse_sqrt", "inverse_t", "explicit"])
    def test_equals_iterated_steps_across_eta_chunks(self, fig1, kind, offset):
        horizon = dynamics.ETA_CHUNK + offset
        if kind == "explicit":
            # exactly `horizon` values: the final record repeats the last one
            schedule = rg.StepSchedule.explicit(0.9 / np.sqrt(np.arange(horizon) + 1.0))
            etas = np.append(schedule.sequence(horizon), schedule.values[-1])
        else:
            schedule = rg.StepSchedule(kind, 0.9)
            etas = schedule.sequence(horizon + 1)
        traj = rg.simulate(fig1, demo_state(), schedule, horizon)
        assert np.array_equal(traj.eta, etas)
        state = demo_state()
        for t in range(horizon + 1):
            rec = traj.record(t)
            assert (rec.prices, rec.references) == (state.prices, state.references), t
            if t < horizon:
                state = rg.ascent_step(fig1, state, float(etas[t]))

    def test_final_state_accessor(self, fig1):
        traj = rg.simulate(fig1, demo_state(), rg.StepSchedule.constant(0.5), 8)
        final = traj.final_state()
        assert final.prices == traj.record(8).prices
        assert final.references == traj.record(8).references


def array_digest(traj: rg.Trajectory) -> str:
    """sha256 of the raw bytes of all seven trajectory arrays."""
    h = hashlib.sha256()
    for name in ("p_H", "p_L", "r_H", "r_L", "D_H", "D_L", "eta"):
        h.update(getattr(traj, name).tobytes())
    return h.hexdigest()


class TestKernelBits:
    """Every recorded bit of two runs, frozen from the pre-rewrite kernel.

    The whole path is hashed, not the final state: the eta = 1 cycle of
    figure1 (b) is exactly periodic in floats, so its final state after
    2e4 periods equals the one after 1e6.
    """

    def test_figure1_b_constant_step(self):
        cfg = rg.figure1_config("b")
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, 20_000)
        assert array_digest(traj) == (
            "ab785dee31201b55ace915b27e58199e52082c61810a0c6d26cdce52876a93c7"
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
        traj = rg.simulate(params, init, rg.StepSchedule.inverse_sqrt(1.0), 20_000)
        assert array_digest(traj) == (
            "8549331f716f0ac4d7dc156d1dc3f06ea2f06ebca39d2e6b33308b55f8306a1d"
        )


def kernel_derivatives(params: rg.MarketParams, state: rg.MarketState) -> tuple:
    """(D_H, D_L) at ``state`` as the period kernel computes them afresh."""
    traj = rg.simulate(params, state, rg.StepSchedule.constant(1.0), 1)
    return traj.record(0).derivatives


# a horizon that runs several ETA_CHUNKs past each case's fixed point
SETTLING_HORIZON = 4 * dynamics.ETA_CHUNK + 100


def settling_cases():
    """(params, init, schedule) runs that reach an exact fixed point in
    floats away from any ETA_CHUNK boundary, one per schedule kind, plus
    two with both prices pinned at p_hi throughout while one slow
    reference still moves across the first ETA_CHUNK boundary and the
    other reference has long settled."""
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


class TestFixedPointStop:
    @pytest.mark.parametrize("case", list(settling_cases()))
    def test_equals_iterated_steps_past_the_fixed_point(self, case):
        params, state, schedule = settling_cases()[case]
        traj = rg.simulate(params, state, schedule, SETTLING_HORIZON)
        etas = traj.eta.tolist()
        states, derivatives, cache = [], [], {}
        for t in range(SETTLING_HORIZON + 1):
            key = (*state.prices, *state.references)
            if key not in cache:
                cache[key] = kernel_derivatives(params, state)
            states.append(key)
            derivatives.append(cache[key])
            if t < SETTLING_HORIZON:
                state = rg.ascent_step(params, state, etas[t])
        states = np.array(states)
        derivatives = np.array(derivatives)
        for k, name in enumerate(("p_H", "p_L", "r_H", "r_L")):
            assert np.array_equal(getattr(traj, name), states[:, k]), name
        assert np.array_equal(traj.D_H, derivatives[:, 0])
        assert np.array_equal(traj.D_L, derivatives[:, 1])
        if schedule.kind == "explicit":
            assert np.array_equal(traj.eta[:-1], schedule.values)
            assert traj.eta[-1] == schedule.values[-1]
        else:
            assert np.array_equal(traj.eta, schedule.sequence(SETTLING_HORIZON + 1))

        # the premise: a fixed point reached inside a chunk, with at
        # least two whole chunks left to fill
        moved = np.flatnonzero(np.any(states[1:] != states[:-1], axis=1))
        settled_at = int(moved[-1]) + 1
        assert settled_at % dynamics.ETA_CHUNK != 0
        assert settled_at + 2 * dynamics.ETA_CHUNK < SETTLING_HORIZON
        if case.startswith("pinned"):
            assert np.all(states[:, :2] == params.p_hi)
            slow, fast = (2, 3) if case == "pinned_slow_r_H" else (3, 2)
            assert np.all(states[dynamics.ETA_CHUNK - 1 :, fast] == states[-1, fast])
            assert states[dynamics.ETA_CHUNK, slow] != states[dynamics.ETA_CHUNK - 1, slow]

    def test_figure1_a_full_run_bits(self):
        # every recorded bit of the 1e5-period paper run, which settles at
        # period 760 and is filled from there, frozen from the kernel that
        # iterated every period
        cfg = rg.figure1_config("a")
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, cfg.horizon)
        assert array_digest(traj) == (
            "3afa91e8af2f8881db3ecd1f591c861ce054fb5c03fce43130d6a140a90b53c0"
        )
