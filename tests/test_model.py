"""Market primitives: formulas, invariants, and analytic derivatives.

Expected numbers marked "frozen" were computed independently with
mpmath at 30 significant digits from the defining formulas and pasted
here; the code under test never produced them.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import refgame as rg
from refgame.model import _consts, _logit, _shares

from conftest import SATURATED, in_box_states
from oracles import SHARE_MAX, SHARE_MIN, demand, revenue

# frozen oracle values at prices (4.85, 4.86), references (0.10, 2.95)
D_H0 = -2.5950508119722233822
D_L0 = -1.1557483831049262107
DEMAND_H0 = 0.0066537663182508295799
DEMAND_L0 = 0.10426993422542487221
REVENUE_H0 = 0.032270766643516523463
REVENUE_L0 = 0.50675188033556487895

P0 = rg.PricePair(4.85, 4.86)
R0 = rg.PricePair(0.10, 2.95)


class TestParamsValidation:
    def test_firm_rejects_nonpositive_price_sensitivity(self):
        with pytest.raises(ValueError):
            rg.FirmParams(a=1.0, b=0.0, c=0.5)
        with pytest.raises(ValueError):
            rg.FirmParams(a=1.0, b=-1.0, c=0.5)

    def test_firm_rejects_negative_reference_sensitivity(self):
        with pytest.raises(ValueError):
            rg.FirmParams(a=1.0, b=1.0, c=-0.1)

    def test_firm_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rg.FirmParams(a=math.inf, b=1.0, c=1.0)
        with pytest.raises(ValueError):
            rg.FirmParams(a=0.0, b=math.nan, c=1.0)

    def test_firm_rejects_bool(self):
        # a bool is an int in Python, but it is no coefficient
        for field in ("a", "b", "c"):
            coefs = {"a": 1.0, "b": 1.0, "c": 0.0, field: True}
            message = f"FirmParams.{field} must be a finite real, got True"
            with pytest.raises(ValueError, match=message):
                rg.FirmParams(**coefs)
        # and none is an alpha or a price box bound either
        firm = rg.FirmParams(a=1.0, b=1.0, c=0.0)
        for field in ("alpha", "p_lo", "p_hi"):
            for flag in (True, np.True_):
                market = {"alpha": 0.5, "p_lo": 0.5, "p_hi": 2.0, field: flag}
                message = f"MarketParams.{field} must be a finite real, got {flag!r}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    rg.MarketParams(firm, firm, **market)

    @pytest.mark.parametrize("field", ["p_lo", "p_hi"])
    def test_float32_box_bound_is_widened(self, field):
        # under NumPy 2 a float32 bound would keep the solve's arithmetic in
        # single precision, where solve_sne cannot meet its tolerance
        fig1 = rg.figure1_params()
        bound = np.float32(getattr(fig1, field))
        params = dataclasses.replace(fig1, **{field: bound})
        assert type(getattr(params, field)) is float and getattr(params, field) == bound
        widened = dataclasses.replace(fig1, **{field: float(bound)})
        assert rg.solve_sne(params).prices == rg.solve_sne(widened).prices

    @pytest.mark.parametrize("value", [np.float32(2.5), np.int64(2)])
    def test_firm_takes_numpy_numbers_as_floats(self, value):
        firm = rg.FirmParams(a=value, b=value, c=value)
        assert all(type(x) is float and x == value for x in (firm.a, firm.b, firm.c))

    def test_market_refuses_a_string_with_value_error(self):
        firm = rg.FirmParams(a=1.0, b=1.0, c=0.0)
        message = "MarketParams.alpha must be a finite real, got '0.5'"
        with pytest.raises(ValueError, match=re.escape(message)):
            rg.MarketParams(firm, firm, alpha="0.5", p_lo=0.5, p_hi=2.0)

    def test_market_rejects_bad_alpha_and_box(self):
        firm = rg.FirmParams(a=1.0, b=1.0, c=1.0)
        with pytest.raises(ValueError):
            rg.MarketParams(firm, firm, alpha=1.5, p_lo=0.5, p_hi=2.0)
        with pytest.raises(ValueError):
            rg.MarketParams(firm, firm, alpha=-0.1, p_lo=0.5, p_hi=2.0)
        with pytest.raises(ValueError):
            rg.MarketParams(firm, firm, alpha=0.5, p_lo=0.0, p_hi=2.0)
        with pytest.raises(ValueError):
            rg.MarketParams(firm, firm, alpha=0.5, p_lo=2.0, p_hi=1.0)
        for p_lo, p_hi in ((0.5, math.inf), (math.nan, 2.0)):
            with pytest.raises(ValueError, match="price box bounds must be finite"):
                rg.MarketParams(firm, firm, alpha=0.5, p_lo=p_lo, p_hi=p_hi)


class TestUtility:
    def test_price_only_firm(self):
        firm = rg.FirmParams(a=1.0, b=1.0, c=0.0)
        assert rg.utility(firm, 1.0, 5.0) == 0.0

    def test_demo_firm_value(self):
        firm = rg.FirmParams(a=8.70, b=2.00, c=0.82)
        assert math.isclose(rg.utility(firm, 4.85, 0.10), -4.895, rel_tol=1e-14)

    def test_reference_term_vanishes_at_r_equal_p(self):
        firm = rg.FirmParams(a=0.0, b=1.0, c=1.0)
        for x in (0.3, 1.0, 2.5, 7.0):
            assert math.isclose(rg.utility(firm, x, x), -x, rel_tol=1e-15)

    def test_non_finite_rejected(self):
        firm = rg.FirmParams(a=1.0, b=1.0, c=1.0)
        with pytest.raises(ValueError):
            rg.utility(firm, math.inf, 1.0)
        with pytest.raises(ValueError):
            rg.utility(firm, 1.0, math.nan)


class TestDemand:
    def test_symmetric_thirds(self):
        firm = rg.FirmParams(a=1.0, b=1.0, c=0.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=0.5, p_hi=2.0)
        d_H, d_L, d_0 = demand(params, (1.0, 1.0), (0.7, 1.9))
        assert math.isclose(d_H, 1.0 / 3.0, rel_tol=1e-15)
        assert math.isclose(d_L, 1.0 / 3.0, rel_tol=1e-15)
        assert math.isclose(d_0, 1.0 / 3.0, rel_tol=1e-15)

    def test_frozen_values(self, fig1):
        d_H, d_L, _ = demand(fig1, P0, R0)
        assert math.isclose(d_H, DEMAND_H0, rel_tol=1e-12)
        assert math.isclose(d_L, DEMAND_L0, rel_tol=1e-12)

    def test_dominance_limit(self):
        # u_H = -50, u_L = 0 by construction
        firm_H = rg.FirmParams(a=-50.0, b=1.0, c=0.0)
        firm_L = rg.FirmParams(a=0.0, b=1.0, c=0.0)
        params = rg.MarketParams(firm_H, firm_L, alpha=0.5, p_lo=1e-9, p_hi=10.0)
        d_H, d_L, _ = demand(params, (1e-9, 1e-9), (1.0, 1.0))
        assert d_H < 1e-20
        assert math.isclose(d_L, 0.5, rel_tol=1e-8)

    def test_normalization_and_positivity(self, fig1):
        rng = np.random.default_rng(3)
        # include far off-box states; demand is a total function
        p = rng.uniform(-50.0, 50.0, size=(2, 500))
        r = rng.uniform(-50.0, 50.0, size=(2, 500))
        d_H, d_L, d_0 = demand(fig1, (p[0], p[1]), (r[0], r[1]))
        np.testing.assert_allclose(d_H + d_L + d_0, 1.0, atol=1e-14)
        for d in (d_H, d_L, d_0):
            assert np.all(d > 0.0) and np.all(d < 1.0)

    def test_share_clamp_bounds_are_the_numpy_floats(self):
        # the clamp's ends are written without numpy; they are its floats
        assert type(SHARE_MIN) is float and type(SHARE_MAX) is float
        assert SHARE_MIN.hex() == float(np.finfo(float).tiny).hex()
        assert SHARE_MAX.hex() == float(np.nextafter(1.0, 0.0)).hex()

    def test_extreme_utilities_stay_finite(self, fig1):
        d_H, d_L, d_0 = demand(fig1, (-400.0, 500.0), (-400.0, 500.0))
        assert np.isfinite(d_H) and np.isfinite(d_L) and np.isfinite(d_0)
        assert 0.0 < d_H < 1.0

    def test_monotone_in_own_and_cross_price(self, fig1):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p_H, p_L, r_H, r_L = rng.uniform(fig1.p_lo, fig1.p_hi, 4)
            bump = 0.05
            d_H, d_L, _ = demand(fig1, (p_H, p_L), (r_H, r_L))
            d_H2, d_L2, _ = demand(fig1, (p_H + bump, p_L), (r_H, r_L))
            assert d_H2 < d_H and d_L2 > d_L


class TestRevenue:
    def test_zero_price_zero_revenue(self, fig1):
        pi_H, pi_L = revenue(fig1, (0.0, 1.0), (1.0, 1.0))
        assert pi_H == 0.0 and pi_L > 0.0

    def test_symmetry(self, symmetric):
        pi_H, pi_L = revenue(symmetric, (1.3, 1.3), (2.0, 2.0))
        assert math.isclose(pi_H, pi_L, rel_tol=1e-15)

    def test_frozen_values(self, fig1):
        pi_H, pi_L = revenue(fig1, P0, R0)
        assert math.isclose(pi_H, REVENUE_H0, rel_tol=1e-12)
        assert math.isclose(pi_L, REVENUE_L0, rel_tol=1e-12)


class TestLogRevDerivative:
    def test_frozen_values(self, fig1):
        D_H, D_L = rg.log_rev_derivative(fig1, P0, R0)
        assert math.isclose(D_H, D_H0, rel_tol=1e-12)
        assert math.isclose(D_L, D_L0, rel_tol=1e-12)

    def test_zero_price_rejected(self, fig1):
        with pytest.raises(ValueError):
            rg.log_rev_derivative(fig1, (0.0, 1.0), (1.0, 1.0))

    def test_constructed_zero(self):
        # d_i = 1/3, p_i = 1, b_i + c_i = 1.5 gives D_i = 1 + 1.5*(1/3 - 1) = 0
        firm = rg.FirmParams(a=0.0, b=1.0, c=0.5)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=0.5, p_hi=2.0)
        # both utilities equal 0 at p = 1, r such that a - (b+c) p + c r = 0
        r = 1.5 / 0.5  # solves 0 - 1.5*1 + 0.5*r = 0
        D_H, D_L = rg.log_rev_derivative(params, (1.0, 1.0), (r, r))
        assert abs(D_H) < 1e-15 and abs(D_L) < 1e-15

    def test_matches_finite_difference_of_log_revenue(self, fig1):
        h = 1e-6
        states = in_box_states(fig1, 100, seed=5)
        worst = 0.0
        for p_H, p_L, r_H, r_L in states:
            analytic = rg.log_rev_derivative(fig1, (p_H, p_L), (r_H, r_L))
            for i in range(2):
                def log_rev(x):
                    prices = (x, p_L) if i == 0 else (p_H, x)
                    return math.log(revenue(fig1, prices, (r_H, r_L))[i])

                own = p_H if i == 0 else p_L
                fd = (log_rev(own + h) - log_rev(own - h)) / (2.0 * h)
                worst = max(worst, abs(fd - analytic[i]) / max(1.0, abs(analytic[i])))
        assert worst < 1e-6


class TestScaledDerivative:
    def test_scaling_identity(self, fig1):
        states = in_box_states(fig1, 50, seed=6)
        s_H = fig1.firm_H.b + fig1.firm_H.c
        s_L = fig1.firm_L.b + fig1.firm_L.c
        for p_H, p_L, r_H, r_L in states:
            D = rg.log_rev_derivative(fig1, (p_H, p_L), (r_H, r_L))
            G = rg.scaled_derivative(fig1, (p_H, p_L), (r_H, r_L))
            assert math.isclose(G[0] * s_H, D[0], rel_tol=1e-12)
            assert math.isclose(G[1] * s_L, D[1], rel_tol=1e-12)

    def test_frozen_values(self, fig1):
        G_H, G_L = rg.scaled_derivative(fig1, P0, R0)
        assert math.isclose(G_H, D_H0 / 2.82, rel_tol=1e-12)
        assert math.isclose(G_L, D_L0 / 1.52, rel_tol=1e-12)

    @pytest.mark.parametrize("prices", [(0.0, 1.0), (1.0, np.array([2.0, 0.0]))])
    def test_zero_price_rejected(self, fig1, prices):
        with pytest.raises(ValueError, match="scaled_derivative is undefined at p_i = 0"):
            rg.scaled_derivative(fig1, prices, (1.0, 1.0))
        with pytest.raises(ValueError, match="scaled_derivative_partials is undefined at p_i = 0"):
            rg.scaled_derivative_partials(fig1, prices, (1.0, 1.0))


class TestPartials:
    def test_zero_reference_sensitivity_kills_reference_partials(self):
        firm = rg.FirmParams(a=2.0, b=1.5, c=0.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=0.5, p_hi=2.0)
        table = rg.scaled_derivative_partials(params, (1.0, 1.2), (0.8, 1.9))
        assert table[0, 2] == 0.0 and table[0, 3] == 0.0
        assert table[1, 2] == 0.0 and table[1, 3] == 0.0

    def test_sign_structure(self, fig1):
        # own-price partial < 0, cross-price > 0, own-reference > 0,
        # cross-reference < 0 at every sampled interior state; columns
        # in state order (p_H, p_L, r_H, r_L)
        signs = np.array([[-1.0, 1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
        states = in_box_states(fig1, 200, seed=7)
        for p_H, p_L, r_H, r_L in states:
            table = rg.scaled_derivative_partials(fig1, (p_H, p_L), (r_H, r_L))
            np.testing.assert_array_equal(np.sign(table), signs)

    def test_matches_finite_difference(self, fig1):
        h = 1e-6
        states = in_box_states(fig1, 100, seed=8)
        worst = 0.0
        for state in states:
            table = rg.scaled_derivative_partials(fig1, state[:2], state[2:])
            for col in range(4):
                plus = state.copy()
                plus[col] += h
                minus = state.copy()
                minus[col] -= h
                g_plus = rg.scaled_derivative(fig1, plus[:2], plus[2:])
                g_minus = rg.scaled_derivative(fig1, minus[:2], minus[2:])
                fd = np.subtract(g_plus, g_minus) / (2.0 * h)
                ref = table[:, col]
                worst = max(worst, np.max(np.abs(fd - ref) / np.maximum(1.0, np.abs(ref))))
        assert worst < 1e-6

    def test_array_broadcast_matches_scalar(self, fig1):
        states = in_box_states(fig1, 20, seed=9)
        batch = rg.scaled_derivative_partials(
            fig1, (states[:, 0], states[:, 1]), (states[:, 2], states[:, 3])
        )
        assert batch.shape == (2, 4, 20)
        for k, state in enumerate(states):
            single = rg.scaled_derivative_partials(fig1, state[:2], state[2:])
            np.testing.assert_allclose(batch[:, :, k], single, rtol=1e-15)


class TestBoundConstants:
    def test_frozen_reference_lipschitz(self, fig1):
        _, l_r = rg.bound_constants(fig1)
        assert math.isclose(l_r, 0.2200568108466538692513, rel_tol=1e-13)

    def test_zero_reference_sensitivity(self):
        firm = rg.FirmParams(a=2.0, b=1.5, c=0.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=0.5, p_hi=2.0)
        _, l_r = rg.bound_constants(params)
        assert l_r == 0.0

    def test_bounds_hold_on_grid(self, fig1):
        m_g, l_r = rg.bound_constants(fig1)
        states = in_box_states(fig1, 10_000, seed=10).T
        g_H, g_L = rg.scaled_derivative(fig1, (states[0], states[1]), (states[2], states[3]))
        assert np.max(np.abs(g_H)) <= m_g
        assert np.max(np.abs(g_L)) <= m_g
        table = rg.scaled_derivative_partials(
            fig1, (states[0], states[1]), (states[2], states[3])
        )
        assert np.max(np.hypot(table[0, 2], table[0, 3])) <= l_r + 1e-12
        assert np.max(np.hypot(table[1, 2], table[1, 3])) <= l_r + 1e-12


class TestScalarFastPath:
    def test_matches_public_demand(self, fig1):
        consts = _consts(fig1)
        states = in_box_states(fig1, 200, seed=11)
        for p_H, p_L, r_H, r_L in states:
            fast = _shares(consts, p_H, p_L, r_H, r_L)
            assert all(SHARE_MIN < d < SHARE_MAX for d in fast[:2])  # no share clamped
            slow = demand(fig1, (p_H, p_L), (r_H, r_L))
            assert (fast[0], fast[1]) == (slow[0], slow[1])
            assert _logit(fig1, (p_H, p_L), (r_H, r_L)) == fast


# frozen oracle values on SATURATED, firm H: the own-price and own-reference
# entries of scaled_derivative_partials, G_H and D_H, at two in-box states
# where 1 - d_H is 6.8e-43 and 2.5e-31
SATURATED_ORACLE = {
    ((1.0, 1.0), (30.0, 1.0)): (
        -0.490970582012080831426791026709,
        1.26348318900062628342516399216e-42,
        0.490970582012080831426791026709,
        1.00000000000000000000000000000,
    ),
    ((5.0, 1.0), (20.0, 1.0)): (
        -0.0196388232804832332570716410689,
        4.65505579639806230377743443402e-31,
        0.0981941164024161662853582053415,
        0.199999999999999999999999999999,
    ),
}


class TestSaturatedComplement:
    @pytest.mark.parametrize("state", list(SATURATED_ORACLE))
    def test_matches_oracle_where_demand_saturates(self, state):
        prices, references = state
        assert SATURATED.in_box(*prices, *references)
        table = rg.scaled_derivative_partials(SATURATED, prices, references)
        got = (
            table[0, 0],
            table[0, 2],
            rg.scaled_derivative(SATURATED, prices, references)[0],
            rg.log_rev_derivative(SATURATED, prices, references)[0],
        )
        for value, frozen in zip(got, SATURATED_ORACLE[state]):
            assert math.isclose(value, frozen, rel_tol=1e-13)
