"""Lambert W, analytic bounds, best responses, and the stationary solver.

Frozen numbers were computed independently with mpmath (30 digits) from
the defining equations; the solvers under test never produced them.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import refgame as rg

# frozen: stationary prices and demands of the demo instance
SNE_H = 1.920413366139232687344
SNE_L = 0.8006783990990236124562
# frozen: one-shot equilibrium prices at references (0.10, 2.95)
POLICY_H = 1.356136188522290014431
POLICY_L = 0.884617148731789095782
# frozen: root of w * e^w = 1 (checked against the bisection oracle below)
OMEGA = 0.567143290409783873
# frozen: 1/2 + W(0.5 * exp(9.5)), the worked box-threshold value
WORKED_UPPER = 7.378458279838826520726

# Markets 279, 149 and 100 of the benchmark's sweep (bench/workloads.py,
# make_markets), frozen as literals so that tier-1 does not import bench/.
# SATURATED: d_H rounds to 1 near the SNE (p_H ~ 190.7), so forming 1 - d_H
# by subtraction divides by zero. COLLAPSING: firm L's best response at its
# start reference, at tolerance 1e-15, narrows its bracket to adjacent floats.
SATURATED = rg.MarketParams(
    firm_H=rg.FirmParams(a=51.88463513085218, b=0.18824291688731337, c=1.8485389935518624),
    firm_L=rg.FirmParams(a=10.599684460719814, b=2.385029211902435, c=1.7593511153176002),
    alpha=0.291332591444203,
    p_lo=0.21716153657251372,
    p_hi=266.9523140634842,
)
COLLAPSING = rg.MarketParams(
    firm_H=rg.FirmParams(a=9.254048986320017, b=0.10716105487085836, c=1.682176971296709),
    firm_L=rg.FirmParams(a=3.289876667890146, b=1.3023082439833065, c=1.6724614032909377),
    alpha=0.1587885421186318,
    p_lo=0.3025444342638975,
    p_hi=49.973695407455416,
)
COLLAPSING_R0 = rg.PricePair(14.629609984761172, 24.480156317776107)
COLLAPSING_OPPONENT = 0.6257158044738064
# the best-response alternation that preceded Newton ran out 100000 rounds here
STIFF = rg.MarketParams(
    firm_H=rg.FirmParams(a=0.1153932072594559, b=2.284172105252009, c=2.429337476968917),
    firm_L=rg.FirmParams(a=5.5994731056425, b=0.4871002131838462, c=0.6692522316912924),
    alpha=0.37016484196656,
    p_lo=0.19094052622588184,
    p_hi=8.092705084036004,
)
STIFF_R0 = rg.PricePair(1.1663842933423356, 1.438100073151389)

# deterministic examples, so tier-1 runs the same markets every time
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def bisect_w(target: float, lo: float, hi: float, iters: int = 80) -> float:
    """Independent oracle: bisection on w * e^w = target."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_anchors(self):
        assert rg.lambert_w(0.0) == 0.0
        assert math.isclose(rg.lambert_w(math.e), 1.0, rel_tol=1e-14)
        assert math.isclose(rg.lambert_w(1.0), OMEGA, rel_tol=1e-14)

    def test_against_bisection_oracle(self):
        assert math.isclose(rg.lambert_w(1.0), bisect_w(1.0, 0.0, 1.0), rel_tol=1e-13)
        assert math.isclose(rg.lambert_w(50.0), bisect_w(50.0, 0.0, 5.0), rel_tol=1e-13)

    def test_defining_identity_on_log_grid(self):
        xs = np.concatenate([[0.0], np.logspace(-8, 10, 120)])
        for x in xs:
            w = rg.lambert_w(float(x))
            assert w >= 0.0
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_against_scipy(self):
        for x in np.logspace(-6, 9, 40):
            ours = rg.lambert_w(float(x))
            ref = float(scipy.special.lambertw(x).real)
            assert math.isclose(ours, ref, rel_tol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rg.lambert_w(-0.1)
        with pytest.raises(ValueError):
            rg.lambert_w(math.nan)


class TestSneBounds:
    def test_worked_value(self):
        firm = rg.FirmParams(a=10.0, b=1.0, c=1.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=0.4, p_hi=8.0)
        (lo_H, up_H), (lo_L, up_L) = rg.sne_bounds(params)
        assert lo_H == 0.5 and lo_L == 0.5
        assert math.isclose(up_H, WORKED_UPPER, rel_tol=1e-12)
        assert round(up_H, 4) == 7.3785

    def test_demo_lower_bound(self, fig1):
        (lo_H, _), _ = rg.sne_bounds(fig1)
        assert math.isclose(lo_H, 1.0 / 2.82, rel_tol=1e-15)

    # frozen: 1/2.82 + W(k e^(a - k))/2 with k = 2/2.82, from mpmath; the
    # first two straddle the switch to the log form at a - k = 700
    @pytest.mark.parametrize(
        "a, upper",
        [
            (699.5, 346.3084788378671395625674),
            (700.5, 346.8077577605280547691028),
            (1000.0, 496.3783196937613004387750),
            (1e6, 499992.9204573030307177132),
        ],
    )
    def test_large_intrinsic_value_gives_a_finite_bound(self, a, upper):
        # k * exp(a - k) overflows a float past a - k = 709.8
        firm = rg.FirmParams(a=a, b=2.0, c=0.82)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=0.1, p_hi=7.5)
        (_, up_H), _ = rg.sne_bounds(params)
        assert math.isclose(up_H, upper, rel_tol=1e-12)

    def test_large_reference_sensitivity_shrinks_lower(self):
        firm = rg.FirmParams(a=5.0, b=1.0, c=500.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=1e-4, p_hi=50.0)
        (lo_H, _), _ = rg.sne_bounds(params)
        assert lo_H < 0.002


class TestValidatePriceBox:
    def _params(self, p_lo, p_hi):
        firm = rg.FirmParams(a=10.0, b=1.0, c=1.0)
        return rg.MarketParams(firm, firm, alpha=0.5, p_lo=p_lo, p_hi=p_hi)

    def test_pass(self):
        check = rg.validate_price_box(self._params(0.4, 8.0))
        assert check.ok and check.lower_ok and check.upper_ok

    def test_fail_upper_reports_threshold(self):
        check = rg.validate_price_box(self._params(0.4, 7.0))
        assert not check.ok and check.lower_ok and not check.upper_ok
        assert math.isclose(check.upper_threshold, WORKED_UPPER, rel_tol=1e-12)
        assert "7.3784" in check.describe()

    def test_fail_lower(self):
        check = rg.validate_price_box(self._params(0.6, 8.0))
        assert not check.ok and not check.lower_ok
        assert check.lower_threshold == 0.5


def monopoly_root_oracle(a: float, b: float, lo: float, hi: float) -> float:
    """Scalar bisection for the single-product pricing condition
    1/p = b * (1 - e^u / (1 + e^u)) with u = a - b p."""
    def f(p):
        u = a - b * p
        d = math.exp(u) / (1.0 + math.exp(u))
        return 1.0 / p + b * (d - 1.0)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBestResponse:
    def test_stationary_point_is_mutual_best_response(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        br_H = rg.best_response(fig1, "H", sne.p_L, sne)
        br_L = rg.best_response(fig1, "L", sne.p_H, sne)
        assert math.isclose(br_H, sne.p_H, abs_tol=1e-9)
        assert math.isclose(br_L, sne.p_L, abs_tol=1e-9)

    def test_interior_bracket_at_demo_start(self, fig1):
        # sign oracle: derivative positive at the floor, negative at the cap
        r = rg.PricePair(0.10, 2.95)
        for firm, opp in (("H", 4.86), ("L", 4.85)):
            prices_lo = (fig1.p_lo, opp) if firm == "H" else (opp, fig1.p_lo)
            prices_hi = (fig1.p_hi, opp) if firm == "H" else (opp, fig1.p_hi)
            i = 0 if firm == "H" else 1
            assert rg.log_rev_derivative(fig1, prices_lo, r)[i] > 0.0
            assert rg.log_rev_derivative(fig1, prices_hi, r)[i] < 0.0
            root = rg.best_response(fig1, firm, opp, r)
            assert fig1.p_lo < root < fig1.p_hi

    def test_root_has_zero_derivative(self, fig1):
        r = rg.PricePair(0.10, 2.95)
        root = rg.best_response(fig1, "H", 4.86, r)
        D_H, _ = rg.log_rev_derivative(fig1, (root, 4.86), r)
        assert abs(D_H) <= 1e-12

    def test_perturbation_never_improves_revenue(self, fig1):
        rng = np.random.default_rng(12)
        for _ in range(20):
            opp = float(rng.uniform(fig1.p_lo, fig1.p_hi))
            r = rg.PricePair(*rng.uniform(fig1.p_lo, fig1.p_hi, 2))
            p_star = rg.best_response(fig1, "H", opp, r)
            if not fig1.p_lo < p_star < fig1.p_hi:
                continue
            base = rg.revenue(fig1, (p_star, opp), r)[0]
            for d in (-1e-4, 1e-4):
                assert rg.revenue(fig1, (p_star + d, opp), r)[0] <= base + 1e-10

    def test_monopoly_limit_matches_scalar_oracle(self):
        # opponent has utility ~ -80 everywhere: effectively absent
        firm = rg.FirmParams(a=2.0, b=1.0, c=0.0)
        ghost = rg.FirmParams(a=-80.0, b=1.0, c=0.0)
        params = rg.MarketParams(firm, ghost, alpha=0.5, p_lo=0.1, p_hi=20.0)
        r = rg.PricePair(1.0, 1.0)
        root = rg.best_response(params, "H", 1.0, r)
        oracle = monopoly_root_oracle(2.0, 1.0, 0.1, 20.0)
        assert math.isclose(root, oracle, rel_tol=1e-10)

    def test_boundary_return_when_no_sign_change(self):
        # low intrinsic value: the derivative is negative on the whole box
        firm = rg.FirmParams(a=-5.0, b=3.0, c=1.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=1.0, p_hi=5.0)
        root = rg.best_response(params, "H", 2.0, rg.PricePair(2.0, 2.0))
        assert root == 1.0

    def test_rejects_bad_firm_and_out_of_box(self, fig1):
        with pytest.raises(ValueError):
            rg.best_response(fig1, "X", 1.0, rg.PricePair(1.0, 1.0))
        with pytest.raises(ValueError):
            rg.best_response(fig1, "H", 100.0, rg.PricePair(1.0, 1.0))

    def test_collapsed_bracket_fails_fast(self):
        cfg = rg.SolverConfig(tolerance=1e-15)
        with pytest.raises(rg.SolverError) as err:
            rg.best_response(COLLAPSING, "L", COLLAPSING_OPPONENT, COLLAPSING_R0, cfg)
        lo, hi = err.value.context["bracket"]
        assert err.value.context["iterations"] < 200
        assert not lo < 0.5 * (lo + hi) < hi


class TestEquilibriumPolicy:
    def test_fixed_point_at_stationary_prices(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        out = rg.equilibrium_policy(fig1, sne)
        assert math.isclose(out.p_H, sne.p_H, abs_tol=1e-9)
        assert math.isclose(out.p_L, sne.p_L, abs_tol=1e-9)

    def test_symmetric_instance(self, symmetric):
        out = rg.equilibrium_policy(symmetric, rg.PricePair(2.0, 2.0))
        assert abs(out.p_H - out.p_L) < 1e-9

    def test_demo_start_frozen_values_and_residual(self, fig1):
        r0 = rg.PricePair(0.10, 2.95)
        out = rg.equilibrium_policy(fig1, r0)
        assert math.isclose(out.p_H, POLICY_H, rel_tol=1e-9)
        assert math.isclose(out.p_L, POLICY_L, rel_tol=1e-9)
        # stationarity system residual, checked directly
        d_H, d_L, _ = rg.demand(fig1, out, r0)
        s_H = fig1.firm_H.b + fig1.firm_H.c
        s_L = fig1.firm_L.b + fig1.firm_L.c
        assert abs(out.p_H - 1.0 / (s_H * (1.0 - d_H))) <= 1e-10
        assert abs(out.p_L - 1.0 / (s_L * (1.0 - d_L))) <= 1e-10

    def test_rejects_out_of_box_references(self, fig1):
        with pytest.raises(ValueError):
            rg.equilibrium_policy(fig1, rg.PricePair(0.01, 1.0))

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        shrink=st.one_of(st.none(), st.floats(0.5, 0.99)),
    )
    def test_components_are_best_responses(self, seed, u, shrink):
        # best_response is the independent oracle: a bracketed one-firm
        # root search. ``shrink`` pulls p_hi below the larger policy
        # price, so that component is pinned on the box edge.
        params = rg.random_market(np.random.default_rng(seed))

        def refs(params):
            width = params.p_hi - params.p_lo
            return rg.PricePair(params.p_lo + u[0] * width, params.p_lo + u[1] * width)

        if shrink is not None:
            top = max(rg.equilibrium_policy(params, refs(params)))
            params = dataclasses.replace(
                params, p_hi=params.p_lo + shrink * (top - params.p_lo)
            )
        r = refs(params)
        p = rg.equilibrium_policy(params, r)
        assert params.in_box(*p)
        assert math.isclose(rg.best_response(params, "H", p.p_L, r), p.p_H, abs_tol=1e-9)
        assert math.isclose(rg.best_response(params, "L", p.p_H, r), p.p_L, abs_tol=1e-9)


class TestSolveSne:
    def test_demo_instance(self, fig1, fig1_sne):
        sol = fig1_sne
        assert sol.residual < 1e-10
        assert math.isclose(sol.prices.p_H, SNE_H, rel_tol=1e-9)
        assert math.isclose(sol.prices.p_L, SNE_L, rel_tol=1e-9)
        for value, (lower, upper) in zip(sol.prices, sol.bounds):
            assert lower < value < upper
        det, trace, min_eig = sol.hessian_certificate
        assert det > 0.0 and trace > 0.0 and min_eig > 0.0

    def test_symmetric_matches_scalar_reduction(self, symmetric):
        sol = rg.solve_sne(symmetric)
        assert abs(sol.prices.p_H - sol.prices.p_L) < 1e-10

        # independent oracle: bisection on the symmetric scalar reduction
        # p = 1/(2 * (1 - d)) with d = e^{10-p} / (1 + 2 e^{10-p})
        def defect(p):
            d = math.exp(10.0 - p) / (1.0 + 2.0 * math.exp(10.0 - p))
            return p - 1.0 / (2.0 * (1.0 - d))

        lo, hi = 0.5, 8.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if defect(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert math.isclose(sol.prices.p_H, 0.5 * (lo + hi), rel_tol=1e-10)

    def test_rejects_inadmissible_box(self):
        firm = rg.FirmParams(a=10.0, b=1.0, c=1.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=0.4, p_hi=7.0)
        with pytest.raises(ValueError, match="p_hi"):
            rg.solve_sne(params)

    def test_saturated_demand_is_solved(self):
        sol = rg.solve_sne(SATURATED)
        for value, (lower, upper) in zip(sol.prices, rg.sne_bounds(SATURATED)):
            assert lower < value < upper
        g = rg.scaled_derivative(SATURATED, sol.prices, sol.prices)
        assert max(abs(g[0]), abs(g[1])) <= 1e-12
        assert sol.residual <= 1e-12

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_market_inside_bounds_and_stationary(self, seed):
        params = rg.random_market(np.random.default_rng(seed))
        sol = rg.solve_sne(params)
        for value, (lower, upper) in zip(sol.prices, rg.sne_bounds(params)):
            assert lower < value < upper
        g = rg.scaled_derivative(params, sol.prices, sol.prices)
        assert max(abs(g[0]), abs(g[1])) <= 1e-12

    def test_agrees_with_long_learning_run(self, fig1, fig1_sne):
        # two independent routes to the same point: the fixed-point
        # solver against a long diminishing-step learning run
        state = rg.MarketState(rg.PricePair(4.85, 4.86), rg.PricePair(0.10, 2.95))
        traj = rg.simulate(fig1, state, rg.StepSchedule.inverse_sqrt(), 100_000)
        sne = fig1_sne.prices
        assert abs(traj.p_H[-1] - sne.p_H) < 1e-3
        assert abs(traj.p_L[-1] - sne.p_L) < 1e-3


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            rg.SolverConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            rg.SolverConfig(max_iterations=0)

    def test_solver_error_carries_context(self, fig1):
        # an absurdly tight tolerance cannot be met: Newton stalls at the
        # floating-point floor and the error must carry its context
        cfg = rg.SolverConfig(tolerance=1e-300, max_iterations=50)
        with pytest.raises(rg.SolverError) as err:
            rg.solve_sne(fig1, cfg)
        assert "iterations" in err.value.context


class TestEquilibriumPath:
    def test_stationary_start_is_constant(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        traj = rg.equilibrium_path(fig1, sne, 20)
        assert np.max(np.abs(traj.p_H - sne.p_H)) < 1e-9
        assert np.max(np.abs(traj.r_H - sne.p_H)) < 1e-9

    def test_memoryless_references_track_prices(self, fig1):
        params = rg.MarketParams(
            firm_H=fig1.firm_H,
            firm_L=fig1.firm_L,
            alpha=0.0,
            p_lo=fig1.p_lo,
            p_hi=fig1.p_hi,
        )
        traj = rg.equilibrium_path(params, rg.PricePair(0.10, 2.95), 10)
        np.testing.assert_array_equal(traj.r_H[1:], traj.p_H[:-1])
        np.testing.assert_array_equal(traj.r_L[1:], traj.p_L[:-1])

    def test_demo_references_reach_stationary_point(self, fig1, fig1_sne):
        traj = rg.equilibrium_path(fig1, rg.PricePair(0.10, 2.95), 1000)
        sne = fig1_sne.prices
        assert abs(traj.r_H[-1] - sne.p_H) < 1e-3
        assert abs(traj.r_L[-1] - sne.p_L) < 1e-3

    def test_policy_derivatives_recorded_near_zero(self, fig1):
        traj = rg.equilibrium_path(fig1, rg.PricePair(0.10, 2.95), 5)
        assert np.max(np.abs(traj.D_H)) < 1e-9
        assert np.max(np.abs(traj.D_L)) < 1e-9

    def test_stiff_market_path_is_solved(self):
        traj = rg.equilibrium_path(STIFF, STIFF_R0, 20)
        states = np.stack([traj.p_H, traj.p_L, traj.r_H, traj.r_L])
        assert np.all((states >= STIFF.p_lo) & (states <= STIFF.p_hi))
        D = np.stack([traj.D_H, traj.D_L])
        interior = (states[:2] > STIFF.p_lo) & (states[:2] < STIFF.p_hi)
        assert np.max(np.abs(D[interior])) < 1e-9

    def test_references_follow_reference_update(self):
        # On random_market(default_rng(17)) firm L's alpha*r + (1-alpha)*p
        # rounds one ulp outside [min(r,p), max(r,p)] at period 60. A clamp
        # onto that span, instead of the box, pins r_L there and binds again
        # in every later period (940 updates in all), so it alters the path.
        params = rg.random_market(np.random.default_rng(17))
        lo, hi = params.p_lo, params.p_hi
        traj = rg.equilibrium_path(
            params, rg.PricePair(lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)), 1000
        )
        p = np.stack([traj.p_H, traj.p_L])[:, :-1]
        r = np.stack([traj.r_H, traj.r_L])[:, :-1]
        v = params.alpha * r + (1.0 - params.alpha) * p
        assert np.any((v < np.minimum(r, p)) | (v > np.maximum(r, p)))
        # the rule is the box clamp, and equilibrium_path applies it
        np.testing.assert_array_equal(
            np.stack([traj.r_H, traj.r_L])[:, 1:], np.clip(v, lo, hi)
        )
        for t in range(len(traj) - 1):
            update = rg.reference_update(
                params,
                rg.PricePair(traj.r_H[t], traj.r_L[t]),
                rg.PricePair(traj.p_H[t], traj.p_L[t]),
            )
            assert (traj.r_H[t + 1], traj.r_L[t + 1]) == tuple(update), t

    def test_rejects_bad_inputs(self, fig1):
        with pytest.raises(ValueError):
            rg.equilibrium_path(fig1, rg.PricePair(0.01, 1.0), 10)
        with pytest.raises(ValueError):
            rg.equilibrium_path(fig1, rg.PricePair(1.0, 1.0), 0)
