"""Lambert W, analytic bounds, best responses, and the stationary solver.

Frozen numbers were computed independently with mpmath (30 digits) from
the defining equations; the solvers under test never produced them.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import refgame as rg
import refgame.equilibrium as equilibrium
from refgame.model import _consts, _shares

from conftest import SATURATED, STIFF, stored
from oracles import best_response, demand, equilibrium_policy, revenue

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

# Market 149 of the benchmark's sweep (bench/workloads.py, make_markets),
# frozen as a literal so that tier-1 does not import bench/; markets 100 and
# 279 are conftest.STIFF and conftest.SATURATED. COLLAPSING: near firm L's best response
# at its start reference, |D_L| is at least 8.3e-16 at every float, so at
# tolerance 1e-16 the bracket narrows to adjacent floats.
COLLAPSING = rg.MarketParams(
    firm_H=rg.FirmParams(a=9.254048986320017, b=0.10716105487085836, c=1.682176971296709),
    firm_L=rg.FirmParams(a=3.289876667890146, b=1.3023082439833065, c=1.6724614032909377),
    alpha=0.1587885421186318,
    p_lo=0.3025444342638975,
    p_hi=49.973695407455416,
)
COLLAPSING_R0 = rg.PricePair(14.629609984761172, 24.480156317776107)
COLLAPSING_OPPONENT = 0.6257158044738064
STIFF_R0 = rg.PricePair(1.1663842933423356, 1.438100073151389)
# market 152 of the same sweep: its policy path is bit-fixed from period 21,
# one period past the sweep's 20-period paths
EARLY_FIXED = rg.MarketParams(
    firm_H=rg.FirmParams(a=1.7379509027364524, b=0.14329094783289273, c=2.6626927858835043),
    firm_L=rg.FirmParams(a=10.340110088189828, b=2.8096518474695213, c=0.4483857695145944),
    alpha=0.034441395010944384,
    p_lo=0.27623990444686997,
    p_hi=3.2100281152947368,
)
EARLY_FIXED_R0 = rg.PricePair(1.9048466384265152, 2.1294873442996423)
# the figure1 policy path from its start references is bit-fixed from period 435
FIG1_R0 = rg.PricePair(0.10, 2.95)
FIG1_FIXED_FROM = 435

# deterministic examples, so tier-1 runs the same markets every time
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def policy_path_oracle(params, r0, horizon, policy=None, predict=True):
    """(p, r) of every period by the plain loop, with no stop: period t
    solves p_t = policy(r_t, start=s_t) and sets r_{t+1} =
    reference_update(r_t, p_t). Period 0 has no start (the box midpoint).
    With ``predict``, s_{t+1} = p_t + P (r_{t+1} - r_t), the step of
    ``_policy_step`` on the shares ``_shares`` gives at (p_t, r_t);
    without it s_{t+1} = p_t, the start of the path before the
    prediction. Returns two (2, horizon + 1) arrays."""
    policy = policy or equilibrium_policy
    consts = _consts(params)
    prices, refs = [], []
    r, guess = rg.PricePair(*r0), None
    for _ in range(horizon + 1):
        p = policy(params, r, start=guess)
        prices.append(p)
        refs.append(r)
        r_next, guess = rg.reference_update(params, r, p), p
        if predict:
            shares = _shares(consts, *p, *r)
            step = (r_next.p_H - r.p_H, r_next.p_L - r.p_L)
            dp = equilibrium._policy_step(consts, params.p_lo, params.p_hi, *p, *shares, *step)
            guess = rg.PricePair(p.p_H + dp[0], p.p_L + dp[1])
        r = r_next
    return np.array(prices).T, np.array(refs).T


def path_market(fig1, market: str):
    """(params, r0) of a named equilibrium-path case: fig1, early, stiff,
    saturated (r_H = 30 saturates d_H), or random-<seed>, a random_market
    draw with references drawn from its box by the same generator."""
    if market.startswith("random-"):
        rng = np.random.default_rng(int(market.removeprefix("random-")))
        params = rg.random_market(rng)
        return params, rg.PricePair(*(float(v) for v in rng.uniform(params.p_lo, params.p_hi, 2)))
    return {
        "fig1": (fig1, FIG1_R0),
        "early": (EARLY_FIXED, EARLY_FIXED_R0),
        "stiff": (STIFF, STIFF_R0),
        "saturated": (SATURATED, rg.PricePair(30.0, 1.0)),
    }[market]


def newton_oracle(consts, lo, hi, r, start=None, b=None):
    """The projected Newton as it was written before its one-site loop:
    an ``evaluate`` closure returns a 9-tuple per point, and the line
    search calls it for each trial. Kept as the bit-for-bit oracle of
    ``equilibrium._newton``; it reads ``_shares``, ``equilibrium.TOLERANCE``,
    ``equilibrium.MAX_ITERATIONS`` and ``SolverError`` from that module at call time,
    so a monkeypatch there reaches both."""
    s_H, s_L = consts[1], consts[4]
    # dG_i/dp_j = k_j d_i d_j and dG_i/dp_i = -1/(s_i p_i^2) - k_i d_i (1 - d_i),
    # where k_i = b_i + c_i; with r = p the reference term cancels c_i.
    k_H, k_L = b if r is None else (s_H, s_L)
    r_H, r_L = (None, None) if r is None else r

    # Clamps and the residual's max are written as the conditionals that
    # builtins.min and max evaluate, operand order included, so they give
    # the same floats and pass a NaN through alike.
    def evaluate(x: float, y: float):
        d_H, d_L, q_H, q_L = (
            equilibrium._shares(consts, x, y, x, y)
            if r is None
            else equilibrium._shares(consts, x, y, r_H, r_L)
        )
        g_H = 1.0 / (s_H * x) - q_H
        g_L = 1.0 / (s_L * y) - q_L
        free_H = not ((x <= lo and g_H <= 0.0) or (x >= hi and g_H >= 0.0))
        free_L = not ((y <= lo and g_L <= 0.0) or (y >= hi and g_L >= 0.0))
        e_H = abs(g_H) if free_H else 0.0
        e_L = abs(g_L) if free_L else 0.0
        return e_L if e_L > e_H else e_H, g_H, g_L, d_H, d_L, q_H, q_L, free_H, free_L

    if start is None:
        x = y = 0.5 * (lo + hi)
    else:
        x, y = start
        x = lo if x < lo else hi if x > hi else x
        y = lo if y < lo else hi if y > hi else y
    it = 0
    try:
        trial = evaluate(x, y)
        for it in range(equilibrium.MAX_ITERATIONS + 1):
            res, g_H, g_L, d_H, d_L, q_H, q_L, free_H, free_L = trial
            if res <= equilibrium.TOLERANCE:
                return x, y, res, it, d_H, d_L, q_H, q_L
            if it == equilibrium.MAX_ITERATIONS:
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
            while True:
                nx = x + t * dx
                nx = lo if nx < lo else hi if nx > hi else nx
                ny = y + t * dy
                ny = lo if ny < lo else hi if ny > hi else ny
                stalled = nx == x and ny == y
                if stalled:
                    break
                trial = evaluate(nx, ny)
                if trial[0] <= (1.0 - 1e-4 * t) * res:
                    break
                t *= 0.5
            if stalled:
                break
            x, y = nx, ny
    except ArithmeticError as err:
        raise equilibrium.SolverError(
            f"Newton solver failed: {type(err).__name__}: {err}",
            iterations=it,
            last=(x, y),
        ) from err
    raise equilibrium.SolverError(
        "Newton solver stopped above tolerance",
        iterations=it,
        residual=res,
        last=(x, y),
    )


def bisect_w(target: float, lo: float, hi: float, iters: int = 80) -> float:
    """Independent oracle: bisection on w * e^w = target."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambert_w(x: float) -> float:
    """W(x) for x > 0 through the package's one solver, W(e^y) at y = ln x."""
    return equilibrium._lambert_w_of_exp(math.log(x))


class TestLambertW:
    def test_anchors(self):
        assert math.isclose(lambert_w(math.e), 1.0, rel_tol=1e-14)
        assert math.isclose(lambert_w(1.0), OMEGA, rel_tol=1e-14)

    def test_against_bisection_oracle(self):
        assert math.isclose(lambert_w(1.0), bisect_w(1.0, 0.0, 1.0), rel_tol=1e-13)
        assert math.isclose(lambert_w(50.0), bisect_w(50.0, 0.0, 5.0), rel_tol=1e-13)

    def test_defining_identity_on_log_grid(self):
        for x in np.logspace(-8, 10, 120):
            w = lambert_w(float(x))
            assert w > 0.0
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    @pytest.mark.parametrize("x", [1e300, 1e307, 1.7e308, sys.float_info.max])
    def test_near_the_float_maximum(self, x):
        # w e^w = x in log form; w * e^w itself would overflow
        w = lambert_w(x)
        assert abs(w + math.log(w) - math.log(x)) <= 1e-14 * math.log(x)

    def test_against_scipy(self):
        for x in np.logspace(-6, 9, 40):
            ours = lambert_w(float(x))
            ref = float(scipy.special.lambertw(x).real)
            assert math.isclose(ours, ref, rel_tol=1e-12)

    def test_underflow_gives_zero(self):
        assert equilibrium._lambert_w_of_exp(-800.0) == 0.0

    @pytest.mark.parametrize("y", [-720.0, -744.0])
    def test_subnormal_argument(self, y):
        # W(x) = x to first order; e^y is subnormal here, and a seed written
        # as 1/(1 + e^-y) would overflow
        assert math.isclose(equilibrium._lambert_w_of_exp(y), math.exp(y), rel_tol=1e-12)

    def test_seed_switch_at_one(self):
        assert equilibrium._lambert_w_of_exp(1.0) == 1.0


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

    # frozen: 1/2.82 + W(k e^(a - k))/2 with k = 2/2.82, from mpmath
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

    def test_upper_matches_scipy_on_random_firms(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            params = rg.random_market(rng)
            for firm, (lower, upper) in zip(params.firms, rg.sne_bounds(params)):
                k = firm.b / firm.sensitivity
                w = float(scipy.special.lambertw(k * math.exp(firm.a - k)).real)
                assert math.isclose(upper, lower + w / firm.b, rel_tol=1e-15)

    def test_large_reference_sensitivity_shrinks_lower(self):
        firm = rg.FirmParams(a=5.0, b=1.0, c=500.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=1e-4, p_hi=50.0)
        (lo_H, _), _ = rg.sne_bounds(params)
        assert lo_H < 0.002


class TestValidatePriceBox:
    def _params(self, p_lo, p_hi):
        firm = rg.FirmParams(a=10.0, b=1.0, c=1.0)
        return rg.MarketParams(firm, firm, alpha=0.5, p_lo=p_lo, p_hi=p_hi)

    def _refusal(self, p_lo, p_hi) -> str:
        with pytest.raises(ValueError) as err:
            rg.validate_price_box(self._params(p_lo, p_hi))
        return str(err.value)

    def test_pass(self):
        params = self._params(0.4, 8.0)
        bounds = rg.validate_price_box(params)
        assert bounds == rg.sne_bounds(params)
        assert math.isclose(bounds[0][1], WORKED_UPPER, rel_tol=1e-12)

    def test_fail_upper_reports_threshold(self):
        assert self._refusal(0.4, 7.0) == "price box inadmissible: p_hi must be >= 7.37846"

    def test_fail_lower(self):
        assert self._refusal(0.6, 8.0) == "price box inadmissible: p_lo must be <= 0.5"

    def test_fail_both_joins_the_two_parts(self):
        assert self._refusal(0.6, 7.0) == (
            "price box inadmissible: p_lo must be <= 0.5; p_hi must be >= 7.37846"
        )

    def test_solve_sne_evaluates_the_bounds_once(self, fig1, monkeypatch):
        calls = []

        def counted(params):
            calls.append(params)
            return rg.sne_bounds(params)

        monkeypatch.setattr(equilibrium, "sne_bounds", counted)
        sol = rg.solve_sne(fig1)
        assert calls == [fig1]
        assert sol.bounds == rg.sne_bounds(fig1)


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
        br_H = best_response(fig1, "H", sne.p_L, sne)
        br_L = best_response(fig1, "L", sne.p_H, sne)
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
            root = best_response(fig1, firm, opp, r)
            assert fig1.p_lo < root < fig1.p_hi

    def test_root_has_zero_derivative(self, fig1):
        r = rg.PricePair(0.10, 2.95)
        root = best_response(fig1, "H", 4.86, r)
        D_H, _ = rg.log_rev_derivative(fig1, (root, 4.86), r)
        assert abs(D_H) <= 1e-12

    def test_perturbation_never_improves_revenue(self, fig1):
        rng = np.random.default_rng(12)
        for _ in range(20):
            opp = float(rng.uniform(fig1.p_lo, fig1.p_hi))
            r = rg.PricePair(*rng.uniform(fig1.p_lo, fig1.p_hi, 2))
            p_star = best_response(fig1, "H", opp, r)
            if not fig1.p_lo < p_star < fig1.p_hi:
                continue
            base = revenue(fig1, (p_star, opp), r)[0]
            for d in (-1e-4, 1e-4):
                assert revenue(fig1, (p_star + d, opp), r)[0] <= base + 1e-10

    def test_monopoly_limit_matches_scalar_oracle(self):
        # opponent has utility ~ -80 everywhere: effectively absent
        firm = rg.FirmParams(a=2.0, b=1.0, c=0.0)
        ghost = rg.FirmParams(a=-80.0, b=1.0, c=0.0)
        params = rg.MarketParams(firm, ghost, alpha=0.5, p_lo=0.1, p_hi=20.0)
        r = rg.PricePair(1.0, 1.0)
        root = best_response(params, "H", 1.0, r)
        oracle = monopoly_root_oracle(2.0, 1.0, 0.1, 20.0)
        assert math.isclose(root, oracle, rel_tol=1e-10)

    def test_boundary_return_when_no_sign_change(self):
        # low intrinsic value: the derivative is negative on the whole box
        firm = rg.FirmParams(a=-5.0, b=3.0, c=1.0)
        params = rg.MarketParams(firm, firm, alpha=0.5, p_lo=1.0, p_hi=5.0)
        root = best_response(params, "H", 2.0, rg.PricePair(2.0, 2.0))
        assert root == 1.0

    def test_rejects_bad_firm_and_out_of_box(self, fig1):
        with pytest.raises(ValueError):
            best_response(fig1, "X", 1.0, rg.PricePair(1.0, 1.0))
        with pytest.raises(ValueError):
            best_response(fig1, "H", 100.0, rg.PricePair(1.0, 1.0))

    def test_collapsed_bracket_fails_fast(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "TOLERANCE", 1e-16)
        with pytest.raises(rg.SolverError) as err:
            best_response(COLLAPSING, "L", COLLAPSING_OPPONENT, COLLAPSING_R0)
        lo, hi = err.value.context["bracket"]
        assert err.value.context["iterations"] < 200
        assert not lo < 0.5 * (lo + hi) < hi


def newton_outcome(newton, consts, lo, hi, r, start, b):
    """One solve in comparable form: the 8-tuple with its floats as hex, or
    the SolverError's message, context and cause."""
    try:
        out = newton(consts, lo, hi, r, start, b)
    except rg.SolverError as err:
        return "error", str(err), repr(err.context), type(err.__cause__).__name__
    return tuple(v.hex() if isinstance(v, float) else v for v in out)


class TestNewton:
    @pytest.mark.parametrize(
        "market",
        ["fig1", "early", "stiff", "saturated", *(f"random-{seed}" for seed in range(50))],
    )
    def test_matches_the_closure_oracle(self, fig1, monkeypatch, market):
        params, r0 = path_market(fig1, market)
        consts, lo, hi = _consts(params), params.p_lo, params.p_hi
        b = (params.firm_H.b, params.firm_L.b)
        # the midpoint, each box corner, and a start clipped onto the box
        starts = [None, (lo, lo), (lo, hi), (hi, lo), (hi, hi), (0.5 * lo, 2.0 * hi)]
        # On random-20, 45 and 46 one of these seeded starts has a trial whose
        # residual falls between 1 - 1e-4 t and 1 - 1e-3 t of the accepted
        # one, which pins the Armijo factor.
        rng = np.random.default_rng(0)
        seeded = [tuple(float(v) for v in rng.uniform(lo, hi, 2)) for _ in range(30)]

        def outcomes(starts):
            out = []
            for r in (None, r0):
                for start in starts:
                    ours = newton_outcome(equilibrium._newton, consts, lo, hi, r, start, b)
                    oracle = newton_outcome(newton_oracle, consts, lo, hi, r, start, b)
                    assert ours == oracle, (r, start)
                    out.append(ours)
            return out

        assert all(o[0] != "error" for o in outcomes(starts + seeded))
        with monkeypatch.context() as patch:
            # the stall exit: only a zero residual, both components held on
            # box edges, meets the tolerance
            patch.setattr(equilibrium, "TOLERANCE", 1e-300)
            stalls = [
                o[0] == "error" and "stopped above tolerance" in o[1]
                for o in outcomes(starts)
                if o[2] != (0.0).hex()
            ]
            assert stalls and all(stalls)
        with monkeypatch.context() as patch:
            # the cap exit, after two steps
            patch.setattr(equilibrium, "MAX_ITERATIONS", 2)
            assert any(o[0] == "error" and "'iterations': 2" in o[2] for o in outcomes(starts))
        calls = []

        def shares(*args):
            calls.append(1)
            if len(calls) == k:
                raise OverflowError("math range error")
            return _shares(*args)

        monkeypatch.setattr(equilibrium, "_shares", shares)
        # the count restarts with each solve, so the overflow hits both
        # solvers at the same evaluation
        for k in range(1, 7):
            for r in (None, r0):
                for start in starts:
                    calls.clear()
                    ours = newton_outcome(equilibrium._newton, consts, lo, hi, r, start, b)
                    calls.clear()
                    oracle = newton_outcome(newton_oracle, consts, lo, hi, r, start, b)
                    assert ours == oracle, (k, r, start)
                    if k == 1:
                        assert ours[-1] == "OverflowError"


class TestEquilibriumPolicy:
    def test_fixed_point_at_stationary_prices(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        out = equilibrium_policy(fig1, sne)
        assert math.isclose(out.p_H, sne.p_H, abs_tol=1e-9)
        assert math.isclose(out.p_L, sne.p_L, abs_tol=1e-9)

    def test_symmetric_instance(self, symmetric):
        out = equilibrium_policy(symmetric, rg.PricePair(2.0, 2.0))
        assert abs(out.p_H - out.p_L) < 1e-9

    def test_demo_start_frozen_values_and_residual(self, fig1):
        r0 = rg.PricePair(0.10, 2.95)
        out = equilibrium_policy(fig1, r0)
        assert math.isclose(out.p_H, POLICY_H, rel_tol=1e-9)
        assert math.isclose(out.p_L, POLICY_L, rel_tol=1e-9)
        # stationarity system residual, checked directly
        d_H, d_L, _ = demand(fig1, out, r0)
        s_H = fig1.firm_H.b + fig1.firm_H.c
        s_L = fig1.firm_L.b + fig1.firm_L.c
        assert abs(out.p_H - 1.0 / (s_H * (1.0 - d_H))) <= 1e-10
        assert abs(out.p_L - 1.0 / (s_L * (1.0 - d_L))) <= 1e-10

    def test_rejects_out_of_box_references(self, fig1):
        with pytest.raises(ValueError):
            equilibrium_policy(fig1, rg.PricePair(0.01, 1.0))

    @pytest.mark.parametrize("start", [(math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan_start(self, fig1, start):
        # a NaN iterate fails both exits of the Newton line search, so the
        # solve would never return
        with pytest.raises(ValueError, match="NaN"):
            equilibrium_policy(fig1, rg.PricePair(1.0, 1.0), start=start)

    def test_infinite_start_clamps_onto_the_box(self, fig1):
        r = rg.PricePair(1.0, 1.0)
        out = equilibrium_policy(fig1, r, start=(math.inf, -math.inf))
        edge = equilibrium_policy(fig1, r, start=(fig1.p_hi, fig1.p_lo))
        assert out == edge

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
            top = max(equilibrium_policy(params, refs(params)))
            params = dataclasses.replace(
                params, p_hi=params.p_lo + shrink * (top - params.p_lo)
            )
        r = refs(params)
        p = equilibrium_policy(params, r)
        assert params.in_box(*p)
        assert math.isclose(best_response(params, "H", p.p_L, r), p.p_H, abs_tol=1e-9)
        assert math.isclose(best_response(params, "L", p.p_H, r), p.p_L, abs_tol=1e-9)


class TestSolveSne:
    def test_demo_instance(self, fig1, fig1_sne):
        sol = fig1_sne
        assert sol.residual < 1e-10
        assert math.isclose(sol.prices.p_H, SNE_H, rel_tol=1e-9)
        assert math.isclose(sol.prices.p_L, SNE_L, rel_tol=1e-9)
        for value, (lower, upper) in zip(sol.prices, sol.bounds):
            assert lower < value < upper
        cert = sol.hessian_certificate
        assert cert.det > 0.0 and cert.trace > 0.0 and cert.min_eig > 0.0

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

    @pytest.mark.parametrize("a_L", [-34.0, -38.0, -800.0])
    def test_negligible_demand_is_solved(self, fig1, a_L):
        # d_L** is below about 1e-16, so p_L** rounds onto its lower bound
        # 1/(b_L+c_L); from a_L = -37 the upper bound rounds there too
        firm_L = dataclasses.replace(fig1.firm_L, a=a_L)
        params = dataclasses.replace(fig1, firm_L=firm_L)
        sol = rg.solve_sne(params)
        assert sol.prices.p_L == sol.bounds[1][0] == 1.0 / firm_L.sensitivity
        assert sol.residual <= 2.0**-53
        ledger = rg.check_properties(params, sol, np.random.default_rng(0), 0)
        assert all(passed for _, _, passed in ledger)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_market_inside_bounds_and_stationary(self, seed):
        params = rg.random_market(np.random.default_rng(seed))
        sol = rg.solve_sne(params)
        for value, (lower, upper) in zip(sol.prices, rg.sne_bounds(params)):
            assert lower < value < upper
        g = rg.scaled_derivative(params, sol.prices, sol.prices)
        assert max(abs(g[0]), abs(g[1])) <= 1e-12

    def test_solutions_compare_and_hash_by_identity(self, fig1):
        # the generated dataclass methods would compare, or fail to hash, arrays
        a, b = rg.solve_sne(fig1), rg.solve_sne(fig1)
        assert a == a and a != b
        assert len({a, b}) == 2
        cert_a, cert_b = a.hessian_certificate, b.hessian_certificate
        assert cert_a == cert_a and cert_a != cert_b
        assert len({cert_a, cert_b}) == 2

    def test_agrees_with_long_learning_run(self, fig1, fig1_sne):
        # two independent routes to the same point: the fixed-point
        # solver against a long diminishing-step learning run
        state = rg.MarketState(rg.PricePair(4.85, 4.86), rg.PricePair(0.10, 2.95))
        traj = rg.simulate(fig1, state, rg.StepSchedule.inverse_sqrt(), 100_000)
        sne = fig1_sne.prices
        assert abs(traj.p_H[-1] - sne.p_H) < 1e-3
        assert abs(traj.p_L[-1] - sne.p_L) < 1e-3


class TestSolverError:
    def test_solver_error_carries_context(self, fig1, monkeypatch):
        # an absurdly tight tolerance cannot be met: Newton stalls at the
        # floating-point floor and the error must carry its context
        monkeypatch.setattr(equilibrium, "TOLERANCE", 1e-300)
        monkeypatch.setattr(equilibrium, "MAX_ITERATIONS", 50)
        with pytest.raises(rg.SolverError) as err:
            rg.solve_sne(fig1)
        assert "iterations" in err.value.context

    def test_arithmetic_error_in_newton_carries_context(self, fig1, monkeypatch):
        calls = []

        def overflow_from_call(n):
            def shares(*args):
                calls.append(1)
                if len(calls) >= n:
                    raise OverflowError("math range error")
                return _shares(*args)

            calls.clear()
            monkeypatch.setattr(equilibrium, "_shares", shares)

        mid = 0.5 * (fig1.p_lo + fig1.p_hi)
        overflow_from_call(1)
        with pytest.raises(rg.SolverError, match="OverflowError: math range error") as err:
            rg.solve_sne(fig1)
        assert isinstance(err.value.__cause__, OverflowError)
        assert err.value.context == {"iterations": 0, "last": (mid, mid)}
        # later in a path: the period is attached, and the last iterate is
        # the last one accepted
        overflow_from_call(30)
        with pytest.raises(rg.SolverError, match="equilibrium_path failed at period") as err:
            rg.equilibrium_path(fig1, FIG1_R0, 20)
        context = err.value.context
        assert set(context) == {"period", "iterations", "last"} and context["period"] > 0
        assert fig1.in_box(*context["last"])


def policy_jacobian_at(params, r):
    """(p*(r), P): P as a 2 x 2 array, its columns the steps that
    ``_policy_step`` takes for unit reference steps."""
    p = equilibrium_policy(params, r)
    consts = _consts(params)
    shares = _shares(consts, *p, *r)
    columns = [
        equilibrium._policy_step(consts, params.p_lo, params.p_hi, *p, *shares, *unit)
        for unit in ((1.0, 0.0), (0.0, 1.0))
    ]
    return p, np.array(columns).T


def central_differences(params, r, p, rel_step=1e-5):
    """dp*/dr by central differences of the policy oracle, each solve
    started at p = p*(r); column j steps r_j by rel_step * r_j."""
    columns = []
    for j in range(2):
        h = rel_step * r[j]
        plus, minus = list(r), list(r)
        plus[j] += h
        minus[j] -= h
        p_plus = equilibrium_policy(params, rg.PricePair(*plus), start=p)
        p_minus = equilibrium_policy(params, rg.PricePair(*minus), start=p)
        columns.append((np.array(p_plus) - np.array(p_minus)) / (2.0 * h))
    return np.array(columns).T


class TestPolicyJacobian:
    @pytest.mark.parametrize(
        "market, r",
        [
            ("fig1", (1.5, 1.0)),
            ("fig1", (0.2, 2.95)),
            ("stiff", tuple(STIFF_R0)),
            ("saturated", (30.0, 1.0)),
            ("saturated", (150.0, 3.0)),
            *((f"random-{seed}", None) for seed in range(10)),
        ],
    )
    def test_matches_central_differences_of_the_policy(self, fig1, market, r):
        params, r0 = path_market(fig1, market)
        # a random-<seed> draw takes a reference from the middle of its box
        lo, hi = params.p_lo, params.p_hi
        r = r or tuple(lo + 0.1 * (hi - lo) + 0.8 * (v - lo) for v in r0)
        p, P = policy_jacobian_at(params, r)
        assert all(lo < v < hi for v in p)
        fd = central_differences(params, r, p)
        assert np.max(np.abs(P - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_component_on_a_box_edge_has_a_zero_row(self, fig1):
        # with p_hi cut below its policy price, firm H is held on the edge
        params = dataclasses.replace(fig1, p_hi=1.5)
        r = (1.2, 1.0)
        p, P = policy_jacobian_at(params, r)
        assert p.p_H == params.p_hi and params.p_lo < p.p_L < params.p_hi
        assert P[0].tolist() == [0.0, 0.0]
        fd = central_differences(params, r, p)
        assert fd[0].tolist() == [0.0, 0.0]
        assert np.max(np.abs(P[1] - fd[1])) <= 1e-6 * np.max(np.abs(fd[1]))


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
        # On random_market(default_rng(78)) firm L's alpha*r + (1-alpha)*p
        # rounds one ulp outside [min(r,p), max(r,p)] at period 65. A clamp
        # onto that span, instead of the box, pins r_L there and binds again
        # in every later period (935 updates in all), so it alters the path.
        params = rg.random_market(np.random.default_rng(78))
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

    @pytest.mark.parametrize(
        "market, horizon",
        [
            ("fig1", 300),  # not yet fixed
            ("fig1", FIG1_FIXED_FROM),  # fixed at the last period: nothing to fill
            ("fig1", FIG1_FIXED_FROM + 1),  # one record filled
            ("fig1", 1000),
            ("early", 20),  # not yet fixed
            ("early", 40),
            # Newton's iterates clamped onto the box edges, and with
            # SATURATED 1 - d_H below 2^-53 at some of them
            ("stiff", 40),
            ("saturated", 40),
            *((f"random-{seed}", 40) for seed in range(20)),
        ],
    )
    def test_stop_matches_period_by_period(self, fig1, market, horizon):
        params, r0 = path_market(fig1, market)
        traj = rg.equilibrium_path(params, r0, horizon)
        p, r = policy_path_oracle(params, r0, horizon)
        assert p.tobytes() == np.stack([traj.p_H, traj.p_L]).tobytes()
        assert r.tobytes() == np.stack([traj.r_H, traj.r_L]).tobytes()
        # D_i = 1/p_i - s_i (1 - d_i), recomputed at the oracle's states
        consts = _consts(params)
        D = []
        for p_H, p_L, r_H, r_L in zip(*p, *r):
            _, _, q_H, q_L = _shares(consts, p_H, p_L, r_H, r_L)
            D.append((1.0 / p_H - consts[1] * q_H, 1.0 / p_L - consts[4] * q_L))
        assert np.array(D).T.tobytes() == np.stack([traj.D_H, traj.D_L]).tobytes()

    @pytest.mark.parametrize(
        "market, horizon",
        [
            ("fig1", 1000),
            ("stiff", 40),
            ("saturated", 40),
            *((f"random-{seed}", 40) for seed in range(20)),
        ],
    )
    def test_records_solve_their_period_near_the_unpredicted_path(self, fig1, market, horizon):
        # every record meets Newton's tolerance on its free components ...
        params, r0 = path_market(fig1, market)
        traj = rg.equilibrium_path(params, r0, horizon)
        consts, lo, hi = _consts(params), params.p_lo, params.p_hi
        for p_H, p_L, r_H, r_L in zip(traj.p_H, traj.p_L, traj.r_H, traj.r_L):
            _, _, q_H, q_L = _shares(consts, p_H, p_L, r_H, r_L)
            g_H, g_L = 1.0 / (consts[1] * p_H) - q_H, 1.0 / (consts[4] * p_L) - q_L
            for p, g in ((p_H, g_H), (p_L, g_L)):
                held = (p <= lo and g <= 0.0) or (p >= hi and g >= 0.0)
                assert held or abs(g) <= equilibrium.TOLERANCE
        # ... and the path stays within 1e-11 of the one that starts each
        # period at the last one's prices
        p, r = policy_path_oracle(params, r0, horizon, predict=False)
        ours = np.stack([traj.p_H, traj.p_L, traj.r_H, traj.r_L])
        np.testing.assert_allclose(ours, np.vstack([p, r]), rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize(
        "market, horizon, solves",
        [
            ("fig1", 1000, FIG1_FIXED_FROM + 1),
            ("fig1", 300, 301),
            ("early", 20, 21),
            ("early", 40, 22),
        ],
    )
    def test_stop_solves_up_to_the_fixed_point_only(
        self, fig1, monkeypatch, market, horizon, solves
    ):
        params, r0 = path_market(fig1, market)
        calls = []
        newton = equilibrium._newton

        def counted(*args):
            calls.append(1)
            return newton(*args)

        # one Newton solve per period played
        monkeypatch.setattr(equilibrium, "_newton", counted)
        assert len(equilibrium.equilibrium_path(params, r0, horizon)) == horizon + 1
        assert len(calls) == solves

    @pytest.mark.parametrize("market", ["fig1", "stiff"])
    def test_nan_prediction_starts_at_the_last_prices(self, fig1, monkeypatch, market):
        # Newton's line search never leaves a NaN start, so a NaN step
        # falls back to the start before the prediction, p_{t-1}
        params, r0 = path_market(fig1, market)
        newton = equilibrium._newton

        def refusing_nan(consts, lo, hi, r, start):
            assert start is None or not any(math.isnan(v) for v in start), start
            return newton(consts, lo, hi, r, start)

        monkeypatch.setattr(equilibrium, "_newton", refusing_nan)
        monkeypatch.setattr(equilibrium, "_policy_step", lambda *args: (math.nan, math.nan))
        traj = equilibrium.equilibrium_path(params, r0, 300)
        p, r = policy_path_oracle(params, r0, 300, predict=False)
        assert p.tobytes() == np.stack([traj.p_H, traj.p_L]).tobytes()
        assert r.tobytes() == np.stack([traj.r_H, traj.r_L]).tobytes()

    def test_settled_path_stores_its_fixed_record_once(self, fig1):
        traj = rg.equilibrium_path(fig1, FIG1_R0, 1000)
        assert (len(traj), traj.period, traj.onset) == (1001, 1, FIG1_FIXED_FROM)
        assert stored(traj) == FIG1_FIXED_FROM + 1

    def test_stop_waits_for_the_price_to_repeat(self, fig1, monkeypatch):
        # The solver returns a start that already meets its tolerance
        # unchanged, so with it r_{t+1} == r_t alone implies p_{t+1} == p_t.
        # The stop must hold for any deterministic policy, so this one
        # creeps p_H up one ulp a period, 40 times, while alpha close to 1
        # keeps the references bit-fixed throughout.
        params = dataclasses.replace(fig1, alpha=0.999)
        cap = 2.0 + 40 * math.ulp(2.0)

        def creeping(params, r, start=None):
            if start is None:
                return rg.PricePair(2.0, 1.0)
            return rg.PricePair(min(math.nextafter(start.p_H, math.inf), cap), start.p_L)

        r0 = rg.PricePair(2.0, 1.0)
        p, r = policy_path_oracle(params, r0, 60, policy=creeping)
        assert np.all(r[:, 1:] == r[:, :1]) and p[0, 40] == cap > p[0, 39]
        starts = []

        def creeping_newton(consts, lo, hi, r, start):
            # the per-period seam: the first period has no start of its own
            p = creeping(params, r, start=rg.PricePair(*start) if starts else None)
            starts.append(start)
            return (*p, 0.0, 0, *_shares(consts, *p, *r))

        monkeypatch.setattr(equilibrium, "_newton", creeping_newton)
        traj = equilibrium.equilibrium_path(params, r0, 60)
        assert p.tobytes() == np.stack([traj.p_H, traj.p_L]).tobytes()
        assert r.tobytes() == np.stack([traj.r_H, traj.r_L]).tobytes()

    def test_rejects_bad_inputs(self, fig1):
        with pytest.raises(ValueError):
            rg.equilibrium_path(fig1, rg.PricePair(0.01, 1.0), 10)
        with pytest.raises(ValueError):
            rg.equilibrium_path(fig1, rg.PricePair(1.0, 1.0), 0)
        # a bool is an int in Python, but it is no horizon
        with pytest.raises(ValueError, match="horizon must be an integer >= 1, got True"):
            rg.equilibrium_path(fig1, rg.PricePair(1.0, 1.0), True)
