"""Distance functions, drift/potential landscape, certificates, rates."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refgame as rg
from conftest import (
    SATURATED,
    STIFF,
    TRAJECTORY_COLUMNS,
    built_columns,
    derivative_partials,
    spectral_radius,
    step_jacobian,
)
from oracles import demand, local_potential
from refgame import analysis


def named_market(name: str, fig1) -> rg.MarketParams:
    """figure1, STIFF, SATURATED, or the random market of a seed."""
    params = {"fig1": fig1, "stiff": STIFF, "saturated": SATURATED}.get(name)
    if params is None:
        params = rg.random_market(np.random.default_rng(int(name.removeprefix("random-"))))
    return params


MARKETS = ["fig1", "stiff", "saturated", *(f"random-{seed}" for seed in range(20))]


class TestWeightedL1Distance:
    def test_zero_at_target(self, fig1, fig1_sne):
        assert rg.weighted_l1_distance(fig1, fig1_sne.prices, fig1_sne.prices) == 0.0

    def test_weight_cancellation(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        s_H = fig1.firm_H.b + fig1.firm_H.c
        shifted = (sne.p_H + s_H, sne.p_L)
        assert math.isclose(
            rg.weighted_l1_distance(fig1, shifted, sne), 1.0, rel_tol=1e-15
        )

    def test_hand_scaled_cross_check(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        p0 = (4.85, 4.86)
        expected = abs(sne.p_H - 4.85) / 2.82 + abs(sne.p_L - 4.86) / 1.52
        assert math.isclose(
            rg.weighted_l1_distance(fig1, p0, sne), expected, rel_tol=1e-14
        )


class TestSneDrift:
    def test_zero_at_stationary_point(self, fig1, fig1_sne):
        val = rg.sne_drift(fig1, fig1_sne.prices, fig1_sne.prices)
        assert abs(val) < 1e-11

    def test_positive_on_grid(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        grid = np.linspace(fig1.p_lo, fig1.p_hi, 100)
        gx, gy = np.meshgrid(grid, grid)
        keep = (gx - sne.p_H) ** 2 + (gy - sne.p_L) ** 2 > 1e-3**2
        vals = rg.sne_drift(fig1, (gx[keep], gy[keep]), sne)
        assert float(np.min(vals)) > 0.0

    def test_increases_along_own_price_ray(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        s_H = fig1.firm_H.b + fig1.firm_H.c
        values = []
        for s in np.linspace(0.01, 0.5, 25):
            p = (sne.p_H + s * s_H, sne.p_L)
            values.append(float(rg.sne_drift(fig1, p, sne)))
        assert all(b > a for a, b in zip(values, values[1:]))


def drift_margin(params, sol, p):
    """sne_drift - (sne_drift_bound - slack) at p, slack the verify check's."""
    sne = sol.prices
    slack = 2.0 * sol.residual + 1e-12
    return rg.sne_drift(params, p, sne) - (rg.sne_drift_bound(params, p, sne) - slack)


class TestSneDriftBound:
    @pytest.mark.parametrize("market", MARKETS)
    def test_holds_on_grid_box_and_near_the_sne(self, fig1, market):
        params = named_market(market, fig1)
        sol = rg.solve_sne(params)
        sne = sol.prices
        assert rg.sne_drift_bound(params, sne, sne) == 0.0
        grid = np.linspace(params.p_lo, params.p_hi, 100)
        rng = np.random.default_rng(0)
        box = rng.uniform(params.p_lo, params.p_hi, (2, 2000))
        near = np.array(sne)[:, None] * (1.0 + rng.uniform(-1e-6, 1e-6, (2, 2000)))
        near = np.clip(near, params.p_lo, params.p_hi)
        for p in (np.meshgrid(grid, grid), box, near):
            assert np.all(drift_margin(params, sol, p) >= 0.0)

    def test_nearly_tight_at_figure1_box_edge(self, fig1, fig1_sne):
        # the smallest drift/bound ratio on the verify grid is 1.00024
        grid = np.linspace(fig1.p_lo, fig1.p_hi, 100)
        p = np.meshgrid(grid, grid)
        sne = fig1_sne.prices
        ratio = np.min(rg.sne_drift(fig1, p, sne) / rg.sne_drift_bound(fig1, p, sne))
        assert 1.0 < ratio < 1.001

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_holds_on_figure1_box(self, fig1, fig1_sne, u):
        width = fig1.p_hi - fig1.p_lo
        p = (fig1.p_lo + u[0] * width, fig1.p_lo + u[1] * width)
        assert drift_margin(fig1, fig1_sne, p) >= 0.0


class TestLocalPotential:
    def test_zero_at_stationary_point(self, fig1, fig1_sne):
        assert abs(local_potential(fig1, fig1_sne.prices, fig1_sne.prices)) < 1e-11

    def test_positive_on_small_sphere(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            p = (sne.p_H + 1e-2 * math.cos(theta), sne.p_L + 1e-2 * math.sin(theta))
            assert float(local_potential(fig1, p, sne)) > 0.0

    def test_quadratic_growth_near_stationary_point(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        gamma = rg.hessian_certificate(fig1, sne).gamma_estimate
        # shrink the radius geometrically until the growth bound holds
        rho = 0.1 * (fig1.p_hi - fig1.p_lo)
        for _ in range(20):
            ok = True
            for theta in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
                p = (sne.p_H + rho * math.cos(theta), sne.p_L + rho * math.sin(theta))
                if float(local_potential(fig1, p, sne)) < 0.5 * gamma * rho**2:
                    ok = False
                    break
            if ok:
                break
            rho *= 0.5
        assert ok, "no radius with quadratic growth found"
        assert rho > 1e-4


def certificate_matrix(cert) -> np.ndarray:
    return np.array([[cert.h_HH, cert.h_HL], [cert.h_HL, cert.h_LL]])


class TestHessianCertificate:
    def test_symmetry_and_positive_definiteness(self, fig1, fig1_sne):
        cert = rg.hessian_certificate(fig1, fig1_sne.prices)
        # one off-diagonal entry, so symmetric by construction; no array
        entries = (cert.h_HH, cert.h_HL, cert.h_LL)
        assert all(type(value) is float for value in entries)
        assert cert.det > 0.0 and cert.trace > 0.0 and cert.min_eig > 0.0
        assert cert.gamma_estimate == 0.5 * cert.min_eig

    def test_matches_finite_difference(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        matrix = certificate_matrix(rg.hessian_certificate(fig1, sne))
        h = 1e-4

        def pot(x, y):
            return float(local_potential(fig1, (x, y), sne))

        x, y = sne
        fd = np.empty((2, 2))
        fd[0, 0] = (pot(x + h, y) - 2.0 * pot(x, y) + pot(x - h, y)) / h**2
        fd[1, 1] = (pot(x, y + h) - 2.0 * pot(x, y) + pot(x, y - h)) / h**2
        fd[0, 1] = fd[1, 0] = (
            pot(x + h, y + h) - pot(x + h, y - h) - pot(x - h, y + h) + pot(x - h, y - h)
        ) / (4.0 * h**2)
        err = np.max(np.abs(fd - matrix) / np.maximum(1.0, np.abs(matrix)))
        assert err < 1e-5

    @pytest.mark.parametrize("market", MARKETS)
    def test_eigen_consistency(self, fig1, market):
        # the closed-form smallest eigenvalue against LAPACK's
        params = named_market(market, fig1)
        cert = rg.solve_sne(params).hessian_certificate
        eigs = np.linalg.eigvalsh(certificate_matrix(cert))
        assert math.isclose(cert.min_eig, float(eigs[0]), rel_tol=1e-15)
        assert math.isclose(cert.det, float(np.prod(eigs)), rel_tol=1e-10)
        assert math.isclose(cert.trace, float(np.sum(eigs)), rel_tol=1e-12)


def linearisation(params, sne):
    """M = -S (G_p + G_r) and K = -S ((1+alpha) G_p - (1-alpha) G_r) at
    (p**, p**), with S = diag(b_i + c_i)."""
    dG = derivative_partials(params, sne)
    s = np.array([[f.sensitivity] for f in params.firms])
    g_p, g_r, alpha = dG[:, :2], dG[:, 2:], params.alpha
    return -s * (g_p + g_r), -s * ((1.0 + alpha) * g_p - (1.0 - alpha) * g_r)


def critical_step(params, sne) -> float:
    """eta* = 2 (1+alpha) / lambda_max(K): det(J(eta) + I) = det(2 (1+alpha) I
    - eta K), so a step Jacobian eigenvalue reaches -1 there. K's
    off-diagonal entries have a positive product, so its eigenvalues are real."""
    _, k = linearisation(params, sne)
    eigs = np.linalg.eigvals(k)
    assert np.all(eigs.imag == 0.0)
    return 2.0 * (1.0 + params.alpha) / float(np.max(eigs.real))


def bisected_critical_step(params, sne) -> float:
    """The step where the spectral radius of ``step_jacobian`` first
    reaches 1, bisected from a small stable step to adjacent doubles."""
    lo, hi = 1e-6, 1.0
    while spectral_radius(step_jacobian(params, sne, hi)) <= 1.0:
        lo, hi = hi, 2.0 * hi
    assert spectral_radius(step_jacobian(params, sne, lo)) < 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if spectral_radius(step_jacobian(params, sne, mid)) > 1.0:
            hi = mid
        else:
            lo = mid


class TestLinearisation:
    """M = -S (G_p + G_r) linearises the scaled derivatives on the slice
    r = p at the SNE; ``verify``'s hessian entry checks H = M + M^T."""

    def test_figure1_critical_step(self, fig1, fig1_sne):
        assert math.isclose(critical_step(fig1, fig1_sne.prices), 0.8477489207508805, rel_tol=1e-15)

    @pytest.mark.parametrize("market", MARKETS)
    def test_critical_step_matches_bisection(self, fig1, market):
        params = named_market(market, fig1)
        sne = rg.solve_sne(params).prices
        eta = critical_step(params, sne)
        assert math.isclose(eta, bisected_critical_step(params, sne), rel_tol=1e-14)

    @pytest.mark.parametrize("market", MARKETS)
    def test_kappa_at_least_gamma(self, fig1, market):
        # the numerical range of M, whose smallest real point is gamma,
        # holds its eigenvalues
        params = named_market(market, fig1)
        sol = rg.solve_sne(params)
        m, _ = linearisation(params, sol.prices)
        kappa = float(np.min(np.linalg.eigvals(m).real))
        assert kappa >= sol.hessian_certificate.gamma_estimate


# A constant step below the critical step of the figure1 SNE (about 0.848):
# at eta = 1 the SNE is an unstable fixed point and rounding noise grows
# into the variant (b) cycle, so only a contracting step can stay put.
STATIONARY_ETA = 0.5


CHECK_NAMES = ("gradient", "bounds", "drift", "hessian", "sweep")


def ledger_lines(ledger) -> dict:
    return {key: value for _, lines, _ in ledger for key, value in lines}


def rescaled(params, k):
    """The market stated in a currency unit k times smaller: the box k
    times wider, b and c k times smaller; a and alpha unchanged."""

    def firm(f):
        return rg.FirmParams(a=f.a, b=f.b / k, c=f.c / k)

    return rg.MarketParams(
        firm_H=firm(params.firm_H), firm_L=firm(params.firm_L), alpha=params.alpha,
        p_lo=k * params.p_lo, p_hi=k * params.p_hi,
    )


class TestCheckProperties:
    def test_figure1_passes_every_check(self, fig1, fig1_sne):
        ledger = rg.check_properties(fig1, fig1_sne, np.random.default_rng(0), 2)
        assert [(name, passed) for name, _, passed in ledger] == [
            (name, True) for name in CHECK_NAMES
        ]
        lines = ledger_lines(ledger)
        assert lines["gradient_max_rel_err"] < 1e-6
        assert lines["bounds_violations"] == 0
        assert lines["drift_grid_min"] > 0.0 and lines["drift_bound_violations"] == 0
        assert lines["hessian_identity_rel_err"] <= 16.0 * (fig1_sne.residual + 2.0**-52)
        assert lines["sweep_total"] == lines["sweep_contained"] == 2

    def test_saturated_market_passes_every_check(self):
        # the premise: at 25 of the 100 gradient states d_L lies below
        # the smallest normal double, where demand clamps it and log
        # revenue turns flat in p_L
        states = np.random.default_rng(0).uniform(SATURATED.p_lo, SATURATED.p_hi, (100, 4)).T
        d_L = demand(SATURATED, states[:2], states[2:])[1]
        assert np.sum(d_L == sys.float_info.min) >= 10
        ledger = rg.check_properties(
            SATURATED, rg.solve_sne(SATURATED), np.random.default_rng(0), 0
        )
        assert [(name, passed) for name, _, passed in ledger] == [
            (name, True) for name in CHECK_NAMES
        ]
        assert ledger_lines(ledger)["gradient_max_rel_err"] < 1e-6

    def test_rng_draws_gradient_states_then_bound_samples_only(self, fig1, fig1_sne):
        # the sweep, here of no markets, draws its markets from the same
        # generator next
        rng = np.random.default_rng(11)
        rg.check_properties(fig1, fig1_sne, rng, 0)
        twin = np.random.default_rng(11)
        for _ in range(100):
            twin.uniform(fig1.p_lo, fig1.p_hi, 4)
        twin.uniform(fig1.p_lo, fig1.p_hi, size=(4, 10_000))
        assert rng.uniform() == twin.uniform()

    @pytest.mark.parametrize("k", [2.0**-10, 2.0**-3, 2.0**3, 2.0**10])
    def test_drift_and_hessian_entries_are_unit_free(self, fig1, fig1_sne, k):
        # drift, bound and slack are unit-free, and so are the certificate
        # and M + M^T relative to their largest entry; a power-of-two unit
        # scales every price, grid point and b_i, c_i exactly
        params = rescaled(fig1, k)
        ledger = rg.check_properties(params, rg.solve_sne(params), np.random.default_rng(0), 0)
        base = rg.check_properties(fig1, fig1_sne, np.random.default_rng(0), 0)
        assert repr(ledger[2:4]) == repr(base[2:4])
        assert [(name, passed) for name, _, passed in base[2:4]] == [
            ("drift", True), ("hessian", True)
        ]


def _constant_trajectory(params, point, n=100):
    state = rg.MarketState(prices=point, references=point)
    return rg.simulate(params, state, rg.StepSchedule.constant(STATIONARY_ETA), n)


class TestRateFit:
    def test_stationary_trajectory_has_zero_sups(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        assert spectral_radius(step_jacobian(fig1, sne, STATIONARY_ETA)) < 1.0
        traj = _constant_trajectory(fig1, sne)
        report = rg.rate_fit(traj, sne, window_fraction=0.5)
        assert report.sup_t_dist2 < 1e-12
        assert report.sup_t2_gap2 < 1e-12
        assert report.converged

    def test_window_selection(self, fig1, fig1_sne):
        traj = _constant_trajectory(fig1, fig1_sne.prices, n=100)
        report = rg.rate_fit(traj, fig1_sne.prices, window_fraction=0.25)
        assert report.window == (75, 100)
        explicit = rg.rate_fit(traj, fig1_sne.prices, window=(10, 20))
        assert explicit.window == (10, 20)
        with pytest.raises(ValueError):
            rg.rate_fit(traj, fig1_sne.prices, window=(90, 200))
        with pytest.raises(ValueError):
            rg.rate_fit(traj, fig1_sne.prices, window_fraction=0.0)

    def test_sup_values_match_direct_computation(self, fig1, fig1_sne):
        state = rg.MarketState(rg.PricePair(4.85, 4.86), rg.PricePair(0.10, 2.95))
        traj = rg.simulate(fig1, state, rg.StepSchedule.inverse_sqrt(), 500)
        sne = fig1_sne.prices
        report = rg.rate_fit(traj, sne, window=(100, 500))
        t = np.arange(100, 501, dtype=float)
        dist2 = (traj.p_H[100:] - sne.p_H) ** 2 + (traj.p_L[100:] - sne.p_L) ** 2
        gap2 = (traj.r_H[100:] - traj.p_H[100:]) ** 2 + (traj.r_L[100:] - traj.p_L[100:]) ** 2
        assert math.isclose(report.sup_t_dist2, float(np.max(t * dist2)), rel_tol=1e-14)
        assert math.isclose(report.sup_t2_gap2, float(np.max(t * t * gap2)), rel_tol=1e-14)

    def test_constant_step_does_not_converge(self, fig1, fig1_sne):
        state = rg.MarketState(rg.PricePair(4.85, 4.86), rg.PricePair(0.10, 2.95))
        traj = rg.simulate(fig1, state, rg.StepSchedule.constant(1.0), 10_000)
        report = rg.rate_fit(traj, fig1_sne.prices, window_fraction=0.5)
        assert not report.converged


def orbit_cases():
    """(params, sne, trajectory) of seeded random markets under constant
    steps, most ending in an orbit of period 2 or more, plus two fixed
    points: the settled figure1 (a) run and a pinned one far from the SNE."""
    rng = np.random.default_rng(0)
    for _ in range(8):
        params = rg.random_market(rng)
        sne = rg.solve_sne(params).prices
        lo, hi = params.p_lo, params.p_hi
        low, high = lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)
        init = rg.MarketState(rg.PricePair(low, high), rg.PricePair(high, low))
        for eta in (0.3, 1.0, 3.0):
            yield params, sne, rg.simulate(params, init, rg.StepSchedule.constant(eta), 20_000)
    cfg = rg.figure1_config("a")
    sne = rg.solve_sne(cfg.params).prices
    yield cfg.params, sne, rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, 20_000)
    pinned = rg.MarketParams(cfg.params.firm_H, cfg.params.firm_L, 0.995, 0.1, 0.5)
    init = rg.MarketState(rg.PricePair(0.5, 0.5), rg.PricePair(0.1, 0.5))
    yield pinned, sne, rg.simulate(pinned, init, rg.StepSchedule.inverse_sqrt(1.0), 20_000)


class TestOrbitReads:
    def test_orbit_form_agrees_with_its_expanded_columns(self):
        # rate_fit and cycle_detector read an orbit's stored records; a
        # trajectory built from the expanded columns has no orbit and is
        # read as plain arrays
        periods, verdicts = [], set()
        for params, sne, traj in orbit_cases():
            plain = rg.Trajectory(
                params, traj.schedule, *(getattr(traj, c) for c in TRAJECTORY_COLUMNS)
            )
            assert (plain.period, plain.onset, len(plain)) == (0, len(traj), len(traj))
            last = len(traj) - 1
            onset = min(traj.onset, last)
            windows = [
                {"window_fraction": 0.5},
                {"window_fraction": 1.0},
                {"window": (last, last)},
                {"window": (max(onset - 5, 0), min(onset + 3 * traj.period + 7, last))},
                {"window": (onset + traj.period, last)},
                {"window": (0, onset)},
                {"window": (0, min(onset + traj.period, last))},
            ]
            for kwargs in windows:
                assert rg.rate_fit(traj, sne, **kwargs) == rg.rate_fit(plain, sne, **kwargs)
            for tail in (1e-4, 0.2, 0.99):
                verdict = rg.cycle_detector(traj, sne, tail_fraction=tail)
                assert verdict == rg.cycle_detector(plain, sne, tail_fraction=tail)
                verdicts.add(verdict)
            assert traj.final_state() == plain.final_state()
            periods.append(traj.period)
        # the premise: orbits of several periods, and all three verdicts
        assert len(set(periods) - {0, 1}) >= 3 and periods.count(1) >= 2
        assert verdicts == {rg.CONVERGED, rg.CYCLING, rg.UNDECIDED}

    def test_tail_from_before_the_onset_builds_no_column(self, fig1_sne):
        # figure1 a over 900 periods is bit-fixed from period 760, and its
        # 20% tail starts at period 721, before the onset
        cfg = rg.figure1_config("a")
        traj = rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, 900)
        assert (traj.period, traj.onset) == (1, 760)
        verdict = rg.cycle_detector(traj, fig1_sne.prices)
        assert not built_columns(traj)
        plain = rg.Trajectory(
            traj.params, traj.schedule, *(getattr(traj, c) for c in TRAJECTORY_COLUMNS)
        )
        assert verdict == rg.cycle_detector(plain, fig1_sne.prices) == rg.CONVERGED


class TestCycleDetector:
    def test_stationary_is_converged(self, fig1, fig1_sne):
        assert spectral_radius(step_jacobian(fig1, fig1_sne.prices, STATIONARY_ETA)) < 1.0
        traj = _constant_trajectory(fig1, fig1_sne.prices)
        assert rg.cycle_detector(traj, fig1_sne.prices) == rg.CONVERGED

    def test_diminishing_steps_converge(self, fig1, fig1_sne):
        state = rg.MarketState(rg.PricePair(4.85, 4.86), rg.PricePair(0.10, 2.95))
        traj = rg.simulate(fig1, state, rg.StepSchedule.inverse_sqrt(), 20_000)
        assert rg.cycle_detector(traj, fig1_sne.prices) == rg.CONVERGED

    def test_unit_constant_step_cycles(self, fig1, fig1_sne):
        state = rg.MarketState(rg.PricePair(4.85, 4.86), rg.PricePair(0.10, 2.95))
        traj = rg.simulate(fig1, state, rg.StepSchedule.constant(1.0), 10_000)
        assert rg.cycle_detector(traj, fig1_sne.prices) == rg.CYCLING

    def test_slow_drift_is_undecided(self, fig1, fig1_sne):
        # far from the stationary point but monotone: not a cycle
        sne = fig1_sne.prices
        n = 200
        p_H = np.linspace(4.0, 4.5, n)
        traj = rg.Trajectory(
            params=fig1,
            schedule="synthetic",
            p_H=p_H.copy(),
            p_L=np.full(n, 4.0),
            r_H=p_H.copy(),
            r_L=np.full(n, 4.0),
            D_H=np.zeros(n),
            D_L=np.zeros(n),
        )
        assert rg.cycle_detector(traj, sne, tail_fraction=0.5) == rg.UNDECIDED

    def test_empty_trajectory_refused(self, fig1):
        # the constructor refuses it, so no reader meets an empty trajectory
        with pytest.raises(ValueError, match="trajectory is empty"):
            rg.Trajectory(fig1, "synthetic", *(np.empty(0) for _ in range(6)))

    def test_tail_fraction_validated(self, fig1, fig1_sne):
        traj = _constant_trajectory(fig1, fig1_sne.prices, n=20)
        with pytest.raises(ValueError):
            rg.cycle_detector(traj, fig1_sne.prices, tail_fraction=0.0)
        with pytest.raises(ValueError):
            rg.cycle_detector(traj, fig1_sne.prices, tail_fraction=1.0)
