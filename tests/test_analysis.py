"""Distance functions, drift/potential landscape, certificates, rates."""

import math

import numpy as np
import pytest

import refgame as rg
from conftest import spectral_radius, step_jacobian


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


class TestQuadrant:
    SNE = rg.PricePair(2.0, 1.0)

    def test_origin(self):
        assert rg.quadrant((2.0, 1.0), self.SNE) == "ORIGIN"

    def test_boundary_conventions(self):
        # axis points follow the half-open assignments
        assert rg.quadrant((2.5, 1.0), self.SNE) == "N1"  # p_L == sne_L joins N1
        assert rg.quadrant((2.0, 1.5), self.SNE) == "N2"  # p_H == sne_H joins N2
        assert rg.quadrant((1.5, 1.0), self.SNE) == "N3"  # p_L == sne_L joins N3
        assert rg.quadrant((2.0, 0.5), self.SNE) == "N4"  # p_H == sne_H joins N4

    def test_open_quadrants(self):
        assert rg.quadrant((3.0, 2.0), self.SNE) == "N1"
        assert rg.quadrant((1.0, 2.0), self.SNE) == "N2"
        assert rg.quadrant((1.0, 0.5), self.SNE) == "N3"
        assert rg.quadrant((3.0, 0.5), self.SNE) == "N4"

    def test_totality_and_uniqueness(self):
        # direct re-statement of the four half-open conditions
        def memberships(p):
            p_H, p_L = p
            s_H, s_L = self.SNE
            return [
                p_H > s_H and p_L >= s_L,
                p_H <= s_H and p_L > s_L,
                p_H < s_H and p_L <= s_L,
                p_H >= s_H and p_L < s_L,
            ]

        rng = np.random.default_rng(13)
        points = rng.uniform(0.0, 4.0, size=(500, 2)).tolist()
        points += [(2.0, 1.0), (2.0, 3.0), (2.0, 0.2), (0.3, 1.0), (3.3, 1.0)]
        for p in points:
            label = rg.quadrant(p, self.SNE)
            flags = memberships(p)
            if label == "ORIGIN":
                assert flags == [False, False, False, False]
            else:
                assert sum(flags) == 1
                assert label == f"N{flags.index(True) + 1}"


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


class TestLocalPotential:
    def test_zero_at_stationary_point(self, fig1, fig1_sne):
        assert abs(rg.local_potential(fig1, fig1_sne.prices, fig1_sne.prices)) < 1e-11

    def test_positive_on_small_sphere(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            p = (sne.p_H + 1e-2 * math.cos(theta), sne.p_L + 1e-2 * math.sin(theta))
            assert float(rg.local_potential(fig1, p, sne)) > 0.0

    def test_quadratic_growth_near_stationary_point(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        gamma = rg.hessian_certificate(fig1, sne).gamma_estimate
        # shrink the radius geometrically until the growth bound holds
        rho = 0.1 * (fig1.p_hi - fig1.p_lo)
        for _ in range(20):
            ok = True
            for theta in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
                p = (sne.p_H + rho * math.cos(theta), sne.p_L + rho * math.sin(theta))
                if float(rg.local_potential(fig1, p, sne)) < 0.5 * gamma * rho**2:
                    ok = False
                    break
            if ok:
                break
            rho *= 0.5
        assert ok, "no radius with quadratic growth found"
        assert rho > 1e-4


class TestHessianCertificate:
    def test_symmetry_and_positive_definiteness(self, fig1, fig1_sne):
        cert = rg.hessian_certificate(fig1, fig1_sne.prices)
        assert cert.matrix[0, 1] == cert.matrix[1, 0]
        assert cert.det > 0.0 and cert.trace > 0.0 and cert.min_eig > 0.0
        assert cert.gamma_estimate == 0.5 * cert.min_eig

    def test_matches_finite_difference(self, fig1, fig1_sne):
        sne = fig1_sne.prices
        cert = rg.hessian_certificate(fig1, sne)
        h = 1e-4

        def pot(x, y):
            return float(rg.local_potential(fig1, (x, y), sne))

        x, y = sne
        fd = np.empty((2, 2))
        fd[0, 0] = (pot(x + h, y) - 2.0 * pot(x, y) + pot(x - h, y)) / h**2
        fd[1, 1] = (pot(x, y + h) - 2.0 * pot(x, y) + pot(x, y - h)) / h**2
        fd[0, 1] = fd[1, 0] = (
            pot(x + h, y + h) - pot(x + h, y - h) - pot(x - h, y + h) + pot(x - h, y - h)
        ) / (4.0 * h**2)
        err = np.max(np.abs(fd - cert.matrix) / np.maximum(1.0, np.abs(cert.matrix)))
        assert err < 1e-5

    def test_eigen_consistency(self, fig1, fig1_sne):
        cert = rg.hessian_certificate(fig1, fig1_sne.prices)
        eigs = np.linalg.eigvalsh(cert.matrix)
        assert math.isclose(cert.det, float(np.prod(eigs)), rel_tol=1e-10)
        assert math.isclose(cert.trace, float(np.sum(eigs)), rel_tol=1e-12)


class TestRateConstants:
    def _params(self, alpha):
        firm = rg.FirmParams(a=2.0, b=1.0, c=0.5)
        return rg.MarketParams(firm, firm, alpha=alpha, p_lo=0.2, p_hi=4.0)

    def test_memoryless_case(self):
        params = self._params(0.0)
        m_g, _ = rg.bound_constants(params)
        rc = rg.rate_constants(params, gamma_estimate=1.0)
        assert rc.lam == 0.5
        sum_sq = 2 * 1.5**2
        assert math.isclose(rc.lam0, m_g**2 * sum_sq, rel_tol=1e-14)
        assert math.isclose(rc.c1, m_g**2 * sum_sq, rel_tol=1e-14)

    def test_heavy_memory_arithmetic(self):
        rc = rg.rate_constants(self._params(0.9), gamma_estimate=2.0)
        assert math.isclose(rc.lam, 0.905, rel_tol=1e-15)
        assert rc.d_eta == 1.0

    def test_demo_instance_all_finite_positive(self, fig1, fig1_sne):
        gamma = rg.hessian_certificate(fig1, fig1_sne.prices).gamma_estimate
        rc = rg.rate_constants(fig1, gamma)
        for value in (rc.lam, rc.lam0, rc.t_lam, rc.c1, rc.c2, rc.gamma_estimate, rc.d_eta):
            assert math.isfinite(value) and value > 0.0
        assert rc.lam < 1.0

    def test_frozen_memory_rejected(self):
        with pytest.raises(ValueError):
            rg.rate_constants(self._params(1.0), gamma_estimate=1.0)
        with pytest.raises(ValueError):
            rg.rate_constants(self._params(0.5), gamma_estimate=0.0)

    def test_lipschitz_coupling_term(self):
        params = self._params(0.5)
        _, l_r = rg.bound_constants(params)
        rc = rg.rate_constants(params, gamma_estimate=1.0)
        assert math.isclose(rc.c2, 2.0 * l_r * (4.0 - 0.2) * 3.0, rel_tol=1e-14)


# A constant step below the critical step of the figure1 SNE (about 0.848):
# at eta = 1 the SNE is an unstable fixed point and rounding noise grows
# into the variant (b) cycle, so only a contracting step can stay put.
STATIONARY_ETA = 0.5


class TestCheckProperties:
    def test_figure1_passes_every_check(self, fig1, fig1_sne):
        report = rg.check_properties(fig1, fig1_sne, np.random.default_rng(0))
        assert report.failures == ()
        assert report.gradient_max_rel_err < 1e-6
        assert report.bounds_violations == 0
        assert report.drift_grid_min > 0.0 and report.drift_shells_increasing
        assert report.hessian_fd_max_rel_err < 1e-5

    def test_rng_draws_gradient_states_then_bound_samples_only(self, fig1, fig1_sne):
        # the verify sweep draws its markets from the same generator next
        rng = np.random.default_rng(11)
        rg.check_properties(fig1, fig1_sne, rng)
        twin = np.random.default_rng(11)
        for _ in range(100):
            twin.uniform(fig1.p_lo, fig1.p_hi, 4)
        twin.uniform(fig1.p_lo, fig1.p_hi, size=(4, 10_000))
        assert rng.uniform() == twin.uniform()


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
            eta=np.ones(n),
        )
        assert rg.cycle_detector(traj, sne, tail_fraction=0.5) == rg.UNDECIDED

    def test_tail_fraction_validated(self, fig1, fig1_sne):
        traj = _constant_trajectory(fig1, fig1_sne.prices, n=20)
        with pytest.raises(ValueError):
            rg.cycle_detector(traj, fig1_sne.prices, tail_fraction=0.0)
        with pytest.raises(ValueError):
            rg.cycle_detector(traj, fig1_sne.prices, tail_fraction=1.0)
