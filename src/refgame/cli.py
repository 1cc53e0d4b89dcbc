"""Command-line front end.

    refgame simulate --config cfg.json [--horizon N] [--out PATH]
    refgame sne      --config cfg.json
    refgame compare  --config cfg.json [--horizon N] [--out PATH]
    refgame verify   [--config cfg.json] [--random N] [--seed S]
    refgame figure1  [--variant a|b|c] [--horizon N] [--out PATH]

Exit codes: 0 all checks passed, 1 validation error or an output file
that cannot be written, 2 solver failure, 3 property failure. Summaries
go to standard output as ``key = value`` lines; trajectories are written
as CSV with the fixed header

    t,p_H,p_L,r_H,r_L,D_H,D_L,dist2_sne,eps_l1

one row per period, LF line endings, each float cell exactly
``format(x, ".17g")`` (17 significant digits).
``dist2_sne`` is the Euclidean distance of the price pair to the
stationary equilibrium solved once per run; ``eps_l1`` the
sensitivity-weighted l1 distance. ``sne_residual`` in a summary is the
dimensionless max|G_i| of the scaled first-order conditions at the SNE.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import (
    FIGURE1_VARIANTS,
    ConfigError,
    ExperimentConfig,
    figure1_config,
    figure1_policy_horizon,
    load_config,
    random_market,
)
from .dynamics import Trajectory, simulate
from .equilibrium import (
    SolverConfig,
    SolverError,
    SneSolution,
    equilibrium_path,
    solve_sne,
    validate_price_box,
)
from .model import (
    MarketParams,
    PricePair,
    bound_constants,
    log_rev_derivative,
    revenue,
    scaled_derivative,
    scaled_derivative_partials,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_PROPERTY = 3

CSV_HEADER = "t,p_H,p_L,r_H,r_L,D_H,D_L,dist2_sne,eps_l1"
CSV_CHUNK_ROWS = 1024


def _write_rows(f, t: np.ndarray, *columns: np.ndarray) -> None:
    """Write rows ``t,x_1,..,x_k``: t an int, each x as ``"%.17g" % x``, which
    is ``format(x, ".17g")``. Formatting plain floats CSV_CHUNK_ROWS rows at a
    time saves per-value call overhead and bounds the text held in memory.

    A row is *fresh* when some float column differs from the row before in
    its bits (bits, not values: ``0.0 == -0.0`` but they print differently).
    The tail ``,x_1,..,x_k`` is formatted once per fresh row and reused for
    the bit-identical rows after it, so a settled run is printed at the
    cost of its t column. The first row of every chunk counts as fresh, so
    a chunk never needs a tail from the chunk before."""
    fresh = np.zeros(len(t), dtype=bool)
    for col in columns:
        bits = col.view(np.uint64)
        fresh[1:] |= bits[1:] != bits[:-1]
    fresh[::CSV_CHUNK_ROWS] = True
    tail = ",%.17g" * len(columns) + "\n"
    for start in range(0, len(t), CSV_CHUNK_ROWS):
        stop = start + CSV_CHUNK_ROWS
        is_fresh = fresh[start:stop]
        fresh_values = zip(*(col[start:stop][is_fresh].tolist() for col in columns))
        tails = [tail % values for values in fresh_values]
        # row i takes the tail of the last fresh row at or before it
        row_tails = map(tails.__getitem__, (np.cumsum(is_fresh) - 1).tolist())
        f.write("".join(map("%d%s".__mod__, zip(t[start:stop].tolist(), row_tails))))


def _say(key: str, value) -> None:
    if isinstance(value, float):
        value = format(value, ".12g")
    print(f"{key} = {value}")


def write_trajectory_csv(path: str | Path, traj: Trajectory, sne: PricePair) -> None:
    """Write a trajectory in the standard nine-column schema."""
    dist = np.hypot(traj.p_H - sne.p_H, traj.p_L - sne.p_L)
    eps = analysis.weighted_l1_distance(traj.params, (traj.p_H, traj.p_L), sne)
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(CSV_HEADER + "\n")
        _write_rows(
            f, traj.periods, traj.p_H, traj.p_L, traj.r_H, traj.r_L,
            traj.D_H, traj.D_L, dist, eps,
        )


def _write_joined_refs_csv(
    path: str | Path, learn: Trajectory, policy: Trajectory
) -> None:
    """Joined reference-price paths over the policy path's horizon."""
    n = min(len(learn), len(policy))
    gap = np.hypot(
        learn.r_H[:n] - policy.r_H[:n], learn.r_L[:n] - policy.r_L[:n]
    )
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write("t,r_H_grad,r_L_grad,r_H_policy,r_L_policy,ref_gap\n")
        _write_rows(
            f, np.arange(n), learn.r_H[:n], learn.r_L[:n],
            policy.r_H[:n], policy.r_L[:n], gap,
        )


@contextlib.contextmanager
def _output_files(*paths: str | Path):
    """Create or truncate each output file, so that a path that cannot be
    written fails with ``OSError`` before any computing; if the body then
    raises, remove the files that did not exist before, so a failed run
    leaves no new file. A path that already existed (a file, a link, a
    device such as ``/dev/null``) is never removed."""
    created = []
    try:
        for path in paths:
            existed = os.path.lexists(path)
            with open(path, "w", encoding="ascii"):
                pass
            if not existed:
                created.append(Path(path))
        yield
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise


def _policy_csv_path(out: str | Path) -> Path:
    out = Path(out)
    return out.with_name(out.stem + "_policy" + (out.suffix or ".csv"))


def _validated(params: MarketParams) -> None:
    check = validate_price_box(params)
    if not check.ok:
        raise ConfigError(check.describe())


def _print_sne(sol: SneSolution) -> None:
    (lo_H, up_H), (lo_L, up_L) = sol.bounds
    det, trace, min_eig = sol.hessian_certificate
    _say("sne_p_H", sol.prices.p_H)
    _say("sne_p_L", sol.prices.p_L)
    _say("sne_residual", sol.residual)
    _say("sne_iterations", sol.iterations)
    _say("bound_lower_H", lo_H)
    _say("bound_upper_H", up_H)
    _say("bound_lower_L", lo_L)
    _say("bound_upper_L", up_L)
    _say("hessian_det", det)
    _say("hessian_trace", trace)
    _say("hessian_min_eig", min_eig)
    _say("gamma_estimate", 0.5 * min_eig)


def cmd_simulate(config: ExperimentConfig, out: str | None = None) -> int:
    _validated(config.params)
    out_path = out or config.output_path
    with _output_files(out_path):
        sol = solve_sne(config.params)
        traj = simulate(config.params, config.initial_state(), config.schedule, config.horizon)
        write_trajectory_csv(out_path, traj, sol.prices)

    sne = sol.prices
    term_p = max(abs(traj.p_H[-1] - sne.p_H), abs(traj.p_L[-1] - sne.p_L))
    term_r = max(abs(traj.r_H[-1] - sne.p_H), abs(traj.r_L[-1] - sne.p_L))
    report = analysis.rate_fit(traj, sne, window_fraction=0.5)
    _say("command", "simulate")
    _say("schedule", traj.schedule)
    _say("horizon", config.horizon)
    _say("output", str(out_path))
    _print_sne(sol)
    _say("terminal_price_gap_inf", float(term_p))
    _say("terminal_ref_gap_inf", float(term_r))
    _say("verdict", analysis.cycle_detector(traj, sne, tail_fraction=0.2))
    _say("rate_window", f"{report.window[0]}..{report.window[1]}")
    _say("rate_sup_t_dist2", report.sup_t_dist2)
    _say("rate_sup_t2_gap2", report.sup_t2_gap2)
    _say("rate_converged", str(report.converged).lower())
    return EXIT_OK


def cmd_sne(config: ExperimentConfig) -> int:
    _validated(config.params)
    sol = solve_sne(config.params)
    _say("command", "sne")
    _print_sne(sol)
    contained = all(
        lower < value < upper
        for value, (lower, upper) in zip(sol.prices, sol.bounds)
    )
    _say("bounds_contained", str(contained).lower())
    return EXIT_OK if contained else EXIT_PROPERTY


def cmd_compare(config: ExperimentConfig, out: str | None = None) -> int:
    _validated(config.params)
    out_path = Path(out or config.output_path)
    joined_path = _policy_csv_path(out_path)
    with _output_files(out_path, joined_path):
        sol = solve_sne(config.params)
        sne = sol.prices
        traj = simulate(config.params, config.initial_state(), config.schedule, config.horizon)
        policy_horizon = min(config.horizon, figure1_policy_horizon())
        policy = equilibrium_path(config.params, config.init_references, policy_horizon)

        write_trajectory_csv(out_path, traj, sne)
        _write_joined_refs_csv(joined_path, traj, policy)

    term_grad = max(abs(traj.r_H[-1] - sne.p_H), abs(traj.r_L[-1] - sne.p_L))
    term_pol = max(abs(policy.r_H[-1] - sne.p_H), abs(policy.r_L[-1] - sne.p_L))
    mutual = max(
        abs(traj.r_H[-1] - policy.r_H[-1]), abs(traj.r_L[-1] - policy.r_L[-1])
    )
    _say("command", "compare")
    _say("schedule", traj.schedule)
    _say("horizon", config.horizon)
    _say("policy_horizon", policy_horizon)
    _say("output", str(out_path))
    _say("output_policy", str(joined_path))
    _print_sne(sol)
    _say("terminal_ref_gap_grad", float(term_grad))
    _say("terminal_ref_gap_policy", float(term_pol))
    _say("terminal_mutual_gap", float(mutual))
    return EXIT_OK


def _central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _floored_rel(err: float, ref: float) -> float:
    return abs(err) / max(1.0, abs(ref))


def _verify_gradients(params: MarketParams, n_states: int, rng) -> float:
    """Max floored relative error of D and the four G partials vs FD."""
    worst = 0.0
    lo, hi = params.p_lo, params.p_hi
    for _ in range(n_states):
        p_H, p_L, r_H, r_L = rng.uniform(lo, hi, 4)
        # D_i against the finite difference of log revenue in own price
        for i, p_i in ((0, p_H), (1, p_L)):
            def log_rev(x):
                p = (x, p_L) if i == 0 else (p_H, x)
                pi = revenue(params, p, (r_H, r_L))[i]
                return math.log(pi)

            analytic = log_rev_derivative(params, (p_H, p_L), (r_H, r_L))[i]
            fd = _central_diff(log_rev, p_i)
            worst = max(worst, _floored_rel(fd - analytic, analytic))
        # the 2x4 partial table against finite differences of G
        table = scaled_derivative_partials(params, (p_H, p_L), (r_H, r_L))
        coords = [p_H, p_L, r_H, r_L]
        for row, firm in enumerate(("H", "L")):
            own, other = (0, 1) if firm == "H" else (1, 0)
            layout = [own, other, 2 + own, 2 + other]
            for col, coord_idx in enumerate(layout):
                def g_of(x):
                    c = list(coords)
                    c[coord_idx] = x
                    return scaled_derivative(params, (c[0], c[1]), (c[2], c[3]))[row]

                fd = _central_diff(g_of, coords[coord_idx])
                worst = max(worst, _floored_rel(fd - table[row, col], table[row, col]))
    return worst


def _verify_bounds(params: MarketParams, n_samples: int, rng) -> int:
    """Count violations of |G_i| <= m_g and reference-gradient norm <= l_r."""
    m_g, l_r = bound_constants(params)
    lo, hi = params.p_lo, params.p_hi
    states = rng.uniform(lo, hi, size=(4, n_samples))
    g_H, g_L = scaled_derivative(params, (states[0], states[1]), (states[2], states[3]))
    table = scaled_derivative_partials(
        params, (states[0], states[1]), (states[2], states[3])
    )
    grad_H = np.hypot(table[0, 2], table[0, 3])
    grad_L = np.hypot(table[1, 2], table[1, 3])
    # one-ulp slack so equality-at-the-bound never counts as a violation
    tol = 1e-12
    violations = int(np.sum(np.abs(g_H) > m_g + tol))
    violations += int(np.sum(np.abs(g_L) > m_g + tol))
    violations += int(np.sum(grad_H > l_r + tol))
    violations += int(np.sum(grad_L > l_r + tol))
    return violations


def _shell_minimum(params: MarketParams, sne: PricePair, eps: float, n: int = 400) -> float:
    """Min of the drift over the weighted-l1 sphere of radius eps."""
    s_H = params.firm_H.b + params.firm_H.c
    s_L = params.firm_L.b + params.firm_L.c
    t = (np.arange(n) + 0.5) / n
    best = math.inf
    for sig_H in (1.0, -1.0):
        for sig_L in (1.0, -1.0):
            p_H = sne.p_H + sig_H * t * eps * s_H
            p_L = sne.p_L + sig_L * (1.0 - t) * eps * s_L
            ok = (
                (p_H >= params.p_lo)
                & (p_H <= params.p_hi)
                & (p_L >= params.p_lo)
                & (p_L <= params.p_hi)
            )
            if not np.any(ok):
                continue
            vals = analysis.sne_drift(params, (p_H[ok], p_L[ok]), sne)
            best = min(best, float(np.min(vals)))
    return best


def _shell_radii(params: MarketParams, sne: PricePair) -> tuple[float, float, float]:
    s_H = params.firm_H.b + params.firm_H.c
    s_L = params.firm_L.b + params.firm_L.c
    eps_max = 0.9 * min(
        (params.p_hi - sne.p_H) / s_H,
        (sne.p_H - params.p_lo) / s_H,
        (params.p_hi - sne.p_L) / s_L,
        (sne.p_L - params.p_lo) / s_L,
    )
    return (0.25 * eps_max, 0.5 * eps_max, eps_max)


def _verify_drift(params: MarketParams, sne: PricePair) -> tuple[float, int, list, bool]:
    grid = np.linspace(params.p_lo, params.p_hi, 100)
    gx, gy = np.meshgrid(grid, grid)
    keep = (gx - sne.p_H) ** 2 + (gy - sne.p_L) ** 2 > 1e-3**2
    vals = analysis.sne_drift(params, (gx[keep], gy[keep]), sne)
    radii = _shell_radii(params, sne)
    minima = [(_shell_minimum(params, sne, e)) for e in radii]
    increasing = minima[0] < minima[1] < minima[2]
    return float(np.min(vals)), int(keep.sum()), list(zip(radii, minima)), increasing


def _verify_hessian(params: MarketParams, sne: PricePair) -> tuple[float, bool]:
    cert = analysis.hessian_certificate(params, sne)
    h = 1e-4

    def pot(p_H, p_L):
        return float(analysis.local_potential(params, (p_H, p_L), sne))

    x, y = sne.p_H, sne.p_L
    fd = np.empty((2, 2))
    fd[0, 0] = (pot(x + h, y) - 2.0 * pot(x, y) + pot(x - h, y)) / h**2
    fd[1, 1] = (pot(x, y + h) - 2.0 * pot(x, y) + pot(x, y - h)) / h**2
    fd[0, 1] = fd[1, 0] = (
        pot(x + h, y + h) - pot(x + h, y - h) - pot(x - h, y + h) + pot(x - h, y - h)
    ) / (4.0 * h**2)
    err = max(
        _floored_rel(fd[i, j] - cert.matrix[i, j], cert.matrix[i, j])
        for i in (0, 1)
        for j in (0, 1)
    )
    pd = cert.det > 0.0 and cert.trace > 0.0
    return err, pd


def cmd_verify(
    config: ExperimentConfig | None,
    random_n: int = 0,
    seed: int = 0,
) -> int:
    params = config.params if config is not None else figure1_config("a").params
    _validated(params)
    rng = np.random.default_rng(seed)
    failures = []

    _say("command", "verify")
    _say("seed", seed)

    grad_err = _verify_gradients(params, 100, rng)
    _say("gradient_states", 100)
    _say("gradient_max_rel_err", grad_err)
    if not grad_err < 1e-6:
        failures.append("gradient")

    violations = _verify_bounds(params, 10_000, rng)
    _say("bounds_samples", 10_000)
    _say("bounds_violations", violations)
    if violations:
        failures.append("bounds")

    sol = solve_sne(params)
    drift_min, n_grid, shells, increasing = _verify_drift(params, sol.prices)
    _say("drift_grid_points", n_grid)
    _say("drift_grid_min", drift_min)
    _say(
        "drift_shell_minima",
        " ".join(f"{e:.6g}:{m:.6g}" for e, m in shells),
    )
    _say("drift_shells_increasing", str(increasing).lower())
    if not (drift_min > 0.0 and increasing):
        failures.append("drift")

    hess_err, hess_pd = _verify_hessian(params, sol.prices)
    _say("hessian_pd", str(hess_pd).lower())
    _say("hessian_fd_max_rel_err", hess_err)
    if not (hess_pd and hess_err < 1e-5):
        failures.append("hessian")

    contained = 0
    solver_failures = 0
    for _ in range(random_n):
        inst = random_market(rng)
        try:
            inst_sol = solve_sne(inst)
        except SolverError:
            solver_failures += 1
            continue
        if all(
            lower < value < upper
            for value, (lower, upper) in zip(inst_sol.prices, inst_sol.bounds)
        ):
            contained += 1
    _say("sweep_total", random_n)
    _say("sweep_contained", contained)
    _say("sweep_solver_failures", solver_failures)
    if random_n and (contained != random_n or solver_failures):
        failures.append("sweep")

    _say("verify_pass", str(not failures).lower())
    if failures:
        _say("verify_failures", ",".join(failures))
        return EXIT_PROPERTY
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="refgame",
        description="Duopoly pricing under logit demand with reference effects.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the learning dynamics, write a CSV")
    sim.add_argument("--config", required=True, help="JSON experiment file")
    sim.add_argument("--horizon", type=int, default=None)
    sim.add_argument("--out", default=None)

    sne = sub.add_parser("sne", help="solve the stationary equilibrium")
    sne.add_argument("--config", required=True)

    cmp_ = sub.add_parser("compare", help="learning path vs equilibrium-policy path")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--horizon", type=int, default=None)
    cmp_.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the property suites")
    ver.add_argument("--config", default=None)
    ver.add_argument("--random", type=int, default=0, help="random instances to sweep")
    ver.add_argument("--seed", type=int, default=0)

    fig = sub.add_parser("figure1", help="bundled demonstration presets")
    fig.add_argument("--variant", choices=FIGURE1_VARIANTS, default="a")
    fig.add_argument("--horizon", type=int, default=None)
    fig.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = load_config(args.config)
            if args.horizon is not None:
                config = config.override(horizon=args.horizon)
            return cmd_simulate(config, args.out)
        if args.command == "sne":
            return cmd_sne(load_config(args.config))
        if args.command == "compare":
            config = load_config(args.config)
            if args.horizon is not None:
                config = config.override(horizon=args.horizon)
            return cmd_compare(config, args.out)
        if args.command == "verify":
            config = load_config(args.config) if args.config else None
            return cmd_verify(config, random_n=args.random, seed=args.seed)
        if args.command == "figure1":
            config = figure1_config(args.variant)
            if args.horizon is not None:
                config = config.override(horizon=args.horizon)
            if args.variant == "c":
                return cmd_compare(config, args.out)
            return cmd_simulate(config, args.out)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ValueError as err:  # ConfigError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        where = err.filename or "output"
        print(f"error: cannot write {where}: {err.strerror or err}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as err:
        detail = f" [{err.context}]" if err.context else ""
        print(f"solver failure: {err}{detail}", file=sys.stderr)
        return EXIT_SOLVER


def entry_point() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
