"""Command-line front end.

    refgame simulate --config cfg.json [--horizon N] [--out PATH]
    refgame sne      --config cfg.json
    refgame compare  --config cfg.json [--horizon N] [--out PATH]
    refgame verify   [--config cfg.json] [--random N] [--seed S]
    refgame figure1  [--variant a|b|c] [--horizon N] [--out PATH]

Exit codes: 0 all checks passed, 1 validation error or an output file
that cannot be written, 2 solver failure, 3 property failure (from
``verify`` only: ``verify_failures`` names the failed checks). Summaries
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
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import (
    FIGURE1_POLICY_HORIZON,
    FIGURE1_VARIANTS,
    ConfigError,
    ExperimentConfig,
    figure1_config,
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
from .model import MarketParams, PricePair

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
    """Print ``key = value``: a bool as true or false, a float to 12
    significant digits, a tuple of (x, y) pairs as ``x:y`` items to 6."""
    if isinstance(value, bool):
        value = "true" if value else "false"
    elif isinstance(value, float):
        value = format(value, ".12g")
    elif isinstance(value, tuple):
        value = " ".join(f"{x:.6g}:{y:.6g}" for x, y in value)
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
    _say("rate_converged", report.converged)
    return EXIT_OK


def cmd_sne(config: ExperimentConfig) -> int:
    sol = solve_sne(config.params)
    _say("command", "sne")
    _print_sne(sol)
    # solve_sne refuses an SNE outside its bounds with SolverError
    _say("bounds_contained", True)
    return EXIT_OK


def cmd_compare(config: ExperimentConfig, out: str | None = None) -> int:
    _validated(config.params)
    out_path = Path(out or config.output_path)
    joined_path = _policy_csv_path(out_path)
    with _output_files(out_path, joined_path):
        sol = solve_sne(config.params)
        sne = sol.prices
        traj = simulate(config.params, config.initial_state(), config.schedule, config.horizon)
        policy_horizon = min(config.horizon, FIGURE1_POLICY_HORIZON)
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


def cmd_verify(
    config: ExperimentConfig | None,
    random_n: int = 0,
    seed: int = 0,
) -> int:
    if random_n < 0:
        raise ConfigError(f"--random must be >= 0, got {random_n}")
    params = config.params if config is not None else figure1_config("a").params
    rng = np.random.default_rng(seed)
    report = analysis.check_properties(params, solve_sne(params), rng)
    _say("command", "verify")
    _say("seed", seed)
    for field in dataclasses.fields(report):
        if field.name != "failures":
            _say(field.name, getattr(report, field.name))

    # solve_sne refuses an SNE outside its bounds, so each solved market is contained
    solver_failures = 0
    for _ in range(random_n):
        try:
            solve_sne(random_market(rng))
        except SolverError:
            solver_failures += 1
    _say("sweep_total", random_n)
    _say("sweep_contained", random_n - solver_failures)
    _say("sweep_solver_failures", solver_failures)

    failures = [*report.failures, *(["sweep"] if solver_failures else [])]
    _say("verify_pass", not failures)
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
        if args.command == "sne":
            return cmd_sne(load_config(args.config))
        if args.command == "verify":
            config = load_config(args.config) if args.config else None
            return cmd_verify(config, random_n=args.random, seed=args.seed)
        if args.command == "figure1":
            config = figure1_config(args.variant)
        else:
            config = load_config(args.config)
        if args.horizon is not None:
            config = config.override(horizon=args.horizon)
        if args.command == "compare" or (args.command == "figure1" and args.variant == "c"):
            return cmd_compare(config, args.out)
        return cmd_simulate(config, args.out)
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
