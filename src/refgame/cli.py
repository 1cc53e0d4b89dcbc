"""Command-line front end.

    refgame simulate --config cfg.json [--horizon N] [--out PATH]
    refgame sne      --config cfg.json
    refgame compare  --config cfg.json [--horizon N] [--out PATH]
    refgame verify   [--config cfg.json] [--random N] [--seed S]
    refgame figure1  [--variant a|b|c] [--horizon N] [--out PATH]

Exit codes: 0 all checks passed, 1 validation error or an output file
that cannot be written, 2 solver failure, 3 property failure (from
``verify`` only: ``verify_failures`` names the failed entries of
``analysis.check_properties``, comma-joined in ledger order: ``gradient``,
``bounds``, ``drift``, ``hessian``, and ``sweep`` when a random market's
SNE solve failed). A config number outside the float range is a validation
error and exits 1. Summaries go to standard output as ``key = value``
lines; trajectories are written as CSV with the fixed header

    t,p_H,p_L,r_H,r_L,D_H,D_L,dist2_sne,eps_l1

one row per period, LF line endings, each float cell exactly
``format(x, ".17g")`` (17 significant digits). Rows repeat by the one rule
of ``Trajectory``: past ``onset``, row t is record ``onset + (t - onset) % period``.
``dist2_sne`` is the Euclidean distance of the price pair to the
stationary equilibrium solved once per run; ``eps_l1`` the
sensitivity-weighted l1 distance. ``sne_residual`` in a summary is the
dimensionless max|G_i| of the scaled first-order conditions at the SNE.

``compare`` (and ``figure1 --variant c``) also writes ``<out stem>_policy.csv``:
the learning and equilibrium-policy reference paths, both over the run's
one horizon, and their gap, one row per period.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
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
    _load_params,
    figure1_config,
    load_config,
)
from .dynamics import Trajectory, simulate
from .equilibrium import (
    SolverError,
    SneSolution,
    equilibrium_path,
    solve_sne,
)
from .model import MarketParams, PricePair

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_PROPERTY = 3

CSV_HEADER = "t,p_H,p_L,r_H,r_L,D_H,D_L,dist2_sne,eps_l1"
CSV_CHUNK_ROWS = 1024


def _write_rows(f, n: int, onset: int, period: int, *records: np.ndarray) -> None:
    """Write rows t = 0 .. n - 1 as ``t,x_1,..,x_k``, each x as ``"%.17g" % x``,
    which is ``format(x, ".17g")``, by the repeat rule of ``Trajectory``:
    row t < onset is record t of ``records``, a later row is record
    ``onset + (t - onset) % period`` (period 0 comes with onset n). Each
    record is formatted once, CSV_CHUNK_ROWS rows of plain floats at a time,
    which saves per-value call overhead and bounds the text held in memory.

    Past the stored records, the rows from the first whole hundred at or
    above ``max(stored, 100)`` up to the last whole hundred are written a
    hundred at a time. For q >= 1, ``"%d" % (100q + r)`` is ``str(q)`` followed
    by ``"%02d" % r``, so rows 100q .. 100q + 99 are
    ``str(q).join(["", "00" + tail_0, .., "99" + tail_99])``, the same bytes
    as one ``"%d%s"`` per row. A row's tail depends only on
    ``(t - onset) % period``, so a block's texts depend only on its phase
    ``(100q - onset) % period``; the ``period // gcd(period, 100)`` phases
    that blocks take in turn are each built once. The rows around the
    blocks keep the one-row form."""
    tail = ",%.17g" * len(records) + "\n"
    stored = min(n, onset + period)
    orbit = []
    for start in range(0, stored, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, stored)
        tails = [tail % values for values in zip(*(r[start:stop].tolist() for r in records))]
        orbit += tails[max(onset - start, 0) :]
        f.write("".join(map("%d%s".__mod__, zip(range(start, stop), tails))))
    if stored == n:
        return

    def write_each(start: int, stop: int) -> None:
        tails = itertools.islice(itertools.cycle(orbit), (start - onset) % period, None)
        f.write("".join(map("%d%s".__mod__, zip(range(start, stop), tails))))

    # blocks q = first .. last - 1 hold rows 100 * first .. 100 * last - 1
    first = max(-(-stored // 100), 1)
    last = max(first, n // 100)
    write_each(stored, min(100 * first, n))
    blocks = itertools.cycle(
        [""] + ["%02d%s" % (r, orbit[(100 * q + r - onset) % period]) for r in range(100)]
        for q in range(first, first + period // math.gcd(period, 100))
    )
    per_write = CSV_CHUNK_ROWS // 100
    for start in range(first, last, per_write):
        qs = range(start, min(start + per_write, last))
        f.write("".join(str(q).join(texts) for q, texts in zip(qs, blocks)))
    write_each(100 * last, n)


def _say(key: str, value) -> None:
    """Print ``key = value``: a bool as true or false, a float to 12
    significant digits."""
    if isinstance(value, bool):
        value = "true" if value else "false"
    elif isinstance(value, float):
        value = format(value, ".12g")
    print(f"{key} = {value}")


def write_trajectory_csv(path: str | Path, traj: Trajectory, sne: PricePair) -> None:
    """Write a trajectory in the standard nine-column schema from its stored records."""
    records = traj._take(slice(None))
    dist = np.hypot(records[0] - sne.p_H, records[1] - sne.p_L)
    eps = analysis.weighted_l1_distance(traj.params, records[:2], sne)
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(CSV_HEADER + "\n")
        _write_rows(f, len(traj), traj.onset, traj.period, *records, dist, eps)


def _write_joined_refs_csv(path: str | Path, learn: Trajectory, policy: Trajectory) -> None:
    """Joined reference-price paths of one horizon, one row per period. The
    rows repeat from the later onset with the lcm of the two periods; a path
    of period 0 has its length as onset and makes the lcm 0, so no row repeats."""
    onset = max(learn.onset, policy.onset)
    period = math.lcm(learn.period, policy.period)
    t = np.arange(onset + period)
    _, _, grad_H, grad_L, _, _ = learn._take(t)
    _, _, policy_H, policy_L, _, _ = policy._take(t)
    gap = np.hypot(grad_H - policy_H, grad_L - policy_L)
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write("t,r_H_grad,r_L_grad,r_H_policy,r_L_policy,ref_gap\n")
        _write_rows(f, len(learn), onset, period, grad_H, grad_L, policy_H, policy_L, gap)


@contextlib.contextmanager
def _output_files(*paths: str | Path):
    """Create or truncate each output file, so that a path that cannot be
    written fails with ``OSError`` before the run's price paths are
    computed; if the body then raises, remove the files that did not exist
    before, so a failed run leaves no new file. A path that already existed (a file, a
    link, a device such as ``/dev/null``) is never removed. The commands
    solve the SNE before opening their files, so an inadmissible box or a
    failed solve opens none."""
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


def _gap_inf(x: PricePair, y: PricePair) -> float:
    """Sup-norm distance of two price pairs."""
    return max(abs(x.p_H - y.p_H), abs(x.p_L - y.p_L))


def _print_sne(sol: SneSolution) -> None:
    (lo_H, up_H), (lo_L, up_L) = sol.bounds
    cert = sol.hessian_certificate
    _say("sne_p_H", sol.prices.p_H)
    _say("sne_p_L", sol.prices.p_L)
    _say("sne_residual", sol.residual)
    _say("sne_iterations", sol.iterations)
    _say("bound_lower_H", lo_H)
    _say("bound_upper_H", up_H)
    _say("bound_lower_L", lo_L)
    _say("bound_upper_L", up_L)
    _say("hessian_det", cert.det)
    _say("hessian_trace", cert.trace)
    _say("hessian_min_eig", cert.min_eig)
    _say("gamma_estimate", cert.gamma_estimate)


def cmd_simulate(config: ExperimentConfig, out: str | None = None) -> int:
    sol = solve_sne(config.params)
    out_path = out or config.output_path
    with _output_files(out_path):
        traj = simulate(config.params, config.initial_state(), config.schedule, config.horizon)
        write_trajectory_csv(out_path, traj, sol.prices)

    sne = sol.prices
    final = traj.final_state()
    report = analysis.rate_fit(traj, sne, window_fraction=0.5)
    _say("command", "simulate")
    _say("schedule", traj.schedule)
    _say("horizon", config.horizon)
    _say("output", str(out_path))
    _print_sne(sol)
    _say("terminal_price_gap_inf", _gap_inf(final.prices, sne))
    _say("terminal_ref_gap_inf", _gap_inf(final.references, sne))
    _say("orbit_period", traj.period)
    _say("orbit_onset", traj.onset)
    _say("verdict", analysis.cycle_detector(traj, sne, tail_fraction=0.2))
    _say("rate_window", f"{report.window[0]}..{report.window[1]}")
    _say("rate_sup_t_dist2", report.sup_t_dist2)
    _say("rate_sup_t2_gap2", report.sup_t2_gap2)
    _say("rate_converged", report.converged)
    return EXIT_OK


def cmd_sne(params: MarketParams) -> int:
    sol = solve_sne(params)
    _say("command", "sne")
    _print_sne(sol)
    # solve_sne refuses an SNE outside its bounds with SolverError
    _say("bounds_contained", True)
    return EXIT_OK


def cmd_compare(config: ExperimentConfig, out: str | None = None) -> int:
    sol = solve_sne(config.params)
    sne = sol.prices
    out_path = Path(out or config.output_path)
    joined_path = _policy_csv_path(out_path)
    with _output_files(out_path, joined_path):
        traj = simulate(config.params, config.initial_state(), config.schedule, config.horizon)
        policy = equilibrium_path(config.params, config.init_references, config.horizon)

        write_trajectory_csv(out_path, traj, sne)
        _write_joined_refs_csv(joined_path, traj, policy)

    grad_refs = traj.final_state().references
    policy_refs = policy.final_state().references
    _say("command", "compare")
    _say("schedule", traj.schedule)
    _say("horizon", config.horizon)
    _say("output", str(out_path))
    _say("output_policy", str(joined_path))
    _print_sne(sol)
    _say("terminal_ref_gap_grad", _gap_inf(grad_refs, sne))
    _say("terminal_ref_gap_policy", _gap_inf(policy_refs, sne))
    _say("terminal_mutual_gap", _gap_inf(grad_refs, policy_refs))
    _say("orbit_period", traj.period)
    _say("orbit_onset", traj.onset)
    return EXIT_OK


def cmd_verify(
    params: MarketParams | None,
    random_n: int = 0,
    seed: int = 0,
) -> int:
    if random_n < 0:
        raise ConfigError(f"--random must be >= 0, got {random_n}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if params is None:
        params = figure1_config("a").params
    ledger = analysis.check_properties(
        params, solve_sne(params), np.random.default_rng(seed), random_n
    )
    _say("command", "verify")
    _say("seed", seed)
    for _, lines, _ in ledger:
        for key, value in lines:
            _say(key, value)
    failures = [name for name, _, passed in ledger if not passed]
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
            return cmd_sne(_load_params(args.config))
        if args.command == "verify":
            params = _load_params(args.config) if args.config else None
            return cmd_verify(params, random_n=args.random, seed=args.seed)
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
