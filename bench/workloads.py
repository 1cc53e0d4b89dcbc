"""One benchmark workload in a fresh interpreter (the child of run.py).

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
                               --workdir DIR [--setup-only]

The child imports ``refgame`` from ``src/`` of the checkout it sits in,
builds the workload's inputs from the seed and prints ``ready``. With
``--setup-only`` it then times the reference task and stops. Otherwise
it makes a fixed number of passes of the workload's timed body, as many
as fit in about S seconds (see ``rounds``), checks every output, and
prints one JSON line with its measurements. With ``--trace 1`` it
alternates untraced and traced passes; a traced pass wraps each layer's
public function in a span (see ``traced``), so the program itself is
never edited.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import inspect
import io
import json
import math
import re
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent

# Frozen figure1 stationary equilibrium (mpmath, 22 digits), as in the tests.
FIG1_SNE = (1.920413366139232687344, 0.8006783990990236124562)
SNE_REL_TOL = 1e-9
FIG1A_ROWS = 100_001
# Long enough that dynamics.simulate dominates; the cycle never settles.
CYCLE_PERIODS = 1_000_000
SWEEP_MARKETS = 300
# The sweep's markets come from this fixed seed, so every run meets the same
# known failures, whatever its --seed: 4 is the first seed whose markets show
# all three kinds (see README). --seed shuffles the order of a pass.
MARKET_SEED = 4
# One market in SATURATED_EVERY gets a large a_H, where demand saturates.
SATURATED_EVERY = 20
SATURATED_A_H = (30.0, 60.0)
PATH_PERIODS = 20
STATIONARITY_TOL = 1e-9
# A run makes at least this many rounds of passes (see ``rounds``).
MIN_ROUNDS = 2
# The host's speed drifts by tens of percent over minutes. A fixed task that
# uses only the standard library is timed between operations, at least every
# REFERENCE_EVERY_S of them, and each operation's latency is scaled by
# NOMINAL_REFERENCE_S over the task's time around it: latencies read as on a
# host where the reference task takes exactly that long.
NOMINAL_REFERENCE_S = 0.005
REFERENCE_REPEATS = 3
REFERENCE_EVERY_S = 0.25

# (layer, module, public function) whose calls a traced pass wraps in a span.
LAYERS = (
    ("cli.main", "cli", "main"),
    ("cli.write_trajectory_csv", "cli", "write_trajectory_csv"),
    ("dynamics.simulate", "dynamics", "simulate"),
    ("equilibrium.solve_sne", "equilibrium", "solve_sne"),
    ("equilibrium.equilibrium_path", "equilibrium", "equilibrium_path"),
    ("analysis.rate_fit", "analysis", "rate_fit"),
    ("analysis.cycle_detector", "analysis", "cycle_detector"),
)


def _note_csv(tracer, args, result):
    tracer.note("cli.write_trajectory_csv.rows", len(args["traj"]))
    tracer.note("cli.write_trajectory_csv.bytes", Path(args["path"]).stat().st_size)


def _note_simulate(tracer, args, result):
    tracer.note("dynamics.simulate.periods", args["horizon"])


def _note_solve(tracer, args, result):
    tracer.note("equilibrium.solve_sne.iterations", result.iterations)


def _note_path(tracer, args, result):
    tracer.note("equilibrium.equilibrium_path.periods", args["horizon"])


# counters recorded at the span boundary, from the call's arguments and result
NOTES = {
    "cli.write_trajectory_csv": _note_csv,
    "dynamics.simulate": _note_simulate,
    "equilibrium.solve_sne": _note_solve,
    "equilibrium.equilibrium_path": _note_path,
}


def _wrap(tracer: harness.Tracer, layer: str, fn):
    signature = inspect.signature(fn)
    note = NOTES.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.note(layer + ".calls", 1)
        start = tracer.clock()
        try:
            with tracer.span(layer):
                result = fn(*args, **kwargs)
        except Exception:
            tracer.note(layer + ".failed", 1)
            tracer.note(layer + ".failed_s", tracer.clock() - start)
            raise
        if note is not None:
            note(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: harness.Tracer):
    """Route every binding of each layer function in ``refgame`` through a span.

    A function is bound in its own module and in every module that
    imported it by name (``cli`` imports ``solve_sne``, for one), so each
    of those bindings is replaced, and all are restored on exit.
    """
    import refgame

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "refgame"]
    saved = []
    for layer, module, name in LAYERS:
        original = getattr(getattr(refgame, module), name)
        wrapper = _wrap(tracer, layer, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    saved.append((m, attr, original))
                    setattr(m, attr, wrapper)
    try:
        yield
    finally:
        for m, attr, original in saved:
            setattr(m, attr, original)


@dataclass
class Op:
    """One operation of a pass: its latency, and why it failed, if it did."""

    latency: float
    error: str | None = None
    output: object = None
    # reference-task time around the operation (mean of the timings before and after)
    reference: float = math.nan

    @property
    def scaled(self) -> float:
        return self.latency * NOMINAL_REFERENCE_S / self.reference


@dataclass
class Checked:
    """Outcome of checking one pass's outputs: what was wrong, by operation index."""

    wrong: dict[int, str] = field(default_factory=dict)
    fingerprint: str = ""

    def flag(self, index: int, problem: str) -> None:
        self.wrong.setdefault(index, problem)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _error_key(stage: str, err: Exception) -> str:
    detail = re.sub(r"^equilibrium_path failed at period \d+: ", "", str(err))
    return f"{stage} {type(err).__name__}: {detail}"


def reference_s() -> float:
    """Best of REFERENCE_REPEATS timings of a fixed task that never touches refgame."""
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        x, values = 0.5, []
        for i in range(20_000):
            x = math.exp(-x) + 0.125 * (i & 7)
            values.append(x)
        ",".join(format(v, ".17g") for v in values[:2_000])
        best = min(best, time.perf_counter() - start)
    return best


class Recorder:
    """The operations of one pass, with the reference task timed between them.

    The task runs before the first operation and again once at least
    REFERENCE_EVERY_S of operations have been timed since it last ran, so
    it never falls inside an operation's latency.
    """

    def __init__(self):
        self.ops: list[Op] = []
        self._pending: list[Op] = []
        self._since = 0.0
        self._last = reference_s()

    def add(self, op: Op) -> None:
        self.ops.append(op)
        self._pending.append(op)
        self._since += op.latency
        if self._since >= REFERENCE_EVERY_S:
            self.flush()

    def time(self, stage: str, fn) -> None:
        start = time.perf_counter()
        try:
            output = fn()
        except Exception as err:  # counted and reported per pass, never hidden
            self.add(Op(time.perf_counter() - start, _error_key(stage, err)))
            return
        self.add(Op(time.perf_counter() - start, output=output))

    def flush(self) -> None:
        if not self._pending:
            return
        after = reference_s()
        for op in self._pending:
            op.reference = 0.5 * (self._last + after)
        self._last, self._pending, self._since = after, [], 0.0


class Figure1A:
    """The paper's main reproduction run through the CLI, CSV included."""

    # seconds per pass, checks included, on a 2-core x86-64 host (see ``rounds``)
    pass_s = 1.6

    def __init__(self, rg, seed: int, workdir: Path):
        self.rg = rg
        self.csv = workdir / "figure1a.csv"
        self.argv = ["figure1", "--variant", "a", "--out", str(self.csv)]
        self.csv_problems: dict[str, list[str]] = {}

    def _main(self):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = self.rg.cli.main(self.argv)
        return code, captured.getvalue()

    def run(self, rec: Recorder) -> None:
        self.csv.unlink(missing_ok=True)
        rec.time("cli.main", self._main)

    def check(self, ops: list[Op]) -> Checked:
        out = Checked()
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            code, text = op.output
            if code != 0 or not self.csv.is_file():
                out.flag(i, f"exit code {code}, CSV written: {self.csv.is_file()}")
                continue
            summary = dict(
                line.split(" = ", 1) for line in text.splitlines() if " = " in line
            )
            with open(self.csv, "rb") as f:  # streamed, so the check adds no peak memory
                digest = hashlib.file_digest(f, "sha256").hexdigest()
            if summary.get("verdict") != "CONVERGED":
                out.flag(i, f"verdict {summary.get('verdict')!r}, expected CONVERGED")
            for key, ref in zip(("sne_p_H", "sne_p_L"), FIG1_SNE):
                value = float(summary.get(key, "nan"))
                if not _rel(value, ref) <= SNE_REL_TOL:
                    out.flag(i, f"{key} {value!r} off the frozen {ref!r}")
            # a file already checked is recognised by its digest
            if digest not in self.csv_problems:
                self.csv_problems[digest] = harness.check_trajectory_csv(
                    self.csv, self.rg.cli.CSV_HEADER, FIG1A_ROWS
                )
            for problem in self.csv_problems[digest]:
                out.flag(i, "CSV " + problem)
            out.fingerprint = digest + text
        return out


class CycleB:
    """Figure1 variant (b), constant step 1, in memory for CYCLE_PERIODS periods."""

    pass_s = 2.3

    def __init__(self, rg, seed: int, workdir: Path):
        self.rg = rg
        self.config = rg.config.figure1_config("b").override(horizon=CYCLE_PERIODS)

    def _body(self):
        rg, cfg = self.rg, self.config
        sol = rg.equilibrium.solve_sne(cfg.params)
        traj = rg.dynamics.simulate(cfg.params, cfg.initial_state(), cfg.schedule, cfg.horizon)
        report = rg.analysis.rate_fit(traj, sol.prices, window_fraction=0.5)
        verdict = rg.analysis.cycle_detector(traj, sol.prices, tail_fraction=0.2)
        final = traj.final_state()
        return sol, (*final.prices, *final.references), report, verdict

    def run(self, rec: Recorder) -> None:
        rec.time("cycle-b", self._body)

    def check(self, ops: list[Op]) -> Checked:
        out = Checked()
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            sol, final, report, verdict = op.output
            if verdict != self.rg.analysis.CYCLING:
                out.flag(i, f"verdict {verdict!r}, expected CYCLING")
            for value, ref in zip(sol.prices, FIG1_SNE):
                if not _rel(value, ref) <= SNE_REL_TOL:
                    out.flag(i, f"SNE price {value!r} off the frozen {ref!r}")
            bits = [float(x).hex() for x in (*sol.prices, *final, report.sup_t_dist2)]
            out.fingerprint = f"{bits} {sol.iterations} {verdict}"
        return out


def make_markets(rg, seed: int = MARKET_SEED):
    """SWEEP_MARKETS random admissible markets with start references, from ``seed``.

    Every SATURATED_EVERY-th market gets a_H ~ U[30, 60] and its box
    rebuilt from ``sne_bounds`` the way ``random_market`` builds it;
    that slice keeps the saturated-demand defect in view.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    markets = []
    for k in range(SWEEP_MARKETS):
        params = rg.config.random_market(rng)
        if k % SATURATED_EVERY == SATURATED_EVERY - 1:
            firm_H = replace(params.firm_H, a=float(rng.uniform(*SATURATED_A_H)))
            probe = replace(params, firm_H=firm_H, p_lo=1.0, p_hi=2.0)
            (lo_H, up_H), (lo_L, up_L) = rg.equilibrium.sne_bounds(probe)
            params = replace(probe, p_lo=0.9 * min(lo_H, lo_L), p_hi=1.1 * max(up_H, up_L))
        r0 = rg.model.PricePair(*(float(x) for x in rng.uniform(params.p_lo, params.p_hi, 2)))
        markets.append((params, r0))
    return markets


class Sweep:
    """solve_sne and a PATH_PERIODS equilibrium_path on each market, in seeded order."""

    pass_s = 9.0

    def __init__(self, rg, seed: int, workdir: Path):
        import numpy as np

        self.rg = rg
        markets = make_markets(rg)
        self.markets = [markets[k] for k in np.random.default_rng(seed).permutation(len(markets))]

    def run(self, rec: Recorder) -> None:
        eq = self.rg.equilibrium
        for params, r0 in self.markets:
            start = time.perf_counter()
            stage = "equilibrium.solve_sne"
            try:
                sol = eq.solve_sne(params)
                stage = "equilibrium.equilibrium_path"
                path = eq.equilibrium_path(params, r0, PATH_PERIODS)
            except Exception as err:  # counted and reported per pass, never hidden
                rec.add(Op(time.perf_counter() - start, _error_key(stage, err)))
                continue
            rec.add(Op(time.perf_counter() - start, output=(sol, path)))

    def check(self, ops: list[Op]) -> Checked:
        import numpy as np

        out = Checked()
        digest = hashlib.sha256()
        for k, ((params, _), op) in enumerate(zip(self.markets, ops)):
            if op.error is not None:
                digest.update(op.error.encode())
                continue
            sol, path = op.output
            p = sol.prices
            for value, (lower, upper) in zip(p, sol.bounds):
                if not lower < value < upper:
                    out.flag(k, f"SNE {value!r} outside ({lower!r}, {upper!r})")
            g = self.rg.model.scaled_derivative(params, p, p)
            if not max(abs(g[0]), abs(g[1])) <= STATIONARITY_TOL:
                out.flag(k, f"|G(p**, p**)| = {g} above {STATIONARITY_TOL}")
            states = np.stack([path.p_H, path.p_L, path.r_H, path.r_L])
            if not (np.all(states >= params.p_lo) and np.all(states <= params.p_hi)):
                out.flag(k, "equilibrium path leaves the price box")
            digest.update(np.array([*p, sol.iterations]).tobytes() + states.tobytes())
        out.fingerprint = digest.hexdigest()
        return out


WORKLOADS = {"figure1-a": Figure1A, "cycle-b": CycleB, "sweep": Sweep}


def _import_refgame():
    import refgame
    import refgame.analysis
    import refgame.cli
    import refgame.config
    import refgame.dynamics
    import refgame.equilibrium
    import refgame.model

    where = Path(refgame.__file__).resolve().parent
    if where != ROOT / "src" / "refgame":
        raise SystemExit(f"refgame imported from {where}, not from this checkout's src/")
    return refgame


@dataclass
class Pass:
    traced: bool
    ops: list[Op]
    checked: Checked
    tracer: harness.Tracer | None = None

    @property
    def seconds(self) -> float:
        return sum(op.latency for op in self.ops)


def _one_pass(workload, trace: bool) -> Pass:
    gc.collect()
    tracer = harness.Tracer() if trace else None
    rec = Recorder()
    with traced(tracer) if trace else contextlib.nullcontext():
        workload.run(rec)
    rec.flush()
    ops = rec.ops
    checked = workload.check(ops)
    # an operation whose output fails a check counts as failed, like one that raised
    for i, problem in checked.wrong.items():
        ops[i].error = f"wrong output: {problem}"
    # checked outputs are dropped, so peak memory does not grow with the pass count
    for op in ops:
        op.output = None
    return Pass(trace, ops, checked, tracer)


def _layer_metrics(traced_passes: list[Pass], overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, plus self-consistency problems."""
    problems = []
    selfs = [harness.self_times(p.tracer.spans) for p in traced_passes]
    notes = [p.tracer.notes for p in traced_passes]
    counts = [{k: v for k, v in n.items() if not k.endswith("_s")} for n in notes]
    if any(c != counts[0] for c in counts):
        problems.append("layer counts differ between traced passes")
    for p, s in zip(traced_passes, selfs):
        unattributed = p.seconds - sum(s.values())
        if unattributed > abs(overhead) + 0.02 * p.seconds:
            problems.append(
                f"layer self times leave {unattributed:.4f} s of a {p.seconds:.4f} s pass "
                f"unattributed (overhead {overhead:.4f} s)"
            )

    def self_s(layer):
        return harness.median([s.get(layer, 0.0) for s in selfs])

    def total(key):
        return sum(notes[0].get(key, []))

    m = {}
    for layer, _, _ in LAYERS:
        m[layer + ".s"] = self_s(layer)
    rows = total("cli.write_trajectory_csv.rows")
    m["cli.write_trajectory_csv.rows"] = rows
    m["cli.write_trajectory_csv.bytes"] = total("cli.write_trajectory_csv.bytes")
    # eight floats are formatted per row; the period column is an integer
    values = 8 * rows
    m["cli.write_trajectory_csv.ns_per_value"] = (
        1e9 * m["cli.write_trajectory_csv.s"] / values if values else 0.0
    )
    periods = total("dynamics.simulate.periods")
    m["dynamics.simulate.periods"] = periods
    m["dynamics.simulate.ns_per_period"] = (
        1e9 * m["dynamics.simulate.s"] / periods if periods else 0.0
    )
    iterations = notes[0].get("equilibrium.solve_sne.iterations", [])
    m["equilibrium.solve_sne.calls"] = total("equilibrium.solve_sne.calls")
    m["equilibrium.solve_sne.iterations_p50"] = (
        harness.percentile(iterations, 50) if iterations else 0
    )
    m["equilibrium.solve_sne.iterations_max"] = max(iterations, default=0)
    m["equilibrium.solve_sne.iterations_sum"] = sum(iterations)
    m["equilibrium.solve_sne.failed"] = total("equilibrium.solve_sne.failed")
    m["equilibrium.equilibrium_path.periods"] = total("equilibrium.equilibrium_path.periods")
    m["equilibrium.equilibrium_path.failed"] = total("equilibrium.equilibrium_path.failed")
    for layer in ("equilibrium.solve_sne", "equilibrium.equilibrium_path"):
        m[layer + ".failed_s"] = harness.median(
            [sum(n.get(layer + ".failed_s", [])) for n in notes]
        )
    return m, problems


def rounds(workload, seconds: float, trace: bool) -> int:
    """Rounds of passes that fit in ``seconds`` at the workload's nominal pass time.

    The count depends on nothing measured, so ``attempted`` and ``failed``
    repeat exactly from run to run. A traced round makes two passes.
    """
    per_round = workload.pass_s * (2 if trace else 1)
    return max(MIN_ROUNDS, int(seconds / per_round))


def measure(workload, n_rounds: int, trace: bool) -> dict:
    """Make ``n_rounds`` rounds of passes; summarise timings, checks and failures."""
    passes = []
    for r in range(n_rounds):
        # traced and untraced passes alternate, each going first in turn
        order = (r % 2 == 1, r % 2 == 0) if trace else (False,)
        passes += [_one_pass(workload, t) for t in order]

    problems = sorted({e for p in passes for e in p.checked.wrong.values()})
    if len({p.checked.fingerprint for p in passes}) != 1:
        problems.append("outputs differ between passes (traced or untraced)")
    ledger = {}
    for op in passes[0].ops:
        if op.error is not None:
            ledger[op.error] = ledger.get(op.error, 0) + 1

    plain = [p for p in passes if not p.traced]
    # The untraced passes all visit the same operations in the same order. An
    # operation's time is its median over them; a failed one's latency is +inf.
    per_op = list(zip(*(p.ops for p in plain)))
    times = [harness.median([op.scaled for op in ops]) for ops in per_op]
    walls = [harness.median([op.latency for op in ops]) for ops in per_op]
    failed_op = [any(op.error is not None for op in ops) for ops in per_op]
    latencies = [math.inf if bad else t for bad, t in zip(failed_op, times)]
    p90 = harness.percentile(latencies, 90)
    attempted_plain = sum(len(p.ops) for p in plain)
    failed_plain = sum(1 for p in plain for op in p.ops if op.error is not None)
    result = {
        "passes": len(plain),
        "attempted": sum(len(p.ops) for p in passes),
        "failed": sum(1 for p in passes for op in p.ops if op.error is not None),
        "correct": not problems,
        "problems": problems,
        "ledger": ledger,
        # time of a pass on the operations that completed; failed ones are in failed_s
        "run_s": sum(t for bad, t in zip(failed_op, times) if not bad),
        "run_wall_s": sum(t for bad, t in zip(failed_op, walls) if not bad),
        "reference_ms": 1e3 * harness.median([op.reference for p in plain for op in p.ops]),
        "failed_s": sum(t for bad, t in zip(failed_op, times) if bad),
        "failed_frac": failed_plain / attempted_plain,
        "market_ms_p50": 1e3 * harness.percentile(latencies, 50),
        "market_ms_p90": 1e3 * p90,
        "market_samples": len(latencies),
        "market_beyond_p90": harness.beyond(latencies, p90),
    }
    if trace:
        marked = [p for p in passes if p.traced]
        traced_s = harness.median([p.seconds for p in marked])
        overhead = traced_s - harness.median([p.seconds for p in plain])
        layers, consistency = _layer_metrics(marked, overhead)
        layers["trace.run_s"] = traced_s
        layers["trace.overhead_s"] = overhead
        result["layers"] = layers
        result["problems"] += consistency
        result["correct"] = not result["problems"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the parent's temporary directory for output files, removed by the parent
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rg = _import_refgame()
    workload = WORKLOADS[args.workload](rg, args.seed, args.workdir)
    print("ready", flush=True)
    # the set-up just timed by the parent is scaled by the host speed right after it
    setup_scale = NOMINAL_REFERENCE_S / reference_s()
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0
    trace = bool(args.trace)
    result = measure(workload, rounds(workload, args.seconds, trace), trace)
    result["setup_scale"] = setup_scale
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
