"""Benchmark of refgame: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py [--workload figure1-a|cycle-b|sweep|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from the root of a checkout. Each workload runs in a fresh child
process (``bench/workloads.py``), one at a time. The child is also
started several times for set-up alone, and ``setup_s`` is the median of
those start-to-ready times. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
of a traced run, with the layer-share table. Metric names and units come
from ``BENCHMARK.json``. Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figure1-a", "cycle-b", "sweep")
# child starts timed for set-up alone, besides the measuring child's own
SETUP_STARTS = 10
# each workload, set-up included, must end well within three minutes
DEADLINE_S = 170.0
# numerical libraries get one thread each, so a run uses one core
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# the layer each workload is predicted to spend most self time in
PREDICTED_TOP = {
    "figure1-a": "cli.write_trajectory_csv",
    "cycle-b": "dynamics.simulate",
    "sweep": "equilibrium.",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in ONE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_child(args, workload: str, deadline: float, setup_only: bool):
    """Start one child; return (seconds from start to ready, its JSON result)."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", args.workdir,
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    # unbuffered: a buffered readline could take the result line with the ready line,
    # out of the reach of communicate()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: child passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode().splitlines()
    if ready != b"ready\n" or proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited with code {proc.returncode}, no result")
    return setup, json.loads(lines[-1])


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "refgame").glob("*.py"))


def run_workload(args, workload: str, spec: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    # a traced run reports no set-up time, so it starts the child only to measure
    starts = 0 if args.trace else SETUP_STARTS
    setups = [start_child(args, workload, deadline, True) for _ in range(starts)]
    setup, child = start_child(args, workload, deadline, False)
    setups.append((setup, child))
    # set-up times are scaled to the nominal host speed like run_s (see README)
    values = dict(child, setup_s=harness.median([t * c["setup_scale"] for t, c in setups]))
    if args.trace:
        values.update(child["layers"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"== {workload}  seed {args.seed}  trace {args.trace}  "
          f"{child['passes']} untraced passes, {len(setups)} child starts")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {child['failed_frac']:>16.6g} ratio"
          f"  ({child['failed']} of {child['attempted']} operations)")
    print(f"  {'failed_s':44s} {child['failed_s']:>16.6g} s  (per pass, not in run_s)")
    print(f"  {'run_wall_s':44s} {child['run_wall_s']:>16.6g} s  (run_s before host-speed scaling)")
    print(f"  {'reference_ms':44s} {child['reference_ms']:>16.6g} ms (reference task; nominal 5 ms)")
    print(f"  market latency samples {child['market_samples']}, "
          f"{child['market_beyond_p90']} beyond p90")
    print(f"  src_loc {src_loc()} lines (informational)")
    for key, n in sorted(child["ledger"].items()):
        print(f"  failure x{n} per pass: {key}")
    for problem in child["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  output checks: {'passed' if child['correct'] else 'FAILED'}")
    if args.trace:
        print_layer_shares(workload, child["layers"])
    return {"correct": child["correct"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}


def print_layer_shares(workload: str, layers: dict) -> None:
    total = layers["trace.run_s"]
    selfs = {k[:-2]: v for k, v in layers.items() if k.endswith(".s") and v > 0.0}
    print(f"  {'layer':34s} {'self_s':>10s} {'share of traced run_s':>22s}")
    for name, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {name:34s} {s:10.4f} {100.0 * s / total:21.1f}%")
    rest = total - sum(selfs.values())
    print(f"  {'(not in any layer span)':34s} {rest:10.4f} {100.0 * rest / total:21.1f}%")
    top = max(selfs, key=selfs.get)
    verdict = "confirmed" if top.startswith(PREDICTED_TOP[workload]) else f"WRONG (largest: {top})"
    print(f"  prediction: largest self time on {workload} is "
          f"{PREDICTED_TOP[workload].rstrip('.')}: {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "refgame" / "__init__.py").is_file():
        print(f"error: no refgame sources in {ROOT / 'src' / 'refgame'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        # every child writes its files here; it is removed even when a child is killed
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as workdir:
            args.workdir = workdir
            results = {w: run_workload(args, w, spec) for w in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
