"""kgeo benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload curvature-n2 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The workload's command runs in a fresh
worker process (bench/worker.py) that imports kgeo from ``src/`` and calls
``kgeo.cli.main`` in-process, round after round, for as many whole rounds
as fit in ``--seconds`` (at least one). Afterwards, outside any timed section, this process checks
the outputs against computations made apart from the program (checks.py)
and that every round wrote the same bytes.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (from
the worker's start to its first command call), ``wall_s`` (median wall time
of the command) and ``peak_rss_mb`` (the worker's peak resident set). With
``--trace 1`` they are the per-layer metrics of tracer.py, taken from a
traced call that follows each untraced one, and ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details of the run
(rounds, thread settings, versions, check messages) go to
``bench/out/<workload>/run.json``.
"""

import argparse
import json
from importlib import metadata
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, run_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the worker gets this long before it is killed; a run must end within 180 s
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message):
    print("bench: %s" % message, file=sys.stderr)
    return 1


def _versions():
    out = {"python": platform.python_version(), "machine": platform.machine(),
           "cpus": len(os.sched_getaffinity(0))}
    for name in ("numpy", "scipy"):
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = None
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("seed must be >= 0 and seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "kgeo", "cli.py")):
        return _fail("no kgeo sources under %s" % os.path.join(ROOT, "src"))

    workload = WORKLOADS[args.workload]
    cfg = run_config(args.workload, args.seed)
    base = os.path.join("bench", "out", args.workload)
    out_dir = os.path.join(base, "cmd")
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    config_path = os.path.join(base, "config.json")
    with open(os.path.join(ROOT, config_path), "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--command", workload["command"], "--config", config_path,
           "--out", out_dir, "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(base, "spans.jsonl")]

    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return _fail("worker exceeded %.0f s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        return _fail("worker exited with code %d" % proc.returncode)
    record = json.loads(stdout.decode().strip().splitlines()[-1])

    rounds = record["rounds"]
    done = [r for r in rounds if r["exit"] == 0]
    problems = []
    if not done:
        problems.append("no round completed")
    if len({r["digest"] for r in done}) > 1:
        problems.append("rounds wrote different bytes (traced vs untraced "
                        "or run to run)")
    if done:
        from checks import check_command
        try:
            problems += check_command(workload["command"],
                                      os.path.join(ROOT, out_dir), cfg)
        except (OSError, ValueError, KeyError) as exc:
            problems.append("outputs unreadable: %r" % (exc,))

    plain = [r["wall_s"] for r in done if not r["traced"]]
    if args.trace:
        traced = [r["wall_s"] for r in done if r["traced"]]
        layers = record["layers"]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]} if layers else {}
        if plain and traced:
            metrics["trace.overhead_s"] = (statistics.median(traced)
                                           - statistics.median(plain))
        from tracer import METRICS
        units = {name: unit for name, (unit, _) in METRICS.items()}
    else:
        metrics = {}
        if done:
            metrics = {"setup_s": record["first_call"] - t0,
                       "wall_s": statistics.median(plain),
                       "peak_rss_mb": record["peak_rss_mb"]}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "config": cfg,
               "threads": {var: env[var] for var in THREAD_VARS},
               "versions": _versions(), "rounds": rounds,
               "peak_rss_mb": record["peak_rss_mb"], "problems": problems}
    with open(os.path.join(ROOT, base, "run.json"), "w") as fh:
        json.dump(details, fh, sort_keys=True, indent=2)
    for message in problems:
        print("check failed: %s" % message)

    result = {"correct": not problems, "attempted": len(rounds),
              "failed": len(rounds) - len(done),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
