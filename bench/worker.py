"""One benchmark process: import kgeo from the checkout and run rounds.

Started by run.py as a fresh interpreter, so that its set-up (interpreter
start, importing NumPy and kgeo, loading the config) is cold. A round is one
call of ``kgeo.cli.main``. Rounds repeat while the next one is expected to
end within ``--seconds``, and at least one runs; in traced mode each round
is an untraced call followed by a traced one. The last line of standard output is a JSON record of the rounds.
"""

import argparse
import functools
import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(out_dir):
    """SHA-256 over the names and bytes of every file the command wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kgeo
    from kgeo import cli
    if not os.path.abspath(kgeo.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print("kgeo imported from %s, not from the checkout" % kgeo.__file__,
              file=sys.stderr)
        return 2

    record = {"first_call": None, "rounds": [], "layers": []}
    tracer = None
    command = cli.COMMANDS[args.command]
    timing = {}

    @functools.wraps(command)
    def timed(cfg):
        if record["first_call"] is None:
            record["first_call"] = time.monotonic()
        index = tracer.open("cli.command") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            return command(cfg)
        finally:
            timing["wall_s"] = time.perf_counter() - t0
            if index is not None:
                tracer.close(index)

    cli.COMMANDS[args.command] = timed
    argv = [args.command, "--config", args.config, "--out", args.out]

    def one_round(traced):
        nonlocal tracer
        if traced:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        timing.clear()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        finally:
            if tracer is not None:
                tracer.uninstall()
        entry = {"traced": traced, "exit": code, "wall_s": timing.get("wall_s"),
                 "digest": _digest(args.out) if code == 0 else None}
        record["rounds"].append(entry)
        if traced:
            record["layers"].append(tracer.summary())
            if args.spans:
                tracer.write_spans(args.spans)
            tracer = None
        return entry

    if args.trace:
        try:
            import scipy.fft  # noqa: F401  (so that its transforms are wrapped too)
        except ImportError:
            pass
    start = time.perf_counter()
    while True:
        if one_round(False)["exit"] != 0:
            break
        if args.trace and one_round(True)["exit"] != 0:
            break
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(record["rounds"]) // (2 if args.trace else 1))
        if elapsed + per_round > args.seconds:
            break

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
