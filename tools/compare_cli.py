"""Compare the CLI outputs of two source trees, value by value.

    python tools/compare_cli.py OLD_SRC NEW_SRC

Each argument is a directory that holds the kgeo package (a checkout's
src/) or a checkout that holds src/kgeo. The script runs the five commands
at their defaults for --n 1 and --n 2 in both trees, each in a fresh
process with OPENBLAS_NUM_THREADS=1, and compares their exit codes, every
CSV cell and every JSON value. The echoed output directory (config.out in
each summary) is ignored. A value differs when its text differs, so a
changed sign of zero counts. Every differing column or JSON key is printed
with the number of values that differ and their largest relative change.
Exits 1 if any value differs, 0 if none does. Takes about 30 s per pair of
trees.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

COMMANDS = ("check", "curvature", "geodesic", "flow", "energy")
DIMENSIONS = (1, 2)


def _package_root(path):
    path = os.path.abspath(path)
    return path if os.path.isdir(os.path.join(path, "kgeo")) else \
        os.path.join(path, "src")


def _run(src, command, n, out):
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "kgeo.cli", command, "--n", str(n),
            "--out", out]
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _json_leaves(value, path=""):
    # (path, text) of every leaf; list entries that carry a name are keyed
    # by it
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _json_leaves(value[key], "%s.%s" % (path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            label = item.get("name", i) if isinstance(item, dict) else i
            yield from _json_leaves(item, "%s[%s]" % (path, label))
    else:
        yield path.lstrip("."), json.dumps(value)


def _values(out):
    """{(file, column or key): [text, ...]} of every output file in out."""
    values = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            for row in rows:
                for column, cell in zip(header, row):
                    values.setdefault((name, column), []).append(cell)
        elif name.endswith(".json"):
            with open(path) as fh:
                for key, text in _json_leaves(json.load(fh)):
                    if key != "config.out":
                        values.setdefault((name, key), []).append(text)
        else:
            with open(path, "rb") as fh:
                values[(name, "bytes")] = [fh.read().hex()]
    return values


def _relative_change(a, b):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return 0.0 if str(x) == str(y) else math.inf
    scale = max(abs(x), abs(y))
    return 0.0 if scale == 0.0 else abs(x - y) / scale


def compare(old_src, new_src, work):
    """Differences as (label, count, largest relative change), in run order."""
    diffs = []
    for command in COMMANDS:
        for n in DIMENSIONS:
            label = "%s --n %d" % (command, n)
            sides = []
            for src, side in ((old_src, "old"), (new_src, "new")):
                out = os.path.join(work, side, command, str(n))
                code = _run(src, command, n, out)
                values = _values(out) if os.path.isdir(out) else {}
                values[("exit", "code")] = [str(code)]
                sides.append(values)
            old, new = sides
            for key in sorted(set(old) | set(new)):
                a, b = old.get(key, []), new.get(key, [])
                where = "%s: %s %s" % (label, key[0], key[1])
                if len(a) != len(b):
                    diffs.append((where + " (%d -> %d values)" % (len(a), len(b)),
                                  abs(len(a) - len(b)), math.inf))
                    continue
                changed = [(x, y) for x, y in zip(a, b) if x != y]
                if changed:
                    diffs.append((where, len(changed),
                                  max(_relative_change(x, y) for x, y in changed)))
    return diffs


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src = (_package_root(p) for p in args)
    with tempfile.TemporaryDirectory() as work:
        diffs = compare(old_src, new_src, work)
    for where, count, rel in diffs:
        print("%s: %d value(s) differ, largest relative change %.3g"
              % (where, count, rel))
    if diffs:
        return 1
    print("no value differs (%d commands x n = %s)"
          % (len(COMMANDS), ", ".join(map(str, DIMENSIONS))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
