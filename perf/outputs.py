"""Record how the CLI outputs of a checkout differ from those of its parent.

    python3 perf/outputs.py --parent DIR --out F

Runs each command of ``perf/commands.txt`` (one line of ``python -m
jspectral.cli`` arguments each, blank lines and ``#`` lines skipped) once in
the parent checkout DIR and once in the checkout this script lives in, each
in a fresh process with one BLAS thread and hash seed 0, with that
checkout's ``src`` first on the path; bytecode goes to a temporary cache,
not into either checkout. For each command it records
both exit codes, whether stdout and stderr are byte-equal, and, where both
stdouts parse (as JSON, or as CSV with a header row), the largest relative
change at each numeric path: list indices are collapsed to ``[]`` (so
``lambdas[]`` covers every level), a CSV column is the path of its header.
The relative change of two numbers a (parent) and b is |a - b| / max(|a|,
|b|), 0 when they are equal, so it lies in [0, 2]. Paths whose structure
differs (a key on one side only, lists of other lengths, a number against
something else) are listed under ``mismatched``, and the level counts
(``lambdas`` lengths) under ``levels`` where the output has them. The result
is the ``outputs`` key of F; other keys of F are kept, so F may be the
``BENCH_<n>.json`` that ``perf/record.py`` writes; each side is named by
the sha256 of its ``src`` tree (its ``.py`` files by relative path). A
summary goes to stdout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def src_sha256(checkout):
    """sha256 over the relative paths and contents of the .py files of src."""
    h = hashlib.sha256()
    for f in sorted((checkout / "src").rglob("*.py")):
        h.update(str(f.relative_to(checkout)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def read_commands(path):
    """The argument lists of the commands in the file at path."""
    lines = Path(path).read_text().splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def run(checkout, args, cache):
    """(exit code, stdout, stderr) of one CLI command in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=cache, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "jspectral.cli", *args], cwd=checkout,
                          env=env, capture_output=True, stdin=subprocess.DEVNULL)
    return proc.returncode, proc.stdout, proc.stderr


def parse(text):
    """The stdout as JSON, or as CSV columns keyed by header, or None."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(text.decode())))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    try:
        cols = [[float(v) for v in col] for col in zip(*rows[1:])]
    except ValueError:
        return None
    return dict(zip(rows[0], cols))


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _relative(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(a, b, path, changes, mismatched):
    """Walk a (parent) and b side by side: the largest relative change at
    each numeric path into changes, and the paths whose structure differs
    into mismatched."""
    if _number(a) and _number(b):
        changes[path] = max(changes.get(path, 0.0), _relative(float(a), float(b)))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key in a and key in b:
                compare(a[key], b[key], sub, changes, mismatched)
            else:
                mismatched.add(sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            mismatched.add(f"{path}[]")
        for x, y in zip(a, b):
            compare(x, y, f"{path}[]", changes, mismatched)
    elif a != b:
        mismatched.add(path)


def diff(before, after):
    """The record of one command from both sides' (exit, stdout, stderr)."""
    row = {"exit": [before[0], after[0]], "stdout_equal": before[1] == after[1],
           "stderr_equal": before[2] == after[2]}
    docs = parse(before[1]), parse(after[1])
    if not row["stdout_equal"] and None not in docs:
        changes, mismatched = {}, set()
        compare(*docs, "", changes, mismatched)
        row["max_rel_change"] = {k: v for k, v in sorted(changes.items()) if v}
        row["mismatched"] = sorted(mismatched)
        if all(isinstance(d, dict) and isinstance(d.get("lambdas"), list) for d in docs):
            row["levels"] = [len(d["lambdas"]) for d in docs]
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent checkout")
    ap.add_argument("--out", required=True, help="the JSON file whose 'outputs' key to set")
    args = ap.parse_args()
    parent, checkout = Path(args.parent).resolve(), HERE
    commands = read_commands(HERE / "perf" / "commands.txt")
    rows = []
    with tempfile.TemporaryDirectory() as cache:
        for cmd in commands:
            row = {"command": shlex.join(cmd),
                   **diff(run(parent, cmd, cache), run(checkout, cmd, cache))}
            rows.append(row)
            same = row["stdout_equal"] and row["stderr_equal"] and len(set(row["exit"])) == 1
            worst = max(row.get("max_rel_change", {}).values(), default=0.0)
            print(f"{'same ' if same else 'MOVED'} exit {row['exit'][0]}->{row['exit'][1]}"
                  f" max rel {worst:.1e}  {row['command']}")
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["outputs"] = {"parent_src_sha256": src_sha256(parent),
                      "checkout_src_sha256": src_sha256(checkout),
                      "identical": sum(r["stdout_equal"] and r["stderr_equal"]
                                       and len(set(r["exit"])) == 1 for r in rows),
                      "commands": rows}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
