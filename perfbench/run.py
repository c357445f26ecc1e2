#!/usr/bin/env python3
"""Builds and runs the event-to-verdict benchmark from a source checkout.

    python3 perfbench/run.py --workload fanout|ladder --seed N \
        --seconds S --trace 0|1

Run from the repository root. It builds the served binary (`bcdb`, from
the repository's workspace) and the benchmark (`perfbench/`, a package of
its own) into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
measurement. The last line of standard output is the JSON result; the
lines before it name every metric with its unit and sample count, the
provenance, and the correctness gate's outcome.

    python3 perfbench/run.py compare OLD.json NEW.json

compares two saved results (the JSON files each run writes under
`.perfbench/results/`). It refuses, with exit code 4, to compare results
from different hosts or served configurations.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git revision when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        top, _, rev = out.stdout.strip().partition("\n")
        if out.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + rev
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src:" + h.hexdigest()[:12]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (["cargo", "build", "--release", "--offline", "-p", "bcdb-cli"],
                 ["cargo", "build", "--release", "--offline",
                  "--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(args)}", 1)


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in ("host", "served", "workload", "seconds"):
        if old["provenance"].get(key) != new["provenance"].get(key):
            print(f"unusable comparison: {key} differs "
                  f"({old['provenance'].get(key)!r} vs {new['provenance'].get(key)!r})")
            sys.exit(4)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    worse = 0
    print(f"{'metric':<16} {'old':>12}    {'new':>12} {'unit':<5} worse by")
    for m in spec["end_to_end"]:
        name = m["name"]
        a = old["result"]["metrics"].get(name, {}).get("value")
        b = new["result"]["metrics"].get(name, {}).get("value")
        if a is None or b is None:
            continue
        change = (b - a) / a if a else 0.0
        if m["better"] == "higher":
            change = -change
        flag = "WORSE" if change > m["bound"] else ""
        worse += bool(flag)
        print(f"{name:<16} {a:>12.4f} -> {b:>12.4f} {m['unit']:<5} {change:+.1%} {flag}")
    sys.exit(1 if worse else 0)


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD.json NEW.json")
        compare(argv[1], argv[2])
    opts = dict(zip(argv[0::2], argv[1::2]))
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        if key not in opts:
            fail(f"missing {key}")
    if not os.path.isfile(os.path.join(ROOT, "crates", "server", "Cargo.toml")):
        fail("run from a checkout of the repository: its sources are missing")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    build(target)
    rev = source_rev()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", opts["--workload"], "--seed", opts["--seed"],
           "--seconds", opts["--seconds"], "--trace", opts["--trace"],
           "--server", os.path.join(target, "release", "bcdb"),
           "--work", work, "--rev", rev]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"the benchmark failed (exit {done.returncode})", 1)
    provenance = {}
    for line in lines:
        if line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
    result = json.loads(lines[-1])
    name = f"{opts['--workload']}-{opts['--seed']}-trace{opts['--trace']}.json"
    with open(os.path.join(WORK, "results", name), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    # Keep the span dump of a traced run beside its result.
    for f in os.listdir(work):
        if f.startswith("trace-"):
            shutil.move(os.path.join(work, f), os.path.join(WORK, "results", f))
    shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
