#!/usr/bin/env python3
"""Build and run the wfs benchmark.  Run from the repository root.

  python3 wfsbench/run.py --workload W --seed N --seconds S --trace 0|1
      one workload in its own process; the last line of standard output
      is the JSON result (trace 0: end-to-end metrics, trace 1: per-layer)
  python3 wfsbench/run.py --all [--seed N] [--seconds S] [--with-trace]
      every workload, each in its own process, then a table of the metrics
  python3 wfsbench/run.py --self-test
      doctored inputs must fail the checks
  python3 wfsbench/run.py --regen census|verify
      rewrite an expectation file from the program's current output

The program is built from source with dune (wfsbench/wfsbench.exe);
building needs the repository's lib/ tree next to this directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

# A run must end within 180 s, or 900 s when it builds from scratch:
# the workload's limit counts from the end of the build, which is a few
# seconds when nothing needs rebuilding.
RUN_LIMIT_S = 170  # the workload process, set-up and checks included
BUILD_LIMIT_S = 700

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", BENCH_DIR, "wfsbench.exe")


def fail(msg, code=2):
    print(f"wfsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_tree():
    for path in ["dune-project", os.path.join("lib", "core", "dune"),
                 os.path.join(BENCH_DIR, "dune"), "BENCHMARK.json"]:
        if not os.path.isfile(path):
            fail(f"{path} is missing: run from the root of a wfs checkout")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./" + os.path.join(BENCH_DIR, "wfsbench.exe")],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_LIMIT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if proc.returncode != 0:
        fail("build failed", 1)


def stamp():
    """The run's provenance: git revision when the tree is a git
    checkout, and a digest of the sources either way."""
    rev = "none"
    if os.path.exists(".git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, env=env, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ["lib", BENCH_DIR]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return [f"git_rev={rev}", f"src_sha256={digest.hexdigest()[:16]}"]


def run_one(args, bench):
    """Run one workload in its own process; check and complete its result."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", BENCH_DIR]
    for kv in stamp():
        cmd += ["--stamp", kv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} timed out", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"workload {args.workload} exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("the program printed no result", 1)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(units))
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {extra}", 1)
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or m["unit"] != units[name]:
            fail(f"metric {name} is {m}, expected a number in {units[name]}", 1)
    missing = [name for name in units if name not in metrics]
    if missing and not args.trace:
        fail(f"end-to-end metrics not measured: {missing}", 1)
    if missing:
        # per-layer metrics of layers this workload does not exercise
        print(f"not exercised on {args.workload} (reported as 0): {', '.join(missing)}")
        for name in missing:
            metrics[name] = {"value": 0.0, "unit": units[name]}
    for line in lines[:-1]:
        print(line)
    ordered = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": ordered}), flush=True)


def run_all(args, bench):
    """Every workload, each in its own process, then one table."""
    rows, ok = [], True
    for w in bench["workloads"]:
        for trace in ([0, 1] if args.with_trace else [0]):
            cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{w['name']} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            samples = {}
            for line in proc.stdout.splitlines()[:-1]:
                parts = line.split()
                if len(parts) == 4 and parts[3].startswith("samples="):
                    samples[parts[0]] = parts[3][len("samples="):]
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            error_rate = result["failed"] / result["attempted"]
            rows.append((w["name"], "error_rate", error_rate, "ratio", result["attempted"]))
            for name, m in result["metrics"].items():
                rows.append((w["name"], name, m["value"], m["unit"], samples.get(name, "-")))
    for row in rows:
        print("%-14s %-44s %16.6g %-9s samples=%s" % row)
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--with-trace", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--regen", choices=["census", "verify"])
    args = p.parse_args()
    check_tree()
    bench = load_json("BENCHMARK.json")
    if args.all:
        run_all(args, bench)
    build()
    if args.self_test:
        sys.exit(subprocess.run([EXE, "--self-test", "--dir", BENCH_DIR]).returncode)
    if args.regen:
        sys.exit(subprocess.run([EXE, "--regen", args.regen, "--dir", BENCH_DIR]).returncode)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"--workload must be one of {[w['name'] for w in bench['workloads']]}")
    run_one(args, bench)


if __name__ == "__main__":
    main()
