#!/usr/bin/env python3
"""cellbench: end-to-end and per-layer benchmark of the training cells.

Run from the root of the repository:

    python3 cellbench/run.py --workload cen-boxgeom --seed 1 --seconds 25 --trace 0
    python3 cellbench/run.py --workload all --seed 1 --seconds 25

Builds cellbench_driver (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, generates the workload's scenario from the seed, runs the
driver for about --seconds, checks the outputs and prints the metrics.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics at --trace 0 and the per-layer metrics at
--trace 1.  With --workload all it runs every workload in turn, prints a
table per workload, and exits 1 when any output check fails.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import report  # noqa: E402
import stats  # noqa: E402

# The driver starts no cell after 150 s; this only guards against a hang.
DRIVER_TIMEOUT = 175
# Each cell of a run trains on its own seed, so that a run averages over
# several datasets and network draws: the cost of a BOX-GEOM round depends
# on the data.  More seeds than any run has cells.
CELL_SEEDS = 64


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise RuntimeError("run from the repository root: no CMakeLists.txt "
                           "and src/ in " + os.getcwd())
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "cellbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "cellbench_driver")


def source_digest():
    """sha256 over the library sources, the root build file and the
    benchmark: identifies the code measured when there is no git commit."""
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", os.path.relpath(HERE)):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            paths += [os.path.join(root, f) for f in sorted(files)]
    for path in paths:
        digest.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository (git
    is not asked to look above the checkout)."""
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cell_seeds(seed, count=CELL_SEEDS):
    """The scenario seeds of a run's cells, derived from the run's seed."""
    return [int.from_bytes(hashlib.sha256(
        ("cellbench:%d:%d" % (seed, k)).encode()).digest()[:4], "little")
        for k in range(count)]


def run_workload(driver, build_dir, name, workload, seed, seconds, trace):
    """Runs the driver once; returns its result and the path it is in."""
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (name, seed, trace))
    command = [driver]
    for cell_seed in cell_seeds(seed):
        command += ["--spec", "%s rounds=%d seed=%d" % (
            workload["spec"], workload["rounds"], cell_seed)]
    command += ["--mode", "trace" if trace else "e2e",
                "--seconds", str(seconds), "--out", stem + ".json"]
    if trace:
        command += ["--calls-out", stem + ".calls.csv"]
    subprocess.run(command, check=True, stdout=sys.stderr,
                   timeout=DRIVER_TIMEOUT)
    with open(stem + ".json") as f:
        return json.load(f), stem + ".json"


def evaluate(result, workload, trace):
    attempted, failed, failures = report.check_run(result, workload)
    if trace:
        metrics = report.per_layer(result)
        units = report.PER_LAYER_UNITS
    else:
        metrics = report.end_to_end(result, attempted, failed)
        units = report.END_TO_END_UNITS
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }, failures


def print_table(name, result, line, meta):
    round_samples = sum(len(c["round_s"]) for c in result["cells"]
                        if not c["traced"])
    q = stats.supported_percentile(round_samples)
    print("# cellbench %s: %d cells, %d untraced round samples "
          "(highest percentile with >= 10 beyond: %s)"
          % (name, len(result["cells"]), round_samples,
             "none" if q is None else "p%g" % q))
    print("# meta " + json.dumps(meta, sort_keys=True))
    for key, m in line["metrics"].items():
        print("# %-32s %16.6g %s" % (key, m["value"], m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append each result line, with its workload "
                             "and seed, to this JSON-lines file")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workloads = load_workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            parser.error("unknown workload %r (valid: %s, all)"
                         % (name, ", ".join(workloads)))

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        driver = build(build_dir)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as failure:
        log("cellbench: build failed:", failure)
        return 2

    commit = git_commit()
    digest = source_digest()
    all_correct = True
    for name in names:
        started = time.monotonic()
        try:
            result, path = run_workload(driver, build_dir, name,
                                        workloads[name], args.seed,
                                        args.seconds, args.trace)
        except (OSError, ValueError,
                subprocess.SubprocessError) as failure:
            log("cellbench: %s: driver failed: %s" % (name, failure))
            return 2
        if result["meta"]["build_type"] != "Release":
            log("cellbench: refusing to record a non-Release build")
            return 3
        try:
            line, failures = evaluate(result, workloads[name], args.trace)
        except (KeyError, ValueError, ZeroDivisionError) as failure:
            log("cellbench: %s: no metrics from this run: %r"
                % (name, failure))
            return 2
        for failure in failures:
            log("cellbench: %s: output check failed: %s" % (name, failure))
        all_correct = all_correct and line["correct"]
        meta = dict(result["meta"], workload=name, seed=args.seed,
                    trace=args.trace, commit=commit, source_sha256=digest,
                    wall_s=round(time.monotonic() - started, 3))
        print_table(name, result, line, meta)
        result["meta"] = meta
        with open(path, "w") as f:
            json.dump(result, f)
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps({"workload": name, "seed": args.seed,
                                    "trace": args.trace, "meta": meta,
                                    "result": line}) + "\n")
        print(json.dumps(line), flush=True)
    if args.workload == "all" and not all_correct:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
