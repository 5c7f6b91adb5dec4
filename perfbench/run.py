#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload serve_chat --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. The first run configures and builds the
library and the perfbench binary under .bench_build/; later runs only
check the build. Each workload runs in its own process. The human-readable
table goes to stdout before the last line, which is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (a per-layer metric of a layer the workload does not run
reads 0). Every run is also appended, with host facts, to
.bench_out/results.jsonl, which perfbench/compare.py reads; traced runs
leave their spans in .bench_out/trace-<workload>-seed<seed>.json.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["serve_chat", "serve_longctx", "train_moda"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def refuse_bgl_environment():
    # BGL_* variables change the library's defaults; the benchmark measures
    # the defaults only (the perfbench binary checks this too).
    names = sorted(k for k in os.environ if k.startswith("BGL_"))
    if names:
        raise SystemExit("refusing to run with %s set: the benchmark measures "
                         "the library's defaults" % ", ".join(names))


def run(cmd, timeout, **kwargs):
    """subprocess.run in its own process group, so a timeout also stops
    the compilers a build started."""
    with subprocess.Popen(cmd, start_new_session=True, text=True,
                          **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit("timed out after %ds: %s" % (timeout,
                                                          " ".join(cmd)))
    return proc.returncode, out


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        code, out = run(cmd, max(1, left), stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT)
        if code != 0:
            log(out[-4000:])
            raise SystemExit("build failed: %s" % " ".join(cmd))


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "none"


def run_workload(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed))]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise SystemExit("perfbench %s exited with %d" % (workload, code))
    return json.loads(lines[-1])


def result_line(spec, record, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = {m["name"]: m for m in record["metrics"]}
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]]["value"],
                                  "unit": m["unit"]}
        elif trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise SystemExit("workload %s did not report %s"
                             % (record["workload"], m["name"]))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_table(record):
    print("== %s  seed %s  %ss  trace %s ==" % (
        record["workload"], record["seed"], record["seconds"],
        record["trace"]))
    facts = record["facts"]
    print("   " + "  ".join("%s=%s" % kv for kv in sorted(facts.items())))
    for m in record["metrics"]:
        print("   %-36s %16.6g %-10s n=%d" % (m["name"], m["value"], m["unit"],
                                              m["samples"]))
    print("   correct=%s attempted=%d failed=%d" % (
        record["correct"], record["attempted"], record["failed"]))
    for f in record["failures"]:
        print("   FAILED: " + f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        raise SystemExit("--seconds must be in (0, 120]")

    refuse_bgl_environment()
    spec = load_spec()
    build()
    commit, digest = git_commit(), source_digest()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    lines = []
    for workload in names:
        record = run_workload(workload, args.seed, args.seconds, args.trace)
        record["facts"]["commit"] = commit
        record["facts"]["source"] = digest
        print_table(record)
        line = result_line(spec, record, args.trace)
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, "results.jsonl"), "a") as f:
            f.write(json.dumps(dict(record, result=line)) + "\n")
        lines.append(line)
    if len(lines) == 1:
        print(json.dumps(lines[0]), flush=True)
    else:
        print(json.dumps({
            "correct": all(l["correct"] for l in lines),
            "attempted": sum(l["attempted"] for l in lines),
            "failed": sum(l["failed"] for l in lines),
            "metrics": {}}), flush=True)


if __name__ == "__main__":
    main()
