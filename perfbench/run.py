#!/usr/bin/env python3
"""Repository benchmark: build from source, run one workload, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ml-netlist --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn,
                                                     # one JSON line each
    python3 perfbench/run.py --selftest              # the benchmark's own tests

The first run configures and builds perfbench/ (the hyperpart library and
hyperpartd from the repository sources, plus the perfbench program) into
.bench_build/; later runs rebuild incrementally. perfbench runs in its own
process with a scratch directory under .bench_build/ that is removed
afterwards. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1; layers a workload does not run report 0).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT; listed in .gitignore
CMAKE_DIR = os.path.join(BUILD, "cmake")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # for confirming a claimed gain on an unseen instance
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets):
    """Configure once, then build `targets` incrementally; log to a file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/", 2)
    os.makedirs(os.path.join(ROOT, BUILD), exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(ROOT, BUILD, "build.log"), "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(ROOT, CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                      "--target"] + targets)
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                fail("build failed; see " + os.path.join(BUILD, "build.log"), 2)


def reap_daemon(workdir):
    """Kill a hyperpartd that a crashed perfbench left behind."""
    try:
        with open(os.path.join(ROOT, workdir, "daemon.pid")) as f:
            pid = int(f.read().strip())
        with open("/proc/%d/cmdline" % pid, "rb") as f:
            if b"hyperpartd" not in f.read():
                return
        os.kill(pid, signal.SIGKILL)
    except (OSError, ValueError):
        pass


def run_workload(spec, workload, seed, seconds, trace):
    """Run perfbench once; return (comment lines, result dict) or exit."""
    build(["perfbench", "hyperpartd"])
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workdir))
    cmd = [os.path.join(CMAKE_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir,
           "--daemon", os.path.join(CMAKE_DIR, "hyperpartd")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        reap_daemon(workdir)
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    return lines[:-1], normalise(spec, result, trace)


def normalise(spec, result, trace):
    """Check perfbench's metric names against BENCHMARK.json and report
    per-layer metrics of layers this workload does not run as 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("end-to-end metric %s not measured" % m["name"])
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (m["name"], metrics[m["name"]]["unit"], m["unit"]))
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def run_all(spec, args):
    """Each workload in turn, each in its own perfbench process."""
    for w in spec["workloads"]:
        comments, result = run_workload(spec, w["name"], args.seed,
                                        args.seconds, args.trace)
        print("# workload " + w["name"])
        for line in comments:
            print(line)
        print(json.dumps(result), flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="instance seed (default %d; seed %d is held out "
                        "for confirming a claimed gain)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.selftest:
        build(["perfbench_selftest", "hyperpartd"])
        workdir = os.path.join(BUILD, "selftest-%d" % os.getpid())
        os.makedirs(os.path.join(ROOT, workdir))
        try:
            return subprocess.call(
                [os.path.join(CMAKE_DIR, "perfbench_selftest"),
                 os.path.join(CMAKE_DIR, "hyperpartd"), workdir], cwd=ROOT)
        finally:
            reap_daemon(workdir)
            shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    if args.workload == "all":
        return run_all(spec, args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload, 2)
    comments, result = run_workload(spec, args.workload, args.seed,
                                    args.seconds, args.trace)
    for line in comments:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
