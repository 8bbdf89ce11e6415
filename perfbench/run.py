#!/usr/bin/env python3
"""Host-cost benchmark of the WineFS reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {age,crash,apps} --seed N \\
        --seconds S --trace {0,1}

Builds perfbench/bench.exe with dune, runs the workload in child
processes that each run only that workload, checks the results and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  It runs
whole units of the workload, each in a fresh untraced child, until at
least S seconds of measured phase have run, and reports medians over
the children: throughput, major-heap words and peak RSS per child, and
set-up time over all set-ups (the first child sets up at least five
times and for at least one second).
Every child must print the same digest.

--trace 1 reports the per-layer metrics.  It runs one unit three ways:
untraced with the seed (the reference: host.* come from its rusage and
GC counters), traced with the seed (every other per-layer metric), and,
for age and apps, untraced with seed + 1.  The traced digest must equal
the reference digest, the seed + 1 digest must differ from it, and for
crash the replay must visit exactly Checker.run's crash points and
states.  trace.overhead_s is traced minus untraced measured seconds.

"attempted" and "failed" count the correctness checks (fsck and
utilisation after aging, crash states, YCSB reads of loaded keys, Micro
read-back samples, digest agreement); their ratio is the fail ratio.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("age", "crash", "apps")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_LIMIT_S = 840
RUN_LIMIT_S = 170
MIN_SETUPS = 5


class Timeout(Exception):
    pass


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def on_alarm(_signum, _frame):
    raise Timeout()


def run_group(args, seconds, stdout):
    """Run [args] in its own process group, killing the group on timeout.
    Returns (captured stdout or None, exit status, rusage)."""
    proc = subprocess.Popen(args, stdout=stdout, start_new_session=True)
    signal.alarm(max(1, int(seconds)))
    try:
        out = proc.stdout.read() if stdout == subprocess.PIPE else None
        _, status, usage = os.wait4(proc.pid, 0)
    except Timeout:
        os.killpg(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        die("timed out: " + " ".join(args))
    finally:
        signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout:
        proc.stdout.close()
    return out, proc.returncode, usage


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a repository checkout (no dune-project or lib/ here)")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        _, code, _ = run_group(
            dune + ["build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"],
            BUILD_LIMIT_S,
            sys.stderr,
        )
    except OSError as e:
        die("cannot run dune: %s" % e)
    if code != 0:
        die("build failed")


def run_child(workload, seed, trace, deadline, setups=1):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--setups", str(setups), "--trace", str(trace)]
    out, code, usage = run_group(args, deadline - time.monotonic(), subprocess.PIPE)
    if code != 0:
        die("%s exited with %d" % (" ".join(args), code))
    lines = out.decode().strip().splitlines()
    if not lines:
        die("%s printed nothing" % " ".join(args))
    res = json.loads(lines[-1])
    res["rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    res["user_s"] = usage.ru_utime
    res["sys_s"] = usage.ru_stime
    for f in res["failures"]:
        print("perfbench: check failed (%s seed %d): %s" % (workload, seed, f), file=sys.stderr)
    m = res["metrics"]
    print("perfbench: %s seed %d trace %d: measured %.3f s, %.6g units, set-up %s s, rss %.1f MiB"
          % (workload, seed, trace, m["measured_s"], m["units"],
             " ".join("%.3f" % x for x in res["setups_s"]), res["rss_mb"]), file=sys.stderr)
    return res


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, child):
        self.attempted += child["attempted"]
        self.failed += child["failed"]

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("perfbench: check failed: " + what, file=sys.stderr)


def end_to_end(args, deadline, checks):
    """Whole units, each in a fresh child, until args.seconds of measured
    phase; the first child also repeats its set-up MIN_SETUPS times."""
    children = []
    while not children or sum(c["metrics"]["measured_s"] for c in children) < args.seconds:
        c = run_child(args.workload, args.seed, 0, deadline, MIN_SETUPS if not children else 1)
        checks.add(c)
        if children:
            checks.expect(c["digest"] == children[0]["digest"],
                          "unit %d digest %s differs from %s"
                          % (len(children), c["digest"], children[0]["digest"]))
        children.append(c)
    print("digest %s seed=%d %s (%d units)"
          % (args.workload, args.seed, children[0]["digest"], len(children)))

    def med(f):
        return statistics.median(f(c) for c in children)

    return {
        "setup_s": statistics.median(x for c in children for x in c["setups_s"]),
        "units_per_s": med(lambda c: c["metrics"]["units_per_s"]),
        "major_mwords": med(lambda c: c["metrics"]["major_mwords"]),
        "peak_rss_mb": med(lambda c: c["rss_mb"]),
    }


def traced(args, deadline, checks):
    w, seed = args.workload, args.seed
    ref = run_child(w, seed, 0, deadline)
    tr = run_child(w, seed, 1, deadline)
    checks.add(ref)
    checks.add(tr)
    print("digest %s seed=%d untraced=%s traced=%s" % (w, seed, ref["digest"], tr["digest"]))
    checks.expect(tr["digest"] == ref["digest"],
                  "traced digest %s differs from untraced %s" % (tr["digest"], ref["digest"]))
    if w == "crash":
        for k in ("crashcheck.crash_points", "crashcheck.states"):
            got, want = tr["metrics"][k], ref["metrics"][k]
            checks.expect(got == want, "replay %s %s != Checker.run %s" % (k, got, want))
    else:
        alt = run_child(w, seed + 1, 0, deadline)
        checks.add(alt)
        print("digest %s seed=%d untraced=%s" % (w, seed + 1, alt["digest"]))
        checks.expect(alt["digest"] != ref["digest"],
                      "seed %d and seed %d give one digest" % (seed, seed + 1))
    m = dict(tr["metrics"])
    m["host.user_s"] = ref["user_s"]
    m["host.sys_s"] = ref["sys_s"]
    m["host.minor_mwords"] = ref["metrics"]["host.minor_mwords"]
    m["host.major_collections"] = ref["metrics"]["host.major_collections"]
    m["trace.overhead_s"] = tr["metrics"]["measured_s"] - ref["metrics"]["measured_s"]
    return m


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in 1..600")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    signal.signal(signal.SIGALRM, on_alarm)
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    checks = Checks()
    if args.trace:
        values, wanted = traced(args, deadline, checks), spec["per_layer"]
    else:
        values, wanted = end_to_end(args, deadline, checks), spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die("metric %s missing or not a number: %r" % (m["name"], v))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
