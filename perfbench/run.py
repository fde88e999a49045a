#!/usr/bin/env python3
"""End-to-end benchmark runner for gradcomp.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the gradcomp
libraries from this source tree in Release) into .bench_build/ at the root of
the tree, then runs it.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line of stdout is the JSON result:
      {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
      end-to-end metrics, --trace 1 the per-layer metrics (and writes a
      Chrome trace under .bench_build/traces/).

  python3 perfbench/run.py --steady N [--seconds S]
      Steadiness check: runs every workload N times with a different seed
      each time, alternating the workload order between rounds, and reports
      the median, quartiles and spread (IQR / median) of every end-to-end
      metric against its bound in BENCHMARK.json.

  python3 perfbench/run.py --selftest
      The benchmark's own tests (C++ self-test plus the spread arithmetic).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_TIMEOUT_S = 170
STEAL_NOTE = "# host steal during the run: "  # printed by every untraced run


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the benchmark; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "CMakeLists.txt")
    ):
        fail("no gradcomp sources next to perfbench/ (expected CMakeLists.txt and src/)", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)  # reconfigure on the next run
                fail("cmake configure failed; see " + log_path)
        jobs = str(min(os.cpu_count() or 1, 4))
        cmd = ["cmake", "--build", BUILD, "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            fail("build failed; see " + log_path)


def source_id():
    """The git commit when the tree is a checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run_binary(name, args, capture=False):
    """Runs a built binary from the tree root; kills it if it overruns."""
    cmd = [os.path.join(BUILD, name)] + args
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(name + " overran %d s and was killed" % RUN_TIMEOUT_S)


def one_run(workload, seed, seconds, trace, commit, capture=False):
    return run_binary("perfbench", ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace),
                                    "--commit", commit], capture)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with Python's default quartiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(rounds, seconds):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = seconds or bench["run_seconds"]
    commit = source_id()
    values = {w: {} for w in workloads}
    steal = {w: [] for w in workloads}
    failures = []
    for i in range(rounds):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = 1000 + 7 * i
            t0 = time.monotonic()
            r = one_run(w, seed, seconds, 0, commit, capture=True)
            lines = r.stdout.strip().splitlines() if r.stdout else []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if r.returncode != 0 or result is None or not result["correct"] or result["failed"]:
                failures.append("%s seed %d" % (w, seed))
            if result:
                for name, m in result["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith(STEAL_NOTE):
                    steal[w].append(float(line[len(STEAL_NOTE):].split()[0]))
            print("round %d %-17s seed %d  %.1fs  steal %s%%  %s" % (
                i + 1, w, seed, time.monotonic() - t0,
                "%.1f" % steal[w][-1] if steal[w] else "?",
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in
                         (result["metrics"].items() if result else []))), flush=True)
    worst = 0.0
    print("\n%-17s %-16s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            med, q1, q3, s = spread(vals)
            bound = bounds.get(name, float("nan"))
            flag = "" if s <= bound / 3 else ("  > bound/3" if s <= bound else "  > BOUND")
            worst = max(worst, s / bound)
            print("%-17s %-16s %12.5g %12.5g %12.5g %8.4f %6.2f%s" % (
                w, name, med, q1, q3, s, bound, flag))
    out = os.path.join(ROOT, ".bench_build", "steady-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump({"commit": commit, "seconds": seconds, "values": values,
                   "host_steal_pct": steal}, f, indent=1)
    print("\nworst spread / bound: %.3f; raw values in %s" % (worst, out))
    if failures:
        print("incorrect or failed runs: " + ", ".join(failures))
    return 0 if not failures and worst <= 1.0 else 1


def check_spread_arithmetic():
    med, q1, q3, s = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (med, q1, q3) == (5.5, 2.75, 8.25), (med, q1, q3)
    assert abs(s - 1.0) < 1e-12, s
    med, q1, q3, s = spread([10.0] * 10)
    assert (med, s) == (10.0, 0.0)
    print("ok   spread arithmetic matches statistics.quantiles(n=4)")


def check_contract():
    """A short run of each mode prints exactly the metrics BENCHMARK.json names."""
    bench = load_benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        r = one_run("ddp-small-sync", 1, 1, trace, "selftest", capture=True)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        want = [(m["name"], m["unit"]) for m in bench[key]]
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        assert r.returncode == 0 and result["correct"], r.stdout
        assert got == want, "trace %d: %s != %s" % (trace, got, want)
        print("ok   --trace %d prints the %s metrics of BENCHMARK.json" % (trace, key))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="N")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if a.selftest:
        build()
        check_spread_arithmetic()
        check_contract()
        return run_binary("perfbench_selftest", []).returncode
    if a.steady:
        build()
        return steady(a.steady, a.seconds)
    if not a.workload or a.seconds is None:
        p.error("--workload and --seconds are required")
    if a.seed < 0 or not 1 <= a.seconds <= 120:
        p.error("--seed must be >= 0 and --seconds in [1, 120]")
    build()
    return one_run(a.workload, a.seed, a.seconds, a.trace, source_id()).returncode


if __name__ == "__main__":
    sys.exit(main())
