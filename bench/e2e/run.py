#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root.  It builds bench/e2e with CMake into
.bench_build/e2e, warms the host's CPUs, measures set-up time over
several fresh processes, runs the workload for T seconds, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones.  With
--trace 1 they are its per_layer ones: a plain run and a traced run
(spans written to .bench_build/e2e/traces/) each measure the workload,
the traced run gives the layer metrics, and the difference between the
two is the tracing overhead.  A layer the workload does not enter
reads 0.

The line before it is the full record (host fingerprint, commit, both
metric sets); --record FILE also appends that record to FILE.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "e2e"
# Set-up is timed over this many fresh processes besides the main one.
SETUP_PROBES = 14
# After an idle spell the VM's vCPUs deliver about a third of their time
# for the first second under load; spinning this long first avoids it.
WARM_SECONDS = 2.0


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def busy_threads():
    """Threads the benchmark keeps busy (must match busyThreads())."""
    return max(1, min(4, len(os.sched_getaffinity(0)) - 1))


def build():
    """Configure once, then (re)build the benchmark; returns the binary."""
    if not Path("src", "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt here: run from the repository root", 2)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD_DIR / "aaws_e2e"


def warm_host():
    code = ("import time\nend = time.monotonic() + %r\n"
            "while time.monotonic() < end:\n    pass\n" % WARM_SECONDS)
    spinners = [subprocess.Popen([sys.executable, "-c", code])
                for _ in range(busy_threads())]
    for spinner in spinners:
        spinner.wait()


def run_binary(cmd, timeout, env=None):
    """Run one benchmark process; returns (seconds to `ready`, last line).

    The `ready` line marks the end of set-up, so the first value is the
    set-up time from process start.  A process still running after
    `timeout` seconds is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready_s = None
    last = None
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "ready":
                ready_s = time.perf_counter() - start
            elif line.strip():
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return ready_s, last


def verify_env():
    """The environment of a --verify-only process.

    glibc's mmap threshold is fixed at its initial 128 KiB, so every large
    block is mapped and unmapped on its own and the peak RSS follows live
    memory.  With the default sliding threshold the peak depended on the
    heap's layout: one string a few bytes longer moved it by 8 MB.
    """
    env = dict(os.environ)
    tunable = "glibc.malloc.mmap_threshold=131072"
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), tunable) if t)
    return env


def measure(binary, args, trace_path):
    """Set-up probes plus the measured run; returns the binary's record.

    A sim workload also runs a --verify-only process, which checks the
    golden pass and measures peak memory; its counts and metric join the
    record.
    """
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--scratch={BUILD_DIR / 'scratch'}"]
    if args.smoke:
        cmd.append("--smoke")
    setup = [run_binary(cmd + ["--setup-only"], 60)[0]
             for _ in range(SETUP_PROBES)]
    timed = cmd + [f"--seconds={args.seconds}"]
    if trace_path:
        timed.append(f"--trace={trace_path}")
    ready_s, last = run_binary(timed, 3 * args.seconds + 60)
    setup.append(ready_s)
    record = json.loads(last)
    record["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                    "unit": "s"}
    record["setup_samples_s"] = setup
    if args.workload.startswith("sim_"):
        golden = args.golden or os.path.relpath(
            BENCH_DIR / "golden" / (args.workload + ".txt"))
        verified = json.loads(run_binary(
            cmd + ["--verify-only", f"--golden={golden}"], 120,
            verify_env())[1])
        for key in ("ops", "failed_ops"):
            record[key] += verified[key]
        record["metrics"].update(verified["metrics"])
    return record


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """git HEAD when this is a git checkout, else a digest of src/."""
    if Path(".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                 capture_output=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha1()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file():
            digest.update(str(path).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def pick(record, wanted, section):
    """The `wanted` metrics of record[section], units checked.

    A per-layer metric the workload did not report is a layer it does
    not enter, and reads 0; a missing end-to-end metric is an error.
    """
    out = {}
    for m in wanted:
        got = record[section].get(m["name"])
        if got is None:
            if section != "layers":
                fail(f"the benchmark did not report {m['name']}")
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 of the work per operation")
    parser.add_argument("--golden", help="digest file for sim_* workloads")
    parser.add_argument("--record", help="append the full record here")
    args = parser.parse_args()

    if not Path("BENCHMARK.json").is_file():
        fail("no BENCHMARK.json here: run from the repository root", 2)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    binary = build()
    warm_host()
    plain = measure(binary, args, None)
    runs = [plain]
    layers = None
    if args.trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = measure(binary, args,
                         trace_dir / f"{args.workload}-{args.seed}.json")
        runs.append(traced)
        layers = pick(traced, spec["per_layer"], "layers")
        for m in spec["end_to_end"]:
            a = plain["metrics"][m["name"]]["value"]
            b = traced["metrics"][m["name"]]["value"]
            cost = (b - a) if m["better"] == "lower" else (a - b)
            key = "trace.overhead_frac." + m["name"]
            if key in layers:
                layers[key]["value"] = cost / a
    metrics = pick(plain, spec["end_to_end"], "metrics")

    build_info = plain["build"]
    record = {
        "schema": "aaws-e2e-record/v2",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "commit": commit(),
        "fingerprint": {
            "cores": build_info["cores"],
            "cpu": cpu_model(),
            "compiler": build_info["compiler"],
            "build_type": build_info["build_type"],
        },
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "correct": all(r["failed_ops"] == 0 for r in runs),
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed_ops"] for r in runs),
        "metrics": metrics,
        "layers": layers,
        "setup_samples_s": plain["setup_samples_s"],
    }
    line = json.dumps(record, sort_keys=True)
    if args.record:
        with open(args.record, "a") as f:
            f.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": layers if args.trace else metrics,
    }))


if __name__ == "__main__":
    main()
