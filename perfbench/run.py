#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload, and
print the result as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver binary (perfbench/bench.cpp) is
built with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, and --trace 1 runs
one traced process and prints the per-layer metrics. Every time metric is
taken at reference host speed: each wall time is scaled by REF_NOMINAL_MS
over host.ref_ms, a fixed kernel that the driver runs in a fresh process
right beside it (see perfbench/README.md for why). Set-up time is the median over several fresh
processes of the scaled time from spawn to the end of the first, cold
iteration; iteration time is the median of the scaled timed iterations of
one process. At the committed seed every iteration's digest must match
perfbench/golden.json; at any seed the driver checks the invariants that need
no golden values. Every failed iteration counts in `failed`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3        # processes timed for setup_s, the main one included
REF_NOMINAL_MS = 20.0    # host.ref_ms of the reference host speed
CHILD_TIMEOUT_S = 170    # every run must end within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the driver; a no-op when it is up to date."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "-j", jobs, "--target", "logp_perfbench"]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "logp_perfbench")


def run_child(argv):
    """Runs the driver; returns (seconds from spawn to cold-done, report)."""
    start = time.perf_counter()
    # Unbuffered, so readline() takes only the first line and communicate()
    # gets the rest from the pipe.
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, bufsize=0)
    try:
        first = p.stdout.readline()
        cold_s = time.perf_counter() - start
        rest, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if p.returncode != 0 or first.strip() != b"cold-done":
        fail(f"driver exited with {p.returncode}: {' '.join(argv)}")
    return cold_s, json.loads(rest.decode().strip().splitlines()[-1])


def scaled_iterations(rep):
    """Each timed iteration's wall time at reference host speed, against the
    mean of the host probes taken right before and right after it."""
    ref = rep["host_ref_ms"]
    return [ms * REF_NOMINAL_MS / ((ref[i + 2] + ref[i + 3]) / 2)
            for i, ms in enumerate(rep["iter_ms"])]


def scaled_setup(cold_s, rep):
    """Spawn-to-cold time at reference host speed, against the three host
    probes the process takes right after its cold iteration."""
    return cold_s * REF_NOMINAL_MS / statistics.median(rep["host_ref_ms"][:3])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes (the smoke test)")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)

    exe = build()
    key = args.workload + ("@tiny" if args.tiny else "")
    argv = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.tiny:
        argv.append("--tiny")
    if args.seed == golden["committed_seed"]:
        argv += ["--expect-digest", golden["digests"][key]]

    if args.trace:
        spans = os.path.join(build_dir(), f"spans-{key}-seed{args.seed}.jsonl")
        _, rep = run_child(argv + ["--trace", "--spans", spans])
        reports = [rep]
        values = dict(rep["layers"])
        values["trace.iter_ms"] = statistics.median(scaled_iterations(rep))
        values["host.ref_ms"] = statistics.median(rep["host_ref_ms"])
        wanted = spec["per_layer"]
        unknown = set(values) - {m["name"] for m in wanted}
        if unknown:
            fail(f"driver printed metrics missing from BENCHMARK.json: {sorted(unknown)}")
        print(f"spans: {os.path.relpath(spans, ROOT)}")
    else:
        cold = [run_child(argv + ["--cold-only"]) for _ in range(SETUP_SAMPLES - 1)]
        cold.append(run_child(argv))
        rep = cold[-1][1]
        reports = [r for _, r in cold]
        iter_ms = statistics.median(scaled_iterations(rep))
        print(f"raw wall time: setup {statistics.median(c for c, _ in cold):.4f} s, "
              f"iteration {statistics.median(rep['iter_ms']):.4f} ms")
        values = {
            "setup_s": statistics.median(scaled_setup(c, r) for c, r in cold),
            "iter_ms": iter_ms,
            "work_per_s": rep["work_per_iter"] / (iter_ms * 1e-3),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for msg in r["failures"]:
            print(f"FAILURE: {msg}")
    print(f"{args.workload}: {len(rep['iter_ms'])} timed iterations, "
          f"digest {rep['digest']}, error_rate {failed / attempted:.4f} "
          f"({failed}/{attempted})")
    print(f"host.ref_ms {statistics.median(rep['host_ref_ms']):.4f} ms "
          "(host speed, from a fresh process: scales the time metrics, not itself "
          "gated); thread CPU/wall "
          f"{rep['thread_cpu_per_wall']:.3f}, process/thread CPU "
          f"{rep['process_cpu_per_thread']:.3f}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
