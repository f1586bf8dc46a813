#!/usr/bin/env python3
"""Repository benchmark: runs one workload of the simulated PM2 stack and
prints its end-to-end metrics (``--trace 0``) or per-layer metrics
(``--trace 1``) as the last line of standard output.

    python3 perfbench/run.py --workload rpc_tail --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call builds ``perfbench/`` (which compiles ``src/``) into
``.perfbench_build/``.  Each repetition is a fresh process of the benchmark
binary on the same seed; repetitions run back to back until ``--seconds``
have passed.  Virtual-clock metrics must agree bit for bit across every
repetition, traced or not; host-clock metrics are medians over them.  The
metric names and units come from BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".perfbench_build"
WORKLOADS = ("rpc_tail", "stencil_mt", "halo_allreduce")

MIN_REPS = 3           # per mode
HARD_STOP_S = 140.0    # never start a repetition after this
REP_TIMEOUT_S = 60.0

HOST_E2E = ("setup_s", "run_s", "peak_rss_mb")
# Printed for the reader but not gated: they read 0 or n/a on some
# workloads (failed_frac is carried by "failed"/"attempted").
INFO = [("lat_p999_us", "us", "rpc_tail"),
        ("gen_lag_p99_us", "us", "rpc_tail"),
        ("failed_frac", "ratio", None)]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Configure and build once per checkout; later calls are no-ops."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no pm2 sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
            configure += ["-G", "Ninja"]
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        for cmd in (configure,
                    ["cmake", "--build", str(BUILD), "--parallel", jobs]):
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=850)
            if res.returncode != 0:
                die(f"build step failed: {' '.join(cmd)}")


def run_rep(workload, seed, traced, spans_path):
    """One process of the benchmark binary; (record, None) or (None, why)."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", str(spans_path)]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "repetition timed out"
    if res.returncode != 0:
        return None, f"exit {res.returncode}: {res.stderr.strip()[-300:]}"
    try:
        return json.loads(res.stdout.strip().splitlines()[-1]), None
    except (json.JSONDecodeError, IndexError):
        return None, "unparseable output"


def median(values):
    return statistics.median(values) if values else 0.0


def check(reps):
    """Output checks and virtual-clock determinism; returns error strings."""
    errors = []
    everything = reps[False] + reps[True]
    for r in everything:
        if not (r["correct"] and r["finished"]):
            errors.extend(r["errors"][:3] or ["run not correct"])
    ref = everything[0]
    for r in everything[1:]:
        if (r["virtual"] != ref["virtual"] or
                r["layer_virtual"] != ref["layer_virtual"]):
            errors.append("virtual metrics differ between repetitions "
                          "(traced or untraced)")
            break
    for r in reps[True][1:]:
        if r["layer_spans"] != reps[True][0]["layer_spans"]:
            errors.append("span metrics differ between traced repetitions")
            break
    return errors


def layer_values(reps):
    """Every per-layer value: virtual ones from the traced run, host ones as
    medians (run_s ones over untraced repetitions only)."""
    base, traced = reps[False], reps[True]
    values = dict(traced[0]["layer_virtual"])
    values.update(traced[0]["layer_spans"])
    everything = base + traced
    run_plain = median([r["host"]["run_s"] for r in base])
    run_traced = median([r["host"]["run_s"] for r in traced])
    events = values.get("sim.events", 0)
    values.update({
        "pm2.cluster_ctor_s": median([r["host"]["ctor_s"] for r in everything]),
        "pm2.register_s": median([r["host"]["register_s"] for r in everything]),
        "pm2.teardown_s": median([r["host"]["teardown_s"] for r in everything]),
        # Absent from a stalled repetition, which is already incorrect.
        "pm2.setup_warm_s": median([r["host"].get("setup_warm_s", 0.0)
                                    for r in everything]),
        "sim.host_ns_per_event": run_plain * 1e9 / events if events else 0.0,
        "trace.host_overhead_ratio": run_traced / run_plain,
    })
    return values


def report(args, reps, errors, spec):
    base = reps[False]
    ref = (base + reps[True])[0] if base or reps[True] else None
    virt = ref["virtual"] if ref else {}
    host = {k: median([r["host"][k] for r in base]) for k in HOST_E2E}
    samples = {name: len(base) for name in HOST_E2E}
    samples["gen_lag_p99_us"] = int(virt.get("gen_lag_samples", 0))

    def value(name):
        return host.get(name, 0.0) if name in HOST_E2E else virt.get(name, 0.0)

    attempted = ref["attempted"] if ref else 0
    failed = ref["failed"] if ref else 0
    print(f"perfbench {args.workload} seed={args.seed}: {len(base)} untraced "
          f"+ {len(reps[True])} traced repetitions; {attempted} ops "
          f"attempted, {failed} failed")
    print(f"  {'metric':26s} {'value':>14s} {'unit':6s} {'clock':8s} samples")
    rows = [(m["name"], m["unit"], None) for m in spec["end_to_end"]] + INFO
    for name, unit, only in rows:
        clock = "host" if name in HOST_E2E else "virtual"
        label = name
        if name == "lat_tail_us":
            label = f"lat_tail_us (p{virt.get('lat_tail_q', 0) * 100:g})"
        if only is not None and only != args.workload:
            print(f"  {label:26s} {'n/a':>14s} {unit:6s} {clock:8s} -")
            continue
        n = samples.get(name, int(virt.get("ops", 0)))
        print(f"  {label:26s} {value(name):14.6g} {unit:6s} {clock:8s} {n}")
    for e in errors[:5]:
        print(f"  error: {e}")

    if args.trace == 0:
        metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        values = layer_values(reps) if base and reps[True] else {}
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        if ref is not None:
            self_us = reps[True][0]["self_us"] if reps[True] else {}
            print("  self time by span (virtual us): " + ", ".join(
                f"{k}={v:.1f}" for k, v in sorted(self_us.items())))
    return {"correct": not errors, "attempted": max(1, int(attempted)),
            "failed": int(failed) if ref else 1, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    spec = load_spec()
    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BUILD / "perfbench_tests")]).returncode)
    if args.workload is None:
        die("--workload is required")

    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}.csv"
    # A traced run alternates untraced and traced repetitions: the per-layer
    # report needs both (trace.host_overhead_ratio), and both must agree on
    # every virtual-clock number.
    modes = [False, True] if args.trace else [False]
    reps = {False: [], True: []}
    errors = []
    t0 = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - t0
        enough = all(len(reps[m]) >= MIN_REPS for m in modes)
        if (enough and elapsed >= args.seconds) or elapsed >= HARD_STOP_S:
            break
        traced = modes[i % len(modes)]
        i += 1
        rec, err = run_rep(args.workload, args.seed, traced, spans_path)
        if rec is None:
            errors.append(err)
            break
        reps[traced].append(rec)
    if reps[False] or reps[True]:
        errors += check(reps)
    if not all(reps[m] for m in modes):
        errors.append("no complete repetition")
    print(json.dumps(report(args, reps, errors, spec)))


if __name__ == "__main__":
    main()
