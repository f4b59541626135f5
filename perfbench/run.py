#!/usr/bin/env python3
"""Builds and runs the simulator benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload c1m|apps|mp4|armed --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.json B.json

The first form builds perfbench/ (a CMake project over src/) into the build
directory, runs one workload for S seconds of repetitions, checks every
repetition's virtual-time results against perfbench/expected.json, prints a
table of every metric, writes the full result with its host fingerprint
under <build dir>/results/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

The second form compares two such result files and refuses when their host
fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("c1m", "apps", "mp4", "armed")
RUN_TIMEOUT_S = 170
# Repetition times vary more between processes than within one: on a 4-vCPU
# Xeon VM, within-process quartiles sit ~5% apart while process medians differ by
# up to 25%. A run therefore splits its seconds over PROCESSES sequential
# perfbench processes and pools their repetitions.
PROCESSES = 4

# Derived per-layer ratios: name -> (numerator, denominator, denominator
# addend); all inputs are per-repetition medians.
RATIOS = {
    "uvm.jit_deopt_ratio": ("uvm.jit_deopts", "uvm.jit_entries", None),
    "kern.syscall.fast_ratio": ("kern.syscall.fast", "kern.syscall.count", None),
    "kern.tlb.hit_ratio": ("kern.tlb.hits", "kern.tlb.hits", "kern.tlb.misses"),
    "kern.timer.cascades_per_arm": ("kern.timer.cascades", "kern.timer.arms", None),
    "kern.mp.bursts_per_epoch": ("kern.mp.bursts", "kern.mp.epochs", None),
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build():
    """Configures and builds the benchmark; returns the binary."""
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", jobs]):
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    return out / "perfbench"


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout need
    not be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(binary_info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu,
            "machine": platform.machine(),
            "build_type": binary_info.get("build_type"),
            "compiler": binary_info.get("compiler"),
        },
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def op_of(workload, key):
    """The operation an oracle key belongs to."""
    if workload == "apps":
        return key.rsplit(".", 1)[0]
    return "restore" if key.startswith("replay.") else "scenario"


def check(workload, reps, expected):
    """Returns (mismatch lines, failed-operation count, attempted count,
    completion failures)."""
    want = expected[workload]
    mismatches, failed, attempted, incomplete = [], 0, 0, 0
    for r in reps:
        attempted += r["attempted"]
        bad_ops = {e.split(":", 1)[0] for e in r["errors"]}
        # A commit or restore error is a failed operation; any other error
        # means a scenario produced no valid output.
        incomplete += sum(1 for e in r["errors"] if not e.startswith(("commit ", "restore:")))
        got = r["oracle"]
        for key, value in got.items():
            if key not in want:
                mismatches.append(f"process {r['process']} rep {r['rep']}: {key}={value} has no expected value")
                bad_ops.add(op_of(workload, key))
            elif want[key] is None or str(want[key]) != str(value):
                mismatches.append(f"process {r['process']} rep {r['rep']}: {key}={value}, expected {want[key]}")
                bad_ops.add(op_of(workload, key))
        for key in want:
            # replay.* exists only once a restore succeeds.
            if key not in got and not key.startswith("replay."):
                mismatches.append(f"process {r['process']} rep {r['rep']}: {key} missing")
                bad_ops.add(op_of(workload, key))
        failed += len(bad_ops)
    return mismatches, failed, attempted, incomplete


def load_spec():
    """BENCHMARK.json, checked against the layer map in layers.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != set(layers):
        log("BENCHMARK.json per_layer and perfbench/layers.json name different metrics: "
            f"{sorted(declared ^ set(layers))}")
        sys.exit(1)
    return spec


def measure(binary, args, work):
    """Runs perfbench in PROCESSES sequential processes of seconds/PROCESSES
    each and pools their repetition records."""
    reps, info = [], None
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for p in range(PROCESSES):
        cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed * PROCESSES + p}",
               f"--seconds={args.seconds / PROCESSES}", f"--work={work}"]
        if args.trace:
            cmd.append("--trace")
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
            sys.exit(1)
        if r.returncode != 0:
            log(f"{' '.join(cmd)} exited {r.returncode}")
            sys.exit(1)
        lines = [json.loads(l) for l in r.stdout.splitlines() if l.strip()]
        info = lines[0]["fingerprint"]
        for x in lines[1:]:
            x["process"] = p
            reps.append(x)
    if not reps:
        log("no repetitions recorded")
        sys.exit(1)
    return info, reps


def run(args):
    spec = load_spec()
    expected = json.loads((HERE / "expected.json").read_text())
    binary = build()
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    binary_info, reps = measure(binary, args, work)

    mismatches, failed, attempted, incomplete = check(args.workload, reps, expected)
    correct = not mismatches and incomplete == 0
    timed = [x for x in reps if not x["warmup"]]
    untraced = [x for x in timed if not x["traced"]]
    traced = [x for x in timed if x["traced"]]

    def series(rows, section, name):
        return [x[section][name] for x in rows if name in x[section]]

    # End-to-end: medians over the untraced timed repetitions.
    e2e = {}
    for m in spec["end_to_end"]:
        vals = series(untraced, "e2e", m["name"])
        if vals:
            e2e[m["name"]] = (quartiles(vals), len(vals), m["unit"])
    restore = series(untraced, "e2e", "restore_s")

    # Per-layer: counts and host-time splits from the untraced repetitions,
    # span self times from the traced ones.
    layer = {}
    if args.trace:
        for m in spec["per_layer"]:
            name = m["name"]
            rows = traced if name.startswith(("self.", "bench.span")) else untraced
            vals = series(rows, "layer", name)
            layer[name] = (quartiles(vals) if vals else (0.0, 0.0, 0.0), len(vals), m["unit"])
        for name, (num, den, extra) in RATIOS.items():
            if name in layer:
                n = layer[num][0][1]
                d = layer[den][0][1] + (layer[extra][0][1] if extra else 0.0)
                layer[name] = ((0.0, n / d if d else 0.0, 0.0), len(untraced), layer[name][2])
        if "bench.trace_overhead_frac" in layer:
            u = statistics.median(series(untraced, "e2e", "rep_s"))
            t = statistics.median(series(traced, "e2e", "rep_s"))
            layer["bench.trace_overhead_frac"] = ((0.0, t / u - 1.0, 0.0), len(traced), "ratio")

    fp = fingerprint(binary_info)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "fingerprint": fp, "correct": correct,
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "errors": sorted({e for x in reps for e in x["errors"]}),
        "repetitions": len(timed),
        "end_to_end": {k: {"median": q[1], "q1": q[0], "q3": q[2], "n": n, "unit": u}
                       for k, (q, n, u) in e2e.items()},
        "per_layer": {k: {"median": q[1], "q1": q[0], "q3": q[2], "n": n, "unit": u}
                      for k, (q, n, u) in layer.items()},
        "spans": [str(work / f"spans-{args.workload}-{args.seed * PROCESSES + p}.json")
                  for p in range(PROCESSES)] if args.trace else [],
    }
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    # Human-readable report.
    host = fp["host"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)} | {host['nproc']} cpus, {host['cpu_model']}, "
          f"{host['build_type']}, {host['compiler']}, commit {fp['git_commit'][:12]}, "
          f"source {fp['source_digest']}")
    print(f"  {len(timed)} timed repetitions ({len(traced)} traced) after "
          f"{len(reps) - len(timed)} warm-up repetitions")
    rows = e2e if not args.trace else layer
    for name, ((q1, med, q3), n, unit) in rows.items():
        spread = f"  IQR {q1:.6g}..{q3:.6g} (n={n})" if n > 1 and q3 != q1 else f"  (n={n})"
        print(f"  {name:34s} {med:14.6g} {unit:10s}{spread}")
    if not args.trace:
        frac = failed / attempted if attempted else 0.0
        print(f"  {'fail_frac':34s} {frac:14.6g} {'ratio':10s}  ({failed}/{attempted})")
        if args.workload == "armed":
            if restore:
                print(f"  {'restore_s':34s} {statistics.median(restore):14.6g} s")
            else:
                print(f"  {'restore_s':34s} {'not reported':>14s}   (no restore succeeded)")
    for e in result["errors"]:
        print(f"  operation error: {e}")
    for m in mismatches[:20]:
        print(f"  ORACLE MISMATCH: {m}")
    print(f"  result: {out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}")

    metrics = {k: {"value": q[1], "unit": u} for k, (q, n, u) in rows.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    if a["fingerprint"]["host"] != b["fingerprint"]["host"]:
        log("refusing to compare results from different host fingerprints:")
        log(f"  {a_path}: {a['fingerprint']['host']}")
        log(f"  {b_path}: {b['fingerprint']['host']}")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("refusing to compare different workloads or trace modes")
        return 3
    print(f"{a['workload']}: {a['fingerprint']['git_commit'][:12]} "
          f"({a['fingerprint']['source_digest']}) -> {b['fingerprint']['git_commit'][:12]} "
          f"({b['fingerprint']['source_digest']})")
    for section in ("end_to_end", "per_layer"):
        for name, ma in a[section].items():
            mb = b[section].get(name)
            if mb is None:
                continue
            ratio = mb["median"] / ma["median"] if ma["median"] else float("nan")
            print(f"  {name:34s} {ma['median']:12.6g} -> {mb['median']:12.6g} {ma['unit']:8s}"
                  f" x{ratio:.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    start = time.monotonic()
    run(args)
    log(f"{args.workload} finished in {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
