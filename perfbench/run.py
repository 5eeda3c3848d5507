#!/usr/bin/env python3
"""Closed-loop benchmark of minifock.

    python3 perfbench/run.py --workload water-dz --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench, runs the driver on one
workload from perfbench/workloads.json, and prints a human summary followed
by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(medians over the run's samples); with --trace 1 they are its per-layer
metrics, and the span trace is written next to the report. Full reports,
with every sample and the machine fingerprint, go to
.bench_build/perfbench/reports/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER_TIMEOUT_S = 170
# The driver's round order (kOps in driver.cpp).
OPS = ("serial", "gtfock", "nwchem", "recovery", "scf", "des", "setup")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}", 3)
    return proc


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no minifock sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                "-j", jobs], timeout=840)
    return BUILD / "perfbench_driver"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown (no git metadata in this checkout)"


def source_hash():
    """Hash of the library sources, so DES digests are compared only
    between runs of the same program."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def des_digest_repeats(workload, inputs, seed, digest):
    """True unless an earlier run of this program on the same DES inputs
    and seed, in this checkout, saw different DES predictions."""
    path = BUILD / "reports" / "des_digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    config = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    key = (f"{workload}/seed{seed}/src{source_hash()}"
           f"/inputs{config.hexdigest()[:16]}")
    if known.setdefault(key, digest) != digest:
        return False
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def summarize(values):
    """Median, quartile spread (IQR over median) and sample count."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        spread = (q3 - q1) / med if med else 0.0
    else:
        spread = 0.0
    return med, spread, len(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        fail(f"unknown workload {args.workload!r}; "
             f"have {sorted(config['workloads'])}")
    wl = config["workloads"][args.workload]
    driver = build()

    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = reports / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(driver),
           f"--family={wl['family']}", f"--size={wl['size']}",
           f"--basis={wl['basis']}", f"--des-size={wl['des_size']}",
           f"--e-ref={wl['reference_energy']!r}",
           f"--t-int={config['t_int_s']!r}",
           "--repeats=" + ",".join(str(wl["repeats"][op]) for op in OPS),
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--report={report_path}"]
    if args.trace:
        cmd.append(f"--spans={reports / (stem + '-spans.json')}")
    env = dict(os.environ)
    env.pop("MINIFOCK_CACHE_DIR", None)  # the benchmark never uses the cache
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not report_path.is_file():
        fail(f"driver exited with {proc.returncode}", 4)
    report = json.loads(report_path.read_text())

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    samples = report["layer"] if args.trace else report["e2e"]
    missing = [m["name"] for m in wanted if not samples.get(m["name"])]
    if missing:
        fail(f"driver reported no samples for {missing}", 5)

    fingerprint = {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["build_type"],
        "flags": report["build"]["flags"].strip(),
        "git_commit": git_commit(),
        "threads": report["threads"],
        "inputs": report["inputs"],
    }
    metrics, table = {}, []
    for m in wanted:
        med, spread, n = summarize(samples[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        table.append({"name": m["name"], "unit": m["unit"], "median": med,
                      "spread": spread, "samples": n})
    attempted, failed = report["attempted"], report["failed"]
    failures = list(report["failures"])
    inputs = {"family": wl["family"], "des_size": wl["des_size"],
              "t_int_s": config["t_int_s"]}
    if not des_digest_repeats(args.workload, inputs, args.seed,
                              report["des_digest"]):
        failed += 1  # the run's DES sweeps disagree with an earlier run's
        failures.append("des sweep: predictions differ from an earlier run "
                        "with the same seed")
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "fingerprint": fingerprint, "attempted": attempted,
            "failed": failed, "failure_share": failed / max(1, attempted),
            "failures": failures, "des_digest": report["des_digest"],
            "metrics": table}
    (reports / f"{stem}-result.json").write_text(json.dumps(full, indent=2))

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"measured {report['measured_s']:.1f} s")
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(f"# operations: {attempted} attempted, {failed} failed "
          f"({100.0 * failed / max(1, attempted):.1f}%); "
          f"DES prediction digest {report['des_digest']}")
    print(f"# {'metric':<26} {'unit':<8} {'median':>14} {'spread':>8} {'n':>4}")
    for row in table:
        print(f"# {row['name']:<26} {row['unit']:<8} {row['median']:>14.6g} "
              f"{100 * row['spread']:>7.1f}% {row['samples']:>4}")
    for what in failures:
        print(f"# FAILED: {what}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
