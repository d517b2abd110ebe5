"""wsngen benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload seed_sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py        # all four workloads, seed 0, 10 s each

Run it from a checkout of the repository; it imports wsngen from src/ and
never from an installed copy.  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics of a
separate traced run.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it give every metric
with its unit, op_p50_ms, op_p90_ms and error_rate, the outputs digest and an
environment stamp.  The exit status is 0 only when every op passed its output
check and every committed report regenerated byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170


def run_worker(args, workload: str) -> tuple[float, dict]:
    """Start worker.py in a fresh interpreter; return (set-up seconds, result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.perf_counter()
    # its own session, so a timeout also ends the CLI processes it started
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr)
        raise SystemExit(f"perfbench: worker exited with status {proc.returncode}")
    result = json.loads(stdout.splitlines()[-1])
    return result["ready"] - spawned, result


def environment(seed: int, ops: int) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "src_sha256": src.hexdigest(),
            "workload_seed": seed, "ops": ops}


def bench(args, workload: str, spec: dict) -> int:
    """Run one workload once, print its metrics, and return the exit status."""
    setup_s, result = run_worker(args, workload)
    setups = [setup_s] + result.get("probe_setups_s", [])

    if args.trace:
        measured = result["layers"]
        wanted = spec["per_layer"]
    else:
        measured = {"setup_s": statistics.median(setups),
                    "ops_per_s": result["ops"] / result["busy_s"],
                    "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    problems = result["failures"] + [f"committed report differs: reports/{name}"
                                     for name in result["reports_mismatched"]]
    problems += result.get("ladder_errors", [])
    env = environment(args.seed, result["ops"])

    print(f"perfbench workload={workload} seed={args.seed} trace={args.trace} "
          f"ops={result['ops']} attempted={attempted} failed={failed}")
    print("env " + json.dumps(env))
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6f} {metric['unit']}")
    if not args.trace:
        print(f"  {'setup_samples_s':<34} {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"  {'op_p50_ms':<34} {result['op_p50_ms']:>16.6f} ms (n={result['ops']})")
        p90 = result["op_p90_ms"]
        print(f"  {'op_p90_ms':<34} " + (f"{p90:>16.6f} ms (n={result['ops']})" if p90 is not None
                                        else f"{'-':>16} (n={result['ops']} < 100 ops)"))
    print(f"  {'error_rate':<34} {failed / attempted:>16.6f} ratio ({failed}/{attempted})")
    print(f"  outputs_digest {result['outputs_digest']}")
    print(f"  committed reports: {5 - len(result['reports_mismatched'])}/5 byte-identical")
    if "spans_file" in result:
        print(f"  spans written to {result['spans_file']}")
    for problem in problems:
        print(f"  FAIL {problem}")

    correct = not problems
    record = {"env": env, "trace": args.trace, "metrics": metrics,
              "op_p50_ms": result.get("op_p50_ms"), "op_p90_ms": result.get("op_p90_ms"),
              "error_rate": failed / attempted, "outputs_digest": result["outputs_digest"],
              "setups_s": setups, "problems": problems}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    missing = [p for p in ("src/wsngen/__init__.py", "reports/batch.txt") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: no wsngen checkout at {ROOT} (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    return max(bench(args, name, spec) for name in (names if args.workload == "all" else [args.workload]))


if __name__ == "__main__":
    sys.exit(main())
