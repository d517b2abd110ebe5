"""One benchmark process: set up, warm up, run the timed phase, report.

run.py starts this in a fresh interpreter and reads one JSON object from its
last stdout line.  `ready` in that object is the perf_counter reading (the
system-wide monotonic clock on Linux) at the end of set-up, so whoever
spawned the process can time its set-up; the timed phase spawns set-up-only
copies of itself the same way.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import probes
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, CliCold, digest, load_wsngen, src_env

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
EXPECTED = ROOT / "perfbench" / "expected_digests.json"
P90_MIN_OPS = 100
# fresh set-up-only processes per untraced run, besides the worker's own set-up
SETUP_PROBES = 4

# committed report -> the CLI argv that regenerates it
REPORTS = (
    ("batch.txt", ["report", "--kind", "batch"]),
    ("agreement.txt", ["report", "--kind", "agreement"]),
    ("agreement.json", ["report", "--kind", "agreement", "--format", "json"]),
    ("packet_diff.txt", ["report", "--kind", "packet-diff"]),
    ("packet_diff.json", ["report", "--kind", "packet-diff", "--format", "json"]),
)


class Ledger:
    """Attempts, output digests and failures of the ops a phase ran."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}

    def run(self, workload, i: int) -> float:
        """Run op i, check its outputs, and return its latency in seconds."""
        inp = workload.op_input(i)
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            value = workload.check(inp, out)
        except Exception as exc:
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return elapsed
        if self.digests.setdefault(i, value) != value:
            self.failures.append(f"op {i}: outputs differ between two runs of the same op")
        return elapsed


def make_workload(name: str, seed: int, in_process: bool):
    if name == CliCold.name:
        return CliCold(ROOT, seed, in_process=in_process)
    return WORKLOADS[name](ROOT, seed)


def pin_digests(workload, ledger: Ledger, expected_path: Path) -> str:
    """Run any unrun op below digest_ops, compare with the committed digests
    for the default seed, and return the workload's outputs digest."""
    for i in range(workload.digest_ops):
        if i not in ledger.digests:
            ledger.run(workload, i)
    if workload.seed == DEFAULT_SEED:
        expected = json.loads(expected_path.read_text())[workload.name]
        for i, value in enumerate(expected):
            if i in ledger.digests and ledger.digests[i] != value:
                ledger.failures.append(f"op {i}: digest {ledger.digests[i][:12]} != expected {value[:12]}")
    return digest(*(ledger.digests.get(i, "failed") for i in range(workload.digest_ops)))


def check_committed_reports(cli) -> list[str]:
    """Regenerate reports/ through the CLI and name every file that differs."""
    mismatched = []
    for name, argv in REPORTS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", "report.out"])
        if code != 0 or Path("report.out").read_bytes() != (ROOT / "reports" / name).read_bytes():
            mismatched.append(name)
    return mismatched


def setup_probe(args) -> float:
    """Seconds from spawning a fresh set-up-only worker to its first timed op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    spawned = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - spawned


def timed_phase(workload, ledger: Ledger, seconds: float, probe) -> tuple[list[float], list[float]]:
    """Run ops until they took `seconds` in all, then finish the period so
    every run holds the same op mix.

    SETUP_PROBES set-ups are spread evenly through the phase, so ops and
    set-ups sample the same, longer stretch of host time; the host's speed
    drifts over tens of seconds.
    """
    latencies, setups = [], []
    busy = 0.0
    while busy < seconds or len(latencies) % workload.period:
        if len(setups) < SETUP_PROBES and busy >= seconds * (len(setups) + 1) / (SETUP_PROBES + 1):
            setups.append(probe())
        latencies.append(ledger.run(workload, len(latencies)))
        busy += latencies[-1]
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return latencies, setups


def traced_phase(workload, ledger: Ledger, tracer, seconds: float) -> tuple[int, float, float]:
    """Run each op untraced, then again traced, until both together took
    `seconds`.  Pairing the two keeps host speed drift out of the ratio."""
    plain = traced = 0.0
    i = 0
    while plain + traced < seconds or i == 0:
        plain += ledger.run(workload, i)
        tracer.op = i
        tracer.install()
        try:
            traced += ledger.run(workload, i)
        finally:
            tracer.uninstall()
        i += 1
    return i, plain, traced


def build_peak_mb(w, tracer) -> float:
    """tracemalloc peak of one untraced rerun of the first build_graph call."""
    if "topology.build_graph" not in tracer.first_args:
        return 0.0
    args, kwargs = tracer.first_args["topology.build_graph"]
    tracemalloc.start()
    try:
        w.topology.build_graph(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1000.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        # the traced run drives cli_cold through wsngen.cli.main in-process
        workload = make_workload(args.workload, args.seed, in_process=bool(args.trace))
        warm_up = Ledger()
        warm_up.run(workload, -1)
        ready = time.perf_counter()
        if warm_up.failures:
            print("\n".join(warm_up.failures), file=sys.stderr)
            return 1
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        ledger = Ledger()
        result = {"ready": ready}
        if args.trace:
            w = load_wsngen(ROOT)
            tracer = Tracer(w)
            ops, plain, traced = traced_phase(workload, ledger, tracer, args.seconds)
            layers = tracer.layer_metrics(ops)
            layers["trace.overhead_ratio"] = traced / plain - 1.0
            layers["topology.build_peak_mb"] = build_peak_mb(w, tracer)
            layers.update(probes.import_probes(src_env(ROOT)))
            ladder, errors = probes.scaling_ladder(w, args.seed)
            layers.update(ladder)
            result.update(ops=ops, layers=layers, ladder_errors=errors)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                              "fields": ["span", "start", "end", "parent", "op"],
                                              "spans": tracer.spans}))
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            latencies, setups = timed_phase(workload, ledger, args.seconds, lambda: setup_probe(args))
            # for cli_cold, the largest CLI child; the set-up probes are not counted
            peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if workload.in_process
                       else workload.child_peak_rss_kb)
            result.update(
                ops=len(latencies),
                busy_s=sum(latencies),
                op_p50_ms=statistics.median(latencies) * 1000.0,
                op_p90_ms=percentile_ms(latencies, 90) if len(latencies) >= P90_MIN_OPS else None,
                peak_rss_mb=peak_kb / 1024.0,
                probe_setups_s=setups,
            )
        result["outputs_digest"] = pin_digests(workload, ledger, EXPECTED)
        result["reports_mismatched"] = check_committed_reports(load_wsngen(ROOT).cli)
        result.update(attempted=ledger.attempted, failed=len(ledger.failures),
                      failures=ledger.failures[:10])
        print(json.dumps(result))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
