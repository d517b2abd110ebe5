"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it makes a one-second untraced and a
one-second traced run at the default seed, and checks that every metric the
file names is printed with its unit, on the result line and on its own line,
that an untraced run also prints op_p50_ms, and that error_rate is 0.  It
then corrupts one committed expected digest and checks that the correctness
gate (worker.pin_digests) fails exactly that op.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from worker import EXPECTED, OUT, Ledger, make_workload, pin_digests
from workloads import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORRUPT = OUT / "corrupt_expected_digests.json"


def run(workload: str, trace: int) -> tuple[int, list[str]]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def corrupted_digest_fails(name: str) -> bool:
    """Pin the default seed's first ops against an expected-digest file whose
    first entry for `name` is wrong; True if exactly that op is failed."""
    expected = json.loads(EXPECTED.read_text())
    expected[name][0] = "0" * 64
    workdir = OUT / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True)
    CORRUPT.write_text(json.dumps(expected))
    ledger = Ledger()
    home = os.getcwd()
    os.chdir(workdir)  # the ops write their files here
    try:
        pin_digests(make_workload(name, DEFAULT_SEED, in_process=False), ledger, CORRUPT)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        CORRUPT.unlink()
    return len(ledger.failures) == 1 and ledger.failures[0].startswith("op 0: digest")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)
            print("FAIL", message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = len(failures)
            code, lines = run(workload, trace)
            expect(code == 0, f"{label}: exit status {code}")
            if not lines:
                expect(False, f"{label}: printed nothing")
                continue
            result = json.loads(lines[-1])
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            expect(printed == wanted, f"{label}: result metrics {sorted(set(printed) ^ set(wanted))} "
                                      "differ from BENCHMARK.json")
            rows = {fields[0]: fields[1:] for fields in (line.split() for line in lines[:-1]) if fields}
            for name, unit in wanted.items():
                expect(name in rows and rows[name][1:2] == [unit], f"{label}: no line '{name} <value> {unit}'")
            if trace == 0:
                expect(rows.get("op_p50_ms", [])[1:2] == ["ms"], f"{label}: no line 'op_p50_ms <value> ms'")
            expect(rows.get("error_rate", [None])[0] == "0.000000", f"{label}: error_rate is not 0")
            expect(result["correct"] and result["failed"] == 0, f"{label}: not correct")
            if len(failures) == before:
                print(f"ok   {label}: {len(wanted)} metrics, error_rate 0")

        caught = corrupted_digest_fails(workload)
        expect(caught, f"{workload}: a corrupted expected digest did not fail the gate")
        if caught:
            print(f"ok   {workload}: corrupted expected digest fails the gate")
    print("smoke: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
