"""Rewrite expected_digests.json from the current program.

    python3 perfbench/record_digests.py

It records the output digest of the first digest_ops ops of every workload
at the default seed.  Run it only in a change that means to alter wsngen's
outputs; a speed-up must leave every digest as it is.
"""

from __future__ import annotations

import json
import os
import shutil

from worker import EXPECTED, OUT, Ledger, make_workload
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    workdir = OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        expected = {}
        for name in WORKLOADS:
            workload = make_workload(name, DEFAULT_SEED, in_process=False)
            ledger = Ledger()
            for i in range(workload.digest_ops):
                ledger.run(workload, i)
            if ledger.failures:
                print("\n".join(ledger.failures))
                return 1
            expected[name] = [ledger.digests[i] for i in range(workload.digest_ops)]
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
