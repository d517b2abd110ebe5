"""Terminal summary: one line per acceptance criterion after the run."""

import re

CRITERIA = {
    1: "constant derivation reproduces all 20 recorded (a, c) pairs at 6 d.p.",
    2: "deploy/traffic output byte-identical across 10 repeated invocations",
    3: "grid quadrant translations exact; equal X and Y streams degenerate to diagonals",
    4: "KS and chi2 statistics match independent brute-force oracles",
    5: "inverse-transform Exp(1) law and min-of-exponentials frequencies",
    6: "isolated counts non-increasing in transmission range, all rows and modes",
    7: "reproduction attempt documented; autocorrelation Satisfied on all 40 cells",
    8: "packet diff report exists; all generated values inside [2, 10)",
    9: "window frequencies of 1e5 generated samples fit the chain's Parry density",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            match = _PATTERN.search(getattr(rep, "nodeid", ""))
            if match:
                num = int(match.group(1))
                verdict = "PASS" if outcome == "passed" else "FAIL"
                results[num] = verdict
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        terminalreporter.write_line(
            "criterion %d: %s - %s" % (num, results[num], CRITERIA.get(num, ""))
        )
