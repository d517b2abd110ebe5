"""Run the full statistical battery on a deployment and a traffic matrix."""

from wsngen import deploy_nongrid, run_suite, suite_satisfied, traffic_uniform
from wsngen.validation import aggregate_verdicts, reports_to_text

dep = deploy_nongrid(100, 100.0, 0)
reports = run_suite(dep)
print("deployment, seed 0, non-grid:")
print(reports_to_text(reports), end="")
print("overall:", "Satisfied" if suite_satisfied(reports) else "Rejected")
print()

matrix = traffic_uniform(80, 5, 2.0, 10.0)
reports = run_suite(matrix)
print("uniform traffic, 80 x 5 on [2, 10):")
print(reports_to_text(reports), end="")
print("verdicts:", aggregate_verdicts(reports))
