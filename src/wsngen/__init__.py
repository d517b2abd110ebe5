"""Seed-reproducible generator and validator for sensor network experiments.

The package covers the full pipeline: derive LCG constants from a seed,
lay out nodes on a square field (grid or non-grid), fill per-node traffic
matrices (uniform or exponential), run the uniformity test battery, and
analyze connectivity of the induced radius graph.  Every artifact is a
pure function of its seed and parameters.
"""

from .generator import (
    DEFAULT_TABLE,
    EXTENDED_TABLE,
    GeneratorParams,
    derive_constants,
    load_table,
    stream,
    validate_table,
)
from .deployment import (
    Deployment,
    deploy_grid,
    deploy_nongrid,
    deployment_from_json,
    deployment_to_csv,
    deployment_to_json,
    points_from_csv,
)
from .traffic import (
    DISTRIBUTIONS,
    TrafficMatrix,
    matrix_from_csv,
    traffic_exponential_recurrence,
    traffic_exponential_transform,
    traffic_from_json,
    traffic_to_csv,
    traffic_to_json,
    traffic_uniform,
)
from .validation import (
    SuiteConfig,
    TestReport,
    aggregate_verdicts,
    autocorrelation_test,
    chi2_test,
    circular_correlation_test,
    ks_test,
    normalize,
    reports_to_json,
    reports_to_text,
    run_suite,
    suite_satisfied,
)
from .topology import (
    RadiusGraph,
    build_graph,
    graph_to_csv,
    graph_to_json,
    isolated_by_range,
    isolated_count,
)
from .report import (
    batch_report,
    batch_row,
    packet_diff_report,
    reconstruct_reference_chain,
    reference_agreement_report,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TABLE",
    "EXTENDED_TABLE",
    "GeneratorParams",
    "derive_constants",
    "load_table",
    "stream",
    "validate_table",
    "Deployment",
    "deploy_grid",
    "deploy_nongrid",
    "deployment_from_json",
    "deployment_to_csv",
    "deployment_to_json",
    "points_from_csv",
    "DISTRIBUTIONS",
    "TrafficMatrix",
    "matrix_from_csv",
    "traffic_exponential_recurrence",
    "traffic_exponential_transform",
    "traffic_from_json",
    "traffic_to_csv",
    "traffic_to_json",
    "traffic_uniform",
    "SuiteConfig",
    "TestReport",
    "aggregate_verdicts",
    "autocorrelation_test",
    "chi2_test",
    "circular_correlation_test",
    "ks_test",
    "normalize",
    "reports_to_json",
    "reports_to_text",
    "run_suite",
    "suite_satisfied",
    "RadiusGraph",
    "build_graph",
    "graph_to_csv",
    "graph_to_json",
    "isolated_by_range",
    "isolated_count",
    "batch_report",
    "batch_row",
    "packet_diff_report",
    "reconstruct_reference_chain",
    "reference_agreement_report",
    "__version__",
]
