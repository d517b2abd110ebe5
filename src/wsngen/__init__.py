"""Seed-reproducible generator and validator for sensor network experiments.

The package covers the full pipeline: derive LCG constants from a seed,
lay out nodes on a square field (grid or non-grid), fill per-node traffic
matrices (uniform or exponential), run the uniformity test battery, and
analyze connectivity of the induced radius graph.  Every artifact is a
pure function of its seed and parameters.

``import wsngen`` loads no submodule: each public name, and each submodule,
loads its module on first access. Only the battery and the radius graph use
numpy, and only from 512 points or values per stream on, so generating and
writing a dataset never imports it, nor does analyzing or validating one of
the reference size.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "generator": (
        "DEFAULT_TABLE",
        "EXTENDED_TABLE",
        "GeneratorParams",
        "derive_constants",
        "load_table",
        "read",
        "stream",
        "validate_table",
        "write",
    ),
    "deployment": (
        "Deployment",
        "deploy_grid",
        "deploy_nongrid",
    ),
    "traffic": (
        "DISTRIBUTIONS",
        "TrafficMatrix",
        "traffic_exponential_recurrence",
        "traffic_exponential_transform",
        "traffic_uniform",
    ),
    "validation": (
        "SuiteConfig",
        "TestReport",
        "aggregate_verdicts",
        "reports_to_json",
        "reports_to_text",
        "run_suite",
        "suite_satisfied",
    ),
    "topology": (
        "RadiusGraph",
        "build_graph",
        "graph_to_csv",
        "graph_to_json",
        "isolated_by_range",
        "isolated_count",
    ),
    "report": (
        "batch_report",
        "batch_row",
        "packet_diff_report",
        "reconstruct_reference_chain",
        "reference_agreement_report",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    """Import a submodule, or the submodule defining a public name, and keep
    the result in the package globals so later lookups skip this function."""
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
