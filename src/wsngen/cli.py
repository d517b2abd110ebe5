"""Command-line front end: deploy, traffic, analyze, validate, report.

Exit codes follow the CI gating contract: 0 when everything requested
succeeded (and, for validate, every test is Satisfied), 2 when validation ran
but at least one test is Rejected, 1 on any error. Output files are written
via a temp file and atomic rename, so a crash never leaves a partial file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

from . import __version__
from . import _reference as ref
from .deployment import (
    Deployment,
    _check_args,
    deploy_grid,
    deploy_nongrid,
    deployment_from_document,
    deployment_to_csv,
    deployment_to_json,
    points_from_csv,
)
from .generator import DEFAULT_TABLE, GeneratorParams, load_table, read_document
from .report import (
    batch_report,
    packet_diff_report,
    reference_agreement_report,
    render_agreement_text,
    render_packet_diff_text,
    render_report_json,
    render_report_text,
)
from .topology import build_graph, graph_to_csv, graph_to_json, isolated_count
from .traffic import (
    TrafficMatrix,
    _check_traffic_args,
    matrix_from_csv,
    traffic_exponential_recurrence,
    traffic_exponential_transform,
    traffic_from_document,
    traffic_to_csv,
    traffic_to_json,
    traffic_uniform,
)
from .validation import (
    SuiteConfig,
    reports_to_json,
    reports_to_text,
    run_suite,
    suite_satisfied,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on bad flags; 2 means Rejected here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _atomic_write_via(path: str, writer) -> None:
    """Run writer(tmp_path) next to path, then atomically rename over it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wsngen-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _atomic_write_text(path: str, text: str) -> None:
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)

    _atomic_write_via(path, writer)


def _table_from(args) -> Sequence[float]:
    return load_table(args.constants_file) if args.constants_file else DEFAULT_TABLE


def _parse_floats(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("expected a comma-separated list of numbers")
    return vals


def _parse_seeds(text: str) -> list[int]:
    vals = [int(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("expected a comma-separated list of seeds")
    return vals


# ---------------------------------------------------------------------------
# input resolution shared by analyze/validate


def _generate_deployment(args) -> Deployment:
    fn = deploy_grid if args.mode == "grid" else deploy_nongrid
    return fn(args.nodes, args.area, args.seed,
              y_increment=args.y_increment, table=_table_from(args))


def _load_input(args, kinds: Sequence[str]):
    """Resolve --in (or the generation flags) to a Deployment or TrafficMatrix.

    A JSON file's meta.kind decides its kind, a CSV file's header does. A CSV
    has no provenance, so the flags supply it, checked as for generation."""
    path = args.input
    if path is None:
        return _generate_deployment(args)
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(64)
    doc = read_document(path) if head.lstrip().startswith("{") else None
    if doc is not None:
        kind = doc["meta"].get("kind")
    elif head.startswith("node_id,x,y"):
        kind = "deployment"
    elif head.startswith("node_id,t"):
        kind = "traffic"
    else:
        raise ValueError(f"unrecognized CSV header in {path}: {(head.splitlines() or [''])[0]!r}")
    if kind not in kinds:
        raise ValueError(f"{path}: unrecognized kind {kind!r}; {args.command} reads {' or '.join(kinds)} files")
    if kind == "deployment":
        if doc is not None:
            return deployment_from_document(doc, path)
        points = points_from_csv(path)
        _check_args(len(points), args.area, args.y_increment)
        params = GeneratorParams(seed=0, a=1.0, c=1.0)
        return Deployment(points=points, area=float(args.area), mode=args.mode, params=params)
    if doc is not None:
        return traffic_from_document(doc, path)
    values = matrix_from_csv(path)
    _check_traffic_args(len(values), len(values[0]), args.pmin, args.pmax)
    params = GeneratorParams(seed=0, a=1.0, c=1.0)
    return TrafficMatrix(values=values, p_min=float(args.pmin), p_max=float(args.pmax),
                         distribution="uniform", params=params)


def _suite_config(args) -> SuiteConfig:
    return SuiteConfig(
        alpha_ks=args.alpha_ks,
        alpha_chi2=args.alpha_chi2,
        alpha_auto=args.alpha_auto,
        alpha_circular=args.alpha_circular,
        classes=args.classes,
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_deploy(args) -> int:
    dep = _generate_deployment(args)
    out = args.out or f"deployment.{args.format}"
    write = deployment_to_csv if args.format == "csv" else deployment_to_json
    _atomic_write_via(out, lambda tmp: write(dep, tmp))
    print(
        "deploy: seed=%d a=%.6f c=%.6f mode=%s n=%d area=%g -> %s"
        % (dep.params.seed, dep.params.a, dep.params.c, dep.mode,
           dep.node_count, dep.area, out)
    )
    return EXIT_OK


_TRAFFIC_BUILDERS = {
    "uniform": lambda a, table: traffic_uniform(
        a.nodes, a.slots, a.pmin, a.pmax, table=table),
    "exp-transform": lambda a, table: traffic_exponential_transform(
        a.nodes, a.slots, a.pmin, a.pmax, a.rate, table=table),
    "exp-recurrence": lambda a, table: traffic_exponential_recurrence(
        a.nodes, a.slots, a.pmin, a.pmax, table=table),
}


def _cmd_traffic(args) -> int:
    matrix = _TRAFFIC_BUILDERS[args.dist](args, _table_from(args))
    out = args.out or f"traffic.{args.format}"
    write = traffic_to_csv if args.format == "csv" else traffic_to_json
    _atomic_write_via(out, lambda tmp: write(matrix, tmp))
    print(
        "traffic: dist=%s n=%d slots=%d p=[%g, %g) -> %s"
        % (args.dist, matrix.node_count, matrix.slot_count,
           matrix.p_min, matrix.p_max, out)
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    dep = _load_input(args, ("deployment",))
    graph = build_graph(dep, args.tr, args.epsilon)
    if args.out:
        write = graph_to_csv if args.format == "csv" else graph_to_json
        _atomic_write_via(args.out, lambda tmp: write(graph, dep, tmp))
    print(
        "analyze: n=%d tr=%g epsilon=%g edges=%d isolated=%d%s"
        % (dep.node_count, args.tr, args.epsilon, len(graph.edges),
           isolated_count(graph), f" -> {args.out}" if args.out else "")
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    subject = _load_input(args, ("deployment", "traffic"))
    reports = run_suite(subject, _suite_config(args))
    body = reports_to_json(reports) + "\n" if args.format == "json" else reports_to_text(reports)
    if args.out:
        _atomic_write_text(args.out, body)
    if args.format == "text" or not args.out:
        print(body, end="")
    return EXIT_OK if suite_satisfied(reports) else EXIT_REJECTED


def _cmd_report(args) -> int:
    config = _suite_config(args)
    if args.kind == "agreement":
        result = reference_agreement_report(config=config)
        text = render_agreement_text(result)
        payload = json.dumps(result, indent=2)
    elif args.kind == "packet-diff":
        result = packet_diff_report()
        text = render_packet_diff_text(result)
        payload = json.dumps(result, indent=2)
    else:
        seeds = _parse_seeds(args.seeds) if args.seeds else list(ref.GOLDEN_SEEDS)
        ranges = _parse_floats(args.tr)
        rows = batch_report(seeds, args.nodes, args.area, ranges,
                            config=config, table=_table_from(args),
                            epsilon=args.epsilon)
        text = render_report_text(rows, ranges)
        payload = render_report_json(rows, ranges)
    body = payload + "\n" if args.format == "json" else text
    if args.out:
        _atomic_write_text(args.out, body)
        print(f"report: kind={args.kind} -> {args.out}")
    else:
        print(body, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_constants_arg(p) -> None:
    p.add_argument("--constants-file", metavar="PATH", default=None,
                   help="JSON array of constants overriding the built-in table")


def _add_deployment_args(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="initial value X[0] (default 0)")
    p.add_argument("--nodes", type=int, default=100, help="node count (default 100)")
    p.add_argument("--area", type=float, default=100.0,
                   help="square side length (default 100)")
    p.add_argument("--mode", choices=("non-grid", "grid"), default="non-grid",
                   help="deployment mode (default non-grid)")
    p.add_argument("--y-increment", choices=("a", "c"), default="a",
                   help="increment used by the Y recurrence (default a)")
    _add_constants_arg(p)


def _add_suite_args(p) -> None:
    p.add_argument("--alpha-ks", type=float, default=0.01,
                   help="KS significance level (default 0.01)")
    p.add_argument("--alpha-chi2", type=float, default=0.001,
                   help="chi-square significance level (default 0.001)")
    p.add_argument("--alpha-auto", type=float, default=0.01,
                   help="autocorrelation significance level (default 0.01)")
    p.add_argument("--alpha-circular", type=float, default=0.001,
                   help="circular correlation significance level (default 0.001)")
    p.add_argument("--classes", type=int, default=10,
                   help="chi-square class count, 2..101 (default 10)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wsngen",
                     description="Deterministic sensor-network dataset "
                                 "generator and validator.")
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("deploy", help="generate a 2-D deployment")
    _add_deployment_args(p)
    p.add_argument("--out", default=None,
                   help="output path (default deployment.<format>)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.set_defaults(func=_cmd_deploy)

    p = sub.add_parser("traffic", help="generate a per-node traffic matrix")
    p.add_argument("--nodes", type=int, default=80, help="node count (default 80)")
    p.add_argument("--slots", type=int, default=5,
                   help="time slots per node (default 5)")
    p.add_argument("--pmin", type=float, default=2.0,
                   help="minimum packet value P1 (default 2)")
    p.add_argument("--pmax", type=float, default=10.0,
                   help="exclusive maximum packet value P2 (default 10)")
    p.add_argument("--dist", choices=tuple(_TRAFFIC_BUILDERS), default="uniform",
                   help="distribution (default uniform)")
    p.add_argument("--lambda", dest="rate", type=float, default=1.0,
                   help="exponential rate for exp-transform (default 1)")
    _add_constants_arg(p)
    p.add_argument("--out", default=None,
                   help="output path (default traffic.<format>)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser("analyze", help="radius-graph topology of a deployment")
    p.add_argument("--in", dest="input", default=None,
                   help="deployment file (csv or json); omit to generate")
    _add_deployment_args(p)
    p.add_argument("--tr", type=float, default=10.0,
                   help="transmission range (default 10)")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="additive range relaxation (default 0)")
    p.add_argument("--out", default=None,
                   help="edge-list output path (default: summary only)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="edge-list format (default csv)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("validate", help="run the statistical test battery")
    p.add_argument("--in", dest="input", default=None,
                   help="deployment or traffic file; omit to generate a deployment")
    _add_deployment_args(p)
    p.add_argument("--pmin", type=float, default=2.0,
                   help="P1 for traffic CSVs without metadata (default 2)")
    p.add_argument("--pmax", type=float, default=10.0,
                   help="P2 for traffic CSVs without metadata (default 10)")
    _add_suite_args(p)
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default text)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="batch summary across seeds")
    p.add_argument("--kind", choices=("batch", "agreement", "packet-diff"),
                   default="batch", help="report flavor (default batch)")
    p.add_argument("--seeds", default=None,
                   help="comma-separated seed list (default: the 20 recorded seeds)")
    p.add_argument("--nodes", type=int, default=100, help="node count (default 100)")
    p.add_argument("--area", type=float, default=100.0,
                   help="square side length (default 100)")
    p.add_argument("--tr", default="10,15,20",
                   help="comma-separated transmission ranges (default 10,15,20)")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="additive range relaxation (default 0)")
    _add_suite_args(p)
    _add_constants_arg(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        code = exc.code
        return code if isinstance(code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"wsngen: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
