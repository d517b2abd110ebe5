"""Command-line front end: deploy, traffic, analyze, validate, report.

Exit codes follow the CI gating contract: 0 when everything requested
succeeded (and, for validate, every test is Satisfied), 2 when validation ran
but at least one test is Rejected, 1 on any error. Every output file, the
--out text of validate and report included, goes through generator.write_text:
an error leaves no partial file and an existing one as it was.

Each command imports the modules it runs inside its own function, so a cold
process compiles none it does not run: deploy, analyze and report --kind
batch never load traffic, and validate loads it only for a traffic input.
The graph and the battery import numpy only from 512 points or values per
stream on, so at the default sizes no command loads it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .deployment import DEPLOYERS, Deployment
from .generator import DEFAULT_TABLE, load_table, read, write, write_text

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on bad flags; 2 means Rejected here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _table_from(args) -> Sequence[float]:
    return load_table(args.constants_file) if args.constants_file else DEFAULT_TABLE


def _parse_list(text: str, convert, what: str) -> list:
    vals = [convert(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError(f"expected a comma-separated list of {what}")
    return vals


def _generate_deployment(args) -> Deployment:
    return DEPLOYERS[args.mode](args.nodes, args.area, args.seed,
                                y_increment=args.y_increment, table=_table_from(args))


def _suite_config(args):
    from .validation import SuiteConfig

    # each --alpha-*/--classes flag is named after its SuiteConfig field
    return SuiteConfig(*[getattr(args, field) for field in SuiteConfig._fields])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_deploy(args) -> int:
    dep = _generate_deployment(args)
    out = args.out or f"deployment.{args.format}"
    write(dep, out, args.format)
    print(
        "deploy: seed=%d a=%.6f c=%.6f mode=%s n=%d area=%g -> %s"
        % (dep.params.seed, dep.params.a, dep.params.c, dep.mode,
           dep.node_count, dep.area, out)
    )
    return EXIT_OK


_TRAFFIC_BUILDERS = {
    "uniform": lambda tm, a, table: tm.traffic_uniform(
        a.nodes, a.slots, a.pmin, a.pmax, table=table),
    "exp-transform": lambda tm, a, table: tm.traffic_exponential_transform(
        a.nodes, a.slots, a.pmin, a.pmax, a.rate, table=table),
    "exp-recurrence": lambda tm, a, table: tm.traffic_exponential_recurrence(
        a.nodes, a.slots, a.pmin, a.pmax, table=table),
}


def _cmd_traffic(args) -> int:
    from . import traffic

    matrix = _TRAFFIC_BUILDERS[args.dist](traffic, args, _table_from(args))
    out = args.out or f"traffic.{args.format}"
    write(matrix, out, args.format)
    print(
        "traffic: dist=%s n=%d slots=%d p=[%g, %g) -> %s"
        % (args.dist, matrix.node_count, matrix.slot_count,
           matrix.p_min, matrix.p_max, out)
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .topology import build_graph, graph_to_csv, graph_to_json, isolated_count

    dep = (_generate_deployment(args) if args.input is None
           else read(args.input, ("deployment",), args.command, area=args.area))
    graph = build_graph(dep, args.tr, args.epsilon)
    if args.out:
        export = graph_to_csv if args.format == "csv" else graph_to_json
        export(graph, dep, args.out)
    print(
        "analyze: n=%d tr=%g epsilon=%g edges=%d isolated=%d%s"
        % (dep.node_count, args.tr, args.epsilon, len(graph.edges),
           isolated_count(graph), f" -> {args.out}" if args.out else "")
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .validation import reports_to_json, reports_to_text, run_suite, suite_satisfied

    subject = (_generate_deployment(args) if args.input is None
               else read(args.input, ("deployment", "traffic"), args.command,
                         area=args.area, p_min=args.pmin, p_max=args.pmax))
    reports = run_suite(subject, _suite_config(args))
    body = reports_to_json(reports) + "\n" if args.format == "json" else reports_to_text(reports)
    if args.out:
        write_text(args.out, [body])
    if args.format == "text" or not args.out:
        print(body, end="")
    return EXIT_OK if suite_satisfied(reports) else EXIT_REJECTED


def _cmd_report(args) -> int:
    from .report import (
        batch_report,
        packet_diff_report,
        reference_agreement_report,
        render_agreement_text,
        render_packet_diff_text,
        render_report_json,
        render_report_text,
    )

    config = _suite_config(args)
    if args.kind == "batch":
        if args.seeds is None:
            from ._reference import GOLDEN_SEEDS as seeds
        else:
            seeds = _parse_list(args.seeds, int, "seeds")
        ranges = _parse_list(args.tr, float, "numbers")
        rows = batch_report(seeds, args.nodes, args.area, ranges,
                            config=config, table=_table_from(args),
                            epsilon=args.epsilon)
        # only the requested form is rendered: JSON refuses a non-finite range
        if args.format == "json":
            body = render_report_json(rows, ranges) + "\n"
        else:
            body = render_report_text(rows, ranges)
    else:
        if args.kind == "agreement":
            result, render = reference_agreement_report(config=config), render_agreement_text
        else:
            result, render = packet_diff_report(), render_packet_diff_text
        body = json.dumps(result, indent=2) + "\n" if args.format == "json" else render(result)
    if args.out:
        write_text(args.out, [body])
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
    p.add_argument("--mode", choices=tuple(DEPLOYERS), default="non-grid",
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
    except (ValueError, OSError) as exc:
        print(f"wsngen: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
