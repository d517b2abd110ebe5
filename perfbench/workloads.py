"""The four benchmark workloads: how op i is built, run and checked.

Every workload is a closed loop with one client in one process: op i+1
starts when op i has finished.  The inputs of op i are a pure function of
(workload name, workload seed, i), so a seed names the same sequence of ops
on every machine.  The program only ever sees the generated arguments.

`run` is the timed part of an op.  `check` is untimed: it verifies the
op's outputs against invariants that hold for any seed and returns a sha256
digest of everything the op produced (file bytes, stdout, exit code,
returned rows).  For DEFAULT_SEED the first `digest_ops` digests are also
compared with the committed expected_digests.json.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 0
RANGES = (10.0, 15.0, 20.0)
VERDICTS = ("Satisfied", "Rejected")
MODES = ("grid", "non-grid")


class CheckFailed(Exception):
    """An op ran but its outputs break an invariant."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def load_wsngen(root: Path):
    """Import wsngen from root/src and refuse any other copy."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import wsngen
    import wsngen.cli

    found = Path(wsngen.__file__).resolve().parent
    if found != src / "wsngen":
        raise SystemExit(f"perfbench: imported wsngen from {found}, expected {src / 'wsngen'}")
    return wsngen


def src_env(root: Path) -> dict:
    """This environment with root/src first on PYTHONPATH, for child interpreters."""
    path = os.environ.get("PYTHONPATH")
    src = str((root / "src").resolve())
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _op_rng(name: str, seed: int, i) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


def _traffic_range(rng: random.Random) -> tuple[float, float]:
    # the traffic generators take no seed, so the seed varies (p_min, p_max)
    p_min = float(rng.randint(0, 8))
    return p_min, p_min + float(rng.randint(2, 12))


# ---------------------------------------------------------------------------
# invariants shared by several workloads


def check_points(points, area: float, mode: str, n: int) -> None:
    require(len(points) == n, f"expected {n} points, got {len(points)}")
    for x, y in points:
        require(0.0 <= x < area and 0.0 <= y < area, f"point ({x!r}, {y!r}) outside [0, {area!r})")
    if mode == "grid":
        # quadrants 2..4 are exact float translations of quadrant 1
        q = math.ceil(n / 4)
        m1 = area / 2.0
        base = points[:q]
        shifts = ((m1, m1), (m1, 0.0), (0.0, m1))
        for block, (dx, dy) in enumerate(shifts, start=1):
            for k, (x, y) in enumerate(base):
                j = block * q + k
                if j < n:
                    require(points[j] == (x + dx, y + dy),
                            f"grid point {j} is not a translation of point {k}")


def check_values(values, p_min: float, p_max: float, shape: tuple[int, int]) -> None:
    require((len(values), len(values[0])) == shape, f"traffic shape {len(values)}x{len(values[0])} != {shape}")
    for row in values:
        for v in row:
            require(p_min <= v < p_max, f"traffic value {v!r} outside [{p_min!r}, {p_max!r})")


def check_reports(reports) -> None:
    require(reports, "empty test battery")
    for r in reports:
        require(r.verdict in VERDICTS, f"unknown verdict {r.verdict!r}")
        require(r.verdict == ("Satisfied" if r.statistic <= r.critical_value else "Rejected"),
                f"{r.test_name} verdict disagrees with its statistic")


def check_isolated_rows(iso, n: int) -> None:
    require(all(0 <= k <= n for k in iso), f"isolated counts {iso} outside [0, {n}]")
    require(all(a >= b for a, b in zip(iso, iso[1:])), f"isolated counts {iso} grow with range")


def brute_force_edges(points, reach: float) -> set:
    """Reference edge set with the same float operations as
    topology.distance_matrix, one row at a time.

    O(n) memory, so the check stays below what build_graph allocates and
    does not set the worker's peak_rss_mb.
    """
    import numpy as np  # not at module level: the cli_cold worker never needs it

    pts = np.asarray(points, dtype=float)
    edges = set()
    for u in range(len(pts) - 1):
        dist = np.sqrt(((pts[u] - pts[u + 1:]) ** 2).sum(axis=-1))
        edges.update((u, u + 1 + int(k)) for k in np.nonzero(dist <= reach)[0])
    return edges


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    digest_ops = 0
    # the op mix repeats every `period` ops; a timed phase ends on a whole period
    period = 1
    in_process = True

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.base = random.Random(f"{self.name}:{seed}").randrange(1000, 1_000_000)

    def op_input(self, i: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out) -> str:
        raise NotImplementedError


class CliCold(Workload):
    """One `python -m wsngen.cli` process per op, cycling five commands.

    With in_process=True the same argv goes through wsngen.cli.main in this
    process instead; the traced run uses that to attribute an op to layers.
    Both forms produce the same exit code, stdout and files, hence the same
    digest.
    """

    name = "cli_cold"
    digest_ops = 5
    period = 5
    COMMANDS = ("deploy", "traffic", "analyze", "validate", "report")

    def __init__(self, root: Path, seed: int, in_process: bool = False):
        super().__init__(root, seed)
        self.in_process = in_process
        self.cli = load_wsngen(root).cli if in_process else None
        self.env = src_env(root)
        # largest ru_maxrss (KiB) of the CLI processes this workload started
        self.child_peak_rss_kb = 0

    def op_input(self, i: int) -> dict:
        cycle, kind = divmod(i, len(self.COMMANDS))
        s = self.base + cycle
        mode = MODES[cycle % 2]
        command = self.COMMANDS[kind]
        if command == "deploy":
            argv = ["deploy", "--mode", "grid", "--seed", str(s), "--nodes", "100",
                    "--out", "deploy.csv"]
        elif command == "traffic":
            p_min, p_max = _traffic_range(_op_rng(self.name, self.seed, cycle))
            argv = ["traffic", "--dist", "uniform", "--nodes", "80", "--slots", "5",
                    "--pmin", repr(p_min), "--pmax", repr(p_max), "--out", "traffic.csv"]
            return {"command": command, "argv": argv, "p_min": p_min, "p_max": p_max}
        elif command == "analyze":
            argv = ["analyze", "--seed", str(s), "--mode", mode, "--nodes", "100",
                    "--tr", "15", "--out", "edges.csv"]
        elif command == "validate":
            argv = ["validate", "--seed", str(s), "--mode", mode, "--nodes", "100",
                    "--format", "json"]
        else:
            argv = ["report", "--kind", "batch", "--seeds", ",".join(str(s + k) for k in range(10))]
        return {"command": command, "argv": argv, "seed": s}

    def run(self, inp: dict):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(inp["argv"])
            return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")
        # output to files and a wait4 of our own, so the rusage is this child's
        # alone and not that of every process the worker has reaped
        with open("cli.stdout", "w+b") as out, open("cli.stderr", "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "wsngen.cli", *inp["argv"]],
                                    env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    def check(self, inp: dict, out) -> str:
        code, stdout, stderr = out
        command = inp["command"]
        require(not stderr, f"{command} wrote to stderr: {stderr[:200]!r}")
        text = stdout.decode("utf-8")
        files = []
        if command == "deploy":
            require(code == 0, f"deploy exited {code}")
            data = Path("deploy.csv").read_bytes()
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
            require(rows[0] == ["node_id", "x", "y"], "deploy.csv header")
            require([r[0] for r in rows[1:]] == [str(k) for k in range(1, 101)], "deploy.csv ids")
            check_points([(float(r[1]), float(r[2])) for r in rows[1:]], 100.0, "grid", 100)
            files.append(data)
        elif command == "traffic":
            require(code == 0, f"traffic exited {code}")
            data = Path("traffic.csv").read_bytes()
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
            require(rows[0] == ["node_id"] + [f"t{j}" for j in range(1, 6)], "traffic.csv header")
            check_values([[float(v) for v in r[1:]] for r in rows[1:]],
                         inp["p_min"], inp["p_max"], (80, 5))
            files.append(data)
        elif command == "analyze":
            require(code == 0, f"analyze exited {code}")
            fields = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
            data = Path("edges.csv").read_bytes()
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
            require(int(fields["edges"]) == len(rows), "edge count differs from the edge list")
            degree = [0] * 100
            for u, v, d in rows:
                u, v = int(u) - 1, int(v) - 1
                require(0 <= u < v < 100, f"bad edge ({u}, {v})")
                require(float(d) <= 15.0, f"edge ({u}, {v}) longer than tr")
                degree[u] += 1
                degree[v] += 1
            require(sum(degree) == 2 * len(rows), "degree sum != 2 x edges")
            require(int(fields["isolated"]) == degree.count(0), "isolated count != zero-degree nodes")
            files.append(data)
        elif command == "validate":
            reports = json.loads(text)
            require(len(reports) == 15, f"expected 15 test runs, got {len(reports)}")
            require(all(r["verdict"] in VERDICTS for r in reports), "unknown verdict")
            satisfied = all(r["verdict"] == "Satisfied" for r in reports)
            require(code == (0 if satisfied else 2), f"validate exited {code}, satisfied={satisfied}")
        else:
            require(code == 0, f"report exited {code}")
            lines = text.splitlines()
            require(len(lines) == 13, f"batch report has {len(lines)} lines, expected 13")
            seeds = [inp["seed"] + k for k in range(10)]
            for line, s in zip(lines[3:], seeds):
                cells = line.split()
                require(cells[0] == str(s), f"row for seed {cells[0]}, expected {s}")
                for start in (3, 9):
                    check_isolated_rows([int(c) for c in cells[start:start + 3]], 100)
                    require(all(c in VERDICTS for c in cells[start + 3:start + 6]), "unknown verdict")
        return digest(command, code, stdout, *files)


class SeedSweep(Workload):
    """In-process batch_report([s]) plus both renderings, consecutive seeds."""

    name = "seed_sweep"
    digest_ops = 20

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.report = load_wsngen(root).report

    def op_input(self, i: int) -> dict:
        return {"seed": self.base + i}

    def run(self, inp: dict):
        rows = self.report.batch_report([inp["seed"]], 100, 100.0, RANGES)
        return (rows, self.report.render_report_text(rows, RANGES),
                self.report.render_report_json(rows, RANGES))

    def check(self, inp: dict, out) -> str:
        rows, text, payload = out
        require(len(rows) == 1 and rows[0]["seed"] == inp["seed"], "batch_report returned the wrong row")
        parsed = json.loads(payload)["rows"][0]
        for mode in ("non-grid", "grid"):
            got = rows[0]["modes"][mode]
            check_isolated_rows(got["isolated"], 100)
            require(all(got[t] in VERDICTS for t in ("ks", "chi2", "autocorrelation", "circular")),
                    "unknown verdict")
            require(parsed["modes"][mode]["isolated"] == list(got["isolated"]), "JSON rendering differs")
        require(text.splitlines()[3].split()[0] == str(inp["seed"]), "text rendering lost the row")
        return digest(text, payload)


class LargeDataset(Workload):
    """Generate, save as CSV and JSON, reload and validate one deployment and
    one traffic matrix per op."""

    name = "large_dataset"
    digest_ops = 6
    period = 6
    NODES = 5000
    TRAFFIC = (1000, 5)

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.w = load_wsngen(root)

    def op_input(self, i: int) -> dict:
        p_min, p_max = _traffic_range(_op_rng(self.name, self.seed, i))
        return {"seed": self.base + i, "mode": MODES[i % 2],
                "dist": self.w.DISTRIBUTIONS[i % 3], "p_min": p_min, "p_max": p_max,
                "area": 10.0 * math.sqrt(self.NODES)}

    def run(self, inp: dict):
        dm, tm = self.w.deployment, self.w.traffic
        deploy = dm.deploy_grid if inp["mode"] == "grid" else dm.deploy_nongrid
        dep = deploy(self.NODES, inp["area"], inp["seed"])
        dm.deployment_to_csv(dep, "deployment.csv")
        dm.deployment_to_json(dep, "deployment.json")
        points_csv = dm.points_from_csv("deployment.csv")
        dep_json = dm.deployment_from_json("deployment.json")
        n, t = self.TRAFFIC
        generate = {"uniform": tm.traffic_uniform,
                    "exponential-transform": tm.traffic_exponential_transform,
                    "exponential-recurrence": tm.traffic_exponential_recurrence}[inp["dist"]]
        matrix = generate(n, t, inp["p_min"], inp["p_max"])
        tm.traffic_to_csv(matrix, "traffic.csv")
        tm.traffic_to_json(matrix, "traffic.json")
        values_csv = tm.matrix_from_csv("traffic.csv")
        matrix_json = tm.traffic_from_json("traffic.json")
        validation = self.w.validation
        return (dep, points_csv, dep_json, matrix, values_csv, matrix_json,
                validation.run_suite(dep_json), validation.run_suite(matrix_json))

    def check(self, inp: dict, out) -> str:
        dep, points_csv, dep_json, matrix, values_csv, matrix_json, rep_d, rep_t = out
        require(points_csv == dep.points, "deployment CSV round-trip is not bit-exact")
        require(dep_json.points == dep.points and dep_json.mode == dep.mode, "deployment JSON round-trip")
        require(values_csv == matrix.values, "traffic CSV round-trip is not bit-exact")
        require(matrix_json.values == matrix.values, "traffic JSON round-trip is not bit-exact")
        check_points(dep.points, inp["area"], inp["mode"], self.NODES)
        check_values(matrix.values, inp["p_min"], inp["p_max"], self.TRAFFIC)
        check_reports(rep_d)
        check_reports(rep_t)
        to_json = self.w.validation.reports_to_json
        files = [Path(f).read_bytes() for f in
                 ("deployment.csv", "deployment.json", "traffic.csv", "traffic.json")]
        return digest(*files, to_json(rep_d), to_json(rep_t))


class LargeTopology(Workload):
    """Radius graph of one n=1000 deployment at the reference density,
    isolated count, and an edge export."""

    name = "large_topology"
    digest_ops = 6
    period = 6
    NODES = 1000

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.w = load_wsngen(root)

    def op_input(self, i: int) -> dict:
        return {"seed": self.base + i, "mode": MODES[i % 2], "tr": RANGES[i % 3],
                "format": ("csv", "json")[(i // 3) % 2], "area": 10.0 * math.sqrt(self.NODES)}

    def run(self, inp: dict):
        dm, topo = self.w.deployment, self.w.topology
        deploy = dm.deploy_grid if inp["mode"] == "grid" else dm.deploy_nongrid
        dep = deploy(self.NODES, inp["area"], inp["seed"])
        graph = topo.build_graph(dep, inp["tr"])
        isolated = topo.isolated_count(graph)
        if inp["format"] == "csv":
            topo.graph_to_csv(graph, dep, "edges.csv")
        else:
            topo.graph_to_json(graph, dep, "edges.json")
        return dep, graph, isolated

    def check(self, inp: dict, out) -> str:
        dep, graph, isolated = out
        n = self.NODES
        check_points(dep.points, inp["area"], inp["mode"], n)
        require(sum(graph.degrees) == 2 * len(graph.edges), "degree sum != 2 x edges")
        require(isolated == graph.degrees.count(0), "isolated_count != zero-degree nodes")
        degree = [0] * n
        for u, v in graph.edges:
            degree[u] += 1
            degree[v] += 1
        require(tuple(degree) == graph.degrees, "degrees disagree with the edge set")
        require(set(graph.edges) == brute_force_edges(dep.points, inp["tr"]),
                "edge set differs from the brute-force reference")
        edges = sorted(graph.edges)
        if inp["format"] == "csv":
            data = Path("edges.csv").read_bytes()
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
            require([(int(u) - 1, int(v) - 1) for u, v, _ in rows] == edges, "CSV edge list")
            require(all(float(d) <= inp["tr"] for _, _, d in rows), "exported edge longer than tr")
        else:
            data = Path("edges.json").read_bytes()
            doc = json.loads(data)
            require(doc["meta"]["edge_count"] == len(edges), "JSON edge_count")
            require(doc["meta"]["isolated"] == isolated, "JSON isolated")
            require(tuple(doc["degrees"]) == graph.degrees, "JSON degrees")
            require([(u - 1, v - 1) for u, v, _ in doc["edges"]] == edges, "JSON edge list")
        return digest(data, isolated, graph.degrees)


WORKLOADS = {w.name: w for w in (CliCold, SeedSweep, LargeDataset, LargeTopology)}
