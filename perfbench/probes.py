"""Per-layer probes of the traced run that do not depend on the workload.

* import_probes: fresh interpreters, timed from spawn to exit, plus the
  `python -X importtime` breakdown of `import wsngen`.
* scaling_ladder: library calls at n = 1e2 .. 1e5 (and build_graph at
  n = 1e2, 1e3, 3e3; n = 1e4 would need a 1.6 GB temporary today).
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import time

IMPORT_REPEATS = 3
LADDER_N = (100, 1000, 10_000, 100_000)
GRAPH_N = (100, 1000, 3000)
TRAFFIC_SLOTS = 5


def _tag(n: int) -> str:
    exponent = int(math.floor(math.log10(n)))
    return f"n{n // 10 ** exponent}e{exponent}"


def _wall(argv, env) -> tuple[float, bytes]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
    return time.perf_counter() - start, proc.stderr


def _importtime_ms(stderr: bytes) -> dict[str, float]:
    """Self time (ms) of numpy, scipy and wsngen modules from -X importtime."""
    groups = {"numpy": 0.0, "scipy": 0.0, "wsngen": 0.0}
    for line in stderr.decode("utf-8").splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top in groups:
            groups[top] += int(fields[0]) / 1000.0
    return groups


def import_probes(env) -> dict[str, float]:
    python = sys.executable
    interpreter, total, parts = [], [], []
    for _ in range(IMPORT_REPEATS):
        interpreter.append(_wall([python, "-c", "pass"], env)[0])
        total.append(_wall([python, "-c", "import wsngen"], env)[0])
        parts.append(_importtime_ms(_wall([python, "-X", "importtime", "-c", "import wsngen"], env)[1]))
    return {
        "cli.interpreter_ms": statistics.median(interpreter) * 1000.0,
        "import.total_ms": statistics.median(total) * 1000.0,
        "import.numpy_ms": statistics.median(p["numpy"] for p in parts),
        "import.scipy_ms": statistics.median(p["scipy"] for p in parts),
        "import.wsngen_self_ms": statistics.median(p["wsngen"] for p in parts),
    }


def ladder_names() -> list[str]:
    names = []
    for n in LADDER_N:
        tag = _tag(n)
        for layer in ("deployment", "traffic"):
            names += [f"{layer}.generate_ms.{tag}", f"{layer}.write_ms.{tag}", f"{layer}.read_ms.{tag}"]
        names += [f"validation.deployment_ms.{tag}", f"validation.traffic_ms.{tag}"]
    names += [f"topology.build_ms.{_tag(n)}" for n in GRAPH_N]
    return names


def scaling_ladder(w, seed: int) -> tuple[dict[str, float], list[str]]:
    """Median wall time (ms) of each library call per n, and any round-trip errors.

    Deployments are non-grid over area 10*sqrt(n); traffic is n x 5 on a
    seed-chosen [p_min, p_max).  Small n repeat more to steady the median.
    """
    dm, tm, topo, validation = w.deployment, w.traffic, w.topology, w.validation
    rng = random.Random(f"ladder:{seed}")
    s = rng.randrange(1000, 1_000_000)
    p_min = float(rng.randint(0, 8))
    p_max = p_min + float(rng.randint(2, 12))
    samples: dict[str, list[float]] = {}
    errors = []

    def timed(name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        samples.setdefault(name, []).append((time.perf_counter() - start) * 1000.0)
        return result

    for n in LADDER_N:
        tag = _tag(n)
        repeats = 5 if n <= 1000 else 3 if n <= 10_000 else 1
        for _ in range(repeats):
            dep = timed(f"deployment.generate_ms.{tag}", dm.deploy_nongrid, n, 10.0 * math.sqrt(n), s)
            timed(f"deployment.write_ms.{tag}", lambda: (dm.deployment_to_csv(dep, "ladder.csv"),
                                                        dm.deployment_to_json(dep, "ladder.json")))
            back = timed(f"deployment.read_ms.{tag}", lambda: (dm.points_from_csv("ladder.csv"),
                                                              dm.deployment_from_json("ladder.json")))
            if back[0] != dep.points or back[1].points != dep.points:
                errors.append(f"ladder {tag}: deployment round-trip is not bit-exact")
            timed(f"validation.deployment_ms.{tag}", validation.run_suite, dep)

            matrix = timed(f"traffic.generate_ms.{tag}", tm.traffic_uniform, n, TRAFFIC_SLOTS, p_min, p_max)
            timed(f"traffic.write_ms.{tag}", lambda: (tm.traffic_to_csv(matrix, "ladder.csv"),
                                                     tm.traffic_to_json(matrix, "ladder.json")))
            back = timed(f"traffic.read_ms.{tag}", lambda: (tm.matrix_from_csv("ladder.csv"),
                                                           tm.traffic_from_json("ladder.json")))
            if back[0] != matrix.values or back[1].values != matrix.values:
                errors.append(f"ladder {tag}: traffic round-trip is not bit-exact")
            timed(f"validation.traffic_ms.{tag}", validation.run_suite, matrix)

    for n in GRAPH_N:
        dep = dm.deploy_nongrid(n, 10.0 * math.sqrt(n), s)
        for _ in range(3 if n <= 1000 else 1):
            timed(f"topology.build_ms.{_tag(n)}", topo.build_graph, dep, 15.0)
    return {name: statistics.median(values) for name, values in samples.items()}, errors
