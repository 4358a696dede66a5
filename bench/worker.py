"""One workload of the benchmark, run in a fresh process by ``run.py``.

The worker holds only the program and the loop that drives it: it imports
``lclsim`` from ``src/``, sets the workload up, runs whole rounds of the
workload's operations through the public entry points (``lclsim.cli.main``
and the public functions of ``lclsim.engine`` and ``lclsim.speedup``), and
writes what it measured to a JSON file.  It checks nothing; ``run.py`` checks
every output with ``checks.py`` after the worker has exited, so the
checkers' memory and time stay out of the measurements.

With ``--trace 1`` the worker runs one untraced round, installs the span
tracer of ``spans.py`` and runs one traced round.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402  (benchmark-local module)

SETUP_REPS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import lclsim.cli, lclsim.engine, lclsim.speedup; "
                "print(time.perf_counter() - t)")
TREE_DELTA = 4
TREE_RADIUS = 10            # 118,097 nodes
WEAK_K, WEAK_C = 2, 3
HOMOGENEOUS_R = 2
SPEEDUP_GRID = 100
MC_SAMPLES = 20000
MC_CONFIDENCE = 0.99
BOUNDS_COMMANDS = (         # the four bounds commands of the project README
    ("recurrence", {"c0": 2, "p0": "1/16", "t": 3, "delta": 4}),
    ("global", {"n": [4096], "t": 0, "b": 1}),
    ("zero-round", {"c": [2, 3, 4, 5, 6, 7, 8], "delta": 4, "format": "csv"}),
    ("id-collision", {"n": [8, 1000, 1000000]}),
)


def speedup_cases():
    """(direction, source, delta, t, b, c) of the speedup sweep: every
    configuration that is valid and fits the exact-kernel budget, except that
    at direction 1, delta=6, b=2 only own-bit and center-mod are kept (see
    README: the int64 fault makes them fail on every seed)."""
    cases = []
    for delta in (4, 6):
        for b in (1, 2):
            for c in (2, 4):
                for src in ("own-bit", "parity", "center-mod", "constant", "random"):
                    if delta == 6 and b == 2 and src not in ("own-bit", "center-mod"):
                        continue
                    cases.append((1, src, delta, 1, b, c))
    for delta in (4, 6):
        for t in (0, 1):
            for b in (1, 2):
                if delta == 6 and t == 1 and b == 2:
                    continue        # 26 kernel bits: over the exact budget
                for c in (2, 4):
                    for src in ("xor", "endpoint-sum", "constant", "random"):
                        if src == "xor" and c != 2:
                            continue    # xor is a 2-label algorithm
                        cases.append((2, src, delta, t, b, c))
    return cases


class Workload:
    def __init__(self, lclsim, workdir, seed):
        self.lclsim = lclsim
        self.workdir = Path(workdir)
        self.seed = seed
        self.ops = None

    def cli(self, label, argv, check, unit=None, work=0):
        """Run one CLI command and record how it went."""
        t0 = time.perf_counter()
        rc = self.lclsim.cli.main(argv)
        seconds = time.perf_counter() - t0
        self.ops.append({"label": label, "argv": argv, "rc": rc, "seconds": seconds,
                         "unit": unit, "work": work, "check": check})

    def run_round(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        self.ops = []
        self.round(directory)
        return self.ops


class CliTree(Workload):
    """The README session on one oriented balanced 4-regular tree."""

    def session(self, d, radius):
        tree = str(d / "tree.json")
        n = 1 + TREE_DELTA * ((TREE_DELTA - 1) ** radius - 1) // (TREE_DELTA - 2)
        seed = str(self.seed)
        self.cli("gen", ["gen", "regular-tree", "--delta", str(TREE_DELTA),
                         "--radius", str(radius), "--out", tree],
                 {"type": "tree-gen", "graph": tree, "delta": TREE_DELTA,
                  "radius": radius}, "nodes", n)
        out = str(d / "pointers.json")
        self.cli("solve-pointers", ["run", "--algorithm", "solve-pointers", "--graph", tree,
                                    "--seed", seed, "--out", out],
                 {"type": "tree-pointers", "graph": tree, "out": out, "radius": radius},
                 "nodes", n)
        out = str(d / "weak2.json")
        self.cli("weak2", ["run", "--algorithm", "weak-family-to-weak2", "--graph", tree,
                           "--k", str(WEAK_K), "--c", str(WEAK_C), "--seed", seed,
                           "--dump-stages", "--out", out],
                 {"type": "weak2", "graph": tree, "out": out}, "nodes", n)
        out = str(d / "homogeneous.json")
        self.cli("homogeneous", ["run", "--algorithm", "homogeneous-constant",
                                 "--graph", tree, "--r", str(HOMOGENEOUS_R),
                                 "--seed", seed, "--out", out],
                 {"type": "homogeneous", "graph": tree, "out": out, "r": HOMOGENEOUS_R},
                 "nodes", n)

    def setup(self):
        # a radius-3 session fills lazy imports and first-call costs
        self.ops = []
        warm = self.workdir / "warmup"
        warm.mkdir(parents=True, exist_ok=True)
        self.session(warm, 3)

    def round(self, d):
        self.session(d, TREE_RADIUS)


class PointerCyclic(Workload):
    """solve-pointers on seeded near-regular and leafy graphs."""

    def setup(self):
        inp = self.workdir / "inputs"
        inp.mkdir(parents=True, exist_ok=True)
        self.graphs = inputs.build_cyclic_inputs(str(inp), self.seed)
        warm = self.workdir / "warmup"
        warm.mkdir(parents=True, exist_ok=True)
        small = str(warm / "near_regular_16.json")
        rng = inputs.random.Random(self.seed)
        inputs.write_graph(small, 16, inputs.near_regular_edges(16, rng), rng)
        self.lclsim.cli.main(["run", "--algorithm", "solve-pointers", "--graph", small,
                              "--seed", str(self.seed), "--out", str(warm / "out.json")])

    def round(self, d):
        for path, (name, _, n, _) in zip(self.graphs, inputs.CYCLIC_INPUTS):
            out = str(d / name)
            self.cli(f"solve-pointers:{name}",
                     ["run", "--algorithm", "solve-pointers", "--graph", path,
                      "--seed", str(self.seed), "--out", out],
                     {"type": "pointers", "graph": path, "out": out}, "nodes", n)


class SpeedupBounds(Workload):
    """The exact speedup sweep, then the README bounds commands."""

    def speedup(self, d, case, grid):
        direction, src, delta, t, b, c = case
        out = str(d / f"speedup-{direction}-{src}-d{delta}-t{t}-b{b}-c{c}.json")
        argv = ["speedup", "--direction", str(direction), "--algorithm", src,
                "--delta", str(delta), "--t", str(t), "--b", str(b), "--c", str(c),
                "--grid", str(grid), "--seed", str(self.seed), "--out", out]
        self.cli(f"speedup:{direction}:{src}:d{delta}:t{t}:b{b}:c{c}", argv,
                 {"type": "speedup", "out": out, "direction": direction, "source": src,
                  "delta": delta, "t": t, "b": b, "c": c, "f": "1/40", "grid": grid},
                 "grid_points")

    def setup(self):
        self.ops = []
        warm = self.workdir / "warmup"
        warm.mkdir(parents=True, exist_ok=True)
        self.speedup(warm, (1, "own-bit", 4, 1, 1, 2), 3)
        self.speedup(warm, (2, "xor", 4, 0, 1, 2), 3)

    def round(self, d):
        for case in speedup_cases():
            self.speedup(d, case, SPEEDUP_GRID)
        for calc, params in BOUNDS_COMMANDS:
            out = str(d / f"bounds-{calc}.{params.get('format', 'json')}")
            argv = ["bounds", calc, "--out", out]
            for key, val in params.items():
                argv += [f"--{key}", *map(str, val if isinstance(val, list) else [val])]
            self.cli(f"bounds:{calc}", argv, dict(params, type=f"bounds-{calc}", out=out))


class EngineEnum(Workload):
    """Exact enumeration and Monte Carlo in the engine, against the kernels."""

    def setup(self):
        from lclsim import engine, graph, speedup
        self.g = graph.gen_regular_tree(TREE_DELTA, 3)
        self.node_table = speedup.random_node_algorithm(TREE_DELTA, 1, 1, 2, self.seed)
        self.edge_table = speedup.random_edge_algorithm(TREE_DELTA, 0, 2, 2, self.seed)
        self.node_alg = speedup.as_local_algorithm(self.node_table)
        self.edge_alg = speedup.as_local_algorithm(self.edge_table)
        engine.local_failure_probability(self.g, self.node_alg, 0,
                                         engine.weak_coloring_failure,
                                         mode="monte-carlo", b=1, samples=50,
                                         seed=self.seed)

    def call(self, label, fn, unit=None, work=0):
        t0 = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - t0
        self.ops.append({"label": label, "rc": 0, "seconds": seconds, "unit": unit,
                         "work": work})
        return value

    def round(self, d):
        engine, speedup = self.lclsim.engine, self.lclsim.speedup
        ball = {t: 1 + TREE_DELTA * ((TREE_DELTA - 1) ** t - 1) // (TREE_DELTA - 2)
                for t in (1, 2)}
        start = len(self.ops)
        node_kernel = self.call("kernel:node", lambda: speedup.node_local_failure(
            self.node_table))
        node_exact = self.call("exact:node", lambda: engine.local_failure_probability(
            self.g, self.node_alg, 0, engine.weak_coloring_failure, mode="exact", b=1),
            "assignments", 2 ** ball[2])
        edge_kernel = self.call("kernel:edge", lambda: speedup.edge_local_failure(
            self.edge_table))
        edge_exact = self.call("exact:edge", lambda: engine.local_failure_probability(
            self.g, self.edge_alg, 0, engine.weak_edge_coloring_failure, mode="exact",
            b=2), "assignments", 2 ** (2 * ball[1]))
        mc = self.call("monte-carlo:node", lambda: engine.local_failure_probability(
            self.g, self.node_alg, 0, engine.weak_coloring_failure, mode="monte-carlo",
            b=1, samples=MC_SAMPLES, confidence=MC_CONFIDENCE, seed=self.seed),
            "samples", MC_SAMPLES)
        exact_node = {"type": "engine-exact", "mode": node_exact.mode,
                      "engine": str(node_exact.value), "kernel": str(node_kernel)}
        exact_edge = {"type": "engine-exact", "mode": edge_exact.mode,
                      "engine": str(edge_exact.value), "kernel": str(edge_kernel)}
        checks = [exact_node, exact_node, exact_edge, exact_edge,
                  {"type": "engine-mc", "mode": mc.mode, "value": mc.value,
                   "error": mc.error, "samples": mc.samples,
                   "confidence": MC_CONFIDENCE, "exact": str(node_exact.value)}]
        for op, check in zip(self.ops[start:], checks):
            op["check"] = check


WORKLOADS = {"cli-tree": CliTree, "pointer-cyclic": PointerCyclic,
             "speedup-bounds": SpeedupBounds, "engine-enum": EngineEnum}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    import lclsim.cli
    import lclsim.engine
    import lclsim.speedup
    import numpy

    # import time of a fresh interpreter, median of SETUP_REPS probes
    import_s = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                                     capture_output=True, text=True).stdout)
                for _ in range(SETUP_REPS)]
    wl = WORKLOADS[args.workload](lclsim, args.workdir, args.seed)
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    rounds = []
    layer = None
    workdir = Path(args.workdir)
    if args.trace:
        import spans
        rounds.append(wl.run_round(workdir / "round-0"))
        tracer = spans.Tracer()
        tracer.install()
        ops = wl.run_round(workdir / "round-1")
        rounds.append(ops)
        work = {u: sum(op["work"] for op in ops if op["unit"] == u)
                for u in ("assignments", "samples")}
        layer = tracer.metrics(work)
        if args.spans:
            tracer.save(args.spans)
    else:
        # whole rounds, as many as are expected to end within --seconds
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) \
                <= args.seconds:
            rounds.append(wl.run_round(workdir / f"round-{len(rounds)}"))

    result = {
        "import_s": statistics.median(import_s),
        "setup_s": setup_s,
        "setup_median_s": statistics.median(setup_s),
        "rounds": rounds,
        "traced_rounds": [1] if args.trace else [],
        "layer": layer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "lclsim": lclsim.__version__},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "LCLSIM_THREADS")},
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
