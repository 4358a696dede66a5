"""lclsim benchmark: times the CLI and the layers below it, and checks every
output with the benchmark's own checkers.

Run from the repository root:

    python3 bench/run.py --workload cli-tree --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own fresh single-threaded worker process
(``worker.py``) that imports ``lclsim`` from ``src/``.  After the worker has
exited, this process checks every output with ``checks.py``, prints a table
of the operations and, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
of a traced round (see README.md).  Machine information and per-operation
results are written to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402  (benchmark-local module)

WORKLOADS = ("cli-tree", "pointer-cyclic", "speedup-bounds", "engine-enum")
WORKER_TIMEOUT_S = 160
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "LCLSIM_THREADS": "1", "PYTHONHASHSEED": "0"}

# per-command rates, work done per second, measured on the untraced round of
# a traced run: name -> selects the operations
RATES = {
    "gen_nodes_per_s": lambda op: op["label"] == "gen",
    "pointer_nodes_per_s": lambda op: op["label"].startswith("solve-pointers"),
    "weak2_nodes_per_s": lambda op: op["label"] == "weak2",
    "homogeneous_nodes_per_s": lambda op: op["label"] == "homogeneous",
    "grid_points_per_s": lambda op: op["label"].startswith("speedup:"),
    "assignments_per_s": lambda op: op["unit"] == "assignments",
    "mc_samples_per_s": lambda op: op["unit"] == "samples",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def known_fault(check):
    """Operations that fail on every seed because node_local_failure sums
    per-branch count products in int64 (speedup.py), which wraps at
    direction 1, delta=6, b=2."""
    return (check["type"] == "speedup" and check["direction"] == 1
            and check["delta"] == 6 and check["b"] == 2)


def machine_info():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform(), "python": platform.python_version()}


def check_op(op, graphs):
    """Run the independent checker for one operation; returns (problems,
    work) where work is recomputed for speedup reports."""
    chk = op["check"]
    typ = chk["type"]
    work = op["work"]
    probs = checks.Problems()
    if typ == "engine-exact":
        return checks.check_engine_exact(chk), work
    if typ == "engine-mc":
        return checks.check_engine_mc(chk), work
    if op["rc"] != 0 and typ != "speedup":
        probs.add(f"exit code {op['rc']}")

    def graph(path):
        if path not in graphs:
            graphs[path] = checks.Graph(checks.load_json(path))
        return graphs[path]

    if typ == "tree-gen":
        probs.extend(checks.check_generated_tree(checks.load_json(chk["graph"]),
                                                 chk["delta"], chk["radius"]))
    elif typ == "tree-pointers":
        g, out = graph(chk["graph"]), checks.load_json(chk["out"])
        probs.extend(checks.check_tree_pointer_run(g, out, chk["radius"]))
        probs.extend(checks.check_report(out, g.n))
    elif typ == "pointers":
        g, out = graph(chk["graph"]), checks.load_json(chk["out"])
        probs.extend(checks.check_pointer_labels(g, checks.pointer_labels_from(out["labels"])))
        probs.extend(checks.check_report(out, g.n))
    elif typ == "weak2":
        g, out = graph(chk["graph"]), checks.load_json(chk["out"])
        probs.extend(checks.check_weak2(g, out))
        probs.extend(checks.check_report(out, g.n))
    elif typ == "homogeneous":
        g, out = graph(chk["graph"]), checks.load_json(chk["out"])
        probs.extend(checks.check_homogeneous(g, out, chk["r"]))
        probs.extend(checks.check_report(out, g.n))
    elif typ == "speedup":
        rep = checks.load_json(chk["out"])
        probs.extend(checks.check_speedup(
            rep, chk["direction"], chk["source"], chk["delta"], chk["t"], chk["b"],
            chk["c"], Fraction(chk["f"]), chk["grid"], op["rc"]))
        f_star = Fraction(rep["optimal_f"]["exact"])
        work = len(rep["f_grid_results"]) + 1 + (1 if 0 < f_star < 1 else 0)
    elif typ == "bounds-recurrence":
        rows = checks.load_json(chk["out"])["rows"]
        probs.extend(checks.check_recurrence(rows, chk["c0"], Fraction(chk["p0"]),
                                             chk["t"], chk["delta"]))
    elif typ == "bounds-global":
        rows = checks.load_json(chk["out"])["rows"]
        probs.extend(checks.check_global(rows, chk["n"], chk["t"], chk["b"]))
    elif typ == "bounds-zero-round":
        with open(chk["out"]) as fh:
            probs.extend(checks.check_zero_round(fh.read(), chk["c"], chk["delta"]))
    elif typ == "bounds-id-collision":
        rows = checks.load_json(chk["out"])["rows"]
        probs.extend(checks.check_id_collision(rows, chk["n"]))
    else:
        raise BenchError(f"no checker for {typ!r}")
    return probs, work


def run_worker(name, seed, seconds, trace, workdir, out_dir):
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result_path)]
    if trace:
        cmd += ["--spans", str(out_dir / f"spans-{name}.npz")]
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    log_path = workdir / "worker.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        except BaseException as exc:   # timeout or interrupt: never leave it running
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{name} worker did not finish in {WORKER_TIMEOUT_S} s") from None
            raise
    if rc != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{name} worker exited with code {rc}:\n{tail}")
    return checks.load_json(result_path)


def run_workload(name, seed, seconds, trace):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        res = run_worker(name, seed, seconds, trace, workdir, out_dir)
        graphs = {}
        attempted = failed = 0
        unexpected = []
        for ops in res["rounds"]:
            for op in ops:
                try:
                    probs, op["work"] = check_op(op, graphs)
                except (OSError, ValueError, KeyError, TypeError, IndexError,
                        AttributeError) as exc:
                    probs = [f"unreadable output: {exc!r}"]
                op["problems"] = list(probs)
                attempted += 1
                if probs:
                    failed += 1
                    if not known_fault(op["check"]):
                        unexpected.append((op["label"], probs[0]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    traced = set(res["traced_rounds"])
    plain = [ops for i, ops in enumerate(res["rounds"]) if i not in traced]
    wall = [sum(op["seconds"] for op in ops) for ops in plain]
    if trace:
        metrics = dict(res["layer"])
        for rate, select in RATES.items():
            sel = [op for op in plain[0] if select(op)]
            secs = sum(op["seconds"] for op in sel)
            metrics[rate] = sum(op["work"] for op in sel) / secs if secs else 0.0
        traced_wall = sum(op["seconds"] for i in traced for op in res["rounds"][i])
        metrics["trace.overhead_s"] = traced_wall - wall[0]
        metrics["trace.overhead_pct"] = 100 * (traced_wall - wall[0]) / wall[0]
    else:
        metrics = {
            "setup_s": res["import_s"] + res["setup_median_s"],
            "wall_s": statistics.median(wall),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    summary = {"correct": not unexpected, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": dict(machine_info(), **res["versions"]),
              "threads_env": res["threads_env"], "import_s": res["import_s"],
              "setup_s": res["setup_s"], "unexpected_failures": unexpected,
              "rounds": [[{k: op[k] for k in ("label", "rc", "seconds", "work", "problems")}
                          for op in ops] for ops in res["rounds"]],
              "result": summary}
    with open(out_dir / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return summary, record


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = checks.load_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(record):
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} | "
          f"{m['nproc']} CPU {m['cpu_model']} | Python {m['python']} numpy {m['numpy']}")
    for i, ops in enumerate(record["rounds"]):
        for op in ops:
            status = "ok" if not op["problems"] else f"FAILED: {op['problems'][0]}"
            print(f"  round {i} {op['label']:<40} rc={op['rc']} "
                  f"{op['seconds']:9.3f} s  {status}")
    for k, v in record["result"]["metrics"].items():
        print(f"  {k:<40} {v['value']:.6g} {v['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lclsim" / "__init__.py").is_file():
        print(f"lclsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = checks.self_test()
    if problems:
        print("checker self-test failed:\n" + "\n".join(problems), file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            summary, record = run_workload(name, args.seed, args.seconds, args.trace)
            print_table(record)
            results[name] = summary
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, summary in results.items():
            print(f"{name}: {json.dumps(summary)}")
        summary = {"correct": all(s["correct"] for s in results.values()),
                   "attempted": sum(s["attempted"] for s in results.values()),
                   "failed": sum(s["failed"] for s in results.values()),
                   "metrics": {f"{name}/{k}": v for name, s in results.items()
                               for k, v in s["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
