import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lclsim.algorithms
import lclsim.cli
from lclsim.cli import main
from lclsim.graph import MAX_DELTA, PortedGraph, dumps_canonical


def run_cli(argv):
    return main(argv)


def test_gen_regular_tree(tmp_path, capsys):
    out = tmp_path / "tree.json"
    code = run_cli(["gen", "regular-tree", "--delta", "4", "--radius", "3",
                    "--out", str(out)])
    assert code == 0
    g = PortedGraph.load(out)
    assert g.n == 53
    assert "n=53" in capsys.readouterr().out


def test_gen_cycle_and_symlower(tmp_path):
    assert run_cli(["gen", "cycle", "--n", "5",
                    "--out", str(tmp_path / "c5.json")]) == 0
    assert PortedGraph.load(tmp_path / "c5.json").n == 5
    prefix = str(tmp_path / "pair")
    assert run_cli(["gen", "symlower", "--delta", "3", "--r", "2",
                    "--out-prefix", prefix]) == 0
    t = PortedGraph.load(prefix + "_t.json")
    tp = PortedGraph.load(prefix + "_tprime.json")
    assert t.n == tp.n == 10


def test_run_pipeline_exit_zero(tmp_path):
    tree = tmp_path / "tree.json"
    run_cli(["gen", "regular-tree", "--delta", "4", "--radius", "3",
             "--out", str(tree)])
    out = tmp_path / "labels.json"
    code = run_cli(["run", "--algorithm", "weak-family-to-weak2",
                    "--graph", str(tree), "--k", "2", "--c", "3",
                    "--seed", "7", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["report"]["fail_nodes"] == []
    assert set(obj["labels"].values()) <= {1, 2}
    assert "provenance" in obj and obj["provenance"]["seed"] == 7


def test_run_solve_pointers(tmp_path):
    tree = tmp_path / "tree.json"
    run_cli(["gen", "regular-tree", "--delta", "4", "--radius", "4",
             "--out", str(tree)])
    code = run_cli(["run", "--algorithm", "solve-pointers",
                    "--graph", str(tree), "--seed", "1",
                    "--out", str(tmp_path / "p.json")])
    assert code == 0


def test_run_deterministic_given_seed(tmp_path):
    tree = tmp_path / "tree.json"
    run_cli(["gen", "cycle", "--n", "24", "--out", str(tree)])
    out = tmp_path / "labels.json"
    argv = ["run", "--algorithm", "solve-pointers", "--graph", str(tree),
            "--seed", "3", "--out", str(out)]
    assert run_cli(argv) == 0
    first = out.read_bytes()
    assert run_cli(argv) == 0
    assert out.read_bytes() == first


def test_speedup_command_canonical(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["speedup", "--direction", "1", "--delta", "4",
                    "--b", "1", "--c", "2", "--t", "1", "--f", "1/40",
                    "--grid", "10", "--algorithm", "own-bit",
                    "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["p"]["exact"] == "1/16"
    assert obj["p_prime"]["exact"] == "1/4"
    assert obj["inequality_holds"] is True


def test_speedup_metrics_and_goodness(tmp_path):
    out = tmp_path / "rep.json"
    argv = ["speedup", "--direction", "1", "--delta", "4", "--b", "1",
            "--c", "2", "--t", "1", "--f", "1/40", "--grid", "10",
            "--algorithm", "own-bit", "--out", str(out)]
    assert run_cli(argv) == 0
    first = out.read_bytes()
    obj = json.loads(first)
    assert obj["goodness_holds"] is True
    # configured f, the optimal f (1/40 again, evaluated separately) and
    # the 10 grid points
    assert obj["metrics"] == {
        "grid_points": 12, "kernel_budget_bits": 24,
        "kernels": {
            # a neighbor's radius-1 ball overlaps the center ball in 2 of
            # its 5 positions; 3 are free
            "source_failure": {"overlap_rows": 4, "completion_columns": 8, "bits": 8},
            "construction": {"overlap_rows": 4, "completion_columns": 8, "bits": 5},
            "derived_failure": {"overlap_rows": 2, "completion_columns": 2, "bits": 2}}}
    assert run_cli(argv) == 0
    assert out.read_bytes() == first


def test_speedup_budget_exit(tmp_path):
    code = run_cli(["speedup", "--direction", "2", "--delta", "6",
                    "--b", "2", "--c", "2", "--t", "1",
                    "--algorithm", "random", "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_speedup_pair_palette_cap_exits_budget(tmp_path):
    """Direction 1's derived label is a pair of c-bit masks packed into one
    int64, so past 2c = 62 bits (c >= 32) it exits 3 before any table is
    built; it once built every pair label and never exited at c = 100.  Up
    to c = 31 it runs, as the kernel counts only the pairs in use.  Run in a
    child process, so a hang fails the test instead of stalling it."""
    env = dict(os.environ, PYTHONPATH=str(Path(lclsim.cli.__file__).parents[1]))

    def speedup(c):
        return subprocess.run(
            [sys.executable, "-m", "lclsim.cli", "speedup", "--direction", "1",
             "--c", str(c), "--out", str(tmp_path / f"s{c}.json")],
            capture_output=True, text=True, env=env, timeout=60)

    start = time.perf_counter()
    big = speedup(100)
    assert big.returncode == 3 and time.perf_counter() - start < 30
    assert ("budget exceeded: pair labels of 2c = 200 bits exceed the 62 bits of an int64"
            in big.stderr)
    assert not (tmp_path / "s100.json").exists()
    assert speedup(32).returncode == 3
    assert not (tmp_path / "s32.json").exists()
    assert speedup(31).returncode == 0
    assert json.loads((tmp_path / "s31.json").read_text())["cfg"]["c"] == 31


@pytest.mark.parametrize("c, code", [(64, 3), (63, 0)])
def test_speedup_direction2_mask_bits_exit_budget(tmp_path, capsys, c, code):
    """Bit i of a frequent-set mask is color i, so direction 2 past 63 colors
    exits 3 before any counts; it once shifted colors 63 and up out of the
    masks and wrote p' = 1 where the exact value is 1/16."""
    out = tmp_path / "s.json"
    assert run_cli(["speedup", "--direction", "2", "--algorithm", "random", "--delta", "4",
                    "--t", "0", "--b", "1", "--c", str(c), "--seed", "6",
                    "--grid", "3", "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "64 colors exceed the 63 bits" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["homogeneous-constant", "solve-pointers-local"])
def test_negative_radius_exits_config(tmp_path, capsys, algorithm):
    tree = tmp_path / "tree.json"
    run_cli(["gen", "regular-tree", "--delta", "4", "--radius", "2", "--out", str(tree)])
    assert run_cli(["run", "--algorithm", algorithm, "--graph", str(tree), "--r", "-1",
                    "--out", str(tmp_path / "o.json")]) == 2
    assert "radius r=-1 must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_bounds_tables(tmp_path, capsys):
    assert run_cli(["bounds", "recurrence", "--c0", "2", "--p0", "1/16",
                    "--t", "2", "--delta", "4", "--format", "json",
                    "--out", str(tmp_path / "r.json")]) == 0
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    assert len(rows) == 3 and all(r["agrees_with_iteration"] for r in rows)

    assert run_cli(["bounds", "zero-round", "--c", "2", "3", "--delta", "4",
                    "--format", "csv", "--out", str(tmp_path / "z.csv")]) == 0
    lines = (tmp_path / "z.csv").read_text().strip().splitlines()
    assert lines[0].startswith("c,delta") and len(lines) == 3

    assert run_cli(["bounds", "global", "--n", "4096", "--t", "0",
                    "--b", "1"]) == 0
    out = capsys.readouterr().out
    assert '"condition_holds":true' in out.replace(" ", "")

    assert run_cli(["bounds", "id-collision", "--n", "1000", "8"]) == 0


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_canonical({
        "version": 1,
        "command": "gen cycle",
        "n": 6,
        "out": str(tmp_path / "c.json"),
    }))
    assert run_cli(["--config", str(cfg)]) == 0
    assert PortedGraph.load(tmp_path / "c.json").n == 6


def test_config_version_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_canonical({"version": 99, "command": "gen cycle", "n": 6}))
    assert run_cli(["--config", str(cfg)]) == 2


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_canonical({
        "version": 1, "command": "gen cycle", "n": 6, "bogus_knob": 1,
    }))
    assert run_cli(["--config", str(cfg)]) == 2


def test_bad_parameters_exit_config(tmp_path):
    assert run_cli(["gen", "regular-tree", "--delta", "3", "--radius", "2",
                    "--out", str(tmp_path / "t.json")]) == 2
    assert run_cli(["run", "--algorithm", "nope", "--graph", "missing.json"]) == 2


def test_invalid_flags_exit_config(tmp_path, capsys):
    assert run_cli(["--config"]) == 2
    tree = tmp_path / "tree.json"
    run_cli(["gen", "regular-tree", "--delta", "4", "--radius", "2",
             "--out", str(tree)])
    assert run_cli(["run", "--algorithm", "weak-family-to-weak2",
                    "--graph", str(tree), "--c", "1",
                    "--out", str(tmp_path / "w.json")]) == 2
    for flag, val in (("--b", "0"), ("--c", "1"), ("--t", "-1")):
        assert run_cli(["speedup", "--direction", "1", flag, val,
                        "--out", str(tmp_path / "s.json")]) == 2
    assert not (tmp_path / "s.json").exists()
    err = capsys.readouterr().err
    assert "--config needs" in err and "--c >= 2" in err and "b (random bits" in err


PATH3 = {"format": "ported-graph", "version": 1, "n": 3, "delta": 2,
         "edges": [[0, 1, 0, 0, 0, 0], [1, 2, 1, 0, 0, 0]], "meta": {}}


@pytest.mark.parametrize("obj", [
    [PATH3],                                                          # JSON list
    dict(PATH3, edges=[[0, 1, 0, 0, 0, 0], [1, 3, 1, 0, 0, 0]]),      # endpoint >= n
    dict(PATH3, edges=[[0, 1, 0, 0, 0, 0], [1, 2, 1, 128, 0, 0]]),    # port >= 128
    dict(PATH3, delta=MAX_DELTA + 1),                                 # delta > MAX_DELTA
], ids=["list", "endpoint", "port", "delta"])
def test_malformed_graph_file_exits_config(tmp_path, capsys, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run_cli(["run", "--algorithm", "solve-pointers", "--graph", str(bad),
                    "--out", str(tmp_path / "o.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("coloring,message", [
    ([1, 2], "must hold a JSON object"),
    ({"0": 1}, "no color for node 1"),
    ({"x": 1}, "names no node 'x'"),
    ({str(v): 1 for v in range(18)}, "names node 17, outside 0..16"),
], ids=["list", "missing-node", "non-integer", "outside"])
def test_malformed_coloring_file_exits_config(tmp_path, capsys, coloring, message):
    tree = tmp_path / "tree.json"
    run_cli(["gen", "regular-tree", "--delta", "4", "--radius", "2", "--out", str(tree)])
    col = tmp_path / "col.json"
    col.write_text(json.dumps(coloring))
    assert run_cli(["run", "--algorithm", "weak-family-to-weak2", "--graph", str(tree),
                    "--coloring", str(col), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert message in err and str(col) in err


@pytest.mark.parametrize("row", [[0, 1, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1]],
                         ids=["dim-unsigned", "signed-unoriented"])
def test_half_oriented_edge_exits_config(tmp_path, capsys, row):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(PATH3, edges=[row, [1, 2, 1, 0, 0, 0]])))
    assert run_cli(["run", "--algorithm", "solve-pointers", "--graph", str(bad),
                    "--out", str(tmp_path / "o.json")]) == 2
    assert "orientation label out of range" in capsys.readouterr().err


def test_solve_pointers_without_irregularity_exits_config(tmp_path, capsys):
    k2 = tmp_path / "k2.json"
    k2.write_text(json.dumps({"format": "ported-graph", "version": 1, "n": 2, "delta": 1,
                              "edges": [[0, 1, 0, 0, 0, 0]], "meta": {}}))
    assert run_cli(["run", "--algorithm", "solve-pointers", "--graph", str(k2),
                    "--out", str(tmp_path / "o.json")]) == 2
    assert "node 0 sees no irregularity" in capsys.readouterr().err


def test_solve_pointers_reports_metrics(tmp_path):
    ring = tmp_path / "c.json"
    run_cli(["gen", "cycle", "--n", "9", "--out", str(ring)])
    out = tmp_path / "p.json"
    argv = ["run", "--algorithm", "solve-pointers", "--graph", str(ring), "--out", str(out)]
    assert run_cli(argv) == 0
    obj = json.loads(out.read_text())
    assert obj["metrics"] == {"radius": 5, "cycle_search_passes": 3, "cycles_enumerated": 1}
    assert obj["rounds"] == 5


def test_dump_stages_reads_the_single_pipeline_run(tmp_path, monkeypatch):
    calls = []
    real = lclsim.algorithms.weak_to_weak2c

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (lclsim.algorithms, lclsim.cli):
        monkeypatch.setattr(module, "weak_to_weak2c", counted)
    tree = tmp_path / "tree.json"
    run_cli(["gen", "regular-tree", "--delta", "4", "--radius", "3",
             "--out", str(tree)])
    out = tmp_path / "w.json"
    assert run_cli(["run", "--algorithm", "weak-family-to-weak2", "--graph", str(tree),
                    "--k", "2", "--c", "3", "--seed", "7", "--dump-stages",
                    "--out", str(out)]) == 0
    assert len(calls) == 1
    obj = json.loads(out.read_text())
    stages = obj["stages"]
    assert set(stages) == {"input", "recolored", "pseudoforest_ports",
                           "three_coloring", "independent_set"}
    assert stages["independent_set"] == obj["labels"]
    assert set(stages["three_coloring"].values()) <= {1, 2, 3}
    assert set(stages["recolored"].values()) <= set(range(1, 7))


def test_speedup_goodness_failure_exits_verification(tmp_path, monkeypatch, capsys):
    real = lclsim.cli.verify_speedup_inequality

    def goodness_fails(*args, **kwargs):
        report = real(*args, **kwargs)
        report.goodness_holds = False
        return report

    monkeypatch.setattr(lclsim.cli, "verify_speedup_inequality", goodness_fails)
    out = tmp_path / "s.json"
    assert run_cli(["speedup", "--direction", "1", "--grid", "3",
                    "--out", str(out)]) == 1
    assert json.loads(out.read_text())["inequality_holds"] is True
    assert "goodness bound VIOLATED" in capsys.readouterr().out


def test_speedup_direction2_default_source(tmp_path):
    out = tmp_path / "s.json"
    assert run_cli(["speedup", "--direction", "2", "--grid", "3",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["source"] == "endpoint-xor"


def test_config_with_other_flags_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_canonical({"version": 1, "command": "gen cycle", "n": 6,
                                    "out": str(tmp_path / "c.json")}))
    assert run_cli(["--config", str(cfg), "gen", "cycle", "--n", "9"]) == 2
    assert run_cli(["gen", "cycle", "--n", "9", "--config", str(cfg)]) == 2
    assert run_cli([f"--config={cfg}", "gen", "cycle", "--n", "9",
                    "--out", str(tmp_path / "c.json")]) == 2
    assert not (tmp_path / "c.json").exists()
    assert "--config replaces the command line" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["speedup", "--direction", "1", "--f", "1/0"], "--f 1/0: the denominator is zero"),
    (["bounds", "recurrence", "--p0", "1/0"], "--p0 1/0: the denominator is zero"),
    (["speedup", "--direction", "1", "--grid", "-5"], "--grid -5"),
    (["bounds", "recurrence", "--delta", "-1", "--t", "1"], "delta must be >= 1"),
    (["bounds", "recurrence", "--delta", "-3", "--t", "1"], "delta must be >= 1"),
    (["bounds", "recurrence", "--delta", "-2", "--t", "0"], "delta must be >= 1"),
    (["bounds", "recurrence", "--t", "-2"], "need c0 >= 1 and t >= 0"),
    (["bounds", "zero-round", "--c", "1", "--delta", "-1"], "delta must be >= 1"),
], ids=["f", "p0", "negative-grid", "recurrence-delta-1", "recurrence-delta-3",
        "recurrence-delta-2-t0", "recurrence-negative-t", "zero-round-c1-delta-1"])
def test_malformed_numbers_exit_config(tmp_path, capsys, argv, message):
    out = tmp_path / "o.json"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_monochromatic_coloring_exits_config(tmp_path, capsys):
    cycle = tmp_path / "c5.json"
    assert run_cli(["gen", "cycle", "--n", "5", "--out", str(cycle)]) == 0
    col = tmp_path / "mono.json"
    col.write_text(json.dumps({str(v): 1 for v in range(5)}))
    assert run_cli(["run", "--algorithm", "weak-to-weak2c", "--k", "1", "--c", "2",
                    "--graph", str(cycle), "--coloring", str(col),
                    "--out", str(tmp_path / "o.json")]) == 2
    assert not (tmp_path / "o.json").exists()
    assert "not a valid distance-1 weak 2-coloring; offenders [0, 1, 2, 3, 4]" in \
        capsys.readouterr().err


def test_grid_zero_evaluates_no_grid(tmp_path):
    out = tmp_path / "s.json"
    assert run_cli(["speedup", "--direction", "1", "--grid", "0", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    # the configured f and the optimal f only
    assert obj["f_grid_results"] == [] and obj["metrics"]["grid_points"] == 2


def test_boolean_color_exits_config(tmp_path, capsys):
    cycle = tmp_path / "c5.json"
    assert run_cli(["gen", "cycle", "--n", "5", "--out", str(cycle)]) == 0
    col = tmp_path / "col.json"
    col.write_text(json.dumps({str(v): True if v % 2 else 2 for v in range(5)}))
    assert run_cli(["run", "--algorithm", "weak-family-to-weak2", "--k", "1", "--c", "2",
                    "--graph", str(cycle), "--coloring", str(col), "--dump-stages",
                    "--out", str(tmp_path / "o.json")]) == 2
    assert not (tmp_path / "o.json").exists()
    assert "gives node 1 the color true" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--algorithm", "solve-pointers", "--graph", "{dir}"],
    ["run", "--algorithm", "weak-family-to-weak2", "--graph", "{tree}", "--coloring", "{dir}"],
    ["--config", "{dir}"],
])
def test_unreadable_paths_exit_config(tmp_path, capsys, argv):
    """A directory where a file is read is an OSError other than
    FileNotFoundError: exit 2, no traceback, no output file."""
    tree = tmp_path / "tree.json"
    assert run_cli(["gen", "regular-tree", "--delta", "4", "--radius", "2",
                    "--out", str(tree)]) == 0
    capsys.readouterr()
    out = tmp_path / "o.json"
    argv = [a.format(dir=tmp_path, tree=tree) for a in argv]
    if argv[0] == "run":
        argv += ["--out", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Is a directory" in err
    assert not out.exists()


def test_recurrence_past_the_budget_exits_at_once(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "r.json"
    assert run_cli(["bounds", "recurrence", "--t", "5", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 5
    assert "past the budget" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["bounds", "recurrence", "--t", "1", "--format", "csv",
                    "--out", str(out)]) == 0
    assert [line.split(",")[1] for line in out.read_text().splitlines()] == ["t", "0", "1"]


def test_out_of_memory_exits_budget(tmp_path, monkeypatch, capsys):
    """A ``MemoryError`` that escapes every budget check exits 3 and names
    the command, without a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(lclsim.cli, "verify_speedup_inequality", exhausted)
    out = tmp_path / "s.json"
    assert run_cli(["speedup", "--direction", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "budget exceeded: out of memory running speedup\n"
    assert not out.exists()

