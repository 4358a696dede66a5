"""The JSON documents of ``run``, ``speedup`` and ``gen`` on stdout.

``run`` writes its node-keyed label maps straight from the algorithms'
``{node: label}`` dicts.  The golden hashes below are the bytes the
string-keyed copy wrote, and ``oracles.str_keyed_document`` is that copy,
kept as the differential oracle.  With ``--out -`` the document is all of
stdout; the summary line goes to stderr.
"""

import hashlib
import json
import random

import pytest

import lclsim.cli
from conftest import near_regular_graph, random_graph
from lclsim.cli import NodeMap, main, write_json
from lclsim.graph import dumps_canonical, gen_cycle, gen_regular_tree
from lclsim.problems import HomogeneousLabel, PointerLabel
from oracles import str_keyed_document

RUNS = {
    "solve-pointers": ["--seed", "3"],
    "solve-pointers-local": ["--r", "1", "--seed", "3"],
    "weak-family-to-weak2": ["--k", "2", "--c", "3", "--seed", "7"],
    "weak-family-to-weak2 --dump-stages": ["--k", "2", "--c", "3", "--seed", "7",
                                           "--dump-stages"],
    "weak-to-weak2c": ["--k", "2", "--c", "3", "--seed", "7"],
    "homogeneous-constant": ["--r", "2", "--seed", "3"],
}

# sha256 of each document, written by the string-keyed copy
GOLDEN = {
    ("tree.json", "solve-pointers"):
        "1713792f5f283579a7aa320e79b50d9999e1d9d699f427d84ef9b2f998fb0ff4",
    ("tree.json", "solve-pointers-local"):
        "6b867a37efdebfce6d62000e287999d339a3509405a594dffec5aca65472957f",
    ("tree.json", "weak-family-to-weak2"):
        "83b97f56971f4a90503a5b58ff295b3e7f1fb7dabfac981214eb3c5e561adfd1",
    ("tree.json", "weak-family-to-weak2 --dump-stages"):
        "79f5c2ccd463434f460325822398d1827e1db97d965808e260cc12e89dc7e8fa",
    ("tree.json", "weak-to-weak2c"):
        "951fc1dd02b2325dbc3d5e33d73d13d396fa860396373133a21ea96517c4bd0f",
    ("tree.json", "homogeneous-constant"):
        "2d19a7dc4ea4bff1ee661cb07327ed70b913160999383186ce43fd723267cec7",
    ("cyc.json", "solve-pointers"):
        "9ff6f514f460040d0932e00f634cb709de74b19fd67654e0fd5057b38468e267",
    ("cyc.json", "solve-pointers-local"):
        "d5c37762ec4c407ee8fd372c14c6ac68a616857f5fffc3760c682b2275fee6fa",
    ("cyc.json", "weak-family-to-weak2"):
        "4d923a83d2d1ad0f419b88fb6d8e04991343fc943addaa9195abb631ae2b0d2a",
    ("cyc.json", "weak-family-to-weak2 --dump-stages"):
        "42d51ae88a14b53df8050ba22d88c7bee3c6d39aff218d9b1bf22d78560bfabf",
    ("cyc.json", "weak-to-weak2c"):
        "611ff4f1c2056a60e1c06a50c39466cf463680841c055c5cd54d13ebf318e291",
    ("cyc.json", "homogeneous-constant"):
        "5b02ea56dc96a04c26836c71638bffe71d5216ffa88e3da1fbd8531809825c15",
}


@pytest.fixture
def graphs(tmp_path, monkeypatch):
    """The radius-4 4-tree (161 nodes, so its keys cross "9"/"10" and
    "99"/"100") and a seeded near-regular cyclic graph, under relative
    names in the working directory, so ``config_hash`` is stable."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "regular-tree", "--delta", "4", "--radius", "4",
                 "--out", "tree.json"]) == 0
    near_regular_graph(30, random.Random(11)).save("cyc.json")
    return tmp_path


def run_argv(name, graph):
    return ["run", "--algorithm", name.split()[0], *RUNS[name], "--graph", graph,
            "--out", "-"]


@pytest.mark.parametrize("graph", ["tree.json", "cyc.json"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_document_bytes_are_golden(graphs, capsys, graph, name):
    assert main(run_argv(name, graph)) == 0
    out = capsys.readouterr()
    assert hashlib.sha256(out.out.encode()).hexdigest() == GOLDEN[graph, name]
    assert "nodes pass" in out.err


@pytest.mark.parametrize("graph", ["tree.json", "cyc.json"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_document_matches_string_keyed_copy(graphs, capsys, monkeypatch, graph, name):
    documents = []
    real = lclsim.cli.write_json

    def captured(path, obj):
        documents.append(obj)
        return real(path, obj)

    monkeypatch.setattr(lclsim.cli, "write_json", captured)
    assert main(run_argv(name, graph)) == 0
    [doc] = documents
    assert capsys.readouterr().out == str_keyed_document(doc)


def _random_label(rng, kind):
    if kind == "color":  # 1, True and 1.0 are equal and hash alike, yet write apart
        return rng.choice([1, True, 1.0, 2, 3, 2**64 + 1])
    pointer = PointerLabel(rng.randrange(4), rng.choice([None, 0, 1, 3]))
    if kind == "pointer":
        return pointer
    return HomogeneousLabel(rng.choice([None, 1]), rng.choice([None, pointer]))


@pytest.mark.parametrize("seed", range(6))
def test_node_maps_write_as_the_string_keyed_copy(capsys, seed):
    rng = random.Random(seed)
    doc = {"report": {"pass_count": 3}, "stages": {}}
    for kind in ("color", "pointer", "homogeneous"):
        n = rng.choice([0, 1, 12, 150, 1200])
        nodes = rng.sample(range(n), rng.randrange(n + 1))
        labels = {v: _random_label(rng, kind) for v in nodes}
        doc["stages"][kind] = doc[kind] = NodeMap(labels)
    write_json("-", doc)
    assert capsys.readouterr().out == str_keyed_document(doc)


def test_node_maps_write_unhashable_labels(capsys):
    """Labels are encoded once per object, not per value, so lists (and
    homogeneous labels holding them) write too."""
    inner = [[0], [1, 2]]
    pointer = PointerLabel(1, 0)
    doc = {"lists": NodeMap({v: inner[v % 2] for v in range(30)}),
           "homogeneous": NodeMap({v: HomogeneousLabel(inner[v % 2], (None, pointer)[v % 3 == 0])
                                   for v in range(30)})}
    write_json("-", doc)
    assert capsys.readouterr().out == str_keyed_document(doc)


ALGORITHMS = ["weak-family-to-weak2", "weak-to-weak2c", "solve-pointers",
              "solve-pointers-local", "homogeneous-constant"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_stdout_parses(tmp_path, capsys, algorithm):
    graph = tmp_path / "g.json"
    random_graph(40, 4, seed=2).save(graph)
    code = main(["run", "--algorithm", algorithm, "--graph", str(graph), "--out", "-"])
    out = capsys.readouterr()
    assert code == 0
    assert json.loads(out.out)["report"]["fail_nodes"] == []
    assert out.err


def test_speedup_stdout_parses(capsys):
    assert main(["speedup", "--direction", "1", "--grid", "3", "--out", "-"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["inequality_holds"] is True
    assert "inequality holds" in out.err


@pytest.mark.parametrize("argv,graph", [
    (["cycle", "--n", "5"], lambda: gen_cycle(5)),
    (["regular-tree", "--delta", "4", "--radius", "2"], lambda: gen_regular_tree(4, 2)),
])
def test_gen_to_stdout(tmp_path, monkeypatch, capsys, argv, graph):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", *argv, "--out", "-"]) == 0
    out = capsys.readouterr()
    assert out.out == dumps_canonical(graph().to_json_obj())
    assert "wrote -" in out.err
    assert not (tmp_path / "-").exists()
