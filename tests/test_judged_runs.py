"""What the program judges instead of passing through.

- ``run --algorithm solve-pointers-local`` reports the pointer verifier's
  verdicts on the nodes it labels.
- A JSON boolean inside a list edge row is rejected (exit 2), not read as
  the integer 1.
- ``weak_to_weak2c`` names the nodes that see no other color within
  distance k, from the verifier's own sweeps.
"""

import json
import random

import pytest

import lclsim.cli
from conftest import near_regular_graph, random_graph
from lclsim.algorithms import solve_pointer_labeling_local, weak_to_weak2c
from lclsim.cli import main
from lclsim.engine import Assignment
from lclsim.errors import InvalidInputError, InvalidInstanceError
from lclsim.graph import PortedGraph, gen_cycle, gen_regular_tree
from lclsim.problems import _sees_other_color, verifier_report, verify_pointer_labeling

GRAPHS = {
    "tree": lambda: gen_regular_tree(4, 4),
    "near-regular": lambda: near_regular_graph(60, random.Random(7)),
    "leafy": lambda: random_graph(300, 4, seed=3, extra_edges=40),
}


def run_local(path, r, seed, capsys):
    code = main(["run", "--algorithm", "solve-pointers-local", "--graph", str(path),
                 "--r", str(r), "--seed", str(seed), "--out", "-"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("r", [0, 1, 2, 4])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_local_report_is_the_verifiers_on_the_labeled_nodes(tmp_path, capsys, name, r):
    path = tmp_path / "g.json"
    GRAPHS[name]().save(path)
    g = PortedGraph.load(path)
    code, doc = run_local(path, r, 5, capsys)
    labels = solve_pointer_labeling_local(
        g, r, Assignment.random(g, b=1, seed=5, with_ids=True))
    verdicts = verify_pointer_labeling(g, labels, g.delta)
    assert doc["report"] == verifier_report("pointer-labeling(local)",
                                            {v: verdicts[v] for v in labels})
    assert doc["labeled"] == len(labels)
    assert code == (1 if doc["report"]["fail_nodes"] else 0)


def test_local_run_fails_where_the_verifier_does(tmp_path, capsys, monkeypatch):
    """A verdict the verifier gives a labeled node reaches the report and
    the exit code; one it gives an unlabeled node does not."""
    path = tmp_path / "g.json"
    gen_regular_tree(4, 6).save(path)
    verify = lclsim.cli.verify_pointer_labeling
    flipped = []

    def one_wrong(g, labels, delta):
        verdicts = verify(g, labels, delta)
        unlabeled = next(v for v in range(g.n) if v not in labels)
        flipped[:] = [min(labels), unlabeled]
        for v in flipped:
            verdicts[v] = False
        return verdicts

    monkeypatch.setattr(lclsim.cli, "verify_pointer_labeling", one_wrong)
    code, doc = run_local(path, 1, 2, capsys)
    assert code == 1
    assert doc["report"]["fail_nodes"] == flipped[:1]
    assert doc["report"]["pass_count"] == doc["labeled"] - 1


@pytest.mark.parametrize("r", [0, 2, 4])
def test_local_run_that_labels_nothing_says_so(tmp_path, capsys, r):
    """On a 9-cycle no node sees an irregularity within r <= 4: the summary
    says that nothing was judged instead of reading as a pass, and the
    exit code stays 0."""
    path = tmp_path / "c9.json"
    gen_cycle(9).save(path)
    out = tmp_path / "o.json"
    assert main(["run", "--algorithm", "solve-pointers-local", "--graph", str(path),
                 "--r", str(r), "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert summary == f"pointer-labeling(local): no node labeled within r={r}; nothing judged\n"
    doc = json.loads(out.read_text())
    assert doc["labeled"] == doc["report"]["pass_count"] == 0 and doc["labels"] == {}


BOOL_ROWS = [
    ([[0, 1, 0, 0], [1, 2, True, 0], [2, 3, 1, 0]], 1),
    ([(0, 1, 0, 0, 1, 1), (1, 2, 1, 0, 1, False), (2, 3, 1, 0, 1, 1)], 1),
    ([[False, True, False, False]], 0),
]


@pytest.mark.parametrize("edges,row", BOOL_ROWS)
def test_from_edges_rejects_a_boolean_in_a_row(edges, row):
    with pytest.raises(InvalidInstanceError,
                       match=rf"edges must be integer rows; row {row} .* holds a boolean"):
        PortedGraph.from_edges(4, edges, delta=2)


@pytest.mark.parametrize("indent", [None, 1])
def test_a_boolean_row_in_a_file_exits_config(tmp_path, capsys, indent):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"format": "ported-graph", "version": 1, "n": 4, "delta": 2,
                                "edges": BOOL_ROWS[0][0], "meta": {}},
                               indent=indent, separators=None if indent else (",", ":")))
    assert main(["run", "--algorithm", "solve-pointers", "--graph", str(path),
                 "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert "row 1 [1, 2, True, 0] holds a boolean" in err and "Traceback" not in err


def colorings(seed):
    """Random, often invalid colorings of trees, cyclic graphs and cycles."""
    rng = random.Random(seed)
    for g in (random_graph(rng.randrange(10, 120), 4, seed=seed, extra_edges=10),
              gen_regular_tree(4, 3), gen_cycle(rng.randrange(3, 30))):
        for k in (1, 2, 3):
            c = rng.randrange(2, 5)
            yield g, {v: rng.choice((1, 1, 1, c)) for v in range(g.n)}, k, c


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_recolor_names_the_nodes_that_see_no_other_color(seed):
    faults = 0
    for g, phi, k, c in colorings(seed):
        bad = [v for v in range(g.n) if not _sees_other_color(g, v, phi, k)]
        if not bad:
            weak_to_weak2c(g, phi, k, c)
            continue
        faults += 1
        with pytest.raises(InvalidInputError) as exc:
            weak_to_weak2c(g, phi, k, c)
        assert str(exc.value) == \
            f"not a valid distance-{k} weak {c}-coloring; offenders {bad[:5]}"
    assert faults
