"""Graph files and node maps as whole arrays.

``PortedGraph.load`` decodes compact edge rows straight into an int64 array
and reads every other file through ``json``; ``PortedGraph.dumps`` and
``NodeMap.dumps`` render their text from arrays.  Each is checked against
the code it replaced: ``oracles.json_load_graph`` (the ``json.load`` path),
``dumps_canonical(g.to_json_obj())`` and ``oracles.str_keyed_document``.
"""

import json
import random

import numpy as np
import pytest

from conftest import pruned_oriented_tree, random_graph, random_tree, relabeled
from lclsim.cli import NodeMap
from lclsim.graph import (PortedGraph, _read_compact, dumps_canonical, gen_balanced_tree,
                          gen_cycle, gen_regular_tree, gen_symlower_pair,
                          plant_irregularities, render_int_rows)
from lclsim.problems import HomogeneousLabel, PointerLabel
from oracles import json_load_graph, str_keyed_document


def generated_graphs():
    t, tp, _ = gen_symlower_pair(3, 3)
    return {
        "regular-tree": gen_regular_tree(4, 3), "regular-tree-6": gen_regular_tree(6, 2),
        "balanced-tree": gen_balanced_tree(3, 3), "cycle": gen_cycle(7),
        "symlower-t": t, "symlower-tprime": tp,
        "planted": plant_irregularities(gen_balanced_tree(4, 4),
                                        [("cycle", 2), ("low-degree", 3)]),
        "random-tree": random_tree(40, 4, 1), "random-graph": random_graph(40, 4, 2),
        "pruned-oriented": pruned_oriented_tree(4, 3, 3),
        "relabeled": relabeled(gen_regular_tree(4, 2), 4)[0],
        "one-node": PortedGraph.from_edges(1, []),
        "meta": PortedGraph.from_edges(2, [(0, 1, 0, 0)],
                                       meta={"name": "Grüße ✓", "tags": [1, None]}),
    }


def outcome(load, path):
    """What a loader makes of a file: the graph's n, delta, meta and CSR
    arrays, or its exception's class and message."""
    try:
        g = load(path)
    except Exception as exc:   # the class and the message are what is compared
        return type(exc), str(exc)
    return g.n, g.delta, g.meta, [a.tolist() for a in g.csr()]


def assert_loads_as_json_does(path):
    got = outcome(PortedGraph.load, path)
    assert got == outcome(json_load_graph, path)
    return got


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(generated_graphs()))
def test_saved_files_take_the_array_path_and_load_as_json_does(tmp_path, name):
    g = generated_graphs()[name]
    path = tmp_path / "g.json"
    g.save(path)
    compact = _read_compact(path.read_text())   # "edges":[] is no row array
    assert isinstance(compact["edges"], np.ndarray) if g.edge_count() else compact is None
    assert assert_loads_as_json_does(path)[3] == [a.tolist() for a in g.csr()]


@pytest.mark.parametrize("name", sorted(generated_graphs()))
def test_other_layouts_load_as_json_does(tmp_path, name):
    """Pretty-printed files go through json; a compact file in any key
    order takes the array path."""
    obj = generated_graphs()[name].to_json_obj()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj, indent=2))
    assert _read_compact(path.read_text()) is None
    assert assert_loads_as_json_does(path)[0] == obj["n"]
    keys = list(obj)
    random.Random(name).shuffle(keys)
    path.write_text(json.dumps({k: obj[k] for k in keys}, separators=(",", ":")))
    assert (_read_compact(path.read_text()) is not None) == bool(obj["edges"])
    assert assert_loads_as_json_does(path)[0] == obj["n"]


HEAD = '{"format":"ported-graph","version":1,"n":4,"delta":2,"edges":'
PATH_ROWS = "[[0,1,0,0],[1,2,1,0],[2,3,1,0]]"

EDGE_TEXTS = [
    PATH_ROWS,
    "[[0,1,0,0,0,0],[1,2,1,0,0,0],[2,3,1,0,0,0]]",        # width 6
    "[[0,1,0,0,1,1],[1,2,1,0,1,1],[2,3,1,0,1,-1]]",       # oriented, a sign -1
    "[]",                                                 # no edges
    "[[0,1,0,0],[1,2,1,0,0,0],[2,3,1,0]]",                # ragged rows
    "[[0,1,0],[1,2,1],[2,3,1]]",                          # width 3
    "[[0,1,0,0,0],[1,2,1,0,0],[2,3,1,0,0]]",              # width 5
    "[[0,1,0,0],[1,2,1,-0],[2,3,1,0]]",                   # -0
    "[[0,1,0,0],[1,2,1,-],[2,3,1,0]]",                    # a lone '-'
    "[[0,1,0,0],[1,2,1,--0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,1,0-],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,01,0],[2,3,1,0]]",                   # leading zeros
    "[[0,1,0,0],[1,2,00,0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,-01,0],[2,3,1,0]]",
    "[[0,1,0,0],[1,02,1,0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,1.0,0],[2,3,1,0]]",                  # 1.0
    "[[0,1,0,0],[1,2,1e0,0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,+1,0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,true,0],[2,3,1,0]]",                 # true
    "[[false,true,false,false]]",
    "[[0,1,0,0],[1,2,null,0],[2,3,1,0]]",                 # null
    '[[0,1,0,0],[1,2,"1",0],[2,3,1,0]]',
    "[[0,1,0,0],[1,2,[1],0],[2,3,1,0]]",
    "[[0,1,0,0],5]",
    f"[[0,1,0,0],[1,2,{2**70},0],[2,3,1,0]]",             # 2**70
    f"[[0,1,0,0],[1,2,{10**18 - 1},0],[2,3,1,0]]",         # 18 digits: array path
    f"[[0,1,0,0],[1,2,{10**18},0],[2,3,1,0]]",             # 19 digits: json
    f"[[0,1,0,0],[1,2,{2**63 - 1},0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,-1,0],[2,3,1,0]]",                   # a port out of range
    "[[0,1,0,0],[1,2,1,0],[2,3,1,0],[3,0,1,1]]",          # a cycle
    "[[0,1,0,0],[1,9,1,0],[2,3,1,0]]",                    # an endpoint out of range
    "[[0,1,0,0], [1,2,1,0],[2,3,1,0]]",                   # whitespace between rows
    "[ [0,1,0,0],[1,2,1,0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,1,0],[2,3,1,0] ]",
    "[[0,1,0,0],[1, 2,1,0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,1,0],[2,3,1,0],]",                   # a trailing comma
    "[[0,1,0,0][1,2,1,0],[2,3,1,0]]",                     # a missing comma
    "[[0,1,0,0],,[1,2,1,0],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,1,0],[2,3,1,0]]]",                   # one ']' too many
    "[[0,1,0,0],[1,2,1,0],[2,3,1,0]",                     # one too few
    "[[0,1,0,0],[[1,2,1,0]],[2,3,1,0]]",
    "[[0,1,0,0],[1,2,1,0]]2,3,1,0]]",
    "[[0,1,0,0],[1,2,1,0],[2,3,1,0]],[[0,1,0,0]]",
]


@pytest.mark.parametrize("edges", EDGE_TEXTS)
def test_edge_rows_load_as_json_does(tmp_path, edges):
    path = tmp_path / "g.json"
    path.write_text(HEAD + edges + ',"meta":{}}')
    assert_loads_as_json_does(path)


COMPACT = HEAD + PATH_ROWS + ',"meta":{}}'

DOCUMENTS = [
    COMPACT,
    COMPACT + "\n \t\r\n",                                # trailing whitespace
    " \n" + COMPACT,
    COMPACT + "x",                                        # trailing garbage
    COMPACT + "{}",
    COMPACT[:-1],                                         # cut short
    COMPACT.replace('"meta":{}', '"meta":{"x":NaN,"y":[1.5,-Infinity]}'),
    COMPACT.replace('"meta":{}', '"meta":{"name":"Grüße ✓ \\u00e9"}'),
    '{"meta":{"name":"Grüße ✓"},' + COMPACT[1:].replace(',"meta":{}', ""),
    '{"meta":"\\"edges\\":[[0,1,0,0]]","edges":' + PATH_ROWS
    + ',"format":"ported-graph","version":1,"n":4,"delta":2}',
    '{"meta":"\\"edges\\":[[0,1,0,0]]"}',
    '{"edges":[[0,1,0,0]],' + COMPACT[1:],                 # a repeated key: the last wins
    COMPACT[:-1] + ',"edges":[[0,1,0,0]]}',
    COMPACT[:-1] + ',"edges":[ [0,1,0,0]]}',
    COMPACT[:-1] + ',"n":2}',
    COMPACT.replace('"version":1', '"version":true'),
    COMPACT.replace('"version":1', '"version":2'),
    COMPACT.replace('"ported-graph"', '"ported-graph2"'),
    COMPACT.replace('"n":4', '"n":-4'),
    COMPACT.replace('"n":4', '"n":4.0'),
    COMPACT.replace(',"delta":2', ""),
    COMPACT.replace('"edges":' + PATH_ROWS + ",", ""),
    COMPACT.replace(",", ", ").replace(":", ": "),
    COMPACT.replace('{"format"', '{ "format"'),
    COMPACT.replace('"format":', '"format" :'),
    COMPACT.replace('"format":', '"form\\u0061t":'),
    COMPACT.replace('"format"', "'format'"),
    COMPACT.replace("}", ",}"),
    "\ufeff" + COMPACT,                                    # a byte-order mark
    "[1,2]",                                              # a top-level list
    "[" + COMPACT + "]",
    "4",
    "{}",
    "",
    "{",
]


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_documents_load_as_json_does(tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(doc, encoding="utf-8")
    assert_loads_as_json_does(path)


def test_fuzzed_files_load_as_json_does(tmp_path):
    """Random byte edits of compact files: every one either takes the array
    path to the same graph or fails as json makes it fail."""
    rng = random.Random(5)
    graphs = [gen_regular_tree(4, 2), gen_cycle(6), random_graph(12, 4, 3)]
    alphabet = "[],-0123456789 .e\"{}:tfn"
    path = tmp_path / "g.json"
    fast = 0
    for _ in range(400):
        text = list(dumps_canonical(rng.choice(graphs).to_json_obj()))
        start = "".join(text).index("[[")
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(start, len(text)) if rng.random() < 0.8 else rng.randrange(len(text))
            op = rng.randrange(3)
            if op == 0:
                del text[i]
            elif op == 1:
                text.insert(i, rng.choice(alphabet))
            else:
                text[i] = rng.choice(alphabet)
        path.write_text("".join(text))
        fast += _read_compact("".join(text)) is not None
        assert_loads_as_json_does(path)
    assert fast > 40   # the array path itself is exercised, not only json


def test_read_compact_decodes_every_value():
    """Random rows of both widths, values of every digit count up to 18 and
    both signs, decode to what json reads."""
    rng = random.Random(3)
    for _ in range(200):
        w = rng.choice((4, 6))
        rows = [[rng.choice((1, -1)) * rng.randrange(10 ** rng.randrange(19)) for _ in range(w)]
                for _ in range(rng.randrange(1, 9))]
        text = '{"edges":' + json.dumps(rows, separators=(",", ":")) + "}"
        got = _read_compact(text)["edges"]
        assert got.dtype == np.int64 and got.tolist() == rows


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(generated_graphs()))
def test_graph_text_is_the_canonical_dump(tmp_path, name):
    g = generated_graphs()[name]
    want = dumps_canonical(g.to_json_obj())
    assert g.dumps() == want
    g.save(tmp_path / "g.json")
    assert (tmp_path / "g.json").read_text() == want


def test_int_rows_render_as_json_dumps():
    rng = random.Random(4)
    for _ in range(200):
        shape = (rng.randrange(5), rng.randrange(1, 7))
        top = 10 ** rng.randrange(1, 19)
        rows = np.array([[rng.randrange(-top, top) for _ in range(shape[1])]
                         for _ in range(shape[0])], np.int64).reshape(shape)
        assert render_int_rows(rows) == json.dumps(rows.tolist(), separators=(",", ":"))


# ---------------------------------------------------------------------------
# node maps
# ---------------------------------------------------------------------------


def assert_writes_as_string_keyed_copy(labels):
    node_map = NodeMap(labels)
    assert node_map.dumps() + "\n" == str_keyed_document(node_map)


@pytest.mark.parametrize("keys", [
    [], [0], [7], [2**31 - 1],
    [9, 10, 99, 100, 1000, 1, 0, 19, 101, 1010, 10000, 100000, 999999, 1000000],
    [10, 1, 100, 2, 20, 200, 3],
    list(range(0, 5000, 7)),
    list(range(1234, 0, -1)),
])
def test_node_map_key_order(keys):
    assert_writes_as_string_keyed_copy({v: v % 3 for v in keys})


def test_node_map_labels_of_every_kind():
    shared = [[0], {"b": 1, "a": [2]}, "x\"é\n", None, 1.5, -7, 2**64 + 1]
    labels = [1, True, 1.0, False, 0, *shared, PointerLabel(2, None),
              HomogeneousLabel(shared[0], PointerLabel(1, 3)), HomogeneousLabel(None, None)]
    rng = random.Random(2)
    assert_writes_as_string_keyed_copy({v: rng.choice(labels) for v in range(300)})


def test_node_map_many_distinct_labels():
    """More than 64 distinct label objects, including equal ints that are
    distinct objects."""
    rng = random.Random(6)
    ints = [int(str(10**6 + rng.randrange(100))) for _ in range(500)]
    assert_writes_as_string_keyed_copy(dict(zip(range(500), ints)))
    pointers = [PointerLabel(d, p) for d in range(10) for p in range(10)]
    assert_writes_as_string_keyed_copy({v: pointers[v % 100] for v in range(0, 3000, 3)})


@pytest.mark.parametrize("seed", range(4))
def test_node_map_random_gaps(seed):
    rng = random.Random(seed)
    population = range(rng.choice([10, 1000, 100000]))
    keys = rng.sample(population, rng.randrange(1, min(300, len(population))))
    assert_writes_as_string_keyed_copy({v: rng.choice([1, 2, [3]]) for v in keys})


@pytest.mark.parametrize("key", [-1, 2**31])
def test_node_map_refuses_keys_that_are_no_node_ids(key):
    with pytest.raises(ValueError, match="node ids"):
        NodeMap({0: 1, key: 2}).dumps()
