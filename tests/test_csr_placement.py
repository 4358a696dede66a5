"""Differential tests of the counting placement in the CSR builder.

The argsort builder it replaced (an int64 ``(node, port)`` sort key and a
stable argsort) is kept here as the oracle: every graph must have the same
CSR bytes, and every input must be rejected with the same class and
message.
"""

import json
import random
from array import array

import numpy as np
import pytest

from conftest import random_graph, random_tree
from lclsim.cli import main
from lclsim.errors import InvalidInstanceError
from lclsim.graph import (MAX_DELTA, PortedGraph, _count, gen_balanced_tree,
                          gen_cycle, gen_regular_tree, gen_symlower_pair)


def _store(code, values):
    out = array(code, [0]) * len(values)
    np.frombuffer(out, code)[:] = values
    return out


def argsort_from_columns(n, u, v, pu, pv, dim=None, sign=None, delta=None, meta=None,
                         validate=True):
    n = _count(n, "n")
    if n >= 2**31:
        raise InvalidInstanceError("node count exceeds int32 storage")
    node = np.concatenate([u, v])
    if node.size and (node.min() < 0 or node.max() >= n):
        raise InvalidInstanceError(f"edge endpoint outside [0, {n})")
    deg = np.bincount(node, minlength=n)
    delta = int(deg.max(initial=0)) if delta is None else _count(delta, "delta")
    if delta > MAX_DELTA:
        raise InvalidInstanceError(f"delta bounded to {MAX_DELTA}")
    port = np.concatenate([pu, pv])
    if port.size and (port.min() < 0 or port.max() >= max(delta, 1)):
        raise InvalidInstanceError("port out of [0,delta)")
    if dim is None:
        dim = sign = np.zeros(len(u), np.int8)
    if len(dim) and (dim.min() < 0 or dim.max() > MAX_DELTA // 2
                     or sign.min() < -1 or sign.max() > 1):
        raise InvalidInstanceError("orientation label out of range")
    key = node.astype(np.int64)
    key *= MAX_DELTA
    key += port
    order = np.argsort(key, kind="stable")
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(deg, out=indptr[1:])
    g = PortedGraph(n, delta, _store("i", indptr),
                    _store("i", np.concatenate([v, u])[order]),
                    _store("b", port[order]),
                    _store("b", np.concatenate([pv, pu])[order]),
                    _store("b", np.concatenate([dim, dim])[order]),
                    _store("b", np.concatenate([sign, -sign])[order]), meta)
    if validate:
        g.validate()
    return g


def outcome(fn, *args, **kwargs):
    try:
        g = fn(*args, **kwargs)
    except InvalidInstanceError as exc:
        return str(exc)
    return (g.n, g.delta, g.meta) + tuple(a.tobytes() for a in g.csr())


def both(cols, n, delta=None, validate=True):
    got = outcome(PortedGraph._from_columns, n, *cols, delta=delta, validate=validate)
    want = outcome(argsort_from_columns, n, *cols, delta=delta, validate=validate)
    assert got == want
    return got


def shuffled(g, rng):
    """The edge columns of g in a random order, each edge from a random end."""
    u, v, pu, pv, dim, sign = (np.array(c) for c in g.edge_columns())
    flip = np.array([rng.random() < 0.5 for _ in range(u.size)], bool)
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    pu, pv = np.where(flip, pv, pu), np.where(flip, pu, pv)
    sign = np.where(flip, -sign, sign).astype(np.int8)
    perm = np.array(rng.sample(range(u.size), u.size), np.int64)
    return [c[perm] for c in (u, v, pu, pv, dim, sign)]


def test_generators_match_argsort_builder():
    graphs = [gen_regular_tree(4, 5), gen_regular_tree(6, 3), gen_balanced_tree(3, 6),
              gen_balanced_tree(16, 2), gen_cycle(7), *gen_symlower_pair(4, 3)[:2]]
    for g in graphs:
        assert both(g.edge_columns(), g.n, g.delta)[3:] == outcome(lambda: g)[3:]


@pytest.mark.parametrize("seed", range(6))
def test_shuffled_edges_match_argsort_builder(seed):
    rng = random.Random(seed)
    for g in (random_tree(rng.randrange(2, 400), rng.choice([3, 4, 16]), seed),
              random_graph(rng.randrange(10, 400), 4, seed, extra_edges=40),
              gen_regular_tree(4, 3)):
        both(shuffled(g, rng), g.n, g.delta)
        both(shuffled(g, rng), g.n)          # delta from the degrees


def test_chunked_placement_matches(monkeypatch):
    """Many pieces per half of the edge columns give the same CSR."""
    import lclsim.graph as graph
    monkeypatch.setattr(graph, "PLACE_CHUNK", 8)
    rng = random.Random(4)
    for g in (gen_regular_tree(4, 3), random_graph(300, 4, 2, extra_edges=30)):
        cols = shuffled(g, rng)
        got = outcome(PortedGraph._from_columns, g.n, *cols, delta=g.delta)
        assert got == outcome(argsort_from_columns, g.n, *cols, delta=g.delta)


@pytest.mark.parametrize("chunk", [None, 4])
def test_duplicate_ports_rejected_like_argsort_builder(monkeypatch, chunk):
    import lclsim.graph as graph
    if chunk:
        monkeypatch.setattr(graph, "PLACE_CHUNK", chunk)
    rng = random.Random(9)
    for trial in range(60):
        g = random_graph(rng.randrange(5, 60), 4, trial, extra_edges=5)
        cols = shuffled(g, rng)
        # give one half-edge the port of another half-edge at the same node
        i, j = rng.sample(range(cols[0].size), 2)
        ends = [(0, 2), (1, 3)]
        (ni, pi), (nj, pj) = rng.choice(ends), rng.choice(ends)
        cols[ni][i] = cols[nj][j]
        cols[pi][i] = cols[pj][j]
        got = outcome(PortedGraph._from_columns, g.n, *cols, delta=4)
        want = outcome(argsort_from_columns, g.n, *cols, delta=4)
        assert got == want
        assert isinstance(got, str)


def test_duplicate_port_file_exits_config(tmp_path, capsys):
    edges = [[0, 1, 0, 0], [0, 2, 0, 0]]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"format": "ported-graph", "version": 1, "n": 3,
                                "delta": 2, "edges": edges, "meta": {}}))
    assert main(["run", "--algorithm", "solve-pointers", "--graph", str(path),
                 "--out", str(tmp_path / "o.json")]) == 2
    assert "duplicate port at node 0" in capsys.readouterr().err
