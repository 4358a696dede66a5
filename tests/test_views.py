"""A view's ball and encoding are found on their first read, and are the
ones extraction used to build.

``View.nodes`` is the union of the radius-t BFS balls around the center's
node(s); payload access stays restricted to it.  ``View.encoding`` equals
the encoding extraction used to build at once (``oracles``).  A rule that
reads neither makes extraction run no BFS and no unfolding at all.
"""

import pytest

import lclsim.views
from conftest import random_graph, random_tree
from lclsim.engine import Assignment, LocalAlgorithm, run_node_algorithm
from lclsim.errors import InvalidParameterError
from lclsim.graph import bfs_distances, gen_regular_tree
from oracles import eager_view_encoding

GRAPHS = {"tree": random_tree(40, 4, seed=3), "cyclic": random_graph(40, 4, seed=3)}


def centers(g):
    edge = (5, g.adjacent(5)[0])
    return [(0, (0,)), (17, (17,)), (edge, edge)]


@pytest.mark.parametrize("t", range(4))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_view_nodes_are_the_bfs_balls(name, t):
    g = GRAPHS[name]
    a = Assignment.random(g, b=2, seed=t, with_ids=True)
    for center, ends in centers(g):
        view = lclsim.views.extract_view(g, center, t, a)
        ball = set().union(*(bfs_distances(g, u, t) for u in ends))
        assert view.nodes == frozenset(ball)
        for u in range(g.n):
            if u in ball:
                assert view.payload(u) == (a.bits[u], a.ids[u], None)
            else:
                with pytest.raises(KeyError):
                    view.payload(u)


def test_some_views_leave_nodes_out():
    g = GRAPHS["cyclic"]
    assert len(lclsim.views.extract_view(g, 0, 1).nodes) < g.n


def count_bfs(monkeypatch):
    calls = []
    real = lclsim.views.bfs_distances

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lclsim.views, "bfs_distances", counted)
    return calls


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_rule_that_reads_nothing_runs_no_bfs(monkeypatch, name):
    g = GRAPHS[name]
    a = Assignment.random(g, b=1, seed=1, with_ids=True)
    calls = count_bfs(monkeypatch)
    alg = LocalAlgorithm(rounds=2, kind="node", rule=lambda view: 1, name="constant")
    assert run_node_algorithm(g, alg, a) == {v: 1 for v in range(g.n)}
    assert calls == []


def test_rule_that_reads_the_ball_finds_it_once_per_view(monkeypatch):
    g = GRAPHS["cyclic"]
    a = Assignment.random(g, b=1, seed=1, with_ids=True)
    calls = count_bfs(monkeypatch)

    def ball_bits(view):
        return sum(view.bits(u) for u in view.nodes) + sum(view.bits(u) for u in view.nodes)

    alg = LocalAlgorithm(rounds=1, kind="node", rule=ball_bits, name="ball-bits")
    labels = run_node_algorithm(g, alg, a)
    assert len(calls) == g.n
    assert labels[0] == 2 * sum(a.bits[u] for u in bfs_distances(g, 0, 1))


# ---------------------------------------------------------------------------
# lazy encodings
# ---------------------------------------------------------------------------

ENCODING_GRAPHS = {"oriented": gen_regular_tree(4, 3), **GRAPHS}


@pytest.mark.parametrize("with_inputs", [False, True])
@pytest.mark.parametrize("name", sorted(ENCODING_GRAPHS))
def test_lazy_encoding_is_the_eager_one(name, with_inputs):
    """Node and edge centers, oriented and unoriented, with and without
    inputs (``None`` on some nodes) and assignments."""
    g = ENCODING_GRAPHS[name]
    assert (name == "oriented") == bool(g.meta.get("oriented"))
    inputs = {v: None if v % 3 == 0 else v % 2 for v in range(g.n)} if with_inputs else None
    u = g.adjacent(5)[0]
    for t in range(3):
        a = Assignment.random(g, b=2, seed=t, with_ids=True) if t else None
        for center in (0, 7, (5, u), (u, 5), (0, g.adjacent(0)[-1])):
            view = lclsim.views.extract_view(g, center, t, a, inputs)
            assert view.encoding == eager_view_encoding(g, center, t, a, inputs)
            assert view == lclsim.views.extract_view(g, center, t, a, inputs)


def count_unfolds(monkeypatch):
    calls = []
    real = lclsim.views._unfold

    def counted(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(lclsim.views, "_unfold", counted)
    return calls


@pytest.mark.parametrize("name", sorted(ENCODING_GRAPHS))
def test_rule_that_reads_nothing_runs_no_unfold(monkeypatch, name):
    g = ENCODING_GRAPHS[name]
    a = Assignment.random(g, b=1, seed=1, with_ids=True)
    calls = count_unfolds(monkeypatch)
    alg = LocalAlgorithm(rounds=2, kind="node", rule=lambda view: 1, name="constant")
    assert run_node_algorithm(g, alg, a) == {v: 1 for v in range(g.n)}
    assert calls == []


def test_encoding_is_unfolded_once_per_view(monkeypatch):
    g = GRAPHS["cyclic"]
    calls = count_unfolds(monkeypatch)
    alg = LocalAlgorithm(rounds=0, kind="node", rule=lambda view: view.encoding == view.encoding,
                         name="reads-twice")
    assert all(run_node_algorithm(g, alg, None).values())
    assert calls == [(v, None) for v in range(g.n)]


def test_extraction_checks_radius_and_edge_at_once(monkeypatch):
    g = GRAPHS["tree"]
    far = next(v for v in range(1, g.n) if v not in g.adjacent(0))
    calls = count_unfolds(monkeypatch)
    with pytest.raises(InvalidParameterError):
        lclsim.views.extract_view(g, 0, -1)
    with pytest.raises(InvalidParameterError):
        lclsim.views.extract_view(g, (0, far), 1)
    assert calls == []
