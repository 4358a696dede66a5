"""One path coordinate for the oriented tree.

Every frame and edge key of ``lclsim.oriented`` names a position as a
non-backtracking path from one anchor node, and an edge ball is anchored at
its ``+`` endpoint (``edge_ball_paths``).  The oracles here use no path
algebra: they walk each position on a concrete ``gen_regular_tree`` with
``walk_direction_path`` from the node that the position's own name starts
from (``edge_positions`` names a ``-`` side path from the ``-`` endpoint),
and compare the nodes reached.
"""

import random
from functools import lru_cache

import pytest

from lclsim.engine import Assignment
from lclsim.errors import TotalRuleViolation
from lclsim.graph import gen_regular_tree
from lclsim.oriented import (ball_paths, edge_ball_paths, edge_positions,
                             endpoint_completion_frame, incident_edge_frame,
                             neighbor_frame, pack_edge_view, walk_direction_path)

CASES = [(delta, t, s) for delta in (2, 4, 6) for t in range(3) for s in range(t + 1)]


@lru_cache(maxsize=None)
def tree(delta):
    """A tree whose center (node 0) has every ball these frames read."""
    return gen_regular_tree(delta, 6 if delta == 2 else 4)


def walk(g, start, path):
    x = walk_direction_path(g, start, path)
    assert x is not None, (start, path)
    return x


def node_ball(g, v, t):
    return [walk(g, v, p) for p in ball_paths(g.delta, t)]


def edge_ball(g, plus, dim, s):
    """The radius-s ball of the ``dim`` edge at ``plus`` (its ``+`` end),
    each position walked from the endpoint its ``edge_positions`` name
    starts from."""
    minus = walk(g, plus, (2 * (dim - 1),))
    return [walk(g, plus if side == "P" else minus, q)
            for side, q in edge_positions(g.delta, s, dim)]


def frame_by_walking(source_nodes, target_nodes):
    index = {x: i for i, x in enumerate(source_nodes)}
    assert len(index) == len(source_nodes)       # a position names one node
    known = tuple((j, index[x]) for j, x in enumerate(target_nodes) if x in index)
    free = tuple(j for j, x in enumerate(target_nodes) if x not in index)
    return known, free


def as_pair(frame):
    return frame.known, frame.free


@pytest.mark.parametrize("delta,t,s", CASES)
def test_frames_match_walked_balls(delta, t, s):
    g = tree(delta)
    center = node_ball(g, 0, t)
    for d in range(delta):
        nb = walk(g, 0, (d,))
        if s == 0:       # the neighbor frame does not depend on s
            assert as_pair(neighbor_frame(delta, t, d)) == \
                frame_by_walking(center, node_ball(g, nb, t))
        plus = 0 if d % 2 == 0 else nb
        assert as_pair(incident_edge_frame(delta, t, s, d)) == \
            frame_by_walking(center, edge_ball(g, plus, d // 2 + 1, s))
    for dim in range(1, delta // 2 + 1):
        edge = edge_ball(g, 0, dim, s)
        for side, end in (("P", 0), ("M", walk(g, 0, (2 * (dim - 1),)))):
            assert as_pair(endpoint_completion_frame(delta, t, s, dim, side)) == \
                frame_by_walking(edge, node_ball(g, end, t))


@pytest.mark.parametrize("delta,t", [(delta, t) for delta in (2, 4, 6) for t in range(3)])
def test_edge_ball_paths_walk_to_the_named_positions(delta, t):
    g = tree(delta)
    for dim in range(1, delta // 2 + 1):
        paths = edge_ball_paths(delta, t, dim)
        assert len(paths) == len(edge_positions(delta, t, dim))
        assert [walk(g, 0, q) for q in paths] == edge_ball(g, 0, dim, t)


def pack_edge_by_sides(g, u, v, t, b, assignment):
    """``pack_edge_view`` as it walked ``edge_positions`` from both
    endpoints."""
    dim, sign = g.orientation_at(u, v)
    plus, minus = (u, v) if sign > 0 else (v, u)
    key = 0
    for i, (side, q) in enumerate(edge_positions(g.delta, t, dim)):
        x = walk_direction_path(g, plus if side == "P" else minus, q)
        if x is None:
            raise TotalRuleViolation(f"edge {u}-{v} lacks a full radius-{t} ball")
        key |= assignment.bits[x] << (i * b)
    return dim, key


@pytest.mark.parametrize("delta,t,b", [(4, 0, 1), (4, 1, 2), (6, 1, 1), (4, 2, 1)])
def test_pack_edge_view_matches_walking_both_endpoints(delta, t, b):
    g = gen_regular_tree(delta, 3)
    a = Assignment.random(g, b=b, seed=5)
    rng = random.Random(delta * 10 + t)
    for u in rng.sample(range(g.n), 25):
        for v in g.adjacent(u):
            try:
                want = pack_edge_by_sides(g, u, v, t, b, a)
            except TotalRuleViolation as exc:
                with pytest.raises(TotalRuleViolation, match=str(exc)):
                    pack_edge_view(g, u, v, t, b, a)
                continue
            assert pack_edge_view(g, u, v, t, b, a) == want == pack_edge_view(g, v, u, t, b, a)
