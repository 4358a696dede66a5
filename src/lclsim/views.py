"""Canonical radius-t views.

A view is the information a node (or edge) can gather in t synchronous
rounds: the depth-t universal-cover unfolding of walks that never
immediately backtrack, each walk node carrying the underlying node's degree
and payload (bit string, optional identifier, optional input label).
Children are keyed by ``(own port, far port, dim, sign)`` and sorted, so two
views are equal as encodings exactly when the labeled balls are
indistinguishable through the ports (and orientation, when present).

On trees a non-backtracking walk never revisits a node, so the unfolding has
at most one walk node per graph node.

The encoding is built when a view is extracted; its ball (``View.nodes``),
which only payload access and ball-walking rules read, is found on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidParameterError
from .graph import bfs_distances, edge_key


def _payload_of(node, assignment, inputs):
    bits = None
    ident = None
    if assignment is not None:
        bits = assignment.bits.get(node) if assignment.bits is not None else None
        ident = assignment.ids.get(node) if assignment.ids is not None else None
    extra = inputs.get(node) if inputs else None
    return (bits, ident, extra)


def _unfold(g, node, prev, depth, assignment, inputs):
    pay = (g.degree(node),) + _payload_of(node, assignment, inputs)
    if depth == 0:
        return (pay, ())
    kids = []
    for u, mp, up, d, s in g.half_edges(node):
        if u == prev:
            continue
        kids.append(((mp, up, d, s), _unfold(g, u, node, depth - 1, assignment, inputs)))
    kids.sort(key=lambda kv: kv[0])
    return (pay, tuple(kids))


@dataclass(frozen=True)
class View:
    """Canonical radius-t neighborhood of a node or an edge.

    ``encoding`` is a nested hashable structure; encoding equality is the
    indistinguishability test.  The original graph and center are kept so
    procedural rules can walk the ball, restricted to ``nodes`` (found on
    first read: the union of the radius-t balls around the center's nodes).
    """

    graph: object
    center: object            # node id, or (u, v) edge tuple
    radius: int
    center_kind: str          # "node" | "edge"
    encoding: tuple
    assignment: object = None
    inputs: object = None

    def __hash__(self):
        return hash(self.encoding)

    def __eq__(self, other):
        return isinstance(other, View) and self.encoding == other.encoding

    @cached_property
    def nodes(self):
        ends = self.center if self.center_kind == "edge" else (self.center,)
        return frozenset().union(*(bfs_distances(self.graph, u, self.radius) for u in ends))

    # -- payload access (restricted to the ball) -------------------------

    def payload(self, node):
        if node not in self.nodes:
            raise KeyError(f"node {node} is outside this radius-{self.radius} view")
        return _payload_of(node, self.assignment, self.inputs)

    def bits(self, node):
        return self.payload(node)[0]

    def ident(self, node):
        return self.payload(node)[1]

    def input_label(self, node):
        return self.payload(node)[2]

    @property
    def center_node(self):
        if self.center_kind != "node":
            raise InvalidParameterError("not a node view")
        return self.center

    @property
    def endpoints(self):
        if self.center_kind != "edge":
            raise InvalidParameterError("not an edge view")
        return self.center


def extract_view(g, center, t, assignment=None, inputs=None):
    """Canonical View of the radius-t ball around a node or edge.

    Edge views are the union of the two endpoint balls; the endpoint
    encodings are ordered by orientation (the endpoint holding the ``+``
    side first) or, on unoriented graphs, by their ``repr``: a total order
    that does not depend on which endpoint is named first, also where
    payloads mix ``None`` with other values.
    """
    if t < 0:
        raise InvalidParameterError("radius must be >= 0")
    if isinstance(center, tuple):
        u, v = center
        enc_u = _unfold(g, u, None, t, assignment, inputs)
        enc_v = _unfold(g, v, None, t, assignment, inputs)
        orient = g.orientation_at(u, v)
        if orient is not None:
            dim, sign = orient
            first, second = (enc_u, enc_v) if sign > 0 else (enc_v, enc_u)
            head = dim
        else:
            first, second = sorted((enc_u, enc_v), key=repr)
            head = 0
        return View(g, edge_key(u, v), t, "edge", ("E", head, first, second),
                    assignment, inputs)
    enc = _unfold(g, center, None, t, assignment, inputs)
    return View(g, center, t, "node", ("N", enc), assignment, inputs)
