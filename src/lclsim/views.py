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

Extraction builds nothing per node.  A view's encoding, which table
algorithms and equality read, and its ball (``View.nodes``), which only
payload access and ball-walking rules read, are each built on first read
and kept; a rule that reads neither, such as a constant, costs one small
object per node.
"""

from __future__ import annotations

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


class View:
    """Canonical radius-t neighborhood of a node or an edge.

    ``encoding`` is a nested hashable structure; encoding equality is the
    indistinguishability test.  The original graph and center are kept so
    procedural rules can walk the ball, restricted to ``nodes`` (the union
    of the radius-t balls around the center's nodes).  ``encoding`` and
    ``nodes`` are each computed on first read and kept, so a rule that
    reads neither pays only for the object.
    """

    __slots__ = ("graph", "center", "radius", "center_kind", "assignment", "inputs",
                 "_orientation", "_encoding", "_nodes")

    def __init__(self, graph, center, radius, center_kind, assignment=None,
                 inputs=None, orientation=None):
        self.graph = graph
        self.center = center            # node id, or (u, v) edge tuple
        self.radius = radius
        self.center_kind = center_kind  # "node" | "edge"
        self.assignment = assignment
        self.inputs = inputs
        self._orientation = orientation  # (dim, sign) of an edge center at its first node
        self._encoding = self._nodes = None

    @property
    def encoding(self):
        if self._encoding is not None:
            return self._encoding
        g, t, a, inputs = self.graph, self.radius, self.assignment, self.inputs
        if self.center_kind == "node":
            enc = ("N", _unfold(g, self.center, None, t, a, inputs))
        else:
            u, v = self.center
            enc_u = _unfold(g, u, None, t, a, inputs)
            enc_v = _unfold(g, v, None, t, a, inputs)
            if self._orientation is not None:
                dim, sign = self._orientation
                first, second = (enc_u, enc_v) if sign > 0 else (enc_v, enc_u)
                head = dim
            else:
                first, second = sorted((enc_u, enc_v), key=repr)
                head = 0
            enc = ("E", head, first, second)
        self._encoding = enc
        return enc

    @property
    def nodes(self):
        if self._nodes is not None:
            return self._nodes
        ends = self.center if self.center_kind == "edge" else (self.center,)
        self._nodes = frozenset().union(
            *(bfs_distances(self.graph, u, self.radius) for u in ends))
        return self._nodes

    def __hash__(self):
        return hash(self.encoding)

    def __eq__(self, other):
        return isinstance(other, View) and self.encoding == other.encoding

    # -- payload access (restricted to the ball) -------------------------

    def payload(self, node):
        if node not in self.nodes:
            raise KeyError(f"node {node} is outside this radius-{self.radius} view")
        return _payload_of(node, self.assignment, self.inputs)

    def bits(self, node):
        return self.payload(node)[0]

    def ident(self, node):
        return self.payload(node)[1]

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
    payloads mix ``None`` with other values.  The radius and an edge's
    endpoints are checked here; the encoding is built on first read.
    """
    if t < 0:
        raise InvalidParameterError("radius must be >= 0")
    if isinstance(center, tuple):
        key = edge_key(*center)
        return View(g, key, t, "edge", assignment, inputs, g.orientation_at(*key))
    return View(g, center, t, "node", assignment, inputs)
