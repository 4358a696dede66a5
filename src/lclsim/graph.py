"""Port-numbered graphs, instance generators and irregularity geometry.

A :class:`PortedGraph` is a simple, undirected, connected graph whose
half-edges carry port numbers (unique per node, in ``[0, delta)``) and,
optionally, a consistent orientation: each oriented edge belongs to a
dimension ``d in 1..k`` and is labeled ``(d, +)`` at one endpoint and
``(d, -)`` at the other.  For ``delta = 4`` the four direction slots
``(1,+), (1,-), (2,+), (2,-)`` play the roles right/left/up/down.

Graphs are immutable after construction; every mutating operation builds a
new graph.  Every graph comes out of one builder
(``PortedGraph._from_columns``), which takes per-edge numpy columns,
range-checks them and orders the half-edges by ``(node, port)`` into CSR.
Storage is compact ``array`` CSR (cheap scalar indexing for the per-node
accessors); ``csr()`` hands out zero-copy numpy views of it, over which
validation, serialization, the generators, the verifiers and the LOCAL
rounds of ``lclsim.algorithms`` work whole-array.
"""

from __future__ import annotations

import heapq
import json
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidInstanceError, InvalidParameterError
from .oriented import ball_paths, walk_direction_path

MAX_GENERATED_NODES = 10**7
MAX_DELTA = 16
PLACE_CHUNK = 1 << 19      # half-edges placed per numpy call in the CSR builder

FORMAT_NAME = "ported-graph"
FORMAT_VERSION = 1


def edge_key(u, v):
    """Canonical dictionary key for the undirected edge {u, v}."""
    return (u, v) if u < v else (v, u)


def _count(x, what):
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 0:
        raise InvalidInstanceError(f"{what} must be a non-negative integer")
    return int(x)


def _reject_if(bad, message, nodes=None):
    """Raise naming the node of the first entry where ``bad`` holds
    (``nodes[i]``, or ``i`` itself when ``nodes`` is None)."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise InvalidInstanceError(message.format(i if nodes is None else nodes[i]))


class PortedGraph:
    """Immutable port-numbered graph, optionally edge-oriented."""

    __slots__ = ("n", "delta", "meta",
                 "_indptr", "_nbr", "_my_port", "_nbr_port", "_dim", "_sign")

    def __init__(self, n, delta, indptr, nbr, my_port, nbr_port, dim, sign, meta=None):
        self.n = n
        self.delta = delta
        self.meta = dict(meta or {})
        self._indptr = indptr
        self._nbr = nbr
        self._my_port = my_port
        self._nbr_port = nbr_port
        self._dim = dim
        self._sign = sign

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, n, edges, delta=None, meta=None, validate=True):
        """Build from ``(u, v, port_u, port_v[, dim, sign])`` rows (all
        rows of one length; a sequence of tuples or an integer array).

        ``dim`` is 1-based; ``dim = 0`` (or 4-tuples) means unoriented.
        ``sign`` is the sign of the edge at ``u``; the edge carries the
        opposite sign at ``v``.
        """
        if not isinstance(edges, np.ndarray):   # numpy would read True as 1
            try:
                has_bool = bool in set(map(type, chain.from_iterable(edges)))
            except TypeError:   # a row that is no sequence, rejected below
                has_bool = False
            if has_bool:
                i, row = next((i, r) for i, r in enumerate(edges) if bool in map(type, r))
                raise InvalidInstanceError(
                    f"edges must be integer rows; row {i} {list(row)} holds a boolean")
        try:
            e = np.asarray(edges) if len(edges) else np.zeros((0, 4), np.int64)
        except ValueError:  # rows of different lengths
            e = None
        if e is None or e.ndim != 2 or e.shape[1] not in (4, 6) or e.dtype.kind != "i":
            raise InvalidInstanceError(
                "edges must be integer rows (u, v, port_u, port_v[, dim, sign])")
        return cls._from_columns(n, *e.T, delta=delta, meta=meta, validate=validate)

    @classmethod
    def _from_columns(cls, n, u, v, pu, pv, dim=None, sign=None,
                      delta=None, meta=None, validate=True):
        """The one CSR assembly behind every graph.

        Takes one entry per edge (``sign`` as seen at ``u``), range-checks
        every value before it is narrowed to int32/int8 storage and places
        each half-edge straight into its CSR slot, ``indptr[node]`` plus
        the rank of its port among the node's ports (a counting sort over
        the fewer than 16 port values, with no sort key or permutation
        array).  A repeated port at a node is rejected whether or not
        ``validate`` is set.  ``delta`` defaults to the maximum degree.
        """
        n = _count(n, "n")
        if n >= 2**31:
            raise InvalidInstanceError("node count exceeds int32 storage")
        m = len(u)
        if m and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise InvalidInstanceError(f"edge endpoint outside [0, {n})")
        storage = [array("i", [0]) * (n + 1)]
        indptr = np.frombuffer(storage[0], "i")
        np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
        indptr[1:] += np.cumsum(np.bincount(v, minlength=n))
        max_deg = int(np.diff(indptr).max(initial=0))
        delta = max_deg if delta is None else _count(delta, "delta")
        if delta > MAX_DELTA:
            raise InvalidInstanceError(f"delta bounded to {MAX_DELTA}")
        if m and (min(pu.min(), pv.min()) < 0 or max(pu.max(), pv.max()) >= max(delta, 1)):
            raise InvalidInstanceError("port out of [0,delta)")
        if dim is None:
            dim = sign = np.zeros(m, np.int8)
        if m and (dim.min() < 0 or dim.max() > MAX_DELTA // 2
                  or sign.min() < -1 or sign.max() > 1
                  or ((dim == 0) != (sign == 0)).any()):   # oriented iff signed
            raise InvalidInstanceError("orientation label out of range")
        storage += [array(code, [0]) * (2 * m) for code in "ibbbb"]
        halves = ((u, v, pu, pv, dim, sign), (v, u, pv, pu, dim, -sign))
        dup = _place_half_edges(indptr, halves,
                                [np.frombuffer(a, a.typecode) for a in storage[1:]])
        if dup is not None:
            raise InvalidInstanceError(f"duplicate port at node {dup}")
        g = cls(n, delta, *storage, meta)
        if validate:
            g.validate()
        return g

    # -- accessors ------------------------------------------------------

    def csr(self):
        """Zero-copy numpy views ``(indptr, nbr, my_port, nbr_port, dim,
        sign)`` of the storage; half-edges are ordered by (node, port)."""
        return tuple(np.frombuffer(a, a.typecode) for a in (
            self._indptr, self._nbr, self._my_port, self._nbr_port,
            self._dim, self._sign))

    def edge_columns(self):
        """``(u, v, port_u, port_v, dim, sign)`` arrays with one entry per
        edge, ``u < v``, ordered by ``(u, port_u)``; ``sign`` as seen at u."""
        indptr, nbr, my_port, nbr_port, dim, sign = self.csr()
        src = slot_owners(indptr)
        keep = src < nbr
        return (src[keep], nbr[keep], my_port[keep], nbr_port[keep],
                dim[keep], sign[keep])

    def degree(self, v):
        return self._indptr[v + 1] - self._indptr[v]

    def adjacent(self, v):
        """Neighbor ids in own-port order (no port data; cheap)."""
        return self._nbr[self._indptr[v]:self._indptr[v + 1]].tolist()

    def neighbors(self, v):
        """List of ``(u, my_port, u_port)`` in increasing own-port order."""
        lo, hi = self._indptr[v], self._indptr[v + 1]
        return [(self._nbr[i], self._my_port[i], self._nbr_port[i])
                for i in range(lo, hi)]

    def half_edges(self, v):
        """List of ``(u, my_port, u_port, dim, sign)``; sign as seen at v."""
        lo, hi = self._indptr[v], self._indptr[v + 1]
        return [(self._nbr[i], self._my_port[i], self._nbr_port[i],
                 self._dim[i], self._sign[i]) for i in range(lo, hi)]

    def neighbor_by_port(self, v, port):
        for i in range(self._indptr[v], self._indptr[v + 1]):
            if self._my_port[i] == port:
                return self._nbr[i]
        raise InvalidParameterError(f"node {v} has no port {port}")

    def port_toward(self, v, u):
        for i in range(self._indptr[v], self._indptr[v + 1]):
            if self._nbr[i] == u:
                return self._my_port[i]
        raise InvalidParameterError(f"{u} is not adjacent to {v}")

    @property
    def oriented(self):
        return bool(self.meta.get("oriented")) or bool(np.frombuffer(self._dim, "b").any())

    def orientation_at(self, v, u):
        """``(dim, sign)`` of edge {v,u} as seen at v, or ``None``."""
        for i in range(self._indptr[v], self._indptr[v + 1]):
            if self._nbr[i] == u:
                if self._dim[i] == 0:
                    return None
                return (self._dim[i], self._sign[i])
        raise InvalidParameterError(f"{u} is not adjacent to {v}")

    def neighbor_by_direction(self, v, dim, sign):
        """Neighbor across the ``(dim, sign)`` edge of v, or ``None``."""
        for i in range(self._indptr[v], self._indptr[v + 1]):
            if self._dim[i] == dim and self._sign[i] == sign:
                return self._nbr[i]
        return None

    def edges(self):
        for v in range(self.n):
            for i in range(self._indptr[v], self._indptr[v + 1]):
                if v < self._nbr[i]:
                    yield (v, self._nbr[i])

    def edge_count(self):
        return self._indptr[self.n] // 2


    # -- invariants -----------------------------------------------------

    def validate(self):
        """Whole-array check of the structural invariants; raises
        :class:`InvalidInstanceError` naming the first violation."""
        indptr, nbr, port, nbr_port, dim, sign = self.csr()
        deg = np.diff(indptr)
        src = slot_owners(indptr)
        _reject_if((port < 0) | (port >= max(self.delta, 1)),
                   "port out of [0,delta) at node {}", src)
        # ports ascend within a node, so a repeat sits next to its twin
        _reject_if((src[1:] == src[:-1]) & (port[1:] == port[:-1]),
                   "duplicate port at node {}", src[1:])
        _reject_if(deg > self.delta, "degree of {} exceeds delta")
        _reject_if(nbr == src, "self-loop at {}", src)
        pairs = np.sort(src.astype(np.int64) * max(self.n, 1) + nbr)
        _reject_if(pairs[1:] == pairs[:-1], "parallel edges at {}",
                   pairs[1:] // max(self.n, 1))
        od = dim != 0
        dirs = np.sort((src[od].astype(np.int64) << 16)
                       | (dim[od].astype(np.int64) << 8)
                       | (sign[od].astype(np.int64) & 0xff))
        _reject_if(dirs[1:] == dirs[:-1], "node {} has two edges of one direction",
                   dirs[1:] >> 16)
        # the reverse of half-edge (v, port p) -> (u, port q) is u's port q
        if src.size:
            key = src.astype(np.int64) * MAX_DELTA + port
            back = np.minimum(np.searchsorted(
                key, nbr.astype(np.int64) * MAX_DELTA + nbr_port), key.size - 1)
            _reject_if((src[back] != nbr) | (port[back] != nbr_port)
                       | (nbr[back] != src) | (nbr_port[back] != port),
                       "edge missing or port mismatch at node {}", src)
            _reject_if((dim[back] != dim) | ((dim != 0) & (sign[back] != -sign)),
                       "orientation mismatch at node {}", src)
        if self.n > 0 and (bfs_levels(self, 0, None) < 0).any():
            raise InvalidInstanceError("graph is not connected")
        return True

    # -- serialization --------------------------------------------------

    def _edge_rows(self):
        """The file's edge rows: one per edge, lexsorted."""
        rows = np.stack(self.edge_columns(), axis=1)
        return rows[np.lexsort(rows.T[::-1])]

    def to_json_obj(self):
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "n": self.n,
            "delta": self.delta,
            "edges": self._edge_rows().tolist(),
            "meta": self.meta,
        }

    def dumps(self):
        """The graph file's text, ``dumps_canonical(self.to_json_obj())``,
        with the edge rows rendered straight from their array."""
        doc = dumps_canonical({"delta": self.delta, "edges": 0, "format": FORMAT_NAME,
                               "meta": self.meta, "n": self.n, "version": FORMAT_VERSION})
        head, tail = doc.split('"edges":0', 1)   # only the number delta comes before it
        return f'{head}"edges":{render_int_rows(self._edge_rows())}{tail}'

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path):
        """Read a graph file.  Compact edge rows (as ``save`` writes them)
        are decoded straight into an int64 array; any other text goes
        through ``json.loads``, which also names the fault of a malformed
        file, and its rows go to ``from_edges`` as they are."""
        with open(path) as fh:
            text = fh.read()
        obj = _read_compact(text)
        if obj is None:
            obj = json.loads(text)
        if not isinstance(obj, dict):
            raise InvalidInstanceError(f"{path}: not a JSON object")
        if obj.get("format") != FORMAT_NAME or obj.get("version") != FORMAT_VERSION:
            raise InvalidParameterError(f"not a {FORMAT_NAME} v{FORMAT_VERSION} file")
        return cls.from_edges(obj["n"], obj["edges"], delta=obj["delta"],
                              meta=obj.get("meta"))


def dumps_canonical(obj):
    """Canonical JSON used wherever a byte-stable re-save is promised."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _place_half_edges(indptr, halves, out):
    """Counting placement of half-edges into CSR slots.

    ``halves`` holds two ``(node, neighbor, port, neighbor port, dim,
    sign)`` column tuples, the edges seen from each end; ``out`` the
    ``(nbr, my_port, nbr_port, dim, sign)`` storage.  Each node's ports
    (below 16) are first OR-ed into one bit mask; the slot of a half-edge
    is then ``indptr[node]`` plus the number of the node's ports below its
    own.  Pieces of ``PLACE_CHUNK`` half-edges bound the temporaries.
    Returns the first node with a repeated port (fewer distinct ports than
    half-edges), or None.
    """
    pieces = [[col[lo:lo + PLACE_CHUNK] for col in half] for half in halves
              for lo in range(0, half[0].size, PLACE_CHUNK)]
    one = np.uint16(1)
    ports = np.zeros(indptr.size - 1, np.uint16)
    for x, _, port, *_ in pieces:
        np.bitwise_or.at(ports, x, one << port.astype(np.uint16))
    for lo in range(0, ports.size, PLACE_CHUNK):
        short = np.flatnonzero(np.bitwise_count(ports[lo:lo + PLACE_CHUNK])
                               != np.diff(indptr[lo:lo + PLACE_CHUNK + 1]))
        if short.size:
            return lo + int(short[0])
    for x, *cols in pieces:
        below = (one << cols[1].astype(np.uint16)) - one
        slot = indptr[x] + np.bitwise_count(ports[x] & below)
        for dst, src in zip(out, cols):
            dst[slot] = src
    return None


def slot_owners(indptr):
    """The node of each CSR slot (half-edge), in slot order."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int32), np.diff(indptr))


def reduce_slots(indptr, ufunc, values, empty):
    """``ufunc`` reduced over each node's CSR slots of ``values`` (one entry
    per half-edge), one LOCAL round of gathering; ``empty`` (a scalar or a
    node array) at nodes without slots."""
    has = np.diff(indptr) > 0
    if has.all() and values.size:
        return ufunc.reduceat(values, indptr[:-1])
    out = np.array(np.broadcast_to(empty, has.shape))
    if values.size:
        out[has] = ufunc.reduceat(values, indptr[:-1][has])
    return out


def frontier_slots(indptr, nodes):
    """CSR slot indices of the half-edges of ``nodes``, concatenated in
    the order of ``nodes`` (each node's slots in port order)."""
    lo = indptr[nodes]
    cnt = indptr[nodes + 1] - lo
    return np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())


# ---------------------------------------------------------------------------
# Decimal text as whole arrays
# ---------------------------------------------------------------------------

POW10 = 10 ** np.arange(19, dtype=np.int64)
MAX_ROW_DIGITS = 18        # digits of a compact-row value; every such value fits int64

_JSON = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match
_ROW_BRACKETS = np.array([91, 93], np.uint8)   # each row's '[' and ']'


def decimal_digits(a):
    """The number of decimal digits of each non-negative int64 in ``a``."""
    return np.searchsorted(POW10[1:], a, side="right") + 1


def digit_columns(a, width):
    """The ``width`` low decimal digits of each non-negative integer in
    ``a`` as ASCII bytes, most significant first, along a new last axis
    (computed one contiguous digit plane at a time)."""
    out = np.empty((width,) + a.shape, np.uint8)
    for k in range(width - 1, -1, -1):
        q = a // 10
        out[k] = a - q * 10
        a = q
    out += 48
    return np.moveaxis(out, 0, -1)


def right_aligned(nd, width):
    """Masks of the last ``nd`` of ``width`` slots, along a new last axis."""
    return np.arange(width) >= width - nd[..., None]


def render_int_rows(rows):
    """``json.dumps(rows.tolist(), separators=(",", ":"))`` of an integer
    ``(m, w)`` array, made without a Python object per value.

    Each row becomes a fixed-width byte row: per column a lead byte ('['
    or ','), a sign and the column's widest digit count of slots, the
    digits right-aligned; then "],".  One boolean mask keeps the bytes of
    the text, in row-major order.
    """
    mag = np.abs(rows)
    nd = decimal_digits(mag)
    widths = nd.max(axis=0, initial=1).tolist()
    field = np.empty((len(rows), sum(widths) + 2 * len(widths) + 2), np.uint8)
    keep = np.ones(field.shape, bool)
    at = 0
    for j, width in enumerate(widths):
        field[:, at:at + 2] = np.frombuffer(b",-" if j else b"[-", np.uint8)
        keep[:, at + 1] = rows[:, j] < 0
        field[:, at + 2:at + 2 + width] = digit_columns(mag[:, j], width)
        keep[:, at + 2:at + 2 + width] = right_aligned(nd[:, j], width)
        at += 2 + width
    field[:, at:] = np.frombuffer(b"],", np.uint8)
    return f"[{str(field[keep][:-1], 'ascii')}]"


def _read_compact(text):
    """The graph document in ``text`` as a dict whose "edges" is an int64
    array, when its rows are compact (see ``_compact_rows``); None for any
    other text, which ``json.loads`` then reads (and names the fault of).

    The top-level object is walked as ``json`` walks it: keys by
    ``scanstring``, every other value by the decoder's ``scan_once``, a
    repeated key keeping its last value.
    """
    try:
        i = _SPACE(text, 0).end()
        if text[i:i + 1] != "{":
            return None
        i = _SPACE(text, i + 1).end()
        obj = {}
        while text[i:i + 1] == '"':
            key, i = json.decoder.scanstring(text, i + 1)
            i = _SPACE(text, i).end()
            if text[i:i + 1] != ":":
                return None
            i = _SPACE(text, i + 1).end()
            value = _compact_rows(text, i) if key == "edges" else _JSON.scan_once(text, i)
            if value is None:
                return None
            obj[key], i = value
            i = _SPACE(text, i).end()
            if text[i:i + 1] == "}":
                return obj if _SPACE(text, i + 1).end() == len(text) else None
            if text[i:i + 1] != ",":
                return None
            i = _SPACE(text, i + 1).end()
        return None
    except (ValueError, StopIteration):   # a malformed value
        return None


def _compact_rows(text, start):
    """``(rows, end)`` for the JSON value at ``text[start:]`` when it is
    compact integer rows of one width, 4 or 6: ``[[n,...],[n,...]]`` with no
    whitespace, each n matching ``-?(0|[1-9][0-9]*)`` with at most
    ``MAX_ROW_DIGITS`` digits; ``rows`` is their int64 ``(m, w)`` array.
    None for any other value.

    ``_row_bytes`` checks the bytes; then each row's brackets must sit
    where its w-1 commas put them, and each number gets its sign and digit
    count.  Every number's last digit is gathered at once, then each column
    adds the digits of its wider numbers.  The offsets are int32, so no
    temporary outgrows the value's bytes or the int64 rows.
    """
    stop = text.find("]]", start) + 2
    w = text.count(",", start, text.find("]", start)) + 1
    if (stop <= start or stop - start >= 2**31   # offsets fit int32
            or not text.startswith("[[", start) or w not in (4, 6)):
        return None
    b = np.frombuffer(text[start:stop].encode(), np.uint8)
    seps = _row_bytes(b, w)
    if seps is None:
        return None
    # after the outer '[' each row is '[' n (',' n)^(w-1) ']' and a ',' (the
    # last row: the outer ']'); the bracket counts leave only commas elsewhere
    at = seps[1:].reshape(-1, w + 2)
    before, end = at[:, :w], at[:, 1:w + 1]   # the separators around each number
    neg = b[before + 1] == 45
    size = end - before - 1
    size -= neg
    widest = size.max(axis=0, initial=1).tolist()
    if (not (b[at[:, ::w]] == _ROW_BRACKETS).all() or size.min(initial=1) < 1
            or max(widest) > MAX_ROW_DIGITS
            or int(size.sum()) + np.count_nonzero(neg) != b.size - seps.size):  # no stray digit
        return None
    digit = b - 48
    digit *= digit < 10                   # 0 at '-' and at the separators
    rows = digit[end - 1].astype(np.int64)
    for col, lo, hi, digits in zip(rows.T, before.T, end.T, widest):
        for k in range(1, digits):        # a shorter number reads its separator's 0
            col += digit[np.maximum(hi - (k + 1), lo)] * POW10[k]
    np.negative(rows, out=rows, where=neg)
    return rows, stop


def _row_bytes(b, w):
    """Offsets (int32) of the brackets and commas in the bytes ``b`` of
    compact rows of width ``w``, or None unless every byte is one of
    ``[],-0123456789``, they come as m rows' worth, every '-' follows a '['
    or ',' and leads a digit, and no number starts with '0' and another
    digit.  At most two byte masks live next to the offsets."""
    is_digit, minus, lead = b - 48 < 10, b == 45, b == 91
    rows = np.count_nonzero(lead) - 1
    lead |= b == 44                       # the bytes a number may follow
    signs = np.count_nonzero(minus)
    if (np.count_nonzero(minus[1:-1] & lead[:-2] & is_digit[2:]) != signs
            or (is_digit[2:] & (b[1:-1] == 48) & ~is_digit[:-2]).any()):
        return None
    numbers = np.count_nonzero(is_digit) + signs
    del is_digit, minus
    closes = b == 93
    lead |= closes
    if np.count_nonzero(closes) != rows + 1:
        return None
    del closes
    seps = np.flatnonzero(lead).astype(np.int32)
    if seps.size != rows * (w + 2) + 1 or numbers + seps.size != b.size:
        return None
    return seps


# ---------------------------------------------------------------------------
# BFS helpers
# ---------------------------------------------------------------------------


def bfs_distances(g, src, radius=None):
    """``{node: dist}`` for the ball of the given radius (whole graph if None)."""
    dist = {src: 0}
    q = deque([src])
    while q:
        v = q.popleft()
        if radius is not None and dist[v] >= radius:
            continue
        dv = dist[v]
        for u in g.adjacent(v):
            if u not in dist:
                dist[u] = dv + 1
                q.append(u)
    return dist


def bfs_levels(g, source, radius):
    """Every node's distance from ``source`` as an int32 array, -1 where the
    node is unreached or farther than ``radius`` (None: the whole graph).

    A level-synchronous frontier BFS over ``g.csr()``: each level gathers
    the frontier's neighbors, keeps the unreached ones, and deduplicates
    them by a sort and a diff (``np.unique`` would pull in ``numpy.ma``).
    """
    indptr, nbr = g.csr()[:2]
    dist = np.full(g.n, -1, np.int32)
    dist[source] = 0
    frontier = np.array([source], np.int64)
    level = 0
    while frontier.size and (radius is None or level < radius):
        level += 1
        nb = nbr[frontier_slots(indptr, frontier)]
        nb = np.sort(nb[dist[nb] < 0])
        frontier = nb[np.diff(nb, prepend=-1) != 0]
        dist[frontier] = level
    return dist


def ball_is_leaf_free(g, v, radius):
    deg = np.diff(g.csr()[0])
    return bool((deg[bfs_levels(g, v, radius) >= 0] > 1).all())


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _check_size(n):
    if n > MAX_GENERATED_NODES:
        raise InvalidParameterError(f"generator bounded to {MAX_GENERATED_NODES} nodes")


def _balanced_size(delta, radius):
    n = 1
    shell = delta
    for _ in range(radius):
        n += shell
        shell *= delta - 1
    return n


def _balanced_tree_columns(delta, radius, up_slot):
    """Edge columns ``(parent, child, parent_slot, child_slot)`` of the
    balanced tree of the given depth whose root has ``delta`` children and
    every other interior node ``delta - 1``, built level by level with node
    ids in breadth-first order.

    A child hanging from its parent's slot ``s`` reaches the parent through
    its own slot ``up_slot(s)``; every interior node hands its other slots
    to its children in increasing order.
    """
    if delta > MAX_DELTA:
        raise InvalidParameterError(f"delta bounded to {MAX_DELTA}")
    if radius < 1:
        raise InvalidParameterError("radius must be >= 1")
    _check_size(_balanced_size(delta, radius))
    slots = np.arange(delta, dtype=np.int8)
    parents, parent_slots = [np.zeros(delta, np.int32)], [slots]
    first = 1
    for _ in range(1, radius):
        up = up_slot(parent_slots[-1])
        free = np.tile(slots, (up.size, 1))
        parent_slots.append(free[free != up[:, None]])
        parents.append(np.repeat(np.arange(first, first + up.size, dtype=np.int32),
                                 delta - 1))
        first += up.size
    ps = np.concatenate(parent_slots)
    return (np.concatenate(parents), np.arange(1, ps.size + 1, dtype=np.int32),
            ps, up_slot(ps))


def gen_regular_tree(delta, radius):
    """Balanced delta-regular tree of the given depth with a consistent
    orientation over ``delta/2`` dimensions; ports equal direction slots.

    Node 0 is the designated center.  Interior nodes have one ``(d,+)``
    and one ``(d,-)`` edge per dimension; depth-``radius`` nodes are leaves.
    Node ids follow breadth-first order, so the construction vectorizes
    level by level (trees in the millions of nodes stay cheap).
    """
    if delta <= 0 or delta % 2 != 0:
        raise InvalidParameterError("delta must be a positive even integer")
    parent, child, slot, up = _balanced_tree_columns(delta, radius, lambda s: s ^ 1)
    return PortedGraph._from_columns(
        child.size + 1, parent, child, slot, up, slot // 2 + 1, 1 - 2 * (slot % 2),
        delta=delta, meta={"center": 0, "oriented": True}, validate=False)


def gen_balanced_tree(delta, radius, meta=None):
    """Unoriented balanced delta-regular tree (any delta >= 2); parent at
    port 0 for non-root nodes, children in increasing port order."""
    if delta < 2:
        raise InvalidParameterError("delta must be >= 2")
    parent, child, slot, up = _balanced_tree_columns(delta, radius, np.zeros_like)
    return PortedGraph._from_columns(child.size + 1, parent, child, slot, up,
                                     delta=delta, meta=dict(meta or {}, center=0),
                                     validate=False)


def gen_cycle(n):
    """n-cycle with ports 0/1 per node (port 0 toward the successor)."""
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    _check_size(n)
    v = np.arange(n, dtype=np.int32)
    return PortedGraph._from_columns(n, v, (v + 1) % n, np.zeros(n, np.int8),
                                     np.ones(n, np.int8), delta=2, validate=False)


def gen_symlower_pair(delta, r):
    """Matched tree pair whose center views agree up to radius r - 2.

    ``T`` is the balanced delta-regular tree with the center at distance
    ``r`` from every leaf.  ``T'`` agrees with ``T`` except that every node
    at distance ``r - 1`` loses its largest-port leaf child, which is
    re-attached (at port 1) under that node's smallest-port remaining leaf.
    Node and edge counts match.
    """
    if delta < 3:
        raise InvalidParameterError("delta must be >= 3")
    if r < 2:
        raise InvalidParameterError("r must be >= 2")
    t_graph = gen_balanced_tree(delta, r)
    u, v, pu, pv, _, _ = t_graph.edge_columns()
    # the edges to the leaves come last, delta - 1 per distance-(r-1) node,
    # in port order
    leaves = v[-delta * (delta - 1) ** (r - 1):].reshape(-1, delta - 1)
    moved, host = leaves[:, -1], leaves[:, 0]
    keep = ~np.isin(v, moved)
    t_prime = PortedGraph._from_columns(
        t_graph.n, np.concatenate([u[keep], host]), np.concatenate([v[keep], moved]),
        np.concatenate([pu[keep], np.ones(moved.size, np.int8)]),
        np.concatenate([pv[keep], np.zeros(moved.size, np.int8)]),
        delta=delta, meta={"center": 0})
    return t_graph, t_prime, 0


# ---------------------------------------------------------------------------
# Irregularities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Irregularity:
    """A low-degree node or an all-full-degree cycle, with its effective
    distance from the query node (cycle distance adds the detour term
    ell(C) = |C|/2 for even, floor(|C|/2)+1 for odd cycles)."""

    kind: str                 # "low-degree" | "cycle"
    location: object          # node id, or canonical tuple of cycle nodes
    effective_distance: int


def cycle_detour(length):
    if length % 2 == 0:
        return length // 2
    return length // 2 + 1


def canonical_cycle(nodes):
    """Rotation/reflection-canonical tuple of a cycle's distinct nodes (the
    smallest of all its rotations and reflections): it starts at the
    smallest node and continues toward that node's smaller cycle neighbor."""
    seq = list(nodes)
    i = seq.index(min(seq))
    seq = seq[i:] + seq[:i]
    if len(seq) > 2 and seq[-1] < seq[1]:
        seq[1:] = seq[:0:-1]
    return tuple(seq)


def _simple_cycles(adj, lo, hi, anchors):
    """Simple cycles of ``lo..hi`` nodes through ``anchors`` (a set) in the
    graph with adjacency lists ``adj``, as node lists.

    Each cycle comes out once: from its smallest anchor, in the direction
    whose second node is smaller than its last.  A path only steps to nodes
    whose BFS distance back to the anchor fits in the length left, so the
    search stays within the cycles that can still close.
    """
    lo = max(lo, 3)
    out = []
    for s in sorted(anchors):
        # distances from s over the nodes a cycle anchored at s may use
        dist = {s: 0}
        frontier = [s]
        for d in range(1, hi // 2 + 1):
            nxt = []
            for x in frontier:
                for u in adj[x]:
                    if u not in dist and (u > s or u not in anchors):
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        path = [s]
        on_path = {s}
        stack = [iter(adj[s])]
        left = hi - 1             # edges the cycle has left after one more step
        while stack:
            for u in stack[-1]:
                if u == s:
                    if len(path) >= lo and path[1] < path[-1]:
                        out.append(path.copy())
                elif dist.get(u, hi) <= left and u not in on_path:
                    path.append(u)
                    on_path.add(u)
                    stack.append(iter(adj[u]))
                    left -= 1
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
                left += 1
    return out


class CycleIndex:
    """Every node's best full-degree cycle, from one cycle enumeration
    shared by all nodes and all radii.

    The key of a cycle C at node v is ``(effective distance, max identifier,
    sorted identifiers, canonical tuple)``, the effective distance being
    ``dist(v, C) + cycle_detour(|C|)``, the distance measured over
    full-degree nodes only; low-degree nodes get no cycle.  ``best[v]`` is
    the smallest key found so far, as ``(effective distance, (max id,
    sorted ids, canonical tuple))``, kept by a multi-source BFS from the
    nodes of the indexed cycles.

    ``require(caps)`` makes ``best[v]`` exact among the cycles of effective
    distance <= ``caps[v]``.  It enumerates cycles by increasing length, and
    only where one can still win: a cycle of length L matters at v only if
    it passes within ``min(caps[v], best so far) - cycle_detour(L)`` of v.
    A length that yields no new cycle doubles the stride to the next one,
    so a long girth costs logarithmically many passes.
    """

    def __init__(self, g, ids):
        self.ids = ids
        self.full = [g.degree(v) == g.delta for v in range(g.n)]
        self.adj = [[u for u in g.adjacent(v) if self.full[u]] if self.full[v] else []
                    for v in range(g.n)]
        self.best = [None] * g.n
        self.keys = {}            # canonical tuple -> cycle key
        self.reach = [2] * g.n    # every cycle of <= reach[v] nodes through v is indexed
        self.cap = [-1] * g.n     # best[v] is exact up to this effective distance
        self.passes = 0           # enumeration passes made

    def require(self, caps):
        """Make ``best[v]`` exact among the cycles of effective distance
        <= ``cap`` for every ``v: cap`` in the mapping ``caps``."""
        caps = {v: c for v, c in caps.items() if c > self.cap[v]}
        longest = sum(self.full)
        length, stride = 3, 1
        while caps and length <= longest:
            budget = {}
            for v, c in caps.items():
                b = self.best[v]
                left = (c if b is None else min(c, b[0])) - cycle_detour(length)
                if left >= 0:
                    budget[v] = left
            if not budget:
                break
            hi = min(length + stride - 1, longest)
            anchors = {s for s in self._near(budget) if self.reach[s] < hi}
            new = self._add(_simple_cycles(self.adj, length, hi, anchors))
            for s in anchors:
                self.reach[s] = hi
            self.passes += 1
            stride = 1 if new else 2 * stride
            length = hi + 1
        for v, c in caps.items():
            self.cap[v] = c

    def _near(self, budget):
        """Full-degree nodes within ``budget[v]`` steps of some node v."""
        levels = [[] for _ in range(max(budget.values()) + 1)]
        for v, b in budget.items():
            levels[b].append(v)
        seen = set()
        for b in range(len(levels) - 1, -1, -1):
            for v in levels[b]:
                if v not in seen:
                    seen.add(v)
                    if b:
                        levels[b - 1].extend(self.adj[v])
        return {v for v in seen if self.full[v]}

    def _add(self, cycles):
        """Index the new cycles among ``cycles`` and propagate their keys;
        returns how many were new."""
        best, adj = self.best, self.adj
        heap = []
        before = len(self.keys)
        for nodes in cycles:
            canon = canonical_cycle(nodes)
            if canon in self.keys:
                continue
            sorted_ids = tuple(sorted(self.ids[u] for u in nodes))
            key = self.keys[canon] = (sorted_ids[-1], sorted_ids, canon)
            entry = (cycle_detour(len(nodes)), key)
            for u in nodes:
                if best[u] is None or entry < best[u]:
                    best[u] = entry
                    heap.append(entry + (u,))
        heapq.heapify(heap)
        while heap:
            eff, key, x = heapq.heappop(heap)
            if best[x] != (eff, key):
                continue
            entry = (eff + 1, key)
            for w in adj[x]:
                if best[w] is None or entry < best[w]:
                    best[w] = entry
                    heapq.heappush(heap, entry + (w,))
        return len(self.keys) - before


def _cycles_in_ball(g, dist, r):
    """Canonical tuples of the full-degree cycles inside the radius-r ball
    with BFS distances ``dist`` (a longer cycle cannot lie inside it)."""
    m = sum(1 for v in dist for u in g.adjacent(v) if u in dist and u < v)
    if m < len(dist):  # the ball is a tree
        return ()
    full = {u for u in dist if g.degree(u) == g.delta}
    adj = {u: [w for w in g.adjacent(u) if w in full] for u in full}
    return [canonical_cycle(c) for c in _simple_cycles(adj, 3, 2 * r, full)]


def ball_irregularities(g, v, r, ids=None):
    """Best low-degree irregularity and best cycle irregularity within
    effective distance r of v, as ``(key, Irregularity)`` pairs (or None).

    Low-degree keys order by (distance, degree, identifier); cycle keys by
    (effective distance, maximum identifier, identifier sequence), and the
    canonical tuple breaks what ties remain.  The cycles come from a search
    of the ball.
    """
    if ids is None:
        ids = range(g.n)
    dist = bfs_distances(g, v, r)
    low = None
    for u, d in dist.items():
        if g.degree(u) < g.delta:
            key = (d, g.degree(u), ids[u])
            if low is None or key < low[0]:
                low = (key, Irregularity("low-degree", u, d))
    # a qualifying cycle lies entirely inside the ball: its farthest node is
    # at most min-dist + floor(|C|/2) <= r from v
    candidates = []
    for cyc in _cycles_in_ball(g, dist, r):
        eff = min(dist[u] for u in cyc) + cycle_detour(len(cyc))
        if eff <= r:
            ids_in = sorted(ids[u] for u in cyc)
            candidates.append(((eff, ids_in[-1], tuple(ids_in)), cyc))
    if not candidates:
        return low, None
    key, cyc = min(candidates)
    return low, (key, Irregularity("cycle", cyc, key[0]))


# ---------------------------------------------------------------------------
# Irregularity planting
# ---------------------------------------------------------------------------


def plant_irregularities(base, spec):
    """Rebuild ``base`` (a tree with designated center and uniform leaf
    depth) so that each requested irregularity exists at the stated
    effective distance from the center.

    Spec entries: ``("low-degree", D)`` removes one child subtree under a
    depth-D node; ``("cycle", D)`` or ``("cycle", D, length)`` splices a
    cycle of full-degree nodes whose effective distance from the center is
    D, padding ring nodes with fresh subtrees down to the base leaf depth.
    Each entry works at the first node of the target depth (by id) with a
    child left and cuts its last children (in port order).  Unrealizable
    requests raise instead of truncating, among them a later cut that
    removes an earlier cycle's anchor.

    The result numbers the center 0, the kept base nodes next (by id) and
    the fresh nodes last (in creation order); its edges are the sorted
    ``(u, v)`` pairs, ``u < v``, and a node's port is its rank among its
    pairs.
    """
    center = base.meta.get("center", 0)
    if not spec:
        return PortedGraph._from_columns(base.n, *base.edge_columns(),
                                         delta=base.delta, meta=base.meta)

    dist = bfs_levels(base, center, None)
    depth = int(dist.max())
    cut = np.full(base.n, -1)         # index of the entry that removed a node
    anchors = []                      # (anchor node, entry index) per cycle
    new_u, new_v = [], []             # fresh edges, as node-id arrays
    fresh = base.n                    # next fresh node id
    for i, entry in enumerate(spec):
        kind = entry[0]
        if kind == "low-degree":
            at, cuts = entry[1], 1
            if at < 0 or at >= depth:
                raise InvalidParameterError(f"low-degree distance {at} not realizable")
        elif kind == "cycle":
            length = entry[2] if len(entry) > 2 else 4
            if length < 3:
                raise InvalidParameterError("cycle length must be >= 3")
            at, cuts = entry[1] - cycle_detour(length), 2
            if at < 0:
                raise InvalidParameterError(
                    f"length-{length} cycle cannot sit at effective distance {entry[1]}")
        else:
            raise InvalidParameterError(f"unknown irregularity kind {kind!r}")
        for u in np.flatnonzero((dist == at) & (cut < 0)).tolist():
            kids = [w for w in base.adjacent(u) if dist[w] == at + 1 and cut[w] < 0]
            if kids:
                break
        else:
            raise InvalidParameterError(f"no node at distance {at} with a removable child")
        if len(kids) < cuts:
            raise InvalidParameterError(f"anchor at distance {at} lacks two spare children")
        stack = kids[-cuts:]
        while stack:
            x = stack.pop()
            cut[x] = i
            stack += [w for w in base.adjacent(x) if dist[w] > dist[x] and cut[w] < 0]
        if kind == "low-degree":
            continue
        if at + length // 2 > depth:
            raise InvalidParameterError("cycle does not fit inside the tree")
        ring = np.array([u, *range(fresh, fresh + length - 1)])
        fresh += length - 1
        anchors.append((u, i))
        new_u.append(ring)
        new_v.append(np.roll(ring, -1))
        # pad each fresh ring node down to the base leaf depth: delta - 2
        # children under it, delta - 1 under every node below
        for j, x in enumerate(ring[1:].tolist(), 1):
            parents, fan = np.array([x]), base.delta - 2
            for _ in range(depth - at - min(j, length - j)):
                level = np.arange(fresh, fresh + parents.size * fan)
                new_u.append(np.repeat(parents, fan))
                new_v.append(level)
                fresh += level.size
                parents, fan = level, base.delta - 1

    for u, i in anchors:
        if cut[u] >= 0:
            raise InvalidParameterError(
                f"{spec[cut[u]]!r} cuts the anchor of the cycle {spec[i]!r}")
    kept = np.flatnonzero(cut < 0)
    order = np.concatenate([[center], kept[kept != center], np.arange(base.n, fresh)])
    new_id = np.empty(fresh, np.int64)
    new_id[order] = np.arange(order.size)
    u, v, *_ = base.edge_columns()
    keep = (cut[u] < 0) & (cut[v] < 0)
    pairs = np.sort(np.stack([new_id[np.concatenate([u[keep], *new_u])],
                              new_id[np.concatenate([v[keep], *new_v])]], axis=1), axis=1)
    pairs = pairs[np.argsort(pairs[:, 0] * order.size + pairs[:, 1])]
    ends = pairs.ravel()
    by_node = np.argsort(ends, kind="stable")
    ranked = ends[by_node]
    port = np.empty_like(ends)
    port[by_node] = np.arange(ends.size) - np.searchsorted(ranked, ranked)
    if port.max(initial=0) >= base.delta:
        raise InvalidParameterError("spec exceeds the degree bound")
    return PortedGraph._from_columns(order.size, *pairs.T, *port.reshape(-1, 2).T,
                                     delta=base.delta, meta={"center": 0})


# ---------------------------------------------------------------------------
# Independent execution set
# ---------------------------------------------------------------------------


def independent_execution_set(g, v, t, k):
    """Nodes with pairwise distance >= 2t+1 whose t-balls lie in B_k(v).

    Seeds are the ends of the length-7 direction paths from v; each
    extension step walks 2t+1 edges straight along every direction but the
    reverse of the last step, for ``max(0, floor((k-7)/(2t+1)) - 1)``
    steps.  Returns the extension set (seeds excluded: sibling seeds sit at
    distance 2).
    """
    if k <= 7:
        raise InvalidParameterError("k must exceed the seed distance 7")
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    if not g.oriented:
        raise InvalidInstanceError("independent execution set needs an oriented tree")
    if not ball_is_leaf_free(g, v, k):
        raise InvalidInstanceError(f"radius-{k} ball of {v} contains a leaf")
    stride = 2 * t + 1
    seeds = [(walk_direction_path(g, v, p), p[-1])
             for p in ball_paths(g.delta, 7) if len(p) == 7]
    # a node short of a direction has no seeds beyond it
    frontier = [(x, last) for x, last in seeds if x is not None]
    result = set()
    for _ in range(max(0, (k - 7) // stride - 1)):
        frontier = [(walk_direction_path(g, x, (d,) * stride), d)
                    for x, last in frontier for d in range(g.delta) if d != last ^ 1]
        if any(x is None for x, _ in frontier):
            raise InvalidInstanceError("straight walk left the tree")
        result.update(x for x, _ in frontier)
    return result
