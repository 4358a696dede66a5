"""Coordinates, table algorithms and exact counting kernels on the
homogeneous oriented tree.

Around an interior node of a consistently oriented delta-regular tree,
every radius-t ball has the same shape, so a position is just a
non-backtracking string of direction slots (slot ``2(d-1)`` is dimension
d's ``+`` edge, slot ``2(d-1)+1`` its ``-`` edge; the reverse of a slot is
``slot ^ 1``).  A bit assignment on a ball packs into one integer, b bits
per position in canonical (BFS, then lexicographic) order, which makes
table algorithms numpy arrays and conditional color distributions exact
integer counts.

A position is a path from one anchor node; an edge ball is anchored at its
``+`` endpoint (``edge_ball_paths``), so both endpoints pack an edge view
identically, and a frame (one ball inside another) is one ``compose``.

Coordinates, frames and key tables depend only on small integers, so each
is built once per process (``functools.lru_cache``); cached arrays are
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError, TotalRuleViolation

TABLE_BITS_CAP = 22   # 4M entries; everything in scope is far below
KERNEL_BUDGET_BITS = 24  # conditioning bits + completion bits per kernel


@lru_cache(maxsize=None)
def ball_paths(delta, t):
    """Non-backtracking direction paths of length <= t, BFS then lex order."""
    paths = [()]
    frontier = [()]
    for _ in range(t):
        nxt = []
        for p in frontier:
            for d in range(delta):
                if p and d == p[-1] ^ 1:
                    continue
                nxt.append(p + (d,))
        nxt.sort()
        paths.extend(nxt)
        frontier = nxt
    return tuple(paths)


@lru_cache(maxsize=None)
def edge_positions(delta, t, dim):
    """Positions of a radius-t edge ball for an edge of the given dimension:
    ``("P", path)`` for the + endpoint's side (listed first), ``("M", path)``
    for the - endpoint's side, each path taken from its own endpoint.  These
    are the names ``EdgeTable.from_rule`` rules read."""
    plus_dir = 2 * (dim - 1)
    paths = ball_paths(delta, t)
    return tuple([("P", p) for p in paths if p[:1] != (plus_dir,)]
                 + [("M", p) for p in paths if p[:1] != (plus_dir ^ 1,)])


@lru_cache(maxsize=None)
def edge_ball_paths(delta, t, dim):
    """``edge_positions`` as paths from the + endpoint: the - endpoint is
    one ``2(dim-1)`` step away."""
    plus_dir = 2 * (dim - 1)
    return tuple(q if side == "P" else (plus_dir,) + q
                 for side, q in edge_positions(delta, t, dim))


def compose(anchor, q):
    """Concatenate two non-backtracking paths, canceling at the seam."""
    a = list(anchor)
    i = 0
    while a and i < len(q) and q[i] == a[-1] ^ 1:
        a.pop()
        i += 1
    return tuple(a) + tuple(q[i:])


# ---------------------------------------------------------------------------
# Frames: reindexing one ball inside another
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """How a target coordinate system overlaps the conditioning one: known
    positions are bit-rearrangements of the conditioned key, free positions
    are enumerated separately (in target-position order)."""

    known: tuple              # (target_pos, source_pos) pairs
    free: tuple               # target positions outside the source ball

    @property
    def free_count(self):
        return len(self.free)


def _frame(source_paths, target_paths):
    """The target ball inside the source ball, both given as paths from one
    anchor node: a target position is known where its path is a source
    path, and free elsewhere."""
    index = {p: i for i, p in enumerate(source_paths)}
    return Frame(known=tuple((j, index[p]) for j, p in enumerate(target_paths) if p in index),
                 free=tuple(j for j, p in enumerate(target_paths) if p not in index))


@lru_cache(maxsize=None)
def neighbor_frame(delta, t, direction):
    """A neighbor's radius-t node ball inside the center's radius-t ball."""
    center = ball_paths(delta, t)
    return _frame(center, [compose((direction,), q) for q in center])


@lru_cache(maxsize=None)
def incident_edge_frame(delta, t_center, s_edge, direction):
    """The radius-s ball of the center's ``direction`` edge inside the
    center's radius-t node ball."""
    plus = () if direction % 2 == 0 else (direction,)
    edge = edge_ball_paths(delta, s_edge, direction // 2 + 1)
    return _frame(ball_paths(delta, t_center), [compose(plus, q) for q in edge])


@lru_cache(maxsize=None)
def endpoint_completion_frame(delta, t, s_edge, dim, side):
    """An endpoint's radius-t node ball inside the radius-s edge ball: the
    free positions are exactly the completions an edge-based simulation
    enumerates."""
    endpoint = () if side == "P" else (2 * (dim - 1),)
    return _frame(edge_ball_paths(delta, s_edge, dim),
                  [compose(endpoint, q) for q in ball_paths(delta, t)])


def _check_kernel_bits(frame, b, source_positions):
    src_bits = b * source_positions
    free_bits = b * frame.free_count
    if src_bits > TABLE_BITS_CAP or free_bits > TABLE_BITS_CAP:
        raise BudgetExceededError("assembly table past the bit cap")
    if src_bits + free_bits > KERNEL_BUDGET_BITS:
        # exact counting for t >= 2 is out of budget; use Monte Carlo via
        # the engine instead
        raise BudgetExceededError(
            f"{src_bits + free_bits} conditioning+completion bits exceed "
            f"the exact budget of {KERNEL_BUDGET_BITS}")


def _gather_bits(keys, b, moves):
    """Move b-bit fields of ``keys``: each (from_slot, to_slot) in ``moves``
    copies field ``from_slot`` to field ``to_slot`` of the result."""
    mask = (1 << b) - 1
    out = np.zeros_like(keys)
    for src, dst in moves:
        out |= ((keys >> (b * src)) & mask) << (b * dst)
    return out


def _free_table(frame, b):
    """Target-key bits of each free counter value."""
    ctr = np.arange(1 << (b * frame.free_count), dtype=np.int64)
    return _gather_bits(ctr, b, enumerate(frame.free))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def key_tables(frame, b, source_positions):
    """Numpy lookup tables assembling target keys from (source key, free
    counter): ``target_key = known_tab[source_key] | free_tab[counter]``.
    Built once per argument tuple; the arrays are read-only."""
    _check_kernel_bits(frame, b, source_positions)
    sigma = np.arange(1 << (b * source_positions), dtype=np.int64)
    return _read_only(_gather_bits(sigma, b, [(i, j) for j, i in frame.known]),
                      _free_table(frame, b))


@lru_cache(maxsize=None)
def overlap_tables(frame, b, source_positions):
    """The frame's target keys factorized through the overlap with the
    source ball: ``(proj, targets)`` with ``proj[source_key] = u``, the
    ``b * K`` bits of the K known positions packed in ``frame.known``
    order, and ``targets[u, counter]`` the target key those bits and the
    free counter assemble.  So ``target_key = targets[proj[source_key],
    counter]``, and a kernel whose per-key count only reads the target keys
    computes it once per overlap value u (``2**(b*K)`` rows) instead of
    once per source key.  Same budget as ``key_tables``; built once per
    argument tuple; the arrays are read-only."""
    _check_kernel_bits(frame, b, source_positions)
    sigma = np.arange(1 << (b * source_positions), dtype=np.int64)
    proj = _gather_bits(sigma, b, [(i, slot) for slot, (_, i) in enumerate(frame.known)])
    u = np.arange(1 << (b * len(frame.known)), dtype=np.int64)
    known = _gather_bits(u, b, [(slot, j) for slot, (j, _) in enumerate(frame.known)])
    return _read_only(proj, known[:, None] | _free_table(frame, b)[None, :])


# ---------------------------------------------------------------------------
# Table algorithms
# ---------------------------------------------------------------------------


def _check_table_bits(bits):
    if bits > TABLE_BITS_CAP:
        raise BudgetExceededError(
            f"table over {bits} bits exceeds the {TABLE_BITS_CAP}-bit cap")


def _tabulate(fn, positions, b, bound):
    """Call a rule once on the bit arrays of all ``2**(b*len(positions))``
    keys; return its outputs as a fresh int64 table, after checking them
    against ``[0, bound)``."""
    keys = np.arange(1 << (b * len(positions)), dtype=np.int64)
    mask = (1 << b) - 1
    bits = {p: (keys >> (i * b)) & mask for i, p in enumerate(positions)}
    out = np.broadcast_to(np.asarray(fn(bits)), keys.shape)
    bad = (out < 0) | (out >= bound)
    if bad.any():
        raise InvalidParameterError(f"rule output {out[bad][0]} outside [0,{bound})")
    return out.astype(np.int64)


@dataclass
class NodeTable:
    """t-round node algorithm on the oriented tree as an explicit table:
    entry ``key`` (packed ball bits) holds the output color in ``[0, c)``."""

    delta: int
    t: int
    b: int
    c: int
    table: np.ndarray
    name: str = ""

    @classmethod
    def from_rule(cls, delta, t, b, c, fn, name=""):
        """Tabulate a rule over every key at once.  ``fn(bits)`` sees
        ``{path: int64 array}``, entry ``key`` of each array holding that
        position's bits in that key, and returns the colors as an integer
        array in the same order, or one color for every key; so the rule
        must be elementwise (numpy operators, ``np.bitwise_count``, ...).
        A color outside ``[0, c)`` raises ``InvalidParameterError``."""
        paths = ball_paths(delta, t)
        _check_table_bits(b * len(paths))
        table = _tabulate(fn, paths, b, c)
        return cls(delta=delta, t=t, b=b, c=c, table=table, name=name)


@dataclass
class EdgeTable:
    """t-round edge algorithm: per dimension, packed edge-ball keys to label
    codes in ``[0, c)`` as the ``+`` endpoint sees the label (``tables``)
    and as the ``-`` endpoint sees it (``minus``; None: the same, an opaque
    label).  A code outside ``[0, c)`` raises ``InvalidParameterError``."""

    delta: int
    t: int
    b: int
    c: int
    tables: dict
    minus: dict = None
    name: str = ""

    def __post_init__(self):
        if self.minus is None:
            self.minus = self.tables
        codes = np.concatenate([*self.tables.values(), *self.minus.values()])
        if not (0 <= codes.min() and codes.max() < self.c):
            raise InvalidParameterError(f"edge label code outside [0,{self.c})")

    @classmethod
    def from_rule(cls, delta, t, b, c, fn, name=""):
        """Tabulate a rule per dimension over every key at once.
        ``fn(dim, bits)`` sees ``{(side, path): int64 array}`` as in
        ``NodeTable.from_rule`` and returns opaque label codes as an integer
        array, or one code for every key; a code outside ``[0, c)`` raises
        ``InvalidParameterError``."""
        tables = {}
        for dim in range(1, delta // 2 + 1):
            pos = edge_positions(delta, t, dim)
            _check_table_bits(b * len(pos))
            tables[dim] = _tabulate(lambda bits: fn(dim, bits), pos, b, c)
        return cls(delta=delta, t=t, b=b, c=c, tables=tables, name=name)


# ---------------------------------------------------------------------------
# Reading packed keys off concrete graphs
# ---------------------------------------------------------------------------


def walk_direction_path(g, start, path):
    """Follow direction slots from ``start``; None when the tree ends."""
    x = start
    for d in path:
        dim, sign = d // 2 + 1, (+1 if d % 2 == 0 else -1)
        x = g.neighbor_by_direction(x, dim, sign)
        if x is None:
            return None
    return x


def node_ball(g, v, t):
    """The nodes at ``ball_paths(g.delta, t)`` from node v of a concrete
    oriented tree, in key order."""
    nodes = [walk_direction_path(g, v, p) for p in ball_paths(g.delta, t)]
    if None in nodes:
        raise TotalRuleViolation(f"node {v} lacks a full radius-{t} ball")
    return nodes


def edge_ball(g, u, v, t):
    """``(dim, nodes)`` for the edge {u, v} of a concrete oriented tree: the
    nodes at ``edge_ball_paths`` from its + endpoint, in key order."""
    orient = g.orientation_at(u, v)
    if orient is None:
        raise TotalRuleViolation(f"edge {u}-{v} is not oriented")
    dim, sign = orient
    plus = u if sign > 0 else v
    nodes = [walk_direction_path(g, plus, q) for q in edge_ball_paths(g.delta, t, dim)]
    if None in nodes:
        raise TotalRuleViolation(f"edge {u}-{v} lacks a full radius-{t} ball")
    return dim, nodes


def pack_key(nodes, b, assignment):
    """The b-bit fields of ``nodes``' bits, the first node lowest."""
    bits = assignment.bits
    key = 0
    for i, x in enumerate(nodes):
        key |= bits[x] << (i * b)
    return key


def pack_node_view(g, v, t, b, assignment):
    """Packed radius-t key around node v of a concrete oriented tree."""
    return pack_key(node_ball(g, v, t), b, assignment)


def pack_edge_view(g, u, v, t, b, assignment):
    """``(dim, packed key)`` for the edge {u, v} of a concrete oriented tree."""
    dim, nodes = edge_ball(g, u, v, t)
    return dim, pack_key(nodes, b, assignment)
