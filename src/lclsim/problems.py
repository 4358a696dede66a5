"""Locally checkable labeling problems and their per-node verifiers.

Every verdict is a function of a constant-radius ball around the judged
node: radius k for distance-k weak coloring, radius 1 for weak edge
coloring, pointer-chain labelings and homogeneous labelings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstanceError, InvalidLabelingError
from .graph import edge_key, reduce_slots, slot_owners


@dataclass(frozen=True)
class PointerLabel:
    """Output of the pointer problem at one node: a degree guess
    ``0 <= d < delta`` and a pointer, stored as the port index of the chosen
    neighbor (None = no pointer).  Constant-size for fixed delta."""

    d: int
    port: object = None


@dataclass(frozen=True)
class HomogeneousLabel:
    """Pair of an inner-problem label and an optional pointer label; a node
    is judged on exactly one of the two components (the pointer side when it
    is present)."""

    inner: object = None
    pointer: object = None    # PointerLabel or None


def verifier_report(problem, results):
    """Serializable summary of a per-node pass/fail map."""
    fail_nodes = sorted(v for v, ok in results.items() if not ok)
    return {
        "problem": problem,
        "pass_count": len(results) - len(fail_nodes),
        "fail_nodes": fail_nodes,
    }


def identity_codes(values):
    """A code for each value, numbering the distinct objects among them by
    identity, and those objects in code order.  A caller that reads each
    distinct object once reads a shared label once; unhashable labels work,
    and ``1``, ``True`` and ``1.0`` (equal, yet of different types) stay
    apart."""
    objects = list(values)
    ids = np.fromiter(map(id, objects), np.int64, len(objects))
    _, first, code = np.unique(ids, return_index=True, return_inverse=True)
    return code, [objects[i] for i in first.tolist()]


# ---------------------------------------------------------------------------
# Weak coloring
# ---------------------------------------------------------------------------


def _is_color(col, c):
    """An int in 1..c; not a bool, which would pass as the int 1 or 0."""
    return isinstance(col, int) and not isinstance(col, bool) and 1 <= col <= c


def verify_weak_coloring(g, phi, c, k):
    """Per-node pass/fail for distance-k weak c-coloring: node v passes iff
    some node within distance k carries a different color.  The colors go
    through k whole-array min/max sweeps (:func:`other_color_level`)."""
    level = other_color_level(g, color_array(g, phi, c), k)
    return dict(zip(range(g.n), (level > 0).tolist()))


def color_array(g, phi, c):
    """The colors ``phi[0..n-1]`` as a :func:`label_array`, each checked to
    be an int in 1..c: one pass over their types and a range check of the
    array, and the per-node check only to name the first bad node."""
    try:
        colors = [phi[v] for v in range(g.n)]
    except LookupError:
        colors = None
    if colors is not None and set(map(type, colors)) <= {int}:
        x = label_array(colors)
        if not x.size or (x.min() >= 1 and x.max() <= c):
            return x
    for v in range(g.n):
        col = phi[v]
        if not _is_color(col, c):
            raise InvalidLabelingError(f"color {col!r} of node {v} outside 1..{c}")
    return label_array(colors)


def label_array(values):
    """Integer labels as an int64 array; as an object array of the values
    themselves where numpy would pick another type (ints past int64 would
    become uint64 or lossy float64)."""
    x = np.array(values)
    return x if x.dtype.kind == "i" else np.array(values, object)


def other_color_level(g, colors, k):
    """Per node, the smallest distance ``<= k`` at which some node carries
    a color other than its own (0 where there is none): k sweeps of the
    ball minimum and maximum over ``g.csr()``, one LOCAL round each.  A
    ball holds another color iff its minimum or its maximum differs from
    the center's color."""
    indptr, nbr = g.csr()[:2]
    level = np.zeros(g.n, np.int64)
    lo = hi = colors
    for d in range(1, k + 1):
        lo = np.minimum(lo, reduce_slots(indptr, np.minimum, lo[nbr], lo))
        hi = np.maximum(hi, reduce_slots(indptr, np.maximum, hi[nbr], hi))
        level[(level == 0) & ((lo != colors) | (hi != colors))] = d
        if level.all():
            break
    return level


def _sees_other_color(g, v, phi, k):
    mine = phi[v]
    seen = {v}
    frontier = [v]
    for _ in range(k):
        nxt = []
        for x in frontier:
            for u in g.adjacent(x):
                if u in seen:
                    continue
                if phi[u] != mine:
                    return True
                seen.add(u)
                nxt.append(u)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# Weak edge coloring
# ---------------------------------------------------------------------------


def verify_weak_edge_coloring(g, psi, c, delta):
    """Per-node pass/fail on an oriented graph: v passes iff some dimension
    has differently colored edges at v.

    Nodes missing one edge of every dimension pass vacuously (the problem
    judges interior nodes of oriented trees); a full-degree node with an
    incomplete dimension is an invalid instance.
    """
    for e, col in psi.items():
        if not _is_color(col, c):
            raise InvalidLabelingError(f"color {col!r} of edge {e} outside 1..{c}")
    results = {}
    for v in range(g.n):
        per_dim = {}
        for u, mp, up, d, s in g.half_edges(v):
            if d == 0:
                raise InvalidInstanceError("weak edge coloring needs an oriented graph")
            per_dim.setdefault(d, {})[s] = psi[edge_key(v, u)]
        complete = {d: two for d, two in per_dim.items() if len(two) == 2}
        if g.degree(v) == g.delta and len(complete) != delta // 2:
            raise InvalidInstanceError(
                f"full-degree node {v} is missing an oriented edge")
        if not complete:
            results[v] = True
            continue
        results[v] = any(two[1] != two[-1] for two in complete.values())
    return results


# ---------------------------------------------------------------------------
# Pointer problem
# ---------------------------------------------------------------------------


def verify_pointer_labeling(g, labels, delta):
    """Per-node pass/fail of the pointer problem; the checker is total.
    Every node is judged at once by :func:`_pointer_verdicts`."""
    ok, bad_port = _pointer_verdicts(
        g, *identity_codes(labels.get(v) for v in range(g.n)), delta)
    if bad_port is not None:
        g.neighbor_by_port(*bad_port[1:])     # raises InvalidParameterError
    return dict(zip(range(g.n), ok.tolist()))


def _pointer_verdicts(g, code, labs, delta):
    """The five pointer conditions at every node v, from its label
    ``labs[code[v]]`` (None: unlabeled), as whole-array gathers over
    ``g.csr()``:

    1. full-degree nodes point somewhere;
    2. low-degree nodes point nowhere and guess their own degree;
    3. the degree guess is constant along pointers;
    4. pointers never backtrack;
    5. a pointer into a pointerless node requires that node's degree to
       match the guess.
    An unlabeled node fails, and so does a pointer into one.

    Each label in ``labs`` is decoded once.  Degree guesses are compared as
    Python values: each distinct guess gets one code, and the degrees
    ``0..delta`` get their own value as code.  A port is the own port
    ``q < g.delta`` with ``q == port``, as ``neighbor_by_port`` compares.
    Returns the verdict array and, if some labeled node would look up a
    port its node lacks, ``(labeled node, node, port)`` for the first such
    node (else None); the per-node rule (``tests/oracles.py``) raises there.
    """
    n, width = g.n, max(g.delta, 1)
    indptr, nbr, my_port = g.csr()[:3]
    deg = np.diff(indptr)
    codes = {d: d for d in range(g.delta + 1)}
    guess = np.array([-1 if lab is None else codes.setdefault(lab.d, len(codes))
                      for lab in labs], np.int64)[code]
    # own port of each label: -1 for no pointer, -2 for no such port
    port = np.array([-1 if lab is None or lab.port is None
                     else next((q for q in range(g.delta) if q == lab.port), -2)
                     for lab in labs], np.int64)[code]
    by_port = np.full(n * width, -2, np.int64)
    by_port[slot_owners(indptr).astype(np.int64) * width + my_port] = nbr
    to = np.where(port >= 0, by_port[np.arange(n) * width + np.maximum(port, 0)], port)
    pointing = to != -1
    ok = (guess >= 0) & np.where(deg == delta, pointing, ~pointing & (guess == deg))
    check = ok & pointing
    u = np.where(check & (to >= 0), to, 0)
    agree = check & (to >= 0) & (guess[u] == guess)     # -1: u unlabeled
    to_u = to[u]
    ok &= ~check | (agree & np.where(to_u >= 0, to_u != np.arange(n),
                                     (to_u == -1) & (deg[u] == guess)))
    own_bad = check & (to == -2)
    next_bad = agree & (to_u == -2)
    first = np.flatnonzero(own_bad | next_bad)
    if not first.size:
        return ok, None
    v = int(first[0])
    w = v if own_bad[v] else int(u[v])
    return ok, (v, w, labs[code[w]].port)


# ---------------------------------------------------------------------------
# Homogeneous problems
# ---------------------------------------------------------------------------


def verify_homogeneous(g, labels, inner_verifier, delta):
    """Per-node pass/fail of a homogeneous labeling: v passes iff it has a
    nonempty pointer label and is pointer-happy, or it has an empty pointer
    label and the inner problem's verifier accepts at v.

    ``inner_verifier(g, v, inner_labels)`` sees the inner components of all
    nodes (possibly None where only pointers were emitted).
    """
    code, labs = identity_codes(labels.get(v) for v in range(g.n))
    pointers = [None if lab is None else lab.pointer for lab in labs]
    inner_part = {v: lab.inner for v, lab in labels.items()}
    ok, bad_port = _pointer_verdicts(g, code, pointers, delta)
    # an unlabeled node fails with its missing pointer
    inner_side = [lab is not None and p is None for lab, p in zip(labs, pointers)]
    results = {}
    for v, c, pointer_ok in zip(range(g.n if bad_port is None else bad_port[0]),
                                code.tolist(), ok.tolist()):
        results[v] = bool(inner_verifier(g, v, inner_part)) if inner_side[c] else pointer_ok
    if bad_port is not None:
        g.neighbor_by_port(*bad_port[1:])     # raises InvalidParameterError
    return results
