"""Constructive algorithms: the weak-coloring reduction pipeline, the
pointer-problem solvers, and the homogeneous dispatcher.

Everything is expressed over immutable graphs and returns plain label
dicts; the stated round counts are the LOCAL-model accounting of each
stage (a stage needing information from distance d costs d rounds).  A
round runs for all nodes at once, as whole-array passes over
``g.csr()``; the per-node rules they compute are kept in
``tests/oracles.py`` as the differential oracles.  One pointer-labelling pass
(:func:`_pointer_labels`) serves trees and cyclic graphs alike; on a
cyclic graph only the nodes that prefer a cycle are set one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import run_node_algorithm
from .errors import InvalidInputError, InvalidParameterError, PSolverViolation
from .graph import CycleIndex, frontier_slots, reduce_slots, slot_owners
from .problems import (HomogeneousLabel, PointerLabel, color_array, identity_codes,
                       label_array)


# ---------------------------------------------------------------------------
# Weak coloring family -> weak 2-coloring
# ---------------------------------------------------------------------------


@dataclass
class RecolorDetail:
    """Where a node found its closest differently-colored node."""

    target: int
    dist: int
    first_port: int           # port of the first step toward the target


def weak_to_weak2c(g, phi, k, c, validate=True, detail=True):
    """Distance-k weak c-coloring -> distance-1 weak 2c-coloring in k rounds.

    Each node locates its closest differently-colored node (ties: smallest
    color, then lexicographically smallest port path) and appends the
    parity of that distance to its own color.  Returns the new coloring
    (colors in [2c]), the round count, and per-node detail for the parity
    argument check (None with ``detail=False``, which builds no
    :class:`RecolorDetail`).  All nodes search at once: k sweeps over
    ``g.csr()`` (:func:`_recolor_sweeps`) give each node the breadth-first
    search in port-path order whose first level holding another color
    decides, the smallest (color, port path) of that level winning.
    """
    colors = color_array(g, phi, c) if validate else label_array([phi[v] for v in range(g.n)])
    target, dist, first_port, missing = _recolor_sweeps(g, colors, k)
    if missing.size:
        raise InvalidInputError(
            f"not a valid distance-{k} weak {c}-coloring; offenders {missing[:5].tolist()}"
            if validate else f"node {missing[0]} sees no other color within distance {k}")
    dist = dist.tolist()
    # Python ints: a palette may pass int64
    new = [(col - 1) * 2 + d % 2 + 1 for col, d in zip(colors.tolist(), dist)]
    nodes = range(g.n)
    details = dict(zip(nodes, map(RecolorDetail, target.tolist(), dist,
                                  first_port.tolist()))) if detail else None
    return dict(zip(nodes, new)), k, details


# fields of a packed search entry, high to low: distance, first port + 1
# (0 at the node itself, 5 bits) and the node found (31 bits); one int64
# orders entries by (distance, first port)
_PORT_SHIFT = 31
_DIST_SHIFT = _PORT_SHIFT + 5


def _recolor_sweeps(g, colors, k):
    """Closest differently-colored node of every node, as ``(target, dist,
    first_port)`` arrays, and the nodes that see no other color within
    distance k.

    After sweep j each node holds the two smallest distinct colors of its
    radius-j ball, each with its best entry: the smallest (distance, port
    path) to a node of that color, packed as (distance, first port,
    target).  A node's entry for a color comes from its own color or
    from the neighbors' entries of that color, one step longer and behind
    the port to that neighbor; the smallest two colors of a ball are among
    the neighbors' smallest two, and a neighbor's best path to a color
    continues the best path through it.  The first sweep whose ball holds
    a second color fixes the node's answer: no other color is closer, so
    every other color of the ball sits at exactly that distance and the
    smallest (color, path) is the entry of the smallest color not its own.
    """
    indptr, nbr, my_port = g.csr()[:3]
    rank = np.unique(colors, return_inverse=True)[1].reshape(-1)
    none = np.iinfo(np.int64).max
    src = slot_owners(indptr)
    port_field = np.int64(0x1f) << _PORT_SHIFT
    step = (np.int64(1) << _DIST_SHIFT) + ((my_port.astype(np.int64) + 1) << _PORT_SHIFT)
    own = np.arange(g.n, dtype=np.int64)
    # (color, entry) of the smallest and the second smallest color
    best = [(rank, own), (np.full(g.n, none), np.full(g.n, none))]
    found = np.full(g.n, -1, np.int64)

    def smallest(values):
        return reduce_slots(indptr, np.minimum, values, none)

    def entry_of(col, via):
        want = np.where(col == none, -1, col)[src]
        cand = np.minimum(*(np.where(c == want, e, none) for c, e in via))
        return np.where(rank == col, own, smallest(cand))

    for _ in range(k):
        # the neighbors' entries, one step longer, behind the port taken
        via = [(c[nbr], (e[nbr] & ~port_field) + step) for c, e in best]
        first = np.minimum(rank, smallest(via[0][0]))
        above = np.minimum(*(np.where(c > first[src], c, none) for c, _ in via))
        second = np.minimum(np.where(rank > first, rank, none), smallest(above))
        best = [(first, entry_of(first, via)), (second, entry_of(second, via))]
        fresh = (found < 0) & (second != none)
        found[fresh] = np.where(first != rank, best[0][1], best[1][1])[fresh]
        if (found >= 0).all():
            break
    return (found & ((np.int64(1) << _PORT_SHIFT) - 1), found >> _DIST_SHIFT,
            ((found & port_field) >> _PORT_SHIFT) - 1, np.flatnonzero(found < 0))


@dataclass
class Pseudoforest:
    """One outgoing pointer per node, toward a differently-colored
    neighbor; the pointer graph may contain mutual (2-cycle) pairs."""

    out_port: dict
    parent: dict = field(default_factory=dict)

    @cached_property
    def children(self):
        """Node -> the nodes pointing at it, in increasing order."""
        children = {v: [] for v in self.parent}
        for v, w in self.parent.items():
            children[w].append(v)
        return children

    def pointer_neighbors(self, v):
        return [self.parent[v]] + self.children[v]


def build_pseudoforest(g, phi2):
    """Each node picks its smallest-port neighbor of a different color
    (the first such slot of its CSR range)."""
    out_port, parent = _pseudoforest_arrays(g, label_array([phi2[v] for v in range(g.n)]))
    nodes = range(g.n)
    return Pseudoforest(out_port=dict(zip(nodes, out_port.tolist())),
                        parent=dict(zip(nodes, parent.tolist())))


def _pseudoforest_arrays(g, colors):
    """:func:`build_pseudoforest` on a color array, as ``(out_port,
    parent)`` arrays."""
    indptr, nbr, my_port = g.csr()[:3]
    src = slot_owners(indptr)
    slots = np.flatnonzero(colors[nbr] != colors[src])
    first = slots[np.diff(src[slots], prepend=-1) != 0]
    if first.size < g.n:
        lacking = np.ones(g.n, bool)
        lacking[src[first]] = False
        raise InvalidInputError(
            f"node {np.flatnonzero(lacking)[0]} has no differently-colored neighbor")
    return my_port[first], nbr[first]


def cole_vishkin_step(own, parent):
    """One bit-index relabeling: 2i + own bit value, i the smallest bit
    index where own and the pointer target's color differ (0-based)."""
    diff = own ^ parent
    i = (diff & -diff).bit_length() - 1
    return 2 * i + ((own >> i) & 1)


def _cole_vishkin_steps(own, parent):
    """:func:`cole_vishkin_step` at every node at once; int64 colors by bit
    arithmetic, wider ones elementwise."""
    if own.dtype == object:
        return np.array(np.frompyfunc(cole_vishkin_step, 2, 1)(own, parent).tolist())
    diff = own ^ parent
    i = np.bitwise_count((diff & -diff) - 1).astype(np.int64)
    return 2 * i + ((own >> i) & 1)


def _pointer_arrays(pf, labels):
    """The nodes of ``labels`` (in its order), their values as an array and
    the position of each node's pointer target among them."""
    nodes = list(labels)
    values = label_array([labels[v] for v in nodes])
    parents = [pf.parent[v] for v in nodes]
    if nodes != list(range(len(nodes))):
        pos = {v: i for i, v in enumerate(nodes)}
        parents = [pos[w] for w in parents]
    return nodes, values, np.array(parents, np.int64).reshape(-1)


def cole_vishkin_reduce(pf, colors, c_prime):
    """Reduce a coloring that is proper along the pointers to 3 colors.

    Iterated bit-index relabeling against the pointer target until at most
    6 colors remain, then three shift-down-and-recolor passes eliminate
    colors 6, 5, 4 (1-based).  Properness along pointers holds after every
    step.  Every step relabels all nodes at once over the parent array
    (:func:`_cole_vishkin`).  Returns (coloring in {1,2,3}, rounds).
    """
    nodes, x, par = _pointer_arrays(pf, {v: col - 1 for v, col in colors.items()})
    x, rounds = _cole_vishkin(nodes, x, par, c_prime)
    return dict(zip(nodes, (x + 1).tolist())), rounds


def _cole_vishkin(nodes, x, par, c_prime):
    """:func:`cole_vishkin_reduce` on the 0-based color array ``x`` of
    ``nodes`` and the position of each one's pointer target; the colors
    it returns are 0-based too."""
    agree = np.flatnonzero(x == x[par])
    if agree.size:
        raise InvalidInputError(f"colors of {nodes[agree[0]]} and its pointer target agree")
    rounds = 0
    bound = c_prime
    while bound > 6:
        x = _cole_vishkin_steps(x, x[par])
        bound = 2 * max(bound - 1, 1).bit_length()
        rounds += 1
    # the skip below depends only on the declared palette, never on the
    # realized colors: the round count must be the same at every node
    if c_prime > 3:
        for target in (5, 4, 3):
            shifted = x[par]
            a, b = shifted[par], x
            free = np.where((a != 0) & (b != 0), 0, np.where((a != 1) & (b != 1), 1, 2))
            x = np.where(shifted == target, free, shifted)
            rounds += 2
    return x, rounds


def mis_to_weak2(pf, psi):
    """Greedy maximal independent set on the pointer graph by color classes
    1, 2, 3; members get label 1, the rest label 2.  Three rounds.  A
    proper 3-coloring along the pointers makes each class independent, so
    a class joins at once: every member without a joined pointer neighbor
    (its target or a node pointing at it)."""
    nodes, col, par = _pointer_arrays(pf, psi)
    return dict(zip(nodes, _mis(nodes, col, par).tolist())), 3


def _mis(nodes, col, par):
    """:func:`mis_to_weak2`'s labels as an array, from the color array of
    ``nodes`` and the position of each one's pointer target."""
    clash = np.flatnonzero(np.isin(col, (1, 2, 3)) & (col == col[par]))
    if clash.size:
        raise InvalidInputError(f"colors of {nodes[clash[0]]} and its pointer target agree")
    joined = np.zeros(len(nodes), bool)
    for cls in (1, 2, 3):
        pointed_at = np.zeros(len(nodes), bool)
        pointed_at[par[joined]] = True
        joined |= (col == cls) & ~joined[par] & ~pointed_at
    return np.where(joined, 1, 2)


@dataclass
class PipelineResult:
    """The weak 2-coloring (``labels``, 1 = in the independent set) and the
    stages it was computed from."""

    labels: dict
    rounds: int
    stage_rounds: dict
    recolored: dict
    pseudoforest_ports: dict
    three_coloring: dict


def weak_family_to_weak2(g, phi, k, c):
    """Distance-k weak c-coloring -> weak 2-coloring, constant extra rounds.

    Four stages, each a whole-array LOCAL algorithm: recolor by the parity
    of the distance to the closest other color (k frontier sweeps), point
    at the smallest-port neighbor of another color, Cole-Vishkin down to 3
    colors over the parent array, then the greedy MIS one color class at a
    time.  The stages hand arrays to each other; dicts are built only for
    the result.
    """
    phi2, r_recolor, _ = weak_to_weak2c(g, phi, k, c, detail=False)
    nodes = range(g.n)
    colors = label_array(list(phi2.values()))
    out_port, parent = _pseudoforest_arrays(g, colors)
    psi, r_cv = _cole_vishkin(nodes, colors - 1, parent, 2 * c)
    psi += 1
    labels = _mis(nodes, psi, parent)
    stage_rounds = {"recolor": r_recolor, "pseudoforest": 1,
                    "color-reduction": r_cv, "mis": 3}
    return PipelineResult(labels=dict(zip(nodes, labels.tolist())),
                          rounds=sum(stage_rounds.values()),
                          stage_rounds=stage_rounds, recolored=phi2,
                          pseudoforest_ports=dict(zip(nodes, out_port.tolist())),
                          three_coloring=dict(zip(nodes, psi.tolist())))


# ---------------------------------------------------------------------------
# Pointer-problem solvers
# ---------------------------------------------------------------------------


def _low_degree_map(g, ids):
    """Every node's preferred low-degree target (distance, then degree,
    then identifier), the distance, and a neighbor one step closer to the
    target, as int64 arrays ``(target, dist, pred)``; target and pred are
    -1 (dist 0) where no low-degree node is reachable.  ``pred`` is the
    lowest-numbered such neighbor, not the pointer: a pointer takes the
    smallest port toward any neighbor one step closer to the same target
    (:func:`_pointer_labels`), and the two differ where a cycle offers two.

    A level-synchronous multi-source BFS over ``g.csr()`` from all
    low-degree nodes: a node reached first at level d takes, among its
    level-(d-1) neighbors, the smallest (target degree, target id, target,
    neighbor), one lexsort per level.  That is the order in which a
    lexicographic Dijkstra keyed by (distance, degree, id) settles it, and
    it matches the per-node ball scan exactly.
    """
    indptr, nbr = g.csr()[:2]
    deg = np.diff(indptr)
    ids = np.asarray(ids)
    target = np.full(g.n, -1, np.int64)
    pred = np.full(g.n, -1, np.int64)
    dist = np.zeros(g.n, np.int64)
    frontier = np.flatnonzero(deg < g.delta)
    target[frontier] = pred[frontier] = frontier
    level = 0
    while frontier.size:
        level += 1
        w = nbr[frontier_slots(indptr, frontier)]
        p = np.repeat(frontier, deg[frontier])
        new = target[w] < 0
        w, p = w[new], p[new]
        t = target[p]
        order = np.lexsort((p, t, ids[t], deg[t], w))
        w, p, t = w[order], p[order], t[order]
        first = np.flatnonzero(np.diff(w, prepend=-1) != 0)
        frontier = w[first]
        target[frontier], pred[frontier], dist[frontier] = t[first], p[first], level
    return target, dist, pred


def _pointer_setup(g, assignment):
    """The low-degree map and, unless ``g`` is a tree, a :class:`CycleIndex`
    over the identifiers of ``assignment`` (None on a tree)."""
    if assignment is None or assignment.ids is None:
        raise InvalidInputError("pointer solving needs identifiers")
    ids = [assignment.ids[v] for v in range(g.n)]
    cycles = None if g.edge_count() == g.n - 1 else CycleIndex(g, ids)
    return _low_degree_map(g, ids), cycles


def _pointer_labels(g, r, low, cycles=None):
    """Labels of the constructive case analysis at radius r, from the
    low-degree map ``low`` and, on a cyclic graph, the graph's
    :class:`CycleIndex`, first made exact up to r at every full-degree node.

    Low-degree nodes label themselves.  A full-degree node prefers its best
    cycle within effective distance r over any low-degree node, and
    otherwise the closest low-degree node within r; with neither it stays
    unlabeled.  (Chain consistency needs every cycle member to aim at a
    cycle: a member sitting closer to a leaf than its own cycle's detour
    term would otherwise break the shared degree guess.)  Cycle members
    follow the orientation fixed by the cycle's smallest-identifier node
    pointing toward its smaller cycle neighbor.  Everyone else points to
    its smallest-port neighbor one step closer to its target (on a tree,
    its predecessor), guessing the target's degree unless some node further
    along prefers a cycle, in which case the guess is 0.  Distances to a
    cycle count full-degree paths only, so a chain toward a cycle never
    meets a low-degree node.

    Every node takes its low-degree guess and port in one pass over
    ``g.csr()``; the cycle-preferring nodes are then set one by one, and
    guess 0 travels back along the chains one BFS level at a time.  Equal
    labels share one frozen :class:`PointerLabel`.
    """
    target, dist, _ = low
    indptr, nbr, my_port = g.csr()[:3]
    deg = np.diff(indptr)
    src = slot_owners(indptr)
    # the first CSR slot (smallest port) toward a node one step closer to
    # the same target
    closer = np.flatnonzero((target[nbr] == target[src]) & (dist[nbr] == dist[src] - 1))
    first = closer[np.diff(src[closer], prepend=-1) != 0]
    port = np.full(g.n, -1, np.int64)
    port[src[first]] = my_port[first]
    low_degree = deg < g.delta
    guess = np.where(low_degree, deg, deg[target])
    labeled = (dist <= r) & (low_degree | (target >= 0))
    if cycles is not None:
        cycles.require(dict.fromkeys(np.flatnonzero(cycles.full).tolist(), r))
        best = cycles.best
        prefers = np.array([b is not None and b[0] <= r for b in best], bool)
        successors = {}       # canonical cycle -> its successor map
        for v in np.flatnonzero(prefers).tolist():
            eff, key = best[v]
            cyc = key[2]
            if cyc not in successors:
                successors[cyc] = _cycle_successor(cyc, cycles.ids)
            succ = successors[cyc]
            w = succ[v] if v in succ else next(
                u for u in g.adjacent(v) if best[u] == (eff - 1, key))
            port[v] = g.port_toward(v, w)
        # a chain guesses 0 when a cycle-preferring node lies ahead on it
        ahead = np.full(g.n, -1, np.int64)
        ahead[src[first]] = nbr[first]
        chain = np.flatnonzero(labeled & ~low_degree & ~prefers)
        chain = chain[np.argsort(dist[chain], kind="stable")]
        zero = prefers.copy()
        for level in np.split(chain, np.flatnonzero(np.diff(dist[chain])) + 1):
            zero[level] = zero[ahead[level]]
        guess[zero] = 0
        labeled |= prefers
    nodes = np.flatnonzero(labeled)
    shared = [PointerLabel(d=d, port=p if p >= 0 else None)
              for d in range(g.delta) for p in range(-1, g.delta)]
    return dict(zip(nodes.tolist(), map(shared.__getitem__,
                                        (guess * (g.delta + 1) + port + 1)[nodes].tolist())))


def solve_pointer_labeling_local(g, r, assignment):
    """Label the 1-neighborhoods of all nodes that see an irregularity
    within effective distance r; other nodes stay unlabeled.  The case
    analysis is that of :func:`_pointer_labels`.  Needs identifiers;
    gathers radius r plus another r of look-ahead.
    """
    _check_radius(r)
    return _pointer_labels(g, r, *_pointer_setup(g, assignment))


def _check_radius(r):
    if r < 0:
        raise InvalidParameterError(f"radius r={r} must be >= 0")


def _cycle_successor(cyc, ids):
    """Successor map of a cycle under its canonical orientation: the
    smallest-identifier node points toward its smaller-identifier cycle
    neighbor."""
    k = len(cyc)
    pos = min(range(k), key=lambda i: ids[cyc[i]])
    step = 1 if ids[cyc[(pos + 1) % k]] < ids[cyc[pos - 1]] else -1
    return {v: cyc[(i + step) % k] for i, v in enumerate(cyc)}


def solve_pointer_labeling(g, assignment, metrics=None):
    """Total pointer labeling at the smallest radius at which every node
    sees an irregularity: the largest over all nodes of the smallest
    effective distance of an irregularity.  Returns (labels, rounds) with
    rounds = that radius.  On cyclic graphs one :class:`CycleIndex` serves
    the radius and the labels.  A ``metrics`` dict receives the radius and
    the cycle search's work counts.  A node with nothing in reach raises
    :class:`InvalidInputError`."""
    low, cycles = _pointer_setup(g, assignment)
    target, dist, _ = low
    unbounded = 2 * g.n
    near = np.where(target >= 0, dist, unbounded)
    if cycles is not None:
        full = np.flatnonzero(cycles.full).tolist()
        # a cycle moves a node's smallest effective distance only where it
        # beats the closest low-degree node
        cycles.require(dict(zip(full, np.where(target >= 0, dist - 1, unbounded)[full].tolist())))
        near = np.minimum(near, [unbounded if b is None else b[0] for b in cycles.best])
    lost = np.flatnonzero(near == unbounded)
    if lost.size:
        raise InvalidInputError(f"node {lost[0]} sees no irregularity")
    rounds = int(near.max(initial=0))
    labels = _pointer_labels(g, rounds, low, cycles)
    if metrics is not None:
        metrics.update(radius=rounds,
                       cycle_search_passes=cycles.passes if cycles else 0,
                       cycles_enumerated=len(cycles.keys) if cycles else 0)
    return labels, rounds


# ---------------------------------------------------------------------------
# Homogeneous dispatcher
# ---------------------------------------------------------------------------


def homogeneous_dispatch(g, p_solver, p_verifier, r, assignment):
    """Solve a homogeneous problem: run the inner solver everywhere and, in
    parallel, pointer-label every node having an irregularity within
    k = T + r (T = the solver's round bound).  Nodes with an irregular
    ball present their pointer label; the rest rely on the inner label.

    Raises :class:`PSolverViolation` if the inner verifier rejects some
    node whose radius-k ball is a full regular tree.
    """
    _check_radius(r)
    k = p_solver.rounds + r
    pointer_labels = solve_pointer_labeling_local(g, k, assignment)
    inner = run_node_algorithm(g, p_solver, assignment)
    # one label per distinct (inner label, pointer label) pair of objects
    i_code, i_objs = identity_codes(inner.get(v) for v in range(g.n))
    p_code, p_objs = identity_codes(pointer_labels.get(v) for v in range(g.n))
    _, first, code = np.unique(i_code * len(p_objs) + p_code,
                               return_index=True, return_inverse=True)
    shared = [HomogeneousLabel(inner=i_objs[i_code[v]], pointer=p_objs[p_code[v]])
              for v in first.tolist()]
    labels = dict(zip(range(g.n), [shared[c] for c in code.tolist()]))
    bad = [v for v in range(g.n)
           if v not in pointer_labels and not p_verifier(g, v, inner)]
    if bad:
        raise PSolverViolation(
            f"inner solver rejected on regular balls at nodes {bad[:5]}")
    return labels
