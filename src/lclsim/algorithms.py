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

from dataclasses import dataclass

import numpy as np

from .engine import run_node_algorithm
from .errors import InvalidInputError, InvalidParameterError, PSolverViolation
from .graph import CycleIndex, frontier_slots, slot_owners
from .problems import (HomogeneousLabel, PointerLabel, color_array, identity_codes,
                       label_array, other_color_level)


# ---------------------------------------------------------------------------
# Weak coloring family -> weak 2-coloring
# ---------------------------------------------------------------------------


def weak_to_weak2c(g, phi, k, c):
    """Distance-k weak c-coloring -> distance-1 weak 2c-coloring in k rounds.

    Each node appends to its own color the parity of its distance to the
    closest differently-colored node.  That distance is the verifier's
    :func:`~lclsim.problems.other_color_level`: k sweeps of the ball minimum
    and maximum over ``g.csr()``, all nodes at once.  Returns the new
    coloring (colors in [2c]) and the round count.
    """
    colors = color_array(g, phi, c)
    dist = other_color_level(g, colors, k)
    missing = np.flatnonzero(dist == 0)
    if missing.size:
        raise InvalidInputError(
            f"not a valid distance-{k} weak {c}-coloring; offenders {missing[:5].tolist()}")
    # Python ints: a palette may pass int64
    new = [(col - 1) * 2 + d % 2 + 1 for col, d in zip(colors.tolist(), dist.tolist())]
    return dict(zip(range(g.n), new)), k


def build_pseudoforest(g, colors):
    """One outgoing pointer per node, toward a differently-colored neighbor:
    each node picks the first such slot of its CSR range (its smallest
    port).  Mutual (2-cycle) pairs may occur.  Returns the ``(out_port,
    parent)`` arrays of the color array ``colors``."""
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


def cole_vishkin_reduce(x, parent, c_prime):
    """Reduce a 0-based coloring ``x`` of a palette of ``c_prime`` colors,
    proper along the pointers of the ``parent`` array, to the colors
    {0, 1, 2}.

    Iterated bit-index relabeling against the pointer target until at most
    6 colors remain, then three shift-down-and-recolor passes eliminate
    colors 5, 4, 3.  Properness along pointers holds after every step, and
    every step relabels all nodes at once.  Returns (coloring, rounds).
    """
    agree = np.flatnonzero(x == x[parent])
    if agree.size:
        raise InvalidInputError(f"colors of {agree[0]} and its pointer target agree")
    rounds = 0
    bound = c_prime
    while bound > 6:
        x = _cole_vishkin_steps(x, x[parent])
        bound = 2 * max(bound - 1, 1).bit_length()
        rounds += 1
    # the skip below depends only on the declared palette, never on the
    # realized colors: the round count must be the same at every node
    if c_prime > 3:
        for target in (5, 4, 3):
            shifted = x[parent]
            a, b = shifted[parent], x
            free = np.where((a != 0) & (b != 0), 0, np.where((a != 1) & (b != 1), 1, 2))
            x = np.where(shifted == target, free, shifted)
            rounds += 2
    return x, rounds


def mis_to_weak2(psi, parent):
    """Greedy maximal independent set on the pointer graph of the ``parent``
    array by color classes 1, 2, 3 of ``psi``; members get label 1, the
    rest label 2 (an array).  Three rounds.  A proper 3-coloring along the
    pointers makes each class independent, so a class joins at once: every
    member without a joined pointer neighbor (its target or a node pointing
    at it)."""
    clash = np.flatnonzero(np.isin(psi, (1, 2, 3)) & (psi == psi[parent]))
    if clash.size:
        raise InvalidInputError(f"colors of {clash[0]} and its pointer target agree")
    joined = np.zeros(len(psi), bool)
    for cls in (1, 2, 3):
        pointed_at = np.zeros(len(psi), bool)
        pointed_at[parent[joined]] = True
        joined |= (psi == cls) & ~joined[parent] & ~pointed_at
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
    of the distance to the closest other color (k min/max sweeps), point
    at the smallest-port neighbor of another color, Cole-Vishkin down to 3
    colors over the parent array, then the greedy MIS one color class at a
    time.  The stages hand arrays to each other; dicts are built only for
    the result.
    """
    phi2, r_recolor = weak_to_weak2c(g, phi, k, c)
    nodes = range(g.n)
    colors = label_array(list(phi2.values()))
    out_port, parent = build_pseudoforest(g, colors)
    psi, r_cv = cole_vishkin_reduce(colors - 1, parent, 2 * c)
    psi += 1
    labels = mis_to_weak2(psi, parent)
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
