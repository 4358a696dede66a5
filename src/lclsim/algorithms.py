"""Constructive algorithms: the weak-coloring reduction pipeline, the
pointer-problem solvers, and the homogeneous dispatcher.

Everything is expressed over immutable graphs and returns plain label
dicts; the stated round counts are the LOCAL-model accounting of each
stage (a stage needing information from distance d costs d rounds).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .engine import run_node_algorithm
from .errors import InvalidInputError, PSolverViolation
from .graph import CycleIndex
from .problems import HomogeneousLabel, PointerLabel, verify_weak_coloring


# ---------------------------------------------------------------------------
# Weak coloring family -> weak 2-coloring
# ---------------------------------------------------------------------------


@dataclass
class RecolorDetail:
    """Where a node found its closest differently-colored node."""

    target: int
    dist: int
    first_port: int           # port of the first step toward the target


def weak_to_weak2c(g, phi, k, c, validate=True):
    """Distance-k weak c-coloring -> distance-1 weak 2c-coloring in k rounds.

    Each node locates its closest differently-colored node (ties: smallest
    color, then lexicographically smallest port path) and appends the
    parity of that distance to its own color.  Returns the new coloring
    (colors in [2c]), the round count, and per-node detail for the parity
    argument check.
    """
    if validate:
        results = verify_weak_coloring(g, phi, c, k)
        bad = [v for v, ok in results.items() if not ok]
        if bad:
            raise InvalidInputError(
                f"not a valid distance-{k} weak {c}-coloring; offenders {bad[:5]}")
    out = {}
    detail = {}
    for v in range(g.n):
        target, dist, first_port = _closest_other_color(g, v, phi, k)
        out[v] = (phi[v] - 1) * 2 + (dist % 2) + 1
        detail[v] = RecolorDetail(target=target, dist=dist, first_port=first_port)
    return out, k, detail


def _closest_other_color(g, v, phi, k):
    """BFS in lexicographic port-path order; first level containing another
    color decides, winner has the smallest (color, path)."""
    mine = phi[v]
    seen = {v}
    # frontier entries: (path, node); level order is lexicographic order
    frontier = [((), v)]
    for _ in range(k):
        nxt = []
        hits = []
        for path, x in frontier:
            for u, mp, _up in g.neighbors(x):
                if u in seen:
                    continue
                seen.add(u)
                nxt.append((path + (mp,), u))
                if phi[u] != mine:
                    hits.append((phi[u], path + (mp,), u))
        if hits:
            col, path, u = min(hits)
            return u, len(path), path[0]
        frontier = nxt
    raise InvalidInputError(
        f"node {v} sees no other color within distance {k}")


@dataclass
class Pseudoforest:
    """One outgoing pointer per node, toward a differently-colored
    neighbor; the pointer graph may contain mutual (2-cycle) pairs."""

    out_port: dict
    parent: dict = field(default_factory=dict)
    children: dict = field(default_factory=dict)

    @classmethod
    def build(cls, g, out_port):
        parent = {v: g.neighbor_by_port(v, p) for v, p in out_port.items()}
        children = {v: [] for v in out_port}
        for v, w in parent.items():
            children[w].append(v)
        return cls(out_port=out_port, parent=parent, children=children)

    def pointer_neighbors(self, v):
        return [self.parent[v]] + self.children[v]


def build_pseudoforest(g, phi2):
    """Each node picks its smallest-port neighbor of a different color."""
    out_port = {}
    for v in range(g.n):
        for u, mp, _ in g.neighbors(v):
            if phi2[u] != phi2[v]:
                out_port[v] = mp
                break
        else:
            raise InvalidInputError(
                f"node {v} has no differently-colored neighbor")
    return Pseudoforest.build(g, out_port)


def cole_vishkin_step(own, parent):
    """One bit-index relabeling: 2i + own bit value, i the smallest bit
    index where own and the pointer target's color differ (0-based)."""
    diff = own ^ parent
    i = (diff & -diff).bit_length() - 1
    return 2 * i + ((own >> i) & 1)


def cole_vishkin_reduce(pf, colors, c_prime):
    """Reduce a coloring that is proper along the pointers to 3 colors.

    Iterated bit-index relabeling against the pointer target until at most
    6 colors remain, then three shift-down-and-recolor passes eliminate
    colors 6, 5, 4 (1-based).  Properness along pointers holds after every
    step.  Returns (coloring in {1,2,3}, rounds).
    """
    x = {v: colors[v] - 1 for v in colors}
    parent = pf.parent
    for v, w in parent.items():
        if x[v] == x[w]:
            raise InvalidInputError(f"colors of {v} and its pointer target agree")
    rounds = 0
    bound = c_prime
    while bound > 6:
        x = {v: cole_vishkin_step(x[v], x[parent[v]]) for v in x}
        bound = 2 * max(bound - 1, 1).bit_length()
        rounds += 1
    # the skip below depends only on the declared palette, never on the
    # realized colors: the round count must be the same at every node
    if c_prime > 3:
        for target in (5, 4, 3):
            shifted = {v: x[parent[v]] for v in x}
            new = dict(shifted)
            for v, col in shifted.items():
                if col == target:
                    avoid = {shifted[parent[v]], x[v]}
                    new[v] = min(set(range(3)) - avoid)
            x = new
            rounds += 2
    return {v: col + 1 for v, col in x.items()}, rounds


def mis_to_weak2(pf, psi):
    """Greedy maximal independent set on the pointer graph by color classes
    1, 2, 3; members get label 1, the rest label 2.  Three rounds."""
    joined = set()
    for cls in (1, 2, 3):
        for v, col in psi.items():
            if col == cls and not any(u in joined for u in pf.pointer_neighbors(v)):
                joined.add(v)
    return {v: 1 if v in joined else 2 for v in psi}, 3


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


def weak_family_to_weak2(g, phi, k, c, validate=True):
    """Distance-k weak c-coloring -> weak 2-coloring, constant extra rounds."""
    phi2, r_recolor, _ = weak_to_weak2c(g, phi, k, c, validate=validate)
    pf = build_pseudoforest(g, phi2)
    psi, r_cv = cole_vishkin_reduce(pf, phi2, 2 * c)
    labels, r_mis = mis_to_weak2(pf, psi)
    stage_rounds = {"recolor": r_recolor, "pseudoforest": 1,
                    "color-reduction": r_cv, "mis": r_mis}
    return PipelineResult(labels=labels,
                          rounds=sum(stage_rounds.values()),
                          stage_rounds=stage_rounds, recolored=phi2,
                          pseudoforest_ports=pf.out_port, three_coloring=psi)


# ---------------------------------------------------------------------------
# Pointer-problem solvers
# ---------------------------------------------------------------------------


def _low_degree_map(g, ids):
    """One multi-source lexicographic Dijkstra from all low-degree nodes
    gives every node its preferred low-degree target (distance, then degree,
    then identifier; None if there is none), the distance, and a neighbor
    one step closer to the target.  Matches the per-node ball scan exactly."""
    INF = None
    target = [INF] * g.n
    dist = [0] * g.n
    pred = [INF] * g.n
    heap = []
    for u in range(g.n):
        if g.degree(u) < g.delta:
            heap.append((0, g.degree(u), ids[u], u, u, u))
    heapq.heapify(heap)
    done = [False] * g.n
    while heap:
        d, deg_u, id_u, u, v, via = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        target[v], dist[v], pred[v] = u, d, via
        for w in g.adjacent(v):
            if not done[w]:
                heapq.heappush(heap, (d + 1, deg_u, id_u, u, w, v))
    return target, dist, pred


def _ids(g, assignment):
    if assignment is None or assignment.ids is None:
        raise InvalidInputError("pointer solving needs identifiers")
    return [assignment.ids[v] for v in range(g.n)]


def _first_neighbor(g, v, closer):
    """Smallest-port neighbor of v for which ``closer`` holds."""
    for w in g.adjacent(v):
        if closer(w):
            return w
    raise InvalidInputError(f"no descent from {v} toward its target")


def _pointer_labels(g, r, ids, low, cycles):
    """Labels of the constructive case analysis at radius r, from the
    low-degree map ``low`` and a :class:`CycleIndex` that is exact up to r at every full-degree node.

    Low-degree nodes label themselves.  A full-degree node prefers its best
    cycle within effective distance r over any low-degree node, and
    otherwise the closest low-degree node within r; with neither it stays
    unlabeled.  (Chain consistency needs every cycle member to aim at a
    cycle: a member sitting closer to a leaf than its own cycle's detour
    term would otherwise break the shared degree guess.)  Cycle members
    follow the orientation fixed by the cycle's smallest-identifier node
    pointing toward its smaller cycle neighbor.  Everyone else points to
    its smallest-port neighbor one step closer to its target, guessing the
    target's degree unless some node further along prefers a cycle, in
    which case the guess is 0.  Distances to a cycle count full-degree
    paths only, so a chain toward a cycle never meets a low-degree node.
    """
    target, dist, _ = low
    best = cycles.best

    def cycle_of(v):
        b = best[v]
        return b if b is not None and b[0] <= r else None

    labels = {}
    successors = {}       # canonical cycle -> its successor map
    zero_ahead = {}       # low-degree chains: a cycle-preferring node lies ahead
    # increasing distance: a chain's next node is settled before its tail
    for v in sorted(range(g.n), key=dist.__getitem__):
        if g.degree(v) < g.delta:
            labels[v] = PointerLabel(d=g.degree(v), port=None)
            continue
        b = cycle_of(v)
        if b is not None:
            eff, key = b
            cyc = key[2]
            if cyc not in successors:
                successors[cyc] = _cycle_successor(cyc, ids)
            succ = successors[cyc]
            w = succ[v] if v in succ else _first_neighbor(
                g, v, lambda w: best[w] == (eff - 1, key))
            labels[v] = PointerLabel(d=0, port=g.port_toward(v, w))
        elif target[v] is not None and dist[v] <= r:
            u, d = target[v], dist[v]
            w = _first_neighbor(g, v, lambda w: target[w] == u and dist[w] == d - 1)
            zero_ahead[v] = cycle_of(w) is not None or zero_ahead.get(w, False)
            labels[v] = PointerLabel(d=0 if zero_ahead[v] else g.degree(u),
                                     port=g.port_toward(v, w))
    return labels


def solve_pointer_labeling_local(g, r, assignment):
    """Label the 1-neighborhoods of all nodes that see an irregularity
    within effective distance r; other nodes stay unlabeled.  The case
    analysis is that of :func:`_pointer_labels`.  Needs identifiers;
    gathers radius r plus another r of look-ahead.
    """
    ids = _ids(g, assignment)
    low = _low_degree_map(g, ids)
    if g.edge_count() == g.n - 1:
        return _tree_labels(g, r, low)
    cycles = CycleIndex(g, ids)
    cycles.require({v: r for v in range(g.n) if cycles.full[v]})
    return _pointer_labels(g, r, ids, low, cycles)


def _cycle_successor(cyc, ids):
    """Successor map of a cycle under its canonical orientation: the
    smallest-identifier node points toward its smaller-identifier cycle
    neighbor."""
    k = len(cyc)
    pos = min(range(k), key=lambda i: ids[cyc[i]])
    nxt, prv = cyc[(pos + 1) % k], cyc[(pos - 1) % k]
    forward = ids[nxt] < ids[prv]
    succ = {}
    for i, v in enumerate(cyc):
        succ[v] = cyc[(i + 1) % k] if forward else cyc[(i - 1) % k]
    return succ


def _tree_labels(g, r, low):
    """Labels of the nodes within distance r of their target, from the
    low-degree map of a tree."""
    target, dist, pred = low
    labels = {}
    for v in range(g.n):
        if dist[v] > r:
            continue
        if g.degree(v) < g.delta:
            labels[v] = PointerLabel(d=g.degree(v), port=None)
        else:
            labels[v] = PointerLabel(d=g.degree(target[v]),
                                     port=g.port_toward(v, pred[v]))
    return labels


def solve_pointer_labeling(g, assignment, metrics=None):
    """Total pointer labeling at the smallest radius at which every node
    sees an irregularity: the largest over all nodes of the smallest
    effective distance of an irregularity.  Returns (labels, rounds) with
    rounds = that radius.  On cyclic graphs one :class:`CycleIndex` serves
    the radius and the labels.  A ``metrics`` dict receives the radius and
    the cycle search's work counts."""
    ids = _ids(g, assignment)
    low = target, dist, _ = _low_degree_map(g, ids)
    cycles = None
    if g.edge_count() == g.n - 1:
        rounds = max(dist)
    else:
        cycles = CycleIndex(g, ids)
        full = [v for v in range(g.n) if cycles.full[v]]
        # a cycle moves a node's smallest effective distance only where it
        # beats the closest low-degree node
        unbounded = 2 * g.n
        cycles.require({v: unbounded if target[v] is None else dist[v] - 1
                        for v in full})
        rounds = 0
        for v in full:
            b = cycles.best[v]
            near = min(unbounded if b is None else b[0],
                       unbounded if target[v] is None else dist[v])
            if near == unbounded:
                raise InvalidInputError(f"node {v} sees no irregularity")
            rounds = max(rounds, near)
        cycles.require({v: rounds for v in full})
    if cycles is None:
        labels = _tree_labels(g, rounds, low)
    else:
        labels = _pointer_labels(g, rounds, ids, low, cycles)
    missing = [v for v in range(g.n) if v not in labels]
    if missing:
        raise InvalidInputError(f"nodes {missing[:5]} still unlabeled at r={rounds}")
    if metrics is not None:
        metrics.update(radius=rounds,
                       cycle_search_passes=cycles.passes if cycles else 0,
                       cycles_enumerated=len(cycles.keys) if cycles else 0)
    return labels, rounds


def pointer_terminal_degrees(g, start):
    """Degrees of the irregular nodes a pointer chain from ``start`` can
    terminate at: the non-full-degree nodes reachable through full-degree
    interiors.  On a tree this is exactly the set of feasible degree
    guesses at ``start``."""
    if g.degree(start) < g.delta:
        return {g.degree(start)}
    seen = {start}
    out = set()
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adjacent(v):
            if u in seen:
                continue
            seen.add(u)
            if g.degree(u) < g.delta:
                out.add(g.degree(u))
            else:
                stack.append(u)
    return out


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
    k = p_solver.rounds + r
    pointer_labels = solve_pointer_labeling_local(g, k, assignment)
    inner = run_node_algorithm(g, p_solver, assignment)
    labels = {v: HomogeneousLabel(inner=inner.get(v), pointer=pointer_labels.get(v))
              for v in range(g.n)}
    bad = [v for v in range(g.n)
           if v not in pointer_labels and not p_verifier(g, v, inner)]
    if bad:
        raise PSolverViolation(
            f"inner solver rejected on regular balls at nodes {bad[:5]}")
    return labels
