"""Per-node reference versions of what the program computes whole-array,
and the helpers only tests call.

Each definition is the one ``lclsim`` used to carry, body unchanged: the
per-node rules the whole-array LOCAL rounds replaced (``pointer_happy``,
``_closest_other_color``, the weak-coloring oracles), the dict BFS behind the
leaf-free check, the ``json.load`` path every graph file was read through,
the string-keyed copy ``run`` wrote its label maps through, the eager view
encoding, the per-draw seeded draws, the per-node weak-2 stages and
their dict handoff, the numpy count of a threshold's level, the ``Fraction``
right-hand side of the speedup inequality, the check that a derived edge
table codes its mask pairs by rank, the methods and formula only tests call,
and small graph, bound and enumeration helpers.  The per-point
speedup sweep is the one exception: its loop is unchanged, but it calls the
construction's kernels on masks it thresholds itself.  Tests import them as
they import ``conftest``.
"""

import json
import random
from dataclasses import dataclass
from itertools import chain

import mpmath
import numpy as np

from lclsim.algorithms import PipelineResult, cole_vishkin_step
from lclsim.bounds import PRECISION_BITS
from lclsim.cli import REPAIR_PASSES, NodeMap
from lclsim.engine import ENUM_BUDGET_BITS, Assignment, require_interior
from lclsim.errors import (BudgetExceededError, InvalidInputError, InvalidLabelingError,
                           InvalidInstanceError, InvalidParameterError)
from lclsim.graph import (FORMAT_NAME, FORMAT_VERSION, PortedGraph,
                          ball_irregularities, bfs_distances, bfs_levels,
                          dumps_canonical, edge_key)
from lclsim.oriented import KERNEL_BUDGET_BITS
from lclsim.problems import (HomogeneousLabel, PointerLabel, _sees_other_color,
                             verify_weak_coloring)
from lclsim.speedup import (GridPoint, SpeedupReport, _kernel_work,
                            _threshold_mask, default_f_grid, edge_local_failure,
                            edge_to_node_speedup, node_local_failure,
                            node_to_edge_speedup, optimizing_f)
from lclsim.views import _payload_of

# ---------------------------------------------------------------------------
# algorithms
# ---------------------------------------------------------------------------


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


def oracle_verify_weak_coloring(g, phi, c, k):
    for v in range(g.n):
        col = phi[v]
        if isinstance(col, bool) or not isinstance(col, int) or not 1 <= col <= c:
            raise InvalidLabelingError(f"color {col!r} of node {v} outside 1..{c}")
    return {v: _sees_other_color(g, v, phi, k) for v in range(g.n)}


def oracle_weak_to_weak2c(g, phi, k, c):
    results = oracle_verify_weak_coloring(g, phi, c, k)
    bad = [v for v, ok in results.items() if not ok]
    if bad:
        raise InvalidInputError(
            f"not a valid distance-{k} weak {c}-coloring; offenders {bad[:5]}")
    out = {}
    for v in range(g.n):
        _, dist, _ = _closest_other_color(g, v, phi, k)
        out[v] = (phi[v] - 1) * 2 + (dist % 2) + 1
    return out, k


def oracle_build_pseudoforest(g, phi2):
    """(out_port, parent, children) dicts."""
    out_port = {}
    for v in range(g.n):
        for u, mp, _ in g.neighbors(v):
            if phi2[u] != phi2[v]:
                out_port[v] = mp
                break
        else:
            raise InvalidInputError(f"node {v} has no differently-colored neighbor")
    parent = {v: g.neighbor_by_port(v, p) for v, p in out_port.items()}
    children = {v: [] for v in out_port}
    for v, w in parent.items():
        children[w].append(v)
    return out_port, parent, children


def oracle_cole_vishkin_reduce(parent, colors, c_prime):
    x = {v: colors[v] - 1 for v in colors}
    for v, w in parent.items():
        if x[v] == x[w]:
            raise InvalidInputError(f"colors of {v} and its pointer target agree")
    rounds = 0
    bound = c_prime
    while bound > 6:
        x = {v: cole_vishkin_step(x[v], x[parent[v]]) for v in x}
        bound = 2 * max(bound - 1, 1).bit_length()
        rounds += 1
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


def oracle_mis_to_weak2(parent, children, psi):
    joined = set()
    for cls in (1, 2, 3):
        for v, col in psi.items():
            if col == cls and not any(u in joined
                                      for u in [parent[v]] + children[v]):
                joined.add(v)
    return {v: 1 if v in joined else 2 for v in psi}, 3


def weak_family_to_weak2_dict_stages(g, phi, k, c):
    """The weak-2 pipeline as a chain of the per-node stage oracles, each
    handing the next a dict."""
    phi2, r_recolor = oracle_weak_to_weak2c(g, phi, k, c)
    out_port, parent, children = oracle_build_pseudoforest(g, phi2)
    psi, r_cv = oracle_cole_vishkin_reduce(parent, phi2, 2 * c)
    labels, r_mis = oracle_mis_to_weak2(parent, children, psi)
    stage_rounds = {"recolor": r_recolor, "pseudoforest": 1,
                    "color-reduction": r_cv, "mis": r_mis}
    return PipelineResult(labels=labels,
                          rounds=sum(stage_rounds.values()),
                          stage_rounds=stage_rounds, recolored=phi2,
                          pseudoforest_ports=out_port, three_coloring=psi)


# ---------------------------------------------------------------------------
# views and engine
# ---------------------------------------------------------------------------


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


def input_label(view, node):
    """The input label of ``node`` in ``view`` (was ``View.input_label``)."""
    return view.payload(node)[2]


def eager_view_encoding(g, center, t, assignment=None, inputs=None):
    """The encoding ``extract_view`` built when it extracted a view."""
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
        return ("E", head, first, second)
    return ("N", _unfold(g, center, None, t, assignment, inputs))


def randrange_draws(rng, top, count):
    """``count`` draws of ``rng.randrange(top)``, one call each."""
    return [rng.randrange(top) for _ in range(count)]


def with_bits(assignment, bits):
    """``assignment`` with other bits, the same ids (was
    ``Assignment.with_bits``)."""
    return Assignment(b=assignment.b, bits=bits, ids=assignment.ids)


def assignment_random(g, b, seed, with_ids=False):
    """``Assignment.random`` drawing one bit string per call."""
    rng = random.Random(seed)
    bits = {v: rng.randrange(1 << b) for v in range(g.n)}
    ids = None
    if with_ids:
        vals = list(range(1, g.n + 1))
        rng.shuffle(vals)
        ids = {v: vals[v] for v in range(g.n)}
    return Assignment(b=b, bits=bits, ids=ids)


def random_valid_weak_coloring(g, c, k, seed, passes=REPAIR_PASSES):
    """``cli.random_valid_weak_coloring`` drawing one color per call, with
    ``passes`` repair sweeps (its argument checks left out)."""
    rng = random.Random(seed)
    phi = {v: rng.randrange(1, c + 1) for v in range(g.n)}
    for _ in range(passes):
        bad = [v for v, ok in verify_weak_coloring(g, phi, c, k).items() if not ok]
        if not bad:
            return phi
        for v in bad:
            if _sees_other_color(g, v, phi, k):
                continue
            u = g.adjacent(v)[0]
            phi[u] = phi[v] % c + 1
    depth = bfs_levels(g, 0, None).tolist()
    odd = [col for col in range(1, c + 1) if col % 2 == 1]
    even = [col for col in range(1, c + 1) if col % 2 == 0]
    for block in (rng.randrange(1, k + 1), 1):
        phi = {v: rng.choice(odd if (depth[v] // block) % 2 == 0 else even)
               for v in range(g.n)}
        if all(verify_weak_coloring(g, phi, c, k).values()):
            return phi
    raise InvalidInputError("could not build a valid weak coloring")


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LclSpec:
    """A locally checkable labeling problem: finite output alphabet, check
    radius, and a per-node predicate over radius-r labeled views.  Inputs
    are fixed to the trivial alphabet here."""

    name: str
    output_alphabet: tuple
    radius: int
    verifier: object          # callable (g, v, labels) -> bool

    def verify(self, g, labels):
        return {v: bool(self.verifier(g, v, labels)) for v in range(g.n)}


def weak_coloring_spec(c, k):
    """Distance-k weak c-coloring as an LclSpec."""
    def check(g, v, labels):
        return _sees_other_color(g, v, labels, k)
    return LclSpec(name=f"weak-{c}-coloring(distance {k})",
                   output_alphabet=tuple(range(1, c + 1)),
                   radius=k, verifier=check)


def verify_weak_coloring_oracle(g, phi, c, k):
    """Independent brute force: all-pairs BFS distances, no early exit."""
    results = {}
    for v in range(g.n):
        dist = bfs_distances(g, v)
        results[v] = any(d <= k and phi[u] != phi[v] for u, d in dist.items())
    return results


def verify_weak_edge_coloring_oracle(g, psi, c, delta):
    """Independent restatement: enumerate the dimension pairs from scratch."""
    results = {}
    for v in range(g.n):
        edges_at = {}
        for u in g.adjacent(v):
            dim, sign = g.orientation_at(v, u)
            edges_at[(dim, sign)] = psi[edge_key(v, u)]
        ok = None
        for d in range(1, delta // 2 + 1):
            if (d, 1) in edges_at and (d, -1) in edges_at:
                ok = bool(ok) or edges_at[(d, 1)] != edges_at[(d, -1)]
        results[v] = True if ok is None else ok
    return results


def pointer_happy(g, v, labels, delta):
    """The five local conditions on pointer labels at node v.

    1. full-degree nodes point somewhere;
    2. low-degree nodes point nowhere and guess their own degree;
    3. the degree guess is constant along pointers;
    4. pointers never backtrack;
    5. a pointer into a pointerless node requires that node's degree to
       match the guess.
    A pointer into an unlabeled node violates conditions 3-5.
    """
    lab = labels.get(v)
    if lab is None:
        return False
    deg = g.degree(v)
    if deg == delta:
        if lab.port is None:
            return False
    else:
        if lab.port is not None or lab.d != deg:
            return False
    if lab.port is not None:
        u = g.neighbor_by_port(v, lab.port)
        lab_u = labels.get(u)
        if lab_u is None:
            return False
        if lab_u.d != lab.d:
            return False
        if lab_u.port is not None and g.neighbor_by_port(u, lab_u.port) == v:
            return False
        if lab_u.port is None and g.degree(u) != lab.d:
            return False
    return True


def walk_pointer_chain(g, labels, v):
    """Follow pointers from v until a pointerless node or a revisit.

    Returns ``(terminal, saw_cycle)``, the terminal of a cycle being the
    first node met twice (within n + 1 steps).  Used by the chain-walking
    property check: on an all-happy labeling every chain ends at a node
    whose degree equals the chain's guess, or closes a cycle.
    """
    seen = set()
    while labels[v].port is not None:
        if v in seen:
            return v, True
        seen.add(v)
        v = g.neighbor_by_port(v, labels[v].port)
    return v, False


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def _int_rows(rows):
    """JSON edge rows as an int64 array, read flat without a nested-list
    conversion; None unless they are int rows of one width, 4 or 6 (then
    ``from_edges`` judges them as given).  ``np.fromiter`` would truncate
    a float and parse a string, so the rows' sum first rejects those: it
    raises on a string or a list and comes out a float if any value is one.
    Rows of values no larger than 1, and rows holding a JSON boolean, also
    go to ``from_edges``, which tells JSON booleans from ints.
    """
    try:
        widths = set(map(len, rows))
        total = sum(chain.from_iterable(rows))
    except TypeError:
        return None
    if bool in map(type, chain.from_iterable(rows)):
        return None
    if type(total) is not int or len(widths) != 1 or not widths <= {4, 6}:
        return None
    width, = widths
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, width * len(rows))
    except OverflowError:
        return None
    return flat.reshape(-1, width) if flat.max() > 1 else None


def json_load_graph(path):
    """``PortedGraph.load`` as it read every file before compact edge rows
    were decoded as arrays: ``json.load``, then ``_int_rows``, then
    ``from_edges``."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidInstanceError(f"{path}: not a JSON object")
    if obj.get("format") != FORMAT_NAME or obj.get("version") != FORMAT_VERSION:
        raise InvalidParameterError(f"not a {FORMAT_NAME} v{FORMAT_VERSION} file")
    edges = obj["edges"]
    rows = _int_rows(edges)
    return PortedGraph.from_edges(obj["n"], edges if rows is None else rows,
                                  delta=obj["delta"], meta=obj.get("meta"))


def ball_is_leaf_free_dict(g, v, radius):
    """The leaf-free check over the dict BFS of ``bfs_distances``."""
    return all(g.degree(u) > 1 for u in bfs_distances(g, v, radius))


def distance(g, u, v):
    d = bfs_distances(g, u)
    if v not in d:
        raise InvalidParameterError(f"{v} unreachable from {u}")
    return d[v]


def induced_subgraph(g, nodes):
    """Induced subgraph on ``nodes`` with compact ids; ports and orientation
    labels carry over.  Returns ``(subgraph, old-to-new id map)``."""
    order = sorted(nodes)
    new_id = np.full(g.n, -1, np.int64)
    new_id[order] = np.arange(len(order))
    u, v, *labels = g.edge_columns()
    keep = (new_id[u] >= 0) & (new_id[v] >= 0)
    sub = PortedGraph._from_columns(len(order), new_id[u[keep]], new_id[v[keep]],
                                    *(col[keep] for col in labels), delta=g.delta)
    return sub, {v: i for i, v in enumerate(order)}


def closest_irregularity(g, v, r, ids=None):
    """Irregularity of minimum effective distance <= r seen from v.

    Preference at equal effective distance: cycles before low-degree nodes;
    cycle ties by smallest maximum identifier, then lexicographically
    smallest id sequence; low-degree ties by smallest degree, then smallest
    identifier.  Returns None when nothing qualifies (in particular whenever
    the radius-r ball is a full delta-regular tree).
    """
    low, cyc = ball_irregularities(g, v, r, ids)
    if low is None:
        return cyc[1] if cyc else None
    if cyc is None:
        return low[1]
    # distance first; a cycle wins an exact tie
    if cyc[1].effective_distance <= low[1].effective_distance:
        return cyc[1]
    return low[1]


def independent_set_size_formula(delta, steps):
    """Closed-form size of the extension set after the given steps."""
    shell = delta * (delta - 1) ** 6
    return shell * sum((delta - 1) ** i for i in range(1, steps + 1))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# Even, so the grid oracle's optimum D(1) = 1/2 is a grid point.
ZERO_ROUND_GRID_STEPS = 10**4


def claim_ball_radius(n, delta=4):
    """Radius k at which a leaf-free ball of a delta-regular tree contains
    exactly n^(1/3) nodes: log_{delta-1}((n^(1/3)-1)(delta-2)/delta + 1).
    For delta = 4 this is log3((n^(1/3)+1)/2)."""
    if delta < 3:
        raise InvalidParameterError("delta must be >= 3")
    if n < 8:
        raise InvalidParameterError("n too small")
    with mpmath.workprec(PRECISION_BITS):
        x = (mpmath.mpf(n) ** (mpmath.mpf(1) / 3) - 1) * (delta - 2) / delta + 1
        return float(mpmath.log(x, delta - 1))


def zero_round_optimum_grid(c, delta):
    """Independent 1-d confirmation for c = 2: grid search over D(1)."""
    if c != 2:
        raise InvalidParameterError("grid oracle is for two colors")
    best = None
    for i in range(ZERO_ROUND_GRID_STEPS + 1):
        p = i / ZERO_ROUND_GRID_STEPS
        val = p ** (delta + 1) + (1 - p) ** (delta + 1)
        if best is None or val < best[0]:
            best = (val, p)
    return best


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _check_budget(total_bits, budget_bits):
    if total_bits > budget_bits:
        raise BudgetExceededError(
            f"{total_bits} bits exceed the exact-enumeration budget of {budget_bits}")


def enumerate_assignments(region, b, budget_bits=ENUM_BUDGET_BITS):
    """Yield every bit map on ``region`` exactly once, counter order."""
    nodes = sorted(region)
    total_bits = b * len(nodes)
    _check_budget(total_bits, budget_bits)
    mask = (1 << b) - 1
    for counter in range(1 << total_bits):
        yield {u: (counter >> (i * b)) & mask for i, u in enumerate(nodes)}


# ---------------------------------------------------------------------------
# speedup
# ---------------------------------------------------------------------------


def level_by_mask(con, f):
    """The level of f, counted as ``_SpeedupConstruction`` counted it before
    the sorted counts were bisected: one numpy comparison of every distinct
    count with ceil(f * 2**completion_bits), clamped to 2**completion_bits + 1."""
    bits = con.completion_bits
    need = min(-(-(f.numerator << bits) // f.denominator), (1 << bits) + 1)
    return int((np.unique(con.dists) >= need).sum())


def pair_codes(table, masks, c):
    """``{packed pair: code}`` of a derived direction-1 edge table, checked
    to rank its mask pairs: per key and dimension, ``tables`` codes the pair
    ``P << c | M`` that the + endpoint sees and ``minus`` the half-swap
    ``M << c | P``, one code per distinct pair in use and ``table.c`` codes
    in all."""
    code_of = {}
    for dim in table.tables:
        plus, minus = masks[:, 2 * dim - 2], masks[:, 2 * dim - 1]
        for codes, pairs in ((table.tables[dim], plus << c | minus),
                             (table.minus[dim], minus << c | plus)):
            for code, pair in zip(codes.tolist(), pairs.tolist()):
                assert code_of.setdefault(pair, code) == code
    assert len(set(code_of.values())) == len(code_of) == table.c
    return code_of


def inequality_rhs_fractions(direction, p_prime, c, f, delta):
    """Lower bound the derived failure imposes on the source failure:
    (p' - delta*c*f) * f^delta for direction 1,
    (p' - (delta-1)*c*f) * f^(delta-1) for direction 2."""
    if direction == 1:
        return (p_prime - delta * c * f) * f**delta
    return (p_prime - (delta - 1) * c * f) * f**(delta - 1)


def verify_speedup_inequality_per_point(g, source, derived, cfg, direction,
                                        f_grid=None):
    """``verify_speedup_inequality`` as it ran before thresholds of one level
    shared their results: every f thresholds the stored counts itself and
    runs the derived kernel (and, for direction 1, the goodness check)."""
    require_interior(g, g.meta.get("center", 0), cfg.t + 1)
    if g.delta != cfg.delta:
        raise InvalidParameterError("graph degree does not match the config")
    if direction not in (1, 2):
        raise InvalidParameterError("direction must be 1 or 2")
    if f_grid is None:
        f_grid = default_f_grid()

    if direction == 1:
        construction = derived or node_to_edge_speedup(source, cfg)
        p = node_local_failure(source)
    else:
        construction = derived or edge_to_node_speedup(source, cfg)
        p = edge_local_failure(source)

    def evaluate(f):
        if direction == 1:
            masks = _threshold_mask(construction.dists, f, construction.completion_bits)
            p_prime = edge_local_failure(construction._edge_table(masks))
            gv = construction._goodness(masks)
        else:
            p_prime, gv = node_local_failure(construction.node_table(f)), None
        rhs = inequality_rhs_fractions(direction, p_prime, cfg.c, f, cfg.delta)
        return GridPoint(f=f, p_prime=p_prime, rhs=rhs, holds=p >= rhs,
                         goodness_violation=gv,
                         goodness_holds=None if gv is None else gv <= cfg.delta * cfg.c * f)

    at_f = evaluate(cfg.f)
    f_star = optimizing_f(direction, at_f.p_prime, cfg.c, cfg.delta)
    at_star = evaluate(f_star) if 0 < f_star < 1 else at_f
    points = [evaluate(f) for f in f_grid]
    all_points = [at_f, at_star] + points
    metrics = {"grid_points": 1 + (at_star is not at_f) + len(points),
               "kernel_budget_bits": KERNEL_BUDGET_BITS,
               "kernels": _kernel_work(direction, cfg.delta, cfg.t, cfg.b)}
    return SpeedupReport(
        direction=direction, cfg=cfg, p=p,
        p_prime=at_f.p_prime,
        optimal_f=f_star, p_prime_at_optimal=at_star.p_prime,
        grid=points,
        inequality_holds=all(pt.holds for pt in all_points),
        goodness_holds=all(pt.goodness_holds in (True, None) for pt in all_points),
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _label_json(lab):
    """One label as ``cmd_run``'s comprehensions spelled it, per label type."""
    if isinstance(lab, PointerLabel):
        return {"d": lab.d, "port": lab.port}
    if isinstance(lab, HomogeneousLabel):
        return {"inner": lab.inner,
                "pointer": None if lab.pointer is None
                else {"d": lab.pointer.d, "port": lab.pointer.port}}
    return lab


def _str_keyed(obj):
    if isinstance(obj, NodeMap):
        return {str(v): _label_json(lab) for v, lab in obj.labels.items()}
    if isinstance(obj, dict):
        return {k: _str_keyed(v) for k, v in obj.items()}
    return obj


def str_keyed_document(obj):
    """The text ``write_json`` wrote before node maps rendered themselves:
    every node map copied to a ``{str(node): label}`` dict, the whole
    document then encoded by one ``dumps_canonical`` call."""
    return dumps_canonical(_str_keyed(obj))
