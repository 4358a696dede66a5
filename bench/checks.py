"""Independent checkers for every output the benchmark makes the program
produce.

Nothing here imports ``lclsim``: the checkers read the JSON and CSV files the
CLI writes (or the plain values the engine workload records) and re-derive
each property from its definition, with their own graph walks and exact
``Fraction`` arithmetic.  Each checker returns a list of problem strings;
an empty list means the output is correct.

``python3 bench/checks.py`` runs the self-test, which shows that every
checker accepts a correct output and rejects a deliberately corrupted one.
"""

import csv
import io
import json
import math
import sys
from collections import deque
from fractions import Fraction

MAX_PROBLEMS = 5


class Problems(list):
    """Problem list that keeps the first few messages and a total count."""

    def __init__(self):
        super().__init__()
        self.total = 0

    def add(self, msg):
        self.total += 1
        if len(self) < MAX_PROBLEMS:
            self.append(msg)


class Graph:
    """Adjacency of a ``ported-graph`` v1 file: ``port_nbr[v][port] = u``."""

    def __init__(self, obj):
        self.n = obj["n"]
        self.delta = obj["delta"]
        self.port_nbr = [{} for _ in range(self.n)]
        self.adj = [[] for _ in range(self.n)]
        for row in obj["edges"]:
            u, v, pu, pv = row[:4]
            self.port_nbr[u][pu] = v
            self.port_nbr[v][pv] = u
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.deg = [len(a) for a in self.adj]


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def balanced_tree_size(delta, radius):
    return 1 + delta * ((delta - 1) ** radius - 1) // (delta - 2)


def bfs(g, sources, radius=None):
    """Multi-source BFS distances, optionally cut at ``radius``."""
    dist = {s: 0 for s in sources}
    q = deque(sources)
    while q:
        x = q.popleft()
        if radius is not None and dist[x] >= radius:
            continue
        for y in g.adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


# ---------------------------------------------------------------------------
# Generated graph file
# ---------------------------------------------------------------------------


def _slot(dim, sign):
    return 2 * (dim - 1) + (0 if sign > 0 else 1)


def check_generated_tree(obj, delta, radius):
    """Oriented balanced tree file: closed-form node and edge counts, ports
    in [0, delta) and equal to the direction slot at both ends, at most one
    edge per direction at every node, connected, interior degree delta and
    leaves exactly at depth ``radius``."""
    out = Problems()
    n = balanced_tree_size(delta, radius)
    if obj.get("format") != "ported-graph" or obj.get("version") != 1:
        out.add("not a ported-graph v1 file")
    if obj.get("n") != n or obj.get("delta") != delta:
        out.add(f"n={obj.get('n')} delta={obj.get('delta')}, expected n={n} delta={delta}")
        return out
    rows = obj["edges"]
    if len(rows) != n - 1:
        out.add(f"{len(rows)} edges, expected {n - 1}")
    ports = [set() for _ in range(n)]
    dirs = [set() for _ in range(n)]
    for row in rows:
        if len(row) != 6:
            out.add(f"edge row {row} is not (u, v, pu, pv, dim, sign)")
            continue
        u, v, pu, pv, d, s = row
        if not (0 <= u < n and 0 <= v < n) or u == v:
            out.add(f"edge {u}-{v} has a bad endpoint")
            continue
        if not (0 <= pu < delta and 0 <= pv < delta):
            out.add(f"edge {u}-{v} has a port outside [0, {delta})")
        if not (1 <= d <= delta // 2) or s not in (1, -1):
            out.add(f"edge {u}-{v} is not oriented: dim={d} sign={s}")
            continue
        for x, p, sx in ((u, pu, s), (v, pv, -s)):
            if p in ports[x]:
                out.add(f"node {x} uses port {p} twice")
            ports[x].add(p)
            if (d, sx) in dirs[x]:
                out.add(f"node {x} has two ({d},{sx:+d}) edges")
            dirs[x].add((d, sx))
            if p != _slot(d, sx):
                out.add(f"port {p} at node {x} is not the slot of ({d},{sx:+d})")
    if out.total:
        return out
    g = Graph(obj)
    depth = bfs(g, [0])
    if len(depth) != n:
        out.add(f"only {len(depth)} of {n} nodes reachable from the center")
        return out
    for v in range(n):
        want = 1 if depth[v] == radius else delta
        if g.deg[v] != want or depth[v] > radius:
            out.add(f"node {v} at depth {depth[v]} has degree {g.deg[v]}")
    return out


# ---------------------------------------------------------------------------
# Pointer labelings
# ---------------------------------------------------------------------------


def pointer_labels_from(raw):
    """``{"v": {"d": .., "port": ..}}`` -> ``{v: (d, port)}``."""
    return {int(v): (lab["d"], lab["port"]) for v, lab in raw.items()}


def check_pointer_labels(g, labels, nodes=None):
    """The five local conditions at every judged node, then every chain
    followed to a pointerless node whose degree equals the guess, or to a
    cycle.  ``nodes`` restricts the judged set (default: all nodes, each of
    which must be labeled); a pointer into an unlabeled node is a fault."""
    out = Problems()
    judged = range(g.n) if nodes is None else sorted(nodes)
    for v in judged:
        lab = labels.get(v)
        if lab is None:
            out.add(f"node {v} is unlabeled")
            continue
        d, port = lab
        if g.deg[v] == g.delta:
            if port is None:
                out.add(f"full-degree node {v} has no pointer")
        elif port is not None or d != g.deg[v]:
            out.add(f"low-degree node {v} must point nowhere and guess {g.deg[v]}")
        if port is None:
            continue
        u = g.port_nbr[v].get(port)
        if u is None:
            out.add(f"node {v} points through missing port {port}")
            continue
        lab_u = labels.get(u)
        if lab_u is None:
            out.add(f"node {v} points into unlabeled node {u}")
            continue
        if lab_u[0] != d:
            out.add(f"guess changes along pointer {v}->{u}")
        if lab_u[1] is not None and g.port_nbr[u].get(lab_u[1]) == v:
            out.add(f"pointers {v}<->{u} backtrack")
        if lab_u[1] is None and g.deg[u] != d:
            out.add(f"chain of {v} ends at degree {g.deg[u]}, guess {d}")
    if out.total:
        return out
    # chain walk; end[x] = terminal degree, or -1 for a chain into a cycle
    end = {}
    for v in judged:
        path = []
        on_path = set()
        x = v
        while x not in end and x not in on_path:
            on_path.add(x)
            path.append(x)
            d, port = labels[x]
            if port is None:
                end[x] = g.deg[x]
                break
            x = g.port_nbr[x][port]
        result = end.get(x, -1)
        for y in path:
            end[y] = result
            if result >= 0 and labels[y][0] != result:
                out.add(f"chain from {y} ends at degree {result}, guess {labels[y][0]}")
    return out


def check_tree_pointer_run(g, out_obj, radius):
    """solve-pointers on the balanced tree: valid labeling, reported rounds
    equal the radius, and every guess is 1 (all irregularities are leaves)."""
    labels = pointer_labels_from(out_obj["labels"])
    probs = check_pointer_labels(g, labels)
    if out_obj.get("rounds") != radius:
        probs.add(f"rounds {out_obj.get('rounds')} != radius {radius}")
    bad = [v for v, (d, _) in labels.items() if d != 1]
    if bad:
        probs.add(f"{len(bad)} nodes guess a degree other than 1, e.g. {bad[0]}")
    return probs


def check_report(out_obj, n):
    probs = Problems()
    rep = out_obj.get("report", {})
    if rep.get("fail_nodes") or rep.get("pass_count") != n:
        probs.add(f"program's own report: {rep.get('pass_count')} of {n} pass")
    return probs


# ---------------------------------------------------------------------------
# Weak 2-coloring with stage dump
# ---------------------------------------------------------------------------


def check_weak2(g, out_obj):
    """Every node sees a different color; the dumped stages are consistent:
    recolored colors extend the input colors by a parity bit, pseudoforest
    pointers go to differently recolored neighbors, the 3-coloring is proper
    along the pointers, and the independent set (the output) is independent
    and maximal in the pointer graph."""
    out = Problems()
    n = g.n
    labels = {int(v): c for v, c in out_obj["labels"].items()}
    if len(labels) != n:
        out.add(f"{len(labels)} labels for {n} nodes")
        return out
    for v in range(n):
        col = labels[v]
        if col not in (1, 2):
            out.add(f"node {v} has color {col!r}")
        elif all(labels[u] == col for u in g.adj[v]):
            out.add(f"node {v} sees only its own color")
    if sum(out_obj.get("stage_rounds", {}).values()) != out_obj.get("rounds"):
        out.add("rounds is not the sum of the stage rounds")
    st = out_obj.get("stages")
    if st is None:
        out.add("no stages dumped")
        return out
    inp = {int(v): c for v, c in st["input"].items()}
    rec = {int(v): c for v, c in st["recolored"].items()}
    pf = {int(v): p for v, p in st["pseudoforest_ports"].items()}
    psi = {int(v): c for v, c in st["three_coloring"].items()}
    mis = {int(v): c for v, c in st["independent_set"].items()}
    if not all(len(m) == n for m in (inp, rec, pf, psi, mis)):
        out.add("a stage does not cover every node")
        return out
    parent = {}
    for v in range(n):
        if rec[v] not in (2 * inp[v] - 1, 2 * inp[v]):
            out.add(f"recolored {rec[v]} at {v} does not extend input {inp[v]}")
        u = g.port_nbr[v].get(pf[v])
        if u is None:
            out.add(f"pseudoforest pointer of {v} uses missing port {pf[v]}")
            continue
        parent[v] = u
        if rec[u] == rec[v]:
            out.add(f"pseudoforest pointer {v}->{u} joins equal recolored colors")
        if psi[v] not in (1, 2, 3) or psi[v] == psi[u]:
            out.add(f"3-coloring is not proper along pointer {v}->{u}")
    if out.total:
        return out
    member = {v for v in range(n) if mis[v] == 1}
    covered = set(member)
    for v, u in parent.items():
        if v in member and u in member:
            out.add(f"independent set contains pointer edge {v}-{u}")
        if v in member:
            covered.add(u)
        if u in member:
            covered.add(v)
    if len(covered) != n:
        v = min(set(range(n)) - covered)
        out.add(f"independent set is not maximal at node {v}")
    if any(mis[v] != labels[v] for v in range(n)):
        out.add("output labels differ from the dumped independent set")
    return out


# ---------------------------------------------------------------------------
# Homogeneous problem, constant inner solver
# ---------------------------------------------------------------------------


def check_homogeneous(g, out_obj, r):
    """Exactly the nodes within distance r of a low-degree node carry a
    pointer label (found by this module's own BFS), those pointer labels
    form a valid pointer labeling on their own, and every inner label is
    the constant 1."""
    out = Problems()
    raw = out_obj["labels"]
    if len(raw) != g.n:
        out.add(f"{len(raw)} labels for {g.n} nodes")
        return out
    pointer = {}
    for v, lab in raw.items():
        if lab["inner"] != 1:
            out.add(f"inner label of {v} is {lab['inner']!r}")
        if lab["pointer"] is not None:
            pointer[int(v)] = (lab["pointer"]["d"], lab["pointer"]["port"])
    low = [v for v in range(g.n) if g.deg[v] < g.delta]
    near = set(bfs(g, low, r))
    if set(pointer) != near:
        extra = sorted(set(pointer) - near)[:1]
        missing = sorted(near - set(pointer))[:1]
        out.add(f"pointer set != radius-{r} leaf neighborhood "
                f"(extra {extra}, missing {missing})")
        return out
    out.extend(check_pointer_labels(g, pointer, nodes=near))
    return out


# ---------------------------------------------------------------------------
# Speedup reports
# ---------------------------------------------------------------------------


def frac(obj):
    return Fraction(obj["exact"])


def inequality_rhs(direction, p_prime, c, f, delta):
    if direction == 1:
        return (p_prime - delta * c * f) * f ** delta
    return (p_prime - (delta - 1) * c * f) * f ** (delta - 1)


def closed_form_p(direction, source, delta, b, c):
    """Exact source failure where a closed form is known, else None."""
    if source == "constant":
        return Fraction(1)
    if direction == 1:
        if source == "own-bit":
            return Fraction(1, 2 ** delta)
        if source == "center-mod" and (2 ** b) % c == 0:
            return Fraction(1, c ** delta)
        return None
    # direction 2: a dimension fails when its two edge labels agree, which
    # for these sources means the two far endpoints agree (mod c)
    if source == "xor":
        return Fraction(1, 2 ** (delta // 2))
    if source == "endpoint-sum" and (2 ** b) % c == 0:
        return Fraction(1, c ** (delta // 2))
    return None


def check_speedup(rep, direction, source, delta, t, b, c, f, grid, rc):
    """Recompute every grid point's right-hand side (and, for direction 1,
    the goodness bound) from the reported exact values, require p >= rhs
    everywhere, and compare p with its closed form where one exists."""
    out = Problems()
    cfg = rep["cfg"]
    if (cfg["delta"], cfg["t"], cfg["b"], cfg["c"]) != (delta, t, b, c) \
            or frac(cfg["f"]) != f:
        out.add(f"report config {cfg} does not match the request")
        return out
    p = frac(rep["p"])
    want = closed_form_p(direction, source, delta, b, c)
    if want is not None and p != want:
        out.add(f"p = {p}, closed form {want}")
    if not 0 <= p <= 1:
        out.add(f"p = {p} is not a probability")
    if (direction, source, delta, t, b, f) == (1, "own-bit", 4, 1, 1, Fraction(1, 40)) \
            and (p, frac(rep["p_prime"])) != (Fraction(1, 16), Fraction(1, 4)):
        out.add(f"canonical case: p={p} p'={frac(rep['p_prime'])}, expected 1/16 and 1/4")
    points = rep["f_grid_results"]
    if [frac(pt["f"]) for pt in points] != [Fraction(j, grid + 1) for j in range(1, grid + 1)]:
        out.add("threshold grid is not j/(grid+1), j = 1..grid")
    checked = [(f, frac(rep["p_prime"]))]
    f_star = frac(rep["optimal_f"])
    den = (delta + 1) * c if direction == 1 else delta * c
    if f_star != frac(rep["p_prime"]) / den:
        out.add(f"optimal f {f_star} != p'/{den}")
    if 0 < f_star < 1:
        checked.append((f_star, frac(rep["p_prime_at_optimal"])))
    all_hold = True
    for pt in points:
        fj, pp = frac(pt["f"]), frac(pt["p_prime"])
        rhs = inequality_rhs(direction, pp, c, fj, delta)
        if frac(pt["rhs"]) != rhs:
            out.add(f"rhs at f={fj} is {frac(pt['rhs'])}, recomputed {rhs}")
        if pt["holds"] != (p >= rhs):
            out.add(f"'holds' at f={fj} disagrees with p >= rhs")
        if direction == 1:
            gv = frac(pt["goodness_violation"])
            if not 0 <= gv <= 1 or pt["goodness_holds"] != (gv <= delta * c * fj):
                out.add(f"goodness flag at f={fj} disagrees with the bound")
            elif gv > delta * c * fj:
                out.add(f"goodness bound fails at f={fj}: {gv}")
        checked.append((fj, pp))
    for fj, pp in checked:
        if not 0 <= pp <= 1:
            out.add(f"p' = {pp} at f={fj} is not a probability")
        if p < inequality_rhs(direction, pp, c, fj, delta):
            all_hold = False
            out.add(f"inequality fails at f={fj}: p={p}")
    if rep["inequality_holds"] != all_hold:
        out.add("inequality_holds disagrees with the recomputation")
    if rc != (0 if rep["inequality_holds"] else 1):
        out.add(f"exit code {rc} for inequality_holds={rep['inequality_holds']}")
    return out


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


def _close(x, y, rel=1e-9):
    return math.isclose(x, y, rel_tol=rel, abs_tol=0.0) or x == y


def iterated_log2(x, times):
    for _ in range(times):
        x = math.log2(x)
    return x


def check_recurrence(rows, c0, p0, t_max, delta):
    """bound = (p0/((delta+1) c0))^((delta+1)^(2t+1)); log2_bound within 1
    of its exact log2."""
    out = Problems()
    if [r["t"] for r in rows] != list(range(t_max + 1)):
        out.add("recurrence rows do not cover t = 0..t_max")
        return out
    base = Fraction(p0) / ((delta + 1) * c0)
    for r in rows:
        expo = (delta + 1) ** (2 * r["t"] + 1)
        log2_exact = expo * (math.log2(base.numerator) - math.log2(base.denominator))
        if abs(r["log2_bound"] - log2_exact) > 1:
            out.add(f"t={r['t']}: log2_bound {r['log2_bound']}, exact {log2_exact:.3f}")
        want = float(base ** expo) if log2_exact > -1100 else 0.0
        if not _close(r["bound"], want):
            out.add(f"t={r['t']}: bound {r['bound']}, recomputed {want}")
        if r["agrees_with_iteration"] is not True:
            out.add(f"t={r['t']}: closed form and iteration disagree")
    return out


def check_global(rows, ns, t, b):
    """(1 - 1/log^(2b) n)^(n^(1/(3(2t+1)))) + 1/(2 n^(1/3)) and its
    exponential relaxation, in floating point."""
    out = Problems()
    if [r["n"] for r in rows] != list(ns):
        out.add("global rows do not match the requested n")
        return out
    for r in rows:
        n = r["n"]
        tower = iterated_log2(float(n), 2 * b)
        expo = n ** (1 / (3 * (2 * t + 1)))
        id_term = 1 / (2 * n ** (1 / 3))
        loglog = iterated_log2(float(n), 2)
        bound = (1 - 1 / tower) ** expo + id_term
        relaxed = math.exp(-expo / loglog) + id_term
        if not (_close(r["bound"], bound, 1e-6) and _close(r["relaxed"], relaxed, 1e-6)):
            out.add(f"n={n}: bound/relaxed {r['bound']}/{r['relaxed']}, "
                    f"recomputed {bound}/{relaxed}")
        if r["condition_holds"] != (expo / loglog > 2):
            out.add(f"n={n}: condition flag is wrong")
    return out


def check_zero_round(text, cs, delta):
    """closed_form = c^-delta, the numeric minimum agrees with it, and gap
    is their difference."""
    out = Problems()
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["c"]) for r in rows] != list(cs):
        out.add("zero-round rows do not match the requested c")
        return out
    for r in rows:
        c = int(r["c"])
        closed = float(r["closed_form"])
        num = float(r["numeric_minimum"])
        if not _close(closed, c ** -delta):
            out.add(f"c={c}: closed form {closed} != c^-{delta}")
        if not _close(num, closed, 1e-6):
            out.add(f"c={c}: numeric minimum {num} far from {closed}")
        if not _close(float(r["gap"]), abs(num - closed), 1e-6):
            out.add(f"c={c}: gap is not |numeric - closed|")
    return out


def check_id_collision(rows, ns):
    """value = C(n^(1/3), 2)/n against bound 1/(2 n^(1/3))."""
    out = Problems()
    if [r["n"] for r in rows] != list(ns):
        out.add("id-collision rows do not match the requested n")
        return out
    for r in rows:
        x = r["n"] ** (1 / 3)
        value = x * (x - 1) / (2 * r["n"])
        bound = 1 / (2 * x)
        if not (_close(r["value"], value, 1e-6) and _close(r["bound"], bound, 1e-6)):
            out.add(f"n={r['n']}: value/bound {r['value']}/{r['bound']}, "
                    f"recomputed {value}/{bound}")
        if r["holds"] != (value < bound):
            out.add(f"n={r['n']}: holds flag is wrong")
    return out


# ---------------------------------------------------------------------------
# Engine enumeration
# ---------------------------------------------------------------------------


def check_engine_exact(rec):
    """The engine's exact enumeration equals the counting kernel's value."""
    out = Problems()
    if rec["mode"] != "exact" or Fraction(rec["engine"]) != Fraction(rec["kernel"]):
        out.add(f"engine {rec['engine']} ({rec['mode']}) != kernel {rec['kernel']}")
    return out


def check_engine_mc(rec):
    """The Monte Carlo estimate lies within its Hoeffding radius (recomputed
    here) of the exact value."""
    out = Problems()
    radius = math.sqrt(math.log(2.0 / (1.0 - rec["confidence"])) / (2.0 * rec["samples"]))
    if rec["mode"] != "monte-carlo" or not _close(rec["error"], radius):
        out.add(f"Monte Carlo radius {rec['error']} != Hoeffding {radius}")
    if abs(rec["value"] - float(Fraction(rec["exact"]))) > radius:
        out.add(f"estimate {rec['value']} outside {rec['exact']} +- {radius}")
    return out


# ---------------------------------------------------------------------------
# Self-test: each checker accepts a good output and rejects a corrupted one
# ---------------------------------------------------------------------------


def _tree_file(delta, radius):
    """Oriented balanced tree in the generator's file format, built here."""
    edges = []
    frontier = [(0, None)]
    nxt_id = 1
    for _ in range(radius):
        nxt = []
        for v, came in frontier:
            for slot in range(delta):
                if came is not None and slot == came ^ 1:
                    continue
                u = nxt_id
                nxt_id += 1
                d, s = slot // 2 + 1, (1 if slot % 2 == 0 else -1)
                edges.append([v, u, slot, slot ^ 1, d, s])
                nxt.append((u, slot))
        frontier = nxt
    return {"format": "ported-graph", "version": 1, "n": nxt_id, "delta": delta,
            "edges": sorted(edges), "meta": {"center": 0, "oriented": True}}


def _graph(n, delta, pairs):
    nextp = [0] * n
    rows = []
    for u, v in pairs:
        rows.append([u, v, nextp[u], nextp[v], 0, 0])
        nextp[u] += 1
        nextp[v] += 1
    return Graph({"n": n, "delta": delta, "edges": rows})


def _tree_pointer_output(g):
    """Pointer labels on a balanced tree: point toward the nearest leaf."""
    leaves = [v for v in range(g.n) if g.deg[v] < g.delta]
    dist = bfs(g, leaves)
    labels = {}
    for v in range(g.n):
        if g.deg[v] < g.delta:
            labels[str(v)] = {"d": g.deg[v], "port": None}
            continue
        port = min(p for p, u in g.port_nbr[v].items() if dist[u] == dist[v] - 1)
        labels[str(v)] = {"d": 1, "port": port}
    return {"labels": labels, "rounds": max(dist.values())}


def self_test():
    """Return the names of checkers that failed to accept a good output or
    to reject its corrupted copy."""
    failures = []

    def expect(name, good, bad):
        if good:
            failures.append(f"{name} rejected a correct output: {good[:1]}")
        if not bad:
            failures.append(f"{name} accepted a corrupted output")

    tree = _tree_file(4, 3)
    broken = json.loads(json.dumps(tree))
    broken["edges"][5][5] = -broken["edges"][5][5]
    expect("generated-tree", check_generated_tree(tree, 4, 3),
           check_generated_tree(broken, 4, 3))

    g = Graph(tree)
    ptr = _tree_pointer_output(g)
    bad = json.loads(json.dumps(ptr))
    v = next(k for k, lab in bad["labels"].items() if lab["port"] is not None)
    bad["labels"][v]["d"] = 3
    expect("tree pointer", check_tree_pointer_run(g, ptr, 3),
           check_tree_pointer_run(g, bad, 3))

    # a 4-cycle with every node at full degree: chains close the cycle
    ring = _graph(4, 2, [(0, 1), (1, 2), (2, 3), (3, 0)])
    toward = {(v, u): p for v in range(4) for p, u in ring.port_nbr[v].items()}
    around = {v: (0, toward[(v, (v + 1) % 4)]) for v in range(4)}
    back = dict(around)
    back[1] = (0, toward[(1, 0)])
    expect("cyclic pointer", check_pointer_labels(ring, around),
           check_pointer_labels(ring, back))

    # weak 2-coloring on a path 0-1-2-3 with a consistent stage dump
    path = _graph(4, 2, [(0, 1), (1, 2), (2, 3)])
    port = {(v, u): p for v in range(4) for p, u in path.port_nbr[v].items()}
    w2 = {"labels": {"0": 1, "1": 2, "2": 2, "3": 1}, "rounds": 3,
          "stage_rounds": {"a": 1, "b": 2},
          "stages": {"input": {"0": 1, "1": 1, "2": 2, "3": 2},
                     "recolored": {"0": 1, "1": 2, "2": 3, "3": 4},
                     "pseudoforest_ports": {"0": port[(0, 1)], "1": port[(1, 0)],
                                            "2": port[(2, 3)], "3": port[(3, 2)]},
                     "three_coloring": {"0": 1, "1": 2, "2": 1, "3": 2},
                     "independent_set": {"0": 1, "1": 2, "2": 2, "3": 1}}}
    bad = json.loads(json.dumps(w2))
    bad["labels"]["3"] = 2
    bad["stages"]["independent_set"]["3"] = 2
    expect("weak-2", check_weak2(path, w2), check_weak2(path, bad))

    hom = {"labels": {}}
    near = bfs(g, [v for v in range(g.n) if g.deg[v] < g.delta], 1)
    for v, lab in ptr["labels"].items():
        hom["labels"][v] = {"inner": 1, "pointer": lab if int(v) in near else None}
    bad = json.loads(json.dumps(hom))
    bad["labels"]["0"]["pointer"] = {"d": 1, "port": 0}
    expect("homogeneous", check_homogeneous(g, hom, 1), check_homogeneous(g, bad, 1))

    def report(p, p_prime, gv):
        f = Fraction(1, 40)
        pts = []
        for j in range(1, 4):
            fj = Fraction(j, 4)
            rhs = inequality_rhs(1, p_prime, 2, fj, 4)
            pts.append({"f": _ex(fj), "p_prime": _ex(p_prime), "rhs": _ex(rhs),
                        "holds": p >= rhs, "goodness_violation": _ex(gv),
                        "goodness_holds": gv <= 8 * fj})
        f_star = p_prime / 10
        return {"cfg": {"delta": 4, "t": 1, "b": 1, "c": 2, "f": _ex(f)},
                "p": _ex(p), "p_prime": _ex(p_prime), "optimal_f": _ex(f_star),
                "p_prime_at_optimal": _ex(p_prime), "f_grid_results": pts,
                "inequality_holds": True}
    good = report(Fraction(1, 16), Fraction(1, 4), Fraction(0))
    bad = report(Fraction(0), Fraction(1, 4), Fraction(0))
    expect("speedup", check_speedup(good, 1, "own-bit", 4, 1, 1, 2, Fraction(1, 40), 3, 0),
           check_speedup(bad, 1, "own-bit", 4, 1, 1, 2, Fraction(1, 40), 3, 0))

    rows = [{"t": 0, "log2_bound": -36, "bound": float(Fraction(1, 160) ** 5),
             "agrees_with_iteration": True}]
    expect("recurrence", check_recurrence(rows, 2, Fraction(1, 16), 0, 4),
           check_recurrence([dict(rows[0], log2_bound=-30)], 2, Fraction(1, 16), 0, 4))
    n = 4096
    tower = iterated_log2(n, 2)
    row = {"n": n, "bound": (1 - 1 / tower) ** 16 + 1 / 32,
           "relaxed": math.exp(-16 / tower) + 1 / 32, "condition_holds": True}
    expect("global", check_global([row], [n], 0, 1),
           check_global([dict(row, bound=0.5)], [n], 0, 1))
    text = "c,delta,closed_form,numeric_minimum,gap\n2,4,0.0625,0.0625,0.0\n"
    expect("zero-round", check_zero_round(text, [2], 4),
           check_zero_round(text.replace("0.0625,0.0625", "0.0625,0.07"), [2], 4))
    rows = [{"n": 1000, "value": 0.045, "bound": 0.05, "holds": True}]
    expect("id-collision", check_id_collision(rows, [1000]),
           check_id_collision([dict(rows[0], holds=False)], [1000]))

    rec = {"mode": "exact", "engine": "273/4096", "kernel": "273/4096"}
    expect("engine exact", check_engine_exact(rec),
           check_engine_exact(dict(rec, engine="272/4096")))
    rec = {"mode": "monte-carlo", "value": 0.07, "exact": "273/4096",
           "samples": 20000, "confidence": 0.99,
           "error": math.sqrt(math.log(200.0) / 40000.0)}
    expect("engine Monte Carlo", check_engine_mc(rec),
           check_engine_mc(dict(rec, value=0.2)))
    return failures


def _ex(x):
    return {"exact": f"{x.numerator}/{x.denominator}", "value": float(x)}


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line, file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)
