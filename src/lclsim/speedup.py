"""Node-to-edge and edge-to-node speedup constructions with exact
verification of their failure-probability inequalities.

All probabilities here are exact rationals: conditioning on the bits of a
center ball factorizes the failure events across branches of the tree, so
every probability is an integer count over packed bit assignments divided
by a power of two.  The inequalities being checked have right-hand sides
around 1e-8, far below float comfort.

Both speedup constructions keep their conditional color counts as one
``(keys, delta, c)`` array, a column per direction slot (as in ``oriented``),
and threshold and evaluate them once per level of the threshold f.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .engine import DirectedPair, LocalAlgorithm, require_interior
from .errors import BudgetExceededError, InvalidInputError, InvalidParameterError
from .oriented import (KERNEL_BUDGET_BITS, EdgeTable, NodeTable, _check_table_bits,
                       ball_paths, edge_ball, edge_positions, endpoint_completion_frame,
                       incident_edge_frame, key_tables, neighbor_frame, node_ball,
                       overlap_tables, pack_key)


@dataclass(frozen=True)
class SpeedupConfig:
    """Parameters of one speedup application: tree degree, source palette
    size, source round count, frequency threshold and bits per node."""

    delta: int
    c: int
    t: int
    f: Fraction
    b: int

    def __post_init__(self):
        if not (0 < self.f < 1):
            raise InvalidParameterError("threshold f must satisfy 0 < f < 1")
        if self.delta % 2 != 0 or self.delta < 2:
            raise InvalidParameterError("delta must be even and positive")
        if self.b < 1:
            raise InvalidParameterError("b (random bits per node) must be >= 1")
        if self.c < 2:
            raise InvalidParameterError("c (palette size) must be >= 2")
        if self.t < 0:
            raise InvalidParameterError("t (rounds) must be >= 0")


def default_f_grid(points=100):
    """Exact rationals j/(points+1), j = 1..points, all inside (0, 1)."""
    return [Fraction(j, points + 1) for j in range(1, points + 1)]


# ---------------------------------------------------------------------------
# Exact local failure probabilities on the homogeneous oriented tree
# ---------------------------------------------------------------------------


def _neighbor_frames(delta, t):
    return [neighbor_frame(delta, t, d) for d in range(delta)]


def _incident_frames(delta, t, s):
    return [incident_edge_frame(delta, t, s, d) for d in range(delta)]


def _endpoint_frames(delta, t, s):
    """Per direction slot, the radius-t ball of the slot's endpoint (even
    slots: the + endpoint) inside the radius-s edge ball of its dimension."""
    return [endpoint_completion_frame(delta, t, s, d // 2 + 1, "PM"[d % 2])
            for d in range(delta)]


def _count_dtype(b, m, free_count, delta):
    """int64 while the failure count, at most ``2**(b*(m + free_count*delta))``,
    fits in 62 bits; Python ints (object arrays) beyond."""
    return np.int64 if b * (m + free_count * delta) <= 62 else object


def _branch_product(branches, b, m, free_count, delta):
    """Pr[every branch fails] from the branches' per-center-key counts of
    failing completions, independent given the key: the sum of their products
    over ``2**(b*m)`` keys times ``2**(b*free_count)`` per direction."""
    dtype = _count_dtype(b, m, free_count, delta)
    prod = math.prod(counts.astype(dtype, copy=False) for counts in branches)
    return Fraction(int(prod.sum()), 1 << (b * (m + free_count * delta)))


def _matches_per_key(rank, n_colors, proj, targets):
    """``counts[k] = #{r : rank[targets[proj[k], r]] == rank[k]}``: sort the
    (overlap row, color) pairs of the ``(U, R)`` target matrix once, then
    search each source key's pair.  Colors enter as ranks in the table's
    palette, so a pair code ``u * n_colors + rank`` stays below 2**44 (u
    and rank each below 2**TABLE_BITS_CAP) whatever palette size the
    table declares."""
    rows = np.arange(targets.shape[0], dtype=np.int64)[:, None]
    pairs = np.sort((rows * n_colors + rank[targets]).ravel())
    query = proj * n_colors + rank
    return (np.searchsorted(pairs, query, side="right")
            - np.searchsorted(pairs, query, side="left"))


def node_local_failure(alg):
    """Pr[every neighbor outputs the center's color], exactly.

    Conditioned on the bits of the center's radius-t ball, the neighbors'
    outputs are independent (their unseen bit regions are disjoint subtrees),
    so the joint probability is a product of per-branch counts.  A branch
    count reads the center key only through the bits where the neighbor's
    ball overlaps it, so it is counted once per overlap value
    (``oriented.overlap_tables``) and looked up per center key.
    """
    delta, t, b = alg.delta, alg.t, alg.b
    m = len(ball_paths(delta, t))
    palette, rank = np.unique(alg.table, return_inverse=True)
    frames = _neighbor_frames(delta, t)
    return _branch_product(
        (_matches_per_key(rank, palette.size, *overlap_tables(fr, b, m)) for fr in frames),
        b, m, frames[0].free_count, delta)


def _onehot_counts(codes, n_codes):
    rows = codes.shape[0]
    idx = codes + np.arange(rows, dtype=np.int64)[:, None] * n_codes
    return np.bincount(idx.ravel(), minlength=rows * n_codes).reshape(rows, n_codes)


def _label_counts(frame, b, m, table, n_codes):
    """Per source key, how many of the frame's completions give each entry
    of ``table`` (entries in ``[0, n_codes)``): counted once per overlap row,
    then indexed with the projection."""
    proj, targets = overlap_tables(frame, b, m)
    return _onehot_counts(table[targets], n_codes)[proj]


def edge_local_failure(alg):
    """Pr[no dimension breaks symmetry at the center], exactly.

    Per dimension the two incident edge labels are compared as the center
    sees them: the code of its ``+`` edge in ``tables`` against the code
    of its ``-`` edge in ``minus``.  Conditioned on the center ball the two
    labels of a dimension are independent, and dimensions are independent
    of each other.
    """
    m = len(ball_paths(alg.delta, alg.t))
    frames = _incident_frames(alg.delta, alg.t, alg.t)
    counts = (_label_counts(fr, alg.b, m, (alg.tables, alg.minus)[d % 2][d // 2 + 1], alg.c)
              for d, fr in enumerate(frames))
    pairs = zip(counts, counts)     # a dimension's + slot, then its - slot
    return _branch_product(((plus * minus).sum(axis=1) for plus, minus in pairs),
                           alg.b, m, frames[0].free_count, alg.delta)


# ---------------------------------------------------------------------------
# Speedups: node -> edge one round faster (direction 1), edge -> node (2)
# ---------------------------------------------------------------------------


def _need(f, free_bits):
    """The least count with count / 2**free_bits >= f: ceil(f * 2**free_bits),
    clamped to 2**free_bits + 1 (no count reaches it) so it stays small
    whatever the denominator of f."""
    return min(-(-(f.numerator << free_bits) // f.denominator), (1 << free_bits) + 1)


def _threshold_mask(dist, f, free_bits):
    """Bit i set iff count_i / 2**free_bits >= f, where count_i is entry i
    of the last axis.  Exact: counts are integers, so the test is
    count_i >= ``_need(f, free_bits)``."""
    need = _need(f, free_bits)
    bits = (dist >= need).astype(np.int64) << np.arange(dist.shape[-1], dtype=np.int64)
    return np.bitwise_or.reduce(bits, axis=-1)


@dataclass
class _SpeedupConstruction:
    """``dists[key, d, i]``: how many of the ``2**completion_bits`` completions
    give color i to the source rule simulated for direction slot d.  The
    counts do not depend on f, so one construction serves a whole grid;
    thresholds of one level (how many distinct counts reach f) give the same
    frequent sets, so a level is thresholded and evaluated once (``levels``)."""

    source: NodeTable | EdgeTable
    cfg: SpeedupConfig
    rounds: int
    dists: np.ndarray = field(repr=False)
    completion_bits: int

    def __post_init__(self):
        self.counts = np.unique(self.dists).tolist()
        self.levels = {}

    @classmethod
    def _from_frames(cls, alg, cfg, rounds, frames, m, table_of):
        """Slot d counts the entries of ``table_of(d)`` over the completions
        of ``frames[d]`` (``_label_counts``), per source key of m positions."""
        if (cfg.delta, cfg.b, cfg.t, cfg.c) != (alg.delta, alg.b, alg.t, alg.c):
            raise InvalidParameterError("config does not match the source algorithm")
        if alg.c > 63:      # bit i of a frequent-set mask is color i
            raise BudgetExceededError(f"{alg.c} colors exceed the 63 bits of a frequent-set mask")
        dists = np.zeros((1 << (alg.b * m), len(frames), alg.c), dtype=np.int64)
        for d, fr in enumerate(frames):
            dists[:, d, :] = _label_counts(fr, alg.b, m, table_of(d), alg.c)
        return cls(source=alg, cfg=cfg, rounds=rounds, dists=dists,
                   completion_bits=alg.b * frames[0].free_count)

    def level(self, f):
        """How many distinct counts reach f: one bisect of the sorted counts."""
        return len(self.counts) - bisect_left(self.counts, _need(f, self.completion_bits))

    def _at_level(self, f, key, make):
        at = (self.level(f), key)
        if at not in self.levels:
            self.levels[at] = make()
        return self.levels[at]

    def frequent_masks(self, f):
        """``(keys, delta)``: bit i of column d is set iff color i is
        frequent for slot d at f."""
        return self._at_level(f, "masks", lambda: _threshold_mask(
            self.dists, f, self.completion_bits))


@dataclass
class EdgeSpeedupConstruction(_SpeedupConstruction):
    """Edge algorithm derived from a node algorithm by frequency
    thresholding over all completions of the endpoints' balls.  Slot d
    counts the colors of the slot's endpoint.  A dimension's label is its
    pair of frequent-color masks, which the + endpoint sees packed
    ``P << c | M`` and the - endpoint as the half-swap ``M << c | P``; the
    derived table codes the packed pairs that occur by their rank."""

    def edge_table(self, f):
        return self._edge_table(self.frequent_masks(f))

    def local_failure(self, f):
        """Exact failure of the derived edge algorithm at threshold f."""
        return edge_local_failure(self.edge_table(f))

    def evaluate(self, f):
        """p' and the goodness violation at f, computed once per level."""
        def results():
            masks = _threshold_mask(self.dists, f, self.completion_bits)
            return edge_local_failure(self._edge_table(masks)), self._goodness(masks)
        return self._at_level(f, "results", results)

    def _edge_table(self, masks):
        """Equal pairs keep equal codes, and c is the number of pairs in
        use, not 2^(2c)."""
        pairs = (masks << self.source.c) | masks[:, np.arange(masks.shape[1]) ^ 1]
        used, rank = np.unique(pairs, return_inverse=True)
        rank = rank.reshape(pairs.shape)
        dims = range(1, self.cfg.delta // 2 + 1)
        return EdgeTable(delta=self.cfg.delta, t=self.rounds, b=self.cfg.b, c=used.size,
                         tables={dim: rank[:, 2 * dim - 2] for dim in dims},
                         minus={dim: rank[:, 2 * dim - 1] for dim in dims},
                         name=f"{self.source.name or 'node-alg'}->edges")

    def goodness_violation(self, f):
        """Pr[some incident edge's frequent set omits the center's color].

        The radius-(t-1) edge balls sit inside the center's radius-t ball,
        so goodness is a deterministic event per center assignment.
        """
        return self._goodness(self.frequent_masks(f))

    def _goodness(self, masks):
        delta, t, b = self.cfg.delta, self.source.t, self.cfg.b
        m = len(ball_paths(delta, t))
        out = self.source.table
        good = np.ones(out.size, dtype=bool)
        for direction, fr in enumerate(_incident_frames(delta, t, self.rounds)):
            if fr.free_count:
                raise InvalidInputError("incident edge ball leaks outside B_t")
            known, _ = key_tables(fr, b, m)
            good &= ((masks[known, direction] >> out) & 1).astype(bool)
        return Fraction(int((~good).sum()), out.size)


def node_to_edge_speedup(alg, cfg):
    """Edge algorithm one round faster than the node algorithm ``alg``.

    For each edge view the rule enumerates every completion of both
    endpoints' radius-t balls; color i is frequent for an endpoint iff its
    conditional probability is at least f.  The label is the pair of
    frequent-color bit vectors, plus endpoint first, packed into one int64
    (so 2c must fit 62 bits)."""
    if alg.t < 1:
        raise InvalidParameterError("node->edge speedup needs t >= 1")
    if 2 * alg.c > 62:
        raise BudgetExceededError(
            f"pair labels of 2c = {2 * alg.c} bits exceed the 62 bits of an int64")
    s = alg.t - 1
    return EdgeSpeedupConstruction._from_frames(
        alg, cfg, s, _endpoint_frames(alg.delta, alg.t, s),
        len(edge_positions(alg.delta, s, 1)), lambda d: alg.table)


@dataclass
class NodeSpeedupConstruction(_SpeedupConstruction):
    """Node algorithm derived from an edge algorithm: each node simulates
    the edge rule on its incident edges over all completions (slot d counts
    the labels of the node's direction-d edge) and outputs the ordered
    tuple of frequent-color bit vectors, edge order (1,+), (1,-), (2,+),
    (2,-), ...  (palette 2^(delta*c))."""

    def node_table(self, f):
        """The derived table at threshold f.  A node's color packs its
        directions' c-bit frequent-set masks, direction i at bits i*c.
        The directions are folded in one at a time; before a mask would be
        shifted past bit 62, the running code is replaced by its rank among
        the distinct codes, and if the rank and the mask still pass bit 62,
        the mask is ranked too.  So colors stay non-negative int64 and equal
        exactly where the mask rows are equal.  Up to ``delta*c = 62`` bits,
        which covers every CLI config, the color is the plain packing."""
        c = self.source.c
        masks = self.frequent_masks(f)
        code, width = masks[:, 0], c
        for direction in range(1, self.cfg.delta):
            column, bits = masks[:, direction], c
            if width + bits > 62:
                code, width = _ranked(code)
            if width + bits > 62:
                column, bits = _ranked(column)
            code = code | (column << width)
            width += bits
        return NodeTable(delta=self.cfg.delta, t=self.rounds, b=self.cfg.b,
                         c=1 << (self.cfg.delta * c), table=code,
                         name=f"{self.source.name or 'edge-alg'}->nodes")

    def evaluate(self, f):
        """p' at f, computed once per level; direction 2 checks no goodness."""
        return self._at_level(f, "p_prime", lambda: self.local_failure(f)), None

    def local_failure(self, f):
        return node_local_failure(self.node_table(f))


def _ranked(code):
    """Each entry's rank among the distinct entries, and the largest rank's bit width."""
    rank = np.unique(code, return_inverse=True)[1].astype(np.int64)
    return rank, int(rank.max()).bit_length()


def edge_to_node_speedup(alg, cfg):
    """Round-preserving node algorithm built from the edge algorithm."""
    return NodeSpeedupConstruction._from_frames(
        alg, cfg, alg.t, _incident_frames(alg.delta, alg.t, alg.t),
        len(ball_paths(alg.delta, alg.t)), lambda d: alg.tables[d // 2 + 1])


# ---------------------------------------------------------------------------
# Inequality verification
# ---------------------------------------------------------------------------


@dataclass
class GridPoint:
    f: Fraction
    p_prime: Fraction
    rhs: Fraction
    holds: bool
    goodness_violation: Fraction = None
    goodness_holds: bool = None


@dataclass
class SpeedupReport:
    direction: int
    cfg: SpeedupConfig
    p: Fraction
    p_prime: Fraction
    optimal_f: Fraction
    p_prime_at_optimal: Fraction
    grid: list
    inequality_holds: bool
    goodness_holds: bool
    metrics: dict = field(default_factory=dict)

    def to_json_obj(self):
        def frac(x):
            return None if x is None else {
                "value": float(x), "exact": f"{x.numerator}/{x.denominator}"}
        return {
            "construction": "node-to-edge" if self.direction == 1 else "edge-to-node",
            "cfg": {"delta": self.cfg.delta, "c": self.cfg.c, "t": self.cfg.t,
                    "f": frac(self.cfg.f), "b": self.cfg.b},
            "p": frac(self.p),
            "p_prime": frac(self.p_prime),
            "optimal_f": frac(self.optimal_f),
            "p_prime_at_optimal": frac(self.p_prime_at_optimal),
            "f_grid_results": [
                {"f": frac(pt.f), "p_prime": frac(pt.p_prime),
                 "rhs": frac(pt.rhs), "holds": pt.holds,
                 "goodness_violation": frac(pt.goodness_violation),
                 "goodness_holds": pt.goodness_holds}
                for pt in self.grid],
            "inequality_holds": self.inequality_holds,
            "goodness_holds": self.goodness_holds,
            "metrics": self.metrics,
        }


def inequality_rhs(direction, p_prime, c, f, delta):
    """Lower bound the derived failure imposes on the source failure:
    (p' - delta*c*f) * f^delta for direction 1,
    (p' - (delta-1)*c*f) * f^(delta-1) for direction 2.  With p' = a/b,
    f = j/q and k the exponent, that is (a*q - k*c*j*b) * j^k / (b * q^(k+1)),
    one reduction of integers."""
    k = delta if direction == 1 else delta - 1
    a, b, j, q = p_prime.numerator, p_prime.denominator, f.numerator, f.denominator
    return Fraction((a * q - k * c * j * b) * j**k, b * q**(k + 1))


def optimizing_f(direction, p_prime, c, delta):
    """The threshold the analysis would pick: p'/((delta+1)c) for direction
    1, p'/(delta*c) for direction 2."""
    if direction == 1:
        return p_prime / ((delta + 1) * c)
    return p_prime / (delta * c)


def verify_speedup_inequality(g, source, derived, cfg, direction, f_grid=None):
    """Exactly compute source and derived local failure probabilities and
    evaluate the direction's inequality at the configured f, at the
    analysis-optimal f, and across a grid of thresholds.  Thresholds of one
    level share one derived table and one run of its kernels (the
    construction's ``levels``); ``rhs``, ``holds`` and ``goodness_holds``
    use each point's own f.

    ``g`` anchors the claim: the center node must have full balls for both
    computations.  For direction 1 the goodness bound
    Pr[not good] <= delta*c*f is checked at every grid point.
    """
    require_interior(g, g.meta.get("center", 0), cfg.t + 1)
    if g.delta != cfg.delta:
        raise InvalidParameterError("graph degree does not match the config")
    if direction not in (1, 2):
        raise InvalidParameterError("direction must be 1 or 2")
    if f_grid is None:
        f_grid = default_f_grid()

    build, failure = ((node_to_edge_speedup, node_local_failure) if direction == 1
                      else (edge_to_node_speedup, edge_local_failure))
    construction = derived or build(source, cfg)
    p = failure(source)

    def evaluate(f):
        p_prime, gv = construction.evaluate(f)
        rhs = inequality_rhs(direction, p_prime, cfg.c, f, cfg.delta)
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


def _kernel_work(direction, delta, t, b):
    """Work counts of the three exact kernels of one speedup check: per
    kernel the overlap rows U and completion columns R of its largest frame
    (``oriented.overlap_tables``) and the conditioning + completion bits
    that the budget check compares with ``KERNEL_BUDGET_BITS``."""
    def work(frames, m):
        return {"overlap_rows": max(1 << (b * len(fr.known)) for fr in frames),
                "completion_columns": max(1 << (b * fr.free_count) for fr in frames),
                "bits": max(b * (m + fr.free_count) for fr in frames)}

    m = len(ball_paths(delta, t))
    if direction == 2:
        incident = work(_incident_frames(delta, t, t), m)
        return {"source_failure": incident, "construction": incident,
                "derived_failure": work(_neighbor_frames(delta, t), m)}
    s = t - 1
    return {"source_failure": work(_neighbor_frames(delta, t), m),
            "construction": work(_endpoint_frames(delta, t, s),
                                 len(edge_positions(delta, s, 1))),
            "derived_failure": work(_incident_frames(delta, s, s), len(ball_paths(delta, s)))}


# ---------------------------------------------------------------------------
# Algorithm synthesis
# ---------------------------------------------------------------------------


def own_bit_node_algorithm(delta, t, b, c=2):
    """Output the first bit of the node's own string."""
    return NodeTable.from_rule(delta, t, b, c, lambda bits: bits[()] & 1,
                               name="own-first-bit")


def constant_node_algorithm(delta, t, b, c, value=0):
    return NodeTable.from_rule(delta, t, b, c, lambda bits: value,
                               name=f"constant-{value}")


def ball_parity_node_algorithm(delta, t, b, c=2):
    def rule(bits):
        ones = sum(np.bitwise_count(x).astype(np.int64) for x in bits.values())
        return ones % c
    return NodeTable.from_rule(delta, t, b, c, rule, name="ball-parity")


def center_mod_node_algorithm(delta, t, b, c):
    return NodeTable.from_rule(delta, t, b, c, lambda bits: bits[()] % c,
                               name="center-mod")


def random_node_algorithm(delta, t, b, c, seed):
    rng = np.random.default_rng(seed)
    m = len(ball_paths(delta, t))
    _check_table_bits(b * m)
    table = rng.integers(0, c, size=1 << (b * m), dtype=np.int64)
    return NodeTable(delta=delta, t=t, b=b, c=c, table=table,
                     name=f"random-node-{seed}")


def xor_edge_algorithm(delta, t, b):
    """Label each edge with the XOR of its endpoints' first bits."""
    return EdgeTable.from_rule(
        delta, t, b, 2,
        lambda dim, bits: (bits[("P", ())] ^ bits[("M", ())]) & 1,
        name="endpoint-xor")


def constant_edge_algorithm(delta, t, b, c, value=0):
    return EdgeTable.from_rule(delta, t, b, c, lambda dim, bits: value,
                               name=f"constant-edge-{value}")


def endpoint_sum_edge_algorithm(delta, t, b, c):
    return EdgeTable.from_rule(
        delta, t, b, c,
        lambda dim, bits: (bits[("P", ())] + bits[("M", ())]) % c,
        name="endpoint-sum")


def random_edge_algorithm(delta, t, b, c, seed):
    rng = np.random.default_rng(seed)
    tables = {}
    for dim in range(1, delta // 2 + 1):
        m = len(edge_positions(delta, t, dim))
        _check_table_bits(b * m)
        tables[dim] = rng.integers(0, c, size=1 << (b * m), dtype=np.int64)
    return EdgeTable(delta=delta, t=t, b=b, c=c, tables=tables,
                     name=f"random-edge-{seed}")


# ---------------------------------------------------------------------------
# Engine bridge
# ---------------------------------------------------------------------------


def as_local_algorithm(alg):
    """Wrap a table algorithm so the engine can run it on concrete oriented
    trees (only nodes/edges with full balls; others raise).  Each rule walks
    a center's ball once per graph and keeps the node list; a view then
    costs one key packing and one table read."""
    balls = {}                # (graph, center) -> its ball, walked once
    if isinstance(alg, NodeTable):
        def rule(view):
            at = view.graph, view.center_node
            if at not in balls:
                balls[at] = node_ball(*at, alg.t)
            return int(alg.table[pack_key(balls[at], alg.b, view.assignment)])
        return LocalAlgorithm(rounds=alg.t, kind="node", rule=rule,
                              name=alg.name or "node-table")
    if isinstance(alg, EdgeTable):
        def rule(view):
            at = view.graph, *view.endpoints
            if at not in balls:
                balls[at] = edge_ball(*at, alg.t)
            dim, nodes = balls[at]
            key = pack_key(nodes, alg.b, view.assignment)
            return DirectedPair(int(alg.tables[dim][key]), int(alg.minus[dim][key]))
        return LocalAlgorithm(rounds=alg.t, kind="edge", rule=rule,
                              name=alg.name or "edge-table")
    raise InvalidInputError("expected a NodeTable or EdgeTable")
