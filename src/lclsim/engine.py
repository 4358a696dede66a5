"""LOCAL-model execution and failure-probability measurement.

A t-round algorithm is a total deterministic mapping from radius-t views to
output labels; running it is equivalent to t synchronous full-information
rounds.  Failure probabilities are over the per-node random bit strings
(b bits per node, finite so that exact enumeration is possible) and are
measured either exactly, by enumerating every bit assignment on the
relevant ball, or by seeded Monte Carlo with a two-sided Hoeffding bound.
Both modes count assignments in numpy blocks: a view depends only on the
bits of its own ball, so each view is evaluated once per distinct bit
pattern of that ball, not once per assignment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (BudgetExceededError, InvalidInputError,
                     InvalidInstanceError, TotalRuleViolation)
from .graph import ball_is_leaf_free, bfs_levels, edge_key
from .views import extract_view

ENUM_BUDGET_BITS = 24
DEFAULT_BITS_PER_NODE = 2
MC_DEFAULT_SAMPLES = 10**6
MC_DEFAULT_CONFIDENCE = 0.99
BLOCK_ROWS = 4096            # assignments counted per numpy block
DENSE_KEY_BITS = 20         # dense label tables and joint histograms up to 2**20


@dataclass
class Assignment:
    """Per-node random bits (ints below ``2**b``) and optional unique ids."""

    b: int
    bits: dict
    ids: dict = None

    def __post_init__(self):
        if self.bits is not None:
            top = 1 << self.b
            for v, x in self.bits.items():
                if not 0 <= x < top:
                    raise InvalidInputError(f"bit string of node {v} is not {self.b} bits")
        if self.ids is not None:
            vals = list(self.ids.values())
            if len(set(vals)) != len(vals):
                raise InvalidInputError("identifiers are not injective")

    @classmethod
    def random(cls, g, b, seed, with_ids=False):
        """Uniform bits; with ``with_ids``, ids a random permutation of 1..n."""
        rng = random.Random(seed)
        bits = dict(zip(range(g.n), randbelow_array(rng, 1 << b, g.n).tolist()))
        ids = None
        if with_ids:
            vals = list(range(1, g.n + 1))
            rng.shuffle(vals)
            ids = dict(zip(range(g.n), vals))
        return cls(b=b, bits=bits, ids=ids)


@dataclass
class LocalAlgorithm:
    """Deterministic mapping from views to labels.

    Either ``rule`` (a callable on :class:`~lclsim.views.View`) or ``table``
    (a dict over canonical view encodings) must be given.  ``kind`` is
    ``"node"`` or ``"edge"``.
    """

    rounds: int
    kind: str
    rule: object = None
    table: dict = None
    name: str = ""

    def evaluate(self, view):
        if self.table is None:
            return self.rule(view)
        try:
            return self.table[view.encoding]
        except KeyError:
            raise TotalRuleViolation(
                f"{self.name or 'table algorithm'} has no entry for a realized view",
                view=view) from None


@dataclass
class FailureEstimate:
    """A failure probability plus how it was obtained.

    ``error`` is 0 for exact enumeration and the two-sided Hoeffding radius
    at the declared confidence for Monte Carlo.
    """

    value: object             # Fraction (exact) or float (sampled)
    mode: str                 # "exact" | "monte-carlo"
    error: float = 0.0
    samples: int = None
    seed: int = None

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise InvalidInputError("probability outside [0,1]")
        if self.mode == "exact" and self.error != 0:
            raise InvalidInputError("exact estimates carry zero error")

    def to_json_obj(self):
        obj = {
            "value": float(self.value),
            "mode": self.mode,
            "error": self.error,
            "samples": self.samples,
            "seed": self.seed,
        }
        if isinstance(self.value, Fraction):
            obj["value_exact"] = f"{self.value.numerator}/{self.value.denominator}"
        return obj


# ---------------------------------------------------------------------------
# Running algorithms
# ---------------------------------------------------------------------------


def run_node_algorithm(g, alg, assignment, inputs=None):
    """Label every node with ``alg`` applied to its radius-t view."""
    if alg.kind != "node":
        raise InvalidInputError("node-centric algorithm required")
    out = {}
    for v in range(g.n):
        out[v] = alg.evaluate(extract_view(g, v, alg.rounds, assignment, inputs))
    return out


def run_edge_algorithm(g, alg, assignment, inputs=None):
    """Label every edge with ``alg`` applied to its radius-t edge view."""
    if alg.kind != "edge":
        raise InvalidInputError("edge-centric algorithm required")
    out = {}
    for u, v in g.edges():
        out[edge_key(u, v)] = alg.evaluate(
            extract_view(g, (u, v), alg.rounds, assignment, inputs))
    return out


# ---------------------------------------------------------------------------
# Oriented pair labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectedPair:
    """Edge label carrying one component per endpoint, ordered by the
    orientation: ``plus`` belongs to the endpoint whose ``(d,+)`` edge this
    is.  The local symmetry-breaking check compares the two labels of a
    dimension after reorienting each to the observing node (observer's
    component first)."""

    plus: object
    minus: object

    def seen_from(self, sign):
        return (self.plus, self.minus) if sign > 0 else (self.minus, self.plus)


def _relative_label(label, sign):
    if isinstance(label, DirectedPair):
        return label.seen_from(sign)
    return label


# ---------------------------------------------------------------------------
# Failure predicates
# ---------------------------------------------------------------------------


def weak_coloring_failure(g, v, labels):
    """v fails iff every neighbor carries v's own label."""
    mine = labels[v]
    return all(labels[u] == mine for u in g.adjacent(v))


def weak_edge_coloring_failure(g, v, labels):
    """v fails iff no dimension has differing labels on its two edges.

    Labels are compared after reorienting :class:`DirectedPair` values to
    v; opaque labels compare as-is.  Dimensions with a missing edge at v
    cannot witness success.
    """
    pairs = {}
    for u, mp, up, d, s in g.half_edges(v):
        if d == 0:
            raise InvalidInstanceError("weak edge coloring needs an oriented graph")
        pairs.setdefault(d, {})[s] = _relative_label(labels[edge_key(v, u)], s)
    ok_dims = [d for d, two in pairs.items() if len(two) == 2]
    if not ok_dims:
        return True
    return all(pairs[d][1] == pairs[d][-1] for d in ok_dims)


# ---------------------------------------------------------------------------
# Assignment enumeration and failure probabilities
# ---------------------------------------------------------------------------


def require_interior(g, v, radius):
    """Reject nodes whose ball of the given radius contains a leaf; failure
    probabilities are defined on regular trees only."""
    if not ball_is_leaf_free(g, v, radius):
        raise InvalidInstanceError(f"radius-{radius} ball of node {v} contains a leaf")


class _CompiledBall:
    """The failure event at v as a function of the bits on ``B_{t+1}(v)``.

    The predicate reads one label per source (v and its neighbours, or the
    edges at v).  A source's view depends only on the bits of its support:
    the region's positions of the nodes the view reads (its radius-t ball,
    or both endpoint balls for an edge).  Each view is therefore extracted
    and evaluated once per distinct bit pattern of its support, and the
    predicate runs once per distinct tuple of labels; the memos are kept
    across blocks.  A support of at most ``DENSE_KEY_BITS`` bits memoizes
    its labels in a dense table indexed by the packed pattern (-1: not yet
    evaluated), so a block costs one gather; wider supports memoize in a
    dict over the block's distinct patterns.  A view reads no id outside
    its own ball, so each source's assignments carry only its support's ids.
    """

    def __init__(self, g, alg, v, fail_predicate, b, ids, inputs):
        self.g, self.alg, self.v, self.fail_predicate = g, alg, v, fail_predicate
        self.b, self.inputs = b, inputs
        t = alg.rounds
        inside = bfs_levels(g, v, t + 1) >= 0
        self.region = np.flatnonzero(inside).tolist()   # ascending node order
        pos = np.cumsum(inside) - 1                     # node -> region position
        if alg.kind == "node":
            sources = {u: u for u in [v] + g.adjacent(v)}
        else:
            sources = {edge_key(v, u): (v, u) for u in g.adjacent(v)}
        self.label_keys = list(sources)
        self.centers = list(sources.values())
        self.nodes, self.supports, self.ids, self.memos = [], [], [], []
        for center in self.centers:
            ball = np.zeros(g.n, dtype=bool)
            for u in center if isinstance(center, tuple) else (center,):
                ball |= bfs_levels(g, u, t) >= 0
            nodes = np.flatnonzero(ball)
            self.nodes.append(nodes.tolist())
            self.supports.append(pos[nodes])
            self.ids.append(None if ids is None else
                            {u: ids[u] for u in self.nodes[-1] if u in ids})
            bits = b * nodes.size
            self.memos.append(np.full(1 << bits, -1, dtype=np.int32)
                              if bits <= DENSE_KEY_BITS else {})
        self.codes = {}                             # (type, label) -> label code
        self.labels = []                            # label code -> label
        self.fails = {}                             # label codes -> failure

    def _label(self, i, pattern):
        a = Assignment(b=self.b, bits=dict(zip(self.nodes[i], pattern.tolist())),
                       ids=self.ids[i])
        label = self.alg.evaluate(
            extract_view(self.g, self.centers[i], self.alg.rounds, a, self.inputs))
        key = (type(label), label)
        if key not in self.codes:
            self.codes[key] = len(self.labels)
            self.labels.append(label)
        return self.codes[key]

    def _label_codes(self, i, block):
        """Label code of source i on every row of the bit matrix."""
        cols = block[:, self.supports[i]]
        width = cols.shape[1]
        if self.b * width <= 62:
            keys = np.zeros(len(block), dtype=np.int64)
            for j in range(width):
                keys |= cols[:, j].astype(np.int64) << (self.b * j)
        else:  # too wide for an int64 key: key on the row's bytes
            keys = np.ascontiguousarray(cols).view(
                np.dtype((np.void, width * cols.itemsize))).ravel()
        memo = self.memos[i]
        if isinstance(memo, np.ndarray):
            codes = memo[keys]
            missed = np.flatnonzero(codes < 0)
            if missed.size == 0:
                return codes
            new, first = np.unique(keys[missed], return_index=True)
            for key, row in zip(new.tolist(), missed[first].tolist()):
                memo[key] = self._label(i, cols[row])
            return memo[keys]
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        lut = np.empty(len(uniq), dtype=np.int64)
        for j, (key, row) in enumerate(zip(uniq.tolist(), first.tolist())):
            if key not in memo:
                memo[key] = self._label(i, cols[row])
            lut[j] = memo[key]
        return lut[inverse]

    def _fails(self, combo):
        if combo not in self.fails:
            labels = {k: self.labels[c] for k, c in zip(self.label_keys, combo)}
            self.fails[combo] = bool(self.fail_predicate(self.g, self.v, labels))
        return self.fails[combo]

    def hits(self, block):
        """Number of rows of ``block`` (one assignment of the region per
        row) on which the failure event holds at v."""
        per_source = [self._label_codes(i, block) for i in range(len(self.centers))]
        dims = (len(self.labels),) * len(per_source)
        if math.prod(dims) <= 1 << DENSE_KEY_BITS:    # one histogram of the joint codes
            counts = np.bincount(np.ravel_multi_index(per_source, dims))
            seen = np.flatnonzero(counts)
            combos = zip(*(d.tolist() for d in np.unravel_index(seen, dims)))
            return sum(count for combo, count in zip(combos, counts[seen].tolist())
                       if self._fails(combo))
        radix = dims[0]
        joint = np.zeros(len(block), dtype=np.int64)
        for codes in per_source:
            if int(joint.max()) >= (1 << 62) // radix:
                _, joint = np.unique(joint, return_inverse=True)  # re-index
            joint = joint * radix + codes
        _, first, counts = np.unique(joint, return_index=True, return_counts=True)
        return sum(count for row, count in zip(first.tolist(), counts.tolist())
                   if self._fails(tuple(int(codes[row]) for codes in per_source)))


def _counter_blocks(m, b, dtype):
    """Every assignment of m nodes in counter order, node i taking the
    counter's bits ``b*i`` to ``b*i + b - 1``, as ``(rows, m)`` blocks."""
    total = 1 << (b * m)
    mask = (1 << b) - 1
    for lo in range(0, total, BLOCK_ROWS):
        counter = np.arange(lo, min(lo + BLOCK_ROWS, total), dtype=np.int64)
        block = np.empty((counter.size, m), dtype=dtype)
        for i in range(m):
            block[:, i] = (counter >> (b * i)) & mask
        yield block


def randbelow_array(rng, top, count, dtype=np.int64):
    """``[rng.randrange(top) for _ in range(count)]`` as an array of
    ``dtype``, leaving ``rng`` where that loop would.

    For ``0 < top <= 2**31``, CPython's ``randrange(top)`` is the top
    ``k = top.bit_length()`` bits of one 32-bit MT19937 output, drawn again
    while they reach ``top``.  numpy's MT19937, started from the state of
    ``rng``, replays those outputs in bulk.  An output gives at most one
    draw, so taking as many outputs as draws are missing never passes the
    last draw, and ``rng`` takes the replay's final state.  Larger ``top``
    draw one by one, as Python ints past int64.
    """
    if top > 1 << 31:
        return np.array([rng.randrange(top) for _ in range(count)],
                        dtype=dtype if top < 1 << 63 else object)
    version, (*key, pos), gauss = rng.getstate()
    mt = np.random.MT19937()
    mt.state = {"bit_generator": "MT19937",
                "state": {"key": np.array(key, dtype=np.uint32), "pos": pos}}
    shift = 32 - top.bit_length()
    out = np.empty(count, dtype=dtype)
    filled = 0
    while filled < count:     # at most 2**14 outputs at a time: small temporaries
        raw = mt.random_raw(min(count - filled, 1 << 14)) >> shift
        kept = raw[raw < top]
        out[filled:filled + kept.size] = kept
        filled += kept.size
    state = mt.state["state"]
    rng.setstate((version, (*state["key"].tolist(), int(state["pos"])), gauss))
    return out


def _sample_blocks(seed, samples, m, b, dtype):
    """``samples`` rows of m consecutive draws of the stream of
    ``random.Random(seed).randrange(2**b)``, as ``(rows, m)`` blocks."""
    rng = random.Random(seed)
    for lo in range(0, samples, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, samples - lo)
        yield randbelow_array(rng, 1 << b, rows * m, dtype).reshape(rows, m)


def local_failure_probability(g, alg, v, fail_predicate, mode="exact",
                              b=DEFAULT_BITS_PER_NODE, ids=None,
                              samples=MC_DEFAULT_SAMPLES,
                              confidence=MC_DEFAULT_CONFIDENCE, seed=0, inputs=None):
    """Probability, over the random bits of ``B_{t+1}(v)``, that the node
    failure event holds at v.

    Exact mode enumerates all ``2**(b*m)`` assignments of the ball (m = its
    node count) and returns the precise frequency as a Fraction; it raises
    ``BudgetExceededError`` when ``b*m`` exceeds ``ENUM_BUDGET_BITS``, in
    which case the caller must switch modes.  Monte Carlo returns an
    unbiased estimate with the two-sided Hoeffding radius at the stated
    confidence; each sample draws ``random.Random(seed).randrange(2**b)``
    for the ball's nodes in sorted order.  Assignments are counted in numpy blocks, and
    each view is evaluated once per distinct bit pattern of its support.
    """
    require_interior(g, v, alg.rounds + 1)
    ball = _CompiledBall(g, alg, v, fail_predicate, b, ids, inputs)
    m = len(ball.region)
    dtype = np.uint8 if b <= 8 else np.int64
    if mode == "exact" and b * m > ENUM_BUDGET_BITS:
        raise BudgetExceededError(
            f"{b * m} bits exceed the exact-enumeration budget of {ENUM_BUDGET_BITS}")
    if mode not in ("exact", "monte-carlo"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    Assignment(b=b, bits=None, ids=ids)     # checks the ids' injectivity once
    if mode == "exact":
        hits = sum(ball.hits(block) for block in _counter_blocks(m, b, dtype))
        return FailureEstimate(value=Fraction(hits, 1 << (b * m)), mode="exact")
    hits = sum(ball.hits(block)
               for block in _sample_blocks(seed, samples, m, b, dtype))
    err = hoeffding_radius(samples, confidence)
    return FailureEstimate(value=hits / samples, mode="monte-carlo",
                           error=err, samples=samples, seed=seed)


def hoeffding_radius(samples, confidence):
    """Two-sided Hoeffding deviation bound at the given confidence."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
