"""The overlap-factorized exact kernels, the cached coordinate tables and
the whole-array ``from_rule`` against the per-key gathers, per-threshold
constructions and per-key rule loop they replace, kept here as oracles."""

from fractions import Fraction

import numpy as np
import pytest

from lclsim.cli import EDGE_SOURCES, NODE_SOURCES
from lclsim.errors import BudgetExceededError, InvalidParameterError
from lclsim.oriented import (KERNEL_BUDGET_BITS, TABLE_BITS_CAP, EdgeTable,
                             NodeTable, ball_paths, edge_positions,
                             endpoint_completion_frame, incident_edge_frame,
                             key_tables, neighbor_frame, overlap_tables)
from lclsim.speedup import (SpeedupConfig, _count_dtype, _onehot_counts,
                            _threshold_mask,
                            default_f_grid, edge_local_failure,
                            edge_to_node_speedup, node_local_failure,
                            node_to_edge_speedup, optimizing_f)
from oracles import pair_codes

# ---------------------------------------------------------------------------
# Oracles: the code the factorized kernels replace
# ---------------------------------------------------------------------------


def key_tables_oracle(frame, b, source_positions):
    src_bits = b * source_positions
    free_bits = b * frame.free_count
    if src_bits > TABLE_BITS_CAP or free_bits > TABLE_BITS_CAP:
        raise BudgetExceededError("assembly table past the bit cap")
    if src_bits + free_bits > KERNEL_BUDGET_BITS:
        raise BudgetExceededError("over the exact budget")
    mask = (1 << b) - 1
    sigma = np.arange(1 << src_bits, dtype=np.int64)
    known_tab = np.zeros_like(sigma)
    for j, i in frame.known:
        known_tab |= ((sigma >> (b * i)) & mask) << (b * j)
    ctr = np.arange(1 << (b * frame.free_count), dtype=np.int64)
    free_tab = np.zeros_like(ctr)
    for slot, j in enumerate(frame.free):
        free_tab |= ((ctr >> (b * slot)) & mask) << (b * j)
    return known_tab, free_tab


def _gather(frame, b, m):
    known, free = key_tables_oracle(frame, b, m)
    return known[:, None] | free[None, :]


def node_local_failure_oracle(alg):
    delta, t, b = alg.delta, alg.t, alg.b
    m = len(ball_paths(delta, t))
    out = alg.table
    prod = None
    free_bits = 0
    for direction in range(delta):
        fr = neighbor_frame(delta, t, direction)
        keys = _gather(fr, b, m)
        counts = (alg.table[keys] == out[:, None]).sum(axis=1, dtype=np.int64)
        counts = counts.astype(_count_dtype(b, m, fr.free_count, delta), copy=False)
        prod = counts if prod is None else prod * counts
        free_bits = b * fr.free_count
    den = (1 << (b * m)) * (1 << (free_bits * delta))
    return Fraction(int(prod.sum()), den)


def edge_local_failure_oracle(alg):
    delta, t, b = alg.delta, alg.t, alg.b
    m = len(ball_paths(delta, t))
    prod = None
    free_bits = 0
    for dim in range(1, delta // 2 + 1):
        per_side = []
        for direction in (2 * (dim - 1), 2 * (dim - 1) + 1):
            fr = incident_edge_frame(delta, t, t, direction)
            codes = (alg.tables, alg.minus)[direction % 2][dim][_gather(fr, b, m)]
            per_side.append(_onehot_counts(codes, alg.c).astype(
                _count_dtype(b, m, fr.free_count, delta), copy=False))
            free_bits = b * fr.free_count
        match = (per_side[0] * per_side[1]).sum(axis=1)
        prod = match if prod is None else prod * match
    den = (1 << (b * m)) * (1 << (free_bits * delta))
    return Fraction(int(prod.sum()), den)


def threshold_mask_oracle(dist, f, free_bits):
    need_num = f.numerator << free_bits
    masks = np.zeros(dist.shape[0], dtype=np.int64)
    for row in range(dist.shape[0]):
        mask = 0
        for i in range(dist.shape[1]):
            if int(dist[row, i]) * f.denominator >= need_num:
                mask |= 1 << i
        masks[row] = mask
    return masks


def node_to_edge_dists_oracle(alg):
    delta, t, b, c = alg.delta, alg.t, alg.b, alg.c
    s = t - 1
    dists = {}
    for dim in range(1, delta // 2 + 1):
        m_e = len(edge_positions(delta, s, dim))
        dists[dim] = {}
        for side in ("P", "M"):
            fr = endpoint_completion_frame(delta, t, s, dim, side)
            dists[dim][side] = _onehot_counts(alg.table[_gather(fr, b, m_e)], c)
    return dists, b * fr.free_count


def edge_to_node_dists_oracle(alg):
    delta, t, b, c = alg.delta, alg.t, alg.b, alg.c
    m = len(ball_paths(delta, t))
    dists = np.zeros((1 << (b * m), delta, c), dtype=np.int64)
    for direction in range(delta):
        fr = incident_edge_frame(delta, t, t, direction)
        labels = alg.tables[direction // 2 + 1][_gather(fr, b, m)]
        dists[:, direction, :] = _onehot_counts(labels, c)
    return dists, b * fr.free_count


def edge_table_oracle(alg, dists, bits, f):
    """The derived table with every packed pair its own code, unranked:
    the + endpoint sees ``P << c | M`` and the - endpoint ``M << c | P``,
    out of all 2^(2c)."""
    c = alg.c
    masks = {dim: {side: threshold_mask_oracle(d, f, bits)
                   for side, d in sides.items()} for dim, sides in dists.items()}
    return masks, EdgeTable(
        delta=alg.delta, t=alg.t - 1, b=alg.b, c=1 << (2 * c),
        tables={dim: (masks[dim]["P"] << c) | masks[dim]["M"] for dim in masks},
        minus={dim: (masks[dim]["M"] << c) | masks[dim]["P"] for dim in masks})


def goodness_violation_oracle(alg, masks):
    delta, t, b = alg.delta, alg.t, alg.b
    m = len(ball_paths(delta, t))
    out = alg.table
    good = np.ones(out.size, dtype=bool)
    for direction in range(delta):
        fr = incident_edge_frame(delta, t, t - 1, direction)
        known, _ = key_tables_oracle(fr, b, m)
        side = "P" if direction % 2 == 0 else "M"
        good &= ((masks[direction // 2 + 1][side][known] >> out) & 1).astype(bool)
    return Fraction(int((~good).sum()), out.size)


def node_table_oracle(alg, dists, bits, f):
    c = alg.c
    packed = np.zeros(dists.shape[0], dtype=np.int64)
    for direction in range(alg.delta):
        packed |= threshold_mask_oracle(dists[:, direction, :], f, bits) << (direction * c)
    return NodeTable(delta=alg.delta, t=alg.t, b=alg.b,
                     c=1 << (alg.delta * c), table=packed)


def node_from_rule_oracle(cls, delta, t, b, c, fn, name=""):
    paths = ball_paths(delta, t)
    m = len(paths)
    if b * m > TABLE_BITS_CAP:
        raise BudgetExceededError("table past the cap")
    mask = (1 << b) - 1
    table = np.empty(1 << (b * m), dtype=np.int64)
    for key in range(table.size):
        out = fn({p: (key >> (i * b)) & mask for i, p in enumerate(paths)})
        if not 0 <= out < c:
            raise InvalidParameterError(f"rule output {out} outside [0,{c})")
        table[key] = out
    return cls(delta=delta, t=t, b=b, c=c, table=table, name=name)


def edge_from_rule_oracle(cls, delta, t, b, c, fn, name=""):
    tables = {}
    for dim in range(1, delta // 2 + 1):
        pos = edge_positions(delta, t, dim)
        if b * len(pos) > TABLE_BITS_CAP:
            raise BudgetExceededError("table past the cap")
        mask = (1 << b) - 1
        table = np.empty(1 << (b * len(pos)), dtype=np.int64)
        for key in range(table.size):
            out = fn(dim, {p: (key >> (i * b)) & mask for i, p in enumerate(pos)})
            if not 0 <= out < c:
                raise InvalidParameterError(f"rule output {out} outside [0,{c})")
            table[key] = out
        tables[dim] = table
    return cls(delta=delta, t=t, b=b, c=c, tables=tables, name=name)


# ---------------------------------------------------------------------------
# Every CLI source x delta {4,6} x t {0,1} x b {1,2} x c {2,4}
# ---------------------------------------------------------------------------


def _cases():
    cases = []
    for delta in (4, 6):
        for b in (1, 2):
            for c in (2, 4):
                for src in NODE_SOURCES:
                    cases.append((1, src, delta, 1, b, c))
                for t in (0, 1):
                    for src in EDGE_SOURCES:
                        if src != "xor" or c == 2:
                            cases.append((2, src, delta, t, b, c))
    return cases


def _build(direction, src, delta, t, b, c, monkeypatch=None):
    sources = NODE_SOURCES if direction == 1 else EDGE_SOURCES
    if monkeypatch is not None:
        monkeypatch.setattr(NodeTable, "from_rule", classmethod(node_from_rule_oracle))
        monkeypatch.setattr(EdgeTable, "from_rule", classmethod(edge_from_rule_oracle))
    try:
        return sources[src](delta, t, b, c, 3)
    finally:
        if monkeypatch is not None:
            monkeypatch.undo()


def _both(new, oracle):
    """Run both sides; they must agree on the value or on the exception
    class.  Returns the value, or None when both raised."""
    try:
        want = oracle()
    except (BudgetExceededError, InvalidParameterError) as exc:
        with pytest.raises(type(exc)):
            new()
        return None
    got = new()
    assert got == want
    return got


def _assert_same_tables(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k])


@pytest.mark.parametrize("case", _cases(), ids=lambda c: "-".join(map(str, c)))
def test_factorized_matches_gather(case, monkeypatch):
    direction, src, delta, t, b, c = case
    try:
        want_alg = _build(*case, monkeypatch=monkeypatch)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            _build(*case)
        return
    alg = _build(*case)
    if direction == 1:
        assert np.array_equal(alg.table, want_alg.table)
        assert _both(lambda: node_local_failure(alg),
                     lambda: node_local_failure_oracle(want_alg)) is not None
    else:
        _assert_same_tables(alg.tables, want_alg.tables)
        _assert_same_tables(alg.minus, want_alg.minus)
        assert alg.c == want_alg.c
        if _both(lambda: edge_local_failure(alg),
                 lambda: edge_local_failure_oracle(want_alg)) is None:
            return

    cfg = SpeedupConfig(delta=delta, c=c, t=t, f=Fraction(1, 40), b=b)
    if direction == 1:
        con = node_to_edge_speedup(alg, cfg)
        want_dists, bits = node_to_edge_dists_oracle(alg)
        assert con.completion_bits == bits
        for dim, sides in want_dists.items():
            for slot, side in enumerate("PM", start=2 * dim - 2):
                assert np.array_equal(con.dists[:, slot], sides[side])
    else:
        con = edge_to_node_speedup(alg, cfg)
        want_dists, bits = edge_to_node_dists_oracle(alg)
        assert con.completion_bits == bits
        assert np.array_equal(con.dists, want_dists)

    def check(f):
        if direction == 1:
            masks, table = edge_table_oracle(alg, want_dists, bits, f)
            got = con.frequent_masks(f)
            for dim in masks:
                for slot, side in enumerate("PM", start=2 * dim - 2):
                    assert np.array_equal(got[:, slot], masks[dim][side])
            # the same pairs, coded by rank instead of by their packing
            got_table = con.edge_table(f)
            code_of = pair_codes(got_table, got, c)
            for dim in masks:
                for codes, want in ((got_table.tables, table.tables),
                                    (got_table.minus, table.minus)):
                    assert [code_of[p] for p in want[dim].tolist()] == codes[dim].tolist()
            assert con.goodness_violation(f) == goodness_violation_oracle(alg, masks)
            p_prime = con.local_failure(f)
            assert p_prime == edge_local_failure_oracle(table)
        else:
            table = node_table_oracle(alg, want_dists, bits, f)
            got_table = con.node_table(f)
            assert got_table.c == table.c
            assert np.array_equal(got_table.table, table.table)
            p_prime = con.local_failure(f)
            assert p_prime == node_local_failure_oracle(table)
        return p_prime

    f_star = optimizing_f(direction, check(cfg.f), c, delta)
    for f in ([f_star] if 0 < f_star < 1 else []) + default_f_grid(4):
        check(f)


# ---------------------------------------------------------------------------
# Threshold masks, palettes past int64, rule tables and cached arrays
# ---------------------------------------------------------------------------


THRESHOLDS = [Fraction(1, 40), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
              Fraction(1), Fraction(3, 2), Fraction(1, 2**300),
              Fraction(2**201 + 1, 2**203 - 5), Fraction(2**250 - 1, 2**250),
              Fraction(3**140, 2**230 + 7)]


@pytest.mark.parametrize("free_bits", [0, 1, 3, 8])
@pytest.mark.parametrize("f", THRESHOLDS, ids=str)
def test_threshold_mask_exact(free_bits, f):
    counts = np.arange((1 << free_bits) + 1, dtype=np.int64)
    dist = np.stack([counts, counts[::-1]], axis=1)
    mask = _threshold_mask(dist, f, free_bits)
    for row, (x, y) in enumerate(dist.tolist()):
        want = ((Fraction(x, 1 << free_bits) >= f)
                | (Fraction(y, 1 << free_bits) >= f) << 1)
        assert int(mask[row]) == want


def test_node_kernel_palette_past_int64():
    # a derived node table may declare c = 2**64 and use colors near 2**62;
    # packing (overlap, color) pairs without compressing would wrap
    rng = np.random.default_rng(11)
    for delta, t in ((4, 1), (4, 0), (6, 1)):
        size = 1 << len(ball_paths(delta, t))
        colors = (1 << 62) + rng.integers(0, 3, size=size) * ((1 << 61) - 1)
        alg = NodeTable(delta=delta, t=t, b=1, c=2**64, table=colors.astype(np.int64))
        assert node_local_failure(alg) == node_local_failure_oracle(alg)
        alg.table[:] = (1 << 62) + 5
        assert node_local_failure(alg) == 1


@pytest.mark.parametrize("bad", [2, -1])
def test_from_rule_out_of_range_same_exception(bad):
    # elementwise rules that also run on the oracle's scalars
    def node_rule(bits):
        return bad * (bits[()] & 1)

    def edge_rule(dim, bits):
        return bad * (bits[("M", ())] & 1)

    for owner, oracle, args, rule in (
            (NodeTable, node_from_rule_oracle, (4, 1, 1, 2), node_rule),
            (EdgeTable, edge_from_rule_oracle, (4, 0, 1, 2), edge_rule)):
        with pytest.raises(InvalidParameterError):
            oracle(owner, *args, rule)
        with pytest.raises(InvalidParameterError):
            owner.from_rule(*args, rule)


def test_from_rule_scalar_broadcasts():
    alg = NodeTable.from_rule(4, 1, 2, 3, lambda bits: 2)
    assert alg.table.dtype == np.int64 and alg.table.size == 1 << 10
    assert set(alg.table.tolist()) == {2}
    alg.table[0] = 1            # a fresh, writable table
    with pytest.raises(InvalidParameterError):
        NodeTable.from_rule(4, 1, 1, 3, lambda bits: 3)


@pytest.mark.parametrize("frame, m", [
    (neighbor_frame(4, 1, 0), 5), (neighbor_frame(6, 1, 3), 7),
    (incident_edge_frame(4, 1, 1, 2), 5), (incident_edge_frame(4, 0, 0, 1), 1),
    (incident_edge_frame(6, 1, 0, 5), 7),
    (endpoint_completion_frame(4, 1, 0, 2, "M"), 2),
    (endpoint_completion_frame(6, 1, 0, 1, "P"), 2)])
@pytest.mark.parametrize("b", [1, 2])
def test_overlap_tables_factor_key_tables(frame, m, b):
    known, free = key_tables(frame, b, m)
    want_known, want_free = key_tables_oracle(frame, b, m)
    assert np.array_equal(known, want_known) and np.array_equal(free, want_free)
    proj, targets = overlap_tables(frame, b, m)
    assert targets.shape == (1 << (b * len(frame.known)), 1 << (b * frame.free_count))
    assert np.array_equal(targets[proj], want_known[:, None] | want_free[None, :])


def test_cached_arrays_reject_writes():
    fr = neighbor_frame(4, 1, 0)
    assert neighbor_frame(4, 1, 0) is fr
    assert ball_paths(4, 1) is ball_paths(4, 1)
    assert edge_positions(4, 1, 2) is edge_positions(4, 1, 2)
    assert key_tables(fr, 1, 5) is key_tables(fr, 1, 5)
    assert overlap_tables(fr, 1, 5) is overlap_tables(fr, 1, 5)
    for a in key_tables(fr, 1, 5) + overlap_tables(fr, 1, 5):
        with pytest.raises(ValueError):
            a[0] = 1
        with pytest.raises(ValueError):
            a |= 1
