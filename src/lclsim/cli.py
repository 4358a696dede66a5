"""Command-line experiment runner.

Subcommands: ``gen`` (graph files), ``run`` (algorithms + matching
verifier), ``speedup`` (inequality reports), ``bounds`` (calculator
tables).  Every command is deterministic given its arguments and seed;
JSON outputs carry a provenance block with the tool version, the seed and
a hash of the resolved configuration; ``run --algorithm solve-pointers``
and ``speedup`` add a ``metrics`` block of work counts (the pointer
solver's search; the thresholds evaluated and the exact kernels' sizes).
``--out -`` writes the JSON document to stdout and the summary line to
stderr, so stdout parses as JSON.

Exit codes: 0 success, 1 verification failure, 2 configuration error (also
a path that cannot be read), 3 exact budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .algorithms import (homogeneous_dispatch, solve_pointer_labeling,
                         solve_pointer_labeling_local, weak_family_to_weak2,
                         weak_to_weak2c)
from .bounds import (global_success_upper_bound, id_collision_bound,
                     recurrence_bound, zero_round_optimum)
from .engine import Assignment, LocalAlgorithm, randbelow_array
from .errors import (BudgetExceededError, DomainError, InvalidInputError,
                     InvalidInstanceError, InvalidLabelingError,
                     InvalidParameterError, PSolverViolation)
from .graph import (POW10, PortedGraph, bfs_levels, decimal_digits, digit_columns,
                    dumps_canonical, gen_cycle, gen_regular_tree, gen_symlower_pair,
                    right_aligned)
from .problems import (identity_codes, verify_homogeneous, verify_pointer_labeling,
                       verify_weak_coloring, verifier_report)
from .speedup import (SpeedupConfig, constant_edge_algorithm,
                      constant_node_algorithm, center_mod_node_algorithm,
                      ball_parity_node_algorithm, endpoint_sum_edge_algorithm,
                      own_bit_node_algorithm, random_edge_algorithm,
                      random_node_algorithm, verify_speedup_inequality,
                      default_f_grid, xor_edge_algorithm)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

CONFIG_VERSION = 1
# Repair sweeps of random_valid_weak_coloring before its parity fallback;
# every seeded coloring, so every ``run --seed`` output, depends on it.
REPAIR_PASSES = 20


def provenance(args_dict):
    blob = dumps_canonical(args_dict)
    return {
        "tool": "lclsim",
        "version": __version__,
        "seed": args_dict.get("seed"),
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
    }


class NodeMap:
    """A ``{node: label}`` map that ``write_json`` writes as the JSON object
    ``{str(node): label}``, straight from the algorithm's dict (its keys
    are node ids: non-negative ints below 2**31)."""

    def __init__(self, labels):
        self.labels = labels

    def dumps(self):
        """The map's JSON text, assembled as one byte array.

        The only pass over the labels codes each object by identity, so a
        shared label is encoded once, unhashable labels work, and ``1``,
        ``True`` and ``1.0`` (equal, yet written apart) stay apart.  Keys go
        in the order ``sort_keys=True`` gives their decimal strings: by the
        key left-aligned to the widest key's digit count, then by digit
        count.  Each entry is its label's fixed-width template row with the
        key's digits right-aligned in it, and one boolean mask keeps the
        bytes of the text.
        """
        n = len(self.labels)
        keys = np.fromiter(self.labels, np.int64, n)
        if n and not 0 <= keys.min() <= keys.max() < 2**31:
            raise ValueError("node map keys must be node ids in [0, 2**31)")
        nd = decimal_digits(keys)
        width = int(nd.max(initial=1))
        order = np.lexsort((nd, keys * POW10[width - nd]))
        code, labels = identity_codes(self.labels.values())
        # one template row per label: '"', the key's digit slots, '":', the text, ','
        texts = [b'"%s":%s,' % (b"0" * width, _dumps(asdict(x) if is_dataclass(x) else x).encode())
                 for x in labels]
        size = np.fromiter(map(len, texts), np.intp, len(texts))
        fill = np.arange(size.max(initial=width + 4)) < size[:, None]
        template = np.zeros(fill.shape, np.uint8)
        template[fill] = np.frombuffer(b"".join(texts), np.uint8)

        code = code[order]
        row, keep = np.take(template, code, axis=0), np.take(fill, code, axis=0)
        row[:, 1:width + 1] = digit_columns(keys[order], width)
        keep[:, 1:width + 1] = right_aligned(nd[order], width)
        text = row[keep][:-1]
        del row, keep                     # before the text is copied out
        return f"{{{str(text, 'ascii')}}}"


def _holds_node_map(obj):
    return isinstance(obj, dict) and any(
        isinstance(v, NodeMap) or _holds_node_map(v) for v in obj.values())


def _dumps(obj):
    """``dumps_canonical(obj)`` without its newline; NodeMaps render themselves."""
    if isinstance(obj, NodeMap):
        return obj.dumps()
    if not _holds_node_map(obj):
        return dumps_canonical(obj)[:-1]
    return "{" + ",".join(f"{json.dumps(k)}:{_dumps(obj[k])}" for k in sorted(obj)) + "}"


def _summary_stream(path):
    return sys.stderr if path == "-" else sys.stdout  # stdout holds only the JSON


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_json(path, obj):
    _write(path, _dumps(obj) + "\n")


def parse_fraction(text, flag):
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(text)
    except ZeroDivisionError:
        raise InvalidParameterError(f"{flag} {text}: the denominator is zero") from None


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args):
    if args.family == "symlower":
        t_graph, t_prime, center = gen_symlower_pair(args.delta, args.r)
        t_graph.save(args.out_prefix + "_t.json")
        t_prime.save(args.out_prefix + "_tprime.json")
        print(f"wrote {args.out_prefix}_t.json and {args.out_prefix}_tprime.json: "
              f"n={t_graph.n} center={center}")
        return EXIT_OK
    g = (gen_regular_tree(args.delta, args.radius) if args.family == "regular-tree"
         else gen_cycle(args.n))
    if args.out == "-":
        _write("-", g.dumps())
    else:
        g.save(args.out)
    print(f"wrote {args.out}: n={g.n} delta={g.delta} "
          f"oriented={'yes' if g.meta.get('oriented') else 'no'}", file=_summary_stream(args.out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def random_valid_weak_coloring(g, c, k, seed):
    """Seeded random distance-k weak c-coloring.

    Starts from a uniform coloring and repairs monochromatic balls; if the
    repair sweeps do not settle, falls back to random colors stratified by
    BFS-depth parity classes (odd colors vs even colors), which is valid on
    any connected graph with at least two nodes.
    """
    from .problems import _sees_other_color
    if g.n < 2:
        raise InvalidInputError("weak colorings need at least two nodes")
    if c < 2:
        raise InvalidParameterError("a weak coloring needs --c >= 2 colors")
    if k < 1:
        raise InvalidParameterError("a weak coloring needs distance --k >= 1")
    rng = random.Random(seed)
    phi = dict(zip(range(g.n), (randbelow_array(rng, c, g.n) + 1).tolist()))
    for _ in range(REPAIR_PASSES):
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


def _load_coloring(path, n):
    """A coloring file: one JSON object mapping every node (its id as a
    string) to a color."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise InvalidInputError(
            f"coloring file {path} must hold a JSON object mapping nodes to colors")
    phi = {}
    for key, col in raw.items():
        try:
            v = int(key)
        except ValueError:
            raise InvalidInputError(f"coloring file {path} names no node {key!r}") from None
        if not 0 <= v < n:
            raise InvalidInputError(f"coloring file {path} names node {v}, outside 0..{n - 1}")
        if isinstance(col, bool):  # JSON true/false would pass as the ints 1/0
            raise InvalidInputError(f"coloring file {path} gives node {v} the color "
                                    f"{json.dumps(col)}, which is not an integer")
        phi[v] = col
    missing = [v for v in range(n) if v not in phi]
    if missing:
        raise InvalidInputError(f"coloring file {path} gives no color for node {missing[0]}")
    return phi


def cmd_run(args):
    g = PortedGraph.load(args.graph)
    prov = provenance(vars(args))

    if args.algorithm in ("weak-family-to-weak2", "weak-to-weak2c"):
        if args.coloring:
            phi = _load_coloring(args.coloring, g.n)
        else:
            phi = random_valid_weak_coloring(g, args.c, args.k, args.seed)
        if args.algorithm == "weak-to-weak2c":
            phi2, rounds = weak_to_weak2c(g, phi, args.k, args.c)
            results = verify_weak_coloring(g, phi2, 2 * args.c, 1)
            payload = {"labels": NodeMap(phi2), "rounds": rounds}
            problem = f"weak-{2 * args.c}-coloring(distance 1)"
        else:
            res = weak_family_to_weak2(g, phi, args.k, args.c)
            results = verify_weak_coloring(g, res.labels, 2, 1)
            payload = {"labels": NodeMap(res.labels),
                       "rounds": res.rounds, "stage_rounds": res.stage_rounds}
            if args.dump_stages:
                payload["stages"] = {
                    name: NodeMap(stage)
                    for name, stage in (
                        ("input", phi), ("recolored", res.recolored),
                        ("pseudoforest_ports", res.pseudoforest_ports),
                        ("three_coloring", res.three_coloring),
                        ("independent_set", res.labels))}
            problem = "weak-2-coloring"
    elif args.algorithm == "solve-pointers":
        a = Assignment.random(g, b=1, seed=args.seed, with_ids=True)
        metrics = {}
        labels, rounds = solve_pointer_labeling(g, a, metrics=metrics)
        results = verify_pointer_labeling(g, labels, g.delta)
        payload = {"labels": NodeMap(labels),
                   "rounds": rounds, "metrics": metrics}
        problem = "pointer-labeling"
    elif args.algorithm == "solve-pointers-local":
        a = Assignment.random(g, b=1, seed=args.seed, with_ids=True)
        labels = solve_pointer_labeling_local(g, args.r, a)
        verdicts = verify_pointer_labeling(g, labels, g.delta)
        results = {v: verdicts[v] for v in labels}
        payload = {"labels": NodeMap(labels),
                   "labeled": len(labels), "radius": args.r}
        problem = "pointer-labeling(local)"
    else:  # homogeneous-constant
        a = Assignment.random(g, b=1, seed=args.seed, with_ids=True)
        solver = LocalAlgorithm(rounds=0, kind="node", rule=lambda view: 1,
                                name="constant-inner")
        labels = homogeneous_dispatch(
            g, solver, lambda gg, v, inner: inner.get(v) == 1, args.r, a)
        results = verify_homogeneous(
            g, labels, lambda gg, v, inner: inner.get(v) == 1, g.delta)
        payload = {"labels": NodeMap(labels)}
        problem = "homogeneous(constant inner)"

    report = verifier_report(problem, results)
    out = {"provenance": prov, "report": report, **payload}
    write_json(args.out, out)
    if report["fail_nodes"]:
        print(f"verification FAILED at {len(report['fail_nodes'])} nodes",
              file=sys.stderr)
        return EXIT_VERIFICATION
    summary = f"all {report['pass_count']} nodes pass (rounds={payload.get('rounds', 'n/a')})"
    if payload.get("labeled") == 0:
        summary = f"no node labeled within r={args.r}; nothing judged"
    print(f"{problem}: {summary}", file=_summary_stream(args.out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# speedup
# ---------------------------------------------------------------------------

NODE_SOURCES = {
    "own-bit": lambda d, t, b, c, seed: own_bit_node_algorithm(d, t, b, c),
    "constant": lambda d, t, b, c, seed: constant_node_algorithm(d, t, b, c),
    "parity": lambda d, t, b, c, seed: ball_parity_node_algorithm(d, t, b, c),
    "center-mod": lambda d, t, b, c, seed: center_mod_node_algorithm(d, t, b, c),
    "random": random_node_algorithm,
}

EDGE_SOURCES = {
    "xor": lambda d, t, b, c, seed: xor_edge_algorithm(d, t, b),
    "constant": lambda d, t, b, c, seed: constant_edge_algorithm(d, t, b, c),
    "endpoint-sum": lambda d, t, b, c, seed: endpoint_sum_edge_algorithm(d, t, b, c),
    "random": random_edge_algorithm,
}


def cmd_speedup(args):
    sources = NODE_SOURCES if args.direction == 1 else EDGE_SOURCES
    if args.algorithm is None:
        args.algorithm = "own-bit" if args.direction == 1 else "xor"
    if args.algorithm not in sources:
        print(f"unknown source algorithm {args.algorithm!r}", file=sys.stderr)
        return EXIT_CONFIG
    if args.grid < 0:
        raise InvalidParameterError(f"--grid {args.grid}: give 0 (no grid) or more points")
    cfg = SpeedupConfig(delta=args.delta, c=args.c, t=args.t,
                        f=parse_fraction(args.f, "--f"), b=args.b)
    alg = sources[args.algorithm](args.delta, args.t, args.b, args.c, args.seed)
    g = gen_regular_tree(args.delta, args.t + 2)
    report = verify_speedup_inequality(g, alg, None, cfg, args.direction,
                                       f_grid=default_f_grid(args.grid))
    obj = report.to_json_obj()
    obj["provenance"] = provenance(vars(args))
    obj["source"] = alg.name
    write_json(args.out, obj)
    print(f"direction {args.direction} [{alg.name}]: p={float(report.p):.6g} "
          f"p'={float(report.p_prime):.6g} inequality "
          f"{'holds' if report.inequality_holds else 'VIOLATED'}"
          f"{'' if report.goodness_holds else '; goodness bound VIOLATED'}",
          file=_summary_stream(args.out))
    ok = report.inequality_holds and report.goodness_holds
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _emit_table(rows, header, args):
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(r[h]) for h in header) for r in rows]
        _write(args.out, "\n".join(lines) + "\n")
    else:
        write_json(args.out, {"provenance": provenance(vars(args)), "rows": rows})
    return EXIT_OK


def cmd_bounds(args):
    if args.calculator == "recurrence":
        rows, p0 = [], parse_fraction(args.p0, "--p0")
        if args.t < 0:   # the loop below would take no t at all
            raise InvalidParameterError("need c0 >= 1 and t >= 0")
        for t in range(args.t, -1, -1):   # the largest first: past the budget fails at once
            rb = recurrence_bound(args.c0, p0, t, args.delta)
            rows.append({"c0": args.c0, "t": t, "delta": args.delta,
                         "bound": float(rb.closed_form),
                         "log2_bound": _log2_fraction(rb.closed_form),
                         "agrees_with_iteration": rb.agree})
        rows.reverse()
        return _emit_table(rows, ["c0", "t", "delta", "bound",
                                  "log2_bound", "agrees_with_iteration"], args)
    if args.calculator == "global":
        rows = []
        for n in args.n:
            row = global_success_upper_bound(n, args.t, args.b).to_json_obj()
            rows.append({"n": n, "t": args.t, "b": args.b,
                         "bound": row["value"], "relaxed": row["relaxed"],
                         "condition_holds": row["condition_holds"]})
        return _emit_table(rows, ["n", "t", "b", "bound", "relaxed",
                                  "condition_holds"], args)
    if args.calculator == "zero-round":
        rows = []
        for c in args.c:
            zr = zero_round_optimum(c, args.delta)
            rows.append({"c": c, "delta": args.delta,
                         "closed_form": float(zr.closed_form),
                         "numeric_minimum": zr.numeric_minimum,
                         "gap": abs(zr.numeric_minimum - float(zr.closed_form))})
        return _emit_table(rows, ["c", "delta", "closed_form",
                                  "numeric_minimum", "gap"], args)
    rows = []  # id-collision
    for n in args.n:
        ib = id_collision_bound(n)
        rows.append({"n": n, "value": float(ib.value),
                     "bound": float(ib.bound), "holds": ib.holds})
    return _emit_table(rows, ["n", "value", "bound", "holds"], args)


def _log2_fraction(fr):
    # log2 of a positive rational without floating through zero
    return (fr.numerator.bit_length() - 1) - (fr.denominator.bit_length() - 1) \
        if fr > 0 else None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="lclsim", description=__doc__)
    p.add_argument("--config", help="JSON config file (versioned; replaces flags)")
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("gen", help="generate graph files")
    gsub = g.add_subparsers(dest="family")
    rt = gsub.add_parser("regular-tree")
    rt.add_argument("--delta", type=int, required=True)
    rt.add_argument("--radius", type=int, required=True)
    rt.add_argument("--out", default="tree.json")
    cy = gsub.add_parser("cycle")
    cy.add_argument("--n", type=int, required=True)
    cy.add_argument("--out", default="cycle.json")
    sl = gsub.add_parser("symlower")
    sl.add_argument("--delta", type=int, required=True)
    sl.add_argument("--r", type=int, required=True)
    sl.add_argument("--out-prefix", default="symlower")

    r = sub.add_parser("run", help="run an algorithm and its verifier")
    r.add_argument("--algorithm", required=True,
                   choices=["weak-family-to-weak2", "weak-to-weak2c",
                            "solve-pointers", "solve-pointers-local",
                            "homogeneous-constant"])
    r.add_argument("--graph", required=True)
    r.add_argument("--k", type=int, default=1)
    r.add_argument("--c", type=int, default=2)
    r.add_argument("--r", type=int, default=2)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--coloring", help="JSON node->color file (else random valid)")
    r.add_argument("--dump-stages", action="store_true")
    r.add_argument("--out", default="labeling.json")

    s = sub.add_parser("speedup", help="speedup inequality report")
    s.add_argument("--direction", type=int, choices=[1, 2], required=True)
    s.add_argument("--delta", type=int, default=4)
    s.add_argument("--b", type=int, default=1)
    s.add_argument("--c", type=int, default=2)
    s.add_argument("--t", type=int, default=1)
    s.add_argument("--f", default="1/40")
    s.add_argument("--grid", type=int, default=100)
    s.add_argument("--algorithm",
                   help="source algorithm (default: own-bit for direction 1, xor for 2)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="speedup.json")

    b = sub.add_parser("bounds", help="bound calculator tables")
    b.add_argument("calculator",
                   choices=["recurrence", "global", "zero-round", "id-collision"])
    b.add_argument("--c0", type=int, default=2)
    b.add_argument("--p0", default="1/16")
    b.add_argument("--t", type=int, default=3)
    b.add_argument("--b", type=int, default=1)
    b.add_argument("--delta", type=int, default=4)
    b.add_argument("--n", type=int, nargs="+", default=[4096])
    b.add_argument("--c", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7, 8])
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.add_argument("--out", default="-")
    return p


def _apply_config(parser, argv):
    """A config file replaces the command line: version checked, unknown
    keys and flags next to it rejected."""
    if "--config" not in argv:
        return argv
    if argv == ["--config"]:
        raise InvalidParameterError("--config needs the path of a config file")
    if len(argv) != 2 or argv[0] != "--config":
        raise InvalidParameterError("--config replaces the command line; "
                                    "give no other arguments next to it")
    path = argv[1]
    with open(path) as fh:
        cfg = json.load(fh)
    if cfg.pop("version", None) != CONFIG_VERSION:
        raise InvalidParameterError(f"config must declare version {CONFIG_VERSION}")
    command = cfg.pop("command", None)
    if command is None:
        raise InvalidParameterError("config lacks a command")
    out = command.split()
    for key, val in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                out.append(flag)
        elif isinstance(val, list):
            out.extend([flag] + [str(x) for x in val])
        else:
            out.extend([flag, str(val)])
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    command = "lclsim"
    try:
        argv = _apply_config(parser, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits on unknown flags
            return EXIT_CONFIG if exc.code else EXIT_OK
        if args.config is not None:  # a spelling _apply_config did not take
            raise InvalidParameterError("give the config file as: --config PATH")
        if args.command is None or args.command == "gen" and args.family is None:
            parser.print_help()
            return EXIT_CONFIG
        command = args.command
        return {"gen": cmd_gen, "run": cmd_run, "speedup": cmd_speedup,
                "bounds": cmd_bounds}[command](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:  # an allocation that no budget check foresaw
        print(f"budget exceeded: out of memory running {command}", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidParameterError, InvalidInputError, InvalidLabelingError,
            InvalidInstanceError, DomainError, OSError,
            json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PSolverViolation as exc:
        print(f"inner solver violation: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
