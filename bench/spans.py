"""Span tracing of the program's layers, installed from outside ``src/``.

``Tracer.install`` replaces each listed public function of ``lclsim`` with a
wrapper that records one span per call: name, start, end and the span that
was open when it was called (its parent).  The wrapper is installed under
every name that refers to the function in any ``lclsim`` module, so calls
through names one module imports from another (``cli`` from ``algorithms``,
``views`` from ``graph``, ...) are recorded too.  Spans stay in compact
arrays in memory and are written out by ``save`` when the run ends.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (module, qualified name) of every wrapped function; the span name is
# "<module>.<qualified name>" and the module is the span's layer
TARGETS = (
    ("graph", "gen_regular_tree"), ("graph", "PortedGraph.save"),
    ("graph", "PortedGraph.load"), ("graph", "PortedGraph.from_edges"),
    ("graph", "PortedGraph.validate"), ("graph", "bfs_distances"),
    ("graph", "ball_irregularities"),
    ("views", "extract_view"),
    ("engine", "Assignment.random"), ("engine", "run_node_algorithm"),
    ("engine", "run_edge_algorithm"), ("engine", "local_failure_probability"),
    ("engine", "require_interior"),
    ("problems", "verify_pointer_labeling"), ("problems", "verify_weak_coloring"),
    ("problems", "verify_homogeneous"), ("problems", "verifier_report"),
    ("algorithms", "solve_pointer_labeling"),
    ("algorithms", "solve_pointer_labeling_local"),
    ("algorithms", "weak_family_to_weak2"), ("algorithms", "weak_to_weak2c"),
    ("algorithms", "build_pseudoforest"), ("algorithms", "cole_vishkin_reduce"),
    ("algorithms", "mis_to_weak2"), ("algorithms", "homogeneous_dispatch"),
    ("oriented", "key_tables"), ("oriented", "NodeTable.from_rule"),
    ("oriented", "EdgeTable.from_rule"), ("oriented", "pack_node_view"),
    ("oriented", "pack_edge_view"),
    ("speedup", "node_local_failure"), ("speedup", "edge_local_failure"),
    ("speedup", "node_to_edge_speedup"), ("speedup", "edge_to_node_speedup"),
    ("speedup", "verify_speedup_inequality"),
    ("speedup", "EdgeSpeedupConstruction.local_failure"),
    ("speedup", "EdgeSpeedupConstruction.goodness_violation"),
    ("speedup", "NodeSpeedupConstruction.local_failure"),
    ("speedup", "random_node_algorithm"), ("speedup", "random_edge_algorithm"),
    ("bounds", "recurrence_bound"), ("bounds", "global_success_upper_bound"),
    ("bounds", "zero_round_optimum"), ("bounds", "id_collision_bound"),
    ("cli", "main"), ("cli", "cmd_gen"), ("cli", "cmd_run"),
    ("cli", "cmd_speedup"), ("cli", "cmd_bounds"), ("cli", "write_json"),
    ("cli", "provenance"), ("cli", "random_valid_weak_coloring"),
)

LAYERS = ("graph", "views", "engine", "problems", "algorithms", "oriented",
          "speedup", "bounds", "cli")


class Tracer:
    def __init__(self):
        self.names = []                 # span-name table
        self.name_id = {}
        self.kind = array("i")          # name id per span
        self.parent = array("i")        # parent span index, -1 at top level
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.kernel_keys = 0            # keys assembled by oriented.key_tables

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name):
        nid = self._id(name)
        mode_ids = None
        if name == "engine.local_failure_probability":
            # exact and Monte Carlo calls are different work; name them apart
            mode_ids = {m: self._id(f"{name}.{m}") for m in ("exact", "monte-carlo")}
        count_keys = name == "oriented.key_tables"
        clock = time.perf_counter
        kind, parent, start, end, stack = (self.kind, self.parent, self.start,
                                           self.end, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            kind.append(nid if mode_ids is None
                        else mode_ids.get(kwargs.get("mode", "exact"), nid))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_keys:
                self.kernel_keys += result[0].size * result[1].size
            return result
        return traced

    def install(self):
        """Wrap every target under every name that refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "lclsim" or name.startswith("lclsim.")]
        for mod_name, qual in TARGETS:
            owner = sys.modules[f"lclsim.{mod_name}"]
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, f"{mod_name}.{qual}")))
                continue
            wrapper = self.wrap(raw, f"{mod_name}.{qual}")
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, wrapper)

    # -- derived metrics ------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.kind, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        kind, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), kind=kind, parent=parent,
                 start=start, end=end)

    def metrics(self, work):
        """Per-layer metrics from the spans.  ``work`` holds the counts the
        workload knows: assignments enumerated, Monte Carlo samples."""
        kind, parent, start, end = self.arrays()
        dur = end - start
        ids = {name: i for i, name in enumerate(self.names)}
        n_names = len(self.names)
        child = np.zeros(len(dur))
        top = parent >= 0
        np.add.at(child, parent[top], dur[top])
        self_time = np.bincount(kind, weights=dur - child, minlength=n_names)
        calls = np.bincount(kind, minlength=n_names)

        def select(names):
            return np.isin(kind, [ids[n] for n in names if n in ids])

        def outer_s(*names):
            """Time inside spans of these names, nested calls counted once."""
            sel = select(names)
            s, e = start[sel], end[sel]
            if not s.size:
                return 0.0
            reach = np.maximum.accumulate(e)
            outer = np.ones(s.size, dtype=bool)
            outer[1:] = s[1:] >= reach[:-1]
            return float((e[outer] - s[outer]).sum())

        def count(*names):
            return int(select(names).sum())

        def nested_count(inner, outer):
            sel_o = select([outer])
            s, e = start[sel_o], end[sel_o]
            t = start[select([inner])]
            i = np.searchsorted(s, t, side="right") - 1
            return int(((i >= 0) & (t < e[np.maximum(i, 0)])).sum())

        m = {}
        for layer in LAYERS:
            in_layer = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
            m[f"{layer}.self_s"] = float(self_time[in_layer].sum())
            m[f"{layer}.calls"] = int(calls[in_layer].sum())
        exact = "engine.local_failure_probability.exact"
        mc = "engine.local_failure_probability.monte-carlo"
        kernels = ("speedup.node_local_failure", "speedup.edge_local_failure",
                   "speedup.node_to_edge_speedup", "speedup.edge_to_node_speedup",
                   "speedup.EdgeSpeedupConstruction.goodness_violation")
        kernel_s = outer_s(*kernels)
        m.update({
            "graph.gen_s": outer_s("graph.gen_regular_tree"),
            "graph.save_s": outer_s("graph.PortedGraph.save"),
            "graph.load_s": outer_s("graph.PortedGraph.load"),
            "graph.validate_s": outer_s("graph.PortedGraph.validate"),
            "graph.ball_irregularities_calls": count("graph.ball_irregularities"),
            "graph.ball_irregularities_s": outer_s("graph.ball_irregularities"),
            "graph.bfs_calls": count("graph.bfs_distances"),
            "views.extract_view_calls": count("views.extract_view"),
            "views.extract_view_s": outer_s("views.extract_view"),
            "engine.assignment_random_s": outer_s("engine.Assignment.random"),
            "engine.run_node_algorithm_s": outer_s("engine.run_node_algorithm"),
            "engine.enum_us_per_assignment":
                1e6 * outer_s(exact) / work["assignments"] if work["assignments"] else 0.0,
            "engine.views_per_assignment":
                nested_count("views.extract_view", exact) / work["assignments"]
                if work["assignments"] else 0.0,
            "engine.mc_us_per_sample":
                1e6 * outer_s(mc) / work["samples"] if work["samples"] else 0.0,
            "algorithms.solve_pointer_s": outer_s("algorithms.solve_pointer_labeling"),
            "algorithms.solve_pointer_local_s":
                outer_s("algorithms.solve_pointer_labeling_local"),
            "algorithms.weak2_pipeline_s": outer_s(
                "algorithms.weak_family_to_weak2", "algorithms.weak_to_weak2c",
                "algorithms.build_pseudoforest", "algorithms.cole_vishkin_reduce",
                "algorithms.mis_to_weak2"),
            "algorithms.weak_to_weak2c_calls": count("algorithms.weak_to_weak2c"),
            "algorithms.homogeneous_dispatch_s": outer_s("algorithms.homogeneous_dispatch"),
            "problems.verify_pointer_s": outer_s("problems.verify_pointer_labeling"),
            "problems.verify_weak_coloring_calls": count("problems.verify_weak_coloring"),
            "problems.verify_weak_coloring_s": outer_s("problems.verify_weak_coloring"),
            "problems.verify_homogeneous_s": outer_s("problems.verify_homogeneous"),
            "oriented.table_build_s": outer_s("oriented.NodeTable.from_rule",
                                              "oriented.EdgeTable.from_rule",
                                              "speedup.random_node_algorithm",
                                              "speedup.random_edge_algorithm"),
            "oriented.key_tables_calls": count("oriented.key_tables"),
            "oriented.kernel_keys": self.kernel_keys,
            "oriented.kernel_keys_per_s": self.kernel_keys / kernel_s if kernel_s else 0.0,
            "speedup.construction_s": outer_s("speedup.node_to_edge_speedup",
                                              "speedup.edge_to_node_speedup"),
            "speedup.local_failure_s": outer_s("speedup.node_local_failure",
                                               "speedup.edge_local_failure"),
            "speedup.grid_points": count("speedup.EdgeSpeedupConstruction.local_failure",
                                         "speedup.NodeSpeedupConstruction.local_failure"),
            "bounds.calc_s": outer_s("bounds.recurrence_bound",
                                     "bounds.global_success_upper_bound",
                                     "bounds.zero_round_optimum",
                                     "bounds.id_collision_bound"),
            "cli.json_write_s": outer_s("cli.write_json"),
            "cli.random_coloring_s": outer_s("cli.random_valid_weak_coloring"),
            "trace.spans": len(dur),
        })
        return m
