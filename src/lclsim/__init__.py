"""Simulator and verification toolkit for locally checkable labelings in
the LOCAL model: weak-coloring reductions, pointer-problem solvers,
node/edge speedup constructions with exact failure-probability checks, and
the accompanying analytic bound calculators."""

__version__ = "0.1.0"

from .engine import (Assignment, DirectedPair, FailureEstimate,
                     LocalAlgorithm, local_failure_probability,
                     run_edge_algorithm, run_node_algorithm,
                     weak_coloring_failure, weak_edge_coloring_failure)
from .graph import (PortedGraph, gen_balanced_tree, gen_cycle,
                    gen_regular_tree, gen_symlower_pair,
                    independent_execution_set, plant_irregularities)
from .problems import (HomogeneousLabel, PointerLabel,
                       verify_homogeneous, verify_pointer_labeling,
                       verify_weak_coloring, verify_weak_edge_coloring)
from .algorithms import (build_pseudoforest, cole_vishkin_reduce,
                         homogeneous_dispatch, mis_to_weak2,
                         solve_pointer_labeling,
                         solve_pointer_labeling_local, weak_family_to_weak2,
                         weak_to_weak2c)
from .speedup import (SpeedupConfig, edge_to_node_speedup,
                      node_to_edge_speedup, verify_speedup_inequality)
from .bounds import (global_success_upper_bound, id_collision_bound,
                     log_star, recurrence_bound, zero_round_optimum)
