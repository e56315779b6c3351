"""Tools for studying how crawling techniques distort degree statistics.

The package has three layers. `graph` and `generate` build and measure
undirected multigraphs with prescribed degree distributions. `samplers`
collects the crawling techniques themselves, including a stub-level
traversal that exposes why breadth-first-like crawls share one sampling
law. `analytic` predicts the sampled degree distribution at any coverage,
and `estimators` inverts the distortion to recover unbiased statistics.
`experiments` and `cli` wrap the layers in a replicated, seeded harness.
"""

from .analytic import (ConvergenceError, curve_rows, exact_step_distribution, f_k_of_t, f_of_t,
                       mean_q_of_f, q_k_of_f, q_k_of_t, reachable_fraction, rw_expected, t_of_f)
from .estimators import (EstimationReport, NeighborhoodScheme, arbitrary_topology_estimate,
                         bfs_correct, empirical_q, mhrw_correct, rmse_compare, rw_correct)
from .generate import (RewireResult, configuration_model, degree_sequence_from_distribution,
                       rewire_to_assortativity)
from .graph import (DegreeDistribution, Graph, GraphFormatError, RAW, assortativity,
                    ball, degree_distribution, induced_subgraph, largest_component_nodes,
                    load_edge_list, moments, stats_row)
from .samplers import (FIFO, LIFO, QueueDiscipline, SampleTrace, StubAssignment,
                       assign_stub_indices, bfs, dfs, forest_fire, mhrw, random_walk,
                       randomized_fifo, snowball, stub_level_traversal,
                       weighted_without_replacement)
from .experiments import trace_from_csv, trace_to_csv

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DegreeDistribution", "EstimationReport", "FIFO", "Graph",
    "GraphFormatError", "LIFO", "NeighborhoodScheme", "QueueDiscipline",
    "RAW", "RewireResult", "SampleTrace", "StubAssignment", "arbitrary_topology_estimate",
    "assign_stub_indices", "assortativity", "ball", "bfs", "bfs_correct",
    "configuration_model", "curve_rows", "degree_distribution",
    "degree_sequence_from_distribution", "dfs", "empirical_q", "exact_step_distribution",
    "f_k_of_t", "f_of_t", "forest_fire", "induced_subgraph", "largest_component_nodes",
    "load_edge_list", "mean_q_of_f", "mhrw", "mhrw_correct", "moments", "q_k_of_f",
    "q_k_of_t", "random_walk", "randomized_fifo", "reachable_fraction", "rewire_to_assortativity",
    "rmse_compare", "rw_correct", "rw_expected", "snowball", "stats_row",
    "stub_level_traversal", "t_of_f", "trace_from_csv", "trace_to_csv",
    "weighted_without_replacement",
]
