"""Dimension-oblivious two-level Schwarz solver on space-filling-curve partitions."""

from . import coarse, combine, grid, krylov, linalg, partition, schwarz, sfc
from .coarse import CoarseSpace, build_coarse
from .combine import (CombinationPlan, enumerate_plan, run_combination,
                      sampled_error, subdomain_count_total)
from .grid import (Problem, assemble_laplacian, manufactured_poisson, num_dofs,
                   symmetrize_diag)
from .krylov import (SolveReport, SolverConfig, estimate_extremal_eigs, fcg,
                     initial_iterate, pcg, richardson)
from .linalg import Factorization, factorize, triple_product
from .partition import (CyclicRange, OverlapWeights, Partition,
                        build_partition, compute_weights, disjoint_partition,
                        enlarge)
from .schwarz import SchwarzConfig, SchwarzOperator, setup
from .sfc import CurveConfig, decode, encode, grid_point_key, holder_estimate

__all__ = [
    "coarse", "combine", "grid", "krylov", "linalg", "partition", "schwarz",
    "sfc",
    "CoarseSpace", "build_coarse",
    "CombinationPlan", "enumerate_plan", "run_combination", "sampled_error",
    "subdomain_count_total",
    "Problem", "assemble_laplacian", "manufactured_poisson", "num_dofs",
    "symmetrize_diag",
    "SolveReport", "SolverConfig", "estimate_extremal_eigs", "fcg",
    "initial_iterate", "pcg", "richardson",
    "Factorization", "factorize", "triple_product",
    "CyclicRange", "OverlapWeights", "Partition", "build_partition",
    "compute_weights", "disjoint_partition", "enlarge",
    "SchwarzConfig", "SchwarzOperator", "setup",
    "CurveConfig", "decode", "encode", "grid_point_key", "holder_estimate",
]

__version__ = "0.1.0"
