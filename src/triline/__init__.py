"""Exact triple-line expansion of the two-family quartic matrix model.

Layers, bottom up: a real coordinate basis for Hermitian matrix pairs
(:mod:`cosbasis`); the regularized Gaussian weight, its T-transform,
propagators and the Wick pairing sum (:mod:`gaussian`) with a
finite-dimensional numeric oracle and epsilon extrapolation
(:mod:`oracle`); pairing enumeration, triple-line loop tracing, genus and
connectivity (:mod:`diagrams`) with a vectorized parallel census
(:mod:`census`); exact series assembly, the linked-cluster logarithm, the
genus/link table and F(g) (:mod:`series`, cross-checked by :mod:`mixed`);
Gauss-code export of planar diagrams (:mod:`knots`); and a CLI
(:mod:`cli`).

Importing the package pins numpy's BLAS to one thread per process.  Its
only BLAS work is the oracle's small covariance algebra (150 x 150 at
N = 5, d = 3), and a BLAS thread pool costs CPU time in every process,
census pool workers included, that this work never wins back.  The pin is
a default: a thread count already set in the environment is kept.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:   # once numpy is loaded, BLAS has its threads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .cosbasis import BasisElement, MatrixPair, cos_basis
from .census import pairing_census
from .diagrams import (DEFAULT_KMAX, LoopReport, Pairing, brute_force_index_sum,
                       components_and_genus, enumerate_matchings, is_tadpole,
                       trace_greek_loops)
from .errors import (InvariantViolation, ResourceLimitError, StructureError,
                     TrilineError, ValidationError)
from .gaussian import (EntrySymbol, PropagatorMatrix, RegKernel, free_partition,
                       general_propagators, propagator, quartic_monomials,
                       t_transform_limit, t_transform_reg, u_bound_check,
                       wick_moment, wick_order_quartic)
from .knots import (GaussCode, TREFOIL, alternating_check, canonical_code,
                    enumerate_knot_diagrams, reduce_R1, to_gauss_code)
from .mixed import counterterm_series
from .oracle import OracleCovariance, gaussian_oracle_moment, richardson_limit
from .series import (FSeries, FlpTable, F_of_g, GaussRational, TriSeries,
                     assemble_Z, census_table, connected_assemble,
                     double_limit_check, extract_Flp, formal_log,
                     planar_loop_counts)

__version__ = "0.1.0"

__all__ = [
    "BasisElement", "MatrixPair", "cos_basis",
    "pairing_census",
    "DEFAULT_KMAX", "LoopReport", "Pairing", "brute_force_index_sum",
    "components_and_genus", "enumerate_matchings", "is_tadpole",
    "trace_greek_loops",
    "InvariantViolation", "ResourceLimitError", "StructureError",
    "TrilineError", "ValidationError",
    "EntrySymbol", "PropagatorMatrix", "RegKernel", "free_partition",
    "general_propagators", "propagator", "quartic_monomials",
    "t_transform_limit", "t_transform_reg", "u_bound_check", "wick_moment",
    "wick_order_quartic",
    "GaussCode", "TREFOIL", "alternating_check", "canonical_code",
    "enumerate_knot_diagrams", "reduce_R1", "to_gauss_code",
    "counterterm_series",
    "OracleCovariance", "gaussian_oracle_moment", "richardson_limit",
    "FSeries", "FlpTable", "F_of_g", "GaussRational", "TriSeries",
    "assemble_Z", "census_table", "connected_assemble", "double_limit_check",
    "extract_Flp", "formal_log", "planar_loop_counts",
    "__version__",
]
