"""Exact triple-line expansion of the two-family quartic matrix model.

Modules, bottom up: :mod:`gaussian` (Hermitian test-function pairs, the
regularized weight, T-transforms, propagators, Wick sums) with the numeric
oracle :mod:`oracle` (its own real coordinates); :mod:`diagrams`
(pairings, triple-line loops, genus) with :mod:`census` (the frontier
census and the row walk over the same moves); :mod:`series`
(exact Z, ln Z, F_{l,p} and F(g), cross-checked by :mod:`mixed`);
:mod:`knots` (Gauss-code export); and :mod:`cli`.  Each name is imported
from its own module, e.g. ``from triline.series import F_of_g``: the
package re-exports nothing, so ``import triline`` alone loads neither numpy
nor any module.

Every ``triline.*`` import runs this file first, which pins numpy's BLAS
to one thread per process before any module loads numpy: the only BLAS
work is the oracle's small covariance algebra, and a BLAS thread pool costs
CPU time in every process that this work never wins back.  A thread count
already set in the environment is kept.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:   # once numpy is loaded, BLAS has its threads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
