"""gnlab: a numerical laboratory for interpolation inequalities with derivative products.

The package provides exact-derivative test function families (funcspace),
Lebesgue / product / fractional norms on sampled grids (norms), exponent
algebra and inequality evaluation (gn), the balance-function subdivision
machinery with Besicovitch selection (covering), empirical best-constant
search (extremal), a four-state control-affine simulator (control), and a
command line front end (cli).
"""

import os

# One OpenBLAS thread unless the user exported a count: read once, when
# numpy first loads OpenBLAS, so it must precede every numpy import here.
# The lab's BLAS calls (the search's QR factorisations, the obstruction's
# block products) are too small for a thread pool to shorten: on 2 vCPUs,
# perfbench `search` spent 0.50 s of CPU for 0.28 s of wall time with the
# pool and 0.24 s for 0.24 s without it, and `control` 0.46 s against
# 0.25 s, with every report digest unchanged.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (
    GnlabError,
    ParameterError,
    PreconditionError,
    InvariantError,
    UnsupportedOrderError,
    InfeasibleError,
    NoCrossingError,
    DivergenceError,
    SearchFailureError,
)

__all__ = [
    "__version__",
    "GnlabError",
    "ParameterError",
    "PreconditionError",
    "InvariantError",
    "UnsupportedOrderError",
    "InfeasibleError",
    "NoCrossingError",
    "DivergenceError",
    "SearchFailureError",
]
