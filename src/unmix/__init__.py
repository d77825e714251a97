"""Variational hyperspectral unmixing with endmember variability.

A library and CLI for semi-supervised unmixing: a generative mixing model
with a learned additive nonlinearity and low-dimensional endmember codes,
a disentangled variational posterior with an unrolled sparse-coding
abundance encoder, an importance-sampled training objective, synthetic
benchmark cubes, a fully-constrained least squares baseline, and metrics.
Each name lives in its module; the package imports none, nor numpy.
"""

import os as _os

# UNMIX_THREADS caps worker counts.  A BLAS pool reads its cap when it loads,
# so the cap is set before numpy loads; scipy's BLAS, imported only where a
# command calls it, loads later and reads the same cap.
if "UNMIX_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["UNMIX_THREADS"])

__version__ = "0.1.0"
