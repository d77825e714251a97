"""Variational hyperspectral unmixing with endmember variability.

A library and CLI for semi-supervised unmixing: a generative mixing model
with a learned additive nonlinearity and low-dimensional endmember codes,
a disentangled variational posterior with an unrolled sparse-coding
abundance encoder, an importance-sampled training objective, synthetic
benchmark cubes, a fully-constrained least squares baseline, and metrics.
"""

import os as _os

# UNMIX_THREADS caps worker counts; BLAS pools must be pinned before numpy
# loads for the cap to take effect.
if "UNMIX_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["UNMIX_THREADS"])

from .diffcore import (MlpParams, ParamArena, Tensor, adam_step, backward,
                       lr_schedule, mlp_forward)
from .distributions import (DiagGaussian, dirichlet_logpdf, gaussian_logpdf,
                            gaussian_rsample)
from .generative import GenerativeParams, em_decode, log_likelihood, mixing_mean
from .inference import (InferenceParams, abundance_concentration, encode_z,
                        init_model, lista_concentration, point_estimates,
                        posterior_sample)
from .objective import (LossBreakdown, TrainConfig, importance_weights,
                        network_norm_penalty, sparsity_penalty, sup_term,
                        total_loss, train, unsup_term)

__version__ = "0.1.0"
