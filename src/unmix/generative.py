"""The data-generating model: endmember decoders, priors, and the mixing law.

Pixels follow  y = M a + nonlinear(M, a) + e  with diagonal Gaussian noise,
abundances carry a flat Dirichlet prior, and each endmember column is decoded
from a low-dimensional latent code by a per-endmember network with a learned
isotropic spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import MlpParams, Tensor, as_tensor, mlp_forward
from .distributions import (DiagGaussian, DirichletParams, dirichlet_logpdf,
                            gaussian_logpdf, std_normal_logpdf)
from .errors import ShapeError

__all__ = ["GenerativeParams", "em_decode", "mixing_mean", "log_likelihood",
           "log_joint", "decoder_widths"]

# Initial spreads; positive scalars live as logs.  The observation scale
# matches a ~30 dB noise floor at unit signal.  The endmember scale must
# start well above the noise floor: the decoder-likelihood terms scale
# like 1/scale^2 and otherwise dominate the objective for most of the
# epoch budget before the learned scale can catch up.
INIT_OBS_SCALE = 0.01
INIT_EM_SCALE = 0.05


def decoder_widths(n_bands: int, latent_dim: int) -> list[int]:
    """Width sequence of each endmember decoder, input through output."""
    L, H = n_bands, latent_dim
    return [H,
            max(int(np.ceil(L / 10)), H + 1),
            max(int(np.ceil(L / 4)), H + 2) + 3,
            int(np.ceil(1.2 * L)) + 5,
            L]


@dataclass
class GenerativeParams:
    """Parameters of the mixing model (decoders, spreads, nonlinear net)."""

    em_decoders: list[MlpParams]
    em_log_scales: list[Tensor]
    nlin_mixing: MlpParams
    obs_log_scale: Tensor

    @property
    def n_endmembers(self) -> int:
        return len(self.em_decoders)

    @property
    def n_bands(self) -> int:
        return self.em_decoders[0].widths[-1]

    @property
    def latent_dim(self) -> int:
        return self.em_decoders[0].widths[0]

    @classmethod
    def create(cls, n_bands: int, n_endmembers: int, latent_dim: int,
               rng) -> "GenerativeParams":
        """Drawn from the Generator ``rng``, or built over the arrays of a
        ``dc.StoredParams``."""
        values = dc.param_values(rng)
        widths = decoder_widths(n_bands, latent_dim)
        acts = ["relu"] * (len(widths) - 2) + ["sigmoid"]
        decoders = [MlpParams.create(widths, acts, values, f"gen.em_decoder{k}")
                    for k in range(n_endmembers)]
        log_scales = [values.value(f"gen.em_log_scale{k}", np.log(INIT_EM_SCALE))
                      for k in range(n_endmembers)]
        L, P = n_bands, n_endmembers
        mix_widths = [P * (L + 1), P * L, L, L, L]
        mix_acts = ["relu"] * 3 + ["linear"]
        nlin = MlpParams.create(mix_widths, mix_acts, values, "gen.nlin_mixing")
        obs = values.value("gen.obs_log_scale", np.log(INIT_OBS_SCALE))
        return cls(decoders, log_scales, nlin, obs)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for net in self.em_decoders:
            out.update(net.named_parameters())
        for t in self.em_log_scales:
            out[t.name] = t
        out.update(self.nlin_mixing.named_parameters())
        out[self.obs_log_scale.name] = self.obs_log_scale
        return out

    def em_scale(self, k: int) -> Tensor:
        """Isotropic band spread of endmember k, a scalar for every band."""
        return dc.exp(self.em_log_scales[k])

    def obs_scale(self) -> Tensor:
        """Isotropic observation-noise spread, a scalar for every band."""
        return dc.exp(self.obs_log_scale)


def em_decode(z_k, k: int, theta: GenerativeParams) -> DiagGaussian:
    """Conditional of endmember column k given its latent code.

    The mean comes from decoder k (sigmoid keeps it inside the reflectance
    box) and the spread is the endmember's learned isotropic constant.
    """
    if not 0 <= k < theta.n_endmembers:
        raise ShapeError(f"endmember index {k} out of range")
    mean = mlp_forward(theta.em_decoders[k], z_k)
    return DiagGaussian(mean=mean, scale=theta.em_scale(k))


def mixing_mean(a, M, theta: GenerativeParams) -> Tensor:
    """Linear mixture M a plus the learned nonlinear contribution.

    ``a``: (..., P) simplex vectors, ``M``: (..., L, P).  The nonlinear net
    sees the column-major vectorization of M followed by a.
    """
    a = as_tensor(a)
    M = as_tensor(M)
    L, P = theta.n_bands, theta.n_endmembers
    lin = dc.matmul(M, a.reshape(a.shape + (1,))).reshape(a.shape[:-1] + (L,))
    # vec(M) is built inside the call so that, under no_grad, nothing holds
    # it once the concatenation exists.
    nlin = mlp_forward(theta.nlin_mixing, dc.concat(
        [M.transpose().reshape(a.shape[:-1] + (L * P,)), a], axis=-1))
    return lin + nlin


def log_likelihood(y, a, M, theta: GenerativeParams) -> Tensor:
    """log p(y | a, M) under the Gaussian observation model."""
    mean = mixing_mean(a, M, theta)
    return gaussian_logpdf(y, DiagGaussian(mean=mean, scale=theta.obs_scale()))


def flat_abundance_logpdf(a, n_endmembers: int) -> Tensor:
    """log Dir(a; 1_P): constant log((P-1)!) for interior a."""
    conc = dc.constant(np.ones(n_endmembers))
    return dirichlet_logpdf(a, DirichletParams(concentration=conc))


def log_joint(y, a, M, Z, theta: GenerativeParams) -> Tensor:
    """log p(y, a, M, Z): likelihood + abundance prior + EM model + latent prior.

    ``Z`` holds latent codes as columns, shape (..., H, P).
    """
    Z = as_tensor(Z)
    total = log_likelihood(y, a, M, theta)
    total = total + flat_abundance_logpdf(a, theta.n_endmembers)
    M = as_tensor(M)
    for k in range(theta.n_endmembers):
        z_k = Z[..., k]                         # (..., H)
        total = total + gaussian_logpdf(M[..., k], em_decode(z_k, k, theta))
        total = total + std_normal_logpdf(z_k)
    return total
