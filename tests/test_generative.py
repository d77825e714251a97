"""Mixing model: endmember decoders, mixing mean, likelihood, flat prior."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from conftest import fd_param_grads, max_rel_err, one_network, zero_mlp
from unmix import diffcore as dc
from unmix import generative as gen
from unmix.distributions import (DiagGaussian, dirichlet_logpdf,
                                 gaussian_logpdf)
from unmix.errors import ShapeError
from unmix.inference import model_parameters

L, P, H = 12, 3, 2


@pytest.fixture
def theta(rng):
    return gen.GenerativeParams.create(L, P, H, rng)


def zero_nonlinearity(theta):
    zero_mlp(theta.nlin_mixing)
    return theta


class TestEmDecode:
    def test_zero_weights_give_constant_sigmoid_mean(self, theta, rng):
        zero_mlp(theta.em_decoder)
        d = gen.em_decode(rng.standard_normal((P, H)), theta)
        np.testing.assert_allclose(d.mean.data, 0.5)

    def test_mean_in_unit_interval(self, theta, rng):
        for _ in range(10):
            d = gen.em_decode(rng.standard_normal((P, H)) * 3, theta)
            assert np.all(d.mean.data > 0) and np.all(d.mean.data < 1)

    def test_scale_isotropic_across_bands(self, theta, rng):
        # one scalar spread per endmember, broadcast over every band
        d = gen.em_decode(rng.standard_normal((P, 4, H)), theta)
        assert d.mean.shape == (P, 4, L) and d.scale.data.shape == (P, 1, 1)
        for k in range(P):
            assert d.scale.data[k, 0, 0] == math.exp(theta.em_log_scale.data[k])

    def test_each_code_decoded_by_its_own_decoder(self, theta, rng):
        Z = rng.standard_normal((P, 5, H))
        mean = gen.em_decode(Z, theta).mean.data
        for k in range(P):
            alone = dc.mlp_forward(one_network(theta.em_decoder, k), Z[k]).data
            assert alone.tobytes() == mean[k].tobytes()

    def test_scalar_spreads_match_materialized_vectors(self, theta, rng):
        # log-densities and gradients equal those of the spreads written
        # out as one entry per band
        ones = dc.constant(np.ones(L))
        z = rng.standard_normal((P, 4, H))
        m = rng.uniform(0.1, 0.9, (P, 4, L))
        y = rng.uniform(0.1, 0.9, (4, L))
        a = rng.dirichlet(np.ones(P), 4)
        M = rng.uniform(0.1, 0.9, (4, P, L))
        params = model_parameters(theta)

        def loss(vector: bool):
            d = gen.em_decode(z, theta)
            if vector:
                d = DiagGaussian(mean=d.mean, scale=d.scale * ones)
            total = gaussian_logpdf(m, d).sum()
            mean = gen.mixing_mean(a, M, theta)
            obs = theta.obs_scale() * ones if vector else theta.obs_scale()
            return total + gaussian_logpdf(y, DiagGaussian(mean, obs)).sum()

        got, want = loss(False), loss(True)
        assert abs(got.item() - want.item()) <= 1e-12 * abs(want.item())
        g_got = dc.backward(got, params)
        g_want = dc.backward(want, params)
        for name in params:
            np.testing.assert_allclose(g_got[name], g_want[name], rtol=1e-12,
                                       atol=1e-12 * np.abs(g_want[name]).max(),
                                       err_msg=name)

    def test_references_start_each_decoder_at_its_reference(self):
        """Reference k sets decoder k's output bias to its clipped logit, so
        with zero weights the bank decodes the references; the drawn
        weights are those of a bank made without references."""
        ref = np.random.default_rng(5).uniform(0.05, 0.95, (P, L))
        ref[0, :2] = [-0.2, 1.3]            # outside the reflectance box
        plain = gen.GenerativeParams.create(L, P, H, np.random.default_rng(9))
        theta = gen.GenerativeParams.create(L, P, H, np.random.default_rng(9),
                                            ref_endmembers=ref)
        for w0, w1 in zip(plain.em_decoder.weights, theta.em_decoder.weights):
            assert w0.data.tobytes() == w1.data.tobytes()
        for w in theta.em_decoder.weights:
            w.data[...] = 0.0
        mean = gen.em_decode(np.zeros((P, H)), theta).mean.data
        np.testing.assert_allclose(mean, np.clip(ref, *gen.REF_CLIP),
                                   rtol=1e-12)

    def test_wrong_code_count_rejected(self, theta):
        with pytest.raises(ShapeError):
            gen.em_decode(np.zeros((P + 1, H)), theta)

    def test_decoder_width_sequence(self):
        assert gen.decoder_widths(64, 2) == [2, 7, 19, 82, 64]
        assert gen.decoder_widths(224, 2) == [2, 23, 59, 274, 224]


class TestMixingMean:
    def test_zero_nonlinearity_is_lmm(self, theta, rng):
        zero_nonlinearity(theta)
        a = np.array([0.2, 0.5, 0.3])
        M = rng.uniform(0, 1, (P, L))
        out = gen.mixing_mean(a, M, theta)
        np.testing.assert_allclose(out.data, a @ M, rtol=1e-12)

    def test_pure_pixel_returns_column(self, theta, rng):
        zero_nonlinearity(theta)
        M = rng.uniform(0, 1, (P, L))
        a = np.zeros(P)
        a[1] = 1.0
        out = gen.mixing_mean(a, M, theta)
        np.testing.assert_allclose(out.data, M[1], rtol=1e-12)

    @pytest.mark.parametrize("batch", [(), (4,)], ids=["pixel", "batch"])
    def test_gradient_wrt_abundances(self, theta, rng, batch):
        """The VJPs reach both the abundances and the endmember rows, the
        latter through the linear part and the net's input alike."""
        M = dc.parameter(rng.uniform(0, 1, batch + (P, L)), "M")
        a = dc.parameter(rng.dirichlet(np.ones(P), size=batch or None), "a")
        weights = rng.standard_normal(batch + (L,))
        params = {"a": a, "M": M}
        out = gen.mixing_mean(a, M, theta)
        grads = dc.backward((out * weights).sum(), params)

        def loss_fn():
            return float((gen.mixing_mean(a, M, theta).data * weights).sum())

        fd = fd_param_grads(loss_fn, params)
        assert max_rel_err(grads, fd) < 1e-4

    def test_batched_matches_loop(self, theta, rng):
        A = rng.dirichlet(np.ones(P), size=4)
        M = rng.uniform(0, 1, (4, P, L))
        batched = gen.mixing_mean(A, M, theta).data
        rows = np.stack([gen.mixing_mean(A[i], M[i], theta).data
                         for i in range(4)])
        np.testing.assert_allclose(batched, rows, rtol=1e-12)


class TestLogLikelihood:
    def test_maximum_at_exact_reconstruction(self, theta, rng):
        a = np.array([0.5, 0.2, 0.3])
        M = rng.uniform(0, 1, (P, L))
        y = gen.mixing_mean(a, M, theta).data
        sigma = math.exp(theta.obs_log_scale.item())
        want = -L / 2 * math.log(2 * math.pi * sigma**2)
        assert abs(gen.log_likelihood(y, a, M, theta).item() - want) < 1e-9

    def test_decreasing_in_residual(self, theta, rng):
        a = np.array([0.5, 0.2, 0.3])
        M = rng.uniform(0, 1, (P, L))
        y = gen.mixing_mean(a, M, theta).data
        direction = rng.standard_normal(L)
        direction /= np.linalg.norm(direction)
        vals = [gen.log_likelihood(y + eps * direction, a, M, theta).item()
                for eps in (0.0, 0.05, 0.1, 0.2)]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_hand_computed_toy(self):
        # 3 bands, 2 endmembers, zeroed nonlinearity: plain Gaussian algebra
        rng = np.random.default_rng(0)
        theta = gen.GenerativeParams.create(3, 2, 2, rng)
        zero_nonlinearity(theta)
        theta.obs_log_scale.data = np.array(math.log(0.1))
        M = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        a = np.array([0.6, 0.4])
        y = np.array([0.7, 0.3, 0.6])
        mean = a @ M                       # (0.6, 0.4, 0.5)
        want = float(np.sum(-0.5 * ((y - mean) / 0.1) ** 2
                            - math.log(0.1) - 0.5 * math.log(2 * math.pi)))
        got = gen.log_likelihood(y, a, M, theta).item()
        assert abs(got - want) < 1e-12


class TestFlatPrior:
    def test_flat_prior_contribution_constant(self):
        for a in ([0.1, 0.2, 0.7], [0.4, 0.4, 0.2]):
            val = gen.flat_abundance_logpdf(np.array(a), 3).item()
            assert abs(val - math.log(2.0)) < 1e-9

    @pytest.mark.parametrize("n_endmembers", [2, 3, 5])
    def test_parameter_input_records_no_node(self, rng, n_endmembers):
        # a constant log Gamma(P) per row, bitwise the Dirichlet(1) density
        a = dc.parameter(rng.dirichlet(np.ones(n_endmembers), 4), "a")
        lp = gen.flat_abundance_logpdf(a, n_endmembers)
        assert not lp.requires_grad and lp._parents == ()
        assert lp.shape == (4,)
        assert (lp.data == gammaln(n_endmembers)).all()
        flat = dc.constant(np.ones(n_endmembers))
        assert lp.data.tobytes() == dirichlet_logpdf(a, flat).data.tobytes()
