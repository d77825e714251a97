"""Probability kernels: Gaussians, Dirichlet, Beta machinery, pathwise Jacobian.

Dirichlet draws come from ``RngNoise(rng).dirichlet``, the sampler that
``dirichlet_rsample`` uses; Beta values and the pathwise Jacobian come from
the array kernels behind its reverse pass.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from conftest import ReplayNoise, fd_param_grads, max_rel_err
from unmix import diffcore as dc
from unmix import distributions as ds
from unmix.errors import (ContractError, DegenerateSampleError, DomainError,
                          NumericError, ShapeError)

LOG_2PI = math.log(2 * math.pi)


def _beta_pdf_cdf(x, a, b):
    """(pdf, cdf) of the Beta(a, b) law at x."""
    return float(ds._beta_pdf_data(x, a, b)), float(ds._beta_cdf_data(x, a, b))


class TestGaussianLogpdf:
    def test_standard_normal_at_zero(self):
        d = ds.DiagGaussian(mean=dc.constant([0.0]), scale=dc.constant([1.0]))
        val = ds.gaussian_logpdf(np.array([0.0]), d).item()
        assert abs(val - (-0.5 * LOG_2PI)) < 1e-12

    def test_density_at_mean(self):
        sigma = 0.37
        d = ds.DiagGaussian(mean=dc.constant([1.3]), scale=dc.constant([sigma]))
        val = ds.gaussian_logpdf(np.array([1.3]), d).item()
        assert abs(val - (-0.5 * LOG_2PI - math.log(sigma))) < 1e-12

    def test_matches_independent_quadratic_form(self, rng):
        # oracle: separately coded closed form
        x = rng.standard_normal(5)
        mean = rng.standard_normal(5)
        scale = rng.uniform(0.2, 2.0, 5)
        want = float(np.sum(-0.5 * ((x - mean) / scale) ** 2
                            - np.log(scale) - 0.5 * LOG_2PI))
        d = ds.DiagGaussian(mean=dc.constant(mean), scale=dc.constant(scale))
        assert abs(ds.gaussian_logpdf(x, d).item() - want) < 1e-12

    def test_nonpositive_scale_rejected(self):
        d = ds.DiagGaussian(mean=dc.constant([0.0]), scale=dc.constant([0.0]))
        with pytest.raises(DomainError):
            ds.gaussian_logpdf(np.array([0.0]), d)


def _chain_logpdf(x, mean, scale):
    """The diffcore-op chain ``gaussian_logpdf`` was before it was one node:
    subtract, divide, square, halve, log, subtract, subtract and sum."""
    z = (dc.as_tensor(x) - mean) / scale
    return (z * z * (-0.5) - dc.log(scale) - 0.5 * LOG_2PI).sum(axis=-1)


# (x, mean, scale) shapes of the uses: an observation under one scalar
# spread; endmembers, the observed (P, B, 1, L) against K decoded means
# with a (P, 1, 1, 1) spread each; latent codes (P, B, H) under a full
# spread, and K draws of them (P, B, K, H) under a (B, 1, H) one.
GAUSS_LAYOUTS = {"observation": ((4, 6), (4, 6), ()),
                 "endmembers": ((2, 3, 1, 5), (2, 3, 4, 5), (2, 1, 1, 1)),
                 "latent": ((2, 3, 2), (2, 3, 2), (2, 3, 2)),
                 "latent-draws": ((2, 3, 4, 2), (3, 1, 2), (3, 1, 2))}


def _gauss_case(rng, layout):
    xs, ms, ss = GAUSS_LAYOUTS[layout]
    return (rng.standard_normal(xs), rng.standard_normal(ms),
            rng.uniform(0.4, 1.6, ss))


class TestGaussianNode:
    """``gaussian_logpdf`` and ``std_normal_logpdf`` are one graph node."""

    @pytest.mark.parametrize("wrt", ["x", "mean", "scale", "all"])
    @pytest.mark.parametrize("layout", list(GAUSS_LAYOUTS))
    def test_matches_finite_differences(self, rng, layout, wrt):
        values = dict(zip(("x", "mean", "scale"), _gauss_case(rng, layout)))
        names = list(values) if wrt == "all" else [wrt]
        params = {n: dc.parameter(values[n], n) for n in names}
        t = {n: params.get(n, dc.constant(v)) for n, v in values.items()}
        weights = rng.standard_normal(np.broadcast_shapes(
            *(v.shape for v in values.values()))[:-1])

        def loss_t():
            d = ds.DiagGaussian(mean=t["mean"], scale=t["scale"])
            return (ds.gaussian_logpdf(t["x"], d) * weights).sum()

        grads = dc.backward(loss_t(), params)
        fd = fd_param_grads(lambda: loss_t().item(), params)
        assert max_rel_err(grads, fd) < 1e-6

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3, 4)])
    def test_std_normal_matches_finite_differences(self, rng, lead):
        x = dc.parameter(rng.standard_normal(lead + (5,)), "x")
        weights = rng.standard_normal(lead)

        def loss_t():
            return (ds.std_normal_logpdf(x) * weights).sum()

        grads = dc.backward(loss_t(), {"x": x})
        fd = fd_param_grads(lambda: loss_t().item(), {"x": x})
        assert max_rel_err(grads, fd) < 1e-6

    @pytest.mark.parametrize("layout", list(GAUSS_LAYOUTS))
    def test_bitwise_value_of_the_chain(self, rng, layout):
        """The value is the chain's bit for bit; the gradients agree with
        the chain's to 1e-12 of their largest entry."""
        x, mean, scale = _gauss_case(rng, layout)
        x = x * 10.0 ** rng.integers(-6, 7, x.shape)
        weights = rng.standard_normal(
            np.broadcast_shapes(x.shape, mean.shape, scale.shape)[:-1])
        outs, grads = [], []
        for fn in (lambda x, m, s: ds.gaussian_logpdf(
                x, ds.DiagGaussian(mean=m, scale=s)), _chain_logpdf):
            params = {"x": dc.parameter(x, "x"),
                      "mean": dc.parameter(mean, "mean"),
                      "scale": dc.parameter(scale, "scale")}
            out = fn(*params.values())
            outs.append(out.data)
            grads.append(dc.backward((out * weights).sum(), params))
        assert outs[0].tobytes() == outs[1].tobytes()
        for name, g in grads[1].items():
            err = np.abs(grads[0][name] - g).max()
            assert err <= 1e-12 * np.abs(g).max(), name

    def test_std_normal_bitwise_value_of_the_chain(self, rng):
        x = rng.standard_normal((3, 4, 5)) \
            * 10.0 ** rng.integers(-6, 7, (3, 4, 5))
        x[0, 0, :2] = (0.0, -0.0)
        want = (dc.constant(x) * dc.constant(x) * (-0.5)
                - 0.5 * LOG_2PI).sum(axis=-1)
        assert ds.std_normal_logpdf(x).data.tobytes() == want.data.tobytes()

    def test_one_node(self, rng):
        x, mean, scale = _gauss_case(rng, "endmembers")
        params = [dc.parameter(v, n) for n, v in
                  zip(("x", "mean", "scale"), (x, mean, scale))]
        out = ds.gaussian_logpdf(params[0], ds.DiagGaussian(*params[1:]))
        assert out._parents == tuple(params)
        assert len(dc._toposort(out)) == 4
        assert len(dc._toposort(ds.std_normal_logpdf(params[0]))) == 2

    def test_constant_operands_get_no_cotangent(self, rng):
        x, mean, scale = _gauss_case(rng, "latent")
        out = ds.gaussian_logpdf(dc.constant(x), ds.DiagGaussian(
            mean=dc.parameter(mean, "mean"), scale=dc.constant(scale)))
        dx, dm, ds_ = out._vjp(np.ones(out.shape))
        assert dx is None and ds_ is None and dm.shape == mean.shape


class TestGaussianRsample:
    def test_zero_noise_returns_mean(self, rng):
        mean = rng.standard_normal(4)
        d = ds.DiagGaussian(mean=dc.constant(mean), scale=dc.constant(np.ones(4)))
        out = ds.gaussian_rsample(d, np.zeros(4))
        np.testing.assert_array_equal(out.data, mean)

    def test_floor_scale_collapses_to_mean(self, rng):
        mean = rng.standard_normal(4)
        noise = rng.standard_normal(4)
        d = ds.DiagGaussian(mean=dc.constant(mean),
                            scale=dc.constant(np.full(4, ds.GAMMA_FLOOR)))
        out = ds.gaussian_rsample(d, noise)
        assert np.all(np.abs(out.data - mean)
                      <= ds.GAMMA_FLOOR * np.abs(noise) + 1e-15)

    def test_scale_gradient_equals_noise(self, rng):
        noise = rng.standard_normal(3)
        scale = dc.parameter(rng.uniform(0.5, 1.5, 3), "scale")
        mean = dc.parameter(rng.standard_normal(3), "mean")
        out = ds.gaussian_rsample(ds.DiagGaussian(mean=mean, scale=scale), noise)
        grads = dc.backward(out.sum(), {"scale": scale, "mean": mean})
        np.testing.assert_allclose(grads["scale"], noise, rtol=1e-12)
        np.testing.assert_allclose(grads["mean"], np.ones(3))
        # finite-difference oracle on the scale path
        h = 1e-6
        for i in range(3):
            old = scale.data[i]
            scale.data[i] = old + h
            up = ds.gaussian_rsample(ds.DiagGaussian(mean=mean, scale=scale),
                                     noise).data.sum()
            scale.data[i] = old - h
            dn = ds.gaussian_rsample(ds.DiagGaussian(mean=mean, scale=scale),
                                     noise).data.sum()
            scale.data[i] = old
            assert abs((up - dn) / (2 * h) - grads["scale"][i]) < 1e-4

    def test_length_mismatch(self):
        d = ds.DiagGaussian(mean=dc.constant([0.0, 1.0]),
                            scale=dc.constant([1.0, 1.0]))
        with pytest.raises(ShapeError):
            ds.gaussian_rsample(d, np.zeros(3))


class TestDirichletLogpdf:
    def test_flat_is_log_factorial(self):
        p = dc.constant(np.ones(3))
        for a in ([0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [1 / 3, 1 / 3, 1 / 3]):
            val = ds.dirichlet_logpdf(np.array(a), p).item()
            assert abs(val - math.log(2.0)) < 1e-9

    def test_beta_reduction_oracle(self):
        # oracle: independently coded Beta(2, 5) log-density
        a = np.array([0.3, 0.7])
        gamma = np.array([2.0, 5.0])
        want = (math.lgamma(7.0) - math.lgamma(2.0) - math.lgamma(5.0)
                + (2.0 - 1) * math.log(0.3) + (5.0 - 1) * math.log(0.7))
        p = dc.constant(gamma)
        assert abs(ds.dirichlet_logpdf(a, p).item() - want) < 1e-9

    def test_integrates_to_one_on_grid(self):
        # trapezoid quadrature over the P=2 simplex with 1e4 points
        gamma = np.array([2.5, 1.5])
        p = dc.constant(gamma)
        t = np.linspace(1e-6, 1 - 1e-6, 10_000)
        a = np.stack([t, 1 - t], axis=1)
        dens = np.exp(ds.dirichlet_logpdf(a, p).data)
        assert abs(np.trapezoid(dens, t) - 1.0) < 1e-4

    def test_floor_violation_rejected(self):
        p = dc.constant([1e-4, 1.0])
        with pytest.raises(DomainError):
            ds.dirichlet_logpdf(np.array([0.5, 0.5]), p)


class TestDirichletSample:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_simplex_and_positive(self, seed):
        r = np.random.default_rng(seed)
        gamma = r.uniform(ds.GAMMA_FLOOR, 8.0, size=4)
        a = ds.RngNoise(r).dirichlet(gamma)
        assert np.all(a > 0)
        assert abs(a.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("gamma", [(2.0, 2.0, 4.0), (2.0, 1e-3, 1e-3),
                                       (5.0, 1e-3, 1e-3, 1e-3, 1e-3),
                                       (1.0, 0.05, 0.05)])
    def test_moments_match_closed_form(self, gamma):
        """The mean is gamma / sum within 3 standard errors, also where
        concentrations at the floor make most draws near-vertex ones."""
        gamma = np.array(gamma)
        n, s = 100_000, gamma.sum()
        r = np.random.default_rng(7)
        draws = ds._sample_dirichlet_data(
            np.broadcast_to(gamma, (n, len(gamma))), r)
        z = (draws.mean(axis=0) - gamma / s) / (draws.std(axis=0) / np.sqrt(n))
        assert np.all(np.abs(z) <= 3.0), z
        if gamma.min() >= 1.0:
            var_want = gamma[0] * (s - gamma[0]) / (s**2 * (s + 1))
            var_got = draws[:, 0].var()
            assert abs(var_got - var_want) / var_want < 0.10

    def test_tiny_concentration_still_valid(self):
        gamma = np.array([ds.GAMMA_FLOOR, ds.GAMMA_FLOOR, 5.0])
        noise = ds.RngNoise(np.random.default_rng(3))
        for _ in range(50):
            a = noise.dirichlet(gamma)
            assert np.all(a > 0) and np.all(a < 1)
            assert abs(a.sum() - 1.0) <= 1e-9


class TestBetaFunctions:
    def test_uniform_case(self):
        for x in (0.1, 0.5, 0.9):
            pdf, cdf = _beta_pdf_cdf(x, 1.0, 1.0)
            assert abs(pdf - 1.0) < 1e-12
            assert abs(cdf - x) < 1e-12

    @given(st.floats(0.02, 0.98), st.floats(0.2, 20.0), st.floats(0.2, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_reflection_identity(self, x, a, b):
        _, cdf = _beta_pdf_cdf(x, a, b)
        _, cdf_ref = _beta_pdf_cdf(1 - x, b, a)
        assert abs(cdf - (1 - cdf_ref)) < 1e-10

    def test_beta_2_2_closed_form(self):
        pdf, cdf = _beta_pdf_cdf(0.5, 2.0, 2.0)
        assert abs(cdf - 0.5) < 1e-10
        assert abs(pdf - 1.5) < 1e-10

    def test_against_scipy_oracle(self, rng):
        for _ in range(50):
            x = rng.uniform(0.02, 0.98)
            a = rng.uniform(0.3, 15.0)
            b = rng.uniform(0.3, 15.0)
            pdf, cdf = _beta_pdf_cdf(x, a, b)
            assert abs(cdf - sp.betainc(a, b, x)) < 1e-10
            want_pdf = math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                                - sp.betaln(a, b))
            assert abs(pdf - want_pdf) < 1e-9 * max(1.0, want_pdf)

    def test_non_finite_cdf_raises(self):
        # a NaN sample reaches the cdf through the pathwise Jacobian
        with pytest.raises(NumericError):
            ds._pathwise_jacobian_data(np.array([np.nan, 0.5]),
                                       np.array([2.0, 3.0]))


class TestPathwiseJacobian:
    def test_finite_for_random_draws(self, rng):
        for _ in range(20):
            P = int(rng.integers(2, 6))
            gamma = rng.uniform(0.5, 10.0, P)
            a = ds.RngNoise(rng).dirichlet(gamma)
            jac = ds._pathwise_jacobian_data(a, gamma)
            assert np.all(np.isfinite(jac))

    def test_columns_sum_to_zero(self, rng):
        gamma = rng.uniform(0.5, 10.0, 4)
        a = ds.RngNoise(rng).dirichlet(gamma)
        jac = ds._pathwise_jacobian_data(a, gamma)
        np.testing.assert_allclose(jac.sum(axis=0), 0.0, atol=1e-6)

    def test_inverse_cdf_oracle_p2(self, rng):
        # oracle: finite difference of the Beta inverse cdf at a fixed base
        worst = 0.0
        for _ in range(100):
            gamma = rng.uniform(0.5, 10.0, 2)
            u = rng.uniform(0.02, 0.98)
            a1 = sp.betaincinv(gamma[0], gamma[1], u)
            a = np.array([a1, 1 - a1])
            jac = ds._pathwise_jacobian_data(a, gamma)
            h = 1e-4
            fd = np.zeros((2, 2))
            for j in range(2):
                gp, gm = gamma.copy(), gamma.copy()
                gp[j] += h
                gm[j] -= h
                up = sp.betaincinv(gp[0], gp[1], u)
                dn = sp.betaincinv(gm[0], gm[1], u)
                fd[0, j] = (up - dn) / (2 * h)
                fd[1, j] = -fd[0, j]
            rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1e-7)
            worst = max(worst, rel.max())
        assert worst < 1e-3

    @pytest.mark.parametrize("gamma", [(2.0, 2.0, 4.0), (1.0, 0.05, 0.05)])
    def test_mean_derivative_within_three_se(self, gamma):
        # analytic oracle: d(gamma_i / sum) / d gamma_j
        gamma = np.array(gamma)
        s = gamma.sum()
        r = np.random.default_rng(11)
        n = 100_000
        a = ds._sample_dirichlet_data(np.broadcast_to(gamma, (n, 3)), r)
        jac = ds._pathwise_jacobian_data(a, np.broadcast_to(gamma, (n, 3)))
        est = jac.mean(axis=0)
        se = jac.std(axis=0) / np.sqrt(n)
        analytic = (np.eye(3) * s - gamma[:, None]) / s**2
        assert np.all(np.abs(est - analytic) <= 3.0 * se)

    def test_vertex_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            ds._pathwise_jacobian_data(np.array([1.0, 0.0]),
                                       np.array([2.0, 3.0]))


class TestRsampleNode:
    def test_backward_uses_pathwise_jacobian(self, rng):
        gamma = dc.parameter(rng.uniform(1.0, 5.0, 3), "gamma")
        noise = ds.RngNoise(np.random.default_rng(0))
        a = ds.dirichlet_rsample(gamma, noise)
        w = rng.standard_normal(3)
        loss = (a * dc.constant(w)).sum()
        grads = dc.backward(loss, {"gamma": gamma})
        jac = ds._pathwise_jacobian_data(a.data, gamma.data)
        np.testing.assert_allclose(grads["gamma"], w @ jac, rtol=1e-10)


class TestReplayNoise:
    def test_replay_reproduces_recording(self):
        noise = ReplayNoise(np.random.default_rng(0))
        x1 = noise.normal((2, 3))
        g = np.array([2.0, 3.0])
        a1 = noise.dirichlet(g)
        noise.rewind()
        np.testing.assert_array_equal(noise.normal((2, 3)), x1)
        np.testing.assert_array_equal(noise.dirichlet(g), a1)

    def test_replayed_dirichlet_moves_smoothly_with_gamma(self):
        noise = ReplayNoise(np.random.default_rng(1))
        g = np.array([2.0, 3.0])
        a0 = noise.dirichlet(g)
        noise.rewind()
        a1 = noise.dirichlet(g + np.array([1e-6, 0.0]))
        assert abs(a1[0] - a0[0]) < 1e-4

    def test_frozen_base_requires_two_components(self):
        noise = ReplayNoise(np.random.default_rng(1))
        with pytest.raises(ContractError):
            noise.dirichlet(np.array([1.0, 1.0, 1.0]))
