"""Tests for the I/O lower-bound theory (Section 4)."""

import math

import pytest

from repro.conv import ConvParams
from repro.core.bounds import (
    CompositeBound,
    DirectConvBound,
    MatmulBound,
    StepGeneration,
    WinogradBound,
    direct_conv_io_lower_bound,
    direct_conv_io_lower_bound_asymptotic,
    direct_conv_t_upper,
    direct_conv_vertex_count,
    matmul_io_lower_bound,
    matmul_io_lower_bound_asymptotic,
    matmul_vertex_count,
    nested_generation_value,
    winograd_io_lower_bound,
    winograd_io_lower_bound_asymptotic,
    winograd_t_upper,
    winograd_vertex_count,
)
from repro.core.bounds.generation import empirical_generation
from repro.pebble import direct_conv_dag


class TestStepGeneration:
    def test_phi_at_zero(self):
        step = StepGeneration("s", phi=lambda h: 2 * h, psi=lambda h: h)
        assert step.phi_at(0) == 0.0
        assert step.phi_at(3) == 6.0

    def test_negative_budget_rejected(self):
        step = StepGeneration("s", phi=lambda h: h, psi=lambda h: h)
        with pytest.raises(ValueError):
            step.phi_at(-1)


class TestCompositeBound:
    def _linear_steps(self):
        return [
            StepGeneration("a", phi=lambda h: 2 * h, psi=lambda h: h),
            StepGeneration("b", phi=lambda h: 3 * h, psi=lambda h: 0),
        ]

    def test_nested_value(self):
        steps = self._linear_steps()
        # phi1(k1) + phi2(k2 + psi1(k1)) = 2k1 + 3(k2 + k1)
        assert nested_generation_value(steps, [4, 6]) == pytest.approx(2 * 4 + 3 * (6 + 4))

    def test_t_of_s_linear_case(self):
        # max over k1+k2<=S of 2k1 + 3k2 + 3k1 = max(5k1 + 3k2) = 5S at k1=S.
        bound = CompositeBound(steps=self._linear_steps(), num_vertices=1000)
        assert bound.t_of_s(10) == pytest.approx(10 + 50, rel=0.02)

    def test_io_lower_bound_positive(self):
        bound = CompositeBound(steps=self._linear_steps(), num_vertices=10_000)
        assert bound.io_lower_bound(8) > 0

    def test_io_lower_bound_clipped_at_zero(self):
        bound = CompositeBound(steps=self._linear_steps(), num_vertices=5)
        assert bound.io_lower_bound(100) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CompositeBound(steps=[], num_vertices=10)
        with pytest.raises(ValueError):
            CompositeBound(steps=self._linear_steps(), num_vertices=0)
        bound = CompositeBound(steps=self._linear_steps(), num_vertices=10)
        with pytest.raises(ValueError):
            bound.t_of_s(0)
        with pytest.raises(ValueError):
            bound.io_lower_bound(0)

    def test_split_length_mismatch(self):
        with pytest.raises(ValueError):
            nested_generation_value(self._linear_steps(), [1.0])

    def test_describe(self):
        bound = CompositeBound(steps=self._linear_steps(), num_vertices=10_000, name="toy")
        assert "toy" in bound.describe(16)


class TestDirectConvBound:
    def test_vertex_count_formula(self, tiny_params):
        k = tiny_params.ker_height * tiny_params.ker_width * tiny_params.in_channels
        m = tiny_params.out_height * tiny_params.out_width * tiny_params.out_channels
        assert direct_conv_vertex_count(tiny_params) == (2 * k - 1) * m

    def test_vertex_count_matches_dag(self, tiny_params):
        dag = direct_conv_dag(tiny_params)
        assert direct_conv_vertex_count(tiny_params) == len(dag.internal_and_output_vertices())

    def test_vertex_count_scales_with_batch(self, layer_params):
        assert direct_conv_vertex_count(layer_params.with_batch(4)) == 4 * direct_conv_vertex_count(layer_params)

    def test_t_upper_closed_form(self, layer_params):
        s = 512.0
        r = layer_params.reuse_factor
        assert direct_conv_t_upper(layer_params, s) == pytest.approx(4 * s * math.sqrt(r * s) + s - 1)

    def test_bound_decreases_with_memory(self, layer_params):
        q_small = direct_conv_io_lower_bound(layer_params, 1024)
        q_large = direct_conv_io_lower_bound(layer_params, 16384)
        assert q_large < q_small

    def test_bound_scales_roughly_with_inverse_sqrt_s(self, layer_params):
        q1 = direct_conv_io_lower_bound_asymptotic(layer_params, 1024)
        q2 = direct_conv_io_lower_bound_asymptotic(layer_params, 4096)
        assert q1 / q2 == pytest.approx(2.0, rel=1e-6)

    def test_precise_close_to_asymptotic(self, layer_params):
        s = 12288
        precise = direct_conv_io_lower_bound(layer_params, s)
        asym = direct_conv_io_lower_bound_asymptotic(layer_params, s)
        assert precise == pytest.approx(asym, rel=0.2)

    def test_numeric_composite_matches_closed_form(self, layer_params):
        s = 2048
        wrapper = DirectConvBound(layer_params)
        numeric = wrapper.composite(2 * s).t_of_s(2 * s)
        closed = wrapper.t_upper(2 * s)
        assert numeric == pytest.approx(closed, rel=0.05)

    def test_invalid_s(self, layer_params):
        with pytest.raises(ValueError):
            direct_conv_io_lower_bound(layer_params, 0)

    def test_larger_kernel_larger_bound(self):
        small = ConvParams.square(56, 64, 64, kernel=1)
        big = ConvParams.square(56, 64, 64, kernel=3, padding=1)
        assert direct_conv_io_lower_bound(big, 4096) > direct_conv_io_lower_bound(small, 4096)


class TestWinogradBound:
    def test_vertex_count_formula(self, layer_params):
        e, r = 2, 3
        t = e + r - 1
        outputs = layer_params.out_height * layer_params.out_width * layer_params.out_channels
        expected = 2 * outputs * layer_params.in_channels * t**4 / (e * e)
        assert winograd_vertex_count(layer_params, e) == pytest.approx(expected)

    def test_bound_positive(self, layer_params):
        assert winograd_io_lower_bound(layer_params, 2, 12288) > 0

    def test_bound_decreases_with_memory(self, layer_params):
        assert winograd_io_lower_bound(layer_params, 2, 4096) > winograd_io_lower_bound(layer_params, 2, 32768)

    def test_asymptotic_inverse_sqrt_s(self, layer_params):
        q1 = winograd_io_lower_bound_asymptotic(layer_params, 2, 1024)
        q2 = winograd_io_lower_bound_asymptotic(layer_params, 2, 4096)
        assert q1 / q2 == pytest.approx(2.0, rel=1e-6)

    def test_t_upper_monotone_in_s(self, layer_params):
        assert winograd_t_upper(layer_params, 2, 4096) < winograd_t_upper(layer_params, 2, 8192)

    def test_rejects_strided(self, strided_params):
        with pytest.raises(ValueError):
            winograd_io_lower_bound(strided_params, 2, 1024)

    def test_wrapper_composite_positive(self, layer_params):
        wrapper = WinogradBound(layer_params, e=2)
        assert wrapper.composite(1024).io_lower_bound(512) >= 0

    def test_same_scaling_as_direct_conv(self, layer_params):
        """Both bounds scale as 1/√S, so their ratio is independent of S."""
        r1 = winograd_io_lower_bound_asymptotic(layer_params, 2, 2048) / \
            direct_conv_io_lower_bound_asymptotic(layer_params, 2048)
        r2 = winograd_io_lower_bound_asymptotic(layer_params, 2, 32768) / \
            direct_conv_io_lower_bound_asymptotic(layer_params, 32768)
        assert r1 == pytest.approx(r2, rel=1e-9)


class TestMatmulBound:
    def test_vertex_count(self):
        assert matmul_vertex_count(4, 5, 6) == 11 * 20

    def test_classic_scaling(self):
        # Doubling every dimension multiplies the bound by 8.
        q1 = matmul_io_lower_bound_asymptotic(64, 64, 64, 256)
        q2 = matmul_io_lower_bound_asymptotic(128, 128, 128, 256)
        assert q2 / q1 == pytest.approx(8.0, rel=1e-6)

    def test_equivalent_direct_conv(self):
        """Matmul == direct conv with R=1 and matching dimensions."""
        n, m, k = 36, 16, 64
        # Direct conv with 1x1 kernel, Cin=k, Cout=m, out spatial = n: R = 1.
        p = ConvParams.square(int(math.isqrt(n)), k, m, kernel=1)
        assert p.out_height * p.out_width == n
        s = 512
        assert matmul_io_lower_bound(n, m, k, s) == pytest.approx(
            direct_conv_io_lower_bound(p, s), rel=1e-9
        )

    def test_wrapper(self):
        b = MatmulBound(64, 64, 64)
        assert b.io_lower_bound(256) > 0
        assert b.vertex_count() == matmul_vertex_count(64, 64, 64)

    def test_invalid(self):
        with pytest.raises(ValueError):
            matmul_vertex_count(0, 1, 1)
        with pytest.raises(ValueError):
            matmul_io_lower_bound(4, 4, 4, 0)


class TestEmpiricalGeneration:
    def test_direct_conv_step2_phi_within_lemma(self):
        """Empirical φ₂ on a tiny DAG never exceeds Lemma 4.10's h-1 bound."""
        p = ConvParams.square(3, 1, 1, kernel=2, stride=1)
        dag = direct_conv_dag(p)
        for budget in (2, 3, 4):
            phi, _ = empirical_generation(dag, step=2, budget=budget, capacity=8)
            assert phi <= budget - 1

    def test_empirical_psi_le_phi_when_no_internal(self):
        p = ConvParams.square(3, 1, 1, kernel=2, stride=1)
        dag = direct_conv_dag(p)
        phi, psi = empirical_generation(dag, step=1, budget=4, capacity=8)
        assert psi == phi  # step 1 has no internal vertices (Lemma 4.9)

    def test_empty_step(self):
        p = ConvParams.square(3, 1, 1, kernel=2, stride=1)
        dag = direct_conv_dag(p)
        assert empirical_generation(dag, step=7, budget=4, capacity=8) == (0, 0)

    def test_candidate_limit_raises_instead_of_truncating(self):
        """Hitting ``max_candidates`` must not return a partial maximum
        (here (0, 0) instead of (3, 1)), which a φ ≤ bound check would
        pass vacuously."""
        p = ConvParams.square(3, 1, 1, kernel=2, stride=1)
        dag = direct_conv_dag(p)
        assert empirical_generation(dag, step=2, budget=4, capacity=8) == (3, 1)
        with pytest.raises(ValueError, match="2516 .* limit of 10"):
            empirical_generation(dag, step=2, budget=4, capacity=8, max_candidates=10)
