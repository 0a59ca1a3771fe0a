"""Tests for the float-to-fixed simulator and the synthetic workload generator."""

from __future__ import annotations

import math
import statistics
import subprocess
import sys

import numpy as np
import pytest

from repro.cnn.generator import (
    LEVELS,
    TensorStats,
    WorkloadGenerator,
    grid_quantiles,
    standard_normal_quantiles,
)
from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import (
    bit_width_sweep,
    choose_format,
    evaluate_layer_quantization,
    quantize_layer_tensors,
)
from repro.cnn.zoo import NETWORKS, get_network
from repro.errors import QuantizationError, WorkloadError
from repro.hwmodel.fixed_point import FixedPointFormat


@pytest.fixture
def layer():
    return ConvLayer("q", in_channels=3, out_channels=4, in_height=10, in_width=10,
                     kernel_size=3, padding=1)


class TestChooseFormat:
    def test_small_values_get_many_fraction_bits(self):
        fmt = choose_format(np.array([0.1, -0.2, 0.05]), total_bits=16)
        assert fmt.frac_bits >= 14

    def test_large_values_get_integer_bits(self):
        fmt = choose_format(np.array([100.0, -50.0]), total_bits=16)
        assert fmt.max_value >= 100.0

    def test_zero_tensor(self):
        fmt = choose_format(np.zeros(5), total_bits=16)
        assert fmt.frac_bits == 15

    def test_unrepresentable_range_raises(self):
        with pytest.raises(QuantizationError):
            choose_format(np.array([1e9]), total_bits=8)

    def test_empty_tensor_raises(self):
        with pytest.raises(QuantizationError):
            choose_format(np.array([]))


@pytest.fixture
def float_pair(layer):
    """Real-valued (ifmaps, weights): generated tensors are already on the grid."""
    rng = np.random.default_rng(2017)
    ifmaps = np.abs(rng.normal(size=layer.in_shape))
    weights = rng.normal(0.0, np.sqrt(2.0 / 27), size=(4, 3, 3, 3))
    return ifmaps, weights


class TestLayerQuantization:
    def test_no_saturation_for_chosen_format(self, float_pair):
        q_ifmaps, q_weights, ifmap_fmt, weight_fmt = quantize_layer_tensors(*float_pair)
        assert np.max(np.abs(q_ifmaps)) <= ifmap_fmt.max_value
        assert np.max(np.abs(q_weights)) <= weight_fmt.max_value

    def test_16_bit_error_is_small(self, layer, float_pair):
        result = evaluate_layer_quantization(layer, *float_pair, total_bits=16)
        assert 0.0 < result.relative_rmse < 1e-2
        assert 40.0 < result.sqnr_db < float("inf")

    def test_wider_words_reduce_error(self, layer, float_pair):
        sweep = bit_width_sweep(layer, *float_pair, bit_widths=(8, 12, 16))
        assert sweep[8].rmse > sweep[12].rmse > sweep[16].rmse > 0.0

    def test_result_records_layer_name(self, layer, float_pair):
        result = evaluate_layer_quantization(layer, *float_pair)
        assert result.layer_name == "q"


class TestRequantizationEdgeCases:
    """Requantization corners the between-stage path must get right.

    The functional network runner requantizes activations between stages
    (including the Winograd post-transform outputs), so saturation at the
    int16 bounds, rounding-tie behaviour and the zero-tensor guard are
    contract, not incidental detail.
    """

    def test_saturation_clamps_to_int16_raw_bounds(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=0)
        assert (fmt.raw_min, fmt.raw_max) == (-(1 << 15), (1 << 15) - 1)
        raw = fmt.quantize_raw(np.array([-1e9, fmt.min_value - 1.0,
                                         fmt.max_value + 1.0, 1e9]))
        assert raw.tolist() == [fmt.raw_min, fmt.raw_min,
                                fmt.raw_max, fmt.raw_max]
        # the scalar path saturates identically
        assert fmt.to_raw(1e9) == fmt.raw_max
        assert fmt.to_raw(-1e9) == fmt.raw_min
        assert fmt.saturate(fmt.raw_max + 5) == fmt.raw_max
        assert fmt.saturate(fmt.raw_min - 5) == fmt.raw_min

    def test_saturated_bounds_are_asymmetric_twos_complement(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=8)
        quantized = fmt.quantize(np.array([fmt.min_value, fmt.max_value]))
        assert quantized[0] == fmt.min_value
        assert quantized[1] == fmt.max_value
        # |min| exceeds max by exactly one LSB: quantizing -max_value must
        # not fold onto the (representable) raw_min
        assert fmt.quantize_raw(np.array([-fmt.max_value]))[0] == -fmt.raw_max

    def test_rounding_ties_go_to_even_raw_values(self):
        # np.round implements round-half-to-even; exact .5-LSB ties must
        # land on even raw codes in both the array and scalar paths
        fmt = FixedPointFormat(total_bits=16, frac_bits=0)
        ties = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        assert fmt.quantize_raw(ties).tolist() == [0, 2, 2, 0, -2, -2]
        assert [fmt.to_raw(v) for v in ties] == [0, 2, 2, 0, -2, -2]
        # the tie rule is scale-invariant (here ties sit at odd multiples
        # of scale/2 = 2^-9)
        frac = FixedPointFormat(total_bits=16, frac_bits=8)
        half_lsb = frac.scale / 2.0
        assert frac.quantize_raw(np.array([half_lsb, 3 * half_lsb])).tolist() \
            == [0, 2]

    def test_zero_tensor_gets_the_finest_format_and_round_trips(self):
        # max|x| == 0 must not divide by zero or log(0): the guard gives
        # zero integer bits, i.e. all-fraction resolution
        fmt = choose_format(np.zeros((3, 4)), total_bits=16)
        assert fmt.frac_bits == 15
        assert np.array_equal(fmt.quantize(np.zeros((3, 4))), np.zeros((3, 4)))

    def test_requantization_is_idempotent(self):
        # the between-stage path may requantize already-quantized
        # activations (e.g. a direct stage feeding a Winograd stage);
        # quantizing a second time must be a no-op
        rng = np.random.default_rng(5)
        values = rng.normal(scale=3.0, size=(4, 9))
        fmt = choose_format(values, total_bits=16)
        once = fmt.quantize(values)
        assert np.array_equal(fmt.quantize(once), once)
        # and re-choosing a format on the quantized grid keeps it exact
        refmt = choose_format(once, total_bits=16)
        assert np.array_equal(refmt.quantize(once), once)

    def test_format_validation_guards(self):
        with pytest.raises(QuantizationError):
            FixedPointFormat(total_bits=1, frac_bits=0)
        with pytest.raises(QuantizationError):
            FixedPointFormat(total_bits=16, frac_bits=16)
        with pytest.raises(QuantizationError):
            FixedPointFormat(total_bits=16, frac_bits=-1)


class TestWorkloadGenerator:
    def test_weight_shape(self, layer):
        gen = WorkloadGenerator(seed=1)
        assert gen.weights(layer).shape == (4, 3, 3, 3)

    def test_grouped_weight_shape(self):
        layer = ConvLayer("g", 4, 6, 8, 8, kernel_size=3, groups=2)
        gen = WorkloadGenerator(seed=1)
        assert gen.weights(layer).shape == (6, 2, 3, 3)

    def test_ifmaps_shape_and_nonnegativity(self, layer):
        gen = WorkloadGenerator(seed=1)
        ifmaps = gen.ifmaps(layer)
        assert ifmaps.shape == layer.in_shape
        assert np.all(ifmaps >= 0.0)

    def test_sparsity_fraction(self, layer):
        gen = WorkloadGenerator(seed=1)
        ifmaps = gen.ifmaps(layer, sparsity=0.5)
        zero_fraction = float(np.mean(ifmaps == 0.0))
        assert 0.35 < zero_fraction < 0.65

    def test_invalid_sparsity(self, layer):
        gen = WorkloadGenerator(seed=1)
        with pytest.raises(WorkloadError):
            gen.ifmaps(layer, sparsity=1.5)

    def test_determinism_with_same_seed(self, layer):
        a = WorkloadGenerator(seed=42).weights(layer)
        b = WorkloadGenerator(seed=42).weights(layer)
        np.testing.assert_array_equal(a, b)

    def test_reseed_restores_sequence(self, layer):
        gen = WorkloadGenerator(seed=9)
        first = gen.weights(layer)
        gen.reseed(9)
        np.testing.assert_array_equal(first, gen.weights(layer))

    def test_bias_shape(self, layer):
        assert WorkloadGenerator(1).bias(layer).shape == (4,)

    def test_stats(self):
        stats = TensorStats.of(np.array([0.0, 1.0, -1.0, 0.0]))
        assert stats.zero_fraction == pytest.approx(0.5)
        assert stats.max == 1.0 and stats.min == -1.0

    def test_stats_rejects_empty(self):
        with pytest.raises(WorkloadError):
            TensorStats.of(np.array([]))


ZOO_CONV_LAYERS = [
    pytest.param(layer, id=f"{name}-{layer.name}")
    for name in sorted(NETWORKS) for layer in get_network(name).conv_layers
]


class TestGridBornTensors:
    """Generated tensors keep their layer's statistics and sit on the grid."""

    def test_quantile_table_is_the_normal_inverse_cdf(self):
        table = standard_normal_quantiles()
        assert table.shape == (LEVELS,)
        assert np.array_equal(table, -table[::-1])
        assert np.all(np.diff(table) > 0.0)
        inverse_cdf = statistics.NormalDist().inv_cdf
        for index in range(0, LEVELS, 257):
            assert table[index] == pytest.approx(
                inverse_cdf((index + 0.5) / LEVELS), rel=2e-9, abs=1e-12)
        # 2**16 equiprobable levels truncate the tails at +/-4.32 sigma
        assert table[-1] == pytest.approx(4.3249, abs=1e-4)

    def test_table_is_not_built_at_import(self):
        code = ("import repro.cli, repro.cnn.generator as g; "
                "print(g.standard_normal_quantiles.cache_info().currsize, "
                "g.grid_quantiles.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.split() == ["0", "0"]

    @pytest.mark.parametrize("layer", ZOO_CONV_LAYERS)
    def test_weights_are_he_scaled_gaussians(self, layer):
        weights = WorkloadGenerator(seed=3).weights(layer, bits=16)
        std = math.sqrt(2.0 / (layer.in_channels_per_group * layer.kernel_size ** 2))
        # five standard errors of the sample mean and the sample std
        assert abs(weights.mean()) < 5.0 * std / math.sqrt(weights.size)
        assert abs(weights.std() - std) < 5.0 * std / math.sqrt(2.0 * weights.size)

    @pytest.mark.parametrize("layer", ZOO_CONV_LAYERS)
    def test_ifmaps_are_half_normal(self, layer):
        ifmaps = WorkloadGenerator(seed=3).ifmaps(layer, bits=16)
        assert ifmaps.min() >= 0.0
        half_normal_sd = math.sqrt(1.0 - 2.0 / math.pi)
        assert abs(ifmaps.mean() - math.sqrt(2.0 / math.pi)) \
            < 5.0 * half_normal_sd / math.sqrt(ifmaps.size)

    @pytest.mark.parametrize("bits", (8, 16))
    @pytest.mark.parametrize("layer", ZOO_CONV_LAYERS)
    def test_tensors_are_born_on_the_grid(self, layer, bits):
        generator = WorkloadGenerator(seed=4)
        tensors = generator.layer_pair(layer, bits=bits) + (
            generator.ifmaps(layer, sparsity=0.5, bits=bits),)
        for tensor in tensors:
            assert tensor.dtype == np.float64
            quantized = choose_format(tensor, bits).quantize(tensor)
            assert quantized.tobytes() == tensor.tobytes()

    @pytest.mark.parametrize("half", (False, True))
    def test_table_rounded_onto_a_power_of_two_takes_the_coarser_grid(self, half):
        # the largest level, 4.32 std, sits a hair below 4.0, so its first
        # 16-bit grid (Q3.12) rounds it up to 4.0, which needs Q4.11
        std = 4.0 * (1.0 - 1e-7) / standard_normal_quantiles()[-1]
        raw, lsb = grid_quantiles(std, half, 16)
        table = raw * lsb
        assert table.max() == 4.0
        assert choose_format(table, 16).frac_bits == 11
        assert choose_format(table, 16).quantize(table).tobytes() == table.tobytes()

    @pytest.mark.parametrize("layer", ZOO_CONV_LAYERS)
    def test_same_seed_gives_the_same_tensors(self, layer):
        first = WorkloadGenerator(seed=5).layer_pair(layer)
        again = WorkloadGenerator(seed=5).layer_pair(layer)
        other = WorkloadGenerator(seed=6).layer_pair(layer)
        for a, b, c in zip(first, again, other):
            assert a.tobytes() == b.tobytes()
            assert a.tobytes() != c.tobytes()
