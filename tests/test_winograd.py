"""Winograd F(2x2,3x3) execution mode: transforms, cost model, algorithm axis.

Covers the three tentpole pieces end to end:

* the functional transform-domain backend (`repro.sim.winograd`) against the
  im2col golden within the documented tolerance, including bit-identity of
  ofmap-block partitions and kernel backends;
* the analytical transform-domain cost model (`repro.analysis.winograd` +
  the ``winograd`` column of :class:`MappingBatchEvaluator`);
* the per-layer algorithm axis in the mapping search (never-worse vs
  direct-only, forced-Winograd verification, cache-key continuity).

This file runs in CI's fail-if-skipped equivalence gate: no test here may
ever skip.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.batch import MAPPING_RESULT_COLUMNS, MappingBatchEvaluator
from repro.analysis.winograd import (
    WINOGRAD_MAC_REDUCTION,
    network_winograd_coverage,
    winograd_cost_fields,
    winograd_eligible,
    winograd_kmemory_capacity,
    winograd_layer_summary,
    winograd_tile_grid,
    winograd_weight_count,
)
from repro.cnn.generator import WorkloadGenerator
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import conv2d_im2col, pad_input
from repro.cnn.zoo import get_network
from repro.core.config import ChainConfig
from repro.errors import ConfigurationError, MappingError
from repro.mapping import ScheduleOptimizer
from repro.mapping.mapspace import (
    ALGORITHM_MODES,
    ALGORITHMS,
    LayerMapSpace,
    MappingCandidate,
    candidate_arrays,
)
from repro.sim.functional import FunctionalChainSimulator
from repro.sim.network import FunctionalNetworkRunner
from repro.sim.winograd import (
    conv2d_winograd,
    transform_filters,
    winograd_ofmap_block,
    winograd_tolerance,
)


@pytest.fixture(scope="module")
def generator():
    return WorkloadGenerator(seed=2017)


def _eligible_layer(name="wino", in_channels=5, out_channels=7,
                    in_height=13, in_width=13, padding=1, groups=1):
    return ConvLayer(name, in_channels=in_channels, out_channels=out_channels,
                     in_height=in_height, in_width=in_width, kernel_size=3,
                     stride=1, padding=padding, groups=groups)


def _zoo_eligible_geometries(max_spatial=56):
    """Distinct Winograd-eligible conv geometries of AlexNet + VGG-16.

    Every distinct (channels, padding, groups) structure of the zoo's
    3x3-stride-1 layers is kept; spatial extents above ``max_spatial`` are
    shrunk so the im2col golden stays test-budget fast (full-size layers are
    exercised by ``repro verify --sim functional --algorithm winograd`` and
    the winograd benchmark).
    """
    layers = []
    seen = set()
    for net in ("alexnet", "vgg16"):
        for layer in get_network(net).conv_layers:
            if not winograd_eligible(layer):
                continue
            height = min(layer.in_height, max_spatial)
            width = min(layer.in_width, max_spatial)
            key = (layer.in_channels, layer.out_channels, height, width,
                   layer.padding, layer.groups)
            if key in seen:
                continue
            seen.add(key)
            layers.append(ConvLayer(
                f"{net}-{layer.name}", in_channels=layer.in_channels,
                out_channels=layer.out_channels, in_height=height,
                in_width=width, kernel_size=3, stride=1,
                padding=layer.padding, groups=layer.groups,
            ))
    return layers


# --------------------------------------------------------------------- #
# analytical transform-domain model
# --------------------------------------------------------------------- #
class TestAnalysisModel:
    def test_eligibility(self):
        assert winograd_eligible(_eligible_layer())
        assert winograd_eligible(_eligible_layer(padding=0))
        assert winograd_eligible(_eligible_layer(groups=1, in_channels=4,
                                                 out_channels=4))
        five = ConvLayer("k5", in_channels=3, out_channels=4, in_height=13,
                         in_width=13, kernel_size=5, padding=2)
        strided = ConvLayer("s2", in_channels=3, out_channels=4, in_height=13,
                            in_width=13, kernel_size=3, stride=2, padding=1)
        assert not winograd_eligible(five)
        assert not winograd_eligible(strided)

    def test_tile_grid_covers_ragged_edges(self):
        # 13x13 output -> 7x7 tiles of 2x2 (last row/column half-used)
        layer = _eligible_layer()
        assert layer.out_height == 13
        assert winograd_tile_grid(layer) == (7, 7)
        even = _eligible_layer(in_height=14, in_width=14)
        assert even.out_height == 14
        assert winograd_tile_grid(even) == (7, 7)

    def test_transformed_filters_grow_the_weight_footprint(self):
        layer = _eligible_layer()
        assert winograd_weight_count(layer) == 16 * layer.channel_pairs()
        # and the per-PE kMemory capacity shrinks by the same 16/9 ratio
        assert winograd_kmemory_capacity(144) == 144 * 9 // 16

    def test_cost_fields_feed_the_batch_evaluator(self):
        fields = winograd_cost_fields(_eligible_layer())
        assert set(fields) == {"wino_tiles_h", "wino_tiles_w",
                               "wino_weight_count", "wino_ext_width",
                               "wino_pe_energy_factor"}

    def test_vgg16_layers_model_at_least_1_8x_mac_reduction(self):
        network = get_network("vgg16")
        for layer in network.conv_layers:
            summary = winograd_layer_summary(layer)
            assert summary["eligible"]
            assert summary["mac_reduction"] >= 1.8
            assert summary["mac_reduction"] <= WINOGRAD_MAC_REDUCTION + 1e-9
            assert 0.0 < summary["transform_overhead_fraction"] < 1.0

    def test_network_coverage_fractions(self):
        assert network_winograd_coverage(get_network("vgg16"))["mac_coverage"] \
            == pytest.approx(1.0)
        assert network_winograd_coverage(get_network("lenet5"))["mac_coverage"] \
            == 0.0
        alexnet = network_winograd_coverage(get_network("alexnet"))
        assert alexnet["eligible_layers"] == ["conv3", "conv4", "conv5"]
        assert 0.0 < alexnet["mac_coverage"] < 1.0


# --------------------------------------------------------------------- #
# functional transform-domain backend
# --------------------------------------------------------------------- #
class TestFunctionalBackend:
    def test_filter_transform_matches_direct_matmul(self, generator):
        g_matrix = np.array([[1.0, 0.0, 0.0],
                             [0.5, 0.5, 0.5],
                             [0.5, -0.5, 0.5],
                             [0.0, 0.0, 1.0]])
        weights = generator.weights(_eligible_layer())
        transformed = transform_filters(weights)
        expected = np.einsum("ij,mcjk,lk->mcil", g_matrix, weights, g_matrix)
        assert transformed.shape == weights.shape[:-2] + (4, 4)
        # association order differs from the einsum oracle, so the match is
        # up to float64 round-off (the library's own partition identity
        # only requires the one transform_filters result to be shared)
        np.testing.assert_allclose(transformed, expected, rtol=0, atol=1e-15)

    def test_matches_im2col_on_zoo_geometries(self, generator):
        for layer in _zoo_eligible_geometries():
            ifmaps, weights = generator.layer_pair(layer)
            reference = conv2d_im2col(layer, ifmaps, weights)
            result = conv2d_winograd(layer, ifmaps, weights)
            error = float(np.max(np.abs(reference - result)))
            assert error <= winograd_tolerance(reference), \
                f"{layer.name}: {error} vs {winograd_tolerance(reference)}"

    def test_matches_im2col_on_randomized_geometries(self):
        rng = np.random.default_rng(88)
        for case in range(10):
            groups = int(rng.choice((1, 2))) if case % 3 == 0 else 1
            in_channels = int(rng.integers(1, 9)) * groups
            out_channels = int(rng.integers(1, 9)) * groups
            layer = ConvLayer(
                f"rand{case}",
                in_channels=in_channels, out_channels=out_channels,
                in_height=int(rng.integers(4, 24)),
                in_width=int(rng.integers(4, 24)),
                kernel_size=3, stride=1,
                padding=int(rng.integers(0, 3)), groups=groups,
            )
            weight_shape = (layer.out_channels, layer.in_channels_per_group,
                            3, 3)
            for image in range(int(rng.integers(1, 3))):
                ifmaps = rng.normal(size=layer.in_shape)
                weights = rng.normal(size=weight_shape)
                reference = conv2d_im2col(layer, ifmaps, weights)
                result = conv2d_winograd(layer, ifmaps, weights)
                error = float(np.max(np.abs(reference - result)))
                assert error <= winograd_tolerance(reference), layer.name

    def test_bias_is_applied(self, generator):
        layer = _eligible_layer()
        ifmaps, weights = generator.layer_pair(layer)
        bias = np.linspace(-1.0, 1.0, layer.out_channels)
        plain = conv2d_winograd(layer, ifmaps, weights)
        biased = conv2d_winograd(layer, ifmaps, weights, bias=bias)
        assert np.array_equal(biased, plain + bias[:, None, None])

    def test_block_partition_is_bit_identical(self, generator):
        for layer in (_eligible_layer(),
                      _eligible_layer(in_channels=4, out_channels=6,
                                      groups=2, in_height=10, in_width=12)):
            ifmaps, weights = generator.layer_pair(layer)
            whole = conv2d_winograd(layer, ifmaps, weights)
            padded = pad_input(np.asarray(ifmaps, dtype=np.float64),
                               layer.padding)
            for blocks in (2, 3, layer.out_channels):
                bounds = np.linspace(0, layer.out_channels, blocks + 1,
                                     dtype=int)
                assembled = np.zeros(layer.out_shape)
                for m_start, m_stop in zip(bounds[:-1], bounds[1:]):
                    winograd_ofmap_block(layer, padded, weights,
                                         int(m_start), int(m_stop),
                                         out=assembled)
                assert np.array_equal(whole, assembled)

    def test_ineligible_layer_is_rejected(self, generator):
        strided = ConvLayer("s2", in_channels=3, out_channels=4, in_height=13,
                            in_width=13, kernel_size=3, stride=2, padding=1)
        ifmaps, weights = generator.layer_pair(strided)
        with pytest.raises(ConfigurationError):
            conv2d_winograd(strided, ifmaps, weights)


# --------------------------------------------------------------------- #
# functional simulator integration
# --------------------------------------------------------------------- #
class TestSimulator:
    def test_run_layer_winograd_matches_golden(self, generator):
        simulator = FunctionalChainSimulator(backend="vectorized")
        layer = _eligible_layer(in_channels=6, out_channels=8)
        ifmaps, weights = generator.layer_pair(layer)
        result = simulator.run_layer(layer, ifmaps, weights,
                                     algorithm="winograd")
        reference = conv2d_im2col(layer, ifmaps, weights)
        error = float(np.max(np.abs(reference - result.ofmaps)))
        assert error <= winograd_tolerance(reference)
        tiles_h, tiles_w = winograd_tile_grid(layer)
        assert result.stats.windows_kept == \
            tiles_h * tiles_w * layer.channel_pairs()

    def test_run_and_check_passes_with_documented_tolerance(self, generator):
        simulator = FunctionalChainSimulator(backend="vectorized")
        layer = _eligible_layer()
        ifmaps, weights = generator.layer_pair(layer)
        reference = conv2d_im2col(layer, ifmaps, weights)
        tolerance = winograd_tolerance(reference)
        # run_and_check raises on deviation; returning at all is the pass
        report = simulator.run_and_check(layer, ifmaps, weights,
                                         tolerance=tolerance,
                                         algorithm="winograd")
        assert report["max_abs_error"] <= tolerance

    def test_unknown_algorithm_is_rejected(self, generator):
        simulator = FunctionalChainSimulator(backend="vectorized")
        layer = _eligible_layer()
        ifmaps, weights = generator.layer_pair(layer)
        with pytest.raises(ConfigurationError):
            simulator.run_layer(layer, ifmaps, weights, algorithm="strassen")

    def test_network_runner_winograd_passes(self):
        runner = FunctionalNetworkRunner(algorithm="winograd")
        result = runner.run(get_network("alexnet"))
        assert result.passed
        by_name = {stage.name: stage for stage in result.stages
                   if stage.kind == "conv"}
        assert by_name["conv1"].algorithm == "direct"   # 11x11 stays direct
        for name in ("conv3", "conv4", "conv5"):
            assert by_name[name].algorithm == "winograd"
            assert by_name[name].tolerance is not None
            assert by_name[name].max_abs_error <= by_name[name].tolerance

    def test_network_runner_parallel_matches_serial(self, monkeypatch):
        from repro.runtime import pool as pool_module

        monkeypatch.setenv(pool_module.FORCE_PARALLEL_ENV, "1")
        network = get_network("alexnet")
        serial = FunctionalNetworkRunner(algorithm="winograd").run(network)
        with FunctionalNetworkRunner(algorithm="winograd",
                                     workers=2) as runner:
            parallel = runner.run(network)
        assert serial.passed and parallel.passed
        assert [s.max_abs_error for s in serial.stages] == \
            [s.max_abs_error for s in parallel.stages]
        assert [s.algorithm for s in serial.conv_stages] == \
            [s.algorithm for s in parallel.conv_stages]


# --------------------------------------------------------------------- #
# mapspace algorithm axis
# --------------------------------------------------------------------- #
class TestMapSpaceAxis:
    def test_auto_enumerates_both_algorithms(self):
        layer = _eligible_layer(in_channels=16, out_channels=16)
        auto = LayerMapSpace(layer, algorithm="auto")
        direct = LayerMapSpace(layer, algorithm="direct")
        assert auto.algorithms == ALGORITHMS
        assert direct.algorithms == ("direct",)
        columns = auto.enumerate()
        assert len(columns) == auto.pruned_size()
        assert set(columns.winograd.tolist()) == {False, True}
        assert auto.pruned_size() > direct.pruned_size()
        for row in range(len(columns)):
            auto.validate(columns.candidate(row))

    def test_ineligible_layer_degrades_every_mode_to_direct(self):
        strided = ConvLayer("s2", in_channels=8, out_channels=8, in_height=13,
                            in_width=13, kernel_size=3, stride=2, padding=1)
        for mode in ALGORITHM_MODES:
            space = LayerMapSpace(strided, algorithm=mode)
            assert space.algorithms == ("direct",)
            assert not space.winograd_axis

    def test_winograd_candidates_pin_stripe_height_and_shrink_chunks(self):
        layer = _eligible_layer(in_channels=16, out_channels=16)
        space = LayerMapSpace(layer, algorithm="winograd")
        baseline = space.baseline()
        assert baseline.is_winograd
        space.validate(baseline)
        columns = space.enumerate()
        assert columns.winograd.all()
        assert (columns.stripe_height == layer.kernel_size).all()
        assert (columns.chunk <= space.winograd_capacity).all()
        bad_height = dataclasses.replace(baseline, stripe_height=1)
        with pytest.raises(MappingError):
            space.validate(bad_height)

    def test_winograd_candidate_on_ineligible_layer_is_rejected(self):
        strided = ConvLayer("s2", in_channels=8, out_channels=8, in_height=13,
                            in_width=13, kernel_size=3, stride=2, padding=1)
        space = LayerMapSpace(strided)
        candidate = MappingCandidate(primitives=1, stripe_height=3, chunk=1,
                                     algorithm="winograd")
        with pytest.raises(MappingError):
            space.validate(candidate)

    def test_candidate_json_round_trip_keeps_the_algorithm(self):
        candidate = MappingCandidate(primitives=4, stripe_height=3, chunk=2,
                                     algorithm="winograd")
        rebuilt = MappingCandidate.from_json_dict(candidate.to_json_dict())
        assert rebuilt == candidate
        assert "wino" in candidate.describe()


# --------------------------------------------------------------------- #
# columnar candidate scoring with the algorithm column
# --------------------------------------------------------------------- #
class TestEvaluatorDispatch:
    def test_mixed_batches_merge_per_algorithm_scores(self):
        layer = _eligible_layer(in_channels=32, out_channels=32,
                                in_height=28, in_width=28)
        columns = LayerMapSpace(layer, algorithm="auto").enumerate()
        evaluator = MappingBatchEvaluator(layer, batch=4)
        mixed = evaluator.evaluate(*columns.arrays())
        mask = columns.winograd
        assert mask.any() and (~mask).any()
        direct = evaluator.evaluate(
            *(column[~mask] for column in columns.arrays()))
        wino = evaluator.evaluate(*(column[mask] for column in columns.arrays()))
        for name in MAPPING_RESULT_COLUMNS:
            assert np.array_equal(mixed[name][~mask], direct[name])
            assert np.array_equal(mixed[name][mask], wino[name])

    def test_winograd_column_on_ineligible_layer_raises(self):
        strided = ConvLayer("s2", in_channels=8, out_channels=8, in_height=13,
                            in_width=13, kernel_size=3, stride=2, padding=1)
        evaluator = MappingBatchEvaluator(strided, batch=1)
        candidate = MappingCandidate(primitives=1, stripe_height=3, chunk=1)
        columns = candidate_arrays([candidate])
        with pytest.raises(ConfigurationError):
            evaluator.evaluate(*columns[:4],
                               winograd=np.array([True]))

    def test_winograd_mac_advantage_shows_in_the_cycle_columns(self):
        # on an even-dimensioned VGG-style layer the transform-domain
        # candidate needs fewer conv cycles than the direct candidate at the
        # same primitive partition
        layer = ConvLayer("vggish", in_channels=64, out_channels=64,
                          in_height=56, in_width=56, kernel_size=3,
                          stride=1, padding=1)
        evaluator = MappingBatchEvaluator(layer, batch=1)
        pair = [LayerMapSpace(layer, algorithm=mode).baseline()
                for mode in ("direct", "winograd")]
        assert pair[1].is_winograd
        columns = evaluator.evaluate(*candidate_arrays(pair))
        assert columns["conv_cycles_per_image"][1] < \
            columns["conv_cycles_per_image"][0]


# --------------------------------------------------------------------- #
# joint algorithm + schedule search
# --------------------------------------------------------------------- #
class TestSearchNeverWorse:
    @pytest.mark.parametrize("objective", ("latency", "throughput",
                                           "energy", "edp"))
    @pytest.mark.parametrize("network_name", ("alexnet", "lenet5"))
    def test_auto_never_worse_than_direct(self, network_name, objective):
        network = get_network(network_name)
        config = ChainConfig()
        results = {}
        for mode in ("direct", "auto"):
            optimizer = ScheduleOptimizer(config=config, objective=objective,
                                          batch=8, algorithm=mode)
            results[mode] = optimizer.optimize(network).objective_value()
        assert results["auto"] <= results["direct"] * (1 + 1e-12)

    def test_vgg16_throughput_prefers_winograd_everywhere(self):
        network = get_network("vgg16")
        optimizer = ScheduleOptimizer(
            config=ChainConfig(), objective="throughput",
            batch=16, algorithm="auto",
        )
        schedule = optimizer.optimize(network)
        algorithms = schedule.algorithms()
        assert set(algorithms.values()) == {"winograd"}
        direct = ScheduleOptimizer(config=ChainConfig(), objective="throughput",
                                   batch=16).optimize(network)
        assert schedule.objective_value() < direct.objective_value()

    def test_fingerprint_only_changes_for_non_direct_modes(self):
        common = dict(config=ChainConfig(), objective="latency", batch=4)
        direct = ScheduleOptimizer(**common)
        explicit = ScheduleOptimizer(algorithm="direct", **common)
        auto = ScheduleOptimizer(algorithm="auto", **common)
        assert direct.fingerprint() == explicit.fingerprint()
        assert "algorithm" not in direct.fingerprint()
        assert auto.fingerprint()["algorithm"] == "auto"

    def test_bad_algorithm_mode_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleOptimizer(config=ChainConfig(), algorithm="fft")

    def test_verify_winograd_schedule_against_golden(self):
        network = get_network("alexnet")
        optimizer = ScheduleOptimizer(config=ChainConfig(),
                                      objective="throughput", batch=4,
                                      algorithm="winograd")
        schedule = optimizer.optimize(network)
        verification = optimizer.verify(network, schedule, seed=5)
        assert verification.passed
        entries = {entry.layer_name: entry for entry in verification.layers}
        covered = set(entries)
        for entry in entries.values():
            covered.update(entry.covers)
        assert covered == {layer.name for layer in network.conv_layers}
        wino_entries = [entry for entry in entries.values()
                        if entry.candidate.is_winograd]
        assert wino_entries
        for entry in wino_entries:
            assert entry.tolerance is not None
            assert entry.max_abs_error <= entry.tolerance
            assert entry.bit_identical
