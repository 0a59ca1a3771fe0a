"""Tests for the mapping-search subsystem (mapspace, search, optimizer).

The searched-vs-baseline equivalence tests in this module are part of the CI
equivalence gate (skips are failures): the searched schedule must never be
worse than the paper's Table II mapping, and every searched mapping must be
functionally equivalent — bit-identical ofmaps against the baseline stripe
plan, im2col golden reference matched to float round-off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.batch import MAPPING_RESULT_COLUMNS, MappingBatchEvaluator
from repro.cnn.generator import WorkloadGenerator, stable_seed
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import conv2d_im2col
from repro.cnn.zoo import alexnet, get_network, tiny_test_network
from repro.core.config import ChainConfig
from repro.core.scheduler import BatchScheduler
from repro.engine import RunCache, create_engine
from repro.errors import ConfigurationError, MappingError
from repro.mapping import (
    OBJECTIVES,
    ExhaustiveStrategy,
    LayerMapSpace,
    MappingCandidate,
    MapSpace,
    OptimizedSchedule,
    ScheduleOptimizer,
)
from repro.mapping import strategies
from repro.mapping.mapspace import ALGORITHM_MODES, candidate_arrays
from repro.sim.functional import FunctionalChainSimulator


def rows(columns):
    """Every row of an enumerated space as a MappingCandidate."""
    return [columns.candidate(row) for row in range(len(columns))]


def reference_rows(space):
    """The pruned space by nested loops, in the documented row order.

    Primitives ascending; per primitive count the direct rows (chunk
    descending, stripe height ascending, batch before image), then the
    Winograd rows (chunk descending, batch before image).  Image-major
    rows exist only where the weights need refills (chunk < passes).
    """
    def plateau_chunks(passes, capacity):
        chunk, chunks = min(capacity, passes), []
        while chunk >= 1:
            chunks.append(chunk)
            chunk = -(-passes // -(-passes // chunk)) - 1
        return chunks

    kernel = space.layer.kernel_size
    out = []
    for primitives in space.pruned_primitives():
        passes = -(-space.channel_pairs // primitives)
        for algorithm in space.algorithms:
            wino = algorithm == "winograd"
            capacity = (space.winograd_capacity if wino
                        else space.kmemory_capacity)
            heights = (kernel,) if wino else range(1, kernel + 1)
            for chunk in plateau_chunks(passes, capacity):
                images = (0, 1) if chunk < passes else (0,)
                out += [(primitives, height, chunk, image, int(wino))
                        for height in heights for image in images]
    return np.array(out, dtype=np.int64).reshape(-1, 5)


@pytest.fixture(scope="module")
def alexnet_net():
    return alexnet()


@pytest.fixture(scope="module")
def small_layer():
    return ConvLayer("small", in_channels=6, out_channels=10, in_height=14,
                     in_width=14, kernel_size=3, padding=1)


@pytest.fixture(scope="module")
def small_space(small_layer):
    # a small chain so the *full* space is brute-forceable
    return LayerMapSpace(small_layer, ChainConfig(num_pes=45,
                                                  kmemory_words_per_pe=8))


class TestLayerMapSpace:
    def test_baseline_is_the_table2_mapping(self, alexnet_net):
        space = LayerMapSpace(alexnet_net.conv_layer("conv3"))
        baseline = space.baseline()
        assert baseline.primitives == 64
        assert baseline.stripe_height == 3
        assert baseline.chunk == 256
        assert baseline.interleave == "batch"

    def test_baseline_is_enumerated(self, small_space):
        assert small_space.baseline() in rows(small_space.enumerate())

    def test_every_enumerated_candidate_is_legal(self, small_space):
        for candidate in rows(small_space.enumerate()):
            small_space.validate(candidate)

    def test_pruned_size_matches_enumeration(self, small_space):
        assert small_space.pruned_size() == len(small_space.enumerate())
        assert small_space.pruned_size() < small_space.full_size()

    def test_illegal_candidates_raise_mapping_error(self, small_space):
        layer = small_space.layer
        too_many = small_space.max_primitives + 1
        with pytest.raises(MappingError):
            small_space.validate(MappingCandidate(too_many, layer.kernel_size, 1))
        with pytest.raises(MappingError):
            small_space.validate(MappingCandidate(1, layer.kernel_size + 1, 1))
        with pytest.raises(MappingError):
            small_space.validate(
                MappingCandidate(1, 1, small_space.kmemory_capacity + 1))
        with pytest.raises(MappingError):
            MappingCandidate(1, 1, 1, interleave="diagonal")

    def test_kernel_larger_than_chain_raises(self):
        layer = ConvLayer("big", 1, 1, 20, 20, kernel_size=7)
        with pytest.raises(MappingError):
            LayerMapSpace(layer, ChainConfig(num_pes=36))

    def test_pruning_keeps_the_full_space_optimum(self, small_space):
        """Exhaustive over the pruned space == brute force over the full space."""
        evaluator = MappingBatchEvaluator(small_space.layer, small_space.config,
                                          batch=4)
        full = [
            MappingCandidate(p, h, c, interleave)
            for p in range(1, small_space.max_primitives + 1)
            for h in range(1, small_space.layer.kernel_size + 1)
            for c in range(1, small_space.kmemory_capacity + 1)
            for interleave in ("batch", "image")
        ]
        pruned = small_space.enumerate()
        for column in ("first_image_latency_s", "time_per_batch_s",
                       "energy_per_batch_j", "edp_js"):
            full_best = evaluator.evaluate(*candidate_arrays(full))[column].min()
            pruned_best = evaluator.evaluate(*pruned.arrays())[column].min()
            assert pruned_best == pytest.approx(full_best, rel=1e-12)

    @staticmethod
    def _assert_matches_reference(space):
        columns = np.stack([column.astype(np.int64)
                            for column in space.enumerate().arrays()], axis=1)
        assert np.array_equal(columns, reference_rows(space)), space.describe()
        assert space.pruned_size() == len(columns)

    @pytest.mark.parametrize("algorithm", ALGORITHM_MODES)
    @pytest.mark.parametrize("network", ["alexnet", "vgg16", "lenet5",
                                         "cifar10"])
    def test_enumeration_order_matches_nested_loops(self, network, algorithm):
        """Row for row: ties in the search break by this order."""
        for layer in get_network(network).conv_layers:
            self._assert_matches_reference(
                LayerMapSpace(layer, algorithm=algorithm))

    def test_enumeration_order_on_small_and_large_chains(self, small_space,
                                                         alexnet_net):
        self._assert_matches_reference(small_space)
        # a kMemory far above sqrt(passes) takes both chunk-plateau regimes
        config = ChainConfig(num_pes=4096, kmemory_words_per_pe=4096)
        self._assert_matches_reference(
            LayerMapSpace(alexnet_net.conv_layer("conv3"), config,
                          algorithm="auto"))

    def test_network_mapspace(self, alexnet_net):
        space = MapSpace(alexnet_net)
        assert len(space) == 5
        assert space.total_pruned_size() < space.total_full_size()
        assert len(space.baseline_candidates()) == 5
        assert "AlexNet" in space.describe()


class TestMappingBatchEvaluator:
    def test_baseline_matches_mapper_accounting(self, alexnet_net):
        """The columnar baseline row reproduces the LayerMapper quantities."""
        from repro.core.mapper import LayerMapper

        config = ChainConfig()
        mapper = LayerMapper(config)
        for layer in alexnet_net.conv_layers:
            space = LayerMapSpace(layer, config)
            evaluator = MappingBatchEvaluator(layer, config, batch=16)
            columns = evaluator.evaluate(*candidate_arrays([space.baseline()]))
            mapping = mapper.map_layer(layer)
            assert columns["passes"][0] == mapping.passes
            assert columns["active_pes"][0] == mapping.active_pes
            assert columns["kmemory_refills"][0] == mapping.kmemory_refills
            assert columns["stripes"][0] == len(mapping.stripes_per_pair)

    def test_columnar_equals_per_candidate(self, small_space):
        """Evaluating a batch of candidates == evaluating them one by one."""
        evaluator = MappingBatchEvaluator(small_space.layer, small_space.config,
                                          batch=8)
        candidates = rows(small_space.enumerate())[::7]
        together = evaluator.evaluate(*candidate_arrays(candidates))
        for index, candidate in enumerate(candidates):
            alone = evaluator.evaluate(*candidate_arrays([candidate]))
            for column in MAPPING_RESULT_COLUMNS:
                assert alone[column][0] == together[column][index]

    def test_image_major_reloads_and_batch_major_spills(self):
        """The interleave tradeoff: reloads vs partial-sum spills."""
        layer = ConvLayer("t", 8, 8, 12, 12, kernel_size=3, padding=1)
        config = ChainConfig(num_pes=18, kmemory_words_per_pe=4)  # refills > 1
        evaluator = MappingBatchEvaluator(layer, config, batch=4)
        space = LayerMapSpace(layer, config)
        base = space.baseline()
        batch_major, image_major = (
            MappingCandidate(base.primitives, base.stripe_height, base.chunk, kind)
            for kind in ("batch", "image"))
        columns = evaluator.evaluate(*candidate_arrays([batch_major, image_major]))
        assert columns["kmemory_refills"][0] > 1
        # batch-major: kernels once per batch, partials spill
        assert columns["kernel_load_cycles"][0] == layer.weight_count
        assert columns["spill_dram_words"][0] > 0
        # image-major: kernels per image, no spills, better first-image latency
        assert columns["kernel_load_cycles"][1] == layer.weight_count * 4
        assert columns["spill_dram_words"][1] == 0
        assert (columns["first_image_latency_s"][1]
                < columns["first_image_latency_s"][0])
        assert columns["time_per_batch_s"][1] > columns["time_per_batch_s"][0]

    def test_rejects_bad_configuration(self, small_layer):
        with pytest.raises(ConfigurationError):
            MappingBatchEvaluator(small_layer, batch=0)
        with pytest.raises(ConfigurationError):
            MappingBatchEvaluator(ConvLayer("k7", 1, 1, 20, 20, kernel_size=7),
                                  ChainConfig(num_pes=36))


class TestStrategies:
    def test_exhaustive_finds_the_pruned_optimum(self, small_space):
        evaluator = MappingBatchEvaluator(small_space.layer, small_space.config,
                                          batch=4)

        def scorer(columns):
            return evaluator.evaluate(*columns.arrays())["time_per_batch_s"]

        result = ExhaustiveStrategy().search(small_space, scorer)
        everything = scorer(small_space.enumerate())
        assert result.scores[0] == pytest.approx(float(everything.min()))
        assert result.evaluations == small_space.pruned_size()

    def test_size_guard_raises_before_enumerating(self, alexnet_net,
                                                  monkeypatch):
        def enumerate_called(space):
            raise AssertionError("the guard must run before enumerate()")

        monkeypatch.setattr(strategies, "MAX_CANDIDATES", 100)
        monkeypatch.setattr(LayerMapSpace, "enumerate", enumerate_called)
        with pytest.raises(ConfigurationError, match="conv1"):
            ScheduleOptimizer(objective="latency", batch=4).optimize(alexnet_net)


class TestScheduleOptimizer:
    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_searched_never_worse_than_table2_on_alexnet(self, alexnet_net,
                                                         objective):
        """The equivalence-gate claim, per objective (CI fails on skips)."""
        optimizer = ScheduleOptimizer(objective=objective, batch=16)
        schedule = optimizer.optimize(alexnet_net)
        assert (schedule.objective_value()
                <= schedule.baseline_objective_value() * (1 + 1e-12))

    def test_latency_strictly_better_on_alexnet(self, alexnet_net):
        """Image-major interleave beats batch-blocked loading on refill-heavy
        layers — the strictly-better half of the acceptance criterion."""
        optimizer = ScheduleOptimizer(objective="latency", batch=16)
        schedule = optimizer.optimize(alexnet_net)
        assert schedule.objective_value() < schedule.baseline_objective_value()
        assert schedule.improvement_fraction() > 0.25

    def test_schedule_round_trips_through_json(self, alexnet_net):
        optimizer = ScheduleOptimizer(objective="energy", batch=8)
        schedule = optimizer.optimize(alexnet_net)
        clone = OptimizedSchedule.from_json_dict(schedule.to_json_dict())
        assert clone.to_json_dict() == schedule.to_json_dict()
        assert clone.objective_value() == schedule.objective_value()

    def test_search_is_memoised_in_run_cache(self, alexnet_net, tmp_path):
        cache = RunCache(tmp_path)
        optimizer = ScheduleOptimizer(objective="latency", batch=16, cache=cache)
        first = optimizer.optimize(alexnet_net)
        assert not first.cached
        second = optimizer.optimize(alexnet_net)
        assert second.cached
        assert second.to_json_dict() == first.to_json_dict()
        # a different search configuration misses (fingerprint in the key)
        other = ScheduleOptimizer(objective="energy", batch=16, cache=cache)
        assert other.cache_key(alexnet_net) != optimizer.cache_key(alexnet_net)

    def test_verify_searched_mappings_on_tiny_network(self):
        network = tiny_test_network()
        optimizer = ScheduleOptimizer(objective="latency", batch=4,
                                      config=ChainConfig(num_pes=36))
        schedule = optimizer.optimize(network)
        verification = optimizer.verify(network, schedule)
        assert verification.passed
        assert verification.max_abs_error <= 1e-9

    def test_batch_scheduler_consumes_optimized_schedules(self, alexnet_net):
        optimizer = ScheduleOptimizer(objective="throughput", batch=16)
        schedule = optimizer.optimize(alexnet_net)
        timeline = BatchScheduler().schedule_optimized(alexnet_net, schedule)
        assert timeline.batch == 16
        assert timeline.total_time_s == pytest.approx(
            schedule.total_time_per_batch_s())
        assert timeline.frames_per_second == pytest.approx(
            schedule.frames_per_second())

    def test_batch_scheduler_rejects_foreign_schedules(self, alexnet_net):
        optimizer = ScheduleOptimizer(objective="throughput", batch=4,
                                      config=ChainConfig(num_pes=36))
        schedule = optimizer.optimize(tiny_test_network())
        with pytest.raises(ConfigurationError):
            BatchScheduler().schedule_optimized(alexnet_net, schedule)

    def test_rejects_unknown_objective(self):
        with pytest.raises(ConfigurationError):
            ScheduleOptimizer(objective="area")


class TestFunctionalEquivalence:
    """Searched stripe plans are bit-identical to the baseline dataflow."""

    @pytest.mark.parametrize("kernel_size,stride,padding,groups", [
        (3, 1, 1, 1),
        (3, 2, 0, 1),
        (5, 1, 2, 2),
        (7, 4, 3, 1),
    ])
    def test_all_stripe_heights_bit_identical(self, kernel_size, stride,
                                              padding, groups):
        layer = ConvLayer("t", 4, 4, 21, 21, kernel_size=kernel_size,
                          stride=stride, padding=padding, groups=groups)
        generator = WorkloadGenerator(seed=stable_seed(2017, layer.name))
        ifmaps, weights = generator.layer_pair(layer)
        reference = conv2d_im2col(layer, ifmaps, weights)
        simulator = FunctionalChainSimulator(backend="both")
        baseline = simulator.run_layer(layer, ifmaps, weights)
        for height in range(1, kernel_size + 1):
            run = simulator.run_layer(layer, ifmaps, weights, stripe_height=height)
            assert np.array_equal(run.ofmaps, baseline.ofmaps)
            assert run.stats.windows_kept == baseline.stats.windows_kept
            assert float(np.max(np.abs(run.ofmaps - reference))) <= 1e-9

    def test_network_runner_accepts_stripe_heights(self):
        from repro.sim.network import FunctionalNetworkRunner

        network = tiny_test_network()
        runner = FunctionalNetworkRunner(ChainConfig(num_pes=36), backend="both")
        heights = {layer.name: 2 for layer in network.conv_layers}
        result = runner.run(network, stripe_heights=heights)
        assert result.passed
        default = runner.run(network)
        assert result.max_abs_error == default.max_abs_error

    def test_rejects_illegal_stripe_height(self, small_layer):
        generator = WorkloadGenerator(seed=1)
        ifmaps, weights = generator.layer_pair(small_layer)
        simulator = FunctionalChainSimulator(backend="vectorized")
        with pytest.raises(ConfigurationError):
            simulator.run_layer(small_layer, ifmaps, weights, stripe_height=0)
        with pytest.raises(ConfigurationError):
            simulator.run_layer(small_layer, ifmaps, weights,
                                stripe_height=small_layer.kernel_size + 1)


class TestMappedEngine:
    def test_registered_and_reports_improvement(self, alexnet_net):
        engine = create_engine("analytical-mapped", objective="latency")
        record = engine.evaluate(alexnet_net, batch=16)
        assert record.engine == "analytical-mapped"
        assert record.batch == 16
        assert record.metric("improvement_fraction") > 0.0
        assert record.metric("objective_value") <= record.metric(
            "baseline_objective_value")
        assert record.extra["schedule"]["layers"]

    def test_requested_batch_is_honored(self, alexnet_net):
        # batch=1 must evaluate batch 1, not be rewritten to a default
        engine = create_engine("analytical-mapped")
        record = engine.evaluate(alexnet_net, batch=1)
        assert record.batch == 1
        assert record.extra["schedule"]["batch"] == 1

    def test_fingerprint_carries_the_search_configuration(self):
        engine = create_engine("analytical-mapped", objective="energy")
        fingerprint = engine.fingerprint()
        assert fingerprint["objective"] == "energy"
        assert "strategy" not in fingerprint
        other_objective = create_engine("analytical-mapped", objective="latency")
        other_algorithm = create_engine("analytical-mapped", objective="energy",
                                        algorithm="auto")
        assert other_objective.fingerprint() != fingerprint
        assert other_algorithm.fingerprint() != fingerprint


class TestStableSeed:
    def test_stable_seed_is_deterministic_and_sensitive(self):
        assert stable_seed(2017, "verify", "conv3") == stable_seed(
            2017, "verify", "conv3")
        assert stable_seed(2017, "verify", "conv3") != stable_seed(
            2017, "verify", "conv4")
        assert stable_seed(1) != stable_seed(2)

    def test_generator_spawn_is_order_independent(self, small_layer):
        parent = WorkloadGenerator(seed=2017)
        parent.ifmaps(small_layer)  # perturb the parent stream
        child_after = parent.spawn("conv1").weights(small_layer)
        child_fresh = WorkloadGenerator(seed=2017).spawn("conv1").weights(small_layer)
        assert np.array_equal(child_after, child_fresh)
