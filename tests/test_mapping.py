"""Tests for the mapping-search subsystem (mapspace, search, optimizer).

The searched-vs-baseline equivalence tests in this module are part of the CI
equivalence gate (skips are failures): the searched schedule must never be
worse than the paper's Table II mapping, and every searched mapping must be
functionally equivalent — bit-identical ofmaps against the baseline stripe
plan, im2col golden reference matched to float round-off.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.batch import MAPPING_RESULT_COLUMNS, MappingBatchEvaluator
from repro.cnn.generator import WorkloadGenerator, stable_seed
from repro.cnn.layer import ConvLayer
from repro.cnn.reference import conv2d_im2col
from repro.cnn.zoo import alexnet, get_network, tiny_test_network
from repro.core.config import ChainConfig
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
from repro.cli import main
from repro.mapping import CandidateColumns, mapspace, strategies
from repro.mapping.mapspace import ALGORITHM_MODES, candidate_arrays
from repro.sim.functional import FunctionalChainSimulator, scalar_window_walk

#: SHA-256 of the stdout of every ``map --network N --objective O
#: --algorithm A --json`` over the zoo, recorded before the search scored
#: only its objective's proxy column and kept its shortlist by a partial
#: selection instead of a full stable sort
MAP_DIGESTS = Path(__file__).resolve().parent / "fixtures" / "map_json_digests.json"


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

    # an eligible 3x3 layer whose weights need refills (image-major rows)
    # and a strided layer (direct only, kMemory re-read per ofmap row)
    SPACES = {
        "eligible": (ConvLayer("wino", in_channels=16, out_channels=24,
                               in_height=14, in_width=14, kernel_size=3,
                               padding=1),
                     ChainConfig(num_pes=45, kmemory_words_per_pe=8)),
        "strided": (ConvLayer("strided", in_channels=6, out_channels=8,
                              in_height=23, in_width=23, kernel_size=5,
                              stride=2),
                    ChainConfig(num_pes=75, kmemory_words_per_pe=4)),
    }

    @pytest.mark.parametrize("space_name, subset", [
        ("eligible", "direct"), ("eligible", "winograd"),
        ("eligible", "mixed"), ("strided", "direct")])
    def test_each_column_alone_equals_the_full_vector(self, space_name, subset):
        """A column is the same bits whether scored alone or with all."""
        layer, config = self.SPACES[space_name]
        columns = LayerMapSpace(layer, config, algorithm="auto").enumerate()
        keep = {"direct": ~columns.winograd, "winograd": columns.winograd,
                "mixed": np.ones(len(columns), dtype=bool)}[subset]
        arrays = tuple(array[keep] for array in columns.arrays())
        assert arrays[3].any(), "no image-major rows"
        assert arrays[4].any() == (subset != "direct")
        assert arrays[4].all() == (subset == "winograd")
        evaluator = MappingBatchEvaluator(layer, config, batch=4)
        full = evaluator.evaluate(*arrays)
        assert tuple(full) == MAPPING_RESULT_COLUMNS
        for name in MAPPING_RESULT_COLUMNS:
            alone = evaluator.evaluate(*arrays, columns=(name,))
            assert list(alone) == [name]
            assert alone[name].dtype == full[name].dtype
            assert alone[name].tobytes() == full[name].tobytes(), name
        pair = evaluator.evaluate(*arrays, columns=("edp_js", "passes"))
        assert list(pair) == ["edp_js", "passes"]

    def test_unknown_column_is_rejected(self, small_space):
        evaluator = MappingBatchEvaluator(small_space.layer, small_space.config)
        with pytest.raises(ConfigurationError, match="conv_img"):
            evaluator.evaluate(*small_space.enumerate().arrays(),
                               columns=("fps", "conv_img"))

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

    @staticmethod
    def _search_scores(scores, shortlist):
        """``ExhaustiveStrategy.search`` over a stub space whose row ``i``
        scores ``scores[i]``; returns (row indices, scores) of the result."""
        n = len(scores)

        class Space:
            layer = ConvLayer("stub", 1, 1, 5, 5, kernel_size=3)

            def pruned_size(self):
                return n

            def enumerate(self):
                return CandidateColumns(
                    primitives=np.arange(1, n + 1), stripe_height=np.ones(n, int),
                    chunk=np.ones(n, int), image_major=np.zeros(n, bool),
                    winograd=np.zeros(n, bool))

        result = ExhaustiveStrategy().search(
            Space(), lambda columns: np.asarray(scores, dtype=np.float64),
            shortlist=shortlist)
        assert result.evaluations == n
        return ([candidate.primitives - 1 for candidate in result.candidates],
                result.scores)

    @settings(max_examples=300, deadline=None)
    @given(scores=st.lists(st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0,
                                            float("inf"), float("nan")]),
                           min_size=1, max_size=40),
           shortlist=st.integers(min_value=1, max_value=45))
    # ties across the k-th value, and a shortlist longer than the space
    @example(scores=[1.0, 0.0, 1.0, 0.0, 1.0, 1.0], shortlist=3)
    @example(scores=[2.0, 2.0, 2.0], shortlist=2)
    @example(scores=[1.0, 0.0], shortlist=5)
    def test_shortlist_is_the_stable_argsort_prefix(self, scores, shortlist):
        """Best first, ties in enumeration order: the same rows, in the same
        order, as ``np.argsort(scores, kind="stable")[:shortlist]``."""
        rows, kept = self._search_scores(scores, shortlist)
        expected = np.argsort(np.asarray(scores), kind="stable")[:shortlist]
        assert rows == expected.tolist()
        assert np.array_equal(kept, np.asarray(scores)[expected], equal_nan=True)

    def test_pairs_are_built_once_per_algorithm(self, alexnet_net, monkeypatch):
        """The size guard and the enumeration share one plateau walk."""
        calls = []
        plateaus = mapspace._chunk_plateaus
        monkeypatch.setattr(mapspace, "_chunk_plateaus",
                            lambda *args: calls.append(1) or plateaus(*args))
        space = LayerMapSpace(alexnet_net.conv_layer("conv3"), algorithm="auto")
        evaluator = MappingBatchEvaluator(space.layer, batch=4)
        result = ExhaustiveStrategy().search(
            space, lambda columns: evaluator.evaluate(
                *columns.arrays(), columns=("fps",))["fps"])
        assert result.evaluations == space.pruned_size() == len(space.enumerate())
        assert len(calls) == len(space.algorithms) == 2

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
        assert verification.max_abs_error == 0.0
        assert verification.describe().endswith(" max|err|=0.00e+00 (exact)")
        # exact is the only pass: a last-bit deviation fails the verdict
        verification.layers[0] = dataclasses.replace(verification.layers[0],
                                                     max_abs_error=1e-12)
        assert not verification.passed
        assert verification.describe().endswith(" max|err|=1.00e-12 (inexact)")

    def test_schedule_totals_sum_its_layers(self, alexnet_net):
        """Each layer loads its kernels, then convolves the whole batch."""
        schedule = ScheduleOptimizer(objective="throughput", batch=16).optimize(alexnet_net)
        cycles = [entry.metrics["kernel_load_cycles"]
                  + entry.metrics["conv_cycles_per_image"] * 16
                  for entry in schedule.layers]
        for entry, layer_cycles in zip(schedule.layers, cycles):
            assert entry.metrics["time_per_batch_s"] == pytest.approx(
                layer_cycles / schedule.frequency_hz)
        assert schedule.total_time_per_batch_s() == pytest.approx(
            sum(cycles) / schedule.frequency_hz)
        assert schedule.frames_per_second() == pytest.approx(
            16 / schedule.total_time_per_batch_s())

    def test_layer_lookup_rejects_foreign_layers(self):
        optimizer = ScheduleOptimizer(objective="throughput", batch=4,
                                      config=ChainConfig(num_pes=36))
        schedule = optimizer.optimize(tiny_test_network())
        assert schedule.layer_schedule("convA").layer_name == "convA"
        with pytest.raises(ConfigurationError):
            schedule.layer_schedule("conv3")

    def test_rejects_unknown_objective(self):
        with pytest.raises(ConfigurationError):
            ScheduleOptimizer(objective="area")


class TestMapJsonBytes:
    """``map --json`` is pinned byte for byte over the zoo, every objective
    and every algorithm mode (recorded digests, see :data:`MAP_DIGESTS`)."""

    DIGESTS = json.loads(MAP_DIGESTS.read_text())

    def test_fixture_covers_the_zoo(self):
        assert len(self.DIGESTS) == 4 * len(OBJECTIVES) * len(ALGORITHM_MODES)

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_map_json_bytes(self, command, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(command.split()) == 0
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert digest == self.DIGESTS[command]


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
        ifmaps, weights = WorkloadGenerator(
            seed=stable_seed(2017, layer.name)).layer_pair(layer)
        reference = conv2d_im2col(layer, ifmaps, weights)
        simulator = FunctionalChainSimulator()
        baseline = simulator.run_layer(layer, ifmaps, weights)
        for height in range(1, kernel_size + 1):
            run = simulator.run_layer(layer, ifmaps, weights, stripe_height=height)
            assert np.array_equal(run.ofmaps, baseline.ofmaps)
            assert run.stats.windows_kept == baseline.stats.windows_kept
            assert np.array_equal(run.ofmaps, reference)
            # the re-striped plan walks exactly the windows the oracle does
            walk_ofmaps, walk_stats = scalar_window_walk(
                layer, ifmaps, weights, stripe_height=height)
            assert np.array_equal(walk_ofmaps, run.ofmaps)
            assert walk_stats == run.stats

    def test_network_runner_accepts_stripe_heights(self):
        from repro.sim.network import FunctionalNetworkRunner

        network = tiny_test_network()
        runner = FunctionalNetworkRunner(ChainConfig(num_pes=36))
        heights = {layer.name: 2 for layer in network.conv_layers}
        result = runner.run(network, stripe_heights=heights)
        assert result.passed
        default = runner.run(network)
        assert result.max_abs_error == default.max_abs_error

    def test_rejects_illegal_stripe_height(self, small_layer):
        generator = WorkloadGenerator(seed=1)
        ifmaps, weights = generator.layer_pair(small_layer)
        simulator = FunctionalChainSimulator()
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
