"""The columnar analytical model: exactness, grids, Pareto reduction, executor.

The headline property: :class:`repro.analysis.batch.BatchDesignEvaluator`
— the one analytical model, behind every ``analytical*`` engine, every
sweep and every experiment — equals, bit for bit, an independent test-side
oracle that sums the per-layer helpers (``PerformanceModel.layer_performance``,
``TrafficModel.layer_traffic``, ``chain_power_w``/``memory_power_w``,
``AreaModel``, ``minimum_utilization``) over the layers of a network.  The
user-visible ``run --json`` bytes are pinned to a committed fixture.  CI
refuses skips in this module.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.batch import (
    DEFAULT_OBJECTIVES,
    BatchDesignEvaluator,
    BatchSweepResult,
    DesignGrid,
    worst_case_utilization_array,
)
from repro.analysis.pareto import (
    objective_matrix,
    pareto_mask,
    top_k_indices,
)
from repro.analysis.sweep import DesignSpaceExplorer
from repro.cli import main
from repro.cnn.zoo import NETWORKS, alexnet, get_network, lenet5
from repro.core.config import MAINSTREAM_KERNEL_SIZES, ChainConfig
from repro.core.performance import PerformanceModel
from repro.core.utilization import minimum_utilization
from repro.energy.area import AreaModel
from repro.energy.components import EnergyParams
from repro.energy.power import chain_power_w, memory_power_w
from repro.engine import RunCache, SweepExecutor, create_engine
from repro.engine.cache import canonical_json
from repro.errors import ConfigurationError
from repro.memory.traffic import TrafficModel
from repro.obs.metrics import REGISTRY

RESULT_FIELDS = (
    "peak_gops",
    "fps",
    "total_time_per_batch_s",
    "achieved_gops",
    "power_w",
    "gops_per_watt",
    "worst_case_utilization",
    "total_gates",
)

#: values decimal text handles badly: a sign-only zero, the smallest
#: subnormal, a near-overflow magnitude and a non-terminating binary fraction
FRAGILE_FLOATS = (-0.0, np.nextafter(0.0, 1.0), 1e308, 1.0 / 3.0)

#: ``run ... --json`` stdout recorded before the analytical model became one
#: columnar evaluator (analytical and baseline engines) and before each
#: simulator engine became one code path (functional, cycle); keys are the argv
RUN_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "run_json_outputs.json"


def oracle(network, config: ChainConfig, batch: int, mode: str = "paper",
           energy: EnergyParams = None):
    """The analytical record of one design point, summed layer by layer.

    Returns ``(metrics, extra, power components, traffic table)`` shaped like
    an ``analytical`` run record and ``run --traffic``.
    """
    energy = energy or EnergyParams()
    performance = PerformanceModel(config, mode=mode)
    traffic_model = TrafficModel(config)
    layers = [performance.layer_performance(layer, batch) for layer in network.conv_layers]
    traffic = [traffic_model.layer_traffic(layer, batch) for layer in network.conv_layers]
    word = config.word_bytes

    conv_s = sum(layer.conv_time_per_batch_s for layer in layers)
    load_s = sum(layer.kernel_load_time_s for layer in layers)
    total_s = conv_s + load_s
    busy_pe_cycles = sum(layer.mapping.active_pes * layer.conv_cycles_per_batch
                         for layer in layers)
    components = {
        "chain": chain_power_w(busy_pe_cycles, total_s, energy),
        "kMemory": memory_power_w(sum(t.kmemory_bytes for t in traffic) / word,
                                  total_s, energy.kmemory_access_j),
        "iMemory": memory_power_w(sum(t.imemory_bytes for t in traffic) / word,
                                  total_s, energy.imemory_access_j),
        "oMemory": memory_power_w(sum(t.omemory_bytes for t in traffic) / word,
                                  total_s, energy.omemory_access_j),
    }
    power_w = sum(components.values())
    achieved_gops = 2 * sum(layer.layer.macs for layer in layers) * batch / total_s / 1e9
    sizes = [k for k in MAINSTREAM_KERNEL_SIZES if k * k <= config.num_pes]
    table = {t.layer_name: t.as_megabytes() for t in traffic}
    table["Total"] = {
        "DRAM": sum(t.dram_bytes for t in traffic) / 1e6,
        "iMemory": sum(t.imemory_bytes for t in traffic) / 1e6,
        "kMemory": sum(t.kmemory_bytes for t in traffic) / 1e6,
        "oMemory": sum(t.omemory_bytes for t in traffic) / 1e6,
    }
    metrics = {
        "batch": float(batch),
        "fps": batch / total_s,
        "conv_time_per_batch_ms": conv_s * 1e3,
        "kernel_load_time_ms": load_s * 1e3,
        "achieved_gops": achieved_gops,
        "total_power_w": power_w,
        "gops_per_watt": achieved_gops / power_w,
        "peak_gops": config.peak_gops,
        "power_w": power_w,
        "total_time_per_batch_s": total_s,
        "total_gates": AreaModel(config).report().total_gates,
        "worst_case_utilization": minimum_utilization(config.num_pes, sizes) if sizes else 0.0,
        "onchip_memory_bytes": float(config.onchip_memory_bytes),
        "dram_traffic_mb": table["Total"]["DRAM"],
    }
    extra = {
        "layer_times_ms": {layer.layer.name: layer.conv_time_per_batch_s * 1e3
                           for layer in layers},
        "kernel_load_times_ms": {layer.layer.name: layer.kernel_load_time_s * 1e3
                                 for layer in layers},
    }
    return metrics, extra, components, table


def random_grid(rng: np.random.Generator, n: int, min_pes: int = 121) -> DesignGrid:
    """An arbitrary (non-product) set of design points."""
    return DesignGrid(
        num_pes=rng.integers(min_pes, 1300, size=n),
        frequency_hz=rng.integers(100, 1300, size=n).astype(np.float64) * 1e6,
        batch=rng.integers(1, 256, size=n),
        word_bits=rng.choice([8, 16, 32], size=n).astype(np.int64),
    )


def assert_matches_oracle(result: BatchSweepResult, network, mode: str = "paper",
                          base: ChainConfig = None) -> None:
    """Every column equals the layer-by-layer oracle exactly."""
    grid = result.grid
    for index in range(grid.n_points):
        config = grid.config_at(index, base=base)
        metrics = oracle(network, config, int(grid.batch[index]), mode)[0]
        for field in RESULT_FIELDS:
            assert float(getattr(result, field)[index]) == metrics[field], (
                f"{field} diverges at point {index}: {config.describe()}")


GRID_COLUMNS = ("num_pes", "frequency_hz", "batch", "word_bits")


def fragile_grid() -> DesignGrid:
    """Integers above 2**53 and clocks at the float extremes."""
    return DesignGrid(
        num_pes=np.array([2**53 + 1, 1, 576, 2**62 + 3], dtype=np.int64),
        frequency_hz=np.array(FRAGILE_FLOATS[1:] + (7e8,)),
        batch=np.array([1, 2**53 + 1, 128, 3], dtype=np.int64),
        word_bits=np.array([8, 2**60, 16, 2**53 + 8], dtype=np.int64),
    )


def assert_columns_identical(clone: dict, original: dict) -> None:
    """Same column names, dtypes and bits (``-0.0`` keeps its sign)."""
    assert clone.keys() == original.keys()
    for name, column in original.items():
        assert clone[name].dtype == column.dtype, name
        assert np.array_equal(clone[name], column), name
        assert np.array_equal(np.signbit(clone[name]), np.signbit(column)), name


def json_round_trip(value):
    """``value`` through the encoder :meth:`RunCache.put` writes with."""
    return type(value).from_json_dict(json.loads(canonical_json(value.to_json_dict())))


def run_cli(argv):
    """``repro.cli.main(argv)`` in-process: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


class TestGridParsing:
    def test_product_and_inclusive_ranges(self):
        grid = DesignGrid.parse("pe=128:1152:32,freq=200:1000:50", base=ChainConfig())
        assert grid.n_points == 33 * 17
        assert grid.num_pes.min() == 128 and grid.num_pes.max() == 1152
        assert grid.frequency_hz.min() == 200e6 and grid.frequency_hz.max() == 1000e6

    def test_defaults_come_from_base_config(self):
        base = ChainConfig().with_pes(288)
        grid = DesignGrid.parse("freq=500", base=base, default_batch=32)
        assert grid.n_points == 1
        assert int(grid.num_pes[0]) == 288
        assert int(grid.batch[0]) == 32
        assert int(grid.word_bits[0]) == base.word_bits

    def test_scalar_and_two_part_ranges(self):
        grid = DesignGrid.parse("batch=2:5,pe=576", base=ChainConfig())
        assert sorted(grid.batch.tolist()) == [2, 3, 4, 5]

    def test_ranges_never_overshoot_the_stop(self):
        grid = DesignGrid.parse("pe=128:1150:32,freq=200:999:50", base=ChainConfig())
        assert grid.num_pes.max() == 1120  # not 1152 > 1150
        assert grid.frequency_hz.max() == 950e6  # not 1000 > 999

    @pytest.mark.parametrize("spec", [
        "", "volt=1:2", "pe=", "pe=1:2:0", "pe=10:5", "pe=1:2:3:4", "pe=abc",
        "pe=100.5",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            DesignGrid.parse(spec, base=ChainConfig())

    def test_invalid_point_values_rejected(self):
        with pytest.raises(ConfigurationError, match="word_bits"):
            DesignGrid.parse("bits=12", base=ChainConfig())
        with pytest.raises(ConfigurationError, match="batch"):
            DesignGrid(
                num_pes=np.array([576]), frequency_hz=np.array([7e8]),
                batch=np.array([0]), word_bits=np.array([16]),
            )

    def test_round_trips_through_json(self):
        """All four axes come back with their dtypes and bits."""
        for grid in (random_grid(np.random.default_rng(7), 17), fragile_grid()):
            clone = json_round_trip(grid)
            assert_columns_identical(
                {name: getattr(clone, name) for name in GRID_COLUMNS},
                {name: getattr(grid, name) for name in GRID_COLUMNS})


class TestScalarEquivalence:
    """The acceptance property: columnar == layer-by-layer oracle, exactly."""

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    @pytest.mark.parametrize("mode", ["paper", "detailed"])
    def test_point_records_equal_oracle(self, name, mode):
        """Every field of the analytical record, the power split and the
        traffic table, across the zoo, both modes and PE/clock/batch points."""
        network = get_network(name)
        engine = create_engine("analytical", mode=mode)
        for num_pes in (144, 288, 576, 1152):
            for mhz in (200.0, 700.0, 1000.0):
                config = ChainConfig().with_pes(num_pes).with_frequency(mhz * 1e6)
                for batch in (1, 4, 128):
                    metrics, extra, components, table = oracle(network, config, batch, mode)
                    record = engine.evaluate(network, config, batch)
                    assert record.metrics == metrics
                    assert record.extra == extra
                    point = engine.evaluator(network, config).breakdown(batch)
                    assert point.power_components_w == components
                    assert point.traffic_mb() == table

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_grid_matches_scalar_engine_lenet(self, seed):
        rng = np.random.default_rng(2017 + seed)
        network = lenet5()
        grid = random_grid(rng, 24, min_pes=25)
        result = BatchDesignEvaluator(network, base=ChainConfig()).evaluate_grid(grid)
        assert_matches_oracle(result, network)

    def test_randomized_grid_matches_scalar_engine_alexnet(self):
        rng = np.random.default_rng(42)
        network = alexnet()
        grid = random_grid(rng, 16, min_pes=121)
        result = BatchDesignEvaluator(network, base=ChainConfig()).evaluate_grid(grid)
        assert_matches_oracle(result, network)

    def test_detailed_mode_matches_scalar_engine(self):
        rng = np.random.default_rng(3)
        network = lenet5()
        grid = random_grid(rng, 8, min_pes=25)
        result = BatchDesignEvaluator(network, base=ChainConfig(),
                                      mode="detailed").evaluate_grid(grid)
        assert_matches_oracle(result, network, mode="detailed")

    def test_matches_design_space_explorer_sweep_points(self):
        """The per-point explorer's SweepPoint rows and the grid columns both
        equal the oracle."""
        network = alexnet()
        explorer = DesignSpaceExplorer(network, batch=16, engine="analytical")
        pe_counts = (144, 288, 576, 1152)
        points = explorer.sweep_chain_length(pe_counts)
        grid = DesignGrid.from_axes(pe_counts=pe_counts, batches=(16,))
        result = BatchDesignEvaluator(network, base=ChainConfig()).evaluate_grid(grid)
        assert_matches_oracle(result, network)
        for point in points:
            metrics = oracle(network, point.config, 16)[0]
            for field in ("peak_gops", "fps", "power_w", "gops_per_watt",
                          "worst_case_utilization", "total_gates"):
                assert getattr(point, field) == metrics[field], field

    def test_dual_channel_strawman_supported(self):
        network = lenet5()
        base = ChainConfig().single_channel()
        grid = DesignGrid.from_axes(pe_counts=(144, 576), batches=(4,))
        result = BatchDesignEvaluator(network, base=base).evaluate_grid(grid)
        assert_matches_oracle(result, network, base=base)

    def test_grid_too_small_for_kernels_rejected(self):
        grid = DesignGrid.from_axes(pe_counts=(100,))  # AlexNet conv1 needs 121
        with pytest.raises(ConfigurationError, match="at least 121"):
            BatchDesignEvaluator(alexnet()).evaluate_grid(grid)

    def test_worst_case_utilization_array_matches_scalar(self):
        pes = np.arange(1, 1300, 7)
        vector = worst_case_utilization_array(pes)
        for index, num_pes in enumerate(pes):
            sizes = [k for k in MAINSTREAM_KERNEL_SIZES if k * k <= num_pes]
            expected = minimum_utilization(int(num_pes), sizes) if sizes else 0.0
            assert vector[index] == expected


class TestUserVisibleBytes:
    """``run --json`` is byte-identical to the recorded fixture."""

    FIXTURE = json.loads(RUN_FIXTURE.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("command", sorted(FIXTURE))
    def test_run_json_bytes(self, command):
        status, out, _ = run_cli(command.split())
        assert status == 0
        assert out == self.FIXTURE[command]


class TestPareto:
    @staticmethod
    def brute_force_mask(costs: np.ndarray) -> np.ndarray:
        n = costs.shape[0]
        mask = np.ones(n, dtype=bool)
        for i in range(n):
            for j in range(n):
                if (np.all(costs[j] <= costs[i]) and np.any(costs[j] < costs[i])):
                    mask[i] = False
                    break
        return mask

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mask_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 6, size=(60, 3)).astype(float)  # many ties
        assert np.array_equal(pareto_mask(costs), self.brute_force_mask(costs))

    def test_duplicates_of_efficient_points_all_survive(self):
        costs = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        assert pareto_mask(costs).tolist() == [True, True, True, False]

    def test_single_objective_is_argmin(self):
        costs = np.array([[3.0], [1.0], [2.0], [1.0]])
        assert pareto_mask(costs).tolist() == [False, True, False, True]

    def test_non_finite_costs_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            pareto_mask(np.array([[1.0, np.nan]]))

    def test_top_k_stable_and_bounded(self):
        values = np.array([5.0, 7.0, 7.0, 1.0])
        assert top_k_indices(values, 2).tolist() == [1, 2]
        assert top_k_indices(values, 10, maximize=False).tolist() == [3, 0, 1, 2]

    def test_objective_matrix_negates_maximised_columns(self):
        columns = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        matrix = objective_matrix(columns, ("a", "b"), maximize=("b",))
        assert matrix.tolist() == [[1.0, -3.0], [2.0, -4.0]]
        with pytest.raises(ConfigurationError, match="unknown objective"):
            objective_matrix(columns, ("missing",))

    def test_alexnet_grid_has_nonempty_frontier(self):
        result = BatchDesignEvaluator(alexnet()).evaluate_grid(
            DesignGrid.parse("pe=128:1152:64,freq=200:1000:100", base=ChainConfig()))
        frontier = result.pareto(DEFAULT_OBJECTIVES)
        assert 0 < frontier.n_points <= result.n_points
        # the frontier contains the cheapest-area and the fastest points
        assert frontier.total_gates.min() == result.total_gates.min()
        assert frontier.total_time_per_batch_s.min() == \
            result.total_time_per_batch_s.min()

    def test_result_top_k_and_rows(self):
        result = BatchDesignEvaluator(lenet5()).evaluate_grid(
            DesignGrid.from_axes(pe_counts=(144, 288, 576)))
        best = result.top_k("fps", 2)
        assert best.n_points == 2
        assert best.fps[0] >= best.fps[1]
        row = best.row(0)
        assert set(row) >= {"PEs", "Freq (MHz)", "fps", "Power (W)", "GOPS/W",
                            "Achieved GOPS", "Time/batch (ms)"}
        assert row["Time/batch (ms)"] == pytest.approx(
            float(best.total_time_per_batch_s[0]) * 1e3)
        with pytest.raises(ConfigurationError, match="unknown metric"):
            result.top_k("nope", 1)


class TestEngineIntegration:
    def test_analytical_batch_engine_registered(self):
        engine = create_engine("analytical-batch")
        assert engine.supports_batch
        assert engine.name == "analytical-batch"
        assert not create_engine("analytical").supports_batch
        detailed = create_engine("analytical-batch-detailed")
        assert detailed.supports_batch
        assert detailed.name == "analytical-batch-detailed"
        assert detailed.mode == "detailed"

    def test_point_evaluation_matches_analytical(self):
        network = lenet5()
        batch_record = create_engine("analytical-batch").evaluate(network, None, 4)
        scalar_record = create_engine("analytical").evaluate(network, None, 4)
        assert batch_record.engine == "analytical-batch"
        assert batch_record.metrics == scalar_record.metrics

    def test_fallback_evaluate_batch_matches_fast_path(self):
        network = lenet5()
        grid = DesignGrid.from_axes(pe_counts=(144, 576), batches=(2, 8))
        fallback = create_engine("analytical").evaluate_batch(network, grid)
        fast = create_engine("analytical-batch").evaluate_batch(network, grid)
        for field in RESULT_FIELDS:
            assert np.array_equal(getattr(fallback, field), getattr(fast, field))

    def test_run_grid_chunking_invariant(self):
        network = lenet5()
        executor = SweepExecutor(engine="analytical-batch", network=network)
        grid = DesignGrid.parse("pe=128:1152:64,freq=300:900:300", base=ChainConfig())
        whole = executor.run_grid(grid)
        chunked = executor.run_grid(grid, chunk_size=7)
        for field in RESULT_FIELDS:
            assert np.array_equal(getattr(whole, field), getattr(chunked, field))
        assert np.array_equal(whole.grid.num_pes, chunked.grid.num_pes)

    def test_run_grid_chunks_served_from_cache(self, tmp_path):
        network = lenet5()
        grid = DesignGrid.parse("pe=128:1152:32", base=ChainConfig())
        first_executor = SweepExecutor(engine="analytical-batch", network=network,
                                       cache=RunCache(tmp_path))
        first = first_executor.run_grid(grid, chunk_size=10)
        assert first_executor.cache.hits == 0
        assert first_executor.cache.misses == 4  # 33 points in chunks of 10
        second_executor = SweepExecutor(engine="analytical-batch", network=network,
                                        cache=RunCache(tmp_path))
        second = second_executor.run_grid(grid, chunk_size=10)
        assert second_executor.cache.hits == 4
        assert second_executor.cache.misses == 0
        for field in RESULT_FIELDS:
            assert np.array_equal(getattr(first, field), getattr(second, field))

    def test_run_grid_cache_distinguishes_grids(self, tmp_path):
        network = lenet5()
        executor = SweepExecutor(engine="analytical-batch", network=network,
                                 cache=RunCache(tmp_path))
        executor.run_grid(DesignGrid.from_axes(pe_counts=(144,)))
        executor.run_grid(DesignGrid.from_axes(pe_counts=(288,)))
        assert executor.cache.misses == 2 and executor.cache.hits == 0

    def test_explorer_sweep_grid_end_to_end(self):
        explorer = DesignSpaceExplorer(lenet5(), batch=8, engine="analytical-batch")
        result = explorer.sweep_grid("pe=128:576:64,freq=350:700:350")
        assert result.n_points == 8 * 2
        assert (result.grid.batch == 8).all()
        assert (result.fps > 0).all()

    def test_batch_result_json_round_trip(self):
        """All 12 columns come back with their dtypes and bits."""
        evaluated = BatchDesignEvaluator(lenet5()).evaluate_grid(
            DesignGrid.from_axes(pe_counts=(144, 576)))
        fragile = BatchSweepResult(
            grid=fragile_grid(),
            **{field: np.roll(FRAGILE_FLOATS, shift)
               for shift, field in enumerate(RESULT_FIELDS)})
        for result in (evaluated, fragile):
            clone = json_round_trip(result)
            assert len(clone.columns()) == 12
            assert_columns_identical(clone.columns(), result.columns())


def _drop_column(payload):
    del payload["fps"]


def _truncate_base64(payload):
    payload["power_w"] = payload["power_w"][:-5]


def _shorten_column(payload):
    column = np.frombuffer(base64.b64decode(payload["total_gates"]), dtype="<f8")
    payload["total_gates"] = base64.b64encode(column[:-1].tobytes()).decode("ascii")


def run_cli_counting(argv):
    """:func:`run_cli` plus this run's process-wide cache (hits, misses)."""
    before = REGISTRY.flat()
    status, out, err = run_cli(argv)
    after = REGISTRY.flat()
    counts = tuple(after.get(name, 0) - before.get(name, 0)
                   for name in ("cache.hits", "cache.misses"))
    return status, out, counts


class TestCorruptChunkRecord:
    """A cached record whose payload does not decode is a miss: the command
    re-evaluates it, prints what an uncached run prints, counts no hit and
    overwrites the record."""

    ARGV = ["sweep", "--grid", "pe=128:576:64", "--network", "lenet5", "--json"]
    MAP_ARGV = ["map", "--network", "lenet5", "--objective", "latency", "--json"]
    POINTS_ARGV = ["sweep", "pes", "--network", "lenet5", "--json"]

    @pytest.mark.parametrize("corrupt", [_drop_column, _truncate_base64, _shorten_column],
                             ids=["missing-column", "truncated-base64", "unequal-lengths"])
    def test_undecodable_payload_is_reevaluated(self, tmp_path, corrupt):
        status, uncached, _ = run_cli(self.ARGV + ["--no-cache"])
        assert status == 0
        argv = self.ARGV + ["--cache-dir", str(tmp_path)]
        status, cold, _ = run_cli(argv)
        assert (status, cold) == (0, uncached)
        (path,) = tmp_path.glob("*.json")
        record = json.loads(path.read_text(encoding="utf-8"))
        corrupt(record["extra"]["batch_result"])
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises((KeyError, ValueError, ConfigurationError)):
            BatchSweepResult.from_json_dict(record["extra"]["batch_result"])

        status, out, counts = run_cli_counting(argv)
        assert status == 0
        assert out == uncached
        assert counts == (0, 1)
        rewritten = json.loads(path.read_text(encoding="utf-8"))
        BatchSweepResult.from_json_dict(rewritten["extra"]["batch_result"])
        assert run_cli_counting(argv)[1:] == (uncached, (1, 0))

    def test_undecodable_schedule_is_searched_again(self, tmp_path):
        argv = self.MAP_ARGV + ["--cache-dir", str(tmp_path)]
        status, cold, _ = run_cli(argv)
        assert status == 0
        (path,) = tmp_path.glob("*.json")
        record = json.loads(path.read_text(encoding="utf-8"))
        del record["extra"]["schedule"]["baseline"]
        path.write_text(json.dumps(record), encoding="utf-8")

        status, out, counts = run_cli_counting(argv)
        assert (status, out, counts) == (0, cold, (0, 1))
        assert run_cli_counting(argv) == (0, cold, (1, 0))

    def test_point_record_without_metrics_is_reevaluated(self, tmp_path):
        """A point record is a miss without its metrics, not a row of zeros."""
        status, uncached, _ = run_cli(self.POINTS_ARGV + ["--no-cache"])
        assert status == 0
        argv = self.POINTS_ARGV + ["--cache-dir", str(tmp_path)]
        assert run_cli(argv)[:2] == (0, uncached)
        paths = sorted(tmp_path.glob("*.json"))
        assert len(paths) == 7
        record = json.loads(paths[0].read_text(encoding="utf-8"))
        del record["metrics"]
        paths[0].write_text(json.dumps(record), encoding="utf-8")

        assert run_cli_counting(argv) == (0, uncached, (6, 1))
        assert "metrics" in json.loads(paths[0].read_text(encoding="utf-8"))
        assert run_cli_counting(argv) == (0, uncached, (7, 0))

    @pytest.mark.parametrize("metric", ["fps", "peak_gops", "total_time_per_batch_s"])
    def test_point_record_without_a_shared_metric_is_reevaluated(self, tmp_path,
                                                                 metric):
        """Every engine reports these three, so a record without one is a miss."""
        status, uncached, _ = run_cli(self.POINTS_ARGV + ["--no-cache"])
        assert status == 0
        argv = self.POINTS_ARGV + ["--cache-dir", str(tmp_path)]
        assert run_cli(argv)[:2] == (0, uncached)
        path = sorted(tmp_path.glob("*.json"))[0]
        record = json.loads(path.read_text(encoding="utf-8"))
        del record["metrics"][metric]
        path.write_text(json.dumps(record), encoding="utf-8")

        assert run_cli_counting(argv) == (0, uncached, (6, 1))
        assert metric in json.loads(path.read_text(encoding="utf-8"))["metrics"]
        assert run_cli_counting(argv) == (0, uncached, (7, 0))
