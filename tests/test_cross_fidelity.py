"""Cross-fidelity differential test: oracle walk vs functional vs cycle.

Four paths simulate the same random layers on 16-bit fixed-point operands:

* the scalar oracle walk (:func:`repro.sim.functional.scalar_window_walk`);
* the functional simulator
  (:class:`~repro.sim.functional.FunctionalChainSimulator`);
* the cycle simulator (:class:`~repro.sim.cycle.CycleAccurateChainSimulator`)
  and its register-accurate oracle
  (:func:`repro.sim.cycle.oracle.register_level_layer`).

Their ofmaps must be equal bit for bit, and their counters must be equal or
differ by a named closed-form term: the cycle simulator's primitive cycles
add a pipeline drain of ``2K^2 + 2`` cycles per stripe to the functional
scan cycles.  At engine level that drain and the kernel-load cycles are the
whole gap between the ``cycle`` and ``functional`` per-batch times.  CI
treats skips in this module as failures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import quantize_layer_tensors
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig
from repro.core.mapper import LayerMapper
from repro.engine import create_engine
from repro.sim.cycle import CycleAccurateChainSimulator
from repro.sim.cycle.oracle import register_level_layer
from repro.sim.functional import FunctionalChainSimulator, scalar_window_walk

#: random layers per run; each is small enough for the register-accurate oracle
RANDOM_LAYERS = 25


def _random_layer(seed: int) -> ConvLayer:
    """K 1-7, stride 1-3, padding 0-2, groups 1-2, non-square ifmaps."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    padding = int(rng.integers(0, 3))
    groups = int(rng.integers(1, 3))
    smallest = max(1, k - 2 * padding)
    height = smallest + int(rng.integers(0, 6))
    width = smallest + int(rng.integers(0, 6))
    if width == height:
        width += 1
    return ConvLayer(
        f"rand{seed}",
        in_channels=groups * int(rng.integers(1, 3)),
        out_channels=groups * int(rng.integers(1, 3)),
        in_height=height, in_width=width, kernel_size=k,
        stride=int(rng.integers(1, 4)), padding=padding, groups=groups,
    )


def _real_tensors(layer: ConvLayer, seed: int):
    """Off-grid float (ifmaps, weights): generated tensors are on the grid."""
    rng = np.random.default_rng([seed, 1])
    k = layer.kernel_size
    weights = rng.normal(0.0, 0.5, size=(layer.out_channels,
                                         layer.in_channels_per_group, k, k))
    return np.abs(rng.normal(size=layer.in_shape)), weights


def _drain_cycles(layer: ConvLayer) -> int:
    """Pipeline-drain primitive cycles of the whole layer: 2K^2+2 per stripe.

    Counted here from the stripe plan, not read from
    :func:`repro.sim.cycle.pair_geometry`, so a wrong drain there shows.
    """
    k = layer.kernel_size
    stripes_per_pair = len(range(0, layer.padded_height - k + 1, k))
    return stripes_per_pair * layer.channel_pairs() * (2 * k * k + 2)


@pytest.mark.parametrize("seed", range(RANDOM_LAYERS))
def test_random_layer_paths_agree(seed):
    layer = _random_layer(seed)
    ifmaps, weights = _real_tensors(layer, seed)
    # the cycle simulator and its oracle quantise these raw floats on entry
    # with the same per-tensor formats, so all four paths compute on identical
    # fixed-point operands and the comparison checks that entry quantisation
    fixed_ifmaps, fixed_weights, _, _ = quantize_layer_tensors(ifmaps, weights)
    assert not np.array_equal(fixed_weights, weights)

    walk_ofmaps, walk_stats = scalar_window_walk(layer, fixed_ifmaps, fixed_weights)
    functional = FunctionalChainSimulator().run_layer(layer, fixed_ifmaps,
                                                      fixed_weights)
    fast = CycleAccurateChainSimulator().run_layer(layer, ifmaps, weights)
    register_ofmaps, register_stats = register_level_layer(layer, ifmaps, weights)

    for ofmaps in (functional.ofmaps, fast.ofmaps, register_ofmaps):
        assert np.array_equal(walk_ofmaps, ofmaps)
    assert walk_stats == functional.stats
    assert fast.stats == register_stats

    scan, cycle = functional.stats, fast.stats
    assert cycle.outputs_collected == scan.windows_kept
    assert (cycle.outputs_collected + cycle.outputs_discarded_by_stride
            == scan.windows_evaluated)
    assert cycle.stripes_processed == scan.stripes_processed
    assert cycle.pairs_processed == scan.pairs_processed
    k = layer.kernel_size
    assert cycle.primitive_cycles == (scan.primitive_cycles
                                      + scan.stripes_processed * (2 * k * k + 2))


def test_alexnet_cycle_minus_functional_is_drain_plus_kernel_load():
    network, config, batch = alexnet(), ChainConfig(), 4
    cycle = create_engine("cycle").evaluate(network, config, batch)
    functional = create_engine("functional").evaluate(network, config, batch)

    mapper = LayerMapper(config)
    drain_chain_cycles = 0.0
    for layer in network.conv_layers:
        drain = _drain_cycles(layer) / mapper.map_layer(layer).active_primitives
        gap = (cycle.extra["layers"][layer.name]["chain_cycles"]
               - functional.extra["layers"][layer.name]["chain_cycles"])
        assert gap == pytest.approx(drain, rel=1e-12), layer.name
        drain_chain_cycles += drain
    # conv1: 20 stripes x 288 pairs x 244 drain cycles over 4 primitives
    assert _drain_cycles(network.conv_layer("conv1")) / 4 == 351_360

    kernel_load_cycles = sum(layer.weight_count for layer in network.conv_layers)
    expected = (drain_chain_cycles * batch + kernel_load_cycles) / config.frequency_hz
    gap_s = (cycle.metric("total_time_per_batch_s")
             - functional.metric("total_time_per_batch_s"))
    assert gap_s == pytest.approx(expected, rel=1e-12)
