#!/usr/bin/env python3
"""VGG-16 on Chain-NN — the workload the paper prepared but did not report.

Run with::

    python examples/vgg16_analysis.py

Sec. V.A generates test data for VGG-16 alongside AlexNet; the evaluation
section, however, only reports AlexNet.  This example completes that study:
it runs VGG-16 through the same performance, traffic, power, scheduling and
bandwidth models, and contrasts it with AlexNet.  VGG-16 is the chain's best
case — every layer is a 3x3 stride-1 convolution, so all 576 PEs stay active
and the sustained throughput approaches 90 % of peak — while the 30x higher
MAC count per image drops the frame rate to tens of fps.
"""

from __future__ import annotations

from repro import ChainNN, alexnet, vgg16
from repro.analysis.report import render_bar_chart, render_dict_table, render_table
from repro.core.kernel_loader import KernelLoader
from repro.core.scheduler import BatchScheduler
from repro.memory.bandwidth import BandwidthAnalyzer


def main() -> None:
    network = vgg16()
    chip = ChainNN.paper_configuration(calibrate_power_to=alexnet())

    result = chip.evaluate(network, batch=16)
    reference = chip.evaluate(alexnet(), batch=16)

    print(chip.describe())
    print(network.summary())
    print()
    print(render_table(
        [reference.summary(), result.summary()],
        title="AlexNet vs VGG-16 on the same chain (batch 16)",
        row_names=["AlexNet", "VGG-16"],
        row_label="network",
    ))
    print()

    print(render_bar_chart(result.layer_times_ms(),
                           title="VGG-16 per-layer convolution time (ms, batch 16)",
                           unit=" ms"))
    print()

    # scheduling view: kernel loading is negligible for VGG despite 14.7M weights
    scheduler = BatchScheduler(chip.config, chip.performance_model)
    sensitivity = scheduler.batch_sensitivity(network, batches=(1, 4, 16, 64))
    print(render_dict_table(
        {f"batch {batch}": row for batch, row in sensitivity.items()},
        title="Batch-size sensitivity (fps, kernel-load share, first-image latency)",
        row_label="batch",
    ))
    print()

    # kMemory pressure: VGG needs up to 4096 weights per PE, 16x the capacity
    loader = KernelLoader(chip.config)
    refills = loader.validate_against_capacity(network)
    print(render_bar_chart({name: count for name, count in refills.items()},
                           title="kMemory refills per layer (capacity = 256 weights/PE)",
                           unit=" refills"))
    print()

    # bandwidth: even the 512-channel layers stay far from DRAM-bound
    bandwidth = BandwidthAnalyzer(chip.config)
    table = bandwidth.summary_table(network, batch=16)
    worst = max(table.values(), key=lambda row: row["DRAM util. (%)"])
    print(f"worst-case DRAM utilisation across VGG-16 layers: {worst['DRAM util. (%)']:.1f} % "
          f"of a single LPDDR3-1600 channel")


if __name__ == "__main__":
    main()
