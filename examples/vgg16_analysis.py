#!/usr/bin/env python3
"""VGG-16 on Chain-NN — the workload the paper prepared but did not report.

Run with::

    python examples/vgg16_analysis.py

Sec. V.A generates test data for VGG-16 alongside AlexNet; the evaluation
section, however, only reports AlexNet.  This example completes that study:
it runs VGG-16 through the same performance, traffic and power models, and
contrasts it with AlexNet.  VGG-16 is the chain's best case — every layer is
a 3x3 stride-1 convolution, so all 576 PEs stay active and the sustained
throughput approaches 90 % of peak — while the 30x higher MAC count per
image drops the frame rate to tens of fps.
"""

from __future__ import annotations

from repro import ChainNN, alexnet, vgg16
from repro.analysis.report import render_bar_chart, render_dict_table, render_table


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

    # kernels load once per batch: VGG-16's 14.7M weights cost a third of a
    # single image's time and only a few percent of a batch of 16
    sensitivity = {}
    for batch in (1, 4, 16, 64):
        point = chip.evaluate(network, batch)
        sensitivity[f"batch {batch}"] = {
            "fps": point.fps,
            "kernel_load_fraction":
                point.kernel_load_time_per_batch_s / point.total_time_per_batch_s,
        }
    print(render_dict_table(sensitivity,
                            title="Batch-size sensitivity (fps, kernel-load share)",
                            row_label="batch"))


if __name__ == "__main__":
    main()
