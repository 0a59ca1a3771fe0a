#!/usr/bin/env python3
"""Quickstart: evaluate AlexNet on the paper's 576-PE Chain-NN instantiation.

Run with::

    python examples/quickstart.py

It builds the accelerator facade, runs AlexNet's five convolutional layers at
two batch sizes, and prints the headline numbers the paper reports in
Sec. V.B and Fig. 9/10.
"""

from __future__ import annotations

from repro import ChainNN, alexnet
from repro.analysis.report import render_bar_chart, render_dict_table


def main() -> None:
    network = alexnet()
    chip = ChainNN.paper_configuration(calibrate_power_to=network)

    print(chip.describe())
    print(network.summary())
    print()

    for batch in (4, 128):
        result = chip.evaluate(network, batch=batch)
        print(f"--- batch {batch} ---")
        print(f"  frame rate            : {result.fps:7.1f} fps")
        print(f"  conv time per batch   : {result.conv_time_per_batch_s * 1e3:7.1f} ms")
        print(f"  kernel-load per batch : {result.kernel_load_time_per_batch_s * 1e3:7.2f} ms")
        print(f"  sustained throughput  : {result.achieved_gops:7.1f} GOPS "
              f"(peak {chip.peak_gops:.1f})")
        print(f"  chip power            : {result.power_w * 1e3:7.1f} mW")
        print(f"  energy efficiency     : {chip.peak_gops / result.power_w:7.1f} GOPS/W")
        print()

    print(render_bar_chart(result.layer_times_ms(),
                           title="Per-layer convolution time (ms, batch 128) — Fig. 9",
                           unit=" ms"))
    print()
    print(render_dict_table(result.traffic_mb(),
                            title="Memory traffic (MB, batch 128) — Table IV dataflow",
                            row_label="layer"))


if __name__ == "__main__":
    main()
