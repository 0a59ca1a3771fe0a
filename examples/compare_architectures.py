#!/usr/bin/env python3
"""Architecture comparison: Chain-NN vs memory-centric vs 2D spatial designs.

Run with::

    python examples/compare_architectures.py

Reproduces the Sec. III taxonomy argument and Table V quantitatively: the
memory-centric baseline (DaDianNao-like) buys reconfigurability with large,
expensive memory accesses; the 2D spatial baseline (Eyeriss-like) reduces
traffic but pays for the on-chip network and per-PE control; the 1D chain
keeps the reuse while stripping the overheads.  The example also includes the
single-channel chain ablation (Fig. 5): what the dual-channel scan is worth
on AlexNet, layer by layer.
"""

from __future__ import annotations

from repro import ChainConfig, ChainNN, alexnet
from repro.analysis.comparison import StateOfTheArtComparison
from repro.analysis.report import render_bar_chart, render_dict_table


def main() -> None:
    network = alexnet()
    comparison = StateOfTheArtComparison(network=network, batch=4).run()

    print(render_dict_table(comparison.published_rows,
                            title="Table V — published specifications", row_label="design"))
    print()
    print(render_dict_table(comparison.modelled_rows,
                            title="Table V — regenerated from this library's models",
                            row_label="design"))
    print()
    print(render_bar_chart(comparison.efficiency_ratios,
                           title="Chain-NN energy-efficiency advantage (x)", unit="x"))
    print()
    print(render_dict_table({"gates per PE": comparison.area_efficiency},
                            title="Area efficiency (Sec. V.D)", row_label=""))
    print()

    # Fig. 5 ablation: a single-channel PE waits K cycles for each window's
    # new column, so each layer slows by about its kernel size
    dual = ChainNN().evaluate(network, 4)
    single = ChainNN(ChainConfig().single_channel()).evaluate(network, 4)
    dual_ms = dual.layer_times_ms()
    print(render_bar_chart(
        {name: ms / dual_ms[name] for name, ms in single.layer_times_ms().items()},
        title="Single-channel chain: per-layer slowdown on AlexNet, batch 4 (Fig. 5a)",
        unit="x"))
    print(f"whole network: {single.total_time_per_batch_s / dual.total_time_per_batch_s:.2f}x "
          f"slower with single-channel PEs")


if __name__ == "__main__":
    main()
