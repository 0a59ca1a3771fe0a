#!/usr/bin/env python3
"""Fixed-point word-length study (the float-to-fixed simulator of Sec. V.A).

Run with::

    python examples/fixed_point_accuracy.py

The paper converts pre-trained networks to 16-bit fixed point before running
them on Chain-NN.  This example reproduces that flow on synthetic tensors
with realistic statistics: for each AlexNet layer geometry it quantises
weights and activations at several word lengths, re-runs the convolution and
reports the signal-to-quantisation-noise ratio — showing why 16 bits is
comfortably sufficient for inference while 8 bits begins to erode accuracy.

The tensors are real-valued draws with the workload generator's statistics
(He-scaled Gaussian weights, sparse half-normal activations).  The generator
itself draws on the 16-bit grid, where the 16-bit error would be exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

from repro import alexnet
from repro.analysis.report import render_table
from repro.cnn.quantize import bit_width_sweep

BIT_WIDTHS = (8, 10, 12, 16, 20)


def float_pair(rng: np.random.Generator, layer, sparsity: float):
    """Real-valued ``(ifmaps, weights)`` for ``layer``."""
    k = layer.kernel_size
    fan_in = layer.in_channels_per_group * k * k
    weights = rng.normal(0.0, math.sqrt(2.0 / fan_in),
                         size=(layer.out_channels, layer.in_channels_per_group, k, k))
    ifmaps = np.abs(rng.normal(size=layer.in_shape))
    ifmaps[rng.random(layer.in_shape) < sparsity] = 0.0
    return ifmaps, weights


def main() -> None:
    network = alexnet()
    rng = np.random.default_rng(7)

    rows = []
    names = []
    for layer in network.conv_layers:
        # shrink the spatial size so the study runs in seconds; quantisation
        # error statistics depend on value distributions, not on H/W
        study_layer = layer.scaled(
            in_height=min(layer.in_height, 33),
            in_width=min(layer.in_width, 33),
        )
        ifmaps, weights = float_pair(rng, study_layer, sparsity=0.4)
        sweep = bit_width_sweep(study_layer, ifmaps, weights, bit_widths=BIT_WIDTHS)
        names.append(layer.name)
        rows.append({f"{bits}-bit SQNR (dB)": sweep[bits].sqnr_db for bits in BIT_WIDTHS})

    print(render_table(rows, title="Signal-to-quantisation-noise ratio per word length",
                       row_names=names, row_label="layer"))
    print()
    sixteen = [row["16-bit SQNR (dB)"] for row in rows]
    eight = [row["8-bit SQNR (dB)"] for row in rows]
    # an infinite SQNR would mean the inputs already sat on the 16-bit grid
    assert all(math.isfinite(value) for value in sixteen), sixteen
    print(f"16-bit fixed point keeps SQNR above {min(sixteen):.0f} dB on every layer "
          f"(paper's choice);")
    print(f"8-bit drops to {min(eight):.0f} dB, which is where accuracy starts to suffer.")


if __name__ == "__main__":
    main()
