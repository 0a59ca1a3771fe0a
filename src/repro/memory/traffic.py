"""Memory-communication model — regenerates Table IV of the paper.

For one convolutional layer executed with the Fig. 7 dataflow the model
counts the words crossing each boundary of the hierarchy:

``oMemory``
    Partial sums are accumulated across the ``C`` ifmap channels in oMemory:
    every output pixel is read and written once per ifmap channel, i.e.
    ``2 * E * E_w * M * C_per_group`` accesses per image.  (This formula
    reproduces the paper's oMemory row exactly for all five AlexNet layers.)

``kMemory``
    A stationary weight is re-read from the per-PE register file once per
    stripe pattern (activity factor ``1/(K*E)``, Sec. V.C); for strided
    layers the pattern restarts every output row, so the weight is re-read
    once per output row.  Reads per image: ``K^2 * pairs * stripes`` (stride
    1) or ``K^2 * pairs * E`` (stride > 1).

``iMemory``
    The chain streams each stripe of the current ifmap channel out of
    iMemory once per ofmap-channel tile (the ``Tm`` primitives share the
    stream): ``outer_tiles * stripes * stripe_rows * W_padded * C_per_group``
    reads per image per group.

``DRAM``
    Kernels are loaded once per batch; ofmaps are written once per image;
    ifmaps are read once per image when a group's ifmaps fit in iMemory and
    once per ofmap-channel tile otherwise.

Absolute megabytes for layers whose tiling constants the paper does not
state (conv1's strided ifmap path, conv2) deviate — see EXPERIMENTS.md — but
the ordering oMemory >> kMemory > iMemory ~ DRAM and the magnitudes of the
stride-1 layers match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.cnn.layer import ConvLayer
from repro.core.config import ChainConfig
from repro.core.dataflow import DataflowPlanner, TileConfig
from repro.core.mapper import LayerMapper
from repro.core.scan import stripe_plan


# --------------------------------------------------------------------- #
# tile-dependent closed forms (shared with the columnar evaluator of
# :mod:`repro.analysis.batch`, which passes whole arrays of design points
# for ``tm`` and ``batch`` — keep them free of scalar-only operations)
# --------------------------------------------------------------------- #
def imemory_words_for(layer: ConvLayer, th: int, stripe_rows: int, tm):
    """iMemory reads per image (chain-side streaming) for a ``Tm x Th`` tile."""
    stripes = math.ceil(layer.out_height / th)
    outer_tiles_per_group = -(-layer.out_channels_per_group // tm)
    words_per_group = (
        outer_tiles_per_group
        * stripes
        * stripe_rows
        * layer.padded_width
        * layer.in_channels_per_group
    )
    return words_per_group * layer.groups


def dram_words_for(layer: ConvLayer, imemory_bytes: int, word_bytes: int,
                   stripe_rows: int, tm, batch):
    """DRAM words for the whole batch.

    Ifmaps are fetched once per image when either (a) a group's whole
    ifmaps fit in iMemory, or (b) the stripe region of *all* the group's
    channels fits in iMemory (then every ofmap channel of the group is
    produced from the buffered stripe before it is evicted — the AlexNet
    conv1 case).  Otherwise every ofmap-channel tile re-fetches them.
    """
    weights = layer.weight_count  # once per batch
    ofmaps = layer.output_pixels * batch
    ifmap_group_bytes = (
        layer.in_channels_per_group * layer.in_height * layer.in_width * word_bytes
    )
    stripe_region_bytes = (
        layer.in_channels_per_group * stripe_rows * layer.padded_width * word_bytes
    )
    if ifmap_group_bytes <= imemory_bytes or stripe_region_bytes <= imemory_bytes:
        refetch = 1
    else:
        refetch = -(-layer.out_channels_per_group // tm)
    ifmaps = layer.input_pixels * refetch * batch
    return weights + ofmaps + ifmaps


@dataclass(frozen=True)
class LayerTraffic:
    """Word/byte counts for one layer over a whole batch."""

    layer_name: str
    batch: int
    dram_bytes: int
    imemory_bytes: int
    kmemory_bytes: int
    omemory_bytes: int

    @property
    def onchip_bytes(self) -> int:
        """Total on-chip SRAM/register-file traffic."""
        return self.imemory_bytes + self.kmemory_bytes + self.omemory_bytes

    @property
    def total_bytes(self) -> int:
        """All traffic including DRAM."""
        return self.onchip_bytes + self.dram_bytes

    def as_megabytes(self) -> Dict[str, float]:
        """Row of Table IV in decimal megabytes."""
        return {
            "DRAM": self.dram_bytes / 1e6,
            "iMemory": self.imemory_bytes / 1e6,
            "kMemory": self.kmemory_bytes / 1e6,
            "oMemory": self.omemory_bytes / 1e6,
        }


class TrafficModel:
    """Computes :class:`LayerTraffic` for one layer on a chain configuration.

    Network-level traffic (the whole Table IV) is one design point of the
    columnar evaluator: :meth:`repro.analysis.batch.BatchDesignEvaluator.breakdown`.
    """

    def __init__(self, config: ChainConfig | None = None) -> None:
        self.config = config or ChainConfig()
        self.mapper = LayerMapper(self.config)
        self.planner = DataflowPlanner(self.config)

    # ------------------------------------------------------------------ #
    # per-store word counts (per image unless stated otherwise)
    # ------------------------------------------------------------------ #
    @staticmethod
    def omemory_words(layer: ConvLayer) -> int:
        """oMemory accesses per image: one read + one write per (pixel, ifmap channel)."""
        return 2 * layer.out_height * layer.out_width * layer.out_channels \
            * layer.in_channels_per_group

    @staticmethod
    def kmemory_words(layer: ConvLayer) -> int:
        """kMemory reads per image."""
        k = layer.kernel_size
        pairs = layer.channel_pairs()
        if layer.stride == 1:
            repeats = len(stripe_plan(layer.out_height, k))
        else:
            repeats = layer.out_height
        return k * k * pairs * repeats

    def imemory_words(self, layer: ConvLayer, tile: TileConfig) -> int:
        """iMemory reads per image (chain-side streaming)."""
        return imemory_words_for(layer, tile.th, tile.stripe_rows, tile.tm)

    def dram_words(self, layer: ConvLayer, tile: TileConfig, batch: int) -> int:
        """DRAM words for the whole batch (see :func:`dram_words_for`)."""
        return dram_words_for(layer, self.config.imemory_bytes, self.config.word_bytes,
                              tile.stripe_rows, tile.tm, batch)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def layer_traffic(self, layer: ConvLayer, batch: int = 4) -> LayerTraffic:
        """Traffic of one layer for a batch (Table IV uses batch = 4)."""
        word = self.config.word_bytes
        mapping = self.mapper.map_layer(layer)
        tile = self.planner.plan(layer, mapping.active_primitives)
        return LayerTraffic(
            layer_name=layer.name,
            batch=batch,
            dram_bytes=self.dram_words(layer, tile, batch) * word,
            imemory_bytes=self.imemory_words(layer, tile) * batch * word,
            kmemory_bytes=self.kmemory_words(layer) * batch * word,
            omemory_bytes=self.omemory_words(layer) * batch * word,
        )

    def reuse_summary(self, layer: ConvLayer) -> Dict[str, float]:
        """Average reuse of each operand inside the chain (for reports)."""
        mapping = self.mapper.map_layer(layer)
        tile = self.planner.plan(layer, mapping.active_primitives)
        macs = layer.macs
        return {
            "ifmap_macs_per_imemory_read": macs / max(1, self.imemory_words(layer, tile)),
            "weight_macs_per_kmemory_read": macs / max(1, self.kmemory_words(layer)),
            "macs_per_omemory_access": macs / max(1, self.omemory_words(layer)),
        }
