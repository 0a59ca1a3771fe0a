"""The Fig. 7 dataflow: loop nest, tiling and reuse factors.

The paper adopts the memory-efficient dataflow of CNN-MERP [7] adapted to the
column-wise scan: the outer loops tile the ofmap channels (``Tm``) and the
ifmap rows (``Th``); the ``ParaTile`` level is the unroll over the active
primitives; ``iMemory``/``oMemory`` buffer the inner-tile working set so that
DRAM sees each operand as few times as possible.

This module picks the tile sizes from the memory capacities and produces the
iteration counts and reuse factors the traffic model (Table IV) needs.  The
loop structure itself is also exposed as a generator so examples and tests
can inspect the exact iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.core.config import ChainConfig
from repro.errors import CapacityError


@dataclass(frozen=True)
class TileConfig:
    """Tile sizes of the Fig. 7 loop nest for one layer."""

    layer: ConvLayer
    tm: int            # ofmap channels per outer tile (ParaTile width)
    th: int            # ofmap rows per inner tile
    stripe_rows: int   # ifmap rows needed per inner tile (Th output rows)

    @property
    def outer_tiles(self) -> int:
        """Number of ofmap-channel tiles (`OuterTile` iterations)."""
        return math.ceil(self.layer.out_channels / self.tm)

    @property
    def inner_tiles(self) -> int:
        """Number of row tiles per image and ofmap tile (`InnerTile` iterations)."""
        return math.ceil(self.layer.out_height / self.th)

    @property
    def ofmap_tile_bytes(self) -> int:
        """oMemory bytes needed to hold one inner tile of Tm ofmap channels."""
        return self.tm * self.th * self.layer.out_width * 2

    @property
    def ifmap_tile_bytes(self) -> int:
        """iMemory bytes needed to hold the ifmap rows feeding one inner tile."""
        return self.stripe_rows * self.layer.padded_width * 2

    def describe(self) -> str:
        """Human readable tile summary."""
        return (
            f"{self.layer.name}: Tm={self.tm}, Th={self.th} "
            f"({self.outer_tiles} outer x {self.inner_tiles} inner tiles), "
            f"iMem tile {self.ifmap_tile_bytes} B, oMem tile {self.ofmap_tile_bytes} B"
        )


@dataclass(frozen=True)
class LoopIteration:
    """One innermost iteration of the Fig. 7 loop nest."""

    outer_tile: int      # index over ofmap-channel tiles
    image: int           # index inside the batch
    inner_tile: int      # index over row tiles
    ofmap_channel: int   # m
    ifmap_channel: int   # c


def tm_for(layer: ConvLayer, omemory_bytes: int, word_bytes: int, th: int, primitives):
    """``Tm``: as many ofmap channels as both the primitives and oMemory allow.

    ``primitives`` is a count or an integer array of counts (one per design
    point); the result has its shape.
    """
    tm_capacity = max(1, omemory_bytes // max(1, th * layer.out_width * word_bytes))
    return np.maximum(1, np.minimum(layer.out_channels, np.minimum(primitives, tm_capacity)))


class DataflowPlanner:
    """Chooses Fig. 7 tile sizes for a layer under the configured memory sizes."""

    def __init__(self, config: ChainConfig | None = None) -> None:
        self.config = config or ChainConfig()

    def plan(self, layer: ConvLayer, active_primitives: int) -> TileConfig:
        """Pick ``Tm`` and ``Th`` for a layer.

        ``Tm`` is bounded by the number of active primitives (the ParaTile
        unroll: each primitive works on a different ofmap channel of the tile
        so the ifmap stream is shared) and by the oMemory capacity;
        ``Th`` (output rows per inner tile) is bounded by what a stripe needs
        from iMemory.
        """
        word = self.config.word_bytes

        # Th: start from one stripe's worth of output rows (K) and shrink if
        # even a single stripe of ifmaps does not fit iMemory.  The chain
        # always buffers at most a 2K-1-row (stride-1) stripe per channel —
        # strided layers stream at stride-1 cadence and discard off-grid
        # outputs — so the buffered rows are th + K - 1 regardless of stride.
        th = min(layer.kernel_size, layer.out_height)
        while th > 1:
            stripe_rows = th + layer.kernel_size - 1
            if stripe_rows * layer.padded_width * word <= self.config.imemory_bytes:
                break
            th -= 1
        stripe_rows = th + layer.kernel_size - 1
        if stripe_rows * layer.padded_width * word > self.config.imemory_bytes:
            raise CapacityError(
                f"{layer.name}: even a single-row tile needs "
                f"{stripe_rows * layer.padded_width * word} B of iMemory "
                f"(capacity {self.config.imemory_bytes} B)"
            )

        tm = int(tm_for(layer, self.config.omemory_bytes, word, th, active_primitives))
        return TileConfig(layer=layer, tm=tm, th=th, stripe_rows=stripe_rows)

    def iterations(self, tile: TileConfig, batch: int = 1) -> Iterator[LoopIteration]:
        """Generate the Fig. 7 loop nest iteration order (innermost = ifmap channel)."""
        layer = tile.layer
        for outer in range(tile.outer_tiles):
            for image in range(batch):
                for inner in range(tile.inner_tiles):
                    m_lo = outer * tile.tm
                    m_hi = min(layer.out_channels, m_lo + tile.tm)
                    for m in range(m_lo, m_hi):
                        for c in range(layer.in_channels_per_group):
                            yield LoopIteration(
                                outer_tile=outer,
                                image=image,
                                inner_tile=inner,
                                ofmap_channel=m,
                                ifmap_channel=c,
                            )

    def reuse_factors(self, tile: TileConfig) -> Tuple[float, float, float]:
        """Return (ifmap_reuse, weight_reuse, psum_reuse) inside the chain.

        * ifmap reuse: each streamed pixel is used by ``K^2`` MACs on average
          inside a primitive and shared by the ``Tm`` primitives of the tile.
        * weight reuse: a stationary weight serves every output pixel of the
          stripe pattern (``K * E`` uses between kMemory reads).
        * psum reuse: partial sums stay inside the primitive for ``K^2``
          accumulations before reaching oMemory.
        """
        layer = tile.layer
        k = layer.kernel_size
        ifmap_reuse = float(k * k * tile.tm) * (k / (2 * k - 1))
        weight_reuse = float(k * layer.out_width)
        psum_reuse = float(k * k)
        return ifmap_reuse, weight_reuse, psum_reuse
