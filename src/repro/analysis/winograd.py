"""Analytical cost model for the Winograd F(2x2,3x3) execution mode.

Chain-NN executes convolutions as a direct sliding-window dataflow; this
module models the *transform-domain* alternative.  Winograd F(2x2,3x3)
computes each 2x2 output tile from a 4x4 input tile with 16 multiplies
instead of the direct 36 — a 2.25x algebraic MAC reduction — at the cost of
input/output transforms (additions only), 4x4 transformed filter planes in
kernel memory (a 16/9 footprint expansion), and wider accumulators in the
transform domain.

The closed forms here mirror the direct model in
:mod:`repro.kernels.numpy_backend` term by term so the two algorithms
produce the *same metric vector* (``MAPPING_RESULT_COLUMNS``) and are
directly comparable per layer:

* A K^2 = 9-PE chain primitive is repurposed as a bank of transform-domain
  multipliers: the 16 Hadamard multiplies of one tile take
  ``ceil(16/9) = 2`` cycles, plus one overlapped transform slot per tile
  (the 32-add input transform and 24-add output transform run on the dual
  adder chain), so a tile of four outputs costs 3 cycles where the direct
  dataflow spends 4 — ``WINOGRAD_CYCLES_PER_TILE``.
* One Winograd *stripe* is one tile row: 4 input rows stream in, 2 output
  rows emerge, so ``stripes = ceil(out_height / 2)`` regardless of the
  direct stripe-height axis (Winograd candidates pin ``stripe_height`` to
  the kernel size; the tile grid fixes the stripe plan).
* Kernel memory holds 4x4 transformed planes: 16 words per channel pair
  instead of 9, shrinking the streaming-chunk capacity by the same ratio
  (:func:`winograd_kmemory_capacity`) and growing load/DRAM traffic.
* Transform-domain partial sums carry ``log2(16/9)`` extra bits of growth
  on top of the direct accumulator; the PE energy term is scaled by
  ``WINOGRAD_PE_ENERGY_FACTOR`` to account for the wider datapath.
"""

from __future__ import annotations

from repro.cnn.layer import ConvLayer

#: input/output tile edge of F(2x2,3x3)
WINOGRAD_TILE = 4
#: output tile edge — each tile yields a 2x2 block of ofmap pixels
WINOGRAD_TILE_OUT = 2
#: the only kernel size F(2x2,3x3) applies to
WINOGRAD_KERNEL = 3

#: element-wise multiplies per tile in the transform domain
WINOGRAD_MULTIPLIES_PER_TILE = WINOGRAD_TILE * WINOGRAD_TILE  # 16
#: direct MACs replaced by one tile (4 outputs x 9 MACs each)
DIRECT_MACS_PER_TILE = WINOGRAD_TILE_OUT * WINOGRAD_TILE_OUT * WINOGRAD_KERNEL**2  # 36
#: the algebraic multiply reduction of F(2x2,3x3)
WINOGRAD_MAC_REDUCTION = DIRECT_MACS_PER_TILE / WINOGRAD_MULTIPLIES_PER_TILE  # 2.25

#: additions in one B^T d B input transform (standard F(2,3) count)
WINOGRAD_INPUT_TRANSFORM_ADDS = 32
#: additions in one A^T m A output transform
WINOGRAD_OUTPUT_TRANSFORM_ADDS = 24

#: multiply slots per tile on a 9-PE primitive: ceil(16 / 9)
WINOGRAD_MULTIPLY_CYCLES_PER_TILE = 2
#: overlapped transform slot per tile (input + output transforms on the
#: adder chain) — the modeled transform overhead, broken out per tile
WINOGRAD_TRANSFORM_CYCLES_PER_TILE = 1
#: total modeled cycles per 2x2 output tile
WINOGRAD_CYCLES_PER_TILE = (
    WINOGRAD_MULTIPLY_CYCLES_PER_TILE + WINOGRAD_TRANSFORM_CYCLES_PER_TILE
)

#: kernel-memory footprint ratio of a 4x4 transformed plane vs a 3x3 plane
WINOGRAD_FILTER_EXPANSION = WINOGRAD_MULTIPLIES_PER_TILE / WINOGRAD_KERNEL**2  # 16/9

#: PE-energy multiplier for the wider transform-domain accumulators
WINOGRAD_PE_ENERGY_FACTOR = 1.25

#: relative tolerance of the Winograd functional path vs the im2col golden
#: on raw floats, where the transforms reassociate the 3x3 reduction (on the
#: simulator's fixed-point operands the error is exactly 0)
WINOGRAD_RELATIVE_TOLERANCE = 1e-6


def winograd_eligible(layer) -> bool:
    """True when ``layer`` can run as Winograd F(2x2,3x3).

    Requires a conv layer with a 3x3 kernel and unit stride (unit dilation
    is implicit — :class:`~repro.cnn.layer.ConvLayer` models no dilation).
    Grouped convolutions are fine: the transform is applied per group.
    """
    return (
        isinstance(layer, ConvLayer)
        and layer.kernel_size == WINOGRAD_KERNEL
        and layer.stride == 1
    )


def winograd_tile_grid(layer: ConvLayer) -> tuple:
    """``(tiles_h, tiles_w)`` — the 2x2-output tile grid covering the ofmap."""
    tiles_h = -(-layer.out_height // WINOGRAD_TILE_OUT)
    tiles_w = -(-layer.out_width // WINOGRAD_TILE_OUT)
    return tiles_h, tiles_w


def winograd_tiles(layer: ConvLayer) -> int:
    """Total 4x4 input tiles per (ofmap channel, ifmap channel) pair."""
    tiles_h, tiles_w = winograd_tile_grid(layer)
    return tiles_h * tiles_w


def winograd_weight_count(layer: ConvLayer) -> int:
    """Words of transformed 4x4 filter planes (vs ``layer.weight_count``)."""
    return WINOGRAD_MULTIPLIES_PER_TILE * layer.channel_pairs()


def winograd_ext_width(layer: ConvLayer) -> int:
    """Width of the tile-aligned extended input plane streamed per stripe."""
    _, tiles_w = winograd_tile_grid(layer)
    return WINOGRAD_TILE_OUT * tiles_w + 2


def winograd_kmemory_capacity(capacity: int) -> int:
    """Streaming-chunk capacity (in passes) once planes are 16/9 wider."""
    return max(1, (capacity * WINOGRAD_KERNEL**2) // WINOGRAD_MULTIPLIES_PER_TILE)


def winograd_cost_fields(layer: ConvLayer) -> dict:
    """The extra :class:`~repro.kernels.MappingCostParams` fields.

    Returns the Winograd-specific closed-form inputs consumed by
    ``score_mappings_winograd``; raises nothing — callers gate on
    :func:`winograd_eligible` first.
    """
    tiles_h, tiles_w = winograd_tile_grid(layer)
    return {
        "wino_tiles_h": tiles_h,
        "wino_tiles_w": tiles_w,
        "wino_weight_count": winograd_weight_count(layer),
        "wino_ext_width": winograd_ext_width(layer),
        "wino_pe_energy_factor": WINOGRAD_PE_ENERGY_FACTOR,
    }


def winograd_layer_summary(layer: ConvLayer) -> dict:
    """Per-layer transform-domain accounting for benchmarks and reports.

    ``mac_reduction`` is the modeled multiply reduction (direct MACs over
    transform-domain multiplies, including ragged edge tiles); the cycle
    numbers break the modeled tile cost into multiply slots and transform
    overhead so BENCH_winograd.json can report both.
    """
    tiles_h, tiles_w = winograd_tile_grid(layer)
    tiles = tiles_h * tiles_w
    pairs = layer.channel_pairs()
    direct_macs = layer.out_height * layer.out_width * WINOGRAD_KERNEL**2 * pairs
    multiplies = tiles * WINOGRAD_MULTIPLIES_PER_TILE * pairs
    multiply_cycles = tiles * WINOGRAD_MULTIPLY_CYCLES_PER_TILE * pairs
    transform_cycles = tiles * WINOGRAD_TRANSFORM_CYCLES_PER_TILE * pairs
    return {
        "layer": layer.name,
        "eligible": winograd_eligible(layer),
        "tiles_per_pair": tiles,
        "direct_macs": direct_macs,
        "winograd_multiplies": multiplies,
        "mac_reduction": direct_macs / multiplies if multiplies else 0.0,
        "multiply_cycles": multiply_cycles,
        "transform_overhead_cycles": transform_cycles,
        "transform_overhead_fraction": (
            transform_cycles / (multiply_cycles + transform_cycles)
            if multiply_cycles else 0.0
        ),
        "weight_words_direct": layer.weight_count,
        "weight_words_winograd": winograd_weight_count(layer),
    }


def network_winograd_coverage(network) -> dict:
    """Fraction of a network's conv MACs that Winograd-eligible layers hold."""
    eligible_macs = 0
    total_macs = 0
    eligible_layers = []
    for layer in network.conv_layers:
        total_macs += layer.macs
        if winograd_eligible(layer):
            eligible_macs += layer.macs
            eligible_layers.append(layer.name)
    return {
        "eligible_layers": eligible_layers,
        "eligible_macs": eligible_macs,
        "total_conv_macs": total_macs,
        "mac_coverage": eligible_macs / total_macs if total_macs else 0.0,
    }
