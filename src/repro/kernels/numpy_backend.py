"""The hot kernels: ofmap block product, Winograd tile conv and scorers.

The inner arithmetic of :mod:`repro.sim.functional_vectorized`,
:mod:`repro.sim.winograd` and
:class:`repro.analysis.batch.MappingBatchEvaluator`, which fetch these
functions through :func:`repro.kernels.get_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: byte budget of what one GEMM block materialises: an im2col patch block
#: (direct) or the row- and column-transformed input tiles (Winograd)
GEMM_BLOCK_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class MappingCostParams:
    """Layer/hardware constants of one mapping-candidate scoring problem.

    Everything :meth:`repro.analysis.batch.MappingBatchEvaluator.evaluate`
    needs besides the candidate columns themselves, flattened to plain
    scalars so :func:`score_mappings` and :func:`score_mappings_winograd`
    depend on nothing but this record and the columns.
    """

    kernel_area: int
    channel_pairs: int
    per_stripe_cycles: int
    out_height: int
    weight_count: int
    batch: int
    ofmap_words: int
    stride: int
    kernel_size: int
    padded_width: int
    in_channels_per_group: int
    frequency_hz: float
    word_bytes: int
    pe_cycle_j: float
    static_fraction: float
    kmemory_access_j: float
    imemory_access_j: float
    omemory_access_j: float
    dram_byte_j: float
    # ---- Winograd F(2x2,3x3) extension (see repro.analysis.winograd) --- #
    # zero/identity defaults mean "layer not eligible"; the batch evaluator
    # fills them via winograd_cost_fields() and only dispatches
    # score_mappings_winograd when they are set
    wino_tiles_h: int = 0
    wino_tiles_w: int = 0
    wino_weight_count: int = 0
    wino_ext_width: int = 0
    wino_pe_energy_factor: float = 1.0


def ofmap_block_product(patches: np.ndarray, kernel_matrix: np.ndarray,
                        out_block: np.ndarray) -> None:
    """One GEMM, ``out_block = kernel_matrix @ patches`` (assigned).

    ``patches`` is one conv group's ``(C/g*K*K, positions)`` float64 im2col
    block, ``kernel_matrix`` the ``(Mb, C/g*K*K)`` kernels of an ofmap
    block, ``out_block`` the ``(Mb, positions)`` ofmap slice.  On operands
    within the accumulator-width guard every sum is exact, in any order.
    """
    np.matmul(kernel_matrix, patches, out=out_block)


def winograd_group_conv(ext: np.ndarray, u: np.ndarray,
                        out_block: np.ndarray) -> None:
    """One group's Winograd F(2x2,3x3) convolution as batched GEMMs.

    ``ext`` is the group's ``(Cg, 2*th+2, 2*tw+2)`` float64 input plane,
    zero-extended to the 4x4 tile grid; ``u`` the ``(Mb, Cg, 4, 4)`` float64
    *transformed* filters (``G g G^T``, see
    :func:`repro.sim.winograd.transform_filters`); ``out_block`` the
    ``(Mb, out_h, out_w)`` float64 ofmap block, **assigned** (not
    accumulated).  The transform-domain products are 16 batched
    ``(Mb, Cg) @ (Cg, tiles)`` GEMMs, one per 4x4 position, over blocks of
    tile rows whose row- and column-transformed inputs fit
    :data:`GEMM_BLOCK_BYTES`.
    """
    cg = ext.shape[0]
    mb, out_h, out_w = out_block.shape
    th = (ext.shape[1] - 2) // 2
    tw = (ext.shape[2] - 2) // 2
    # (16, Mb, Cg): one filter matrix per transform-domain position
    u16 = np.ascontiguousarray(u.transpose(2, 3, 0, 1)).reshape(16, mb, cg)
    rows = max(1, GEMM_BLOCK_BYTES // (2 * 16 * max(cg, mb) * tw * 8))
    for t0 in range(0, th, rows):
        out_rows = out_block[:, 2 * t0:2 * (t0 + rows)]
        tiles = _winograd_tile_rows(ext[:, 2 * t0:2 * (t0 + rows) + 2], u16)
        out_rows[:] = tiles[:, :out_rows.shape[1], :out_w]


def _winograd_tile_rows(ext_rows: np.ndarray, u16: np.ndarray) -> np.ndarray:
    """The ``(Mb, 2*rows, 2*tw)`` output tiles of one block of tile rows.

    A function of its own so that its intermediates are freed before the
    next block allocates.
    """
    mb, cg = u16.shape[1:]
    # 4x4 input tiles at stride 2, tile axes first: (4, 4, Cg, rows, tw)
    d = np.lib.stride_tricks.sliding_window_view(
        ext_rows, (4, 4), axis=(1, 2))[:, ::2, ::2].transpose(3, 4, 0, 1, 2)
    rows, tw = d.shape[3:]
    # input transform B^T d B — B has entries in {0, +-1}, so the transform
    # is pure adds; rows first, then columns
    n = np.empty(d.shape, dtype=np.float64)
    n[0] = d[0] - d[2]
    n[1] = d[1] + d[2]
    n[2] = d[2] - d[1]
    n[3] = d[1] - d[3]
    v = np.empty_like(n)
    v[:, 0] = n[:, 0] - n[:, 2]
    v[:, 1] = n[:, 1] + n[:, 2]
    v[:, 2] = n[:, 2] - n[:, 1]
    v[:, 3] = n[:, 1] - n[:, 3]
    del n
    m = np.matmul(u16, v.reshape(16, cg, -1)).reshape(4, 4, mb, rows, tw)
    del v
    # inverse transform A^T m A — again pure adds
    q = np.empty((2,) + m.shape[1:], dtype=np.float64)
    q[0] = (m[0] + m[1]) + m[2]
    q[1] = (m[1] - m[2]) - m[3]
    y = np.empty((2, 2) + m.shape[2:], dtype=np.float64)
    y[:, 0] = (q[:, 0] + q[:, 1]) + q[:, 2]
    y[:, 1] = (q[:, 1] - q[:, 2]) - q[:, 3]
    # scatter the 2x2 tiles back onto the ofmap grid
    return y.transpose(2, 3, 0, 4, 1).reshape(mb, 2 * rows, 2 * tw)


#: metric columns the scorers produce per candidate, in report order
MAPPING_RESULT_COLUMNS = (
    "passes",
    "active_pes",
    "kmemory_refills",
    "stripes",
    "conv_cycles_per_image",
    "kernel_load_cycles",
    "batch_cycles",
    "first_image_cycles",
    "time_per_batch_s",
    "first_image_latency_s",
    "fps",
    "spill_dram_words",
    "energy_per_batch_j",
    "edp_js",
)

#: Winograd tile cost on a K^2=9-PE primitive — keep in lock-step with the
#: documented model in :mod:`repro.analysis.winograd` (which cannot be
#: imported here without a cycle: analysis.batch imports repro.kernels)
_WINO_MULT_CYCLES_PER_TILE = 2    # ceil(16 transform-domain multiplies / 9 PEs)
_WINO_XFORM_CYCLES_PER_TILE = 1   # overlapped input+output transform slot
_WINO_PLANE_WORDS = 16            # 4x4 transformed filter plane
_WINO_STREAM_ROWS = 4             # input rows one tile row streams


class _CandidateCost:
    """The integral-pass cost model over candidate columns, term by term.

    Every term is a cached property computed on first use, and the result
    columns are the properties named in :data:`MAPPING_RESULT_COLUMNS`, so
    scoring a subset of the columns evaluates only the terms that subset
    depends on.  The cycle/time stage never reads the energy stage: a time
    column alone costs no energy term, and ``first_image_latency_s`` alone
    skips the batch-makespan terms too.

    The two algorithms share every formula; a subclass sets the constants
    in which they differ (stripes and their cycles, kernel words, the
    streamed band and the PE energy factor).
    """

    #: PE energy per busy cycle relative to the direct datapath (x 1.0 is
    #: exact, so the direct chain term is the same bits as without it)
    pe_energy_factor = 1.0

    def __init__(self, params: MappingCostParams, primitives: np.ndarray,
                 chunk: np.ndarray, image_major: np.ndarray) -> None:
        self.params = params
        self.batch = params.batch
        self.primitives = np.asarray(primitives, dtype=np.int64)
        self.chunk = np.asarray(chunk, dtype=np.int64)
        self.image_major = np.asarray(image_major, dtype=bool)

    def columns(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """The named result columns, in the order given."""
        unknown = [name for name in names if name not in MAPPING_RESULT_COLUMNS]
        if unknown:
            raise ConfigurationError(
                f"unknown mapping column(s) {', '.join(unknown)}; available: "
                f"{', '.join(MAPPING_RESULT_COLUMNS)}")
        return {name: getattr(self, name) for name in names}

    # ---- cycles and time ---------------------------------------------- #
    @cached_property
    def passes(self) -> np.ndarray:
        return -(-self.params.channel_pairs // self.primitives)

    @cached_property
    def active_pes(self) -> np.ndarray:
        return self.primitives * self.params.kernel_area

    @cached_property
    def conv_img(self) -> np.ndarray:
        return self.stripes * self.per_stripe_cycles * self.passes

    @cached_property
    def kmemory_refills(self) -> np.ndarray:
        return -(-self.passes // np.minimum(self.chunk, self.passes))

    @cached_property
    def load_cycles(self) -> np.ndarray:
        reloads = self.image_major & (self.kmemory_refills > 1)
        return np.where(reloads, self.weight_count * self.batch,
                        self.weight_count)

    @cached_property
    def makespan_cycles(self) -> np.ndarray:
        return self.conv_img * self.batch + self.load_cycles

    @cached_property
    def first_cycles(self) -> np.ndarray:
        # first-image completion: image-major finishes after one image's
        # convolutions; chunk-major-over-batch finishes (refills-1)/refills
        # of the way into the batch (kernels always fully loaded by then)
        refills = self.kmemory_refills
        batch_major_first = (self.conv_img * ((refills - 1) * self.batch + 1)
                             / refills)
        return self.weight_count + np.where(self.image_major, self.conv_img,
                                            batch_major_first)

    @cached_property
    def spill_words(self) -> np.ndarray:
        spills = (~self.image_major) & (self.kmemory_refills > 1)
        return np.where(spills, 2 * self.params.ofmap_words
                        * (self.kmemory_refills - 1) * self.batch, 0)

    @cached_property
    def conv_cycles_per_image(self) -> np.ndarray:
        return self.conv_img.astype(np.float64)

    @cached_property
    def kernel_load_cycles(self) -> np.ndarray:
        return self.load_cycles.astype(np.float64)

    @cached_property
    def batch_cycles(self) -> np.ndarray:
        return self.makespan_cycles.astype(np.float64)

    @cached_property
    def first_image_cycles(self) -> np.ndarray:
        return np.asarray(self.first_cycles, dtype=np.float64)

    @cached_property
    def time_per_batch_s(self) -> np.ndarray:
        return self.makespan_cycles / self.params.frequency_hz

    @cached_property
    def first_image_latency_s(self) -> np.ndarray:
        return self.first_cycles / self.params.frequency_hz

    @cached_property
    def fps(self) -> np.ndarray:
        return self.batch / self.time_per_batch_s

    @cached_property
    def spill_dram_words(self) -> np.ndarray:
        return self.spill_words.astype(np.float64)

    # ---- energy (joules per batch) ------------------------------------ #
    @cached_property
    def energy_per_batch_j(self) -> np.ndarray:
        params = self.params
        chain_j = (params.pe_cycle_j * self.pe_energy_factor
                   * (1.0 + params.static_fraction)
                   * self.active_pes * self.conv_img * self.batch)
        # kMemory: one kernel word read per multiply slot per stripe
        # revisit, plus the write traffic of the (re)loads
        kmem_words = (self.kernel_words * params.channel_pairs
                      * self.kmem_repeats * self.batch + self.load_cycles)
        kmem_j = params.kmemory_access_j * kmem_words
        # iMemory: every pass streams its stripe bands (overlap rows re-read)
        imem_words = (self.stripes * self.stripe_rows * self.stream_width
                      * params.channel_pairs * self.batch)
        imem_j = params.imemory_access_j * imem_words
        # oMemory: read-modify-write of the partial sum per kept window
        omem_words = (2 * params.ofmap_words * params.in_channels_per_group
                      * self.batch)
        omem_j = params.omemory_access_j * np.full(self.primitives.shape,
                                                   float(omem_words))
        # DRAM: kernel (re)loads plus partial-sum spills
        dram_words = self.load_cycles + self.spill_words
        dram_j = params.dram_byte_j * dram_words * params.word_bytes
        return chain_j + kmem_j + imem_j + omem_j + dram_j

    @cached_property
    def edp_js(self) -> np.ndarray:
        return self.energy_per_batch_j * self.time_per_batch_s


class _DirectCost(_CandidateCost):
    """Direct (sliding-window) candidates: ``stripe_height`` rows a stripe."""

    def __init__(self, params: MappingCostParams, primitives: np.ndarray,
                 stripe_height: np.ndarray, chunk: np.ndarray,
                 image_major: np.ndarray) -> None:
        super().__init__(params, primitives, chunk, image_major)
        self.stripe_height = np.asarray(stripe_height, dtype=np.int64)
        self.per_stripe_cycles = params.per_stripe_cycles
        self.weight_count = params.weight_count
        self.kernel_words = params.kernel_area
        self.stream_width = params.padded_width

    @cached_property
    def stripes(self) -> np.ndarray:
        return -(-self.params.out_height // self.stripe_height)

    @cached_property
    def kmem_repeats(self) -> np.ndarray:
        # a strided layer re-reads its kernels once per ofmap row
        if self.params.stride == 1:
            return self.stripes
        return np.full_like(self.stripes, self.params.out_height)

    @cached_property
    def stripe_rows(self) -> np.ndarray:
        return (self.stripe_height - 1) * self.params.stride + self.params.kernel_size


class _WinogradCost(_CandidateCost):
    """F(2x2,3x3) candidates: one stripe is one tile row of 2 output rows."""

    kernel_words = _WINO_PLANE_WORDS
    stripe_rows = _WINO_STREAM_ROWS

    def __init__(self, params: MappingCostParams, primitives: np.ndarray,
                 chunk: np.ndarray, image_major: np.ndarray) -> None:
        super().__init__(params, primitives, chunk, image_major)
        self.per_stripe_cycles = ((_WINO_MULT_CYCLES_PER_TILE
                                   + _WINO_XFORM_CYCLES_PER_TILE)
                                  * params.wino_tiles_w
                                  + (params.kernel_area - 1))
        self.weight_count = params.wino_weight_count
        self.stream_width = params.wino_ext_width
        # wider transform-domain accumulators scale the PE term
        self.pe_energy_factor = params.wino_pe_energy_factor

    @cached_property
    def stripes(self) -> np.ndarray:
        return np.full_like(self.primitives, self.params.wino_tiles_h)

    @property
    def kmem_repeats(self) -> np.ndarray:
        return self.stripes


def score_mappings_winograd(params: MappingCostParams, primitives: np.ndarray,
                            chunk: np.ndarray, image_major: np.ndarray,
                            columns: Sequence[str] = MAPPING_RESULT_COLUMNS,
                            ) -> Dict[str, np.ndarray]:
    """Score Winograd-algorithm mapping candidates; same metric vector.

    The formulas of :func:`score_mappings` with the transform-domain
    substitutions documented in :mod:`repro.analysis.winograd`: one stripe
    is one 2-output-row tile row (``stripes = wino_tiles_h``, the
    stripe-height axis is pinned), each tile costs 2 multiply cycles plus 1
    transform-overhead cycle, kernel memory holds 16-word transformed
    planes (``wino_weight_count``), 4 input rows stream per stripe, and the
    PE energy term carries the wider-accumulator factor.
    """
    return _WinogradCost(params, primitives, chunk, image_major).columns(columns)


def score_mappings(params: MappingCostParams, primitives: np.ndarray,
                   stripe_height: np.ndarray, chunk: np.ndarray,
                   image_major: np.ndarray,
                   columns: Sequence[str] = MAPPING_RESULT_COLUMNS,
                   ) -> Dict[str, np.ndarray]:
    """Score mapping-candidate columns; the integral-pass cost model.

    Inputs are equally-long 1D arrays (``image_major`` boolean); the cost
    model is documented on :class:`repro.analysis.batch.MappingBatchEvaluator`.
    Returns the requested :data:`MAPPING_RESULT_COLUMNS` (all by default),
    computing only the terms they depend on —
    ``passes``/``active_pes``/``kmemory_refills``/``stripes`` int64,
    everything else float64.  A column scored alone equals the same column
    of the full vector bit for bit: it is the same expression.
    """
    return _DirectCost(params, primitives, stripe_height, chunk,
                       image_major).columns(columns)
