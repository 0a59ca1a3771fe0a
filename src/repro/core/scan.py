"""Column-wise scan input pattern (Sec. IV.C of the paper).

A *stripe* is a band of up to ``2K-1`` consecutive ifmap rows out of which up
to ``K`` adjacent ofmap rows are computed simultaneously.  Pixels of the
stripe are streamed column by column; within a column the pixels receive the
timestamps shown in Fig. 5(b):

    ``ts(row, col) = K * col + row + 1``

so adjacent columns overlap by ``K-1`` timestamps and, in steady state, two
pixels (one from an even-index column, one from an odd-index column) share
every timestamp — which is exactly why the PE has two ifmap channels (OddIF /
EvenIF in the paper's 1-based column naming; this module uses 0-based column
parity).

With kernels stored in column-major order inside the primitive, the pixels
with timestamps ``[t - K^2 + 1, t]`` form the convolution window that ends at
``t``; every cycle ``t >= K^2`` therefore completes one output as long as the
window's starting row is one of the stripe's output rows.  A full stripe
(``2K-1`` rows) keeps every cycle useful — 100 % utilization; a shorter final
stripe produces fewer valid windows per column, which is the honest hardware
behaviour (the analytical model optionally idealises this away the way the
paper's numbers do).

:class:`ColumnScanSchedule` spells this schedule out pixel by pixel for the
two test oracles and Fig. 5.  :func:`pair_geometry` is the same geometry in
closed form for one channel pair: the one source of the per-pair counts of
the ``analytical-detailed`` model and of both simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cnn.layer import ConvLayer
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PixelDelivery:
    """Pixels delivered by the two ifmap channels during one timestamp slot.

    ``even`` / ``odd`` are ``(row_in_stripe, col)`` coordinates (0-based
    column parity) or ``None`` when the respective channel is idle at that
    timestamp (stripe edges).
    """

    timestamp: int
    even: Optional[Tuple[int, int]]
    odd: Optional[Tuple[int, int]]


@dataclass(frozen=True)
class WindowTag:
    """Identity of the convolution window completing at a given timestamp."""

    timestamp: int
    out_row_in_stripe: int
    out_col: int
    valid: bool


class ColumnScanSchedule:
    """Scan schedule for one stripe of one ifmap channel.

    Parameters
    ----------
    kernel_size:
        ``K``.  The timestamp period per column is always ``K`` so that at
        most two pixels ever share a timestamp (the dual-channel invariant).
    width:
        Number of ifmap columns in the (padded) stripe.
    stripe_rows:
        Rows in the stripe: ``2K-1`` for a full stripe (the default); the
        final stripe of a feature map may have as few as ``K`` rows, in which
        case it produces ``stripe_rows - K + 1`` output rows.
    """

    def __init__(self, kernel_size: int, width: int, stripe_rows: Optional[int] = None) -> None:
        if kernel_size < 1:
            raise ConfigurationError(f"kernel_size must be >= 1, got {kernel_size}")
        if width < kernel_size:
            raise ConfigurationError(
                f"stripe width {width} is smaller than the kernel {kernel_size}"
            )
        self.kernel_size = kernel_size
        full_rows = 2 * kernel_size - 1
        self.stripe_rows = stripe_rows if stripe_rows is not None else full_rows
        if not (kernel_size <= self.stripe_rows <= full_rows):
            raise ConfigurationError(
                f"stripe_rows must be in [{kernel_size}, {full_rows}], got {self.stripe_rows}"
            )
        self.width = width
        #: output rows produced by this stripe
        self.out_rows = self.stripe_rows - kernel_size + 1

    # ------------------------------------------------------------------ #
    # timestamp arithmetic
    # ------------------------------------------------------------------ #
    def timestamp(self, row: int, col: int) -> int:
        """Timestamp at which pixel ``(row, col)`` of the stripe is streamed in."""
        if not (0 <= row < self.stripe_rows):
            raise ConfigurationError(f"row {row} outside stripe of {self.stripe_rows} rows")
        if not (0 <= col < self.width):
            raise ConfigurationError(f"col {col} outside stripe of width {self.width}")
        return self.kernel_size * col + row + 1

    @property
    def total_timestamps(self) -> int:
        """Largest timestamp used by the stripe (also the streaming cycle count)."""
        return self.timestamp(self.stripe_rows - 1, self.width - 1)

    def pixels_at(self, timestamp: int) -> List[Tuple[int, int]]:
        """All stripe pixels sharing ``timestamp`` (at most two)."""
        if timestamp < 1 or timestamp > self.total_timestamps:
            return []
        k = self.kernel_size
        pixels = []
        # row = timestamp - 1 - K * col; only the two nearest columns can
        # yield a row inside [0, stripe_rows).
        min_col = max(0, (timestamp - self.stripe_rows) // k)
        max_col = min(self.width - 1, (timestamp - 1) // k)
        for col in range(min_col, max_col + 1):
            row = timestamp - 1 - k * col
            if 0 <= row < self.stripe_rows:
                pixels.append((row, col))
        return pixels

    def delivery_at(self, timestamp: int) -> PixelDelivery:
        """Channel assignment (even/odd column parity) of the pixels at ``timestamp``."""
        even = None
        odd = None
        for row, col in self.pixels_at(timestamp):
            if col % 2 == 0:
                even = (row, col)
            else:
                odd = (row, col)
        return PixelDelivery(timestamp=timestamp, even=even, odd=odd)

    # ------------------------------------------------------------------ #
    # window arithmetic
    # ------------------------------------------------------------------ #
    def window_ending_at(self, timestamp: int) -> WindowTag:
        """The convolution window whose last pixel has the given timestamp.

        The window is *valid* when its starting row is one of the stripe's
        output rows and its starting column leaves room for ``K`` columns.
        """
        k = self.kernel_size
        start_ts = timestamp - k * k + 1
        if start_ts < 1:
            return WindowTag(timestamp, -1, -1, valid=False)
        out_col = (start_ts - 1) // k
        out_row = (start_ts - 1) % k
        valid = out_row < self.out_rows and out_col + k <= self.width
        if not valid:
            return WindowTag(timestamp, -1, -1, valid=False)
        return WindowTag(timestamp, out_row, out_col, valid=True)

    def valid_windows(self) -> List[WindowTag]:
        """All valid windows of the stripe, in completion (timestamp) order."""
        windows = []
        for timestamp in range(self.kernel_size ** 2, self.total_timestamps + 1):
            tag = self.window_ending_at(timestamp)
            if tag.valid:
                windows.append(tag)
        return windows

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def pixels_streamed(self) -> int:
        """Total pixels delivered over the stripe (= stripe_rows * width)."""
        return self.stripe_rows * self.width

    def utilization(self) -> float:
        """Fraction of streaming cycles that complete a valid window."""
        return len(self.valid_windows()) / self.total_timestamps


def _stripe_split(out_height: int, kernel_size: int,
                  stripe_height: Optional[int]) -> Tuple[int, int, int]:
    """``(height, full, remainder)``: ``full`` stripes of ``height`` output
    rows, then one of ``remainder`` rows if it is nonzero."""
    if out_height < 1:
        raise ConfigurationError(f"out_height must be >= 1, got {out_height}")
    if kernel_size < 1:
        raise ConfigurationError(f"kernel_size must be >= 1, got {kernel_size}")
    height = kernel_size if stripe_height is None else stripe_height
    if not (1 <= height <= kernel_size):
        raise ConfigurationError(
            f"stripe_height must be in [1, {kernel_size}], got {height}"
        )
    full, remainder = divmod(out_height, height)
    return height, full, remainder


def stripe_plan(out_height: int, kernel_size: int,
                stripe_height: Optional[int] = None) -> List[int]:
    """Split ``out_height`` output rows into stripes of at most ``stripe_height``.

    ``stripe_height`` defaults to ``K`` (the paper's full-stripe mapping: a
    ``2K-1``-row input band computing ``K`` ofmap rows); the mapping-search
    subsystem explores shorter stripes, which remain legal as long as
    ``1 <= stripe_height <= K`` (the column-scan cadence fixes the input band
    at ``stripe_height + K - 1 <= 2K - 1`` rows).  Returns the list of
    output-row counts per stripe (all ``stripe_height`` except a
    possibly-shorter final stripe), e.g. ``stripe_plan(13, 3) == [3, 3, 3, 3, 1]``.
    """
    height, full, remainder = _stripe_split(out_height, kernel_size, stripe_height)
    plan = [height] * full
    if remainder:
        plan.append(remainder)
    return plan


def stripe_mac_count(kernel_size: int, width: int, rows: int) -> int:
    """MACs one primitive performs streaming one ``rows x width`` stripe.

    The window injected at streaming cycle ``s`` (``1 <= s <= K(width-1) +
    rows``, with ``oc = (s-1) // K`` and ``r0 = (s-1) % K``) meets at PE
    ``q`` the pixel ``(r0 + q % K, oc + q // K)``, and the PE performs a MAC
    iff that pixel lies inside the stripe.  The count over ``s`` and ``q``
    factorises into a column sum, ``sum over oc of min(K, width - oc)``, times
    a row sum, ``sum over r0 of min(K, rows - r0)``, which with ``d = rows -
    K + 1`` output rows is ``K*d + (K-1+d)(K-d)/2``.
    """
    k = kernel_size
    d = rows - k + 1
    columns = k * (k + 1) // 2 + k * (width - k)
    return columns * (k * d + (k - 1 + d) * (k - d) // 2)


@dataclass(frozen=True)
class PairGeometry:
    """What one primitive streams and counts for one channel pair of a layer.

    Every (ofmap, ifmap) channel pair of a layer shares this geometry, so
    layer totals are these values times ``layer.channel_pairs()``.
    """

    stripes: int
    pixels_streamed: int
    scan_cycles: int  # K * (W_p - 1) + rows per stripe
    drain_cycles: int  # 2K^2 + 2 per stripe, until the last window leaves
    macs: int
    windows_evaluated: int  # valid stride-1 windows
    windows_kept: int  # the windows on the stride grid inside the ofmap

    @property
    def primitive_cycles(self) -> int:
        """Scan plus drain cycles: the primitive's time for the pair."""
        return self.scan_cycles + self.drain_cycles


def pair_geometry(layer: ConvLayer, stripe_height: Optional[int] = None) -> PairGeometry:
    """Closed-form :class:`PairGeometry` of one channel pair of ``layer``.

    The stripes split the stride-1 output rows of the padded plane
    (:func:`stripe_plan`, ``stripe_height`` defaulting to ``K``), so a
    strided layer streams every input row at stride-1 cadence and keeps the
    windows on its stride grid.  A stripe of ``d`` output rows streams ``d +
    K - 1`` input rows; every stripe has ``stripe_height`` output rows except
    possibly the last, so a pair has at most two stripe shapes.
    """
    k = layer.kernel_size
    width = layer.padded_width
    out_rows = layer.padded_height - k + 1
    height, full, remainder = _stripe_split(out_rows, k, stripe_height)
    stripes = full + (remainder > 0)
    streamed_rows = out_rows + stripes * (k - 1)
    macs = full * stripe_mac_count(k, width, height + k - 1)
    if remainder:
        macs += stripe_mac_count(k, width, remainder + k - 1)
    return PairGeometry(
        stripes=stripes,
        pixels_streamed=streamed_rows * width,
        scan_cycles=stripes * k * (width - 1) + streamed_rows,
        drain_cycles=stripes * (2 * k * k + 2),
        macs=macs,
        windows_evaluated=out_rows * (width - k + 1),
        windows_kept=layer.out_height * layer.out_width,
    )
