"""Synthetic tensor generators, drawn on the fixed-point grid.

The paper draws its test vectors from pre-trained MatConvNet models.  Trained
weights are not available offline, and the accelerator's behaviour does not
depend on their values, so this module synthesises weight and feature-map
tensors with realistic statistics:

* Gaussian weights with a fan-in-scaled standard deviation (He
  initialisation), which keeps the fixed-point dynamic range representative
  of real networks.
* Post-ReLU activations: half-normal with a configurable sparsity (fraction
  of exact zeros), matching the zero-heavy ifmaps real CNN layers see.

Both are drawn by inverse-transform sampling.  One uint16 draw per element
indexes a table of the 2**16 standard-normal quantiles
``Phi^-1((i + 1/2) / 2**16)`` (their absolute values for the half-normal
ifmaps).  These 2**16 equiprobable levels truncate the tails at +/-4.32
sigma, the outermost quantile ``Phi^-1(2**-17)``; everything else follows the
normal law to within the table's resolution.  Each table is scaled by the
tensor's standard deviation and rounded onto the ``bits``-bit grid that
:func:`~repro.cnn.quantize.choose_format` picks for it, so every generated
tensor ``x`` satisfies ``choose_format(x, bits).quantize(x) == x`` bit for
bit: operands are born in the simulators' fixed-point input domain and no
consumer has to quantise them again.  The quantile table is built lazily,
once per process, and each scaled table (as integer codes and their LSB)
once per ``(std, half, bits)``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cnn.layer import ConvLayer
from repro.cnn.quantize import choose_format
from repro.errors import WorkloadError

#: equiprobable quantile levels; one uint16 draw picks one
LEVELS = 1 << 16

# Acklam's rational approximation of the standard-normal inverse CDF
# (relative error below 1.2e-9, far finer than any 16-bit grid)
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01, 1.0)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00, 1.0)
#: below this probability Acklam's tail form replaces the central one
_ACKLAM_P_LOW = 0.02425


@functools.lru_cache(maxsize=1)
def standard_normal_quantiles() -> np.ndarray:
    """``Phi^-1((i + 1/2) / LEVELS)`` for ``i`` in ``range(LEVELS)``, ascending.

    The lower half is computed and mirrored, so the table is exactly
    antisymmetric.  Built on first use, not at import, and read-only.
    """
    p = (np.arange(LEVELS // 2) + 0.5) / LEVELS
    lower = np.empty_like(p)
    tail = p < _ACKLAM_P_LOW
    q = np.sqrt(-2.0 * np.log(p[tail]))
    lower[tail] = np.polyval(_ACKLAM_C, q) / np.polyval(_ACKLAM_D, q)
    q = p[~tail] - 0.5
    r = q * q
    lower[~tail] = np.polyval(_ACKLAM_A, r) * q / np.polyval(_ACKLAM_B, r)
    table = np.concatenate([lower, -lower[::-1]])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def grid_quantiles(std: float, half: bool, bits: int) -> Tuple[np.ndarray, float]:
    """The quantile table scaled by ``std`` on its ``bits``-bit grid.

    Returned as ``(raw, lsb)``: the table is ``raw * lsb``, with ``raw`` the
    read-only integer codes of the format ``choose_format`` picks for it.
    ``half`` takes absolute values first (the half-normal).  Any subset of
    the table keeps ``choose_format(x, bits).quantize(x) == x``: a smaller
    maximum only picks a finer grid, on which these values still lie.
    """
    levels = standard_normal_quantiles()
    scaled = std * (np.abs(levels) if half else levels)
    fmt = choose_format(scaled, bits)
    raw = fmt.quantize_raw(scaled)
    # rounding can lift the maximum onto the next power of two, which
    # costs one more integer bit; settle on the grid of the rounded table
    while (coarser := choose_format(raw * fmt.scale, bits)) != fmt:
        fmt = coarser
        raw = fmt.quantize_raw(scaled)
    # 16-bit codes make a 128 KiB table: it gathers faster than float64
    # values and keeps a cached table per layer cheap
    raw = raw.astype(np.int16 if bits <= 16 else np.int64)
    raw.flags.writeable = False
    return raw, fmt.scale


def stable_seed(*parts) -> int:
    """Platform-stable derived seed from arbitrary labelled parts.

    Hashes the string forms of ``parts`` (SHA-256, first 8 bytes), so
    ``stable_seed(2017, "verify", "conv3")`` is the same integer on every
    platform and Python version — unlike ``hash()``, whose salting would make
    generated tensors irreproducible across CI runs.  Used to fan one
    user-facing seed out into independent, reproducible RNG streams (per
    layer, per worker).
    """
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class TensorStats:
    """Summary statistics of a generated tensor (used in tests and reports)."""

    mean: float
    std: float
    min: float
    max: float
    zero_fraction: float

    @classmethod
    def of(cls, array: np.ndarray) -> "TensorStats":
        """Compute the statistics of ``array``."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.size == 0:
            raise WorkloadError("cannot summarise an empty tensor")
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std()),
            min=float(arr.min()),
            max=float(arr.max()),
            zero_fraction=float(np.mean(arr == 0.0)),
        )


class WorkloadGenerator:
    """Deterministic (seeded) generator of synthetic CNN tensors."""

    def __init__(self, seed: int = 2017) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def _draw(self, shape: Tuple[int, ...], std: float, half: bool,
              bits: int) -> np.ndarray:
        """One inverse-transform draw of ``shape`` on the ``bits``-bit grid."""
        levels = self._rng.integers(0, LEVELS, size=shape, dtype=np.uint16)
        raw, lsb = grid_quantiles(std, half, bits)
        # take() with native indices gathers several times faster than
        # indexing with the uint16 draw directly
        return raw.take(levels.astype(np.intp)) * lsb

    # ------------------------------------------------------------------ #
    # weights
    # ------------------------------------------------------------------ #
    def weights(self, layer: ConvLayer, scale: Optional[float] = None,
                bits: int = 16) -> np.ndarray:
        """Gaussian kernels of shape ``(M, C/groups, K, K)`` on the ``bits``-bit grid.

        ``scale`` defaults to ``sqrt(2 / fan_in)`` (He initialisation), which
        keeps activations in a realistic numeric range through the network.
        """
        fan_in = layer.in_channels_per_group * layer.kernel_size * layer.kernel_size
        std = scale if scale is not None else float(np.sqrt(2.0 / fan_in))
        shape = (
            layer.out_channels,
            layer.in_channels_per_group,
            layer.kernel_size,
            layer.kernel_size,
        )
        return self._draw(shape, std, half=False, bits=bits)

    def bias(self, layer: ConvLayer, scale: float = 0.01) -> np.ndarray:
        """Small Gaussian bias vector of shape ``(M,)``."""
        return self._rng.normal(0.0, scale, size=(layer.out_channels,))

    # ------------------------------------------------------------------ #
    # feature maps
    # ------------------------------------------------------------------ #
    def ifmaps(self, layer: ConvLayer, sparsity: float = 0.0,
               amplitude: float = 1.0, bits: int = 16) -> np.ndarray:
        """Post-ReLU-like ifmaps of shape ``(C, H, W)`` on the ``bits``-bit grid.

        ``sparsity`` is the fraction of elements forced to exactly zero
        (ReLU zeros); the non-zero values are half-normal with the given
        amplitude (the standard deviation of the normal they fold).
        """
        if not (0.0 <= sparsity <= 1.0):
            raise WorkloadError(f"sparsity must be in [0, 1], got {sparsity}")
        shape = (layer.in_channels, layer.in_height, layer.in_width)
        values = self._draw(shape, amplitude, half=True, bits=bits)
        if sparsity > 0.0:
            mask = self._rng.random(shape) < sparsity
            values = np.where(mask, 0.0, values)
        return values

    def layer_pair(self, layer: ConvLayer, sparsity: float = 0.0,
                   bits: int = 16) -> Tuple[np.ndarray, np.ndarray]:
        """Convenience: (ifmaps, weights) for a layer, both on the ``bits``-bit grid."""
        return (self.ifmaps(layer, sparsity=sparsity, bits=bits),
                self.weights(layer, bits=bits))

    def reseed(self, seed: int) -> None:
        """Reset the underlying RNG (makes long test campaigns reproducible)."""
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def spawn(self, *parts) -> "WorkloadGenerator":
        """An independent generator whose seed derives from this one.

        ``generator.spawn(layer.name)`` gives every layer (or worker) its own
        reproducible stream regardless of how many tensors were drawn from
        the parent — the per-layer verification of searched mappings relies
        on this to generate identical tensors in any order.
        """
        return WorkloadGenerator(seed=stable_seed(self.seed, *parts))
