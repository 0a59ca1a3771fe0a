"""16-bit fixed-point arithmetic used by the Chain-NN datapath.

The paper states every PE performs "a 16-bit fixed-point MAC operation"; the
float-to-fixed conversion of pre-trained networks was done by a custom
simulator integrated with MatConvNet.  This module is that simulator's
substitute: it defines a Q-format (``FixedPointFormat``), converts floating
point tensors into integer raw values, and implements the saturating
arithmetic a hardware MAC would perform.

Values are represented as Python/NumPy integers holding the *raw* two's
complement bit pattern; the format object converts between raw integers and
real values.  Keeping raw integers explicit (instead of storing floats
rounded to a grid) means overflow, saturation and accumulator width behave
exactly as in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError, SimulationError

#: Winograd F(2x2,3x3) transform growth in bits: x4 (input transform), x9
#: (filter transform, on a 2**-2 finer grid), x9 (inverse); 324 < 2**9
WINOGRAD_GROWTH_BITS = 9


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed two's-complement fixed-point format.

    Parameters
    ----------
    total_bits:
        Word length including the sign bit.  Chain-NN uses 16.
    frac_bits:
        Number of fractional bits.  ``Q8.8`` (8 integer, 8 fractional bits)
        is the library default for weights and activations.
    """

    total_bits: int = 16
    frac_bits: int = 8

    def __post_init__(self) -> None:
        if self.total_bits <= 1:
            raise QuantizationError(f"total_bits must be > 1, got {self.total_bits}")
        if not (0 <= self.frac_bits < self.total_bits):
            raise QuantizationError(
                f"frac_bits must be in [0, {self.total_bits - 1}], got {self.frac_bits}"
            )

    # ------------------------------------------------------------------ #
    # derived properties
    # ------------------------------------------------------------------ #
    @property
    def int_bits(self) -> int:
        """Integer bits excluding the sign bit."""
        return self.total_bits - self.frac_bits - 1

    @property
    def scale(self) -> float:
        """Real value of one least-significant bit."""
        return 2.0 ** (-self.frac_bits)

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer (two's complement)."""
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer (two's complement)."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min * self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max * self.scale

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_raw(self, value: float) -> int:
        """Quantise a real value to a saturated raw integer."""
        raw = int(np.round(value / self.scale))
        return max(self.raw_min, min(self.raw_max, raw))

    def to_real(self, raw: int) -> float:
        """Convert a raw integer back to its real value."""
        return raw * self.scale

    def saturate(self, raw: int) -> int:
        """Clamp an out-of-range raw integer into the representable range."""
        return max(self.raw_min, min(self.raw_max, int(raw)))

    def wrap(self, raw: int) -> int:
        """Wrap an integer modulo 2**total_bits into two's complement range.

        Hardware adders without saturation logic exhibit this behaviour; the
        library default is saturation but the wrap mode is exposed so the
        effect of dropping the saturation logic can be studied.
        """
        modulus = 1 << self.total_bits
        raw = int(raw) % modulus
        if raw >= modulus // 2:
            raw -= modulus
        return raw

    # ------------------------------------------------------------------ #
    # array helpers
    # ------------------------------------------------------------------ #
    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantise an array of reals onto the representable grid (as reals)."""
        raw = self.quantize_raw(values)
        return raw.astype(np.float64) * self.scale

    def quantize_raw(self, values: np.ndarray) -> np.ndarray:
        """Quantise an array of reals to saturated raw integers (int64)."""
        arr = np.asarray(values, dtype=np.float64)
        raw = np.round(arr / self.scale)
        raw = np.clip(raw, self.raw_min, self.raw_max)
        return raw.astype(np.int64)

    def dequantize_raw(self, raw: np.ndarray) -> np.ndarray:
        """Convert an array of raw integers back to real values."""
        return np.asarray(raw, dtype=np.float64) * self.scale

    def quantization_error(self, values: np.ndarray) -> dict:
        """Return error statistics (max abs, mean abs, rmse) of quantising ``values``."""
        arr = np.asarray(values, dtype=np.float64)
        quant = self.quantize(arr)
        err = arr - quant
        return {
            "max_abs": float(np.max(np.abs(err))) if err.size else 0.0,
            "mean_abs": float(np.mean(np.abs(err))) if err.size else 0.0,
            "rmse": float(np.sqrt(np.mean(err**2))) if err.size else 0.0,
        }

    def product_format(self, other: "FixedPointFormat") -> "FixedPointFormat":
        """Format of the full-precision product of two fixed-point values."""
        return FixedPointFormat(
            total_bits=self.total_bits + other.total_bits,
            frac_bits=self.frac_bits + other.frac_bits,
        )

    def accumulator_format(self, other: "FixedPointFormat", terms: int) -> "FixedPointFormat":
        """Format wide enough to accumulate ``terms`` products without overflow.

        The growth is ``ceil(log2(terms))`` guard bits on top of the product
        width — the standard rule used when sizing systolic-array
        accumulators.
        """
        if terms <= 0:
            raise QuantizationError(f"terms must be positive, got {terms}")
        product = self.product_format(other)
        guard = max(1, int(np.ceil(np.log2(terms))) if terms > 1 else 1)
        return FixedPointFormat(
            total_bits=product.total_bits + guard,
            frac_bits=product.frac_bits,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{self.int_bits}.{self.frac_bits} ({self.total_bits}b)"


#: library default: 16-bit, 8 fractional bits
DEFAULT_FORMAT = FixedPointFormat(total_bits=16, frac_bits=8)


def quantize_value(value: float, fmt: FixedPointFormat = DEFAULT_FORMAT) -> float:
    """Quantise a scalar to ``fmt`` and return the nearest representable real."""
    return fmt.to_real(fmt.to_raw(value))


def quantize_array(values: np.ndarray, fmt: FixedPointFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Quantise an array to ``fmt`` and return the representable reals."""
    return fmt.quantize(values)


def on_fixed_point_grid(values: np.ndarray, bits: int) -> bool:
    """True when ``values`` are finite and fit ``bits`` significant bits.

    With ``2**E > max|x|`` from :func:`numpy.frexp`, every ``x * 2**(bits-E)``
    must be an integer.  Every ``choose_format(x, bits).quantize(x)`` passes,
    also when rounding lifted its maximum onto a power of two.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        return False
    _, exponent = np.frexp(np.max(np.abs(arr), initial=0.0))
    scaled = np.ldexp(arr, bits - int(exponent))
    return bool(np.array_equal(scaled, np.trunc(scaled)))


def check_exact_accumulation(name: str, terms: int, bits: int,
                             *tensors: np.ndarray,
                             growth_bits: int = 0) -> None:
    """Raise :class:`SimulationError` unless float64 accumulation is exact.

    Products of ``bits``-bit fixed-point operands are integers below
    ``2**(2*bits)`` on one grid, so a sum of ``terms`` of them (grown by
    ``2**growth_bits`` in transforms) is exact in any order while it stays
    below ``2**53``.  ``tensors`` must pass :func:`on_fixed_point_grid`;
    callers holding raw integers pass none and check only the geometry.
    """
    if terms << (2 * bits + growth_bits) >= 1 << 53:
        raise SimulationError(
            f"{name}: {terms} accumulated products of {bits}-bit operands "
            f"(growth 2**{growth_bits}) can reach 2**53, beyond exact float64 "
            "accumulation; quantise to a narrower word with repro.cnn.quantize")
    if not all(on_fixed_point_grid(tensor, bits) for tensor in tensors):
        raise SimulationError(
            f"{name}: operands are not {bits}-bit fixed point (non-finite or "
            "off a power-of-two grid); quantise them with "
            "repro.cnn.quantize.quantize_layer_tensors first")


def fixed_point_mac(
    acc_raw: int,
    a_raw: int,
    b_raw: int,
    acc_fmt: FixedPointFormat,
    saturating: bool = True,
) -> int:
    """One multiply-accumulate step on raw integers.

    The product ``a_raw * b_raw`` is in the product format (sum of the
    operand fractional bits); the caller is responsible for ensuring
    ``acc_fmt`` uses the same fractional alignment.  Returns the new raw
    accumulator value, saturated (default) or wrapped to ``acc_fmt``.
    """
    result = int(acc_raw) + int(a_raw) * int(b_raw)
    if saturating:
        return acc_fmt.saturate(result)
    return acc_fmt.wrap(result)
