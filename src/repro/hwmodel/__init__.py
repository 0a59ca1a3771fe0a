"""Generic hardware-modelling substrate.

The number system and clock the Chain-NN models are built on: a 16-bit
fixed-point format with saturating multiply-accumulate and the float64
exactness guard (:mod:`repro.hwmodel.fixed_point`), and the clock domain
that turns cycles into seconds (:mod:`repro.hwmodel.clock`).  The
register-level PE and primitive models live in the cycle simulator's test
oracle, :mod:`repro.sim.cycle.oracle`.
"""

from repro.hwmodel.clock import ClockDomain
from repro.hwmodel.fixed_point import FixedPointFormat, quantize_array, quantize_value

__all__ = [
    "ClockDomain",
    "FixedPointFormat",
    "quantize_array",
    "quantize_value",
]
