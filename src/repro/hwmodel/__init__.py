"""Generic hardware-modelling substrate.

This subpackage provides the building blocks the Chain-NN processor core is
assembled from: a 16-bit fixed-point number system, registers and shift
registers, a multiply-accumulate (MAC) datapath, channel multiplexers,
register-file / SRAM storage with access counting and clock domains.

The abstraction level is *register-transfer behaviour*: component state only
changes on the component's ``tick()``, and combinational outputs are
recomputed from the current state, which is exactly the level the paper's
ModelSim functional simulation validates.
"""

from repro.hwmodel.clock import ClockDomain
from repro.hwmodel.fixed_point import FixedPointFormat, quantize_array, quantize_value
from repro.hwmodel.mac import MacUnit
from repro.hwmodel.memory import RegisterFile, Sram
from repro.hwmodel.mux import Mux
from repro.hwmodel.register import Pipeline, Register, ShiftRegister

__all__ = [
    "ClockDomain",
    "FixedPointFormat",
    "MacUnit",
    "Mux",
    "Pipeline",
    "Register",
    "RegisterFile",
    "ShiftRegister",
    "Sram",
    "quantize_array",
    "quantize_value",
]
