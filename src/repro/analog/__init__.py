"""Analog layer: op-amps, blocks, dynamics, and the four AMC topologies."""

from repro.analog.blocks import inverter_output, tia_output
from repro.analog.determinism import (
    apply_matrix,
    column_independent,
    column_independent_apply,
    set_column_independent,
)
from repro.analog.dynamics import (
    LinearFeedbackSystem,
    TransientResult,
    integrate_nonlinear,
)
from repro.analog.egv import EgvCircuit, estimate_dominant_eigenvalue
from repro.analog.inv import InvCircuit
from repro.analog.mvm import MVMCircuit
from repro.analog.opamp import IDEAL_OPAMP, OpAmpBank, OpAmpParams
from repro.analog.pinv import PinvCircuit
from repro.analog.results import CircuitSolution
from repro.analog.topologies import AMCMode, TOPOLOGIES, TopologyDescriptor, descriptor

__all__ = [
    "AMCMode",
    "CircuitSolution",
    "EgvCircuit",
    "IDEAL_OPAMP",
    "InvCircuit",
    "LinearFeedbackSystem",
    "MVMCircuit",
    "OpAmpBank",
    "OpAmpParams",
    "PinvCircuit",
    "TOPOLOGIES",
    "TopologyDescriptor",
    "TransientResult",
    "apply_matrix",
    "column_independent",
    "column_independent_apply",
    "descriptor",
    "estimate_dominant_eigenvalue",
    "integrate_nonlinear",
    "inverter_output",
    "set_column_independent",
    "tia_output",
]
