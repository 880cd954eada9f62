"""Core layer: the public GRAMC solver + operator-handle API."""

from repro.core.errors import (
    CapacityError,
    ConvergenceError,
    GramcError,
    InputError,
    ShapeError,
)
from repro.core.iterative import AnalogIterativeSolver, IterativeResult
from repro.core.operator import AnalogOperator, TileBinding
from repro.core.pool import MacroPool, PoolConfig
from repro.core.refine import RefineReport, as_rtol_vector, refine_solution
from repro.core.results import SolveResult
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator

__all__ = [
    "AnalogIterativeSolver",
    "AnalogOperator",
    "CapacityError",
    "ConvergenceError",
    "GramcError",
    "InputError",
    "IterativeResult",
    "GramcSolver",
    "MacroPool",
    "PoolConfig",
    "RefineReport",
    "ShapeError",
    "SolveResult",
    "TileBinding",
    "TiledOperator",
    "as_rtol_vector",
    "refine_solution",
]
