"""GRAMC: general-purpose and reconfigurable analog matrix computing.

A full-system reproduction of the DATE 2025 paper — RRAM device physics,
write-verify programming, the reconfigurable AMC macro with its four
circuit topologies (MVM / INV / PINV / EGV), the 16-macro chip with its
instruction set and digital functional modules, and the LeNet-5 / digits
demonstration.

The public API is built around **operator handles**: compiling a matrix
programs it onto the crossbar macros once and returns an
:class:`AnalogOperator` that can be applied many times — the
program-once/solve-many structure that makes analog matrix computing
worthwhile.

Quick start::

    import numpy as np
    from repro import AMCMode, GramcSolver

    solver = GramcSolver()
    rng = np.random.default_rng(0)

    a = np.eye(16) + 0.05 * rng.standard_normal((16, 16))
    op = solver.compile(a)                 # programmed once, resident
    y = op @ rng.uniform(-1, 1, (16, 32))  # batched analog MVM, no re-write

    with solver.compile(a, mode=AMCMode.INV) as inv:
        result = inv.solve(np.ones(16))    # analog one-step linear solve
    print(result.relative_error)
"""

from repro.analog.topologies import AMCMode
from repro.core.errors import (
    CapacityError,
    ConvergenceError,
    GramcError,
    InputError,
    ShapeError,
)
from repro.core.operator import AnalogOperator
from repro.core.pool import MacroPool, PoolConfig
from repro.core.results import SolveResult
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.system.gramc import GramcChip

__version__ = "2.0.0"

__all__ = [
    "AMCMode",
    "AnalogOperator",
    "CapacityError",
    "ConvergenceError",
    "GramcChip",
    "GramcError",
    "GramcSolver",
    "InputError",
    "MacroPool",
    "PoolConfig",
    "ShapeError",
    "SolveResult",
    "TiledOperator",
    "__version__",
]
