"""GramcChip: the full system of Fig. 3 — 16 macros + digital control.

Three ways to drive the chip:

* **Compiled path** — hand it assembly (or an :class:`Instruction` list);
  the controller walks the write-verify and system-solution data flows
  instruction by instruction.  This is the paper's architecture.
* **Operator path** — :meth:`GramcChip.compile` programs a matrix once and
  returns an :class:`~repro.core.operator.AnalogOperator` handle:
  ``op = chip.compile(a); y = op @ x_batch`` streams batches through the
  resident conductances with zero re-programming.
* **Runtime path** — :attr:`GramcChip.solver` exposes the high-level
  :class:`~repro.core.solver.GramcSolver` bound to the same macro pool
  (``chip.solver.compile(a, mode)`` and the handle it returns).

Both runtime paths account programming and solve activity into
:attr:`GramcChip.stats`, alongside the compiled path's counters.
"""

from __future__ import annotations

import os

import numpy as np

from repro.analog.topologies import AMCMode
from repro.core.backend import Backend, backend_or_default
from repro.core.operator import AnalogOperator
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.obs import trace as obs_trace
from repro.system.assembler import assemble
from repro.system.buffers import GlobalBuffer
from repro.system.controller import Controller, ExecutionTrace
from repro.system.isa import Instruction
from repro.system.stats import ChipStats


class GramcChip:
    """One GRAMC chip instance."""

    def __init__(
        self,
        pool_config: PoolConfig | None = None,
        rng: np.random.Generator | None = None,
        buffer_capacity: int = 1 << 16,
        backend: "Backend | None" = None,
        trace: "str | bool | None" = None,
        faults: "object | str | None" = None,
    ):
        self.rng = rng if rng is not None else np.random.default_rng(2025)
        self.pool = MacroPool(pool_config or PoolConfig(), rng=self.rng)
        self.global_buffer = GlobalBuffer(buffer_capacity)
        self.stats = ChipStats()
        self.controller = Controller(self.pool.macros, self.global_buffer, stats=self.stats)
        # ``trace=`` configures the process-global tracer (spans are a
        # process-wide stream, like logging): ``True``/"memory" buffers in
        # memory, "jsonl:PATH" / "chrome:PATH" stream to exporters, and
        # ``None`` defers to the ``REPRO_TRACE`` environment variable —
        # without clobbering a tracer someone already installed by hand.
        if trace is not None:
            obs_trace.configure(trace)
        elif os.environ.get("REPRO_TRACE"):
            obs_trace.configure_from_env()
        # Checked eagerly so a wrong ``backend=`` fails at chip
        # construction, not mid-solve.
        self.backend = backend_or_default(backend)
        self._solver: GramcSolver | None = None
        # ``faults=`` attaches a deterministic degradation schedule
        # (:class:`~repro.faults.FaultPlan`, a plan-shaped spec string, or
        # ``None`` to defer to ``REPRO_FAULTS``).  The whole machinery —
        # injector, health monitor, healing ladder — only exists when a
        # plan is given: without one the chip is bitwise identical to a
        # build without the faults package.
        self.faults = None
        if faults is None and os.environ.get("REPRO_FAULTS"):
            faults = os.environ["REPRO_FAULTS"]
        if faults is not None:
            from repro.faults import FaultInjector, FaultPlan

            plan = (
                FaultPlan.from_spec(faults) if isinstance(faults, str) else faults
            )
            self.faults = FaultInjector(
                plan, self.pool, registry=self.stats.registry
            )

    @property
    def clock(self) -> int:
        """The fault injector's logical tick count (0 on fault-free chips)."""
        return 0 if self.faults is None else self.faults.clock

    @property
    def health(self) -> "dict | None":
        """The health monitor's snapshot, or ``None`` on a fault-free chip."""
        return None if self.faults is None else self.faults.monitor.snapshot()

    @property
    def macros(self):
        return self.pool.macros

    @property
    def solver(self) -> GramcSolver:
        """High-level solver sharing this chip's macros (lazy singleton)."""
        if self._solver is None:
            self._solver = GramcSolver(
                pool=self.pool, rng=self.rng, stats=self.stats, backend=self.backend
            )
        return self._solver

    def compile(
        self, matrix: np.ndarray, mode: AMCMode = AMCMode.MVM, **kwargs
    ) -> AnalogOperator | TiledOperator:
        """Program ``matrix`` on this chip and return its operator handle.

        Accepts the same keyword options as :meth:`GramcSolver.compile`
        (``pin=True``, ``quant_peak=...``, ``lambda_hat=...``,
        ``tile=...``, ...).  A square SOLVE operand larger than one array
        compiles to a :class:`~repro.core.tiled.TiledOperator`: a pinned
        grid of INV diagonal tiles and MVM coupling tiles whose
        ``solve(B)`` runs batched block-Jacobi / block-Gauss-Seidel
        sweeps across this chip's macros — programming and solve
        activity lands in :attr:`GramcChip.stats` either way.
        """
        return self.solver.compile(matrix, mode, **kwargs)

    def serve(self, config=None) -> "object":
        """Multi-tenant async solve service over this chip's macro pool.

        Returns a :class:`~repro.serve.service.SolveService` bound to this
        chip's solver, pool, and stats: many concurrent clients submit
        solve/MVM jobs against registered tenants; requests targeting the
        same resident operator are coalesced into one batched engine call
        per dispatch window.  Use as an async context manager::

            async with chip.serve() as service:
                service.register_tenant("alice", TenantQuota(...))
                op = await service.compile("alice", a, AMCMode.INV)
                x = await service.solve("alice", op, b)

        Imported lazily so the core system layer has no dependency on the
        serve package.
        """
        from repro.serve.service import SolveService

        return SolveService(solver=self.solver, config=config)

    # -- compiled path -------------------------------------------------------------

    def load_assembly(self, source: str) -> list[Instruction]:
        """Assemble and load a controller program."""
        program = assemble(source)
        self.controller.load(program)
        return program

    def load_program(self, program: list[Instruction]) -> None:
        self.controller.load(program)

    def run(self, max_steps: int = 100_000) -> ExecutionTrace:
        """Run the loaded program to completion."""
        return self.controller.run(max_steps=max_steps)

    # -- host I/O --------------------------------------------------------------------

    def write_operand(self, address: int, values: np.ndarray) -> None:
        """Host-side preload of the global buffer (vectors, tiles, configs)."""
        self.global_buffer.write(address, np.asarray(values, dtype=float).ravel())

    def read_result(self, address: int, length: int) -> np.ndarray:
        """Host-side read-back from the global buffer."""
        return self.global_buffer.read(address, length)

    def write_config_word(self, address: int, word: int) -> None:
        """Stage a macro configuration word for a CFG instruction."""
        self.global_buffer.write_word(address, word)
