"""The saturation rule: a column is saturated when its amplifier output
hits the op-amp rail or leaves the ADC's ``[−v_ref, v_ref]`` span.

With the default parts the rail sits at ``v_sat = 1.2`` V and the ADC
span ends at ``v_ref = 1.0`` V, so an output settling in between is
clipped by the converter without railing.  Every conversion point — the
stacked MVM and INV stages, and the macro's one-slot chain behind
ranging retries and ISA ``EXE`` — must flag such a column.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.topologies import AMCMode
from repro.arrays.mapping import DifferentialMapping
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.macro.amc_macro import AMCMacro, PlaneLayout
from repro.programming.levels import LevelMap
from repro.workloads.matrices import wishart

V_REF = 1.0
V_SAT = 1.2

UNCLIPPED_BOUND = 0.07
"""Relative error an unrefined INV solve of the κ≈5 ``wishart(16) +
0.6·I`` operand stays within when the ADC samples its output in range
(256-level conductance map): p99 5.4 %, max 6.6 % over 300 random
right-hand sides on this handle.  Returned clipped from
``(v_ref, v_sat]``, this handle's error reached 7.5 %, and the
``serve_mix`` workload's ``small`` operand of the same family 10.2 %."""


def _solver(seed: int = 99) -> GramcSolver:
    pool = MacroPool(
        PoolConfig(num_macros=8, rows=32, cols=32, level_map=LevelMap(num_levels=256)),
        rng=np.random.default_rng(seed),
    )
    return GramcSolver(pool=pool, rng=np.random.default_rng(17))


def _settled_peak(op, b: np.ndarray) -> float:
    """Noiseless peak of the INV handle's settled output for ``b`` at the
    ladder value the next call will start from."""
    solver = op._solver
    tile = op._tiles[0]
    circuit, _ = tile.primary.resident_inv_circuit(tile.partner)
    v_in = b / solver._input_scales(b[:, None])[0]
    currents = tile.primary.config.g_f * v_in
    return float(np.abs(circuit.static_solve(currents, noisy=False).outputs).max())


class TestInvClipBand:
    def test_output_between_adc_span_and_rail_re_ranges(self):
        """A settled INV output in ``(v_ref, v_sat]`` re-ranges and comes
        back unsaturated, with the error of an unclipped solve."""
        solver = _solver()
        rng = np.random.default_rng(0)
        matrix = wishart(16, rng=rng) + 0.6 * np.eye(16)
        op = solver.compile(matrix, mode=AMCMode.INV)
        op.solve(rng.uniform(-1.0, 1.0, 16))  # settle the ladder
        for _ in range(400):
            b = rng.uniform(-1.0, 1.0, 16)
            if 1.05 < _settled_peak(op, b) < 1.15:
                break
        else:  # pragma: no cover - the search space is fixed by the seeds
            pytest.fail("no right-hand side lands in the clip band")
        result = op.solve(b)
        assert result.attempts >= 2
        assert not result.saturated
        assert result.relative_error <= UNCLIPPED_BOUND


def _inv_macro() -> AMCMacro:
    matrix = np.eye(10) * 2.0 + 0.05 * np.random.default_rng(7).standard_normal((10, 10))
    macro = AMCMacro(macro_id=4, rows=32, cols=32, rng=np.random.default_rng(4))
    macro.configure(AMCMode.INV, 10, 10, layout=PlaneLayout.PAIRED_COLUMNS, g_f=1e-3)
    macro.program_mapping(DifferentialMapping.from_matrix(matrix))
    return macro


def _pinv_macros() -> tuple[AMCMacro, AMCMacro]:
    matrix = np.random.default_rng(13).standard_normal((24, 6))
    primary = AMCMacro(macro_id=14, rows=32, cols=64, rng=np.random.default_rng(14))
    partner_t = AMCMacro(macro_id=15, rows=32, cols=64, rng=np.random.default_rng(15))
    primary.configure(AMCMode.PINV, 24, 6, layout=PlaneLayout.PAIRED_COLUMNS, g_f=3e-4)
    partner_t.configure(AMCMode.PINV, 6, 24, layout=PlaneLayout.PAIRED_COLUMNS, g_f=3e-4)
    primary.program_mapping(DifferentialMapping.from_matrix(matrix))
    partner_t.program_mapping(DifferentialMapping.from_matrix(matrix.T))
    return primary, partner_t


def _clip_band_batch(compute, base: np.ndarray) -> np.ndarray:
    """``base`` as two columns: one quiet, one scaled so the amplifier
    output peaks at 1.1 V — past the ADC span, short of the rail."""
    peak = float(np.abs(compute(base[:, None]).raw).max())
    return np.stack([0.3 * base / peak, 1.1 * base / peak], axis=1)


class TestMacroConversionPoint:
    """``compute_inv``/``compute_pinv`` are the retry path the batch
    ranging loop reads, and the ISA ``EXE`` path."""

    @pytest.mark.parametrize("mode", ["inv", "pinv"])
    def test_adc_clipped_column_is_saturated_without_railing(self, mode):
        if mode == "inv":
            macro = _inv_macro()
            compute = macro.compute_inv
            base = np.random.default_rng(5).uniform(-0.05, 0.05, 10)
        else:
            macro, partner_t = _pinv_macros()

            def compute(b):
                return macro.compute_pinv(b, partner_t=partner_t)

            base = np.random.default_rng(16).uniform(-0.5, 0.5, 24)
        batch = _clip_band_batch(compute, base)
        assert np.abs(batch).max() <= 1.0  # inside the DAC span
        result = compute(batch)
        peaks = np.abs(result.raw).max(axis=0)
        assert peaks[0] < V_REF and V_REF < peaks[1] < V_SAT  # clipped, not railed
        np.testing.assert_array_equal(result.solution.column_saturated, [False, True])
        assert result.solution.saturated


# ------------------------------------------------------------ property test

PROPERTY_BOUND = 0.08
"""Unrefined relative error per column of a κ≤5 operand (256-level
conductance map) whose output the converters sampled in range: each
column stays inside it unless the rule flags it saturated.  Worst
unflagged column over 150 aimed payloads per handle: 5.6 % (MVM),
5.8 % (INV), 6.1 % (tiled INV)."""


def _operand(n: int, rng: np.random.Generator) -> np.ndarray:
    """A symmetric positive-definite operand of order ``n`` with κ ≤ 5."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(0.4, 2.0, n)) @ q.T


@pytest.fixture(scope="module")
def handles():
    """A 16×16 MVM, a 16×16 INV and a 2×2-tiled 32×32 INV handle."""
    solver = GramcSolver(
        pool=MacroPool(
            PoolConfig(num_macros=12, rows=32, cols=32, level_map=LevelMap(num_levels=256)),
            rng=np.random.default_rng(41),
        ),
        rng=np.random.default_rng(42),
    )
    rng = np.random.default_rng(43)
    mvm_matrix = rng.uniform(-1.0, 1.0, (16, 16))
    inv_matrix = _operand(16, rng)
    tiled_matrix = _operand(32, rng)
    return {
        "mvm": (solver.compile(mvm_matrix, mode=AMCMode.MVM), mvm_matrix),
        "inv": (solver.compile(inv_matrix, mode=AMCMode.INV), inv_matrix),
        "tiled": (solver.compile(tiled_matrix, mode=AMCMode.INV, tile=16), tiled_matrix),
    }


def _aim(op, b: np.ndarray, peak: float) -> None:
    """Set the ladder of ``op``'s tile so that the ideal amplifier output
    of its next attempt on ``b`` peaks near ``peak`` volts (the ladder's
    rung spacing limits how near)."""
    tile = op._tiles[0]
    v_in = b / op._solver._input_scales(b)
    g_f = tile.primary.config.g_f
    if op.mode is AMCMode.MVM:
        circuit, _ = tile.primary.resident_mvm_circuit(tile.partner)
        now = np.abs(circuit.ideal_output(v_in)).max()
        desired = g_f * now / peak  # the TIA gain is 1/g_f
    else:
        circuit, _ = tile.primary.resident_inv_circuit(tile.partner)
        now = np.abs(circuit.ideal_solution(g_f * v_in)).max()
        desired = g_f * peak / now  # the loop output scales with g_f
    for macro in (tile.primary, tile.partner):
        if macro is not None:
            macro.set_g_f(desired)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(
    kind=st.sampled_from(["mvm", "inv", "tiled"]),
    seed=st.integers(0, 2**32 - 1),
    columns=st.integers(1, 4),
    near=st.floats(0.8, 1.3),
)
def test_no_column_comes_back_clipped_and_unflagged(handles, kind, seed, columns, near):
    """Payloads aimed so the first attempt's outputs peak near ``v_ref``:
    every column is flagged saturated or stays within the unclipped
    bound, ``saturated`` is ``column_saturated.any()``, and every value
    is finite."""
    op, matrix = handles[kind]
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, (matrix.shape[0], columns))
    if kind == "tiled":
        # The first sweep's diagonal solves see the blocks of ``b``.
        for block, rows in zip(op._diag, op.block_slices):
            _aim(block, b[rows], near * V_REF)
    else:
        _aim(op, b, near * V_REF)
    result = op.mvm(b) if kind == "mvm" else op.solve(b)
    reference = matrix @ b if kind == "mvm" else np.linalg.solve(matrix, b)
    assert np.all(np.isfinite(result.value))
    assert result.saturated == bool(result.column_saturated.any())
    errors = np.linalg.norm(result.value - reference, axis=0) / np.linalg.norm(
        reference, axis=0
    )
    assert np.all(result.column_saturated | (errors <= PROPERTY_BOUND)), errors
