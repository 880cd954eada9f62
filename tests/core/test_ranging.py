"""Auto-ranging loop behaviour: ladder limits, batch g_f sharing."""

import numpy as np

from repro.analog.results import CircuitSolution
from repro.analog.topologies import AMCMode
from repro.arrays.mapping import DifferentialMapping
from repro.core.ranging import autorange_gain_batch, autorange_mvm
from repro.macro.amc_macro import AMCMacro, MacroResult, PlaneLayout
from repro.macro.registers import G_F_STEP


def _programmed_mvm_macro(g_f: float) -> AMCMacro:
    macro = AMCMacro(macro_id=3, rows=16, cols=16, rng=np.random.default_rng(3))
    macro.configure(AMCMode.MVM, 8, 8, layout=PlaneLayout.PAIRED_COLUMNS, g_f=g_f)
    macro.program_mapping(DifferentialMapping.from_matrix(np.eye(8)))
    return macro


class TestMvmLadderLimit:
    def test_saturated_at_ceiling_skips_the_rerun(self):
        """Ladder pinned at the top + railed output: exactly one compute.

        The seed wrote the (no-op) register, touched every partner, and
        only then noticed the ladder had not moved; the loop must now
        detect the pinned ladder *before* any register write or re-run.
        A railed output at the ladder ceiling cannot be produced by the
        physics of a healthy tile, so the conversion is stubbed.
        """
        macro = _programmed_mvm_macro(g_f=256 * G_F_STEP)  # code 255: ceiling
        assert macro.config.g_f_code == 255
        railed = MacroResult(
            values=np.full(8, 1.2),
            raw=np.full(8, 1.2),
            solution=CircuitSolution(
                outputs=np.full(8, 1.2), column_saturated=np.array([True])
            ),
            mode=AMCMode.MVM,
        )
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return railed

        result, attempts = autorange_mvm(compute, macro, target=0.6, max_attempts=6)
        assert calls["n"] == 1
        assert attempts == 1
        assert result.solution.saturated
        assert macro.config.g_f_code == 255  # no register churn either

    def test_underranged_at_floor_skips_the_rerun(self):
        """Ladder at the bottom rung + tiny output: exactly one compute."""
        macro = _programmed_mvm_macro(g_f=G_F_STEP)  # code 0: floor
        assert macro.config.g_f_code == 0
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return macro.compute_mvm(np.full(8, 1e-4))

        _, attempts = autorange_mvm(compute, macro, target=0.6, max_attempts=6)
        assert calls["n"] == 1
        assert attempts == 1

    def test_normal_reranging_still_iterates(self):
        """Mid-ladder the loop must still actually re-range."""
        macro = _programmed_mvm_macro(g_f=1e-3)
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return macro.compute_mvm(np.full(8, 0.9))

        _, attempts = autorange_mvm(compute, macro, target=0.6, max_attempts=6)
        assert attempts > 1
        assert calls["n"] == attempts


class TestBatchGainRanging:
    def _programmed_inv_macro(self, g_f: float = 5e-5) -> AMCMacro:
        rng = np.random.default_rng(7)
        matrix = np.eye(10) * 2.0 + 0.05 * rng.standard_normal((10, 10))
        macro = AMCMacro(macro_id=4, rows=32, cols=32, rng=np.random.default_rng(4))
        macro.configure(AMCMode.INV, 10, 10, layout=PlaneLayout.PAIRED_COLUMNS, g_f=g_f)
        macro.program_mapping(DifferentialMapping.from_matrix(matrix))
        return macro

    def test_shared_g_f_per_column_scales(self):
        macro = self._programmed_inv_macro()
        batch = np.random.default_rng(11).uniform(-0.2, 0.2, size=(10, 6))
        scales = np.full(6, 1.0)

        outcome = autorange_gain_batch(
            lambda s: macro.compute_inv(batch / s),
            macro,
            lambda result, s, g_f: -result.values * s / g_f,
            scales=scales,
            target=0.6,
            max_attempts=6,
        )
        assert outcome.value.shape == (10, 6)
        assert outcome.input_scales.shape == (6,)
        assert outcome.result.solution.column_saturated.shape == (6,)
        assert outcome.attempts >= 1

    def test_input_shrink_touches_only_railed_columns(self):
        """At the ladder floor, only the railed columns lose resolution."""
        macro = self._programmed_inv_macro(g_f=G_F_STEP)  # already at the floor
        batch = np.full((10, 4), 1e-3)
        batch[:, 1] = 0.9  # one column drives the amplifiers to the rails
        batch[:, 3] = 0.9

        outcome = autorange_gain_batch(
            lambda s: macro.compute_inv(batch / s),
            macro,
            lambda result, s, g_f: -result.values * s / g_f,
            scales=np.full(4, 1.0),
            target=0.6,
            max_attempts=4,
        )
        quiet = outcome.input_scales[[0, 2]]
        loud = outcome.input_scales[[1, 3]]
        assert np.all(quiet == 1.0)
        if outcome.attempts > 1:  # the loud columns actually railed
            assert np.all(loud > 1.0)
