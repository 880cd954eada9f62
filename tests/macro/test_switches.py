"""Switch-fabric tests: connection lists, short detection, and the
once-per-shape wiring check that macro configuration runs."""

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.macro import switches
from repro.macro.amc_macro import AMCMacro, PlaneLayout
from repro.macro.switches import (
    Connection,
    Terminal,
    build_connections,
    check_wiring,
    validate_connections,
)
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant


class TestBuildConnections:
    @pytest.mark.parametrize("mode", list(AMCMode))
    def test_all_modes_validate(self, mode):
        connections = build_connections(mode, rows=8, cols=8, differential=True)
        validate_connections(connections)  # must not raise

    def test_mvm_drives_bls_from_dac(self):
        connections = build_connections(AMCMode.MVM, 4, 4, differential=False)
        dac_lines = [c.line for c in connections if c.terminal is Terminal.DAC]
        assert dac_lines == [f"BL[{j}]" for j in range(4)]

    def test_inv_feeds_back_opa_outputs(self):
        connections = build_connections(AMCMode.INV, 4, 4, differential=False)
        feedback = [c for c in connections if c.terminal is Terminal.OPA_OUT]
        assert {c.line for c in feedback} == {f"BL[{j}]" for j in range(4)}

    def test_differential_adds_inverter_lines(self):
        plain = build_connections(AMCMode.MVM, 4, 4, differential=False)
        diff = build_connections(AMCMode.MVM, 4, 4, differential=True)
        inverter_lines = [c for c in diff if c.terminal is Terminal.INVERTER_OUT]
        assert len(diff) == len(plain) + 4
        assert len(inverter_lines) == 4

    def test_every_row_has_virtual_ground(self):
        for mode in AMCMode:
            connections = build_connections(mode, 6, 3, differential=False)
            virtual_grounds = {
                c.line for c in connections if c.terminal is Terminal.OPA_VIN
            }
            assert virtual_grounds == {f"SL[{i}]" for i in range(6)}


class TestValidator:
    def test_detects_short(self):
        shorted = [
            Connection("BL[0]", Terminal.OPA_OUT, 0),
            Connection("BL[0]", Terminal.INVERTER_OUT, 1),
        ]
        with pytest.raises(ValueError, match="short"):
            validate_connections(shorted)

    def test_sensing_terminals_may_share(self):
        shared = [
            Connection("SL[0]", Terminal.OPA_VIN, 0),
            Connection("SL[0]", Terminal.DAC, 0),  # current injection
            Connection("SL[0]", Terminal.ADC, 0),
        ]
        validate_connections(shared)  # must not raise


@pytest.fixture
def wiring_builds(monkeypatch):
    """Count the connection lists built, on an empty wiring cache."""
    built = []

    def counting(mode, rows, cols, differential):
        built.append((mode, rows, cols, differential))
        return build_connections(mode, rows, cols, differential)

    check_wiring.cache_clear()
    monkeypatch.setattr(switches, "build_connections", counting)
    yield built
    check_wiring.cache_clear()


class TestWiringCheckedOncePerShape:
    def test_tile_grid_builds_each_shape_once(self, wiring_builds):
        """A 256-unknown operand on a 4×4 grid of 64×64 paired arrays:
        32 ``configure`` calls (primary and partner per tile) share four
        wiring shapes — INV and MVM, differential primary and
        single-plane partner."""
        solver = GramcSolver(
            pool=MacroPool(
                PoolConfig(
                    num_macros=40, rows=64, cols=64, level_map=LevelMap(num_levels=256)
                ),
                rng=np.random.default_rng(3),
            ),
            rng=np.random.default_rng(4),
        )
        configured = []
        configure = AMCMacro.configure

        def counting_configure(self, *args, **kwargs):
            configured.append(self.macro_id)
            return configure(self, *args, **kwargs)

        matrix = block_dominant(256, 64, coupling=0.04, rng=np.random.default_rng(1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AMCMacro, "configure", counting_configure)
            op = solver.compile(matrix, AMCMode.INV, tile=64)
        assert op.grid == (4, 4)
        assert len(configured) == 32
        assert sorted(wiring_builds, key=repr) == sorted(
            [
                (mode, 64, 64, differential)
                for mode in (AMCMode.INV, AMCMode.MVM)
                for differential in (True, False)
            ],
            key=repr,
        )
        op.close()

    def test_unseen_shorted_shape_still_raises(self, monkeypatch):
        """The cache skips only shapes that validated: a shape not seen
        before is built and checked, and a short raises from ``configure``."""
        check_wiring.cache_clear()

        def shorted(mode, rows, cols, differential):
            return [
                Connection("BL[0]", Terminal.OPA_OUT, 0),
                Connection("BL[0]", Terminal.INVERTER_OUT, 1),
            ]

        monkeypatch.setattr(switches, "build_connections", shorted)
        macro = AMCMacro(rows=16, cols=16, rng=np.random.default_rng(0))
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ValueError, match="short"):
                macro.configure(AMCMode.INV, 7, 5, layout=PlaneLayout.PAIRED_COLUMNS)
        check_wiring.cache_clear()

    def test_no_connection_list_is_kept(self):
        macro = AMCMacro(rows=16, cols=16, rng=np.random.default_rng(0))
        macro.configure(AMCMode.MVM, 8, 8)
        assert not hasattr(macro, "connections")
